// Golden tests for plf_lint (docs/STATIC_ANALYSIS.md): each known-bad
// fixture in tests/lint_fixtures/ fires its rule exactly once, no other
// rule fires on it, a suppression entry silences it, and the known-good
// companion stays clean. Plus tokenizer and report-format unit checks.
#include "plf_lint/lint.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace plf::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(PLF_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Count findings of `rule`; EXPECT no findings of any other rule.
int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) {
      ++n;
    } else {
      ADD_FAILURE() << "unexpected cross-rule finding " << f.rule << " at "
                    << f.file << ":" << f.line << ": " << f.message;
    }
  }
  return n;
}

struct GoldenCase {
  const char* fixture;   ///< file under tests/lint_fixtures/
  const char* relpath;   ///< path the fixture pretends to live at
  const char* rule;      ///< the one rule expected to fire, exactly once
};

const GoldenCase kGolden[] = {
    {"kernel_contract.cpp", "src/core/kernels_bad.cpp", "kernel-contract"},
    {"kernel_entries.hpp", "src/core/kernel_entries.hpp", "kernel-contract"},
    {"prof_name_constant.cpp", "src/obs/prof_bad.cpp", "prof-name-constant"},
    {"metric_name_constant.cpp", "src/mcmc/publish_bad.cpp",
     "prof-name-constant"},
    {"raw_thread.cpp", "src/mcmc/spawn_bad.cpp", "raw-thread"},
    {"float_equality.cpp", "src/numerics/conv_bad.cpp", "float-equality"},
    {"atomic_memory_order.cpp", "src/obs/atomic_bad.cpp",
     "atomic-memory-order"},
    {"arena_contract.cpp", "src/core/clv_arena.cpp", "arena-contract"},
    {"checkpoint_serializer.cpp", "src/mcmc/ckpt_bad.cpp",
     "checkpoint-serializer"},
};

TEST(LintGolden, EachRuleFiresExactlyOnce) {
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE(c.fixture);
    const std::string text = read_fixture(c.fixture);
    const std::vector<Finding> findings = lint_source(c.relpath, text);
    EXPECT_EQ(count_rule(findings, c.rule), 1);
  }
}

TEST(LintGolden, SuppressionSilencesTheFinding) {
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE(c.fixture);
    std::vector<Finding> findings = lint_source(c.relpath, read_fixture(c.fixture));
    ASSERT_FALSE(findings.empty());
    const std::vector<Suppression> sups = {
        Suppression{c.rule, c.relpath, -1, "golden test"}};
    apply_suppressions(findings, sups);
    for (const Finding& f : findings) {
      EXPECT_TRUE(f.suppressed) << f.rule << " at " << f.file << ":" << f.line;
    }
  }
}

TEST(LintGolden, WrongRuleOrFileDoesNotSuppress) {
  const GoldenCase& c = kGolden[0];
  std::vector<Finding> findings = lint_source(c.relpath, read_fixture(c.fixture));
  ASSERT_FALSE(findings.empty());
  apply_suppressions(findings, {Suppression{"raw-thread", c.relpath, -1, "x"}});
  apply_suppressions(findings,
                     {Suppression{c.rule, "src/core/other.cpp", -1, "x"}});
  apply_suppressions(findings, {Suppression{c.rule, c.relpath, 99999, "x"}});
  for (const Finding& f : findings) EXPECT_FALSE(f.suppressed);
}

TEST(LintGolden, KnownGoodKernelEntryIsClean) {
  const std::vector<Finding> findings = lint_source(
      "src/core/kernels_ok.cpp", read_fixture("kernel_contract_ok.cpp"));
  EXPECT_TRUE(findings.empty());
}

TEST(LintGolden, KnownGoodTemplatedKernelEntryIsClean) {
  const std::vector<Finding> findings = lint_source(
      "src/core/kernel_entries.hpp", read_fixture("kernel_entries_ok.hpp"));
  EXPECT_TRUE(findings.empty());
}

TEST(LintGolden, KnownGoodArenaEntryIsClean) {
  const std::vector<Finding> findings = lint_source(
      "src/core/clv_arena.cpp", read_fixture("arena_contract_ok.cpp"));
  EXPECT_TRUE(findings.empty());
}

TEST(LintGolden, OutOfScopePathsAreExempt) {
  // The same bad text outside the rule's scope must not fire: rules encode
  // project layout, not universal style.
  EXPECT_TRUE(lint_source("tests/foo.cpp", read_fixture("raw_thread.cpp"))
                  .empty());
  EXPECT_TRUE(
      lint_source("src/par/pool_extra.cpp", read_fixture("raw_thread.cpp"))
          .empty());
  EXPECT_TRUE(lint_source("src/obs/conv.cpp", read_fixture("float_equality.cpp"))
                  .empty());
  // The ULP helper header itself is the one numeric file allowed to compare.
  EXPECT_TRUE(
      lint_source("src/numerics/ulp.hpp", read_fixture("float_equality.cpp"))
          .empty());
  // kernels.cpp (dispatch table) is not a kernels_*.cpp kernel file, and
  // of the core headers only the shared entries header holds entries.
  EXPECT_TRUE(
      lint_source("src/core/kernels.cpp", read_fixture("kernel_contract.cpp"))
          .empty());
  EXPECT_TRUE(lint_source("src/core/kernel_contracts.hpp",
                          read_fixture("kernel_entries.hpp"))
                  .empty());
  // The arena rule binds to the one file that defines ClvArena's methods.
  EXPECT_TRUE(
      lint_source("src/core/engine.cpp", read_fixture("arena_contract.cpp"))
          .empty());
  // The instance scheduler's driver threads are sanctioned, like the pool's.
  EXPECT_TRUE(
      lint_source("src/exec/scheduler.cpp", read_fixture("raw_thread.cpp"))
          .empty());
  // The serializer itself is the one place allowed to touch raw bytes.
  EXPECT_TRUE(lint_source("src/util/serialize.cpp",
                          read_fixture("checkpoint_serializer.cpp"))
                  .empty());
}

TEST(LintGolden, KnownGoodCheckpointSerializerIsClean) {
  const std::vector<Finding> findings = lint_source(
      "src/mcmc/ckpt_ok.cpp", read_fixture("checkpoint_serializer_ok.cpp"));
  EXPECT_TRUE(findings.empty());
}

TEST(LintTokenizer, SkipsCommentsAndFoldsStrings) {
  const std::vector<Token> t = tokenize(
      "int a = 1; // b == 2\n"
      "/* c != 3 */ const char* s = \"x == y\";\n");
  for (const Token& tok : t) {
    EXPECT_NE(tok.text, "b");
    EXPECT_NE(tok.text, "c");
  }
  bool saw_string = false;
  for (const Token& tok : t) {
    if (tok.kind == Token::Kind::kString) {
      saw_string = true;
      EXPECT_EQ(tok.text, "\"x == y\"");
      EXPECT_EQ(tok.line, 2);
    }
  }
  EXPECT_TRUE(saw_string);
}

TEST(LintTokenizer, KeepsScopeAndComparisonOperatorsWhole) {
  const std::vector<Token> t = tokenize("std::thread x; a == b; c != d;");
  int scopes = 0, eq = 0, ne = 0;
  for (const Token& tok : t) {
    if (tok.text == "::") ++scopes;
    if (tok.text == "==") ++eq;
    if (tok.text == "!=") ++ne;
  }
  EXPECT_EQ(scopes, 1);
  EXPECT_EQ(eq, 1);
  EXPECT_EQ(ne, 1);
}

TEST(LintRules, ExplicitMemoryOrderPasses) {
  const char* src =
      "#include <atomic>\n"
      "std::atomic<int> g{0};\n"
      "int f() { return g.fetch_add(1, std::memory_order_relaxed); }\n";
  EXPECT_TRUE(lint_source("src/obs/ok.cpp", src).empty());
}

TEST(LintRules, AtomicDeclaredInHeaderCaughtInCppViaContext) {
  Context ctx;
  scan_context("class P { std::atomic<bool> flag_{false}; };", ctx);
  ASSERT_EQ(ctx.atomic_names.count("flag_"), 1u);
  const std::vector<Finding> findings = lint_source(
      "src/par/p_extra_impl.cpp", "void f(P& p) { p.flag_.store(true); }", &ctx);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "atomic-memory-order");
}

TEST(LintRules, NonAtomicStoreIsNotFlagged) {
  // Vec4-style value types also have .store(); only declared atomics count.
  const char* src = "void f(Vec4f v, float* out) { v.store(out); }\n";
  EXPECT_TRUE(lint_source("src/simd/v.cpp", src).empty());
}

TEST(LintRules, ConstantProfNamePasses) {
  const char* src =
      "#include \"obs/profile.hpp\"\n"
      "void f() { PLF_PROF_SCOPE(obs::kTimerParRegion); }\n";
  EXPECT_TRUE(lint_source("src/core/f.cpp", src).empty());
}

TEST(LintRules, RegistryInternWithConstantOrPrefixPasses) {
  // Interning through a names.hpp constant — or a prefix constant completed
  // with a dynamic suffix — is the sanctioned pattern; only a string literal
  // as the first argument token fires.
  const char* src =
      "#include \"obs/metrics.hpp\"\n"
      "void f(plf::obs::MetricsRegistry& r, const std::string& n) {\n"
      "  r.set_gauge(r.gauge(obs::kGaugeMcmcColdEss), 1.0);\n"
      "  r.set_gauge(r.gauge(std::string(obs::kGaugeMcmcProposedPrefix) + n),\n"
      "              2.0);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/mcmc/f.cpp", src).empty());
}

TEST(LintReport, JsonShapeAndCounts) {
  std::vector<Finding> findings = {
      Finding{"src/a.cpp", 3, "raw-thread", "msg \"quoted\"", false},
      Finding{"src/b.cpp", 7, "float-equality", "msg2", true},
  };
  const std::string json = findings_to_json(findings);
  EXPECT_NE(json.find("\"schema\":\"plf-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":1"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(LintReport, CheckedInSuppressionFileLoads) {
  // The real suppression file must always parse: CI depends on it, and a
  // malformed entry must fail tests before it fails the pipeline.
  const std::vector<Suppression> sups =
      load_suppressions(std::string(PLF_LINT_SUPPRESSIONS_FILE));
  for (const Suppression& s : sups) {
    EXPECT_FALSE(s.reason.empty());
    EXPECT_FALSE(s.file.empty());
  }
  EXPECT_LE(sups.size(), 10u) << "suppression budget exceeded "
                                 "(docs/STATIC_ANALYSIS.md caps it at 10)";
}

}  // namespace
}  // namespace plf::lint
