// Tests for the bench_compare regression gate (tools/bench_compare_lib).
// Synthetic documents cover the four verdict paths — regression, improvement,
// new case, missing case — plus per-case threshold overrides, schema
// validation and the host-fingerprint check, all without spawning processes
// or timing anything.
#include <gtest/gtest.h>

#include <string>

#include "bench_compare_lib.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace plf::tools {
namespace {

json::Value doc(const std::string& cases) {
  return json::parse(R"({"schema": "plf-bench-v1", "cases": {)" + cases + "}}");
}

std::string one_case(const std::string& name, double min_s,
                     const std::string& extra = "") {
  return "\"" + name + "\": {\"unit\": \"s/call\", \"min\": " +
         std::to_string(min_s) + extra + "}";
}

const CaseResult* find_case(const CompareReport& r, const std::string& name) {
  for (const CaseResult& c : r.cases) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(BenchCompare, WithinThresholdIsOk) {
  const auto base = doc(one_case("kernel.down", 1.0e-4));
  const auto cur = doc(one_case("kernel.down", 1.10e-4));  // +10% < 15%
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.ok, 1);
  ASSERT_NE(find_case(r, "kernel.down"), nullptr);
  EXPECT_EQ(find_case(r, "kernel.down")->status, CaseStatus::kOk);
  EXPECT_NEAR(find_case(r, "kernel.down")->ratio, 1.10, 1e-9);
}

TEST(BenchCompare, SlowdownPastThresholdRegresses) {
  const auto base = doc(one_case("kernel.down", 1.0e-4));
  const auto cur = doc(one_case("kernel.down", 1.2e-4));  // +20% > 15%
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.regressed, 1);
  EXPECT_EQ(find_case(r, "kernel.down")->status, CaseStatus::kRegressed);
}

TEST(BenchCompare, SpeedupPastThresholdIsImprovedNotFailure) {
  const auto base = doc(one_case("kernel.down", 1.0e-4));
  const auto cur = doc(one_case("kernel.down", 0.5e-4));
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.improved, 1);
  EXPECT_EQ(find_case(r, "kernel.down")->status, CaseStatus::kImproved);
}

TEST(BenchCompare, NewCaseIsInformational) {
  const auto base = doc(one_case("kernel.down", 1.0e-4));
  const auto cur = doc(one_case("kernel.down", 1.0e-4) + "," +
                       one_case("kernel.shiny", 2.0e-4));
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.new_cases, 1);
  EXPECT_EQ(find_case(r, "kernel.shiny")->status, CaseStatus::kNew);
}

TEST(BenchCompare, NewCaseReportsItsOwnThreshold) {
  // A new case has no baseline entry: the threshold shown is the one its
  // own run recorded, not the default.
  const auto base = doc(one_case("kernel.down", 1.0e-4));
  const auto cur = doc(one_case("kernel.down", 1.0e-4) + "," +
                       one_case("kernel.shiny", 2.0e-4,
                                ", \"threshold\": 0.4"));
  CompareOptions opts;
  opts.default_threshold = 0.15;
  const CompareReport r = compare_benches(base, cur, opts);
  EXPECT_EQ(find_case(r, "kernel.shiny")->threshold, 0.4);
  EXPECT_EQ(find_case(r, "kernel.down")->threshold, 0.15);
}

TEST(BenchCompare, MissingCaseFailsTheGate) {
  // A case silently vanishing from the suite must fail: otherwise deleting
  // a slow bench "fixes" a regression.
  const auto base = doc(one_case("kernel.down", 1.0e-4) + "," +
                        one_case("kernel.gone", 1.0e-4));
  const auto cur = doc(one_case("kernel.down", 1.0e-4));
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.missing, 1);
  EXPECT_EQ(find_case(r, "kernel.gone")->status, CaseStatus::kMissing);
}

TEST(BenchCompare, PerCaseThresholdOverridesDefault) {
  // +20% regresses under the 0.15 default but passes a 0.40 per-case
  // threshold (the noisy threaded-engine cases carry one).
  const auto base = doc(one_case("engine.noisy", 1.0e-3,
                                 ", \"threshold\": 0.40"));
  const auto cur = doc(one_case("engine.noisy", 1.2e-3));
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  EXPECT_FALSE(r.failed());
  EXPECT_DOUBLE_EQ(find_case(r, "engine.noisy")->threshold, 0.40);
}

TEST(BenchCompare, DefaultThresholdIsConfigurable) {
  const auto base = doc(one_case("kernel.down", 1.0e-4));
  const auto cur = doc(one_case("kernel.down", 1.2e-4));
  CompareOptions opts;
  opts.default_threshold = 0.30;  // +20% now tolerated
  EXPECT_FALSE(compare_benches(base, cur, opts).failed());
  opts.default_threshold = 0.10;
  EXPECT_TRUE(compare_benches(base, cur, opts).failed());
}

TEST(BenchCompare, RejectsWrongSchema) {
  const auto bad = json::parse(R"({"schema": "other-v9", "cases": {}})");
  const auto good = doc("");
  EXPECT_THROW(compare_benches(bad, good, CompareOptions{}), Error);
  EXPECT_THROW(compare_benches(good, bad, CompareOptions{}), Error);
  const auto no_cases = json::parse(R"({"schema": "plf-bench-v1"})");
  EXPECT_THROW(compare_benches(no_cases, good, CompareOptions{}), Error);
}

TEST(BenchCompare, FormatReportListsVerdicts) {
  const auto base = doc(one_case("a.regressed", 1.0) + "," +
                        one_case("b.missing", 1.0));
  const auto cur = doc(one_case("a.regressed", 2.0) + "," +
                       one_case("c.new", 1.0));
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  const std::string out = format_report(r);
  EXPECT_NE(out.find("REGRESSED"), std::string::npos);
  EXPECT_NE(out.find("MISSING"), std::string::npos);
  EXPECT_NE(out.find("new"), std::string::npos);
  EXPECT_NE(out.find("verdict: FAIL"), std::string::npos);
  EXPECT_NE(out.find("1 regressed"), std::string::npos);
  EXPECT_NE(out.find("1 missing"), std::string::npos);

  const auto clean = compare_benches(base, base, CompareOptions{});
  EXPECT_NE(format_report(clean).find("verdict: PASS"), std::string::npos);
}

json::Value doc_on(const std::string& host, const std::string& cases) {
  return json::parse(R"({"schema": "plf-bench-v1", "host": {)" + host +
                     R"(}, "cases": {)" + cases + "}}");
}

constexpr const char* kHost =
    R"("hostname": "vm", "cpu": "Xeon", "hardware_threads": 4, )"
    R"("compiler": "12.2.0", "pointer_bits": 64)";

TEST(BenchCompare, SameHostUnderAnotherHostnameCompares) {
  const std::string renamed =
      R"("hostname": "other-vm", "cpu": "Xeon", "hardware_threads": 4, )"
      R"("compiler": "12.2.0", "pointer_bits": 64)";
  const auto base = doc_on(kHost, one_case("kernel.down", 1.0e-4));
  const auto cur = doc_on(renamed, one_case("kernel.down", 1.0e-4));
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  EXPECT_TRUE(r.host_mismatches.empty());
  EXPECT_FALSE(r.failed());
}

TEST(BenchCompare, BaselineFromAnotherHostFailsAndNamesTheFields) {
  // Identical timings still fail: a baseline blessed on another machine
  // gates nothing.
  const std::string other =
      R"("hostname": "vm", "cpu": "EPYC", "hardware_threads": 16, )"
      R"("compiler": "12.2.0", "pointer_bits": 64)";
  const auto base = doc_on(kHost, one_case("kernel.down", 1.0e-4));
  const auto cur = doc_on(other, one_case("kernel.down", 1.0e-4));
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.regressed, 0);
  ASSERT_EQ(r.host_mismatches.size(), 2u);
  EXPECT_EQ(r.host_mismatches[0].field, "cpu");
  EXPECT_EQ(r.host_mismatches[0].baseline, "Xeon");
  EXPECT_EQ(r.host_mismatches[0].current, "EPYC");
  EXPECT_EQ(r.host_mismatches[1].field, "hardware_threads");
  EXPECT_EQ(r.host_mismatches[1].baseline, "4");
  EXPECT_EQ(r.host_mismatches[1].current, "16");

  const std::string out = format_report(r);
  EXPECT_NE(out.find("host mismatch: cpu: baseline 'Xeon' vs current 'EPYC'"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("host mismatch: hardware_threads"), std::string::npos);
  EXPECT_NE(out.find("verdict: FAIL"), std::string::npos);
}

TEST(BenchCompare, MissingHostFieldIsAMismatch) {
  const std::string no_compiler =
      R"("hostname": "vm", "cpu": "Xeon", "hardware_threads": 4, )"
      R"("pointer_bits": 64)";
  const auto base = doc_on(kHost, one_case("kernel.down", 1.0e-4));
  const auto cur = doc_on(no_compiler, one_case("kernel.down", 1.0e-4));
  const CompareReport r = compare_benches(base, cur, CompareOptions{});
  ASSERT_EQ(r.host_mismatches.size(), 1u);
  EXPECT_EQ(r.host_mismatches[0].field, "compiler");
  EXPECT_EQ(r.host_mismatches[0].current, "(absent)");
  EXPECT_TRUE(r.failed());
}

}  // namespace
}  // namespace plf::tools
