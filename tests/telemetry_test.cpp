// Live telemetry end-to-end (docs/OBSERVABILITY.md): the exporter's JSONL
// schema round-trips through plf::json, the status file is always a complete
// document, checkpoint/resume appends a bit-consistent continuation, running
// with telemetry on does not perturb the chains (0-ULP), and the plf_status
// renderer turns records into the live table.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/coupled.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "phylo/patterns.hpp"
#include "plf_status/status.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace plf::mcmc {
namespace {

struct Instance {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
};

Instance make_instance(std::size_t taxa, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.15);
  phylo::GtrParams params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto aln = ev.evolve(cols, rng);
  return Instance{std::move(tree), params, phylo::PatternMatrix::compress(aln)};
}

std::vector<std::unique_ptr<core::PlfEngine>> make_engines(
    const Instance& inst, core::ExecutionBackend& backend, std::size_t n) {
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < n; ++i) {
    engines.push_back(std::make_unique<core::PlfEngine>(
        inst.data, inst.params, inst.tree, backend));
  }
  return engines;
}

// Names embed the pid so concurrent ctest invocations (e.g. two checkouts
// sharing one TMPDIR) never append to each other's telemetry files.
std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "plf" +
                           std::to_string(static_cast<long>(::getpid())) +
                           "_" + name;
  std::filesystem::remove(path);
  return path;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

/// Compare the deterministic (generation-indexed) fields of two records;
/// wall_s / ess_per_sec / metrics / extra are allowed to differ.
void expect_deterministic_fields_equal(const json::Value& a,
                                       const json::Value& b) {
  EXPECT_EQ(a.at("generation").as_number(), b.at("generation").as_number());
  const json::Value& ca = a.at("cold");
  const json::Value& cb = b.at("cold");
  EXPECT_EQ(ca.at("n_samples").as_number(), cb.at("n_samples").as_number());
  for (const char* key : {"ln_likelihood", "mean_ln_likelihood", "ess"}) {
    SCOPED_TRACE(key);
    EXPECT_TRUE(
        bits_equal(ca.at(key).as_number(), cb.at(key).as_number()));
  }
  // R-hat may be NaN (-> null) while the estimator has too few batches; the
  // two runs must agree on that too.
  ASSERT_EQ(ca.at("rhat").is_null(), cb.at("rhat").is_null());
  if (!ca.at("rhat").is_null()) {
    EXPECT_TRUE(
        bits_equal(ca.at("rhat").as_number(), cb.at("rhat").as_number()));
  }
  for (const char* section : {"acceptance"}) {
    const json::Value& ra = a.at(section);
    const json::Value& rb = b.at(section);
    ASSERT_EQ(ra.as_object().size(), rb.as_object().size()) << section;
    for (const auto& [name, rate] : ra.as_object()) {
      SCOPED_TRACE(name);
      const json::Value* other = rb.find(name);
      ASSERT_NE(other, nullptr);
      EXPECT_EQ(rate.at("proposed").as_number(),
                other->at("proposed").as_number());
      EXPECT_EQ(rate.at("accepted").as_number(),
                other->at("accepted").as_number());
    }
  }
  EXPECT_EQ(a.at("swaps").at("proposed").as_number(),
            b.at("swaps").at("proposed").as_number());
  EXPECT_EQ(a.at("swaps").at("accepted").as_number(),
            b.at("swaps").at("accepted").as_number());
}

TEST(TelemetryTest, JsonlRecordsRoundTripThroughPlfJson) {
  const std::string jsonl = temp_path("plf_telemetry_roundtrip.jsonl");
  const std::string status = temp_path("plf_telemetry_roundtrip_status.json");
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 150, 301);

  obs::MetricsRegistry registry;
  obs::TelemetryOptions topts;
  topts.jsonl_path = jsonl;
  topts.status_path = status;
  topts.every_generations = 50;
  obs::TelemetryExporter exporter(topts, &registry);

  CoupledOptions opts;
  opts.chain.seed = 31;
  opts.chain.sample_every = 10;
  opts.swap_every = 5;
  opts.telemetry = &exporter;
  CoupledChains mc3(make_engines(inst, backend, 3), opts);
  mc3.run(300);

  const std::vector<std::string> lines = read_lines(jsonl);
  ASSERT_EQ(lines.size(), 6u);  // generations 50, 100, ..., 300
  EXPECT_EQ(exporter.records_written(), 6u);
  EXPECT_EQ(exporter.last_generation(), 300u);

  std::uint64_t prev_gen = 0;
  for (const std::string& line : lines) {
    const json::Value rec = json::parse(line);
    EXPECT_EQ(rec.at("schema").as_string(), obs::TelemetryExporter::kSchema);
    const auto gen = static_cast<std::uint64_t>(
        rec.at("generation").as_number());
    EXPECT_GT(gen, prev_gen) << "generations must be strictly monotone";
    prev_gen = gen;
    EXPECT_GE(rec.at("wall_s").as_number(), 0.0);
    const json::Value& cold = rec.at("cold");
    EXPECT_GT(cold.at("n_samples").as_number(), 0.0);
    EXPECT_LT(cold.at("ln_likelihood").as_number(), 0.0);
    EXPECT_GE(cold.at("ess").as_number(), 1.0);
    EXPECT_FALSE(rec.at("acceptance").as_object().empty());
    EXPECT_GT(rec.at("swaps").at("proposed").as_number(), 0.0);
    EXPECT_FALSE(rec.at("swaps").at("pairs").as_object().empty());
    // The cold engine's arena hit rate rides along under "extra".
    EXPECT_NE(rec.at("extra").find("arena.hit_rate"), nullptr);
    // include_metrics: the full registry snapshot is embedded, with the
    // exporter's own self-metrics interned.
    const json::Value& metrics = rec.at("metrics");
    EXPECT_NE(metrics.at("gauges").find("mcmc.cold_ln_likelihood"), nullptr);
  }

  // The status file is one complete record equal in generation to the tail.
  const json::Value last = json::parse_file(status);
  EXPECT_EQ(last.at("schema").as_string(), status::kSchema);
  EXPECT_EQ(last.at("generation").as_number(), 300.0);
}

TEST(TelemetryTest, DueFollowsGenerationCadenceWithoutDuplicates) {
  obs::TelemetryOptions topts;  // no paths: cadence only, no files
  topts.every_generations = 100;
  obs::TelemetryExporter exporter(topts);
  EXPECT_TRUE(exporter.due(100));
  EXPECT_FALSE(exporter.due(101));
  obs::TelemetryRecord rec;
  rec.generation = 100;
  exporter.export_record(rec);
  EXPECT_FALSE(exporter.due(100)) << "a generation is exported at most once";
  EXPECT_FALSE(exporter.due(99)) << "never re-export behind the tail";
  EXPECT_TRUE(exporter.due(200));
  EXPECT_EQ(exporter.records_written(), 1u);
}

TEST(TelemetryTest, PrepareResumeTruncatesTailAndTornLine) {
  const std::string jsonl = temp_path("plf_telemetry_truncate.jsonl");
  {
    std::ofstream os(jsonl, std::ios::binary);
    os << R"({"schema":"plf-telemetry-v1","generation":50,"x":1})" << "\n";
    os << R"({"schema":"plf-telemetry-v1","generation":100,"x":2})" << "\n";
    os << R"({"schema":"plf-telemetry-v1","generation":150,"x":3})" << "\n";
    os << R"({"schema":"plf-telemetry-v1","gener)";  // torn mid-append
  }
  obs::TelemetryOptions topts;
  topts.jsonl_path = jsonl;
  topts.every_generations = 50;
  topts.include_metrics = false;
  obs::TelemetryExporter exporter(topts, nullptr);
  exporter.prepare_resume(100);

  const std::vector<std::string> lines = read_lines(jsonl);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(json::parse(lines.back()).at("generation").as_number(), 100.0);
  EXPECT_EQ(exporter.records_written(), 2u);
  EXPECT_EQ(exporter.last_generation(), 100u);
  // The cadence is primed: the next due generation is 150, nothing earlier.
  EXPECT_FALSE(exporter.due(100));
  EXPECT_TRUE(exporter.due(150));
}

TEST(TelemetryTest, PrepareResumeOnFreshFileIsANoOp) {
  obs::TelemetryOptions topts;
  topts.jsonl_path = temp_path("plf_telemetry_fresh.jsonl");
  topts.include_metrics = false;
  obs::TelemetryExporter exporter(topts, nullptr);
  exporter.prepare_resume(500);
  EXPECT_EQ(exporter.records_written(), 0u);
  EXPECT_FALSE(std::filesystem::exists(topts.jsonl_path));
}

TEST(TelemetryTest, ResumedRunAppendsBitConsistentContinuation) {
  // Crash simulation: checkpoint at generation 150, keep running to 200 (the
  // "lost" tail past the checkpoint), then restore and resume to 300 with
  // prepare_resume truncating that tail. The resumed JSONL must equal the
  // uninterrupted run's in every deterministic field, generations strictly
  // monotone across the boundary.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 150, 302);
  const std::string full_jsonl = temp_path("plf_telemetry_full.jsonl");
  const std::string resumed_jsonl = temp_path("plf_telemetry_resumed.jsonl");

  CoupledOptions opts;
  opts.chain.seed = 37;
  opts.chain.sample_every = 10;
  opts.swap_every = 5;

  obs::MetricsRegistry reg_full;
  obs::TelemetryOptions topts;
  topts.every_generations = 50;
  topts.jsonl_path = full_jsonl;
  obs::TelemetryExporter full_exporter(topts, &reg_full);
  opts.telemetry = &full_exporter;
  CoupledChains full(make_engines(inst, backend, 4), opts);
  full.run(300);

  obs::MetricsRegistry reg_a;
  topts.jsonl_path = resumed_jsonl;
  obs::TelemetryExporter exporter_a(topts, &reg_a);
  opts.telemetry = &exporter_a;
  CoupledChains a(make_engines(inst, backend, 4), opts);
  a.run(150);
  std::ostringstream checkpoint;
  a.save_checkpoint(checkpoint);
  a.run(200);  // writes the generation-200 record the checkpoint never saw

  obs::MetricsRegistry reg_b;
  obs::TelemetryExporter exporter_b(topts, &reg_b);
  opts.telemetry = &exporter_b;
  CoupledChains b(make_engines(inst, backend, 4), opts);
  std::istringstream is(checkpoint.str());
  b.restore_checkpoint(is);
  ASSERT_EQ(b.generation(), 150u);
  exporter_b.prepare_resume(b.generation());
  EXPECT_EQ(exporter_b.last_generation(), 150u);
  b.run(300);

  const std::vector<std::string> full_lines = read_lines(full_jsonl);
  const std::vector<std::string> resumed_lines = read_lines(resumed_jsonl);
  ASSERT_EQ(full_lines.size(), 6u);
  ASSERT_EQ(resumed_lines.size(), full_lines.size());
  std::uint64_t prev_gen = 0;
  for (std::size_t i = 0; i < full_lines.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const json::Value fa = json::parse(full_lines[i]);
    const json::Value fb = json::parse(resumed_lines[i]);
    expect_deterministic_fields_equal(fa, fb);
    const auto gen =
        static_cast<std::uint64_t>(fb.at("generation").as_number());
    EXPECT_GT(gen, prev_gen);
    prev_gen = gen;
  }
}

TEST(TelemetryTest, TelemetryOnDoesNotPerturbTheChains) {
  // The 0-ULP gate: identical seeds with and without an exporter attached
  // must produce bit-identical sampled lnL trajectories and final state.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 150, 303);
  CoupledOptions opts;
  opts.chain.seed = 41;
  opts.chain.sample_every = 20;
  opts.swap_every = 5;

  CoupledChains off(make_engines(inst, backend, 3), opts);
  const CoupledResult r_off = off.run(400);

  obs::TelemetryOptions topts;
  topts.jsonl_path = temp_path("plf_telemetry_perturb.jsonl");
  topts.status_path = temp_path("plf_telemetry_perturb_status.json");
  topts.every_generations = 10;  // export aggressively: 40 records
  topts.include_metrics = false;
  obs::TelemetryExporter exporter(topts, nullptr);
  opts.telemetry = &exporter;
  CoupledChains on(make_engines(inst, backend, 3), opts);
  const CoupledResult r_on = on.run(400);

  EXPECT_EQ(exporter.records_written(), 40u);
  EXPECT_TRUE(bits_equal(r_on.cold.final_ln_likelihood,
                         r_off.cold.final_ln_likelihood));
  EXPECT_EQ(r_on.cold.final_tree_newick, r_off.cold.final_tree_newick);
  EXPECT_EQ(r_on.swaps_accepted, r_off.swaps_accepted);
  ASSERT_EQ(r_on.cold.samples.size(), r_off.cold.samples.size());
  for (std::size_t i = 0; i < r_on.cold.samples.size(); ++i) {
    EXPECT_TRUE(bits_equal(r_on.cold.samples[i].ln_likelihood,
                           r_off.cold.samples[i].ln_likelihood))
        << "sample " << i;
  }
}

TEST(TelemetryTest, StopAtEssEndsRunEarlyAndFlushesFinalRecord) {
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 150, 304);
  obs::TelemetryOptions topts;
  topts.jsonl_path = temp_path("plf_telemetry_stop.jsonl");
  topts.every_generations = 1000;  // cadence alone would never fire early
  topts.include_metrics = false;
  obs::TelemetryExporter exporter(topts, nullptr);

  CoupledOptions opts;
  opts.chain.seed = 43;
  opts.chain.sample_every = 10;
  opts.stop_at_ess = 10.0;
  opts.telemetry = &exporter;
  CoupledChains mc3(make_engines(inst, backend, 2), opts);
  const CoupledResult result = mc3.run(100000);

  EXPECT_TRUE(result.stopped_at_ess);
  EXPECT_LT(mc3.generation(), 100000u);
  EXPECT_GE(mc3.cold_ess().ess(), 10.0);
  // The stop flushes a final record at the stopping generation even though
  // the cadence was not due.
  const std::vector<std::string> lines =
      read_lines(topts.jsonl_path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(json::parse(lines.back()).at("generation").as_number(),
            static_cast<double>(mc3.generation()));
}

// --- plf_status rendering ---------------------------------------------------

const char* kCannedRecord =
    R"({"schema":"plf-telemetry-v1","generation":300,"wall_s":1.5,)"
    R"("cold":{"n_samples":7,"ln_likelihood":-1234.5,)"
    R"("mean_ln_likelihood":-1240.25,"ess":42.5,"ess_per_sec":28.3,)"
    R"("rhat":null},)"
    R"("acceptance":{"branch_length":{"proposed":100,"accepted":25,)"
    R"("rate":0.25}},)"
    R"("swaps":{"proposed":30,"accepted":10,"rate":0.333,)"
    R"("pairs":{"0-1":{"proposed":15,"accepted":7,"rate":0.466}}},)"
    R"("extra":{"arena.hit_rate":0.75}})";

TEST(StatusToolTest, RendersEveryDiagnosticSection) {
  const std::string out = status::render_record(json::parse(kCannedRecord));
  for (const char* expected :
       {"300", "-1234.5", "42.5", "branch_length", "0-1", "arena.hit_rate",
        "n/a" /* null rhat */}) {
    EXPECT_NE(out.find(expected), std::string::npos)
        << "missing \"" << expected << "\" in:\n"
        << out;
  }
}

TEST(StatusToolTest, RejectsForeignSchema) {
  EXPECT_THROW(
      status::render_record(json::parse(R"({"schema":"other","x":1})")),
      Error);
  EXPECT_THROW(status::render_record(json::parse("[1,2,3]")), Error);
}

TEST(StatusToolTest, LoadLatestSkipsTornTailLine) {
  const std::string path = temp_path("plf_status_torn.jsonl");
  {
    std::ofstream os(path, std::ios::binary);
    std::string second(kCannedRecord);
    const std::string from = "\"generation\":300";
    second.replace(second.find(from), from.size(), "\"generation\":350");
    os << kCannedRecord << "\n" << second << "\n";
    os << R"({"schema":"plf-telemetry-v1","gen)";  // torn mid-append
  }
  const json::Value latest = status::load_latest(path);
  EXPECT_EQ(latest.at("generation").as_number(), 350.0);
  EXPECT_FALSE(status::render_record(latest).empty());
}

TEST(StatusToolTest, LoadLatestThrowsOnMissingOrEmptyFile) {
  EXPECT_THROW(status::load_latest(temp_path("plf_status_missing.jsonl")),
               Error);
  const std::string path = temp_path("plf_status_empty.jsonl");
  std::ofstream(path, std::ios::binary).close();
  EXPECT_THROW(status::load_latest(path), Error);
}

}  // namespace
}  // namespace plf::mcmc
