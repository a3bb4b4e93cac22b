#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "gpu/plf_gpu.hpp"
#include "par/thread_pool.hpp"
#include "mcmc/coupled.hpp"
#include "mcmc/diagnostics.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/error.hpp"

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

struct CoupledFixture {
  Instance inst;
  core::SerialBackend backends[4];
  std::vector<std::unique_ptr<core::PlfEngine>> engines;

  CoupledFixture(std::size_t n_chains, std::uint64_t seed)
      : inst(make_instance(8, 150, seed)) {
    for (std::size_t i = 0; i < n_chains; ++i) {
      engines.push_back(std::make_unique<core::PlfEngine>(
          inst.data, inst.params, inst.tree, backends[i]));
    }
  }

  /// The coupler takes ownership; the fixture's vector is consumed.
  std::vector<std::unique_ptr<core::PlfEngine>> take() {
    return std::move(engines);
  }
};

TEST(CoupledTest, BetaLadderMatchesMrBayesScheme) {
  CoupledFixture fx(4, 81);
  CoupledOptions opts;
  opts.heat = 0.2;
  CoupledChains mc3(fx.take(), opts);
  EXPECT_DOUBLE_EQ(mc3.beta(0), 1.0);
  EXPECT_DOUBLE_EQ(mc3.beta(1), 1.0 / 1.2);
  EXPECT_DOUBLE_EQ(mc3.beta(2), 1.0 / 1.4);
  EXPECT_DOUBLE_EQ(mc3.beta(3), 1.0 / 1.6);
}

TEST(CoupledTest, RunsAndSwaps) {
  CoupledFixture fx(4, 82);
  CoupledOptions opts;
  opts.chain.seed = 9;
  opts.swap_every = 5;
  opts.chain.sample_every = 50;
  CoupledChains mc3(fx.take(), opts);
  const auto result = mc3.run(1000);

  EXPECT_EQ(result.swaps_proposed, 200u);
  EXPECT_GT(result.swaps_accepted, 0u);
  EXPECT_LE(result.swaps_accepted, result.swaps_proposed);
  // All four chains stepped every generation.
  EXPECT_EQ(result.cold.total_proposed(), 4000u);
  EXPECT_EQ(result.final_ln_likelihoods.size(), 4u);
  // 1000/50 samples + initial.
  EXPECT_EQ(result.cold.samples.size(), 21u);
}

TEST(CoupledTest, DeterministicForFixedSeed) {
  CoupledOptions opts;
  opts.chain.seed = 5;
  opts.swap_every = 10;
  CoupledFixture f1(3, 83), f2(3, 83);
  CoupledChains a(f1.take(), opts), b(f2.take(), opts);
  const auto ra = a.run(400);
  const auto rb = b.run(400);
  EXPECT_EQ(ra.cold.final_ln_likelihood, rb.cold.final_ln_likelihood);
  EXPECT_EQ(ra.swaps_accepted, rb.swaps_accepted);
  EXPECT_EQ(ra.cold.final_tree_newick, rb.cold.final_tree_newick);
}

TEST(CoupledTest, ColdChainTracksPosterior) {
  // The cold chain of a coupled run should reach a likelihood comparable to
  // (or better than) a single-chain run of the same length.
  CoupledFixture fx(4, 84);
  CoupledOptions opts;
  opts.chain.seed = 7;
  CoupledChains mc3(fx.take(), opts);
  const auto coupled = mc3.run(1500);

  core::SerialBackend backend;
  core::PlfEngine engine(fx.inst.data, fx.inst.params, fx.inst.tree, backend);
  McmcOptions single_opts;
  single_opts.seed = 7;
  McmcChain single(engine, single_opts);
  const auto single_result = single.run(1500);

  EXPECT_GT(coupled.cold.best_ln_likelihood,
            single_result.best_ln_likelihood - 30.0);
}

TEST(CoupledTest, HeatedChainsAcceptMoreProposals) {
  // A heated chain's flatter target accepts more moves. Compare a strongly
  // heated single chain (via likelihood_power) against the cold one.
  auto inst = make_instance(8, 300, 85);
  core::SerialBackend b1, b2;
  core::PlfEngine cold_engine(inst.data, inst.params, inst.tree, b1);
  core::PlfEngine hot_engine(inst.data, inst.params, inst.tree, b2);
  McmcOptions cold_opts;
  cold_opts.seed = 10;
  McmcOptions hot_opts;
  hot_opts.seed = 10;
  hot_opts.likelihood_power = 0.2;
  McmcChain cold(cold_engine, cold_opts);
  McmcChain hot(hot_engine, hot_opts);
  const auto rc = cold.run(1500);
  const auto rh = hot.run(1500);
  EXPECT_GT(rh.total_accepted(), rc.total_accepted() + 50);
}

TEST(CoupledTest, SingleChainDegeneratesToPlainMcmc) {
  CoupledFixture fx(1, 86);
  CoupledOptions opts;
  opts.chain.seed = 11;
  CoupledChains mc3(fx.take(), opts);
  const auto result = mc3.run(300);
  EXPECT_EQ(result.swaps_accepted, 0u);  // no partner to swap with
  EXPECT_EQ(result.cold.total_proposed(), 300u);
}

TEST(CoupledTest, ConcurrentStepsMatchHandSteppedChains) {
  // Without swaps, chain i of the coupler is a plain McmcChain with seed
  // `seed + i` at power beta(i). The coupler steps its chains concurrently
  // on one shared pool; stepping the same chains one after another by hand
  // must reach the same lnL and tree, bit for bit.
  constexpr std::size_t kChains = 4;
  constexpr std::uint64_t kGens = 300;
  const Instance inst = make_instance(8, 150, 88);
  par::ThreadPool pool(2);
  core::ThreadedBackend backend(pool);
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < kChains; ++i) {
    engines.push_back(std::make_unique<core::PlfEngine>(
        inst.data, inst.params, inst.tree, backend));
  }
  CoupledOptions opts;
  opts.chain.seed = 13;
  opts.swap_every = 0;
  CoupledChains mc3(std::move(engines), opts);
  const CoupledResult result = mc3.run(kGens);
  ASSERT_EQ(result.final_ln_likelihoods.size(), kChains);

  for (std::size_t i = 0; i < kChains; ++i) {
    core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
    McmcOptions chain_opts = opts.chain;
    chain_opts.seed = opts.chain.seed + i;
    chain_opts.likelihood_power = mc3.beta(i);
    chain_opts.sample_every = 0;
    McmcChain chain(engine, chain_opts);
    for (std::uint64_t g = 0; g < kGens; ++g) chain.step();
    EXPECT_EQ(result.final_ln_likelihoods[i], chain.ln_likelihood())
        << "chain " << i;
    EXPECT_EQ(mc3.engine(i).tree().to_newick(17),
              engine.tree().to_newick(17))
        << "chain " << i;
    // Multi-chain engines carry per-chain gauge labels.
    EXPECT_EQ(mc3.engine(i).instance_label(), "chain" + std::to_string(i));
  }
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// `line` without its `"key":value,` member (a JSONL record's wall-clock
/// fields, which differ between any two runs).
std::string drop_field(std::string line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  if (at != std::string::npos) line.erase(at, line.find(',', at) + 1 - at);
  return line;
}

/// Everything a coupler run leaves behind that the round boundaries could
/// change, gathered over one or more run() calls.
struct Trajectory {
  std::vector<double> final_ln_likelihoods;
  std::vector<std::string> final_newicks;  ///< per engine, then the cold one
  std::uint64_t generation = 0;
  std::uint64_t swaps_proposed = 0;
  std::uint64_t swaps_accepted = 0;
  std::map<std::string, ProposalStats> swap_pairs;
  std::map<std::string, ProposalStats> proposals;
  double best_ln_likelihood = -std::numeric_limits<double>::infinity();
  std::uint64_t ess_count = 0;
  double ess_mean = 0.0;
  double ess = 0.0;
  bool stopped_at_ess = false;
  std::vector<McmcSample> samples;  ///< without each call's opening sample
  std::vector<std::string> trees;
  std::vector<std::string> telemetry;  ///< JSONL, wall-clock fields removed
};

/// Runs 4 coupled chains to `gens` (or to the ESS stop) with cadences that
/// do not line up: in one run() call, or in one call per generation, where
/// every round covers one generation.
Trajectory run_trajectory(bool one_call_per_generation, double stop_at_ess,
                          std::uint64_t gens) {
  const std::string prefix =
      ::testing::TempDir() + "plf" + std::to_string(::getpid()) + "_rounds" +
      (one_call_per_generation ? "_each" : "_once");
  std::filesystem::remove(prefix + ".jsonl");
  obs::TelemetryOptions topts;
  topts.jsonl_path = prefix + ".jsonl";
  topts.every_generations = 3;
  topts.include_metrics = false;
  obs::TelemetryExporter exporter(topts, nullptr);

  CoupledFixture fx(4, 93);
  CoupledOptions opts;
  opts.chain.seed = 17;
  opts.chain.sample_every = 7;
  opts.chain.collect_trees = true;
  opts.swap_every = 10;
  opts.checkpoint_every = 4;
  opts.checkpoint_path = prefix + ".ckpt";
  opts.telemetry = &exporter;
  opts.stop_at_ess = stop_at_ess;
  CoupledChains mc3(fx.take(), opts);

  Trajectory t;
  CoupledResult r;
  auto collect = [&t](const CoupledResult& call) {
    // Drop the call's opening sample: it repeats the previous call's last.
    t.samples.insert(t.samples.end(), call.cold.samples.begin() + 1,
                     call.cold.samples.end());
    t.trees.insert(t.trees.end(), call.cold.sampled_trees.begin() + 1,
                   call.cold.sampled_trees.end());
    t.best_ln_likelihood =
        std::max(t.best_ln_likelihood, call.cold.best_ln_likelihood);
  };
  if (one_call_per_generation) {
    for (std::uint64_t g = 1; g <= gens && !r.stopped_at_ess; ++g) {
      r = mc3.run(g);
      collect(r);
    }
  } else {
    r = mc3.run(gens);
    collect(r);
  }
  t.final_ln_likelihoods = r.final_ln_likelihoods;
  for (std::size_t i = 0; i < mc3.n_chains(); ++i) {
    t.final_newicks.push_back(mc3.engine(i).tree().to_newick(17));
  }
  t.final_newicks.push_back(r.cold.final_tree_newick);
  t.generation = mc3.generation();
  t.swaps_proposed = r.swaps_proposed;
  t.swaps_accepted = r.swaps_accepted;
  t.swap_pairs = r.swap_pair_stats;
  t.proposals = r.cold.proposals;
  t.ess_count = mc3.cold_ess().count();
  t.ess_mean = mc3.cold_ess().mean();
  t.ess = mc3.cold_ess().ess();
  t.stopped_at_ess = r.stopped_at_ess;

  std::ifstream in(topts.jsonl_path);
  for (std::string line; std::getline(in, line);) {
    t.telemetry.push_back(
        drop_field(drop_field(line, "wall_s"), "ess_per_sec"));
  }
  std::filesystem::remove(topts.jsonl_path);
  std::filesystem::remove(opts.checkpoint_path);
  return t;
}

void expect_same_trajectory(const Trajectory& a, const Trajectory& b) {
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.stopped_at_ess, b.stopped_at_ess);
  ASSERT_EQ(a.final_ln_likelihoods.size(), b.final_ln_likelihoods.size());
  for (std::size_t i = 0; i < a.final_ln_likelihoods.size(); ++i) {
    EXPECT_TRUE(bits_equal(a.final_ln_likelihoods[i],
                           b.final_ln_likelihoods[i]))
        << "chain " << i;
  }
  EXPECT_EQ(a.final_newicks, b.final_newicks);
  EXPECT_EQ(a.swaps_proposed, b.swaps_proposed);
  EXPECT_EQ(a.swaps_accepted, b.swaps_accepted);
  ASSERT_EQ(a.swap_pairs.size(), b.swap_pairs.size());
  for (const auto& [name, st] : a.swap_pairs) {
    ASSERT_EQ(b.swap_pairs.count(name), 1u) << name;
    EXPECT_EQ(st.proposed, b.swap_pairs.at(name).proposed) << name;
    EXPECT_EQ(st.accepted, b.swap_pairs.at(name).accepted) << name;
  }
  ASSERT_EQ(a.proposals.size(), b.proposals.size());
  for (const auto& [name, st] : a.proposals) {
    ASSERT_EQ(b.proposals.count(name), 1u) << name;
    EXPECT_EQ(st.proposed, b.proposals.at(name).proposed) << name;
    EXPECT_EQ(st.accepted, b.proposals.at(name).accepted) << name;
  }
  EXPECT_TRUE(bits_equal(a.best_ln_likelihood, b.best_ln_likelihood));
  EXPECT_EQ(a.ess_count, b.ess_count);
  EXPECT_TRUE(bits_equal(a.ess_mean, b.ess_mean));
  EXPECT_TRUE(bits_equal(a.ess, b.ess));
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(a.samples[i].generation, b.samples[i].generation);
    EXPECT_TRUE(
        bits_equal(a.samples[i].ln_likelihood, b.samples[i].ln_likelihood));
    EXPECT_TRUE(bits_equal(a.samples[i].tree_length, b.samples[i].tree_length));
    EXPECT_TRUE(bits_equal(a.samples[i].gamma_shape, b.samples[i].gamma_shape));
  }
  EXPECT_EQ(a.trees, b.trees);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

TEST(CoupledTest, FreeRunningRoundsMatchOneGenerationRounds) {
  // One run(N) steps the chains free between the generations where the
  // coupler acts (swaps every 10, checkpoints every 4, telemetry every 3).
  // N calls of one generation each make every round one generation long.
  // Both must leave the same bits behind; sampling every 7 puts samples
  // inside rounds, on swap generations and on each call's last generation.
  constexpr std::uint64_t kGens = 150;
  const Trajectory once = run_trajectory(false, 0.0, kGens);
  const Trajectory each = run_trajectory(true, 0.0, kGens);
  EXPECT_EQ(once.generation, kGens);
  EXPECT_EQ(once.samples.size(), kGens / 7);
  EXPECT_EQ(once.telemetry.size(), kGens / 3);
  expect_same_trajectory(once, each);
}

TEST(CoupledTest, FreeRunningRoundsStopAtTheSameEssGeneration) {
  // With stop_at_ess every sampled generation ends a round; the stop must
  // land on the same generation as in one-generation rounds.
  constexpr std::uint64_t kGens = 2000;
  const Trajectory once = run_trajectory(false, 6.0, kGens);
  const Trajectory each = run_trajectory(true, 6.0, kGens);
  EXPECT_TRUE(once.stopped_at_ess);
  EXPECT_LT(once.generation, kGens);
  expect_same_trajectory(once, each);
}

TEST(CoupledTest, OneRoundPerSwapInterval) {
  // With telemetry and checkpoints off, the chains meet only at swaps: a
  // run of N generations takes at most ceil(N / swap_every) + 2 rounds
  // (the closing one included), not one per generation.
  CoupledFixture fx(4, 94);
  CoupledOptions opts;
  opts.chain.seed = 19;
  opts.chain.sample_every = 7;
  opts.swap_every = 10;
  CoupledChains mc3(fx.take(), opts);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (std::uint64_t n : {1u, 10u, 95u, 200u}) {
    const std::uint64_t before =
        reg.snapshot().counter_value(obs::kCounterExecRounds);
    (void)mc3.run(mc3.generation() + n);
    const std::uint64_t rounds =
        reg.snapshot().counter_value(obs::kCounterExecRounds) - before;
#if defined(PLF_PROFILING_ENABLED)
    EXPECT_GE(rounds, 1u) << n << " generations";
    EXPECT_LE(rounds, (n + opts.swap_every - 1) / opts.swap_every + 2)
        << n << " generations";
#else
    EXPECT_EQ(rounds, 0u);
#endif
  }
}

TEST(CoupledTest, SwapGenerationsSampleThePostSwapColdChain) {
  // On a swap generation the swap comes first: the sample, the ESS feed and
  // the best lnL all read the chain that holds the cold heat after it.
  // Swapping and sampling every 2 generations puts every sample on one.
  CoupledFixture fx(4, 95);
  CoupledOptions opts;
  opts.chain.seed = 23;
  opts.chain.sample_every = 2;
  opts.chain.collect_trees = true;
  opts.swap_every = 2;
  CoupledChains mc3(fx.take(), opts);
  const CoupledResult r = mc3.run(200);
  std::uint64_t cold_swaps = 0;
  for (const auto& [pair, st] : r.swap_pair_stats) {
    if (pair.rfind("0-", 0) == 0) cold_swaps += st.accepted;
  }
  ASSERT_GT(cold_swaps, 0u) << "no swap moved the cold heat";

  // The ESS estimator saw exactly the sampled lnLs (the opening one aside).
  ASSERT_EQ(r.cold.samples.size(), 101u);
  StreamingEss fed;
  for (std::size_t k = 1; k < r.cold.samples.size(); ++k) {
    fed.add(r.cold.samples[k].ln_likelihood);
  }
  EXPECT_EQ(mc3.cold_ess().count(), fed.count());
  EXPECT_TRUE(bits_equal(mc3.cold_ess().mean(), fed.mean()));
  EXPECT_TRUE(bits_equal(mc3.cold_ess().ess(), fed.ess()));
  // The last sample is the final cold chain.
  EXPECT_TRUE(bits_equal(r.cold.samples.back().ln_likelihood,
                         r.cold.final_ln_likelihood));
  EXPECT_EQ(r.cold.sampled_trees.back(), r.cold.final_tree_newick);
  for (const McmcSample& s : r.cold.samples) {
    EXPECT_GE(r.cold.best_ln_likelihood, s.ln_likelihood);
  }
}

TEST(CoupledTest, RejectsEmptyEngineList) {
  CoupledOptions opts;
  EXPECT_THROW(
      CoupledChains(std::vector<std::unique_ptr<core::PlfEngine>>{}, opts),
      Error);
}

TEST(CoupledTest, RejectsThreadConfinedBackends) {
  const Instance inst = make_instance(8, 150, 5);
  cell::CellMachine cell{cell::CellConfig{}};
  gpu::GpuPlf gpu{gpu::GpuPlfConfig{}};
  core::PerCallBackend percall_cell(cell);
  for (core::ExecutionBackend* backend :
       {static_cast<core::ExecutionBackend*>(&cell),
        static_cast<core::ExecutionBackend*>(&gpu),
        static_cast<core::ExecutionBackend*>(&percall_cell)}) {
    EXPECT_FALSE(backend->supports_concurrent_callers()) << backend->name();
    std::vector<std::unique_ptr<core::PlfEngine>> engines;
    for (int i = 0; i < 2; ++i) {
      engines.push_back(std::make_unique<core::PlfEngine>(
          inst.data, inst.params, inst.tree, *backend,
          core::KernelVariant::kScalar));
    }
    EXPECT_THROW(CoupledChains(std::move(engines), CoupledOptions{}), Error)
        << backend->name();
  }
  // One chain runs inline on the caller, so any backend serves it.
  std::vector<std::unique_ptr<core::PlfEngine>> one;
  one.push_back(std::make_unique<core::PlfEngine>(
      inst.data, inst.params, inst.tree, gpu, core::KernelVariant::kScalar));
  CoupledChains single(std::move(one), CoupledOptions{});
  EXPECT_EQ(single.run(2).final_ln_likelihoods.size(), 1u);
}

TEST(CoupledTest, RepeatedCouplersKeepTheShardCountBounded) {
  // Every coupler starts fresh driver threads that record into the global
  // registry; an exited driver's shard goes to the next one.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  auto run_coupler = [] {
    CoupledFixture fx(4, 91);
    CoupledChains mc3(fx.take(), CoupledOptions{});
    (void)mc3.run(3);
  };
  run_coupler();
  const std::size_t shards = reg.n_shards();
  for (int i = 0; i < 5; ++i) run_coupler();
  EXPECT_LE(reg.n_shards(), shards);
}

TEST(DiagnosticsTest, AutocorrelationBasics) {
  // White-ish noise: lag-1 autocorrelation near zero.
  Rng rng(1);
  std::vector<double> noise(4000);
  for (auto& x : noise) x = rng.normal();
  EXPECT_NEAR(autocorrelation(noise, 0), 1.0, 1e-12);
  EXPECT_NEAR(autocorrelation(noise, 1), 0.0, 0.05);

  // AR(1) with phi = 0.9: lag-1 near 0.9.
  std::vector<double> ar(8000);
  ar[0] = 0.0;
  for (std::size_t i = 1; i < ar.size(); ++i) {
    ar[i] = 0.9 * ar[i - 1] + rng.normal();
  }
  EXPECT_NEAR(autocorrelation(ar, 1), 0.9, 0.05);
}

TEST(DiagnosticsTest, EssOrdersSeriesByMixing) {
  Rng rng(2);
  std::vector<double> noise(2000), ar(2000);
  for (auto& x : noise) x = rng.normal();
  ar[0] = 0.0;
  for (std::size_t i = 1; i < ar.size(); ++i) {
    ar[i] = 0.95 * ar[i - 1] + rng.normal();
  }
  const auto s_noise = summarize_trace(noise);
  const auto s_ar = summarize_trace(ar);
  EXPECT_GT(s_noise.ess, 1200.0);
  EXPECT_LT(s_ar.ess, 0.3 * s_noise.ess);
  EXPECT_GT(s_ar.autocorrelation_time, 5.0);
  // AR(1) theory: tau = (1+phi)/(1-phi) = 39.
  EXPECT_NEAR(s_ar.autocorrelation_time, 39.0, 25.0);
}

TEST(DiagnosticsTest, ConstantSeriesFullEss) {
  std::vector<double> c(100, 3.5);
  const auto s = summarize_trace(c);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.ess, 100.0);
}

TEST(DiagnosticsTest, RealChainTraceHasReasonableEss) {
  auto inst = make_instance(7, 200, 87);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 13;
  opts.sample_every = 10;
  McmcChain chain(engine, opts);
  const auto result = chain.run(3000);
  std::vector<double> trace;
  for (const auto& s : result.samples) trace.push_back(s.ln_likelihood);
  const auto summary = summarize_trace(trace);
  EXPECT_GT(summary.ess, 5.0);
  EXPECT_LE(summary.ess, static_cast<double>(trace.size()) + 1e-9);
}

}  // namespace
}  // namespace plf::mcmc
