// End-to-end integration: the full Bayesian pipeline (data -> patterns ->
// engine -> MCMC -> summaries) on EVERY execution backend, plus consistency
// of the measured workload across backends (the property the architecture
// study depends on: the PLF call pattern is a property of the algorithm,
// not of the hardware).
#include <gtest/gtest.h>

#include <string>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "gpu/plf_gpu.hpp"
#include "mcmc/chain.hpp"
#include "mcmc/consensus.hpp"
#include "phylo/nexus.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"

namespace plf {
namespace {

struct Pipeline {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;

  static Pipeline make(std::uint64_t seed) {
    Rng rng(seed);
    phylo::Tree tree = seqgen::yule_tree(8, rng, 1.0, 0.15);
    phylo::GtrParams params = seqgen::default_gtr_params();
    phylo::SubstitutionModel model(params);
    seqgen::SequenceEvolver ev(tree, model);
    auto aln = ev.evolve(200, rng);
    return Pipeline{std::move(tree), params,
                    phylo::PatternMatrix::compress(aln)};
  }
};

mcmc::McmcResult run_chain(Pipeline& p, core::ExecutionBackend& backend,
                           std::uint64_t gens) {
  core::PlfEngine engine(p.data, p.params, p.tree, backend);
  mcmc::McmcOptions opts;
  opts.seed = 99;
  mcmc::McmcChain chain(engine, opts);
  return chain.run(gens);
}

TEST(IntegrationTest, IdenticalMcmcTrajectoryOnEveryBackend) {
  // With the same seed and the same kernel variant, accept/reject decisions
  // — and therefore the whole trajectory — must agree across serial,
  // threaded, Cell-sim and GPU-sim backends (lnL differences are below the
  // MH decision noise for this instance).
  auto p1 = Pipeline::make(7);
  core::SerialBackend serial;
  const auto ref = run_chain(p1, serial, 300);

  {
    auto p = Pipeline::make(7);
    par::ThreadPool pool(2);
    core::ThreadedBackend threads(pool);
    const auto r = run_chain(p, threads, 300);
    EXPECT_EQ(r.total_accepted(), ref.total_accepted());
    EXPECT_EQ(r.final_tree_newick, ref.final_tree_newick);
  }
  {
    auto p = Pipeline::make(7);
    cell::CellConfig cfg;
    cfg.n_spes = 6;
    cell::CellMachine machine(cfg);
    const auto r = run_chain(p, machine, 300);
    EXPECT_EQ(r.total_accepted(), ref.total_accepted());
    EXPECT_EQ(r.final_tree_newick, ref.final_tree_newick);
    EXPECT_GT(machine.simulated_seconds(), 0.0);
  }
  {
    auto p = Pipeline::make(7);
    gpu::GpuPlfConfig cfg;
    gpu::GpuPlf device(cfg);
    const auto r = run_chain(p, device, 300);
    EXPECT_EQ(r.total_accepted(), ref.total_accepted());
    EXPECT_EQ(r.final_tree_newick, ref.final_tree_newick);
    EXPECT_GT(device.stats().pcie_s, 0.0);
  }
}

TEST(IntegrationTest, WorkloadCountsIdenticalAcrossBackends) {
  // The PLF call counts (Fig. 9-12's workload descriptor) are a property of
  // the chain, not of the executing hardware.
  auto p1 = Pipeline::make(8);
  core::SerialBackend serial;
  const auto ref = run_chain(p1, serial, 200);

  auto p2 = Pipeline::make(8);
  cell::CellConfig cfg;
  cfg.n_spes = 4;
  cell::CellMachine machine(cfg);
  const auto cell_r = run_chain(p2, machine, 200);

  EXPECT_EQ(cell_r.engine_stats.down_calls, ref.engine_stats.down_calls);
  EXPECT_EQ(cell_r.engine_stats.root_calls, ref.engine_stats.root_calls);
  EXPECT_EQ(cell_r.engine_stats.scale_calls, ref.engine_stats.scale_calls);
  EXPECT_EQ(cell_r.engine_stats.tm_builds, ref.engine_stats.tm_builds);
}

TEST(IntegrationTest, NexusRoundTripThroughFullAnalysis) {
  // Simulate -> NEXUS text -> parse -> analyze: the parsed alignment gives
  // the simulated one's likelihood to the last bit.
  Rng rng(9);
  const phylo::Tree tree = seqgen::yule_tree(6, rng, 1.0, 0.15);
  const phylo::SubstitutionModel model(seqgen::default_gtr_params());
  const seqgen::SequenceEvolver ev(tree, model);
  const auto aln = ev.evolve(120, rng);
  std::string text = "#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=6 NCHAR=120;\nMATRIX\n";
  for (std::size_t t = 0; t < aln.n_taxa(); ++t) {
    text += aln.name(t) + ' ' + aln.sequence(t) + '\n';
  }
  text += ";\nEND;\n";

  const auto nx = phylo::parse_nexus(text);
  ASSERT_TRUE(nx.has_alignment);
  core::SerialBackend backend;
  core::PlfEngine from_nexus(phylo::PatternMatrix::compress(nx.alignment),
                             seqgen::default_gtr_params(), tree, backend);
  core::SerialBackend backend2;
  core::PlfEngine direct(phylo::PatternMatrix::compress(aln),
                         seqgen::default_gtr_params(), tree, backend2);
  EXPECT_EQ(from_nexus.log_likelihood(), direct.log_likelihood());
}

TEST(IntegrationTest, ConsensusFromChainOnSimulatedBackend) {
  // MCMC on the simulated Cell, posterior summary at the end — the whole
  // MrBayes loop on simulated 2009 hardware.
  auto p = Pipeline::make(11);
  cell::CellConfig cfg;
  cfg.n_spes = 6;
  cell::CellMachine machine(cfg);
  core::PlfEngine engine(p.data, p.params, p.tree, machine);
  mcmc::McmcOptions opts;
  opts.seed = 4;
  opts.sample_every = 25;
  opts.collect_trees = true;
  mcmc::McmcChain chain(engine, opts);
  const auto result = chain.run(500);

  mcmc::TreeSampleSummary summary;
  for (const auto& nwk : result.sampled_trees) summary.add_newick(nwk);
  EXPECT_EQ(summary.n_trees(), result.sampled_trees.size());
  EXPECT_FALSE(summary.majority_rule_newick().empty());
  EXPECT_GT(machine.stats().plf_invocations, 500u);
}

}  // namespace
}  // namespace plf
