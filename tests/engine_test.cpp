#include <gtest/gtest.h>

#include <cmath>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace plf::core {
namespace {

using phylo::Alignment;
using phylo::GtrParams;
using phylo::PatternMatrix;
using phylo::SubstitutionModel;
using phylo::Tree;

/// A small but non-trivial test instance: 8 taxa, simulated data.
struct Instance {
  Tree tree;
  GtrParams params;
  PatternMatrix data;

  static Instance make(std::size_t taxa = 8, std::size_t cols = 120,
                       std::uint64_t seed = 77) {
    Rng rng(seed);
    Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.15);
    GtrParams params = seqgen::default_gtr_params();
    SubstitutionModel model(params);
    seqgen::SequenceEvolver evolver(tree, model);
    Alignment aln = evolver.evolve(cols, rng);
    return Instance{std::move(tree), params, PatternMatrix::compress(aln)};
  }
};

TEST(EngineTest, MatchesDoublePrecisionReference) {
  auto inst = Instance::make();
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  const double got = engine.log_likelihood();
  const double ref = test::reference_log_likelihood(
      inst.tree, SubstitutionModel(inst.params), inst.data);
  EXPECT_NEAR(got, ref, std::abs(ref) * 1e-4);
}

TEST(EngineTest, AllKernelVariantsAgree) {
  auto inst = Instance::make();
  SerialBackend backend;
  PlfEngine ref_engine(inst.data, inst.params, inst.tree, backend,
                       KernelVariant::kScalar);
  const double ref = ref_engine.log_likelihood();
  for (auto v : {KernelVariant::kSimdRow, KernelVariant::kSimdCol,
                 KernelVariant::kSimdSite}) {
    PlfEngine engine(inst.data, inst.params, inst.tree, backend, v);
    EXPECT_NEAR(engine.log_likelihood(), ref, std::abs(ref) * 1e-5)
        << to_string(v);
  }
}

TEST(EngineTest, ThreadedBackendMatchesSerial) {
  auto inst = Instance::make(10, 200);
  SerialBackend serial;
  PlfEngine se(inst.data, inst.params, inst.tree, serial);
  const double ref = se.log_likelihood();
  for (std::size_t threads : {2u, 3u, 5u}) {
    par::ThreadPool pool(threads);
    ThreadedBackend tb(pool);
    PlfEngine engine(inst.data, inst.params, inst.tree, tb);
    EXPECT_NEAR(engine.log_likelihood(), ref, std::abs(ref) * 1e-6)
        << threads << " threads";
  }
}

TEST(EngineTest, InvariantUnderRerooting) {
  auto inst = Instance::make(7, 90, 123);
  SerialBackend backend;
  PlfEngine base(inst.data, inst.params, inst.tree, backend);
  const double ref = base.log_likelihood();
  for (int og : {1, 3, 6}) {
    PlfEngine engine(inst.data, inst.params, inst.tree.rerooted(og), backend);
    EXPECT_NEAR(engine.log_likelihood(), ref, std::abs(ref) * 1e-5)
        << "outgroup " << og;
  }
}

TEST(EngineTest, PatternCompressionInvariance) {
  // Likelihood of the uncompressed alignment equals that of the compressed
  // pattern matrix (weights account for multiplicity).
  Rng rng(5);
  Tree tree = seqgen::yule_tree(6, rng, 1.0, 0.1);
  GtrParams params = seqgen::default_gtr_params();
  SubstitutionModel model(params);
  seqgen::SequenceEvolver evolver(tree, model);
  Alignment aln = evolver.evolve(80, rng);

  // Uncompressed: every column is its own pattern with weight 1.
  std::vector<std::vector<phylo::StateMask>> cols;
  for (std::size_t c = 0; c < aln.n_columns(); ++c) {
    std::vector<phylo::StateMask> col(aln.n_taxa());
    for (std::size_t t = 0; t < aln.n_taxa(); ++t) col[t] = aln.at(t, c);
    cols.push_back(std::move(col));
  }
  PatternMatrix uncompressed = PatternMatrix::from_patterns(
      aln.names(), cols, std::vector<std::uint32_t>(cols.size(), 1));
  PatternMatrix compressed = PatternMatrix::compress(aln);
  ASSERT_LT(compressed.n_patterns(), uncompressed.n_patterns());

  SerialBackend backend;
  PlfEngine e1(uncompressed, params, tree, backend);
  PlfEngine e2(compressed, params, tree, backend);
  EXPECT_NEAR(e1.log_likelihood(), e2.log_likelihood(),
              std::abs(e1.log_likelihood()) * 1e-6);
}

TEST(EngineTest, DirtyUpdateEqualsFullRecompute) {
  auto inst = Instance::make(9, 150, 321);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  engine.log_likelihood();

  // Mutate a few branches incrementally.
  Rng rng(9);
  for (int step = 0; step < 10; ++step) {
    const auto branches = engine.tree().branch_nodes();
    const int b = branches[rng.below(branches.size())];
    const double len = rng.uniform(0.01, 0.5);
    engine.set_branch_length(b, len);
    const double incremental = engine.log_likelihood();

    // Fresh engine sees the same tree: full recompute.
    PlfEngine fresh(inst.data, inst.params, engine.tree(), backend);
    EXPECT_NEAR(fresh.log_likelihood(), incremental,
                std::abs(incremental) * 1e-6)
        << "step " << step;
  }
}

TEST(EngineTest, NniUpdateEqualsFullRecompute) {
  auto inst = Instance::make(10, 100, 55);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  engine.log_likelihood();

  Rng rng(4);
  for (int step = 0; step < 8; ++step) {
    const auto edges = engine.tree().internal_edge_nodes();
    engine.apply_nni(edges[rng.below(edges.size())], rng.uniform() < 0.5);
    const double incremental = engine.log_likelihood();
    PlfEngine fresh(inst.data, inst.params, engine.tree(), backend);
    EXPECT_NEAR(fresh.log_likelihood(), incremental,
                std::abs(incremental) * 1e-6);
  }
}

TEST(EngineTest, RejectRestoresStateExactly) {
  auto inst = Instance::make(8, 100, 99);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  const double before = engine.log_likelihood();
  const std::string newick_before = engine.tree().to_newick();

  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    engine.begin_proposal();
    // Mixed mutation: a branch change, an NNI, sometimes a model change.
    const auto branches = engine.tree().branch_nodes();
    engine.set_branch_length(branches[rng.below(branches.size())],
                             rng.uniform(0.01, 1.0));
    const auto edges = engine.tree().internal_edge_nodes();
    engine.apply_nni(edges[rng.below(edges.size())], rng.uniform() < 0.5);
    if (trial % 3 == 0) {
      auto p = engine.model_params();
      p.gamma_shape *= 1.3;
      engine.set_model(p);
    }
    const double proposed = engine.log_likelihood();
    EXPECT_NE(proposed, before);
    engine.reject();
    EXPECT_DOUBLE_EQ(engine.log_likelihood(), before) << "trial " << trial;
    EXPECT_EQ(engine.tree().to_newick(), newick_before);
  }
}

TEST(EngineTest, RejectAfterEvaluatingPreProposalDirtyStateRecomputes) {
  // Regression: state that was dirty BEFORE a proposal opened (here: the
  // whole engine — the very first evaluation happens inside the proposal)
  // has no valid pre-proposal buffer. reject() used to flip such nodes and
  // branches back to never-built buffers and leave them clean, so the next
  // evaluation consumed garbage (empty tip partials, zeroed CLVs). The fix
  // re-marks pre-proposal-dirty entries dirty on reject.
  auto inst = Instance::make(10, 150, 5151);
  SerialBackend backend;
  PlfEngine fresh(inst.data, inst.params, inst.tree, backend);
  const double expect = fresh.log_likelihood();

  // Never-evaluated engine: propose, evaluate inside the proposal, reject.
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  const auto edges = engine.tree().internal_edge_nodes();
  engine.begin_proposal();
  engine.apply_nni(edges[0], true);
  (void)engine.log_likelihood();
  engine.reject();
  EXPECT_EQ(engine.log_likelihood(), expect);

  // Same shape mid-run: dirty a path outside a proposal, evaluate it only
  // inside the next proposal, reject — the path must be recomputed, not
  // trusted from the flipped-back buffers.
  const int leaf = engine.tree().leaf_of(3);
  const double old_len = engine.tree().branch_length(leaf);
  engine.set_branch_length(leaf, old_len * 3.0);
  engine.begin_proposal();
  engine.apply_nni(edges[1 % edges.size()], false);
  (void)engine.log_likelihood();
  engine.reject();
  engine.set_branch_length(leaf, old_len);
  EXPECT_EQ(engine.log_likelihood(), expect);
}

TEST(EngineTest, MultiEvaluationProposalRejectRestores) {
  // Regression: a proposal that mutates and evaluates REPEATEDLY (as Brent
  // branch optimization does) must still restore exactly on reject. The
  // original touch/flip scheme flipped a twice-recomputed node back INTO its
  // own proposal buffer, destroying the pre-proposal state.
  auto inst = Instance::make(8, 120, 77);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  const double before = engine.log_likelihood();

  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    engine.begin_proposal();
    // Repeated mutate+evaluate cycles on overlapping branches: every node on
    // the shared root path gets recomputed many times within one proposal.
    for (int step = 0; step < 6; ++step) {
      const auto branches = engine.tree().branch_nodes();
      engine.set_branch_length(branches[rng.below(branches.size())],
                               rng.uniform(0.01, 1.0));
      engine.log_likelihood();
    }
    engine.reject();
    ASSERT_DOUBLE_EQ(engine.log_likelihood(), before) << "trial " << trial;
    // Deep check: state equals a fresh engine on the same tree/model.
    PlfEngine fresh(inst.data, engine.model_params(), engine.tree(), backend);
    ASSERT_NEAR(fresh.log_likelihood(), before, std::abs(before) * 1e-6);
  }
}

TEST(EngineTest, MultiEvaluationProposalAcceptKeepsFinalState) {
  auto inst = Instance::make(8, 100, 78);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  engine.log_likelihood();

  engine.begin_proposal();
  const int b = engine.tree().branch_nodes()[3];
  engine.set_branch_length(b, 0.9);
  engine.log_likelihood();
  engine.set_branch_length(b, 0.2);
  const double last = engine.log_likelihood();
  engine.accept();
  EXPECT_DOUBLE_EQ(engine.log_likelihood(), last);
  PlfEngine fresh(inst.data, inst.params, engine.tree(), backend);
  EXPECT_NEAR(fresh.log_likelihood(), last, std::abs(last) * 1e-6);
}

TEST(EngineTest, RejectWithoutEvaluationRestores) {
  auto inst = Instance::make(8, 60, 31);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  const double before = engine.log_likelihood();

  engine.begin_proposal();
  engine.set_branch_length(engine.tree().branch_nodes()[0], 2.0);
  engine.reject();  // never evaluated the proposal
  EXPECT_DOUBLE_EQ(engine.log_likelihood(), before);
}

TEST(EngineTest, AcceptKeepsNewState) {
  auto inst = Instance::make(8, 60, 32);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  engine.log_likelihood();

  engine.begin_proposal();
  const int b = engine.tree().branch_nodes()[2];
  engine.set_branch_length(b, 0.77);
  const double proposed = engine.log_likelihood();
  engine.accept();
  EXPECT_DOUBLE_EQ(engine.log_likelihood(), proposed);
  EXPECT_DOUBLE_EQ(engine.tree().branch_length(b), 0.77);
}

TEST(EngineTest, SequentialProposalsAcceptRejectChain) {
  // Simulates an MCMC inner loop and cross-checks against recompute-from-
  // scratch at the end.
  auto inst = Instance::make(9, 80, 44);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  engine.log_likelihood();

  Rng rng(77);
  for (int step = 0; step < 50; ++step) {
    engine.begin_proposal();
    const auto branches = engine.tree().branch_nodes();
    engine.set_branch_length(branches[rng.below(branches.size())],
                             rng.uniform(0.005, 0.8));
    if (rng.uniform() < 0.4) {
      const auto edges = engine.tree().internal_edge_nodes();
      engine.apply_nni(edges[rng.below(edges.size())], rng.uniform() < 0.5);
    }
    engine.log_likelihood();
    if (rng.uniform() < 0.5) {
      engine.accept();
    } else {
      engine.reject();
    }
  }
  const double chained = engine.log_likelihood();
  PlfEngine fresh(inst.data, inst.params, engine.tree(), backend);
  EXPECT_NEAR(fresh.log_likelihood(), chained, std::abs(chained) * 1e-6);
}

TEST(EngineTest, StatsCountCalls) {
  auto inst = Instance::make(8, 50, 3);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  engine.log_likelihood();
  const auto& s = engine.stats();
  // 8 taxa -> 6 internal nodes: 5 down + 1 root, each scaled; one reduce.
  EXPECT_EQ(s.down_calls, 5u);
  EXPECT_EQ(s.root_calls, 1u);
  EXPECT_EQ(s.scale_calls, 6u);
  EXPECT_EQ(s.reduce_calls, 1u);
  EXPECT_EQ(s.tm_builds, engine.tree().n_nodes() - 1);
  EXPECT_GT(s.pattern_iterations, 0u);

  // A clean engine does no further work.
  engine.log_likelihood();
  EXPECT_EQ(engine.stats().down_calls, 5u);

  // One leaf branch change: path to root recomputed only.
  engine.set_branch_length(engine.tree().leaf_of(1), 0.3);
  engine.log_likelihood();
  EXPECT_LT(engine.stats().down_calls, 11u);

  engine.reset_stats();
  EXPECT_EQ(engine.stats().down_calls, 0u);
}

TEST(EngineTest, GapColumnsContributeNoSignal) {
  // A data set where one taxon is all gaps must equal the likelihood where
  // that taxon's row is fully ambiguous — and all-gap columns give lnL
  // contributions equal to log(1 * scalers) ~ 0 influence beyond the prior
  // structure. We check the engine handles gap masks without error and the
  // lnL is finite.
  Alignment aln({"a", "b", "c", "d"},
                {"ACGT----", "ACGTACGT", "ACGAACGT", "ACTTACGT"});
  auto data = PatternMatrix::compress(aln);
  Rng rng(6);
  Tree tree = seqgen::yule_tree(4, rng, 1.0, 0.2);
  SerialBackend backend;
  PlfEngine engine(data, seqgen::default_gtr_params(), tree, backend);
  const double ln = engine.log_likelihood();
  EXPECT_TRUE(std::isfinite(ln));
  EXPECT_LT(ln, 0.0);
}

TEST(EngineTest, DeepTreeScalingPreventsUnderflow) {
  // 40 taxa with appreciable branch lengths: unscaled single-precision
  // likelihoods would underflow; per-node rescaling must keep lnL finite and
  // match the double-precision reference (which itself needs no scaling in
  // doubles for this size).
  Rng rng(8);
  Tree tree = seqgen::yule_tree(40, rng, 1.0, 0.3);
  GtrParams params = seqgen::default_gtr_params();
  SubstitutionModel model(params);
  seqgen::SequenceEvolver evolver(tree, model);
  Alignment aln = evolver.evolve(40, rng);
  auto data = PatternMatrix::compress(aln);

  SerialBackend backend;
  PlfEngine engine(data, params, tree, backend);
  const double got = engine.log_likelihood();
  EXPECT_TRUE(std::isfinite(got));
  const double ref = test::reference_log_likelihood(tree, model, data);
  EXPECT_NEAR(got, ref, std::abs(ref) * 1e-4);
}

TEST(EngineTest, MismatchedTaxaRejected) {
  auto inst = Instance::make(8, 30, 1);
  Rng rng(1);
  Tree small = seqgen::yule_tree(5, rng, 1.0, 0.1);
  SerialBackend backend;
  EXPECT_THROW(PlfEngine(inst.data, inst.params, small, backend), Error);
}

}  // namespace
}  // namespace plf::core
