// Property and differential tests for batched plan dispatch (core/plan.hpp).
//
// Four layers:
//   1. compute_levels as a pure function: for random trees and random
//      recompute sets, the levels must form a valid topological partition
//      (children strictly earlier; every level populated; exact recurrence).
//   2. PlfPlan as a container: finalize() groups ops by level, stably, and
//      the level ranges tile the op array exactly.
//   3. The engine property every plan executor promises: an engine on a
//      backend's own run_plan is BIT-IDENTICAL to its PerCallBackend twin on
//      every backend, repeats on and off, through a randomized
//      proposal/accept/reject storm. PerCallBackend itself must keep the
//      paper's per-call structure: two parallel regions per op.
//   4. The cumulative scaler rows carry no history: after any storm of
//      moves, rejects and a checkpoint resume, the cached lnL equals a fresh
//      engine's bit for bit, with site repeats and a CLV budget on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "gpu/plf_gpu.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::core {
namespace {

// --- layer 1: compute_levels ------------------------------------------------

/// Exhaustive check of the level recurrence and partition properties for one
/// (tree, recompute) instance.
void check_levels(const phylo::Tree& tree, const std::vector<char>& recompute) {
  const std::vector<int> levels = compute_levels(tree, recompute);
  ASSERT_EQ(levels.size(), tree.n_nodes());

  int max_level = -1;
  for (std::size_t id = 0; id < tree.n_nodes(); ++id) {
    const phylo::TreeNode& nd = tree.node(static_cast<int>(id));
    if (nd.is_leaf() || !recompute[id]) {
      EXPECT_EQ(levels[id], -1) << "node " << id;
      continue;
    }
    // Exact recurrence: 1 + max over in-set internal children, floor 0.
    int expect = 0;
    for (int child : {nd.left, nd.right}) {
      if (child == phylo::kNoNode) continue;
      const auto c = static_cast<std::size_t>(child);
      if (!tree.node(child).is_leaf() && recompute[c]) {
        EXPECT_GE(levels[c], 0);
        expect = std::max(expect, levels[c] + 1);
        // The scheduling property: children strictly earlier.
        EXPECT_LT(levels[c], levels[id]) << "node " << id;
      }
    }
    EXPECT_EQ(levels[id], expect) << "node " << id;
    max_level = std::max(max_level, levels[id]);
  }

  // Every level in [0, max] is populated (a level-L node forces a level-L-1
  // child, so the histogram can have no holes).
  if (max_level >= 0) {
    std::vector<int> width(static_cast<std::size_t>(max_level) + 1, 0);
    for (std::size_t id = 0; id < tree.n_nodes(); ++id) {
      if (levels[id] >= 0) ++width[static_cast<std::size_t>(levels[id])];
    }
    for (int l = 0; l <= max_level; ++l) {
      EXPECT_GT(width[static_cast<std::size_t>(l)], 0) << "empty level " << l;
    }
  }
}

TEST(ComputeLevelsTest, RandomTreesAndDirtySetsFormTopologicalPartition) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n_taxa = 4 + rng.below(17);
    const phylo::Tree tree = seqgen::yule_tree(n_taxa, rng, 1.0, 0.1);
    // Sweep set density from sparse to full; sets need not be upward-closed
    // (the recurrence is defined for any subset of the internals).
    const double p = rng.uniform(0.1, 1.0);
    std::vector<char> recompute(tree.n_nodes(), 0);
    for (std::size_t id = 0; id < tree.n_nodes(); ++id) {
      if (!tree.node(static_cast<int>(id)).is_leaf() && rng.uniform() < p) {
        recompute[id] = 1;
      }
    }
    check_levels(tree, recompute);
  }
}

TEST(ComputeLevelsTest, EmptyAndFullSets) {
  Rng rng(7);
  const phylo::Tree tree = seqgen::yule_tree(12, rng, 1.0, 0.1);

  const std::vector<char> none(tree.n_nodes(), 0);
  for (int l : compute_levels(tree, none)) EXPECT_EQ(l, -1);

  std::vector<char> all(tree.n_nodes(), 0);
  for (std::size_t id = 0; id < tree.n_nodes(); ++id) {
    if (!tree.node(static_cast<int>(id)).is_leaf()) all[id] = 1;
  }
  check_levels(tree, all);
  // With everything dirty, the root is the deepest op and sits alone on the
  // last level of a postorder-consistent schedule.
  const std::vector<int> levels = compute_levels(tree, all);
  const int root_level = levels[static_cast<std::size_t>(tree.root())];
  EXPECT_EQ(*std::max_element(levels.begin(), levels.end()), root_level);
}

// --- layer 2: PlfPlan grouping ----------------------------------------------

TEST(PlfPlanTest, FinalizeGroupsByLevelStably) {
  // Ops inserted in "postorder" (node id order here) with interleaved levels;
  // finalize must produce contiguous level ranges that tile the op array and
  // preserve insertion order within each level.
  PlfPlan plan;
  plan.reset(32, 100);
  const std::size_t levels[] = {0, 2, 0, 1, 2, 0, 1};
  for (int i = 0; i < 7; ++i) {
    PlfOp op;
    op.node = i;
    op.run_m = 100;
    plan.add(op, levels[static_cast<std::size_t>(i)]);
  }
  EXPECT_FALSE(plan.finalized());
  plan.finalize();
  ASSERT_TRUE(plan.finalized());
  EXPECT_EQ(plan.n_ops(), 7u);
  EXPECT_EQ(plan.n_levels(), 3u);
  EXPECT_EQ(plan.m(), 100u);

  // Level ranges tile [0, n_ops) in order.
  EXPECT_EQ(plan.level_begin(0), 0u);
  for (std::size_t l = 0; l + 1 < plan.n_levels(); ++l) {
    EXPECT_EQ(plan.level_end(l), plan.level_begin(l + 1));
  }
  EXPECT_EQ(plan.level_end(plan.n_levels() - 1), plan.n_ops());

  // Stable within level: node ids appear in insertion order.
  const std::vector<int> expect_order = {0, 2, 5, 3, 6, 1, 4};
  for (std::size_t i = 0; i < plan.ops().size(); ++i) {
    EXPECT_EQ(plan.ops()[i].node, expect_order[i]) << "slot " << i;
  }
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(plan.level_of_node(i),
              static_cast<int>(levels[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(plan.level_of_node(20), -1);
}

TEST(PlfPlanTest, DuplicateOpForNodeIsRejected) {
  PlfPlan plan;
  plan.reset(8, 10);
  PlfOp op;
  op.node = 3;
  plan.add(op, 0);
  EXPECT_THROW(plan.add(op, 1), Error);
}

// --- layer 3: engine differential -------------------------------------------

struct Dataset {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
};

Dataset make_dataset(std::uint64_t seed, std::size_t n_taxa) {
  Rng rng(seed);
  Dataset d{seqgen::yule_tree(n_taxa, rng, 1.0, 0.1),
            seqgen::default_gtr_params(), {}};
  phylo::SubstitutionModel model(d.params);
  seqgen::SequenceEvolver ev(d.tree, model);
  const phylo::Alignment aln = ev.evolve(180, rng);
  std::vector<std::vector<phylo::StateMask>> cols(aln.n_columns());
  for (std::size_t c = 0; c < aln.n_columns(); ++c) {
    cols[c].resize(aln.n_taxa());
    for (std::size_t t = 0; t < aln.n_taxa(); ++t) cols[c][t] = aln.at(t, c);
  }
  d.data = phylo::PatternMatrix::from_patterns(
      aln.names(), cols, std::vector<std::uint32_t>(cols.size(), 1));
  return d;
}

enum class BackendKind { kSerial, kThreaded, kCell, kGpu };

struct BackendHolder {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<ExecutionBackend> backend;

  static BackendHolder make(BackendKind kind) {
    BackendHolder h;
    switch (kind) {
      case BackendKind::kSerial:
        h.backend = std::make_unique<SerialBackend>();
        break;
      case BackendKind::kThreaded:
        h.pool = std::make_unique<par::ThreadPool>(4);
        h.backend = std::make_unique<ThreadedBackend>(*h.pool);
        break;
      case BackendKind::kCell: {
        cell::CellConfig cfg;
        cfg.n_spes = 4;
        h.backend = std::make_unique<cell::CellMachine>(cfg);
        break;
      }
      case BackendKind::kGpu:
        h.backend = std::make_unique<gpu::GpuPlf>(gpu::GpuPlfConfig{});
        break;
    }
    return h;
  }
};

/// Drive a per-call engine and a native engine through the same randomized
/// move/accept/reject sequence and require bit-identical lnL at every
/// evaluation. Both engines pass through the identical sequence of states,
/// so every comparison is exact.
void lockstep_storm(BackendKind kind, SiteRepeatsMode mode,
                    std::uint64_t seed) {
  const Dataset d = make_dataset(seed, 10);
  BackendHolder h_pc = BackendHolder::make(kind);
  BackendHolder h_plan = BackendHolder::make(kind);
  PerCallBackend per_call(*h_pc.backend);
  PlfEngine percall(d.data, d.params, d.tree, per_call,
                    KernelVariant::kSimdCol, mode);
  PlfEngine plan(d.data, d.params, d.tree, *h_plan.backend,
                 KernelVariant::kSimdCol, mode);

  EXPECT_EQ(percall.log_likelihood(), plan.log_likelihood());

  Rng rng(seed * 977 + 13);
  for (int step = 0; step < 30; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    for (PlfEngine* e : {&percall, &plan}) e->begin_proposal();

    const double u = rng.uniform();
    if (u < 0.55) {
      // Branch-length move on a random non-root branch.
      int node;
      do {
        node = static_cast<int>(rng.below(percall.tree().n_nodes()));
      } while (node == percall.tree().root());
      const double len = rng.uniform(0.01, 1.2);
      for (PlfEngine* e : {&percall, &plan}) e->set_branch_length(node, len);
    } else if (u < 0.85) {
      const auto edges = percall.tree().internal_edge_nodes();
      ASSERT_FALSE(edges.empty());
      const int v = edges[rng.below(edges.size())];
      const bool swap_left = rng.uniform() < 0.5;
      for (PlfEngine* e : {&percall, &plan}) e->apply_nni(v, swap_left);
    } else {
      // Two evaluated moves in the same proposal on the same branch: the
      // second recompute must overwrite the ACTIVE buffers (flip-epoch
      // path), under both executors identically.
      const int leaf = percall.tree().leaf_of(
          static_cast<int>(rng.below(percall.data().n_taxa())));
      const double len = rng.uniform(0.01, 1.2);
      for (PlfEngine* e : {&percall, &plan}) e->set_branch_length(leaf, len);
      EXPECT_EQ(percall.log_likelihood(), plan.log_likelihood());
      for (PlfEngine* e : {&percall, &plan}) {
        e->set_branch_length(leaf, len * 0.5);
      }
    }

    EXPECT_EQ(percall.log_likelihood(), plan.log_likelihood());

    if (rng.uniform() < 0.5) {
      for (PlfEngine* e : {&percall, &plan}) e->accept();
    } else {
      for (PlfEngine* e : {&percall, &plan}) e->reject();
    }
    EXPECT_EQ(percall.log_likelihood(), plan.log_likelihood());
  }

  // The root CLVs must have stayed locked too, not just the reduction.
  EXPECT_EQ(std::memcmp(percall.node_cl(percall.tree().root()),
                        plan.node_cl(plan.tree().root()),
                        d.data.n_patterns() * 4 * 4 * sizeof(float)),
            0);
}

using StormParam = std::tuple<BackendKind, SiteRepeatsMode>;

class PlanLockstepTest : public ::testing::TestWithParam<StormParam> {};

TEST_P(PlanLockstepTest, PerCallAndPlanBitIdenticalThroughProposalStorm) {
  lockstep_storm(std::get<0>(GetParam()), std::get<1>(GetParam()), 41);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PlanLockstepTest,
    ::testing::Combine(
        ::testing::Values(BackendKind::kSerial, BackendKind::kThreaded,
                          BackendKind::kCell, BackendKind::kGpu),
        ::testing::Values(SiteRepeatsMode::kOff, SiteRepeatsMode::kOn)),
    [](const ::testing::TestParamInfo<StormParam>& info) {
      const char* b = "";
      switch (std::get<0>(info.param)) {
        case BackendKind::kSerial: b = "serial"; break;
        case BackendKind::kThreaded: b = "threaded"; break;
        case BackendKind::kCell: b = "cell"; break;
        case BackendKind::kGpu: b = "gpu"; break;
      }
      return std::string(b) + "_repeats_" +
             (std::get<1>(info.param) == SiteRepeatsMode::kOn ? "on" : "off");
    });

// --- PerCallBackend: the paper's per-call structure as a backend ----------

TEST(PerCallBackendTest, ForwardsInnerSiteRepeatsSupport) {
  par::ThreadPool pool(2);
  ThreadedBackend threaded(pool);
  PerCallBackend percall(threaded);
  EXPECT_EQ(percall.name(), "percall(" + threaded.name() + ")");
  ASSERT_TRUE(threaded.supports_site_repeats());
  EXPECT_TRUE(percall.supports_site_repeats());

  // A dense-only backend stays dense-only behind the adapter.
  BackendHolder cell = BackendHolder::make(BackendKind::kCell);
  PerCallBackend percall_cell(*cell.backend);
  EXPECT_FALSE(percall_cell.supports_site_repeats());

  const Dataset d = make_dataset(19, 10);
  PlfEngine e(d.data, d.params, d.tree, percall, KernelVariant::kSimdCol,
              SiteRepeatsMode::kOn);
  PlfEngine e_cell(d.data, d.params, d.tree, percall_cell,
                   KernelVariant::kSimdCol, SiteRepeatsMode::kOn);
  EXPECT_TRUE(e.site_repeats_enabled());
  EXPECT_FALSE(e_cell.site_repeats_enabled());
  e.log_likelihood();
  e_cell.log_likelihood();
  EXPECT_GT(e.stats().repeat_down_hits, 0u);
  EXPECT_EQ(e_cell.stats().repeat_down_hits, 0u);
}

/// The leaf with the longest path to the root.
int deepest_leaf(const phylo::Tree& tree) {
  int best = phylo::kNoNode;
  int best_depth = -1;
  for (std::size_t t = 0; t < tree.n_taxa(); ++t) {
    const int leaf = tree.leaf_of(static_cast<int>(t));
    int depth = 0;
    for (int id = leaf; id != tree.root(); id = tree.node(id).parent) ++depth;
    if (depth > best_depth) {
      best = leaf;
      best_depth = depth;
    }
  }
  return best;
}

/// par.regions opened by one evaluation after a single leaf-branch move, and
/// the op count of the plan that evaluation ran.
std::pair<std::uint64_t, std::size_t> regions_for_leaf_move(
    ExecutionBackend& backend, const Dataset& d) {
  PlfEngine e(d.data, d.params, d.tree, backend, KernelVariant::kSimdCol,
              SiteRepeatsMode::kOff);
  e.log_likelihood();
  e.set_branch_length(deepest_leaf(e.tree()), 0.3);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::uint64_t before =
      reg.snapshot().counter_value(obs::kCounterParRegions);
  e.log_likelihood();
  const std::uint64_t after =
      reg.snapshot().counter_value(obs::kCounterParRegions);
  return {after - before, e.last_plan().n_ops()};
}

TEST(PerCallBackendTest, LeafMoveOpensTwoRegionsPerOpPlusTheReduction) {
  // The Fig. 9 per-call structure: down/root and scale each open their own
  // parallel region per op, and the root reduction one more. The fused
  // ThreadedBackend runs the same dense dirty path, cumulative scalers and
  // root reduction included, as a single region.
  const Dataset d = make_dataset(19, 10);
  par::ThreadPool pool(2);
  ThreadedBackend threaded(pool);
  PerCallBackend percall(threaded);
  const auto [percall_regions, ops] = regions_for_leaf_move(percall, d);
  const auto [fused_regions, fused_ops] = regions_for_leaf_move(threaded, d);
  ASSERT_GT(ops, 1u);
  EXPECT_EQ(fused_ops, ops);
#if defined(PLF_PROFILING_ENABLED)
  EXPECT_EQ(percall_regions, 2 * ops + 1);
  EXPECT_EQ(fused_regions, 1u);
#else
  EXPECT_EQ(percall_regions, 0u);
  EXPECT_EQ(fused_regions, 0u);
#endif
}

/// Regions ThreadedBackend::run_plan opens for `plan`: one per maximal run
/// of dense full-width levels, one per level holding a compacted (or
/// partial-width) op, and a reduce-only region for a plan with no ops.
std::uint64_t expected_regions(const PlfPlan& plan) {
  if (plan.empty()) return 1;
  std::uint64_t regions = 0;
  bool in_dense_run = false;
  for (std::size_t l = 0; l < plan.n_levels(); ++l) {
    bool dense = true;
    for (std::size_t i = plan.level_begin(l); i < plan.level_end(l); ++i) {
      const PlfOp& op = plan.ops()[i];
      if (op.repeats != nullptr || op.run_m != plan.m()) dense = false;
    }
    if (!dense || !in_dense_run) ++regions;
    in_dense_run = dense;
  }
  return regions;
}

TEST(ThreadedPlanTest, RegionsAreDenseRunsPlusCompactedLevelsThroughAStorm) {
  // Every region runs static block b of each op's rows. Site repeats run
  // under the default auto policy over distinct, divergent columns: nodes
  // that see most taxa have over 90% unique columns, stay dense and form
  // dense runs, while a cherry whose two taxa take 2 distinct column pairs
  // compacts to 2 rows, fewer than the pool's 3 blocks, so some blocks of
  // its op are empty.
  Rng rng(23);
  Dataset d{seqgen::yule_tree(10, rng, 1.0, 1.0),
            seqgen::default_gtr_params(), {}};
  const phylo::Alignment aln =
      seqgen::SequenceEvolver(d.tree, phylo::SubstitutionModel(d.params))
          .evolve(180, rng);
  int cherry = phylo::kNoNode;
  for (int id : d.tree.postorder_internals()) {
    const phylo::TreeNode& n = d.tree.node(id);
    if (id != d.tree.root() && d.tree.node(n.left).is_leaf() &&
        d.tree.node(n.right).is_leaf()) {
      cherry = id;
      break;
    }
  }
  ASSERT_NE(cherry, phylo::kNoNode);
  const auto tl = static_cast<std::size_t>(
      d.tree.node(d.tree.node(cherry).left).taxon);
  const auto tr = static_cast<std::size_t>(
      d.tree.node(d.tree.node(cherry).right).taxon);
  std::vector<std::vector<phylo::StateMask>> cols;
  std::set<std::vector<phylo::StateMask>> seen;
  for (std::size_t c = 0; c < aln.n_columns(); ++c) {
    std::vector<phylo::StateMask> col(aln.n_taxa());
    for (std::size_t t = 0; t < col.size(); ++t) col[t] = aln.at(t, c);
    col[tl] = phylo::kMaskA;
    col[tr] = c % 2 == 0 ? phylo::kMaskA : phylo::kMaskC;
    if (seen.insert(col).second) cols.push_back(col);
  }
  const std::size_t m = cols.size();
  d.data = phylo::PatternMatrix::from_patterns(
      aln.names(), cols, std::vector<std::uint32_t>(m, 1));

  // The twin runs the per-call structure over its own 3-thread pool, so the
  // root reduction sums the same blocks in the same order: bit-equal lnL.
  par::ThreadPool pool(3), twin_pool(3);
  ThreadedBackend threaded(pool), twin_threaded(twin_pool);
  PerCallBackend percall(twin_threaded);
  PlfEngine plan(d.data, d.params, d.tree, threaded, KernelVariant::kSimdCol,
                 SiteRepeatsMode::kAuto);
  PlfEngine twin(d.data, d.params, d.tree, percall, KernelVariant::kSimdCol,
                 SiteRepeatsMode::kAuto);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  bool saw_small_compacted = false;
  bool saw_compacted_level = false;
  bool saw_dense_run = false;  // two consecutive dense levels in one region
  const auto evaluate_and_check = [&] {
    const std::uint64_t evals = plan.stats().reduce_calls;
    const std::uint64_t before =
        reg.snapshot().counter_value(obs::kCounterParRegions);
    const double lnl = plan.log_likelihood();
    const std::uint64_t regions =
        reg.snapshot().counter_value(obs::kCounterParRegions) - before;
    EXPECT_EQ(lnl, twin.log_likelihood());
    const bool ran = plan.stats().reduce_calls != evals;
    const PlfPlan& p = plan.last_plan();
#if defined(PLF_PROFILING_ENABLED)
    EXPECT_EQ(regions, ran ? expected_regions(p) : 0u);
#else
    EXPECT_EQ(regions, 0u);
#endif
    if (!ran) return;
    for (const PlfOp& op : p.ops()) {
      if (op.repeats == nullptr) continue;
      saw_compacted_level = true;
      if (op.run_m < pool.size()) saw_small_compacted = true;
    }
    if (p.n_levels() > expected_regions(p)) saw_dense_run = true;
  };

  evaluate_and_check();
  EXPECT_TRUE(saw_small_compacted) << "the cherry must compact below 3 rows";

  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    for (PlfEngine* e : {&plan, &twin}) e->begin_proposal();
    const phylo::Tree& t = plan.tree();
    const double u = rng.uniform();
    if (u < 0.35) {
      int node;
      do {
        node = static_cast<int>(rng.below(t.n_nodes()));
      } while (node == t.root());
      const double len = rng.uniform(0.01, 1.2);
      for (PlfEngine* e : {&plan, &twin}) e->set_branch_length(node, len);
    } else if (u < 0.7) {
      const auto edges = t.internal_edge_nodes();
      const int v = edges[rng.below(edges.size())];
      const bool swap_left = rng.uniform() < 0.5;
      for (PlfEngine* e : {&plan, &twin}) e->apply_nni(v, swap_left);
    } else {
      int s = phylo::kNoNode;
      std::vector<int> targets;
      while (targets.empty()) {
        s = static_cast<int>(rng.below(t.n_nodes()));
        targets = t.spr_valid_targets(s);
      }
      const int target = targets[rng.below(targets.size())];
      const double x = t.branch_length(target) * rng.uniform(0.1, 0.9);
      for (PlfEngine* e : {&plan, &twin}) e->apply_spr(s, target, x);
    }
    evaluate_and_check();
    if (rng.uniform() < 0.5) {
      for (PlfEngine* e : {&plan, &twin}) e->accept();
    } else {
      for (PlfEngine* e : {&plan, &twin}) e->reject();
    }
    evaluate_and_check();  // cached: no region
  }
  EXPECT_TRUE(saw_compacted_level);
  EXPECT_TRUE(saw_dense_run);
  EXPECT_EQ(std::memcmp(plan.node_cl(plan.tree().root()),
                        twin.node_cl(twin.tree().root()),
                        m * 4 * 4 * sizeof(float)),
            0);
}

TEST(ThreadedPlanTest, ClvsAreBitIdenticalAcrossPoolSizes) {
  // Every kernel is per-row elementwise, so how run_plan splits an op's
  // rows into static blocks cannot change a CLV bit: every internal node's
  // rows, dense and compacted, equal the serial backend's over pools of 1,
  // 2, 3 and 5 threads (5 exceeds the rows of some compacted ops).
  const Dataset d = make_dataset(29, 10);
  SerialBackend serial;
  PlfEngine ref(d.data, d.params, d.tree, serial, KernelVariant::kSimdCol,
                SiteRepeatsMode::kOn);
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  std::vector<std::unique_ptr<ThreadedBackend>> backends;
  std::vector<std::unique_ptr<PlfEngine>> engines;
  for (std::size_t threads : {1, 2, 3, 5}) {
    pools.push_back(std::make_unique<par::ThreadPool>(threads));
    backends.push_back(std::make_unique<ThreadedBackend>(*pools.back()));
    engines.push_back(std::make_unique<PlfEngine>(
        d.data, d.params, d.tree, *backends.back(), KernelVariant::kSimdCol,
        SiteRepeatsMode::kOn));
  }

  bool saw_small_compacted = false;
  const auto check = [&] {
    (void)ref.log_likelihood();
    for (std::size_t i = 0; i < engines.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << pools[i]->size() << " threads");
      PlfEngine* e = engines[i].get();
      (void)e->log_likelihood();
      for (int id : ref.tree().postorder_internals()) {
        const std::size_t rows = ref.node_rows(id);
        if (rows < 5) saw_small_compacted = true;
        ASSERT_EQ(e->node_rows(id), rows) << "node " << id;
        ASSERT_EQ(std::memcmp(e->node_cl(id), ref.node_cl(id),
                              rows * 4 * 4 * sizeof(float)),
                  0)
            << "node " << id;
      }
    }
  };

  check();
  Rng rng(37);
  for (int step = 0; step < 20; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const phylo::Tree& t = ref.tree();
    if (step % 2 == 0) {
      const auto edges = t.internal_edge_nodes();
      const int v = edges[rng.below(edges.size())];
      const bool swap_left = rng.uniform() < 0.5;
      ref.apply_nni(v, swap_left);
      for (const auto& e : engines) e->apply_nni(v, swap_left);
    } else {
      int node;
      do {
        node = static_cast<int>(rng.below(t.n_nodes()));
      } while (node == t.root());
      const double len = rng.uniform(0.01, 1.2);
      ref.set_branch_length(node, len);
      for (const auto& e : engines) e->set_branch_length(node, len);
    }
    check();
  }
  EXPECT_TRUE(saw_small_compacted) << "no op had fewer rows than 5 threads";
}

TEST(PlanEngineTest, PlanShapeMatchesTreeOnFirstEvaluation) {
  const Dataset d = make_dataset(5, 12);
  SerialBackend backend;
  PlfEngine e(d.data, d.params, d.tree, backend, KernelVariant::kSimdCol,
              SiteRepeatsMode::kOff);
  e.log_likelihood();

  const std::size_t n_internals = d.tree.postorder_internals().size();
  EXPECT_EQ(e.stats().plan_builds, 1u);
  EXPECT_EQ(e.stats().plan_ops, n_internals);  // everything dirty at start
  EXPECT_GE(e.stats().plan_levels, 1u);
  EXPECT_LE(e.stats().plan_levels, e.stats().plan_ops);
  // A leaf-rooted binary tree always has some same-level parallelism unless
  // it degenerated to a caterpillar; at minimum the level count equals the
  // longest root path, which is < n_internals for 12 taxa with this seed.
  EXPECT_LT(e.stats().plan_levels, n_internals);
}

// --- cumulative scaler rows: history-free by construction ------------------

using ScalerStormParam = std::tuple<SiteRepeatsMode, bool /*half budget*/>;

class CumulativeScalerTest
    : public ::testing::TestWithParam<ScalerStormParam> {};

/// Each node's cumulative scaler-count row is a pure function of its subtree,
/// so an engine's cached lnL after ANY history must equal, to the last bit, a
/// fresh engine's on the same tree and parameters. The storm mixes branch,
/// NNI, SPR and model moves (with +I on and off), accepts and rejects at
/// random, leaves some moves pending across a proposal boundary, and hands
/// the run to a restored engine halfway through.
TEST_P(CumulativeScalerTest, StormMatchesFreshEngineBitForBit) {
  const SiteRepeatsMode mode = std::get<0>(GetParam());
  ClvBudget budget;
  if (std::get<1>(GetParam())) {
    budget.kind = ClvBudget::Kind::kFraction;
    budget.fraction = 0.5;
  }
  const Dataset d = make_dataset(29, 12);
  SerialBackend backend;
  const auto make = [&](const phylo::PatternMatrix& data,
                        const phylo::GtrParams& params,
                        const phylo::Tree& tree) {
    return std::make_unique<PlfEngine>(data, params, tree, backend,
                                       KernelVariant::kSimdCol, mode, budget);
  };
  const auto expect_fresh = [&](PlfEngine& e) {
    const double cached = e.log_likelihood();
    EXPECT_EQ(cached, make(e.data(), e.model_params(), e.tree())
                          ->log_likelihood());
  };

  std::unique_ptr<PlfEngine> e = make(d.data, d.params, d.tree);
  expect_fresh(*e);

  Rng rng(4242);
  std::uint64_t remat_ops = 0;
  constexpr int kSteps = 200;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    if (step == kSteps / 2) {
      // Resume in a fresh engine built from the ORIGINAL inputs: everything
      // the storm changed must come from the checkpoint.
      std::ostringstream os;
      {
        util::BinaryWriter w(os);
        e->save_state(w);
      }
      const double before = e->log_likelihood();
      remat_ops += e->arena().counters().recompute_ops;
      e = make(d.data, d.params, d.tree);
      std::istringstream is(os.str());
      util::BinaryReader r(is);
      e->restore_state(r);
      EXPECT_EQ(e->log_likelihood(), before);
    }

    const phylo::Tree& t = e->tree();
    const bool in_proposal = rng.uniform() < 0.9;
    if (in_proposal) e->begin_proposal();
    const double u = rng.uniform();
    if (u < 0.4) {
      int node;
      do {
        node = static_cast<int>(rng.below(t.n_nodes()));
      } while (node == t.root());
      e->set_branch_length(node, rng.uniform(0.01, 1.2));
    } else if (u < 0.6) {
      const auto edges = t.internal_edge_nodes();
      ASSERT_FALSE(edges.empty());
      e->apply_nni(edges[rng.below(edges.size())], rng.uniform() < 0.5);
    } else if (u < 0.8) {
      std::vector<int> prunable;
      for (std::size_t id = 0; id < t.n_nodes(); ++id) {
        if (!t.spr_valid_targets(static_cast<int>(id)).empty()) {
          prunable.push_back(static_cast<int>(id));
        }
      }
      ASSERT_FALSE(prunable.empty());
      const int s = prunable[rng.below(prunable.size())];
      const auto targets = t.spr_valid_targets(s);
      const int target = targets[rng.below(targets.size())];
      e->apply_spr(s, target, t.branch_length(target) * rng.uniform(0.2, 0.8));
    } else {
      phylo::GtrParams p = test::random_gtr(rng, d.params.n_rate_categories);
      p.p_invariant = rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.05, 0.3);
      e->set_model(p);
    }
    if (!in_proposal) {
      // Left dirty and unevaluated: the next proposal recomputes it and a
      // reject must re-dirty it rather than restore a stale buffer.
      continue;
    }
    expect_fresh(*e);
    if (rng.uniform() < 0.5) {
      e->accept();
    } else {
      e->reject();
    }
    expect_fresh(*e);
  }
  remat_ops += e->arena().counters().recompute_ops;
  if (std::get<1>(GetParam())) {
    EXPECT_GT(remat_ops, 0u);  // the budgeted storm did rematerialize
  } else {
    EXPECT_EQ(remat_ops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RepeatsAndBudgets, CumulativeScalerTest,
    ::testing::Combine(::testing::Values(SiteRepeatsMode::kOff,
                                         SiteRepeatsMode::kOn),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ScalerStormParam>& info) {
      return std::string("repeats_") +
             (std::get<0>(info.param) == SiteRepeatsMode::kOn ? "on" : "off") +
             (std::get<1>(info.param) ? "_budget_half" : "_budget_unlimited");
    });

/// The root's count row against an oracle that shares none of the cum step:
/// after every evaluation of a branch/NNI/SPR/model storm, each internal
/// node's exponent row is recomputed from its children's stored CLVs with
/// the engine's own unscaled down (root) kernel, e = ilogb(row max), and the
/// per-site integer sum of those rows over every internal node must be the
/// engine's root count row exactly.
TEST(CumulativeScalerCountTest, RootCountIsTheSumOfEveryNodesExponents) {
  const Dataset d = make_dataset(31, 12);
  SerialBackend backend;
  PlfEngine e(d.data, d.params, d.tree, backend, KernelVariant::kSimdSite,
              SiteRepeatsMode::kOff);
  const std::size_t m = d.data.n_patterns();
  const std::size_t K = d.params.n_rate_categories;
  const KernelSet& ks = kernels(e.variant());

  const auto check = [&] {
    e.log_likelihood();
    const phylo::Tree& t = e.tree();
    const phylo::SubstitutionModel& model = e.model();
    // Per child: matrices, and for a tip its partial table.
    std::vector<phylo::TransitionMatrices> tm(t.n_nodes());
    std::vector<TipPartial> tp(t.n_nodes());
    for (std::size_t id = 0; id < t.n_nodes(); ++id) {
      const int v = static_cast<int>(id);
      if (t.node(v).parent == phylo::kNoNode) continue;
      tm[id] = model.transition_matrices(t.branch_length(v));
      if (t.node(v).is_leaf()) tp[id] = TipPartial(tm[id]);
    }
    const auto child = [&](int v) {
      ChildArgs ch;
      const std::size_t id = static_cast<std::size_t>(v);
      if (t.node(v).is_leaf()) {
        ch.mask = d.data.row(static_cast<std::size_t>(t.node(v).taxon));
        ch.tp = tp[id].data();
      } else {
        ch.cl = e.node_cl(v);
      }
      ch.p = tm[id].row_major();
      ch.pt = tm[id].col_major();
      return ch;
    };
    std::vector<std::int64_t> want(m, 0);
    aligned_vector<float> row(m * K * 4);
    for (int v : t.postorder_internals()) {
      RootArgs a;
      a.down.left = child(t.node(v).left);
      a.down.right = child(t.node(v).right);
      a.down.out = row.data();
      a.down.K = K;
      if (v == t.root()) {
        const int og = t.outgroup();
        a.out_mask = d.data.row(static_cast<std::size_t>(t.node(og).taxon));
        a.out_tp = tp[static_cast<std::size_t>(og)].data();
        ks.root(a, 0, m);
      } else {
        ks.down(a.down, 0, m);
      }
      for (std::size_t c = 0; c < m; ++c) {
        const float* r = row.data() + c * K * 4;
        float mx = r[0];
        for (std::size_t i = 1; i < K * 4; ++i) mx = std::max(mx, r[i]);
        ASSERT_TRUE(mx > 0.0f && std::isfinite(mx));
        want[c] += std::ilogb(mx);
      }
    }
    const std::int32_t* got = e.node_scaler_count(t.root());
    for (std::size_t c = 0; c < m; ++c) {
      ASSERT_EQ(got[c], want[c]) << "site " << c;
    }
  };

  check();
  Rng rng(2929);
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const phylo::Tree& t = e.tree();
    e.begin_proposal();
    const double u = rng.uniform();
    if (u < 0.3) {
      int node;
      do {
        node = static_cast<int>(rng.below(t.n_nodes()));
      } while (node == t.root());
      e.set_branch_length(node, rng.uniform(0.01, 1.5));
    } else if (u < 0.55) {
      const auto edges = t.internal_edge_nodes();
      e.apply_nni(edges[rng.below(edges.size())], rng.uniform() < 0.5);
    } else if (u < 0.8) {
      std::vector<int> prunable;
      for (std::size_t id = 0; id < t.n_nodes(); ++id) {
        if (!t.spr_valid_targets(static_cast<int>(id)).empty()) {
          prunable.push_back(static_cast<int>(id));
        }
      }
      const int s = prunable[rng.below(prunable.size())];
      const auto targets = t.spr_valid_targets(s);
      const int target = targets[rng.below(targets.size())];
      e.apply_spr(s, target, t.branch_length(target) * rng.uniform(0.2, 0.8));
    } else {
      e.set_model(test::random_gtr(rng, K));
    }
    check();
    if (rng.uniform() < 0.5) {
      e.accept();
    } else {
      e.reject();
    }
    check();
  }
}

// --- budgeted arena x plan: eviction-driven recompute scheduling ------------

/// Find an internal node OFF the leaf->root dirty path whose parent is ON it:
/// evicting that node forces the next plan to grow its recompute set with an
/// ancestor the dirty path depends on.
int off_path_internal_child(const phylo::Tree& tree, int leaf) {
  std::vector<char> on_path(tree.n_nodes(), 0);
  for (int id = tree.node(leaf).parent; id != phylo::kNoNode;
       id = tree.node(id).parent) {
    on_path[static_cast<std::size_t>(id)] = 1;
  }
  for (std::size_t id = 0; id < tree.n_nodes(); ++id) {
    const phylo::TreeNode& n = tree.node(static_cast<int>(id));
    if (n.is_leaf() || on_path[id] != 0) continue;
    const int parent = n.parent;
    if (parent != phylo::kNoNode &&
        on_path[static_cast<std::size_t>(parent)] != 0) {
      return static_cast<int>(id);
    }
  }
  return phylo::kNoNode;
}

TEST(PlanArenaTest, EvictedAncestorIsLeveledBeforeItsDependents) {
  const Dataset d = make_dataset(83, 10);
  SerialBackend backend;
  ClvBudget half;
  half.kind = ClvBudget::Kind::kFraction;
  half.fraction = 0.5;
  PlfEngine e(d.data, d.params, d.tree, backend, KernelVariant::kSimdCol,
              SiteRepeatsMode::kOff, half);
  e.log_likelihood();

  const int leaf = e.tree().leaf_of(0);
  const int evicted = off_path_internal_child(e.tree(), leaf);
  ASSERT_NE(evicted, phylo::kNoNode) << "degenerate tree for this test";
  const int dependent = e.tree().node(evicted).parent;

  if (e.node_resident(evicted)) e.evict_node_for_test(evicted);
  ASSERT_FALSE(e.node_resident(evicted));
  const std::uint64_t remats_before = e.arena().counters().recompute_ops;
  const std::uint64_t builds_before = e.stats().plan_builds;

  // Dirty only the leaf->root path. The plan must still schedule the evicted
  // off-path ancestor — and STRICTLY before the path node that reads it, so
  // a level-parallel backend never races a rematerialization against its
  // consumer.
  e.set_branch_length(leaf, 0.37);
  e.log_likelihood();

  const PlfPlan& plan = e.last_plan();
  ASSERT_TRUE(plan.finalized());
  ASSERT_GE(plan.level_of_node(evicted), 0)
      << "evicted ancestor missing from the recompute plan";
  ASSERT_GE(plan.level_of_node(dependent), 0);
  EXPECT_LT(plan.level_of_node(evicted), plan.level_of_node(dependent));

  // One fused plan build covered dirty work and rematerialization alike.
  EXPECT_EQ(e.stats().plan_builds, builds_before + 1);
  EXPECT_GT(e.arena().counters().recompute_ops, remats_before);
  EXPECT_TRUE(e.node_resident(evicted));
}

TEST(PlanArenaTest, RematerializationRidesTheDirtyPlanNotASecondPass) {
  const Dataset d = make_dataset(89, 10);
  SerialBackend backend;
  PlfEngine e(d.data, d.params, d.tree, backend, KernelVariant::kSimdCol,
              SiteRepeatsMode::kOff, clv_budget_from_string("0.5"));
  e.log_likelihood();
  const std::uint64_t ops_baseline = e.stats().plan_ops;

  // Twin move WITHOUT eviction first, to measure the dirty-path op count.
  e.set_branch_length(e.tree().leaf_of(1), 0.21);
  e.log_likelihood();
  const std::uint64_t path_ops = e.stats().plan_ops - ops_baseline;
  ASSERT_GT(path_ops, 0u);

  // Same move shape again, now with an off-path ancestor evicted: the single
  // plan build must carry MORE ops (path + rematerializations), and the
  // evaluation still completes without a second build.
  const int leaf = e.tree().leaf_of(1);
  const int evicted = off_path_internal_child(e.tree(), leaf);
  ASSERT_NE(evicted, phylo::kNoNode);
  if (e.node_resident(evicted)) e.evict_node_for_test(evicted);
  const std::uint64_t builds_before = e.stats().plan_builds;
  const std::uint64_t ops_before = e.stats().plan_ops;
  e.set_branch_length(leaf, 0.52);
  e.log_likelihood();
  EXPECT_EQ(e.stats().plan_builds, builds_before + 1);
  EXPECT_GT(e.stats().plan_ops - ops_before, path_ops);
}

}  // namespace
}  // namespace plf::core
