// Cross-backend differential harness for the site-repeat path and the plan
// executors.
//
// Properties under test: (a) site-repeat compaction only skips arithmetic
// whose result is already known, so for any (data, tree, model) the compacted
// engine must match the dense engine BIT FOR BIT on the same backend and
// kernel variant — 0 ULP, not "close"; (b) a backend's own run_plan only
// regroups and fuses the identical per-site kernel work, so an engine on it
// must match its PerCallBackend twin (the base per-op executor over the same
// backend) bit for bit on every backend × variant × repeats combination,
// through proposals and rejects. Across backends and variants the
// summation order changes, so those comparisons get per-backend tolerances
// (ULP bounds on CLV entries, relative bounds on lnL against an independent
// double-precision reference).
//
// Inputs are randomized with realistic structure: Yule trees and Seq-Gen
// style evolved alignments, swept over branch-length extremes (near-zero,
// typical, saturated) and gamma-rate-category counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <tuple>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "gpu/plf_gpu.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"

namespace plf::core {
namespace {

enum class BackendKind { kSerial, kThreaded, kCell, kGpu };

const char* name_of(BackendKind b) {
  switch (b) {
    case BackendKind::kSerial: return "serial";
    case BackendKind::kThreaded: return "threaded";
    case BackendKind::kCell: return "cell";
    case BackendKind::kGpu: return "gpu";
  }
  return "?";
}

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
        h.pool = std::make_unique<par::ThreadPool>(3);
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

/// ULP distance between two finite same-sign floats (CLV entries are
/// non-negative, so the monotone integer reinterpretation applies directly).
std::uint32_t ulp_distance(float a, float b) {
  std::uint32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(float));
  std::memcpy(&ib, &b, sizeof(float));
  return ia > ib ? ia - ib : ib - ia;
}

/// Relative lnL tolerance vs the double-precision reference. The simulated
/// accelerators run the identical float kernels, but their partitioning
/// changes the root-reduce summation order, so they get a little headroom.
double lnl_rel_tol(BackendKind b) {
  switch (b) {
    case BackendKind::kSerial:
    case BackendKind::kThreaded: return 2e-4;
    case BackendKind::kCell:
    case BackendKind::kGpu: return 3e-4;
  }
  return 2e-4;
}

struct Dataset {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
  double ref_lnl = 0.0;
};

Dataset make_dataset(std::uint64_t seed, std::size_t K, double branch_scale) {
  Rng rng(seed);
  Dataset d{seqgen::yule_tree(9, rng, 1.0, branch_scale),
            seqgen::default_gtr_params(), {}, 0.0};
  d.params.n_rate_categories = K;
  phylo::SubstitutionModel model(d.params);
  seqgen::SequenceEvolver ev(d.tree, model);
  // Keep the raw columns instead of compressing to distinct patterns:
  // repeated columns are exactly what the site-repeat machinery must find
  // (and near-identical sequences at the small branch scale would otherwise
  // collapse to a handful of patterns with nothing left to repeat).
  const phylo::Alignment aln = ev.evolve(240, rng);
  std::vector<std::vector<phylo::StateMask>> cols(aln.n_columns());
  for (std::size_t c = 0; c < aln.n_columns(); ++c) {
    cols[c].resize(aln.n_taxa());
    for (std::size_t t = 0; t < aln.n_taxa(); ++t) cols[c][t] = aln.at(t, c);
  }
  d.data = phylo::PatternMatrix::from_patterns(
      aln.names(), cols, std::vector<std::uint32_t>(cols.size(), 1));
  d.ref_lnl = test::reference_log_likelihood(d.tree, model, d.data);
  return d;
}

using Param = std::tuple<BackendKind, KernelVariant>;

class BackendDiffTest : public ::testing::TestWithParam<Param> {};

TEST_P(BackendDiffTest, RepeatsOnOffAgreeBitwiseAndMatchReference) {
  const BackendKind kind = std::get<0>(GetParam());
  const KernelVariant variant = std::get<1>(GetParam());

  // Branch-length extremes: near-zero (sequences nearly identical — repeat
  // heaven, and CLVs hug the tip partials), typical, and saturated (CLVs
  // converge toward pi; classes barely repeat at upper nodes).
  for (const double scale : {0.0005, 0.1, 2.5}) {
    for (const std::size_t K : {std::size_t{1}, std::size_t{4}}) {
      for (const std::uint64_t seed : {11ull, 23ull}) {
        SCOPED_TRACE(::testing::Message()
                     << "backend=" << name_of(kind)
                     << " variant=" << to_string(variant) << " scale=" << scale
                     << " K=" << K << " seed=" << seed);
        const Dataset d = make_dataset(seed, K, scale);
        const std::size_t m = d.data.n_patterns();

        BackendHolder h_off = BackendHolder::make(kind);
        BackendHolder h_on = BackendHolder::make(kind);
        PerCallBackend percall_off(*h_off.backend);
        PerCallBackend percall_on(*h_on.backend);
        PlfEngine dense(d.data, d.params, d.tree, percall_off, variant,
                        SiteRepeatsMode::kOff);
        PlfEngine compact(d.data, d.params, d.tree, percall_on, variant,
                          SiteRepeatsMode::kOn);

        // Native-executor twins: same backend kind, same variant, same repeat
        // mode — only the plan executor differs. Every comparison between a
        // per-call engine and its twin below is exact (EXPECT_EQ, memcmp),
        // which is the acceptance bar for every fused run_plan: batching and
        // fusing must not move a single bit on any backend.
        BackendHolder h_off_plan = BackendHolder::make(kind);
        BackendHolder h_on_plan = BackendHolder::make(kind);
        PlfEngine dense_plan(d.data, d.params, d.tree, *h_off_plan.backend,
                             variant, SiteRepeatsMode::kOff);
        PlfEngine compact_plan(d.data, d.params, d.tree, *h_on_plan.backend,
                               variant, SiteRepeatsMode::kOn);

        const double lnl_dense = dense.log_likelihood();
        const double lnl_compact = compact.log_likelihood();

        // Same backend, same variant: bit-identical lnL and root CLVs.
        EXPECT_EQ(lnl_dense, lnl_compact);
        EXPECT_EQ(std::memcmp(dense.node_cl(dense.tree().root()),
                              compact.node_cl(compact.tree().root()),
                              m * K * 4 * sizeof(float)),
                  0);

        // Per-call vs native: bit-identical lnL and root CLVs, repeats on and
        // off alike, from the very same plans.
        EXPECT_EQ(lnl_dense, dense_plan.log_likelihood());
        EXPECT_EQ(lnl_compact, compact_plan.log_likelihood());
        EXPECT_EQ(std::memcmp(dense.node_cl(dense.tree().root()),
                              dense_plan.node_cl(dense_plan.tree().root()),
                              m * K * 4 * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(compact.node_cl(compact.tree().root()),
                              compact_plan.node_cl(compact_plan.tree().root()),
                              m * K * 4 * sizeof(float)),
                  0);
        EXPECT_GT(dense_plan.stats().plan_ops, 0u);
        EXPECT_EQ(dense.stats().plan_ops, dense_plan.stats().plan_ops);
        EXPECT_EQ(dense.stats().plan_levels, dense_plan.stats().plan_levels);
        // Identical work, batched: the kernel-call accounting must agree.
        EXPECT_EQ(dense.stats().pattern_iterations,
                  dense_plan.stats().pattern_iterations);
        EXPECT_EQ(compact.stats().pattern_iterations,
                  compact_plan.stats().pattern_iterations);

        // Tip specialization: on tip-capable backends the native engine must
        // have routed cherries through the pair-table gather (every binary
        // tree with more than one internal node has a cherry below the
        // root), while the per-call engine stays fully generic — it is the
        // exact A/B baseline the bitwise comparisons above rely on.
        EXPECT_EQ(dense.stats().tip_tt_ops, 0u);
        EXPECT_EQ(dense.stats().tip_ti_ops, 0u);
        EXPECT_EQ(dense.stats().tip_tables_built, 0u);
        if (has_capability(h_off_plan.backend->capabilities(),
                           Capabilities::kTipKernels)) {
          EXPECT_GT(dense_plan.stats().tip_tt_ops, 0u);
          EXPECT_GT(dense_plan.stats().tip_tables_built, 0u);
          EXPECT_GT(compact_plan.stats().tip_tt_ops, 0u);
        } else {
          EXPECT_EQ(dense_plan.stats().tip_tt_ops, 0u);
          EXPECT_EQ(dense_plan.stats().tip_tables_built, 0u);
        }

        // The compacted path must actually have run where supported, and
        // must have fallen back (not silently diverged) where not.
        if (has_capability(percall_on.capabilities(),
                           Capabilities::kSiteRepeats)) {
          ASSERT_TRUE(compact.site_repeats_enabled());
          EXPECT_GT(compact.stats().repeat_down_hits, 0u);
          EXPECT_GT(compact.stats().repeat_compression_ratio(), 1.0);
          // Compacted kernels iterate fewer sites than the dense engine.
          EXPECT_LT(compact.stats().pattern_iterations,
                    dense.stats().pattern_iterations);
        } else {
          EXPECT_FALSE(compact.site_repeats_enabled());
          EXPECT_EQ(compact.stats().repeat_down_hits, 0u);
        }

        // Both must agree with the independent double-precision pruning
        // reference within the backend's tolerance.
        const double tol = std::abs(d.ref_lnl) * lnl_rel_tol(kind);
        EXPECT_NEAR(lnl_dense, d.ref_lnl, tol);
        EXPECT_NEAR(lnl_compact, d.ref_lnl, tol);

        // Mid-run differential: a branch-length move plus an NNI proposal
        // exercises class invalidation, partial plans and the cumulative
        // scaler pass under this backend; all four engines must stay
        // bitwise-locked through it.
        for (PlfEngine* e :
             {&dense, &compact, &dense_plan, &compact_plan}) {
          e->set_branch_length(e->tree().leaf_of(1), 1.7);
        }
        const auto edges = dense.tree().internal_edge_nodes();
        ASSERT_FALSE(edges.empty());
        for (PlfEngine* e :
             {&dense, &compact, &dense_plan, &compact_plan}) {
          e->begin_proposal();
          e->apply_nni(edges.front(), true);
        }
        EXPECT_EQ(dense.log_likelihood(), compact.log_likelihood());
        EXPECT_EQ(dense.log_likelihood(), dense_plan.log_likelihood());
        EXPECT_EQ(compact.log_likelihood(), compact_plan.log_likelihood());
        for (PlfEngine* e :
             {&dense, &compact, &dense_plan, &compact_plan}) {
          e->reject();
        }
        EXPECT_EQ(dense.log_likelihood(), compact.log_likelihood());
        EXPECT_EQ(dense.log_likelihood(), dense_plan.log_likelihood());
        EXPECT_EQ(compact.log_likelihood(), compact_plan.log_likelihood());
      }
    }
  }
}

// Scalar and SIMD variants reorder the per-entry dot products, so their CLVs
// are not bit-identical — but they must stay within a small ULP envelope,
// with repeats on and off alike.
TEST(BackendDiffCrossVariantTest, ScalarVsSimdColWithinUlpEnvelope) {
  constexpr std::uint32_t kMaxUlp = 256;
  for (const double scale : {0.0005, 0.1, 2.5}) {
    const Dataset d = make_dataset(31, 4, scale);
    const std::size_t m = d.data.n_patterns();
    for (const auto mode : {SiteRepeatsMode::kOff, SiteRepeatsMode::kOn}) {
      SCOPED_TRACE(::testing::Message()
                   << "scale=" << scale << " repeats=" << to_string(mode));
      SerialBackend b1, b2;
      PlfEngine scalar(d.data, d.params, d.tree, b1, KernelVariant::kScalar,
                       mode);
      PlfEngine simd(d.data, d.params, d.tree, b2, KernelVariant::kSimdCol,
                     mode);
      EXPECT_NEAR(scalar.log_likelihood(), simd.log_likelihood(),
                  std::abs(d.ref_lnl) * 2e-5);
      const float* a = scalar.node_cl(scalar.tree().root());
      const float* b = simd.node_cl(simd.tree().root());
      std::uint32_t worst = 0;
      for (std::size_t i = 0; i < m * 4 * 4; ++i) {
        worst = std::max(worst, ulp_distance(a[i], b[i]));
      }
      EXPECT_LE(worst, kMaxUlp);
    }
  }
}

// Serial and threaded backends run the same kernel over different partitions
// of the same index range; partitioning must not change a single bit.
TEST(BackendDiffCrossBackendTest, SerialVsThreadedBitIdentical) {
  const Dataset d = make_dataset(47, 4, 0.1);
  const std::size_t m = d.data.n_patterns();
  for (const auto mode : {SiteRepeatsMode::kOff, SiteRepeatsMode::kOn}) {
    SCOPED_TRACE(to_string(mode));
    BackendHolder hs = BackendHolder::make(BackendKind::kSerial);
    BackendHolder ht = BackendHolder::make(BackendKind::kThreaded);
    PlfEngine serial(d.data, d.params, d.tree, *hs.backend,
                     KernelVariant::kSimdCol, mode);
    PlfEngine threaded(d.data, d.params, d.tree, *ht.backend,
                       KernelVariant::kSimdCol, mode);
    serial.log_likelihood();
    threaded.log_likelihood();
    EXPECT_EQ(std::memcmp(serial.node_cl(serial.tree().root()),
                          threaded.node_cl(threaded.tree().root()),
                          m * 4 * 4 * sizeof(float)),
              0);
  }
}

// --- budgeted CLV arena differential ----------------------------------------
//
// A budgeted engine rematerializes evicted CLVs through the same kernels the
// unbudgeted twin used to compute them, so eviction must not move a single
// bit on ANY backend, under EITHER plan executor (the backend's own run_plan
// or PerCallBackend's per-op loop), repeats on or off. The twins'
// kernel-call accounting legitimately differs (rematerialization is extra
// work), so only lnL and CLV bits are compared — never stats.

/// Which run_plan executes the engine's plans: the backend's own ("plan",
/// fused where the backend fuses) or the base per-op loop via PerCallBackend.
enum class Executor { kPlan, kPerCall };

using BudgetParam = std::tuple<BackendKind, Executor, SiteRepeatsMode>;

class BudgetedDiffTest : public ::testing::TestWithParam<BudgetParam> {};

TEST_P(BudgetedDiffTest, HalfBudgetBitIdenticalToUnbudgetedTwin) {
  const auto [kind, executor, mode] = GetParam();
  const Dataset d = make_dataset(59, 4, 0.1);
  const std::size_t m = d.data.n_patterns();

  BackendHolder h_budget = BackendHolder::make(kind);
  BackendHolder h_full = BackendHolder::make(kind);
  PerCallBackend percall_budget(*h_budget.backend);
  PerCallBackend percall_full(*h_full.backend);
  const bool per_call = executor == Executor::kPerCall;
  ExecutionBackend& b_budget =
      per_call ? percall_budget : *h_budget.backend;
  ExecutionBackend& b_full = per_call ? percall_full : *h_full.backend;
  ClvBudget half;
  half.kind = ClvBudget::Kind::kFraction;
  half.fraction = 0.5;  // the minimum feasible working set
  PlfEngine budgeted(d.data, d.params, d.tree, b_budget,
                     KernelVariant::kSimdCol, mode, half);
  PlfEngine full(d.data, d.params, d.tree, b_full, KernelVariant::kSimdCol,
                 mode);

  EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());

  // Branch moves, an NNI proposal with reject, and a double-move proposal:
  // enough churn that the half-size arena must recycle buffers.
  Rng rng(59);
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    for (PlfEngine* e : {&budgeted, &full}) e->begin_proposal();
    if (step % 3 == 0) {
      const auto edges = budgeted.tree().internal_edge_nodes();
      ASSERT_FALSE(edges.empty());
      const int v = edges[rng.below(edges.size())];
      for (PlfEngine* e : {&budgeted, &full}) e->apply_nni(v, true);
    } else {
      int node;
      do {
        node = static_cast<int>(rng.below(budgeted.tree().n_nodes()));
      } while (node == budgeted.tree().root());
      const double len = rng.uniform(0.01, 1.2);
      for (PlfEngine* e : {&budgeted, &full}) e->set_branch_length(node, len);
    }
    EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
    EXPECT_LE(budgeted.arena().resident_bytes(),
              budgeted.arena().budget_bytes());
    if (step % 2 == 0) {
      for (PlfEngine* e : {&budgeted, &full}) e->accept();
    } else {
      for (PlfEngine* e : {&budgeted, &full}) e->reject();
    }
    EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
  }

  // A final accepted evaluation guarantees the root CLV is resident before
  // reading it raw: a reject may legitimately restore an evicted buffer
  // (node_cl on it PLF_CHECKs; the next dirty evaluation rematerializes).
  for (PlfEngine* e : {&budgeted, &full}) {
    e->set_branch_length(e->tree().leaf_of(0), 0.42);
  }
  EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
  EXPECT_EQ(std::memcmp(budgeted.node_cl(budgeted.tree().root()),
                        full.node_cl(full.tree().root()),
                        m * 4 * 4 * sizeof(float)),
            0);
  EXPECT_GT(budgeted.arena().counters().evictions, 0u);
  EXPECT_EQ(full.arena().counters().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BudgetedDiffTest,
    ::testing::Combine(
        ::testing::Values(BackendKind::kSerial, BackendKind::kThreaded,
                          BackendKind::kCell, BackendKind::kGpu),
        ::testing::Values(Executor::kPerCall, Executor::kPlan),
        ::testing::Values(SiteRepeatsMode::kOff, SiteRepeatsMode::kOn)),
    [](const ::testing::TestParamInfo<BudgetParam>& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_" +
             (std::get<1>(info.param) == Executor::kPerCall ? "percall"
                                                            : "plan") +
             "_repeats_" +
             (std::get<2>(info.param) == SiteRepeatsMode::kOn ? "on" : "off");
    });

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendDiffTest,
    ::testing::Combine(
        ::testing::Values(BackendKind::kSerial, BackendKind::kThreaded,
                          BackendKind::kCell, BackendKind::kGpu),
        ::testing::Values(KernelVariant::kScalar, KernelVariant::kSimdCol,
                          KernelVariant::kSimdCol8)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string v = to_string(std::get<1>(info.param));
      for (auto& c : v) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return std::string(name_of(std::get<0>(info.param))) + "_" + v;
    });

}  // namespace
}  // namespace plf::core
