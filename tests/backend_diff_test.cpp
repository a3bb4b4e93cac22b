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
#include <set>
#include <tuple>
#include <string>
#include <vector>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "gpu/plf_gpu.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

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

        // The compacted path must actually have run where supported, and
        // must have fallen back (not silently diverged) where not.
        if (percall_on.supports_site_repeats()) {
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

// --- compacted CLV storage ---------------------------------------------------

/// Every resident internal node of `compact` must hold exactly the dense
/// twin's CLV bits in its own layout: row class_of_site[c] (or row c when the
/// node is dense) equals the dense engine's row c, for every site c. The root
/// is always dense. Returns how many nodes were compacted.
std::size_t expect_compacted_layout(const PlfEngine& compact,
                                    const PlfEngine& dense) {
  const std::size_t m = dense.data().n_patterns();
  const std::size_t row = compact.model().n_rate_categories() * 4;
  const int root = compact.tree().root();
  EXPECT_EQ(compact.node_rows(root), m) << "the root must stay dense";
  std::size_t compacted = 0;
  for (int id : compact.tree().postorder_internals()) {
    if (!compact.node_resident(id) || !dense.node_resident(id)) continue;
    const std::size_t rows = compact.node_rows(id);
    EXPECT_EQ(dense.node_rows(id), m) << "node " << id;
    const std::uint32_t* row_of = nullptr;  // dense: row c holds site c
    if (rows != m) {
      const NodeRepeats& nr = compact.site_repeats().node(id);
      EXPECT_EQ(rows, nr.n_classes) << "node " << id;
      row_of = nr.class_of_site.data();
      ++compacted;
    }
    const float* got = compact.node_cl(id);
    const float* want = dense.node_cl(id);
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t r = row_of == nullptr ? c : row_of[c];
      if (std::memcmp(got + r * row, want + c * row, row * sizeof(float)) !=
          0) {
        ADD_FAILURE() << "node " << id << " site " << c << " (row " << r
                      << ") differs from the dense engine";
        return compacted;
      }
    }
  }
  return compacted;
}

enum class CompactExec { kSerial, kThreads2, kPerCall };

/// One executor for CompactedClvTest: serial, threads(2), or the per-call
/// adapter over serial.
struct CompactExecHolder {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<ExecutionBackend> inner;
  std::unique_ptr<PerCallBackend> percall;

  explicit CompactExecHolder(CompactExec kind) {
    if (kind == CompactExec::kThreads2) {
      pool = std::make_unique<par::ThreadPool>(2);
      inner = std::make_unique<ThreadedBackend>(*pool);
    } else {
      inner = std::make_unique<SerialBackend>();
    }
    if (kind == CompactExec::kPerCall) {
      percall = std::make_unique<PerCallBackend>(*inner);
    }
  }
  ExecutionBackend& backend() {
    return percall != nullptr ? static_cast<ExecutionBackend&>(*percall)
                              : *inner;
  }
};

using CompactParam = std::tuple<CompactExec, bool /*half CLV budget*/>;

class CompactedClvTest : public ::testing::TestWithParam<CompactParam> {};

TEST_P(CompactedClvTest, RowsMatchDenseEngineThroughMoveStorm) {
  const auto [exec, half_budget] = GetParam();
  const Dataset d = make_dataset(71, 4, 1.0);
  CompactExecHolder h_compact(exec), h_dense(exec);
  ClvBudget budget;
  if (half_budget) {
    budget.kind = ClvBudget::Kind::kFraction;
    budget.fraction = 0.5;
  }
  PlfEngine compact(d.data, d.params, d.tree, h_compact.backend(),
                    KernelVariant::kSimdCol, SiteRepeatsMode::kOn, budget);
  PlfEngine dense(d.data, d.params, d.tree, h_dense.backend(),
                  KernelVariant::kSimdCol, SiteRepeatsMode::kOff);
  ASSERT_TRUE(compact.site_repeats_enabled());

  const auto check = [&] {
    EXPECT_EQ(compact.log_likelihood(), dense.log_likelihood());
    return expect_compacted_layout(compact, dense);
  };
  EXPECT_GT(check(), 0u) << "nothing compacted: the test would be vacuous";

  Rng rng(71);
  for (int step = 0; step < 40; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    for (PlfEngine* e : {&compact, &dense}) e->begin_proposal();
    const phylo::Tree& t = compact.tree();
    const double u = rng.uniform();
    if (u < 0.4) {
      int node;
      do {
        node = static_cast<int>(rng.below(t.n_nodes()));
      } while (node == t.root());
      const double len = rng.uniform(0.01, 1.2);
      for (PlfEngine* e : {&compact, &dense}) e->set_branch_length(node, len);
    } else if (u < 0.7) {
      const auto edges = t.internal_edge_nodes();
      ASSERT_FALSE(edges.empty());
      const int v = edges[rng.below(edges.size())];
      const bool swap_left = rng.uniform() < 0.5;
      for (PlfEngine* e : {&compact, &dense}) e->apply_nni(v, swap_left);
    } else {
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
      const double x = t.branch_length(target) * rng.uniform(0.2, 0.8);
      for (PlfEngine* e : {&compact, &dense}) e->apply_spr(s, target, x);
    }
    check();
    if (rng.uniform() < 0.5) {
      for (PlfEngine* e : {&compact, &dense}) e->accept();
    } else {
      for (PlfEngine* e : {&compact, &dense}) e->reject();
    }
    check();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Executors, CompactedClvTest,
    ::testing::Combine(::testing::Values(CompactExec::kSerial,
                                         CompactExec::kThreads2,
                                         CompactExec::kPerCall),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<CompactParam>& info) {
      const CompactExec e = std::get<0>(info.param);
      return std::string(e == CompactExec::kSerial
                             ? "serial"
                             : (e == CompactExec::kThreads2 ? "threads2"
                                                            : "percall")) +
             (std::get<1>(info.param) ? "_budget_half" : "_budget_unlimited");
    });

TEST(CompactedClvRootTest, RootStaysDenseOnUncompressedColumns) {
  // Raw (uncompressed) columns repeat, so even the root would have fewer
  // classes than sites; it must still store every site, because the root
  // reduction reads its CLV and cumulative scaler rows by site.
  const Dataset d = make_dataset(73, 4, 1.0);
  const std::size_t m = d.data.n_patterns();
  std::set<std::vector<phylo::StateMask>> columns;
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<phylo::StateMask> col(d.data.n_taxa());
    for (std::size_t t = 0; t < col.size(); ++t) col[t] = d.data.at(t, c);
    columns.insert(col);
  }
  ASSERT_LT(columns.size(), m);
  SerialBackend b_compact, b_dense;
  PlfEngine compact(d.data, d.params, d.tree, b_compact,
                    KernelVariant::kSimdCol, SiteRepeatsMode::kOn);
  PlfEngine dense(d.data, d.params, d.tree, b_dense, KernelVariant::kSimdCol,
                  SiteRepeatsMode::kOff);
  EXPECT_EQ(compact.log_likelihood(), dense.log_likelihood());
  const int root = compact.tree().root();
  EXPECT_EQ(compact.node_rows(root), m);
  EXPECT_EQ(std::memcmp(compact.node_cl(root), dense.node_cl(root),
                        m * 4 * 4 * sizeof(float)),
            0);
  EXPECT_GT(expect_compacted_layout(compact, dense), 0u);
}

TEST(DenseOnlyBackendContractTest, RowOfChildIsRejected) {
  // Cell and GPU stream contiguous pattern blocks, so a compacted child
  // (ChildArgs::row_of) must be refused at their entries, like site_index.
  aligned_vector<float> cl(8 * 4 * 4, 0.25f), out(8 * 4 * 4, 0.0f);
  aligned_vector<float> p(4 * 16, 0.25f);
  const std::uint32_t row_of[8] = {0, 0, 1, 1, 2, 2, 3, 3};
  DownArgs a;
  a.left.cl = cl.data();
  a.left.p = p.data();
  a.left.pt = p.data();
  a.right = a.left;
  a.right.row_of = row_of;
  a.out = out.data();
  a.K = 4;
  RootArgs ra;
  ra.down = a;
  const std::vector<phylo::StateMask> masks(8, phylo::StateMask{1});
  ra.out_mask = masks.data();
  ra.out_tp = cl.data();
  const KernelSet& ks = kernels(KernelVariant::kSimdCol);
  for (BackendKind kind : {BackendKind::kCell, BackendKind::kGpu}) {
    SCOPED_TRACE(name_of(kind));
    BackendHolder h = BackendHolder::make(kind);
    EXPECT_THROW(h.backend->run_down(ks, a, 8), Error);
    EXPECT_THROW(h.backend->run_root(ks, ra, 8), Error);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendDiffTest,
    ::testing::Combine(
        ::testing::Values(BackendKind::kSerial, BackendKind::kThreaded,
                          BackendKind::kCell, BackendKind::kGpu),
        ::testing::Values(KernelVariant::kScalar, KernelVariant::kSimdCol,
                          KernelVariant::kSimdSite)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string v = to_string(std::get<1>(info.param));
      for (auto& c : v) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return std::string(name_of(std::get<0>(info.param))) + "_" + v;
    });

}  // namespace
}  // namespace plf::core
