#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "gpu/plf_gpu.hpp"
#include "mcmc/chain.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "par/thread_pool.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "simd/simd.hpp"
#include "simd/upper_state.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace plf::core {
namespace {

struct Instance {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
};

Instance make_instance(double pinv, std::size_t taxa = 8,
                       std::size_t cols = 400, std::uint64_t seed = 91) {
  Rng rng(seed);
  phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.2);
  phylo::GtrParams params = seqgen::default_gtr_params();
  params.p_invariant = pinv;
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto aln = ev.evolve(cols, rng);
  return Instance{std::move(tree), params, phylo::PatternMatrix::compress(aln)};
}

TEST(InvariantSitesTest, SiteLogLikelihoodHelper) {
  RootReduceArgs a;
  // A total scale exponent of -3 is a log scale factor of -3 ln 2.
  const double scaler = -3.0 * std::numbers::ln2;
  // Disabled: plain log + scaler.
  EXPECT_DOUBLE_EQ(site_log_likelihood(0.5, -3, a, 0),
                   std::log(0.5) + scaler);
  // Enabled with a variable pattern (const_lik == 0): only the scaled term.
  // Expectations use the float-rounded pinv exactly as the kernel sees it.
  float cl0[1] = {0.0f};
  a.const_lik = cl0;
  a.p_invariant = 0.3f;
  const double pinv = static_cast<double>(a.p_invariant);
  EXPECT_DOUBLE_EQ(site_log_likelihood(0.5, -3, a, 0),
                   std::log((1.0 - pinv) * 0.5) + scaler);
  // Constant-capable pattern: exact two-term mixture.
  float cl1[1] = {0.25f};
  a.const_lik = cl1;
  const double expect =
      std::log(pinv * 0.25 + (1.0 - pinv) * 0.5 * std::exp(scaler));
  EXPECT_NEAR(site_log_likelihood(0.5, -3, a, 0), expect, 1e-12);
  // Deep scaling must not overflow: 2^-720 in the variable part.
  float cl2[1] = {0.2f};
  a.const_lik = cl2;
  const double v = site_log_likelihood(0.5, -720, a, 0);
  EXPECT_NEAR(v, std::log(pinv * static_cast<double>(0.2f)), 1e-9);
  EXPECT_TRUE(std::isfinite(v));
}

TEST(InvariantSitesTest, MatchesDoublePrecisionReference) {
  auto inst = make_instance(0.3);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  const double got = engine.log_likelihood();
  const double ref = test::reference_log_likelihood(
      inst.tree, phylo::SubstitutionModel(inst.params), inst.data);
  EXPECT_NEAR(got, ref, std::abs(ref) * 1e-4);
}

TEST(InvariantSitesTest, ZeroPinvIsExactlyPlainModel) {
  auto inst = make_instance(0.0);
  SerialBackend b1, b2;
  PlfEngine with(inst.data, inst.params, inst.tree, b1);
  auto no_i = inst.params;
  no_i.p_invariant = 0.0;
  PlfEngine without(inst.data, no_i, inst.tree, b2);
  EXPECT_EQ(with.log_likelihood(), without.log_likelihood());
}

TEST(InvariantSitesTest, AllVariantsAndBackendsAgree) {
  auto inst = make_instance(0.4);
  SerialBackend backend;
  PlfEngine ref(inst.data, inst.params, inst.tree, backend,
                KernelVariant::kScalar);
  const double expect = ref.log_likelihood();

  for (auto v : {KernelVariant::kSimdRow, KernelVariant::kSimdCol,
                 KernelVariant::kSimdSite}) {
    SerialBackend b;
    PlfEngine e(inst.data, inst.params, inst.tree, b, v);
    EXPECT_NEAR(e.log_likelihood(), expect, std::abs(expect) * 1e-5);
  }
  {
    cell::CellConfig cfg;
    cfg.n_spes = 6;
    cell::CellMachine machine(cfg);
    PlfEngine e(inst.data, inst.params, inst.tree, machine,
                KernelVariant::kSimdCol);
    EXPECT_NEAR(e.log_likelihood(), expect, std::abs(expect) * 1e-5);
  }
  {
    gpu::GpuPlfConfig cfg;
    gpu::GpuPlf device(cfg);
    PlfEngine e(inst.data, inst.params, inst.tree, device,
                KernelVariant::kScalar);
    EXPECT_NEAR(e.log_likelihood(), expect, std::abs(expect) * 1e-5);
  }
}

TEST(InvariantSitesTest, PinvLikelihoodCurveHasInteriorMaximum) {
  // Data simulated with pinv = 0.4: the lnL over pinv should peak nearer
  // 0.4 than the extremes.
  auto inst = make_instance(0.4, 10, 2000, 97);
  SerialBackend backend;
  auto lnl_at = [&](double pinv) {
    auto p = inst.params;
    p.p_invariant = pinv;
    PlfEngine engine(inst.data, p, inst.tree, backend);
    return engine.log_likelihood();
  };
  const double at_0 = lnl_at(1e-9);
  const double at_04 = lnl_at(0.4);
  const double at_09 = lnl_at(0.9);
  EXPECT_GT(at_04, at_0);
  EXPECT_GT(at_04, at_09);
}

TEST(InvariantSitesTest, EvolverProducesMoreConstantColumns) {
  Rng rng(5);
  phylo::Tree tree = seqgen::yule_tree(10, rng, 1.0, 0.5);  // long branches
  auto count_constant = [&](double pinv) {
    auto p = seqgen::default_gtr_params();
    p.p_invariant = pinv;
    phylo::SubstitutionModel model(p);
    seqgen::SequenceEvolver ev(tree, model);
    Rng r2(6);
    int constant = 0;
    for (int i = 0; i < 1000; ++i) {
      const auto col = ev.evolve_column(r2);
      bool same = true;
      for (std::size_t j = 1; j < col.size(); ++j) same &= (col[j] == col[0]);
      constant += same;
    }
    return constant;
  };
  const int base = count_constant(0.0);
  const int with_i = count_constant(0.5);
  EXPECT_GT(with_i, base + 300);  // ~half the columns forced invariant
}

TEST(InvariantSitesTest, McmcEstimatesPinv) {
  // Chain with the +I slide enabled should move pinv from a wrong start
  // toward the generating value.
  auto inst = make_instance(0.45, 8, 3000, 99);
  auto start = inst.params;
  start.p_invariant = 0.05;
  SerialBackend backend;
  PlfEngine engine(inst.data, start, inst.tree, backend);
  mcmc::McmcOptions opts;
  opts.seed = 21;
  opts.w_pinv = 2.0;
  mcmc::McmcChain chain(engine, opts);
  chain.run(1500);
  EXPECT_NEAR(engine.model_params().p_invariant, 0.45, 0.2);
  EXPECT_GT(chain.proposal_stats().at("p-invariant").proposed, 100u);
}

TEST(InvariantSitesTest, ProposalRejectRestoresPinv) {
  auto inst = make_instance(0.3);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  const double before = engine.log_likelihood();
  engine.begin_proposal();
  auto p = engine.model_params();
  p.p_invariant = 0.7;
  engine.set_model(p);
  engine.log_likelihood();
  engine.reject();
  EXPECT_DOUBLE_EQ(engine.log_likelihood(), before);
  EXPECT_DOUBLE_EQ(engine.model_params().p_invariant, 0.3);
}

TEST(InvariantSitesTest, PinvOnlyMoveRunsOnlyTheReduction) {
  // p_invariant enters only the root reduction, so moving it alone dirties
  // no CLV: the plan has no ops, the reduction runs over the cached root
  // rows, and the lnL is bit-equal to a fresh engine's. On the threaded
  // backend that evaluation is one reduce-only region.
  auto inst = make_instance(0.3);
  par::ThreadPool pool(2);
  ThreadedBackend threaded(pool);
  SerialBackend serial;
  PerCallBackend percall(threaded);
  for (ExecutionBackend* backend :
       {static_cast<ExecutionBackend*>(&serial),
        static_cast<ExecutionBackend*>(&threaded),
        static_cast<ExecutionBackend*>(&percall)}) {
    SCOPED_TRACE(backend->name());
    PlfEngine engine(inst.data, inst.params, inst.tree, *backend);
    const double before = engine.log_likelihood();
    const std::uint64_t builds = engine.stats().plan_builds;
    const std::uint64_t tm_builds = engine.stats().tm_builds;

    engine.begin_proposal();
    phylo::GtrParams p = engine.model_params();
    p.p_invariant = 0.1;
    engine.set_model(p);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const std::uint64_t regions0 =
        reg.snapshot().counter_value(obs::kCounterParRegions);
    const double moved = engine.log_likelihood();
    const std::uint64_t regions =
        reg.snapshot().counter_value(obs::kCounterParRegions) - regions0;
    EXPECT_TRUE(engine.last_plan().empty());
    EXPECT_EQ(engine.stats().plan_builds, builds);
    EXPECT_EQ(engine.stats().tm_builds, tm_builds);
#if defined(PLF_PROFILING_ENABLED)
    EXPECT_EQ(regions, backend == &serial ? 0u : 1u);
#else
    EXPECT_EQ(regions, 0u);
#endif
    PlfEngine fresh(inst.data, p, inst.tree, *backend);
    EXPECT_EQ(moved, fresh.log_likelihood());

    engine.reject();
    EXPECT_EQ(engine.log_likelihood(), before);
  }
}

TEST(InvariantSitesTest, PinvOnlyMoveRematerializesAnEvictedRoot) {
  // With the root clean, the reduction is the only reader of its rows: an
  // evicted root must come back through the plan, not trip the arena.
  auto inst = make_instance(0.3);
  SerialBackend backend;
  PlfEngine engine(inst.data, inst.params, inst.tree, backend,
                   KernelVariant::kSimdCol, SiteRepeatsMode::kAuto,
                   clv_budget_from_string("0.5"));
  engine.log_likelihood();
  phylo::GtrParams p = engine.model_params();
  p.p_invariant = 0.2;
  engine.set_model(p);
  engine.evict_node_for_test(engine.tree().root());
  const double got = engine.log_likelihood();
  EXPECT_TRUE(engine.node_resident(engine.tree().root()));
  SerialBackend fresh_backend;
  PlfEngine fresh(inst.data, p, inst.tree, fresh_backend);
  EXPECT_EQ(got, fresh.log_likelihood());
}

TEST(InvariantSitesTest, ReduceBitsDoNotDependOnTheUpperStateAtEntry) {
  // The reduction clears the upper vector state at entry (in a dirty state
  // glibc's legacy-SSE log/exp/log1p wrappers stall); that is a speed guard
  // only, so every variant returns the same +I bits either way.
  constexpr std::size_t kSites = 64;
  constexpr std::size_t kK = 4;
  aligned_vector<float> cl(kSites * kK * 4);
  aligned_vector<std::int32_t> scalers(kSites);
  aligned_vector<std::uint32_t> weights(kSites);
  aligned_vector<float> const_lik(kSites, 0.0f);
  Rng rng(5);
  for (float& v : cl) v = static_cast<float>(rng.uniform(0.05, 1.0));
  for (std::size_t c = 0; c < kSites; ++c) {
    scalers[c] = -static_cast<std::int32_t>(rng.below(5));
    weights[c] = 1 + static_cast<std::uint32_t>(rng.below(4));
  }
  for (std::size_t c = 0; c < 4; ++c) const_lik[c] = 0.25f;  // constant
  RootReduceArgs a;
  a.cl = cl.data();
  a.scaler_count = scalers.data();
  a.weights = weights.data();
  a.K = kK;
  a.const_lik = const_lik.data();
  a.p_invariant = 0.1f;

  struct Call {
    const KernelSet* ks;
    const RootReduceArgs* a;
    bool through_step;
    bool dirty_at_entry;
    double result;
  };
  const auto reduce = [](void* p) {
    Call& c = *static_cast<Call*>(p);
    c.dirty_at_entry = simd::upper_state_dirty();
    c.result = c.through_step ? run_reduce_step(*c.ks, *c.a, 0, kSites)
                              : c.ks->root_reduce(*c.a, 0, kSites);
  };
  const bool observable = simd::upper_state_observable();
  for (auto v : {KernelVariant::kScalar, KernelVariant::kSimdRow,
                 KernelVariant::kSimdCol, KernelVariant::kSimdSite}) {
    SCOPED_TRACE(to_string(v));
    const KernelSet& ks = kernels(v);
    simd::zero_upper();
    const double clean = ks.root_reduce(a, 0, kSites);
    for (const bool through_step : {false, true}) {
      Call call{&ks, &a, through_step, false, 0.0};
      simd::call_with_dirty_upper(reduce, &call);
      if (observable) {
        EXPECT_TRUE(call.dirty_at_entry);
      }
      EXPECT_EQ(call.result, clean);
    }
  }
}

TEST(InvariantSitesTest, BadPinvRejected) {
  phylo::GtrParams p;
  p.p_invariant = 1.0;
  EXPECT_THROW(phylo::SubstitutionModel{p}, Error);
  p.p_invariant = -0.1;
  EXPECT_THROW(phylo::SubstitutionModel{p}, Error);
}

}  // namespace
}  // namespace plf::core
