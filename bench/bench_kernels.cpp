// Microbenchmarks (google-benchmark): raw host throughput of the PLF
// kernels — kernel-variant comparison (the paper's approach (i)/(ii)
// distinction on this machine's SIMD), pattern-count scaling, tip
// specializations, the scaler and reduction kernels, and threaded scaling
// over the pattern loop.
#include <benchmark/benchmark.h>

#include "core/backend.hpp"
#include "core/kernels.hpp"
#include "core/tip_partial.hpp"
#include "par/thread_pool.hpp"
#include "phylo/model.hpp"
#include "seqgen/datasets.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace {

using namespace plf;

struct Operands {
  std::size_t m, K;
  phylo::TransitionMatrices tm_l, tm_r;
  core::TipPartial tp_l;
  aligned_vector<float> cl_l, cl_r, out;
  aligned_vector<float> ln_scaler;
  aligned_vector<double> scaler_total;
  aligned_vector<std::uint32_t> weights;
  std::vector<phylo::StateMask> mask_l;

  Operands(std::size_t m_, std::size_t K_ = 4) : m(m_), K(K_) {
    phylo::GtrParams p = seqgen::default_gtr_params();
    p.n_rate_categories = K;
    phylo::SubstitutionModel model(p);
    tm_l = model.transition_matrices(0.1);
    tm_r = model.transition_matrices(0.2);
    tp_l = core::TipPartial(tm_l);
    Rng rng(7);
    cl_l.resize(m * K * 4);
    cl_r.resize(m * K * 4);
    out.resize(m * K * 4);
    for (auto& v : cl_l) v = static_cast<float>(rng.uniform(0.05, 1.0));
    for (auto& v : cl_r) v = static_cast<float>(rng.uniform(0.05, 1.0));
    ln_scaler.assign(m, 0.0f);
    scaler_total.assign(m, -0.5);
    weights.assign(m, 1);
    mask_l.resize(m);
    for (auto& x : mask_l) x = phylo::state_to_mask(rng.below(4));
  }

  core::DownArgs down(bool tip_left = false) {
    core::DownArgs a;
    a.K = K;
    if (tip_left) {
      a.left.mask = mask_l.data();
      a.left.tp = tp_l.data();
    } else {
      a.left.cl = cl_l.data();
    }
    a.left.p = tm_l.row_major();
    a.left.pt = tm_l.col_major();
    a.right.cl = cl_r.data();
    a.right.p = tm_r.row_major();
    a.right.pt = tm_r.col_major();
    a.out = out.data();
    return a;
  }
};

core::KernelVariant variant_of(int i) {
  switch (i) {
    case 0: return core::KernelVariant::kScalar;
    case 1: return core::KernelVariant::kSimdRow;
    default: return core::KernelVariant::kSimdCol;
  }
}

void BM_CondLikeDown(benchmark::State& state) {
  const auto variant = variant_of(static_cast<int>(state.range(0)));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  Operands op(m);
  const auto& ks = core::kernels(variant);
  const auto args = op.down();
  for (auto _ : state) {
    ks.down(args, 0, m);
    benchmark::DoNotOptimize(op.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
  state.SetLabel(core::to_string(variant));
}
BENCHMARK(BM_CondLikeDown)
    ->ArgsProduct({{0, 1, 2}, {1000, 8543, 50000}})
    ->Unit(benchmark::kMicrosecond);

void BM_CondLikeDownTip(benchmark::State& state) {
  const auto variant = variant_of(static_cast<int>(state.range(0)));
  Operands op(8543);
  const auto& ks = core::kernels(variant);
  const auto args = op.down(/*tip_left=*/true);
  for (auto _ : state) {
    ks.down(args, 0, op.m);
    benchmark::DoNotOptimize(op.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8543);
  state.SetLabel(core::to_string(variant));
}
BENCHMARK(BM_CondLikeDownTip)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

void BM_CondLikeScaler(benchmark::State& state) {
  const auto variant = variant_of(static_cast<int>(state.range(0)));
  Operands op(8543);
  const auto& ks = core::kernels(variant);
  core::ScaleArgs args{op.cl_l.data(), op.ln_scaler.data(), op.K};
  for (auto _ : state) {
    ks.scale(args, 0, op.m);
    benchmark::DoNotOptimize(op.cl_l.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8543);
  state.SetLabel(core::to_string(variant));
}
BENCHMARK(BM_CondLikeScaler)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

void BM_RootReduce(benchmark::State& state) {
  const auto variant = variant_of(static_cast<int>(state.range(0)));
  Operands op(8543);
  const auto& ks = core::kernels(variant);
  core::RootReduceArgs args;
  args.cl = op.cl_l.data();
  args.ln_scaler_total = op.scaler_total.data();
  args.weights = op.weights.data();
  args.K = op.K;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ks.root_reduce(args, 0, op.m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8543);
  state.SetLabel(core::to_string(variant));
}
BENCHMARK(BM_RootReduce)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

void BM_ThreadedDown(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 50000;
  Operands op(m);
  par::ThreadPool pool(threads);
  core::ThreadedBackend backend(pool);
  const auto& ks = core::kernels(core::KernelVariant::kSimdCol);
  const auto args = op.down();
  for (auto _ : state) {
    backend.run_down(ks, args, m);
    benchmark::DoNotOptimize(op.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
}
BENCHMARK(BM_ThreadedDown)->DenseRange(1, 4)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_ParallelRegionOverhead(benchmark::State& state) {
  // The cost the multi-core model's fork/join term represents, measured on
  // this host: an empty parallel region.
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  par::ThreadPool pool(threads);
  for (auto _ : state) {
    pool.parallel_for(0, threads, [](par::Range, std::size_t) {});
  }
}
BENCHMARK(BM_ParallelRegionOverhead)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
