// Unified bench suite: one binary that runs the whole perf matrix and emits
// the schema-versioned BENCH_<date>.json the regression gate consumes.
//
// Two families of cases:
//
//   kernel.<op>.<variant>       raw per-call kernel time at the paper's
//                               8,543-pattern width, for scalar / simd-row /
//                               simd-col (the approach (i)/(ii) distinction)
//   kernel.{down,down_scale}.simd-site
//                               the whole-site default kernels: plain down
//                               and fused down + rescale
//   kernel.root_reduce.pinv[.dirty-upper]
//                               the +I root reduction, entered with a clean
//                               or a dirty upper vector state
//   scaling.down.t<n>           the default down kernel at 50,000 patterns
//                               through ThreadedBackend::run_down on an
//                               n-thread pool, n = 1..4
//   engine.<backend>.<executor>.<sr>
//                               seconds per likelihood evaluation under a
//                               branch-move loop, over {serial,threaded} ×
//                               {percall,plan} × site repeats {off,on};
//                               percall runs the backend under
//                               core::PerCallBackend (two synchronous calls
//                               per op), plan runs its own run_plan
//   par.region.<body>.<gap>     seconds per parallel_for on a kPoolWorkers
//                               pool: {empty,20us,100us} of spin work split
//                               over the static blocks, back to back (b2b)
//                               or after 60 µs of serial caller work (gap60)
//   mcmc.e2e.<data>.<sr>        seconds per generation of 4-chain MC3 with
//                               the full move mix on the real-data
//                               stand-in (real20) and on mrbayes_lite's
//                               built-in demo data (demo), site repeats
//                               {off,auto}
//   mcmc.e2e.grid50x1k          the same on the paper's 50_1K grid cell
//                               (perfbench's grid50x1k) on a 1-thread pool
//
// Noise discipline: every case value is the MINIMUM over --reps repetitions
// of the identical deterministic workload — the least-disturbed observation —
// and tools/bench_compare applies a per-case relative threshold on top. The
// full per-rep distribution (median/mean/stddev) is recorded alongside for
// humans; --quick shrinks iteration counts but not the per-call/per-eval
// normalization, so quick runs stay comparable (just noisier, which is why
// CI compares --warn-only).
//
// Usage: bench_suite --out FILE [--quick] [--reps N] [--git-sha SHA]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/kernels.hpp"
#include "core/tip_partial.hpp"
#include "mcmc/coupled.hpp"
#include "obs/exporter.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "phylo/alignment.hpp"
#include "phylo/model.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "simd/upper_state.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace plf;
using obs::detail::json_escape;

constexpr std::size_t kPatterns = 8543;  // paper §4: distinct rRNA patterns
constexpr std::size_t kTaxa = 16;
constexpr std::size_t kPoolWorkers = 2;

/// Sink for benchmark results the optimizer must treat as observable.
[[maybe_unused]] volatile double g_bench_sink = 0.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CaseStat {
  std::string name;
  std::string unit;       ///< "s/call" or "s/eval"
  std::uint64_t iters;    ///< timed operations per rep
  double threshold;       ///< relative gate threshold for this case
  std::vector<double> values;  ///< one per rep

  double min() const {
    return *std::min_element(values.begin(), values.end());
  }
  double median() const {
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
};

// ---------------------------------------------------------------------------
// kernel cases

struct Operands {
  std::size_t m, K;
  phylo::TransitionMatrices tm_l, tm_r;
  aligned_vector<float> cl_l, cl_r, out;
  aligned_vector<float> ln_scaler;
  aligned_vector<std::int32_t> scaler_count;
  aligned_vector<std::uint32_t> weights;
  std::vector<phylo::StateMask> mask_l;
  core::TipPartial tp_l;

  explicit Operands(std::size_t m_, std::size_t K_ = 4) : m(m_), K(K_) {
    phylo::GtrParams p = seqgen::default_gtr_params();
    p.n_rate_categories = K;
    phylo::SubstitutionModel model(p);
    tm_l = model.transition_matrices(0.1);
    tm_r = model.transition_matrices(0.2);
    Rng rng(7);
    cl_l.resize(m * K * 4);
    cl_r.resize(m * K * 4);
    out.resize(m * K * 4);
    for (auto& v : cl_l) v = static_cast<float>(rng.uniform(0.05, 1.0));
    for (auto& v : cl_r) v = static_cast<float>(rng.uniform(0.05, 1.0));
    ln_scaler.assign(m, 0.0f);
    scaler_count.assign(m, -1);
    weights.assign(m, 1);
    // Tip operand: realistic mask mix (mostly resolved bases, ~10%
    // ambiguity codes) and the per-branch lookup table the engine would
    // have staged for a tip child.
    mask_l.resize(m);
    for (auto& x : mask_l) {
      x = rng.uniform() < 0.1
              ? static_cast<phylo::StateMask>(1 + rng.below(15))
              : phylo::state_to_mask(rng.below(4));
    }
    tp_l = core::TipPartial(tm_l);
  }

  core::DownArgs down() {
    core::DownArgs a;
    a.K = K;
    a.left.cl = cl_l.data();
    a.left.p = tm_l.row_major();
    a.left.pt = tm_l.col_major();
    a.right.cl = cl_r.data();
    a.right.p = tm_r.row_major();
    a.right.pt = tm_r.col_major();
    a.out = out.data();
    return a;
  }

  core::DownArgs down_tip_inner() {
    core::DownArgs a = down();
    a.left.cl = nullptr;
    a.left.mask = mask_l.data();
    a.left.tp = tp_l.data();
    return a;
  }
};

struct VariantRow {
  core::KernelVariant variant;
  const char* label;
};

constexpr VariantRow kVariants[] = {
    {core::KernelVariant::kScalar, "scalar"},
    {core::KernelVariant::kSimdRow, "simd-row"},
    {core::KernelVariant::kSimdCol, "simd-col"},
};

CaseStat kernel_case(const std::string& op_name,
                     core::KernelVariant variant, const char* variant_label,
                     std::uint64_t iters, int reps) {
  Operands op(kPatterns);
  const auto& ks = core::kernels(variant);
  const auto down_args = op.down();
  core::ScaleArgs scale_args{op.cl_l.data(), op.ln_scaler.data(), op.K};
  core::RootReduceArgs reduce_args;
  reduce_args.cl = op.cl_l.data();
  reduce_args.scaler_count = op.scaler_count.data();
  reduce_args.weights = op.weights.data();
  reduce_args.K = op.K;

  CaseStat cs;
  cs.name = "kernel." + op_name + "." + variant_label;
  cs.unit = "s/call";
  cs.iters = iters;
  cs.threshold = 0.15;
  double sink = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < iters; ++i) {
      if (op_name == "down") {
        ks.down(down_args, 0, op.m);
        sink += static_cast<double>(op.out[0]);
      } else if (op_name == "scale") {
        ks.scale(scale_args, 0, op.m);
        sink += static_cast<double>(op.ln_scaler[0]);
      } else {
        sink += ks.root_reduce(reduce_args, 0, op.m);
      }
    }
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(iters));
  }
  g_bench_sink = sink;  // keep the timed work observable
  return cs;
}

/// kernel.root_reduce.pinv[.dirty-upper]: the default kernel set's +I root
/// reduction at the paper's width, with the 4 constant patterns first (the
/// only sites that run the log-sum-exp branch's legacy-SSE exp/log1p) and
/// p_invariant 0.1. The dirty-upper twin marks the upper vector state in use
/// before every call (confirmed with XGETBV) — the state the engine's π
/// conversion once left behind — so the pair measures the entry guard
/// (docs/KERNELS.md, "Vector-state hygiene"): without it the dirty twin ran
/// 10–13× slower. Returns false, with no case, when the CPU cannot report
/// the upper state.
bool root_reduce_pinv_case(bool dirty_upper, std::uint64_t iters, int reps,
                           CaseStat& cs) {
  if (dirty_upper && !simd::upper_state_observable()) return false;
  Operands op(kPatterns);
  const auto& ks = core::kernels(core::KernelVariant::kSimdCol);
  aligned_vector<float> const_lik(op.m, 0.0f);
  for (std::size_t c = 0; c < 4; ++c) const_lik[c] = 0.25f;
  core::RootReduceArgs a;
  a.cl = op.cl_l.data();
  a.scaler_count = op.scaler_count.data();
  a.weights = op.weights.data();
  a.K = op.K;
  a.const_lik = const_lik.data();
  a.p_invariant = 0.1f;

  cs.name = std::string("kernel.root_reduce.pinv") +
            (dirty_upper ? ".dirty-upper" : "");
  cs.unit = "s/call";
  cs.iters = iters;
  cs.threshold = 0.15;
  struct Call {
    const core::KernelSet* ks;
    const core::RootReduceArgs* a;
    std::size_t m;
    double sink;
    std::uint64_t clean_entries;
  } call{&ks, &a, op.m, 0.0, 0};
  const auto reduce = [](void* p) {
    Call& c = *static_cast<Call*>(p);
    if (!simd::upper_state_dirty()) ++c.clean_entries;
    c.sink += c.ks->root_reduce(*c.a, 0, c.m);
  };
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < iters; ++i) {
      if (dirty_upper) {
        simd::call_with_dirty_upper(reduce, &call);
      } else {
        call.sink += ks.root_reduce(a, 0, op.m);
      }
    }
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(iters));
  }
  g_bench_sink = call.sink;
  if (call.clean_entries > 0) {
    throw Error(cs.name + ": the upper state was clean at " +
                std::to_string(call.clean_entries) + " call entries");
  }
  return true;
}

/// Busy-wait `us` microseconds on the calling thread.
void spin_us(double us) {
  const double until = now_s() + us * 1e-6;
  while (now_s() < until) {
  }
}

/// par.region.<body>.<gap>: wall time of one parallel_for, the fork-join
/// cost the paper's §4.1 holds responsible for multi-core scaling. The
/// region spans 1,500 units; each static block spins its share of
/// `body_us`, so a perfect split takes body_us / pool.size(). `gap_us` of
/// serial caller spin before each region (untimed) lets the helpers go idle
/// the way MCMC's serial engine work does. Region latency is heavy-tailed
/// under preemption, so each rep's value is its median region time.
CaseStat par_region_case(par::ThreadPool& pool, const char* body_label,
                         double body_us, const char* gap_label, double gap_us,
                         std::uint64_t iters, int reps) {
  constexpr std::size_t kUnits = 1500;
  CaseStat cs;
  cs.name = std::string("par.region.") + body_label + "." + gap_label;
  cs.unit = "s/call";
  cs.iters = iters;
  cs.threshold = 0.50;
  std::vector<double> times(iters);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      if (gap_us > 0.0) spin_us(gap_us);
      const double t0 = now_s();
      pool.parallel_for(0, kUnits, [body_us](par::Range r, std::size_t) {
        if (body_us > 0.0) {
          spin_us(body_us * static_cast<double>(r.size()) /
                  static_cast<double>(kUnits));
        }
      });
      times[i] = now_s() - t0;
    }
    std::sort(times.begin(), times.end());
    cs.values.push_back(times[iters / 2]);
  }
  return cs;
}

/// Fused kernel cases (docs/KERNELS.md), on the simd-col entries unless the
/// name says simd-site or tip-inner. Case names:
///   kernel.down_scale.fused      single-pass down + rescale over one CLV
///                                sweep
///   kernel.down_scale.simd-site  the same on the whole-site entries
///   kernel.down_scale.tip-inner  the same with a tip left child: what a
///                                one-tip plan op runs
CaseStat fused_kernel_case(const std::string& case_name, std::uint64_t iters,
                           int reps) {
  Operands op(kPatterns);
  const bool whole_site = case_name == "down_scale.simd-site" ||
                          case_name == "down_scale.tip-inner";
  const auto& ks = core::kernels(whole_site ? core::KernelVariant::kSimdSite
                                            : core::KernelVariant::kSimdCol);
  const auto fused_down =
      case_name == "down_scale.tip-inner" ? op.down_tip_inner() : op.down();
  core::ScaleArgs fused_scale{op.out.data(), op.ln_scaler.data(), op.K};

  CaseStat cs;
  cs.name = "kernel." + case_name;
  cs.unit = "s/call";
  cs.iters = iters;
  cs.threshold = 0.15;
  double sink = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < iters; ++i) {
      ks.down_scale(fused_down, fused_scale, 0, op.m);
      sink += static_cast<double>(op.out[0]);
    }
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(iters));
  }
  g_bench_sink = sink;
  return cs;
}

/// scaling.down.t<threads>: the default down kernel over 50,000 patterns
/// (paper grid width, CLVs past L2) split by ThreadedBackend::run_down
/// across a pool of `threads` threads, caller included — the measured
/// counterpart of the modelled Fig. 9 scaling.
CaseStat scaling_down_case(std::size_t threads, std::uint64_t iters,
                           int reps) {
  constexpr std::size_t kScalingPatterns = 50000;
  Operands op(kScalingPatterns);
  par::ThreadPool pool(threads);
  core::ThreadedBackend backend(pool);
  const auto& ks = core::kernels(core::KernelVariant::kSimdSite);
  const auto args = op.down();

  CaseStat cs;
  cs.name = "scaling.down.t" + std::to_string(threads);
  cs.unit = "s/call";
  cs.iters = iters;
  // Parallel regions are noisier than a single-thread kernel loop.
  cs.threshold = 0.40;
  double sink = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < iters; ++i) {
      backend.run_down(ks, args, op.m);
      sink += static_cast<double>(op.out[0]);
    }
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(iters));
  }
  g_bench_sink = sink;
  return cs;
}

// ---------------------------------------------------------------------------
// engine cases

phylo::PatternMatrix make_columns(const std::vector<std::string>& names,
                                  std::size_t m, Rng& rng) {
  const std::size_t n_taxa = names.size();
  std::vector<std::vector<phylo::StateMask>> cols;
  cols.reserve(m);
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<phylo::StateMask> col(n_taxa);
    for (auto& x : col) x = phylo::state_to_mask(rng.below(4));
    cols.push_back(std::move(col));
  }
  return phylo::PatternMatrix::from_patterns(
      names, cols, std::vector<std::uint32_t>(cols.size(), 1));
}

CaseStat engine_case(const phylo::PatternMatrix& data,
                     const phylo::Tree& tree, const phylo::GtrParams& params,
                     core::ExecutionBackend& backend,
                     const char* backend_label, const char* executor_label,
                     core::SiteRepeatsMode repeats, std::uint64_t evals,
                     int reps, core::ClvBudget budget = core::ClvBudget{},
                     const char* name_suffix = "") {
  CaseStat cs;
  cs.name = std::string("engine.") + backend_label + "." + executor_label +
            "." +
            (repeats == core::SiteRepeatsMode::kOn ? "sr-on" : "sr-off") +
            name_suffix;
  cs.unit = "s/eval";
  cs.iters = evals;
  // Engine paths cross parallel regions and allocators; they are noisier
  // than a tight kernel loop, more so on the threaded backend.
  cs.threshold = std::string(backend_label) == "threaded" ? 0.40 : 0.25;

  core::PlfEngine engine(data, params, tree, backend,
                         core::KernelVariant::kSimdSite, repeats, budget);
  engine.log_likelihood();  // warm-up: buffers, matrices, plan cache
  const int n_leaves = static_cast<int>(data.n_taxa());
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < evals; ++i) {
      engine.set_branch_length(
          engine.tree().leaf_of(static_cast<int>(i) % n_leaves),
          0.05 + 0.001 * static_cast<double>(i % 7));
      engine.log_likelihood();
    }
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(evals));
  }
  engine.publish_stats(obs::MetricsRegistry::global());
  return cs;
}

// ---------------------------------------------------------------------------
// multi-instance runtime cases (exec/scheduler.hpp, docs/SHARDING.md)

/// 4-chain MC3 stepping cost: all four engines share ONE 2-worker pool and
/// step concurrently, chain 0 on the caller and chains 1-3 on the coupler's
/// driver threads.
CaseStat coupled_case(const phylo::PatternMatrix& data,
                      const phylo::Tree& tree,
                      const phylo::GtrParams& params, std::uint64_t gens,
                      int reps) {
  CaseStat cs;
  cs.name = "coupled.4chain.shared-pool";
  cs.unit = "s/gen";
  cs.iters = gens;
  cs.threshold = 0.40;

  constexpr std::size_t kChains = 4;
  par::ThreadPool pool(kPoolWorkers);
  core::ThreadedBackend backend(pool);
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < kChains; ++i) {
    engines.push_back(
        std::make_unique<core::PlfEngine>(data, params, tree, backend));
  }
  mcmc::CoupledOptions opts;
  opts.chain.seed = 4242;
  mcmc::CoupledChains mc3(std::move(engines), opts);

  std::uint64_t target = 5;  // warm-up: plans, driver rebind
  mc3.run(target);
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    target += gens;
    mc3.run(target);
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(gens));
  }
  return cs;
}

/// Telemetry overhead (docs/OBSERVABILITY.md): the same 4-chain MC3 stepping
/// loop with live telemetry off vs exporting a full record —
/// gauges, JSONL append, atomic status rewrite — EVERY generation, the
/// worst-case cadence (real runs default to every 100). The gate holds the
/// "on" case to the same relative threshold as the other MC3 cases, keeping
/// the observability layer honest about staying off the hot path.
CaseStat telemetry_case(const phylo::PatternMatrix& data,
                        const phylo::Tree& tree,
                        const phylo::GtrParams& params, bool telemetry_on,
                        std::uint64_t gens, int reps) {
  CaseStat cs;
  cs.name = telemetry_on ? "engine.telemetry.on" : "engine.telemetry.off";
  cs.unit = "s/gen";
  cs.iters = gens;
  cs.threshold = 0.40;

  constexpr std::size_t kChains = 4;
  par::ThreadPool pool(kPoolWorkers);
  core::ThreadedBackend backend(pool);
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < kChains; ++i) {
    engines.push_back(
        std::make_unique<core::PlfEngine>(data, params, tree, backend));
  }
  const std::string tmp_prefix = "bench_telemetry_" +
                                 std::to_string(::getpid());
  std::unique_ptr<obs::TelemetryExporter> exporter;
  if (telemetry_on) {
    obs::TelemetryOptions topts;
    topts.jsonl_path = tmp_prefix + ".jsonl";
    topts.status_path = tmp_prefix + ".status.json";
    topts.every_generations = 1;
    exporter = std::make_unique<obs::TelemetryExporter>(
        topts, &obs::MetricsRegistry::global());
  }
  mcmc::CoupledOptions opts;
  opts.chain.seed = 4343;
  opts.telemetry = exporter.get();
  mcmc::CoupledChains mc3(std::move(engines), opts);

  std::uint64_t target = 5;  // warm-up: plans, first record
  mc3.run(target);
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    target += gens;
    mc3.run(target);
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(gens));
  }
  if (telemetry_on) {
    std::remove((tmp_prefix + ".jsonl").c_str());
    std::remove((tmp_prefix + ".status.json").c_str());
  }
  return cs;
}

/// End-to-end MC3 on `data` from `start`: s/gen of mrbayes_lite's default
/// run — 4 coupled chains on one `threads`-worker threaded pool, GTR+I+G,
/// the NNI/eSPR/branch/model move mix — with only the site-repeats mode and
/// the pool size varied. Unlike the engine.* cases, which move branch
/// lengths only, these exercise topology moves and hence repeat
/// identification.
CaseStat e2e_case(const std::string& name, const phylo::PatternMatrix& data,
                  const phylo::Tree& start, core::SiteRepeatsMode repeats,
                  std::size_t threads, std::uint64_t gens, int reps) {
  CaseStat cs;
  cs.name = name;
  cs.unit = "s/gen";
  cs.iters = gens;
  cs.threshold = 0.40;

  constexpr std::size_t kChains = 4;
  phylo::GtrParams params;
  params.p_invariant = 0.1;
  par::ThreadPool pool(threads);
  core::ThreadedBackend backend(pool);
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < kChains; ++i) {
    engines.push_back(std::make_unique<core::PlfEngine>(
        data, params, start, backend, core::KernelVariant::kSimdSite,
        repeats));
  }
  mcmc::CoupledOptions opts;
  opts.chain.seed = 4545;
  opts.chain.w_pinv = 0.7;
  opts.chain.w_spr = 1.5;
  mcmc::CoupledChains mc3(std::move(engines), opts);

  std::uint64_t target = 5;  // warm-up: plans, first classes
  mc3.run(target);
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    target += gens;
    mc3.run(target);
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(gens));
  }
  return cs;
}

// ---------------------------------------------------------------------------
// output

std::string utc_timestamp() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

void write_bench_json(std::ostream& os, const std::vector<CaseStat>& cases,
                      const std::string& git_sha, bool quick, int reps) {
  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);

  const auto old_precision = os.precision(12);
  os << "{\n"
     << "  \"schema\": \"plf-bench-v1\",\n"
     << "  \"schema_version\": 1,\n"
     << "  \"generated_utc\": \"" << utc_timestamp() << "\",\n"
     << "  \"git_sha\": \"" << json_escape(git_sha) << "\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"host\": {\n"
     << "    \"hostname\": \"" << json_escape(host) << "\",\n"
     << "    \"cpu\": \"" << json_escape(cpu_model()) << "\",\n"
     << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "    \"compiler\": \"" << json_escape(__VERSION__) << "\",\n"
     << "    \"pointer_bits\": " << 8 * sizeof(void*) << "\n"
     << "  },\n"
     << "  \"cases\": {\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseStat& c = cases[i];
    OnlineStats stats;
    for (const double v : c.values) stats.add(v);
    os << "    \"" << json_escape(c.name) << "\": {\"unit\": \"" << c.unit
       << "\", \"reps\": " << reps << ", \"iters\": " << c.iters
       << ", \"min\": " << c.min() << ", \"median\": " << c.median()
       << ", \"mean\": " << stats.mean() << ", \"stddev\": " << stats.stddev()
       << ", \"threshold\": " << c.threshold << "}"
       << (i + 1 < cases.size() ? ",\n" : "\n");
  }
  os << "  },\n"
     << "  \"metrics\": ";
  obs::write_metrics_json(os, obs::MetricsRegistry::global().snapshot());
  os << "\n}\n";
  os.precision(old_precision);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --out FILE [--quick] [--reps N] [--git-sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string git_sha = "unknown";
  bool quick = false;
  int reps = 5;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--git-sha" && i + 1 < argc) {
      git_sha = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (out_path.empty()) return usage(argv[0]);
  if (quick) reps = std::min(reps, 2);
  if (reps < 1) reps = 1;

  const std::uint64_t kernel_iters = quick ? 10 : 60;
  const std::uint64_t engine_evals = quick ? 4 : 16;

  std::vector<CaseStat> cases;

  for (const VariantRow& v : kVariants) {
    for (const char* op : {"down", "scale", "root_reduce"}) {
      cases.push_back(kernel_case(op, v.variant, v.label, kernel_iters, reps));
      std::cerr << cases.back().name << ": "
                << cases.back().min() * 1e6 << " us/call (min of " << reps
                << ")\n";
    }
  }
  cases.push_back(kernel_case("down", core::KernelVariant::kSimdSite,
                              "simd-site", kernel_iters, reps));
  std::cerr << cases.back().name << ": " << cases.back().min() * 1e6
            << " us/call (min of " << reps << ")\n";

  for (const bool dirty_upper : {false, true}) {
    CaseStat cs;
    if (!root_reduce_pinv_case(dirty_upper, kernel_iters, reps, cs)) {
      std::cerr << "kernel.root_reduce.pinv.dirty-upper: skipped (the CPU "
                   "has no XGETBV with ECX = 1)\n";
      continue;
    }
    cases.push_back(std::move(cs));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e6
              << " us/call (min of " << reps << ")\n";
  }

  for (const char* c :
       {"down_scale.fused", "down_scale.simd-site", "down_scale.tip-inner"}) {
    cases.push_back(fused_kernel_case(c, kernel_iters, reps));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e6
              << " us/call (min of " << reps << ")\n";
  }

  Rng rng(2025);
  const phylo::Tree tree = seqgen::yule_tree(kTaxa, rng, 1.0, 0.2);
  const auto params = seqgen::default_gtr_params();
  Rng data_rng(9001);
  const auto data = make_columns(tree.taxon_names(), kPatterns, data_rng);

  core::SerialBackend serial;
  par::ThreadPool pool(kPoolWorkers);
  core::ThreadedBackend threaded(pool);

  struct RegionRow {
    const char* label;
    double us;
  };
  const std::uint64_t region_iters = quick ? 200 : 1000;
  for (const RegionRow& body :
       {RegionRow{"empty", 0.0}, RegionRow{"20us", 20.0},
        RegionRow{"100us", 100.0}}) {
    for (const RegionRow& gap :
         {RegionRow{"b2b", 0.0}, RegionRow{"gap60", 60.0}}) {
      cases.push_back(par_region_case(pool, body.label, body.us, gap.label,
                                      gap.us, region_iters, reps));
      std::cerr << cases.back().name << ": " << cases.back().min() * 1e6
                << " us/region (min of " << reps << ")\n";
    }
  }

  struct BackendRow {
    core::ExecutionBackend* backend;
    const char* label;
  };
  const BackendRow backends[] = {{&serial, "serial"}, {&threaded, "threaded"}};

  for (const BackendRow& b : backends) {
    core::PerCallBackend percall(*b.backend);
    const BackendRow executors[] = {{&percall, "percall"},
                                    {b.backend, "plan"}};
    for (const BackendRow& x : executors) {
      for (const core::SiteRepeatsMode sr :
           {core::SiteRepeatsMode::kOff, core::SiteRepeatsMode::kOn}) {
        cases.push_back(engine_case(data, tree, params, *x.backend, b.label,
                                    x.label, sr, engine_evals, reps));
        std::cerr << cases.back().name << ": "
                  << cases.back().min() * 1e3 << " ms/eval (min of " << reps
                  << ")\n";
      }
    }
  }

  // CLV-budget sweep: the recompute-vs-memory tradeoff of the budgeted
  // arena, on the serial backend's own plan executor (the least noisy engine
  // path). 1.00 holds every buffer (eager unlimited twin of the row above);
  // shrinking budgets trade resident bytes for rematerialization kernel
  // work. 0.25 requests below the feasibility floor and clamps up to 0.50 —
  // kept in the sweep so the gate notices if the clamp ever stops holding
  // that cost constant.
  struct BudgetRow {
    const char* spec;
    const char* suffix;
  };
  const BudgetRow budgets[] = {{"1.0", ".budget-1.00"},
                               {"0.75", ".budget-0.75"},
                               {"0.5", ".budget-0.50"},
                               {"0.25", ".budget-0.25"}};
  for (const BudgetRow& b : budgets) {
    cases.push_back(engine_case(data, tree, params, serial, "serial", "plan",
                                core::SiteRepeatsMode::kOff, engine_evals,
                                reps, core::clv_budget_from_string(b.spec),
                                b.suffix));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
              << " ms/eval (min of " << reps << ")\n";
  }

  // Multi-instance runtime cases (docs/SHARDING.md): 4-chain MC3 stepping
  // cost on one shared pool.
  const std::uint64_t coupled_gens = quick ? 3 : 10;
  cases.push_back(coupled_case(data, tree, params, coupled_gens, reps));
  std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
            << " ms/gen (min of " << reps << ")\n";
  // Telemetry overhead pair: off vs a full record every generation.
  for (const bool telemetry_on : {false, true}) {
    cases.push_back(
        telemetry_case(data, tree, params, telemetry_on, coupled_gens, reps));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
              << " ms/gen (min of " << reps << ")\n";
  }
  // End-to-end MC3, site repeats off vs the default auto, on the real-data
  // stand-in (seqgen data seed 42: 20 taxa, 28,740 columns, started from the
  // true tree) and on mrbayes_lite's built-in demo data (10 taxa, 1,500
  // simulated columns, seed 1, started from a random tree).
  {
    const seqgen::Dataset real20 = seqgen::make_real_dataset(42);
    const phylo::Tree real20_start = phylo::Tree::from_newick(
        real20.tree.rerooted(0).to_newick(), real20.patterns.names());
    const std::uint64_t e2e_gens = quick ? 10 : 40;
    for (const core::SiteRepeatsMode sr :
         {core::SiteRepeatsMode::kOff, core::SiteRepeatsMode::kAuto}) {
      cases.push_back(e2e_case(
          "mcmc.e2e.real20.sr-" + core::to_string(sr), real20.patterns,
          real20_start, sr, kPoolWorkers, e2e_gens, reps));
      std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
                << " ms/gen (min of " << reps << ")\n";
    }

    // The demo data exactly as `mrbayes_lite` (no input file, seed 1)
    // simulates it.
    Rng demo_rng(1);
    const phylo::Tree demo_tree = seqgen::yule_tree(10, demo_rng, 1.0, 0.12);
    phylo::GtrParams demo_params = seqgen::default_gtr_params();
    demo_params.p_invariant = 0.2;
    const phylo::SubstitutionModel demo_model(demo_params);
    const phylo::Alignment demo_aln =
        seqgen::SequenceEvolver(demo_tree, demo_model).evolve(1500, demo_rng);
    const phylo::PatternMatrix demo = phylo::PatternMatrix::compress(demo_aln);
    Rng start_rng(1 ^ 0xABCDEF);
    const phylo::Tree demo_start = phylo::Tree::from_newick(
        seqgen::yule_tree(10, start_rng, 1.0, 0.1).rerooted(0).to_newick(),
        demo_aln.names());
    const std::uint64_t demo_gens = quick ? 50 : 200;
    for (const core::SiteRepeatsMode sr :
         {core::SiteRepeatsMode::kOff, core::SiteRepeatsMode::kAuto}) {
      cases.push_back(e2e_case("mcmc.e2e.demo.sr-" + core::to_string(sr),
                               demo, demo_start, sr, kPoolWorkers, demo_gens,
                               reps));
      std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
                << " ms/gen (min of " << reps << ")\n";
    }

    // The paper's 50_1K grid cell as perfbench's grid50x1k runs it: 50
    // taxa over 1,000 distinct columns (data seed 42), started from the
    // generating tree, on a 1-thread pool (its ops are too small to split),
    // site repeats at the default.
    const seqgen::Dataset grid = seqgen::make_grid_dataset({50, 1000}, 42);
    const phylo::Tree grid_start = phylo::Tree::from_newick(
        grid.tree.rerooted(0).to_newick(), grid.patterns.names());
    cases.push_back(e2e_case("mcmc.e2e.grid50x1k", grid.patterns, grid_start,
                             core::SiteRepeatsMode::kAuto, 1,
                             quick ? 100 : 400, reps));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
              << " ms/gen (min of " << reps << ")\n";
  }

  // Last: each pool binds its helpers to CPUs round-robin from a process-wide
  // cursor, so the helpers these 1-4 thread pools take would shift the CPUs
  // of every pool a later case creates.
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    cases.push_back(scaling_down_case(threads, kernel_iters, reps));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e6
              << " us/call (min of " << reps << ")\n";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_suite: cannot open " << out_path << "\n";
    return 1;
  }
  write_bench_json(out, cases, git_sha, quick, reps);
  std::cerr << "bench_suite: wrote " << cases.size() << " cases to "
            << out_path << "\n";
  return 0;
}
