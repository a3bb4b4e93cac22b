// Unified bench suite: one binary that runs the whole perf matrix and emits
// the schema-versioned BENCH_<date>.json the regression gate consumes.
//
// Two families of cases:
//
//   kernel.<op>.<variant>       raw per-call kernel time at the paper's
//                               8,543-pattern width, for scalar / simd-row /
//                               simd-col (the approach (i)/(ii) distinction)
//   engine.<backend>.<dispatch>.<sr>
//                               seconds per likelihood evaluation under a
//                               branch-move loop, over {serial,threaded} ×
//                               {percall,plan} × site repeats {off,on}
//   mcmc.e2e.real20.<sr>        seconds per generation of 4-chain MC3 with
//                               the full move mix on the real-data
//                               stand-in, site repeats {off,auto}
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
#include "exec/partitioned.hpp"
#include "exec/scheduler.hpp"
#include "mcmc/coupled.hpp"
#include "obs/exporter.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "phylo/alignment.hpp"
#include "phylo/model.hpp"
#include "phylo/partition.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/aligned.hpp"
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
// kernel cases (operand fixture mirrors bench_kernels.cpp)

struct Operands {
  std::size_t m, K;
  phylo::TransitionMatrices tm_l, tm_r;
  aligned_vector<float> cl_l, cl_r, out;
  aligned_vector<float> ln_scaler;
  aligned_vector<double> scaler_total;
  aligned_vector<std::uint32_t> weights;
  std::vector<phylo::StateMask> mask_l, mask_r;
  core::TipPartial tp_l, tp_r;
  core::TipPairTable pair;

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
    scaler_total.assign(m, -0.5);
    weights.assign(m, 1);
    // Tip operands: realistic mask mix (mostly resolved bases, ~10%
    // ambiguity codes) and the per-branch / per-pair lookup tables the
    // engine would have staged for a cherry.
    mask_l.resize(m);
    mask_r.resize(m);
    for (auto* masks : {&mask_l, &mask_r}) {
      for (auto& x : *masks) {
        x = rng.uniform() < 0.1
                ? static_cast<phylo::StateMask>(1 + rng.below(15))
                : phylo::state_to_mask(rng.below(4));
      }
    }
    tp_l = core::TipPartial(tm_l);
    tp_r = core::TipPartial(tm_r);
    pair = core::TipPairTable(tp_l, tp_r);
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

  core::TipTipArgs down_tip_tip() {
    core::TipTipArgs a;
    a.left_mask = mask_l.data();
    a.right_mask = mask_r.data();
    a.pair = pair.raw();
    a.pair_scaled = pair.scaled();
    a.pair_ln = pair.ln_factors();
    a.out = out.data();
    a.K = K;
    a.table_categories = pair.n_categories();
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
  reduce_args.ln_scaler_total = op.scaler_total.data();
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

/// Tip-specialized and fused kernel cases (docs/KERNELS.md), all on the
/// production simd-col entries where a variant matters; the tip×tip gather is
/// variant-independent. Case names:
///   kernel.down.tip-inner    tip-partial row instead of the left matvec
///   kernel.down.tip-tip      per-pair table gather (cherry nodes)
///   kernel.down_scale.fused  single-pass down + rescale over one CLV sweep
CaseStat tip_kernel_case(const std::string& case_name, std::uint64_t iters,
                         int reps) {
  Operands op(kPatterns);
  const auto& ks = core::kernels(core::KernelVariant::kSimdCol);
  const auto ti_args = op.down_tip_inner();
  const auto tt_args = op.down_tip_tip();
  const auto fused_down = op.down();
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
      if (case_name == "down.tip-tip") {
        ks.down_tt(tt_args, 0, op.m);
      } else if (case_name == "down.tip-inner") {
        ks.down_ti(ti_args, 0, op.m);
      } else {
        ks.down_scale(fused_down, fused_scale, 0, op.m);
      }
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
                     const char* backend_label, core::DispatchMode dispatch,
                     core::SiteRepeatsMode repeats, std::uint64_t evals,
                     int reps, core::ClvBudget budget = core::ClvBudget{},
                     const char* name_suffix = "") {
  CaseStat cs;
  cs.name = std::string("engine.") + backend_label + "." +
            (dispatch == core::DispatchMode::kPlan ? "plan" : "percall") +
            "." +
            (repeats == core::SiteRepeatsMode::kOn ? "sr-on" : "sr-off") +
            name_suffix;
  cs.unit = "s/eval";
  cs.iters = evals;
  // Engine paths cross parallel regions and allocators; they are noisier
  // than a tight kernel loop, more so on the threaded backend.
  cs.threshold = std::string(backend_label) == "threaded" ? 0.40 : 0.25;

  core::PlfEngine engine(data, params, tree, backend,
                         core::KernelVariant::kSimdCol, repeats, dispatch,
                         budget);
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

/// 4-chain MC3 stepping cost. per-pool: each chain's engine submits to its
/// own 2-worker pool and the chains step sequentially (the pre-runtime
/// shape). shared-pool: all four engines share ONE 2-worker pool and step
/// concurrently through the InstanceScheduler. On a single hardware thread
/// both are honest serializations; the pair of cases exists so the gate
/// tracks the scheduler's overhead against the sequential baseline.
CaseStat coupled_case(const phylo::PatternMatrix& data,
                      const phylo::Tree& tree,
                      const phylo::GtrParams& params, bool shared_pool,
                      std::uint64_t gens, int reps) {
  CaseStat cs;
  cs.name = shared_pool ? "coupled.4chain.shared-pool"
                        : "coupled.4chain.per-pool";
  cs.unit = "s/gen";
  cs.iters = gens;
  cs.threshold = 0.40;

  constexpr std::size_t kChains = 4;
  std::vector<std::unique_ptr<par::ThreadPool>> pools;
  std::vector<std::unique_ptr<core::ThreadedBackend>> backends;
  const std::size_t n_pools = shared_pool ? 1 : kChains;
  for (std::size_t i = 0; i < n_pools; ++i) {
    pools.push_back(std::make_unique<par::ThreadPool>(kPoolWorkers));
    backends.push_back(std::make_unique<core::ThreadedBackend>(*pools[i]));
  }
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < kChains; ++i) {
    engines.push_back(std::make_unique<core::PlfEngine>(
        data, params, tree, *backends[shared_pool ? 0 : i]));
  }
  mcmc::CoupledOptions opts;
  opts.chain.seed = 4242;
  std::unique_ptr<exec::InstanceScheduler> sched;
  if (shared_pool) sched = std::make_unique<exec::InstanceScheduler>(kChains);
  mcmc::CoupledChains mc3(std::move(engines), opts, sched.get());

  std::uint64_t target = 5;  // warm-up: plans, pair tables, driver rebind
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

/// Telemetry overhead (docs/OBSERVABILITY.md): the same sequential 4-chain
/// MC3 stepping loop with live telemetry off vs exporting a full record —
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

  std::uint64_t target = 5;  // warm-up: plans, pair tables, first record
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

/// End-to-end MC3 on the real-data stand-in (seqgen data seed 42: 20 taxa,
/// 28,740 columns): s/gen of mrbayes_lite's default run — 4 coupled chains
/// on one 2-worker threaded pool, GTR+I+G, the NNI/eSPR/branch/model move
/// mix — with only the site-repeats mode varied. Unlike the engine.* cases,
/// which move branch lengths only, these exercise topology moves and hence
/// repeat identification.
CaseStat e2e_case(const seqgen::Dataset& ds, core::SiteRepeatsMode repeats,
                  std::uint64_t gens, int reps) {
  CaseStat cs;
  cs.name = std::string("mcmc.e2e.real20.sr-") + core::to_string(repeats);
  cs.unit = "s/gen";
  cs.iters = gens;
  cs.threshold = 0.40;

  constexpr std::size_t kChains = 4;
  const phylo::Tree start = phylo::Tree::from_newick(
      ds.tree.rerooted(0).to_newick(), ds.patterns.names());
  phylo::GtrParams params;
  params.p_invariant = 0.1;
  par::ThreadPool pool(kPoolWorkers);
  core::ThreadedBackend backend(pool);
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < kChains; ++i) {
    engines.push_back(std::make_unique<core::PlfEngine>(
        ds.patterns, params, start, backend, core::KernelVariant::kSimdCol,
        repeats));
  }
  mcmc::CoupledOptions opts;
  opts.chain.seed = 4545;
  opts.chain.w_pinv = 0.7;
  opts.chain.w_spr = 1.5;
  mcmc::CoupledChains mc3(std::move(engines), opts);

  std::uint64_t target = 5;  // warm-up: plans, pair tables, first classes
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

/// Partitioned model: 4 uniform partitions of one alignment, each with its
/// own engine, summed per-evaluation through the shared-pool scheduler.
CaseStat partitioned_case(const phylo::Alignment& aln,
                          const phylo::Tree& tree,
                          const phylo::GtrParams& params, std::uint64_t evals,
                          int reps) {
  CaseStat cs;
  cs.name = "partitioned.4part";
  cs.unit = "s/eval";
  cs.iters = evals;
  cs.threshold = 0.40;

  par::ThreadPool pool(kPoolWorkers);
  core::ThreadedBackend backend(pool);
  exec::InstanceScheduler sched(4);
  const auto spec = phylo::PartitionSpec::uniform(aln.n_columns(), 4);
  exec::PartitionedEngine pe(aln, spec, {params}, tree, backend,
                             exec::PartitionedConfig{}, &sched);
  pe.log_likelihood();  // warm-up
  const int n_leaves = static_cast<int>(aln.n_taxa());
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < evals; ++i) {
      pe.set_branch_length(
          pe.tree().leaf_of(static_cast<int>(i) % n_leaves),
          0.05 + 0.001 * static_cast<double>(i % 7));
      pe.log_likelihood();
    }
    const double t1 = now_s();
    cs.values.push_back((t1 - t0) / static_cast<double>(evals));
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

  for (const char* c : {"down.tip-tip", "down.tip-inner", "down_scale.fused"}) {
    cases.push_back(tip_kernel_case(c, kernel_iters, reps));
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
  struct BackendRow {
    core::ExecutionBackend* backend;
    const char* label;
  };
  const BackendRow backends[] = {{&serial, "serial"}, {&threaded, "threaded"}};

  for (const BackendRow& b : backends) {
    for (const core::DispatchMode dispatch :
         {core::DispatchMode::kPerCall, core::DispatchMode::kPlan}) {
      for (const core::SiteRepeatsMode sr :
           {core::SiteRepeatsMode::kOff, core::SiteRepeatsMode::kOn}) {
        cases.push_back(engine_case(data, tree, params, *b.backend, b.label,
                                    dispatch, sr, engine_evals, reps));
        std::cerr << cases.back().name << ": "
                  << cases.back().min() * 1e3 << " ms/eval (min of " << reps
                  << ")\n";
      }
    }
  }

  // CLV-budget sweep: the recompute-vs-memory tradeoff of the budgeted
  // arena, serial plan dispatch (the least noisy engine path). 1.00 holds
  // every buffer (eager unlimited twin of the row above); shrinking budgets
  // trade resident bytes for rematerialization kernel work. 0.25 requests
  // below the feasibility floor and clamps up to 0.50 — kept in the sweep so
  // the gate notices if the clamp ever stops holding that cost constant.
  struct BudgetRow {
    const char* spec;
    const char* suffix;
  };
  const BudgetRow budgets[] = {{"1.0", ".budget-1.00"},
                               {"0.75", ".budget-0.75"},
                               {"0.5", ".budget-0.50"},
                               {"0.25", ".budget-0.25"}};
  for (const BudgetRow& b : budgets) {
    cases.push_back(engine_case(data, tree, params, serial, "serial",
                                core::DispatchMode::kPlan,
                                core::SiteRepeatsMode::kOff, engine_evals,
                                reps, core::clv_budget_from_string(b.spec),
                                b.suffix));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
              << " ms/eval (min of " << reps << ")\n";
  }

  // Multi-instance runtime cases (docs/SHARDING.md): 4-chain MC3 stepping
  // cost sequential-per-pool vs shared-pool-scheduled, and a 4-partition
  // model batched through the scheduler.
  const std::uint64_t coupled_gens = quick ? 3 : 10;
  for (const bool shared : {false, true}) {
    cases.push_back(
        coupled_case(data, tree, params, shared, coupled_gens, reps));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
              << " ms/gen (min of " << reps << ")\n";
  }
  // Telemetry overhead pair: off vs a full record every generation.
  for (const bool telemetry_on : {false, true}) {
    cases.push_back(
        telemetry_case(data, tree, params, telemetry_on, coupled_gens, reps));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
              << " ms/gen (min of " << reps << ")\n";
  }
  // End-to-end MC3 on the real-data stand-in, site repeats off vs the
  // default auto.
  {
    const seqgen::Dataset real20 = seqgen::make_real_dataset(42);
    const std::uint64_t e2e_gens = quick ? 10 : 40;
    for (const core::SiteRepeatsMode sr :
         {core::SiteRepeatsMode::kOff, core::SiteRepeatsMode::kAuto}) {
      cases.push_back(e2e_case(real20, sr, e2e_gens, reps));
      std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
                << " ms/gen (min of " << reps << ")\n";
    }
  }
  {
    phylo::SubstitutionModel model(params);
    seqgen::SequenceEvolver ev(tree, model);
    Rng aln_rng(777);
    const phylo::Alignment aln = ev.evolve(quick ? 400 : 2000, aln_rng);
    cases.push_back(partitioned_case(aln, tree, params, engine_evals, reps));
    std::cerr << cases.back().name << ": " << cases.back().min() * 1e3
              << " ms/eval (min of " << reps << ")\n";
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
