// mc3_bench: seconds per generation of Metropolis-coupled MCMC — the loop a
// mrbayes_lite user waits on — with an outside-in trace of the layers below.
//
// Usage: mc3_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// The run mirrors mrbayes_lite's defaults: 4 coupled chains on one
// ThreadedBackend (over a ThreadPool of fixed size, see kWorkloads), GTR+I+G, the
// NNI/eSPR/branch/model move mix, engines built with the library's default
// kernel, dispatch and site-repeat settings. Each workload's alignment is
// fixed; the seed drives the chains' random streams. Set-up (engines +
// coupler, including every chain's first full evaluation) is timed; then a
// fixed warm-up, then passes over one fixed segment of generations, replayed
// from a checkpoint until S seconds have passed. s_per_gen sums each
// window's fastest pass. One seed always computes the same generations, so
// two builds are compared on identical work.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// ones, from (a) the program's own counters and timers over the measured
// windows and (b) spans this file records around direct calls into each
// layer: proposals on the cold engine, the PLF kernels, transition-matrix
// builds, thread-pool regions and one window replayed with telemetry export
// on every generation (which must leave the lnLs bit-identical). --trace-out
// writes those spans as a chrome://tracing JSON file, and the telemetry
// JSONL and status files beside it.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}:
// attempted counts measured generations, failed counts output checks that
// did not hold (lnLs finite and negative, one move per chain per generation,
// moves both accepted and rejected, every pass ending at the same lnLs, the
// incremental cold-chain lnL equal to a fresh evaluation and to the scalar
// reference kernels on the serial backend).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/kernels.hpp"
#include "mcmc/coupled.hpp"
#include "mcmc/proposals.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "par/thread_pool.hpp"
#include "seqgen/datasets.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace {

using namespace plf;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kChains = 4;  // mrbayes_lite default
constexpr int kSetupReps = 3;       // per pass; setup_s is their median
constexpr int kMinPasses = 3;
constexpr double kMoveProbeSeconds = 0.25;  // per proposal probe
constexpr std::uint64_t kSampleEvery = 25;  // mrbayes_lite: gens / 200
constexpr std::uint64_t kDataSeed = 42;     // seqgen's default data seed

struct WorkloadSpec {
  const char* name;
  std::size_t taxa;
  std::size_t patterns;  // 0: the real-data stand-in (weighted patterns)
  std::uint64_t warmup_gens;
  std::uint64_t window_gens;
  std::size_t windows;  // per pass over the measured segment
  std::size_t threads;  // thread-pool size
};

// Sized so one pass takes 1.5-3 s on a quiet 4-thread Xeon, leaving room
// for nine or more passes in 30 s.
//
// The pool size is fixed rather than the hardware default: the static
// schedule splits every region into one block per thread, so the thread
// count changes the reduction order, the lnL bits and with them the chains'
// path. Two threads leave half of a 4-vCPU shared host to other tenants; a
// region waits for its slowest thread, so a pool as wide as the host
// measures the host's scheduler. grid50x1k's 1,000-pattern ops are too
// small to split: over three seeds of 10 s on a 4-vCPU Xeon it took
// 3.76-3.87 ms/gen with 1 thread, 3.99-4.71 with 2 and 4.28-4.43 with 4.
constexpr WorkloadSpec kWorkloads[] = {
    {"real20", 20, 0, 100, 25, 10, 2},
    {"grid20x50k", 20, 50000, 10, 5, 6, 2},
    {"grid50x1k", 50, 1000, 200, 50, 8, 1},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(),
                                       v.begin() +
                                           static_cast<std::ptrdiff_t>(mid)));
}

/// Spans recorded around calls into each layer, kept in memory and written
/// once at exit. A span's parent is the index of the enclosing span (-1 for
/// top level).
class SpanLog {
 public:
  int begin(const char* layer, const char* name, int parent = -1) {
    spans_.push_back({layer, name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Close span `id`; returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  /// Time `fn` `reps` times as child spans of `parent`; returns the
  /// per-call seconds of each.
  template <class F>
  std::vector<double> repeat(const char* layer, const char* name, int parent,
                             int reps, F&& fn) {
    spans_.reserve(spans_.size() + static_cast<std::size_t>(reps));
    std::vector<double> out;
    for (int i = 0; i < reps; ++i) {
      const int id = begin(layer, name, parent);
      fn();
      out.push_back(end(id));
    }
    return out;
  }

  void write_chrome(std::ostream& os) const {
    const Clock::time_point t0 =
        spans_.empty() ? Clock::now() : spans_.front().start;
    auto us = [t0](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name << "\",\"cat\":\""
         << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    os << "]}\n";
  }

 private:
  struct Span {
    const char* layer;
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// Ordered metric list printed as the result's "metrics" object.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  void print(std::ostream& os) const {
    os << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      os << (i == 0 ? "" : ", ") << "\"" << items_[i].name
         << "\": {\"value\": " << buf << ", \"unit\": \"" << items_[i].unit
         << "\"}";
    }
    os << "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// The program's timers read per measured pass (see the per-layer metrics).
constexpr const char* kLayerTimers[] = {"mcmc.generation", "engine.TiProbs",
                                        "engine.ScalerSum",
                                        "engine.RepeatScatter", "plan.execute"};

/// Add every chain's engine work counters to `t`.
void add_stats(core::EngineStats& t, mcmc::CoupledChains& mc3) {
  for (std::size_t i = 0; i < mc3.n_chains(); ++i) {
    const core::EngineStats& s = mc3.engine(i).stats();
    t.pattern_iterations += s.pattern_iterations;
    t.tm_builds += s.tm_builds;
    t.plan_ops += s.plan_ops;
    t.plan_levels += s.plan_levels;
    t.scaler_resums += s.scaler_resums;
    t.repeat_sites_total += s.repeat_sites_total;
    t.repeat_sites_computed += s.repeat_sites_computed;
    t.plf_seconds += s.plf_seconds;
    t.serial_seconds += s.serial_seconds;
    t.repeat_rebuild_seconds += s.repeat_rebuild_seconds;
    t.plan_build_seconds += s.plan_build_seconds;
  }
}

/// Propose-evaluate-reject cycles of one move on `engine` (state restored
/// after each), timed as spans; returns the median cycle in ms.
double probe_move(SpanLog& log, int parent, core::PlfEngine& engine,
                  const mcmc::Proposal& move, Rng& rng, int reps) {
  return 1e3 * median(log.repeat("proposal", move.name(), parent, reps, [&] {
    engine.begin_proposal();
    move.propose(engine, rng);
    engine.log_likelihood();
    engine.reject();
  }));
}

/// Direct PLF kernel calls over the workload's pattern count, on random CLVs
/// with real transition matrices; appends kernel.* metrics.
void probe_kernels(SpanLog& log, int parent, core::PlfEngine& engine,
                   core::ExecutionBackend& backend, std::uint64_t seed,
                   Metrics& out) {
  const std::size_t m = engine.data().n_patterns();
  const std::size_t k = engine.model().n_rate_categories();
  const std::size_t n = m * k * 4;
  aligned_vector<float> left(n), right(n), dst(n), ln_scaler(m);
  Rng rng(seed ^ 0x6B65726EULL);
  for (std::size_t i = 0; i < n; ++i) {
    left[i] = static_cast<float>(rng.uniform(0.05, 1.0));
    right[i] = static_cast<float>(rng.uniform(0.05, 1.0));
  }
  const phylo::TransitionMatrices tm = engine.model().transition_matrices(0.1);
  core::DownArgs down;
  down.left.cl = left.data();
  down.left.p = tm.row_major();
  down.left.pt = tm.col_major();
  down.right = down.left;
  down.right.cl = right.data();
  down.out = dst.data();
  down.K = k;
  core::ScaleArgs scale;
  scale.cl = dst.data();
  scale.ln_scaler = ln_scaler.data();
  scale.K = k;
  const core::KernelSet& ks = core::kernels(engine.variant());

  const int reps = static_cast<int>(std::clamp<std::size_t>(
      20000000 / (m * k), 10, 400));
  const double t_down = median(log.repeat(
      "kernel", "down", parent, reps, [&] { ks.down(down, 0, m); }));
  const double t_down_mt = median(log.repeat(
      "kernel", "down.backend", parent, reps,
      [&] { backend.run_down(ks, down, m); }));
  const double t_scale = median(log.repeat(
      "kernel", "scale", parent, reps, [&] { ks.scale(scale, 0, m); }));
  const double sites = static_cast<double>(m);
  // Computed traffic: two child CLVs read, one parent CLV written.
  const double bytes = 3.0 * static_cast<double>(n) * sizeof(float);
  out.add("kernel.down_msites_per_s", sites / t_down * 1e-6, "Msites/s");
  out.add("kernel.down_gb_per_s", bytes / t_down * 1e-9, "GB/s");
  out.add("kernel.down_gflop_per_s",
          core::down_flops_per_pattern(k) * sites / t_down * 1e-9, "GFLOP/s");
  out.add("kernel.down_backend_msites_per_s", sites / t_down_mt * 1e-6,
          "Msites/s");
  out.add("kernel.scale_msites_per_s", sites / t_scale * 1e-6, "Msites/s");
}

int run(const Args& a) {
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (a.workload == s.name) w = &s;
  }
  if (w == nullptr) {
    std::cerr << "unknown workload '" << a.workload << "'\n";
    return 2;
  }
  SpanLog log;

  // Inputs: the workload's fixed alignment (the paper's inputs are fixed
  // data sets; the simulated pattern count and tree depth vary by a factor
  // of two between data seeds) and the chains' random streams from --seed.
  // Chains start from the generating tree, so the measured generations are
  // the near-stationary bulk of a long run rather than a burn-in whose cost
  // varies by seed.
  const seqgen::Dataset ds =
      w->patterns == 0
          ? seqgen::make_real_dataset(kDataSeed)
          : seqgen::make_grid_dataset({w->taxa, w->patterns}, kDataSeed);
  const phylo::PatternMatrix& data = ds.patterns;
  const std::vector<phylo::Tree> starts(
      kChains,
      phylo::Tree::from_newick(ds.tree.rerooted(0).to_newick(), data.names()));
  phylo::GtrParams params;
  params.p_invariant = 0.1;
  mcmc::CoupledOptions opts;
  opts.chain.seed = a.seed;
  opts.chain.sample_every = kSampleEvery;
  opts.chain.collect_trees = true;
  opts.chain.w_pinv = 0.7;
  opts.chain.w_spr = 1.5;

  par::ThreadPool pool(w->threads);
  core::ThreadedBackend backend(pool);

  // Set-up: engines plus coupler, which evaluates every chain once. Timed
  // kSetupReps times before every pass, so the samples spread over the run.
  std::unique_ptr<mcmc::CoupledChains> mc3;
  std::vector<double> setup_s;
  auto set_up = [&] {
    for (int r = 0; r < kSetupReps; ++r) {
      mc3.reset();
      const int id = log.begin("setup", "engines+coupler");
      std::vector<std::unique_ptr<core::PlfEngine>> engines;
      for (const phylo::Tree& t : starts) {
        engines.push_back(
            std::make_unique<core::PlfEngine>(data, params, t, backend));
      }
      mc3 = std::make_unique<mcmc::CoupledChains>(std::move(engines), opts);
      setup_s.push_back(log.end(id));
    }
  };
  set_up();
  const int warm = log.begin("mc3", "warmup");
  const mcmc::CoupledResult warm_result = mc3->run(w->warmup_gens);
  log.end(warm);

  // Passes over one fixed segment of windows until --seconds have passed.
  // Every pass restores a checkpoint taken after the warm-up (passes after
  // the first into a fresh set-up); restores are bit-exact, so every pass
  // computes the same generations. Other tenants of a shared host slow runs
  // in phases of 1-10 s and by up to 2x; interference only ever adds time,
  // so each window's fastest pass is the estimate of its cost.
  std::stringstream checkpoint;
  mc3->save_checkpoint(checkpoint);
  const std::size_t n_windows = w->windows;
  std::vector<double> best(n_windows, std::numeric_limits<double>::infinity());
  double window_total_s = 0.0;
  int passes = 0;
  int diverged_passes = 0;
  std::vector<double> first_pass_lnls;
  std::vector<double> first_window_lnls;
  mcmc::CoupledResult last;
  // Layer counters over the measured windows only, summed over passes.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  core::EngineStats stats;
  std::map<std::string, double> layer_s;
  double par_regions = 0.0;
  const int measure = log.begin("mc3", "measure");
  const Clock::time_point t0 = Clock::now();
  while (passes < kMinPasses || since(t0) < a.seconds) {
    // The first pass restores into the warmed-up coupler too, so every
    // pass starts with the same lazy work (site repeats re-identify).
    if (passes > 0) set_up();
    checkpoint.clear();
    checkpoint.seekg(0);
    mc3->restore_checkpoint(checkpoint);
    for (std::size_t i = 0; i < mc3->n_chains(); ++i) {
      mc3->engine(i).reset_stats();
    }
    reg.reset();
    const int pass = log.begin("mc3", "pass", measure);
    for (std::size_t k = 0; k < n_windows; ++k) {
      const int id = log.begin("mc3", "window", pass);
      last = mc3->run(w->warmup_gens + (k + 1) * w->window_gens);
      const double t = log.end(id);
      best[k] = std::min(best[k], t);
      window_total_s += t;
      if (passes == 0 && k == 0) first_window_lnls = last.final_ln_likelihoods;
    }
    log.end(pass);
    add_stats(stats, *mc3);
    const obs::Snapshot snap = reg.snapshot();
    for (const char* name : kLayerTimers) {
      layer_s[name] += snap.timer_total_s(name);
    }
    par_regions += static_cast<double>(snap.counter_value("par.regions"));
    if (passes == 0) first_pass_lnls = last.final_ln_likelihoods;
    if (last.final_ln_likelihoods != first_pass_lnls) ++diverged_passes;
    ++passes;
  }
  log.end(measure);
  const std::uint64_t pass_gens = n_windows * w->window_gens;
  double best_total_s = 0.0;
  for (double t : best) best_total_s += t;
  const double s_per_gen = best_total_s / static_cast<double>(pass_gens);
  const std::uint64_t gens = pass_gens * static_cast<std::uint64_t>(passes);
  const double g = static_cast<double>(gens);

  // Output checks.
  int failed = 0;
  auto check = [&failed](bool ok, const char* what) {
    if (!ok) {
      ++failed;
      std::cerr << "check failed: " << what << "\n";
    }
  };
  for (double ll : last.final_ln_likelihoods) {
    check(std::isfinite(ll) && ll < 0.0, "chain lnL finite and negative");
  }
  const std::uint64_t proposed =
      last.cold.total_proposed() - warm_result.cold.total_proposed();
  const std::uint64_t accepted =
      last.cold.total_accepted() - warm_result.cold.total_accepted();
  check(proposed == pass_gens * kChains, "one move per chain per generation");
  check(diverged_passes == 0, "every pass ends at the same chain lnLs");
  check(accepted > 0 && accepted < proposed,
        "moves both accepted and rejected");
  core::PlfEngine& cold = mc3->engine(mc3->cold_index());
  {
    // Fresh evaluations of the final cold state: one like the chain's, one
    // with the scalar reference kernels on the serial backend.
    core::SerialBackend serial;
    const double fresh =
        core::PlfEngine(data, cold.model_params(), cold.tree(), backend)
            .log_likelihood();
    const double reference =
        core::PlfEngine(data, cold.model_params(), cold.tree(), serial,
                        core::KernelVariant::kScalar)
            .log_likelihood();
    const double cached = last.cold.final_ln_likelihood;
    auto close = [](double x, double y, double rel) {
      return std::fabs(x - y) <= rel * std::fabs(y);
    };
    // Same kernels: only the scaler-total summation order may differ.
    check(close(cached, fresh, 1e-12),
          "incremental cold-chain lnL equals a fresh evaluation");
    // Float kernels with another operation order: ~1e-9 observed.
    check(close(reference, fresh, 1e-7),
          "scalar serial reference agrees with the chain's configuration");
  }

  Metrics metrics;
  if (!a.trace) {
    metrics.add("s_per_gen", s_per_gen, "s/gen");
    metrics.add("setup_s", median(setup_s), "s");
  } else {
    auto ms = [g](double seconds) { return 1e3 * seconds / g; };
    auto per_gen_count = [g](std::uint64_t n) {
      return static_cast<double>(n) / g;
    };
    const double step_ms = ms(layer_s["mcmc.generation"]);
    const double kernel_ms = ms(stats.plf_seconds);
    const double serial_ms = ms(stats.serial_seconds);
    const double repeat_ms = ms(stats.repeat_rebuild_seconds);
    metrics.add("mc3.s_per_gen", s_per_gen, "s/gen");
    metrics.add("mc3.gens", g, "count");
    metrics.add("mc3.self_ms_per_gen", ms(window_total_s) - step_ms, "ms/gen");
    metrics.add("mcmc.step_ms_per_gen", step_ms, "ms/gen");
    metrics.add("mcmc.accept_rate",
                static_cast<double>(accepted) / static_cast<double>(proposed),
                "ratio");
    metrics.add("mcmc.unattributed_ms_per_gen",
                step_ms - kernel_ms - serial_ms - repeat_ms, "ms/gen");
    metrics.add("engine.kernel_ms_per_gen", kernel_ms, "ms/gen");
    metrics.add("engine.serial_ms_per_gen", serial_ms, "ms/gen");
    metrics.add("engine.repeat_identify_ms_per_gen", repeat_ms, "ms/gen");
    metrics.add("engine.tiprobs_ms_per_gen", ms(layer_s["engine.TiProbs"]),
                "ms/gen");
    metrics.add("engine.scaler_sum_ms_per_gen",
                ms(layer_s["engine.ScalerSum"]), "ms/gen");
    metrics.add("engine.repeat_scatter_ms_per_gen",
                ms(layer_s["engine.RepeatScatter"]), "ms/gen");
    metrics.add("engine.plan_build_ms_per_gen", ms(stats.plan_build_seconds),
                "ms/gen");
    metrics.add("plan.execute_ms_per_gen", ms(layer_s["plan.execute"]),
                "ms/gen");
    metrics.add("engine.sites_per_gen", per_gen_count(stats.pattern_iterations),
                "sites/gen");
    metrics.add("engine.tm_builds_per_gen", per_gen_count(stats.tm_builds),
                "count/gen");
    metrics.add("engine.scaler_resums_per_gen",
                per_gen_count(stats.scaler_resums), "count/gen");
    metrics.add("engine.repeat_compression",
                stats.repeat_sites_computed == 0
                    ? 1.0
                    : static_cast<double>(stats.repeat_sites_total) /
                          static_cast<double>(stats.repeat_sites_computed),
                "ratio");
    metrics.add("plan.ops_per_gen", per_gen_count(stats.plan_ops), "count/gen");
    metrics.add("plan.levels_per_gen", per_gen_count(stats.plan_levels),
                "count/gen");
    metrics.add("par.regions_per_gen", par_regions / g, "count/gen");

    // Outside-in probes, one layer at a time, on the cold chain's state.
    const int probes = log.begin("probe", "layers");
    Rng prng(a.seed ^ 0x70726F62ULL);
    const mcmc::ProposalTuning tuning;
    const double move_s = s_per_gen / static_cast<double>(kChains);
    const int move_reps =
        static_cast<int>(std::clamp(kMoveProbeSeconds / move_s, 8.0, 200.0));
    metrics.add("proposal.branch_ms",
                probe_move(log, probes, cold,
                           mcmc::BranchLengthMultiplier(tuning), prng,
                           move_reps),
                "ms");
    metrics.add("proposal.nni_ms",
                probe_move(log, probes, cold, mcmc::NniMove(tuning), prng,
                           move_reps),
                "ms");
    metrics.add("proposal.spr_ms",
                probe_move(log, probes, cold, mcmc::SprMove(tuning), prng,
                           move_reps),
                "ms");
    metrics.add("proposal.model_ms",
                probe_move(log, probes, cold,
                           mcmc::GammaShapeMultiplier(tuning), prng,
                           move_reps),
                "ms");
    probe_kernels(log, probes, cold, backend, a.seed, metrics);
    double t = 0.01;
    const std::vector<double> tiprobs =
        log.repeat("model", "transition_matrices", probes, 2000, [&] {
          t = t < 0.5 ? t * 1.01 : 0.01;
          const phylo::TransitionMatrices m =
              cold.model().transition_matrices(t);
          if (m.row_major()[0] < 0.0f) std::abort();
        });
    metrics.add("model.tiprobs_us", 1e6 * median(tiprobs), "us");
    const std::vector<double> regions =
        log.repeat("par", "parallel_for", probes, 2000, [&] {
          pool.parallel_for(0, pool.size(), [](par::Range, std::size_t) {});
        });
    metrics.add("par.region_us", 1e6 * median(regions), "us");

    // Telemetry: the coupler's own export path, one plf-telemetry-v1 record
    // per generation (JSONL append plus atomic status rewrite, with the
    // metrics snapshot embedded, as mrbayes_lite --telemetry writes them),
    // over the first measured window replayed on a fresh set-up. Telemetry
    // only reads chain state, so the window must end at the same lnLs.
    obs::TelemetryOptions topts;
    if (!a.trace_out.empty()) {
      topts.jsonl_path = a.trace_out + ".telemetry.jsonl";
      topts.status_path = a.trace_out + ".status.json";
      std::remove(topts.jsonl_path.c_str());
    }
    topts.every_generations = 1;
    obs::TelemetryExporter exporter(topts, &reg);
    mcmc::CoupledOptions telemetry_opts = opts;
    telemetry_opts.telemetry = &exporter;
    std::vector<std::unique_ptr<core::PlfEngine>> engines;
    for (const phylo::Tree& t : starts) {
      engines.push_back(
          std::make_unique<core::PlfEngine>(data, params, t, backend));
    }
    mcmc::CoupledChains telemetry_mc3(std::move(engines), telemetry_opts);
    checkpoint.clear();
    checkpoint.seekg(0);
    telemetry_mc3.restore_checkpoint(checkpoint);
    reg.reset();
    const int tid = log.begin("telemetry", "window", probes);
    const mcmc::CoupledResult traced =
        telemetry_mc3.run(w->warmup_gens + w->window_gens);
    log.end(tid);
    check(traced.final_ln_likelihoods == first_window_lnls,
          "telemetry leaves the chains' lnLs bit-identical");
    const obs::Snapshot tsnap = reg.snapshot();
    const double records = static_cast<double>(
        tsnap.counter_value(obs::kCounterTelemetryRecords));
    check(records == static_cast<double>(w->window_gens),
          "one telemetry record per generation");
    metrics.add("telemetry.export_us",
                1e6 * tsnap.timer_total_s(obs::kTimerTelemetryExport) /
                    std::max(records, 1.0),
                "us");
    double jsonl_bytes = 0.0;
    if (!topts.jsonl_path.empty()) {
      std::ifstream f(topts.jsonl_path, std::ios::binary | std::ios::ate);
      jsonl_bytes = static_cast<double>(f.tellg());
    }
    metrics.add("telemetry.record_bytes", jsonl_bytes / std::max(records, 1.0),
                "bytes");
    log.end(probes);
  }

  if (!a.trace_out.empty()) {
    std::ofstream f(a.trace_out);
    log.write_chrome(f);
    check(static_cast<bool>(f), "trace file written");
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << gens << ", \"failed\": " << failed
            << ", \"metrics\": ";
  metrics.print(std::cout);
  std::cout << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (!have_workload || argc % 2 != 1) {
    std::cerr << "usage: mc3_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
