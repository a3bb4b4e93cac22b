// mrbayes_lite: a miniature MrBayes. Reads a NEXUS (or FASTA/PHYLIP) file,
// runs Metropolis-coupled MCMC under GTR+I+Γ with the fine-grain parallel
// PLF on the threaded backend, and reports the posterior: trace diagnostics
// (ESS), split frequencies, and a majority-rule consensus tree with support
// values. With no input file it demonstrates itself on simulated data.
// --clv-budget caps per-engine CLV memory (e.g. 64M, 1048576, or a fraction
// like 0.5 of the unbudgeted footprint); evicted vectors are recomputed on
// demand, bit-identically.
//
// Usage: see kUsage below (`mrbayes_lite --help` prints it; an unknown
// --option prints it to stderr and exits 2).
//
// --telemetry streams one plf-telemetry-v1 JSONL record (gen, lnL, streaming
// ESS, R-hat, acceptance + swap rates, metrics snapshot) every
// --telemetry-every generations (default 100) to FILE (default
// plf_telemetry.jsonl); --status-file additionally maintains an atomic
// latest-status JSON that tools/plf_status renders live. With --resume the
// telemetry file is truncated to the checkpoint's generation and the
// continuation appends bit-consistently. --stop-at-ess=N ends the run early
// once the cold chain's streaming lnL ESS reaches N (docs/OBSERVABILITY.md).
//
// The chains step concurrently, each on its own thread, over one shared
// ThreadPool (docs/SHARDING.md).
// --checkpoint-every=N writes a versioned checkpoint every N generations to
// the --checkpoint path (default mrbayes_lite.ckpt); --resume=FILE restores
// it and continues to the requested generation total, reproducing the
// uninterrupted run's trajectory to the last bit (docs/SHARDING.md).
// --partitions demos the partitioned likelihood: the starting state's lnL is
// decomposed over N uniform column ranges (or an explicit
// "name:first-last,..." spec), each evaluated by an engine of its own on this
// thread, one after another.
//
// --profile enables span tracing, prints the paper-style (Fig. 12) time
// breakdown after the run, and writes a chrome://tracing / Perfetto-loadable
// trace to FILE (default plf_trace.json). --metrics-json dumps the full
// metrics snapshot (counters, gauges, timer stats) as JSON to FILE (default
// plf_metrics.json).
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/chain.hpp"
#include "mcmc/consensus.hpp"
#include "mcmc/coupled.hpp"
#include "mcmc/diagnostics.hpp"
#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "phylo/nexus.hpp"
#include "phylo/partition.hpp"
#include "util/error.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/table.hpp"

namespace {

plf::phylo::Alignment load_or_simulate(const char* path, std::uint64_t seed) {
  using namespace plf;
  if (path != nullptr) {
    const std::string p = path;
    if (p.size() > 4 && (p.substr(p.size() - 4) == ".nex" ||
                         p.substr(p.size() - 4) == ".nxs")) {
      const auto nx = phylo::read_nexus_file(p);
      if (!nx.has_alignment) {
        throw plf::Error("NEXUS file has no DATA block: " + p);
      }
      return nx.alignment;
    }
    return phylo::Alignment::read_file(p);
  }
  // Demo mode: simulate 10 taxa under GTR+I+Gamma.
  std::cout << "(no input file: simulating a 10-taxon GTR+I+G data set)\n";
  Rng rng(seed);
  const phylo::Tree tree = seqgen::yule_tree(10, rng, 1.0, 0.12);
  auto params = seqgen::default_gtr_params();
  params.p_invariant = 0.2;
  const phylo::SubstitutionModel model(params);
  const seqgen::SequenceEvolver ev(tree, model);
  return ev.evolve(1500, rng);
}

constexpr const char* kUsage =
    "usage: mrbayes_lite [--site-repeats=on|off|auto] [--clv-budget=BYTES|FRACTION]\n"
    "                    [--profile[=FILE]] [--metrics-json[=FILE]]\n"
    "                    [--checkpoint-every=N] [--checkpoint=FILE]\n"
    "                    [--resume=FILE] [--partitions=N|SPEC]\n"
    "                    [--telemetry[=FILE]] [--telemetry-every=N]\n"
    "                    [--status-file=FILE] [--stop-at-ess=N]\n"
    "                    [alignment-file] [generations] [chains] [seed]\n";

// Numeric arguments must be a number and nothing else: "5k", "2O" and "-5"
// are refused rather than read as 5, 2 and 2^64-5.
bool parse_count(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_nonnegative(std::string_view text, double& out) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) || value < 0.0) {
    return false;
  }
  out = value;
  return true;
}

int bad_number(std::string_view arg) {
  std::cerr << "mrbayes_lite: malformed number in '" << arg << "'\n" << kUsage;
  return 2;
}

}  // namespace

int run_main(int argc, char** argv) {
  using namespace plf;

  core::SiteRepeatsMode repeats = core::SiteRepeatsMode::kAuto;
  core::ClvBudget clv_budget;  // default: unlimited
  std::string profile_path;   // empty: profiling report/trace off
  std::string metrics_path;   // empty: metrics JSON off
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path = "mrbayes_lite.ckpt";
  std::string resume_path;          // empty: fresh run
  std::string partitions_spec;      // empty: unpartitioned
  std::uint64_t n_parts = 0;        // --partitions=N (a spec without ':')
  std::string telemetry_path;       // empty: no JSONL telemetry
  std::string status_path;          // empty: no latest-status file
  std::uint64_t telemetry_every = 100;
  double stop_at_ess = 0.0;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kRepeatsFlag = "--site-repeats=";
    const std::string arg = argv[i];
    if (std::strncmp(argv[i], kRepeatsFlag, std::strlen(kRepeatsFlag)) == 0) {
      repeats = core::site_repeats_mode_from_string(
          argv[i] + std::strlen(kRepeatsFlag));
    } else if (arg.rfind("--clv-budget=", 0) == 0) {
      clv_budget = core::clv_budget_from_string(
          arg.substr(std::strlen("--clv-budget=")));
    } else if (arg == "--profile") {
      profile_path = "plf_trace.json";
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_path = arg.substr(std::strlen("--profile="));
    } else if (arg == "--metrics-json") {
      metrics_path = "plf_metrics.json";
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics-json="));
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      if (!parse_count(arg.substr(std::strlen("--checkpoint-every=")),
                       checkpoint_every)) {
        return bad_number(arg);
      }
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      checkpoint_path = arg.substr(std::strlen("--checkpoint="));
    } else if (arg.rfind("--resume=", 0) == 0) {
      resume_path = arg.substr(std::strlen("--resume="));
    } else if (arg.rfind("--partitions=", 0) == 0) {
      partitions_spec = arg.substr(std::strlen("--partitions="));
      if (partitions_spec.find(':') == std::string::npos &&
          !parse_count(partitions_spec, n_parts)) {
        return bad_number(arg);
      }
    } else if (arg == "--telemetry") {
      telemetry_path = "plf_telemetry.jsonl";
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_path = arg.substr(std::strlen("--telemetry="));
    } else if (arg.rfind("--telemetry-every=", 0) == 0) {
      if (!parse_count(arg.substr(std::strlen("--telemetry-every=")),
                       telemetry_every)) {
        return bad_number(arg);
      }
    } else if (arg.rfind("--status-file=", 0) == 0) {
      status_path = arg.substr(std::strlen("--status-file="));
    } else if (arg.rfind("--stop-at-ess=", 0) == 0) {
      if (!parse_nonnegative(arg.substr(std::strlen("--stop-at-ess=")),
                             stop_at_ess)) {
        return bad_number(arg);
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "mrbayes_lite: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (!profile_path.empty()) {
    obs::MetricsRegistry::global().enable_tracing(true);
  }
  const char* path = (!pos.empty() && pos[0][0] != '\0') ? pos[0] : nullptr;
  std::uint64_t gens = 5000;
  std::uint64_t n_chains = 4;
  std::uint64_t seed = 1;
  if (pos.size() > 1 && !parse_count(pos[1], gens)) return bad_number(pos[1]);
  if (pos.size() > 2 && !parse_count(pos[2], n_chains)) return bad_number(pos[2]);
  if (pos.size() > 3 && !parse_count(pos[3], seed)) return bad_number(pos[3]);

  std::cout << "== mrbayes_lite ==\n";
  const phylo::Alignment aln = load_or_simulate(path, seed);
  const auto data = phylo::PatternMatrix::compress(aln);
  std::cout << "data: " << aln.n_taxa() << " taxa, " << aln.n_columns()
            << " columns, " << data.n_patterns() << " distinct patterns\n";
  std::cout << "run: " << gens << " generations, " << n_chains
            << " coupled chains (1 cold + " << (n_chains - 1)
            << " heated), GTR+I+G, seed " << seed << ", site repeats "
            << core::to_string(repeats) << ", clv budget "
            << core::to_string(clv_budget) << "\n\n";

  // Starting state: a random tree, default model with +I enabled.
  Rng rng(seed ^ 0xABCDEF);
  phylo::GtrParams start_params;
  start_params.p_invariant = 0.1;
  par::ThreadPool pool;
  core::ThreadedBackend backend(pool);

  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < n_chains; ++i) {
    phylo::Tree start =
        seqgen::yule_tree(aln.n_taxa(), rng, 1.0, 0.1)
            .rerooted(0);
    // Engines must share taxon naming with the data.
    start = phylo::Tree::from_newick(start.to_newick(), aln.names());
    engines.push_back(std::make_unique<core::PlfEngine>(
        data, start_params, start, backend, core::KernelVariant::kSimdSite,
        repeats, clv_budget));
  }

  if (!partitions_spec.empty()) {
    // Partitioned-likelihood demo on the starting state: the same data split
    // into per-range engines whose lnLs sum, in partition order, to the
    // joint lnL. Each engine is built, evaluated and dropped in turn.
    const bool numeric = partitions_spec.find(':') == std::string::npos;
    const phylo::PartitionSpec spec =
        numeric ? phylo::PartitionSpec::uniform(aln.n_columns(), n_parts)
                : phylo::PartitionSpec::parse(partitions_spec,
                                              aln.n_columns());
    const std::vector<phylo::Alignment> parts = spec.split(aln);
    std::cout << "partitioned lnL at the starting state ("
              << spec.n_parts() << " parts):\n";
    double total = 0.0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const double lnl =
          core::PlfEngine(phylo::PatternMatrix::compress(parts[i]),
                          start_params, engines.front()->tree(), backend,
                          core::KernelVariant::kSimdSite, repeats, clv_budget)
              .log_likelihood();
      total += lnl;
      std::cout << "  " << spec.range(i).name << " [" << spec.range(i).begin
                << ", " << spec.range(i).end << "): " << lnl << "\n";
    }
    std::cout << "  total: " << total << "\n\n";
  }

  mcmc::CoupledOptions opts;
  opts.chain.seed = seed;
  opts.chain.sample_every = std::max<std::uint64_t>(1, gens / 200);
  opts.chain.collect_trees = true;
  opts.chain.w_pinv = 0.7;  // +I is part of the model
  opts.chain.w_spr = 1.5;   // eSPR improves topology mixing
  opts.checkpoint_every = checkpoint_every;
  opts.checkpoint_path = checkpoint_path;
  opts.stop_at_ess = stop_at_ess;
  std::unique_ptr<obs::TelemetryExporter> telemetry;
  if (!telemetry_path.empty() || !status_path.empty()) {
    obs::TelemetryOptions topts;
    topts.jsonl_path = telemetry_path;
    topts.status_path = status_path;
    topts.every_generations = telemetry_every;
    telemetry = std::make_unique<obs::TelemetryExporter>(
        topts, &obs::MetricsRegistry::global());
    opts.telemetry = telemetry.get();
    std::cout << "telemetry: every " << telemetry_every << " generations";
    if (!telemetry_path.empty()) std::cout << " -> " << telemetry_path;
    if (!status_path.empty()) std::cout << ", status " << status_path;
    std::cout << "\n";
  }
  mcmc::CoupledChains mc3(std::move(engines), opts);
  if (!resume_path.empty()) {
    mc3.restore_checkpoint_file(resume_path);
    std::cout << "resumed from " << resume_path << " at generation "
              << mc3.generation() << "\n\n";
    // Drop any telemetry tail a crashed run wrote past this checkpoint, so
    // the continuation appends with strictly monotone generations.
    if (telemetry != nullptr) telemetry->prepare_resume(mc3.generation());
  }
  const auto result = mc3.run(gens);
  if (result.stopped_at_ess) {
    std::cout << "stopped early at generation " << mc3.generation()
              << ": streaming lnL ESS " << Table::num(mc3.cold_ess().ess(), 1)
              << " reached --stop-at-ess=" << stop_at_ess << "\n";
  }
  if (telemetry != nullptr) {
    std::cout << "telemetry: " << telemetry->records_written()
              << " records (last generation " << telemetry->last_generation()
              << ")\n";
  }

  std::cout << "cold chain: lnL " << result.cold.samples.front().ln_likelihood
            << " -> " << result.cold.final_ln_likelihood << " (best "
            << result.cold.best_ln_likelihood << ")\n";
  std::cout << "swaps: " << result.swaps_accepted << "/"
            << result.swaps_proposed << " accepted ("
            << Table::num(100.0 * result.swap_rate(), 1) << "%)\n";
  std::cout << "wall: " << Table::num(result.cold.wall_seconds, 2) << " s\n\n";

  // Diagnostics on the post-burn-in lnL trace.
  const std::size_t burn = result.cold.samples.size() / 4;
  std::vector<double> trace;
  for (std::size_t i = burn; i < result.cold.samples.size(); ++i) {
    trace.push_back(result.cold.samples[i].ln_likelihood);
  }
  if (trace.size() >= 2) {
    const auto s = mcmc::summarize_trace(trace);
    std::cout << "lnL trace (post burn-in): mean "
              << Table::num(s.mean, 2) << ", ESS " << Table::num(s.ess, 1)
              << " of " << s.n << " samples (autocorrelation time "
              << Table::num(s.autocorrelation_time, 1) << ")\n\n";
  }

  // Posterior tree summary.
  mcmc::TreeSampleSummary summary;
  for (std::size_t i = burn; i < result.cold.sampled_trees.size(); ++i) {
    summary.add_newick(result.cold.sampled_trees[i]);
  }
  Table splits("split frequencies (top 8)");
  splits.header({"frequency", "clade"});
  int shown = 0;
  for (const auto& f : summary.split_frequencies()) {
    if (++shown > 8) break;
    std::string clade;
    for (int t : f.taxa) {
      if (!clade.empty()) clade += ' ';
      clade += summary.taxon_names()[static_cast<std::size_t>(t)];
    }
    splits.row({Table::num(f.frequency, 3), clade});
  }
  std::cout << splits << "\n";
  std::cout << "majority-rule consensus:\n  " << summary.majority_rule_newick()
            << "\n";
  std::cout << "estimated p_invariant (final cold state): "
            << Table::num(
                   mc3.engine(mc3.cold_index()).model_params().p_invariant, 3)
            << "\n";
  const auto& cold_stats = mc3.engine(mc3.cold_index()).stats();
  if (cold_stats.repeat_sites_computed > 0) {
    std::cout << "site repeats: " << Table::num(
                     cold_stats.repeat_compression_ratio(), 2)
              << "x compression on compacted kernel calls ("
              << Table::num(100.0 * cold_stats.down_repeat_hit_rate(), 1)
              << "% of CondLikeDown calls)\n";
  }

  if (!profile_path.empty() || !metrics_path.empty()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    mc3.engine(mc3.cold_index()).publish_stats(reg);
    const obs::Snapshot snap = reg.snapshot();
    if (!profile_path.empty()) {
      // The kernel timers sum over every chain's thread, so normalize against
      // the chains' summed generation time (chain-seconds), not wall time:
      // with the chains overlapping, PLF seconds exceed the wall clock.
      const obs::Breakdown b = obs::build_breakdown(
          snap, snap.timer_total_s(obs::kTimerMcmcGeneration),
          backend.name());
      std::cout << "\n" << obs::format_breakdown(b) << "\n";
      std::ofstream trace_out(profile_path);
      if (!trace_out) throw Error("cannot open trace file: " + profile_path);
      obs::write_chrome_trace(trace_out, reg);
      std::cout << "trace: " << profile_path
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream metrics_out(metrics_path);
      if (!metrics_out) {
        throw Error("cannot open metrics file: " + metrics_path);
      }
      obs::write_metrics_json(metrics_out, snap);
      std::cout << "metrics: " << metrics_path << "\n";
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  // Arm the flight recorder's terminate hook first: any later crash or
  // uncaught error dumps each thread's last spans (docs/OBSERVABILITY.md).
  plf::obs::install_flight_handlers();
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
