// Live telemetry exporter (docs/OBSERVABILITY.md): every run tick it merges
// the caller's convergence diagnostics with a MetricsRegistry snapshot and
//   (1) appends one schema-versioned `plf-telemetry-v1` JSON object to a
//       JSONL history file (one line per record — tail -f/jq-friendly), and
//   (2) rewrites a single-object "latest status" JSON via tmp+rename, so a
//       monitor (tools/plf_status) always reads a complete document, never a
//       torn write.
//
// Records are generation-indexed. On `--resume`, prepare_resume(gen)
// truncates any JSONL tail the crashed run wrote past its last checkpoint
// (records with generation > gen), so the resumed run appends a
// bit-consistent continuation: the file ends up identical in its
// deterministic fields to the uninterrupted run's, with generations strictly
// monotone across the boundary.
//
// This layer is deliberately domain-blind — plf_obs cannot depend on
// plf_mcmc, so the MCMC coupler fills a TelemetryRecord (plain data) and the
// exporter owns only formatting, cadence, and file handling. All shared
// state sits behind an annotated util::Mutex: due() and export_record() may
// be called from any thread (the par_stress suite hammers exactly that).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace plf::obs {

class MetricsRegistry;

/// Proposed/accepted tally for one named proposal type or swap pair.
struct TelemetryRate {
  std::string name;
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;

  double rate() const {
    return proposed == 0 ? 0.0
                         : static_cast<double>(accepted) /
                               static_cast<double>(proposed);
  }
};

/// One telemetry tick's worth of diagnostics, filled by the run layer
/// (mcmc::CoupledChains) and formatted by the exporter. Every field the
/// schema marks deterministic must depend only on generation-indexed chain
/// state — never on wall time — so resumed runs reproduce it exactly.
struct TelemetryRecord {
  std::uint64_t generation = 0;
  double wall_s = 0.0;  ///< nondeterministic: wall time since run start

  // Cold-chain convergence diagnostics (NaN renders as JSON null).
  std::uint64_t n_samples = 0;
  double ln_likelihood = 0.0;
  double mean_ln_likelihood = 0.0;
  double ess = 0.0;
  double ess_per_sec = 0.0;  ///< nondeterministic
  double rhat = 0.0;

  std::vector<TelemetryRate> acceptance;  ///< per proposal type, all chains
  TelemetryRate swaps;                    ///< totals; name unused
  std::vector<TelemetryRate> swap_pairs;  ///< per heat-rank pair "0-1", ...

  /// Extra named gauges (arena hit rate, ...), appended verbatim under
  /// "extra". Deterministic iff the producer says so.
  std::vector<std::pair<std::string, double>> extra;
};

struct TelemetryOptions {
  std::string jsonl_path;   ///< empty: no history file
  std::string status_path;  ///< empty: no latest-status file
  /// Export every N generations (0: never on a cadence).
  std::uint64_t every_generations = 100;
  /// Embed the full metrics snapshot (obs::write_metrics_json shape) in
  /// each record under "metrics". Requires a registry at construction.
  bool include_metrics = true;
};

class TelemetryExporter {
 public:
  static constexpr const char* kSchema = "plf-telemetry-v1";

  /// `registry` may be null: records then carry no "metrics" section and no
  /// exporter self-metrics. The exporter never writes a file until the
  /// first export_record().
  explicit TelemetryExporter(TelemetryOptions options,
                             MetricsRegistry* registry = nullptr);

  const TelemetryOptions& options() const { return options_; }
  MetricsRegistry* registry() const { return registry_; }

  /// Truncate JSONL records with generation > `resume_generation` (the tail
  /// a crashed run wrote past its last checkpoint) and prime the cadence so
  /// the resumed run's first export lands exactly where the uninterrupted
  /// run's would. Call once, after restore and before run.
  void prepare_resume(std::uint64_t resume_generation) PLF_EXCLUDES(m_);

  /// True when `generation` is on the cadence and no record was already
  /// written for it or a later generation.
  bool due(std::uint64_t generation) const PLF_EXCLUDES(m_);

  /// Format and write one record (JSONL append + atomic status rewrite).
  /// Thread-safe; serialized internally.
  void export_record(const TelemetryRecord& record) PLF_EXCLUDES(m_);

  std::uint64_t records_written() const PLF_EXCLUDES(m_);
  /// Generation of the most recent record (0 when none yet).
  std::uint64_t last_generation() const PLF_EXCLUDES(m_);

 private:
  void write_record_json(std::ostream& os, const TelemetryRecord& record) const;

  const TelemetryOptions options_;
  MetricsRegistry* const registry_;

  mutable util::Mutex m_;
  std::uint64_t records_ PLF_GUARDED_BY(m_) = 0;
  std::uint64_t last_generation_ PLF_GUARDED_BY(m_) = 0;
  bool any_exported_ PLF_GUARDED_BY(m_) = false;
};

}  // namespace plf::obs
