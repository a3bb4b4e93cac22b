// The paper-style time-breakdown report.
//
// Reassembles a metrics Snapshot into the shape of the paper's measurements:
// the gprof-style per-kernel profile ("85-95% of total execution time is
// spent in the three PLF kernels") and Fig. 12's decomposition of total time
// into parallel section (PLF), serial Remaining, and simulated transfer.
// Percentages of the three top-level sections sum to 100 by construction —
// the golden-format test in tests/obs_test.cpp enforces it to epsilon.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace plf::obs {

/// One kernel row of the per-kernel profile.
struct KernelShare {
  std::string name;        ///< e.g. "CondLikeDown"
  double seconds = 0.0;    ///< wall time inside the kernel dispatch
  std::uint64_t calls = 0; ///< timer sample count
  double pct_of_engine = 0.0;  ///< share of measured engine time
};

/// One timer row of the latency-percentile table (histogram-derived).
struct LatencyRow {
  std::string name;        ///< timer name, e.g. "plf.CondLikeDown"
  std::uint64_t count = 0; ///< histogram sample count
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Fig. 12-shaped decomposition of one run.
struct Breakdown {
  std::string backend;     ///< label printed in the header
  double total_s = 0.0;    ///< time the sections are normalized against

  std::vector<KernelShare> kernels;  ///< the three PLFs + root reduction
  double engine_serial_s = 0.0;      ///< TiProbs + scaler sum + repeat work

  // Top-level sections (percentages of total_s; sum to 100).
  double plf_s = 0.0;        ///< parallel section: sum of kernel rows
  double remaining_s = 0.0;  ///< total - plf (serial engine + application)
  double transfer_sim_s = 0.0;  ///< simulated PCIe/DMA seconds (reported
                                ///< separately; simulated time is not wall
                                ///< time and is excluded from the 100%)
  double plf_pct = 0.0;
  double remaining_pct = 0.0;

  /// Share of measured *engine* time (kernels + engine serial timers) spent
  /// inside the three PLF kernels + reduction — the gprof-profile number the
  /// paper leads with.
  double plf_pct_of_engine = 0.0;

  /// Per-call latency percentiles for every non-empty timer (kernels,
  /// plan.*, engine serial phases), from the log-bucketed histograms.
  std::vector<LatencyRow> latencies;

  // Observability self-diagnostics, surfaced in the report footer so a
  // truncated trace or unbucketable samples are never silent.
  std::uint64_t trace_events_dropped = 0;
  std::uint64_t hist_samples_dropped = 0;
};

/// Assemble the breakdown from a snapshot. `total_s` is the run's time on
/// the clock the kernel timers sum over: wall time for one thread of work,
/// summed per-thread time (e.g. MC3 chain-seconds) when instances overlap;
/// `backend` is a label.
/// If total_s is smaller than the measured PLF time (clock jitter on very
/// short runs), it is raised to it so percentages stay in [0, 100].
Breakdown build_breakdown(const Snapshot& snapshot, double total_s,
                          std::string backend);

/// Render the breakdown as the human-readable report mrbayes_lite prints.
std::string format_breakdown(const Breakdown& b);

}  // namespace plf::obs
