#include "obs/report.hpp"

#include <algorithm>
#include <sstream>

#include "obs/names.hpp"
#include "util/table.hpp"

namespace plf::obs {

namespace {

KernelShare kernel_share(const Snapshot& snap, const char* timer_name,
                         const char* short_name) {
  KernelShare ks;
  ks.name = short_name;
  if (const Snapshot::Timer* t = snap.find_timer(timer_name)) {
    ks.seconds = t->stats.total();
    ks.calls = t->stats.count();
  }
  return ks;
}

}  // namespace

Breakdown build_breakdown(const Snapshot& snapshot, double total_s,
                          std::string backend) {
  Breakdown b;
  b.backend = std::move(backend);

  b.kernels = {
      kernel_share(snapshot, kTimerCondLikeDown, "CondLikeDown"),
      kernel_share(snapshot, kTimerCondLikeRoot, "CondLikeRoot"),
      kernel_share(snapshot, kTimerCondLikeScaler, "CondLikeScaler"),
      kernel_share(snapshot, kTimerRootReduce, "RootReduce"),
      // The threaded backend runs down/root + scale inside one region per
      // fused level run: the kernels are deliberately indistinguishable
      // there, so the level wall time is its own PLF row (the serial
      // backend and the base per-op executor — Cell, PerCallBackend — keep
      // filling the per-kernel rows above instead).
      kernel_share(snapshot, kTimerPlanLevel, "PlanLevel(fused)"),
  };
  for (const KernelShare& k : b.kernels) b.plf_s += k.seconds;

  b.engine_serial_s = snapshot.timer_total_s(kTimerTiProbs) +
                      snapshot.timer_total_s(kTimerRepeatIdentify) +
                      snapshot.timer_total_s(kTimerPlanBuild);

  b.transfer_sim_s = snapshot.gauge_value(kGaugeTransferSimSeconds);

  // Clock jitter on very short runs can leave total_s below the summed
  // kernel time; clamp so Remaining is never negative and the two
  // wall-clock sections partition total exactly.
  b.total_s = std::max(total_s, b.plf_s);
  b.remaining_s = b.total_s - b.plf_s;

  if (b.total_s > 0.0) {
    b.plf_pct = 100.0 * b.plf_s / b.total_s;
    b.remaining_pct = 100.0 * b.remaining_s / b.total_s;
  } else {
    // Nothing measured at all: call it 100% Remaining so sections still
    // sum to 100 for downstream format/sum checks.
    b.remaining_pct = 100.0;
  }

  const double engine_s = b.plf_s + b.engine_serial_s;
  for (KernelShare& k : b.kernels) {
    k.pct_of_engine = engine_s > 0.0 ? 100.0 * k.seconds / engine_s : 0.0;
  }
  b.plf_pct_of_engine = engine_s > 0.0 ? 100.0 * b.plf_s / engine_s : 0.0;

  // Histogram-derived per-call percentiles, one row per non-empty timer
  // (snapshot timers are already name-sorted).
  for (const Snapshot::Timer& t : snapshot.timers) {
    if (t.hist.count() == 0) continue;
    LatencyRow row;
    row.name = t.name;
    row.count = t.hist.count();
    row.p50_us = t.hist.percentile_ns(0.50) * 1e-3;
    row.p95_us = t.hist.percentile_ns(0.95) * 1e-3;
    row.p99_us = t.hist.percentile_ns(0.99) * 1e-3;
    b.latencies.push_back(std::move(row));
  }
  b.trace_events_dropped = snapshot.trace_events_dropped;
  b.hist_samples_dropped = snapshot.hist_samples_dropped;

  return b;
}

std::string format_breakdown(const Breakdown& b) {
  std::ostringstream os;

  Table kernels("per-kernel profile (share of measured engine time)");
  kernels.header({"kernel", "calls", "seconds", "% of engine"});
  for (const KernelShare& k : b.kernels) {
    kernels.row({k.name, std::to_string(k.calls), Table::num(k.seconds, 4),
                 Table::num(k.pct_of_engine, 1)});
  }
  kernels.row({"(engine serial: TiProbs+scalers+repeats)", "-",
               Table::num(b.engine_serial_s, 4),
               Table::num(100.0 - b.plf_pct_of_engine, 1)});

  Table sections("time breakdown [" + b.backend + "] (paper Fig. 12 shape)");
  sections.header({"section", "seconds", "% of total"});
  sections.row({"PLF (parallel section)", Table::num(b.plf_s, 4),
                Table::num(b.plf_pct, 1)});
  sections.row({"Remaining (serial)", Table::num(b.remaining_s, 4),
                Table::num(b.remaining_pct, 1)});
  sections.row({"total", Table::num(b.total_s, 4),
                Table::num(b.plf_pct + b.remaining_pct, 1)});

  os << "== PLF time breakdown ==\n"
     << kernels << "\n"
     << "PLF kernels: " << Table::num(b.plf_pct_of_engine, 1)
     << "% of measured engine time (paper: 85-95% of MrBayes total)\n\n"
     << sections;
  if (b.transfer_sim_s > 0.0) {
    os << "simulated transfer (PCIe/DMA, virtual clock — not wall time): "
       << Table::num(b.transfer_sim_s, 4) << " s\n";
  }
  if (!b.latencies.empty()) {
    Table lat("per-call latency percentiles (log-bucketed histograms)");
    lat.header({"timer", "samples", "p50 us", "p95 us", "p99 us"});
    for (const LatencyRow& r : b.latencies) {
      lat.row({r.name, std::to_string(r.count), Table::num(r.p50_us, 2),
               Table::num(r.p95_us, 2), Table::num(r.p99_us, 2)});
    }
    os << "\n" << lat;
  }
  if (b.trace_events_dropped > 0) {
    os << "warning: trace buffer full — " << b.trace_events_dropped
       << " spans dropped (trace output is truncated)\n";
  }
  if (b.hist_samples_dropped > 0) {
    os << "warning: " << b.hist_samples_dropped
       << " histogram samples dropped (negative or non-finite durations)\n";
  }
  return os.str();
}

}  // namespace plf::obs
