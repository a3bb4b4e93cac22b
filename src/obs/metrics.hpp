// MetricsRegistry: named counters, gauges, and OnlineStats timers with
// thread-local shards.
//
// The paper's whole argument is a measurement (gprof shows 85-95% of MrBayes
// inside three PLF kernels; Fig. 12 decomposes total time into parallel
// section, serial "Remaining", and PCIe transfer). This registry is the
// reproduction's equivalent instrument: every layer — kernels, thread pool,
// Cell/GPU simulators, MCMC chains — records into it, and obs/report.hpp
// reassembles the paper-shaped breakdown.
//
// Concurrency design: each thread writes to its own shard (created on first
// touch, owned by the registry, and handed to the next new thread once its
// thread exits), so the hot path never contends with other
// writers. A shard carries one mutex that is taken per record; it is
// uncontended except while a reader flushes, which makes the design
// race-free under TSan without atomics on the OnlineStats state. Gauges are
// registry-level (set on cold paths only). snapshot() holds the registry
// lock while merging each shard (registry mutex_ before Shard::m, never the
// reverse), so every shard registered before the flush is included — a
// first-record racing the flush either lands fully in this snapshot or
// fully in the next, never half-in.
//
// Metric names are interned once into small integer ids; hot paths hold ids
// (see PLF_PROF_SCOPE in obs/profile.hpp, which caches the id in a
// function-local static).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace plf::obs {

/// Id of an interned metric name within one registry. Ids are dense and
/// stable for the registry's lifetime; reset() clears values, not names.
using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kTimer };

/// One completed PLF_PROF_SCOPE span, recorded only while tracing is
/// enabled. tid is the shard index (one per live recording thread; a thread
/// started after another exited may reuse its index).
struct TraceEvent {
  MetricId name_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// Point-in-time merged view of a registry. Entries are sorted by name.
struct Snapshot {
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    double value = 0.0;
  };
  struct Timer {
    std::string name;
    OnlineStats stats;       ///< per-sample durations, in seconds
    LatencyHistogram hist;   ///< log-bucketed sample distribution (p50/p95/p99)
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Timer> timers;

  /// Trace spans dropped at the buffer cap up to this snapshot (the report
  /// footer surfaces it so a truncated trace is never silent).
  std::uint64_t trace_events_dropped = 0;
  /// Histogram samples that could not be bucketed (negative/non-finite),
  /// summed over every timer.
  std::uint64_t hist_samples_dropped = 0;

  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Timer* find_timer(std::string_view name) const;

  /// Sum of a timer's samples in seconds; 0 when absent or empty.
  double timer_total_s(std::string_view name) const;
  /// Counter value; 0 when absent.
  std::uint64_t counter_value(std::string_view name) const;
  /// Gauge value; 0 when absent.
  double gauge_value(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- name interning (cold; takes the registry mutex) ---
  // Re-interning an existing name returns its id; asking for the same name
  // with a different kind is a contract violation (PLF_CHECK).
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId timer(std::string_view name);

  // --- hot-path recording (per-thread shard; uncontended lock) ---
  void add(MetricId id, std::uint64_t delta = 1);
  void record_seconds(MetricId id, double seconds);
  /// Record a completed span for the chrome://tracing export. No-op unless
  /// tracing_enabled(). Does not feed the timer statistics — callers pair it
  /// with record_seconds (ScopedTimer does both).
  void record_span(MetricId id, std::uint64_t start_ns, std::uint64_t end_ns);

  // --- gauges (cold paths: publish simulator/engine stats) ---
  void set_gauge(MetricId id, double value) PLF_EXCLUDES(mutex_);

  // --- tracing control ---
  void enable_tracing(bool on);
  bool tracing_enabled() const {
    return tracing_.load(std::memory_order_relaxed);
  }
  /// Spans recorded after the buffer cap are dropped (and counted); the cap
  /// keeps long MCMC runs from accumulating unbounded trace memory.
  std::uint64_t trace_events_dropped() const;

  // --- flush ---
  Snapshot snapshot() const PLF_EXCLUDES(mutex_);
  /// All recorded trace events, merged across shards, sorted by start time.
  std::vector<TraceEvent> trace_events() const PLF_EXCLUDES(mutex_);
  std::string metric_name(MetricId id) const PLF_EXCLUDES(mutex_);
  /// Zero every counter/gauge/timer and drop trace events. Interned names
  /// and ids survive (handles held by callers stay valid).
  void reset() PLF_EXCLUDES(mutex_);

  /// Per-thread shards held: one per thread alive at once that recorded
  /// here. A shard outlives its thread and goes to the next new one.
  std::size_t n_shards() const PLF_EXCLUDES(mutex_);

  /// Process-wide registry the PLF_PROF_* macros record into.
  static MetricsRegistry& global();

 private:
  struct Shard;

  MetricId intern(std::string_view name, MetricKind kind) PLF_EXCLUDES(mutex_);
  Shard& shard_for_this_thread() PLF_EXCLUDES(mutex_);
  std::shared_ptr<Shard> make_shard() PLF_EXCLUDES(mutex_);

  /// Serial number distinguishing registries that reuse an address (the
  /// thread-local shard cache is keyed on it).
  const std::uint64_t serial_;

  /// Registry lock: names, gauges, and the shard list. Lock order: mutex_
  /// is always taken BEFORE any Shard::m (snapshot/trace_events/reset hold
  /// it across the per-shard merges so no shard can register mid-flush);
  /// recording paths take only their own shard's lock, so the reverse order
  /// never occurs.
  mutable util::Mutex mutex_;
  struct NameEntry {
    std::string name;
    MetricKind kind;
  };
  std::vector<NameEntry> names_ PLF_GUARDED_BY(mutex_);
  /// Indexed by id (0.0 for non-gauges).
  std::vector<double> gauge_values_ PLF_GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<Shard>> shards_ PLF_GUARDED_BY(mutex_);

  std::atomic<bool> tracing_{false};
  mutable std::atomic<std::uint64_t> trace_count_{0};
  mutable std::atomic<std::uint64_t> trace_dropped_{0};
};

}  // namespace plf::obs
