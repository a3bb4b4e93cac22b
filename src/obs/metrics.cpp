#include "obs/metrics.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace plf::obs {

namespace {

/// Trace buffer cap across all shards of one registry. A 200-generation
/// profiled mrbayes_lite run emits ~30k spans; the cap bounds pathological
/// runs at ~6 MB of events while counting what was dropped.
constexpr std::uint64_t kMaxTraceEvents = 1u << 18;

std::uint64_t next_registry_serial() {
  static std::atomic<std::uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// Per-thread slot arrays. Written only by the owning thread; the mutex is
/// contended only when snapshot()/reset() visits, so hot-path locking is
/// uncontended (fast-path CAS) in the steady state. Lock order: a Shard::m
/// is only ever taken alone (recording) or under the registry's mutex_
/// (flush paths); never the reverse.
struct MetricsRegistry::Shard {
  mutable util::Mutex m;  // const flush paths lock shards they only read
  std::vector<std::uint64_t> counters PLF_GUARDED_BY(m);  // indexed by MetricId
  std::vector<OnlineStats> timers PLF_GUARDED_BY(m);      // indexed by MetricId
  std::vector<LatencyHistogram> hists PLF_GUARDED_BY(m);  // with timers
  std::vector<TraceEvent> events PLF_GUARDED_BY(m);
  std::uint32_t tid = 0;  // shard index (immutable once registered)
  /// Held by a live thread. Cleared when that thread exits, so make_shard
  /// hands the shard, totals and all, to the next new thread.
  std::atomic<bool> leased{true};
};

MetricsRegistry::MetricsRegistry() : serial_(next_registry_serial()) {}

MetricsRegistry::~MetricsRegistry() = default;

std::shared_ptr<MetricsRegistry::Shard> MetricsRegistry::make_shard() {
  util::MutexLock lock(mutex_);
  // Reuse an exited thread's shard: a process that starts threads over and
  // over (one coupler's drivers after another's) keeps one shard per live
  // thread, not one per thread it ever ran.
  for (const std::shared_ptr<Shard>& s : shards_) {
    bool free = false;
    if (s->leased.compare_exchange_strong(free, true,
                                          std::memory_order_acquire)) {
      return s;
    }
  }
  shards_.push_back(std::make_shared<Shard>());
  shards_.back()->tid = static_cast<std::uint32_t>(shards_.size() - 1);
  return shards_.back();
}

std::size_t MetricsRegistry::n_shards() const {
  util::MutexLock lock(mutex_);
  return shards_.size();
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_this_thread() {
  // A thread's hold on its shard of one registry, released at thread exit.
  // Sharing the shard keeps it alive past its registry, so the release
  // never needs the registry itself.
  struct Lease {
    std::uint64_t serial;
    std::shared_ptr<Shard> shard;

    Lease(std::uint64_t r, std::shared_ptr<Shard> s)
        : serial(r), shard(std::move(s)) {}
    Lease(Lease&&) noexcept = default;  // for the cache's growth
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (shard) shard->leased.store(false, std::memory_order_release);
    }
  };
  // Thread-local shard cache: (registry serial -> lease). Entries for dead
  // registries are never looked up again (serials are never reused). The
  // vector stays tiny because few registries exist at once.
  thread_local std::vector<Lease> cache;
  for (const Lease& e : cache) {
    if (e.serial == serial_) return *e.shard;
  }
  cache.emplace_back(serial_, make_shard());
  return *cache.back().shard;
}

MetricId MetricsRegistry::intern(std::string_view name, MetricKind kind) {
  util::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i].name == name) {
      PLF_CHECK(names_[i].kind == kind,
                "metric '" + std::string(name) +
                    "' already interned with a different kind");
      return static_cast<MetricId>(i);
    }
  }
  names_.push_back(NameEntry{std::string(name), kind});
  gauge_values_.push_back(0.0);
  return static_cast<MetricId>(names_.size() - 1);
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return intern(name, MetricKind::kCounter);
}

MetricId MetricsRegistry::gauge(std::string_view name) {
  return intern(name, MetricKind::kGauge);
}

MetricId MetricsRegistry::timer(std::string_view name) {
  return intern(name, MetricKind::kTimer);
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  Shard& s = shard_for_this_thread();
  util::MutexLock lock(s.m);
  if (s.counters.size() <= id) s.counters.resize(id + 1, 0);
  s.counters[id] += delta;
}

void MetricsRegistry::record_seconds(MetricId id, double seconds) {
  Shard& s = shard_for_this_thread();
  util::MutexLock lock(s.m);
  if (s.timers.size() <= id) {
    s.timers.resize(id + 1);
    s.hists.resize(id + 1);
  }
  s.timers[id].add(seconds);
  s.hists[id].add_seconds(seconds);
}

void MetricsRegistry::record_span(MetricId id, std::uint64_t start_ns,
                                  std::uint64_t end_ns) {
  if (!tracing_enabled()) return;
  if (trace_count_.fetch_add(1, std::memory_order_relaxed) >= kMaxTraceEvents) {
    trace_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& s = shard_for_this_thread();
  util::MutexLock lock(s.m);
  s.events.push_back(TraceEvent{
      id, start_ns, end_ns >= start_ns ? end_ns - start_ns : 0, s.tid});
}

void MetricsRegistry::set_gauge(MetricId id, double value) {
  util::MutexLock lock(mutex_);
  PLF_CHECK(id < gauge_values_.size() && names_[id].kind == MetricKind::kGauge,
            "set_gauge: id is not a gauge");
  gauge_values_[id] = value;
}

void MetricsRegistry::enable_tracing(bool on) {
  tracing_.store(on, std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::trace_events_dropped() const {
  return trace_dropped_.load(std::memory_order_relaxed);
}

Snapshot MetricsRegistry::snapshot() const {
  // TSA finding (docs/STATIC_ANALYSIS.md): this used to copy the shard
  // pointer list under mutex_, release it, then lock each shard — so a
  // thread whose FIRST record raced the flush could register its shard after
  // the list copy and have pre-snapshot samples silently excluded. Holding
  // mutex_ across the whole merge closes that window (make_shard blocks
  // until the flush finishes) and fixes the lock order as: registry mutex_,
  // then Shard::m. Steady-state recording only takes its own shard lock, so
  // the hot path is unaffected.
  util::MutexLock registry_lock(mutex_);
  const std::vector<NameEntry>& names = names_;

  std::vector<std::uint64_t> counter_totals(names.size(), 0);
  std::vector<OnlineStats> timer_totals(names.size());
  std::vector<LatencyHistogram> hist_totals(names.size());
  for (const auto& sp : shards_) {
    const Shard* s = sp.get();
    util::MutexLock lock(s->m);
    for (std::size_t i = 0; i < s->counters.size() && i < names.size(); ++i) {
      counter_totals[i] += s->counters[i];
    }
    for (std::size_t i = 0; i < s->timers.size() && i < names.size(); ++i) {
      timer_totals[i].merge(s->timers[i]);
      hist_totals[i].merge(s->hists[i]);
    }
  }
  const std::vector<double>& gauges = gauge_values_;

  Snapshot snap;
  for (std::size_t i = 0; i < names.size(); ++i) {
    switch (names[i].kind) {
      case MetricKind::kCounter:
        snap.counters.push_back(Snapshot::Counter{names[i].name,
                                                  counter_totals[i]});
        break;
      case MetricKind::kGauge:
        snap.gauges.push_back(Snapshot::Gauge{names[i].name, gauges[i]});
        break;
      case MetricKind::kTimer:
        snap.timers.push_back(
            Snapshot::Timer{names[i].name, timer_totals[i], hist_totals[i]});
        snap.hist_samples_dropped += hist_totals[i].dropped();
        break;
    }
  }
  snap.trace_events_dropped = trace_dropped_.load(std::memory_order_relaxed);
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.timers.begin(), snap.timers.end(), by_name);
  return snap;
}

std::vector<TraceEvent> MetricsRegistry::trace_events() const {
  // Same flush discipline as snapshot(): hold mutex_ across the merge so a
  // shard registered before the flush cannot be missed.
  util::MutexLock registry_lock(mutex_);
  std::vector<TraceEvent> out;
  for (const auto& sp : shards_) {
    const Shard* s = sp.get();
    util::MutexLock lock(s->m);
    out.insert(out.end(), s->events.begin(), s->events.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

std::string MetricsRegistry::metric_name(MetricId id) const {
  util::MutexLock lock(mutex_);
  PLF_CHECK(id < names_.size(), "metric_name: unknown id");
  return names_[id].name;
}

void MetricsRegistry::reset() {
  // Hold mutex_ across the per-shard clears (flush lock order: mutex_ before
  // Shard::m) so no shard can register mid-reset and be half-cleared.
  util::MutexLock registry_lock(mutex_);
  std::fill(gauge_values_.begin(), gauge_values_.end(), 0.0);
  for (const auto& sp : shards_) {
    Shard* s = sp.get();
    util::MutexLock lock(s->m);
    std::fill(s->counters.begin(), s->counters.end(), 0);
    std::fill(s->timers.begin(), s->timers.end(), OnlineStats{});
    std::fill(s->hists.begin(), s->hists.end(), LatencyHistogram{});
    s->events.clear();
  }
  trace_count_.store(0, std::memory_order_relaxed);
  trace_dropped_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

const Snapshot::Counter* Snapshot::find_counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const Snapshot::Gauge* Snapshot::find_gauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const Snapshot::Timer* Snapshot::find_timer(std::string_view name) const {
  for (const auto& t : timers) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

double Snapshot::timer_total_s(std::string_view name) const {
  const Timer* t = find_timer(name);
  return t == nullptr ? 0.0 : t->stats.total();
}

std::uint64_t Snapshot::counter_value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value;
}

double Snapshot::gauge_value(std::string_view name) const {
  const Gauge* g = find_gauge(name);
  return g == nullptr ? 0.0 : g->value;
}

}  // namespace plf::obs
