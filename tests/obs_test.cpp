// Tests for the observability subsystem (src/obs): registry semantics,
// thread-shard merging, the injectable fake clock, the trace/metrics JSON
// exporters, and the paper-style breakdown report. Timing-dependent cases
// run against a fake nanosecond source, so every expectation is exact and
// deterministic regardless of host load.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <latch>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace plf::obs {
namespace {

// --- fake clock -----------------------------------------------------------

std::atomic<std::uint64_t> g_fake_now_ns{0};

std::uint64_t fake_now_ns() {
  return g_fake_now_ns.load(std::memory_order_relaxed);
}

/// Install the fake source for one test's scope; restores the previous
/// source (normally the steady clock) on destruction.
class FakeClockGuard {
 public:
  explicit FakeClockGuard(std::uint64_t start_ns = 0) {
    g_fake_now_ns.store(start_ns, std::memory_order_relaxed);
    prev_ = set_now_ns_source(&fake_now_ns);
  }
  ~FakeClockGuard() { set_now_ns_source(prev_); }

  void advance_ns(std::uint64_t delta) {
    g_fake_now_ns.fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  NowNsFn prev_;
};

// --- registry semantics ---------------------------------------------------

TEST(MetricsRegistry, CounterAddAndSnapshot) {
  MetricsRegistry reg;
  const MetricId id = reg.counter("test.counter");
  reg.add(id);          // default delta 1
  reg.add(id, 41);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("test.counter"), 42u);
  EXPECT_EQ(snap.counter_value("test.absent"), 0u);
}

TEST(MetricsRegistry, InterningReturnsStableIds) {
  MetricsRegistry reg;
  const MetricId a = reg.counter("same.name");
  const MetricId b = reg.counter("same.name");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("other.name"), a);
  EXPECT_EQ(reg.metric_name(a), "same.name");
}

TEST(MetricsRegistry, KindMismatchIsContractViolation) {
  MetricsRegistry reg;
  reg.counter("mixed.kind");
  EXPECT_THROW(reg.timer("mixed.kind"), Error);
  EXPECT_THROW(reg.gauge("mixed.kind"), Error);
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  MetricsRegistry reg;
  const MetricId g = reg.gauge("test.gauge");
  reg.set_gauge(g, 1.5);
  reg.set_gauge(g, 2.5);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge_value("test.gauge"), 2.5);
}

TEST(MetricsRegistry, SetGaugeOnNonGaugeIsContractViolation) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("not.a.gauge");
  EXPECT_THROW(reg.set_gauge(c, 1.0), Error);
}

TEST(MetricsRegistry, TimerRecordsExactSamples) {
  MetricsRegistry reg;
  const MetricId t = reg.timer("test.timer");
  reg.record_seconds(t, 0.25);
  reg.record_seconds(t, 0.75);
  const Snapshot snap = reg.snapshot();
  const Snapshot::Timer* timer = snap.find_timer("test.timer");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->stats.count(), 2u);
  EXPECT_DOUBLE_EQ(timer->stats.total(), 1.0);
  EXPECT_DOUBLE_EQ(timer->stats.min(), 0.25);
  EXPECT_DOUBLE_EQ(timer->stats.max(), 0.75);
  EXPECT_DOUBLE_EQ(snap.timer_total_s("test.timer"), 1.0);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.add(reg.counter("zz.last"));
  reg.add(reg.counter("aa.first"));
  reg.add(reg.counter("mm.middle"));
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "aa.first");
  EXPECT_EQ(snap.counters[1].name, "mm.middle");
  EXPECT_EQ(snap.counters[2].name, "zz.last");
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsNames) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("keep.counter");
  const MetricId t = reg.timer("keep.timer");
  const MetricId g = reg.gauge("keep.gauge");
  reg.add(c, 7);
  reg.record_seconds(t, 1.0);
  reg.set_gauge(g, 3.0);
  reg.reset();

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("keep.counter"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("keep.gauge"), 0.0);
  const Snapshot::Timer* timer = snap.find_timer("keep.timer");
  ASSERT_NE(timer, nullptr);  // name survives
  EXPECT_EQ(timer->stats.count(), 0u);

  // Ids held across the reset stay valid.
  reg.add(c, 2);
  EXPECT_EQ(reg.snapshot().counter_value("keep.counter"), 2u);
}

TEST(MetricsRegistry, ThreadShardsMergeExactly) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("mt.counter");
  const MetricId t = reg.timer("mt.timer");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&reg, c, t] {
      for (int j = 0; j < kPerThread; ++j) {
        reg.add(c);
        reg.record_seconds(t, 0.001);
      }
    });
  }
  for (auto& th : threads) th.join();

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("mt.counter"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const Snapshot::Timer* timer = snap.find_timer("mt.timer");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->stats.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(timer->stats.total(), kThreads * kPerThread * 0.001, 1e-9);
  EXPECT_NEAR(timer->stats.stddev(), 0.0, 1e-12);  // identical samples
}

TEST(MetricsRegistry, ExitedThreadsShardsAreReused) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("reuse.counter");
  const MetricId t = reg.timer("reuse.timer");
  constexpr int kAlive = 3;
  constexpr int kRounds = 5;
  // Rounds of kAlive threads alive at once (each records, then waits for
  // the others), each round started after the last one exited: the shard
  // count is the live-thread count, not the number of threads ever started.
  for (int round = 0; round < kRounds; ++round) {
    std::latch all_recorded(kAlive);
    std::vector<std::thread> threads;
    for (int i = 0; i < kAlive; ++i) {
      threads.emplace_back([&reg, &all_recorded, c, t] {
        reg.add(c);
        reg.record_seconds(t, 0.5);
        all_recorded.arrive_and_wait();
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(reg.n_shards(), static_cast<std::size_t>(kAlive)) << round;
  }
  // A reused shard keeps the exited threads' totals.
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("reuse.counter"),
            static_cast<std::uint64_t>(kAlive * kRounds));
  EXPECT_EQ(snap.find_timer("reuse.timer")->stats.count(),
            static_cast<std::uint64_t>(kAlive * kRounds));
  // A thread that outlives its registry releases its shard safely (the
  // asan-ubsan preset checks that the release touches no freed memory).
  std::latch recorded(1);
  std::latch registry_gone(1);
  std::thread late;
  {
    MetricsRegistry short_lived;
    const MetricId id = short_lived.counter("late");
    late = std::thread([&short_lived, &recorded, &registry_gone, id] {
      short_lived.add(id);
      recorded.count_down();
      registry_gone.wait();
    });
    recorded.wait();
  }
  registry_gone.count_down();
  late.join();
}

// --- ScopedTimer with the fake clock --------------------------------------

TEST(ScopedTimer, RecordsExactDurationFromInjectedClock) {
  FakeClockGuard clock(1'000'000);
  MetricsRegistry reg;
  const MetricId t = reg.timer("fake.span");
  {
    ScopedTimer timer(reg, t);
    clock.advance_ns(250'000'000);  // exactly 0.25 s
  }
  const Snapshot snap = reg.snapshot();
  const Snapshot::Timer* timer = snap.find_timer("fake.span");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->stats.count(), 1u);
  EXPECT_DOUBLE_EQ(timer->stats.total(), 0.25);
}

TEST(ScopedTimer, EmitsTraceSpanOnlyWhenTracingEnabled) {
  FakeClockGuard clock(500);
  MetricsRegistry reg;
  const MetricId t = reg.timer("traced.span");
  {
    ScopedTimer timer(reg, t);  // tracing off: no event
    clock.advance_ns(10);
  }
  EXPECT_TRUE(reg.trace_events().empty());

  reg.enable_tracing(true);
  {
    ScopedTimer timer(reg, t);
    clock.advance_ns(1'000);
  }
  const auto events = reg.trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name_id, t);
  EXPECT_EQ(events[0].start_ns, 510u);
  EXPECT_EQ(events[0].dur_ns, 1'000u);
  EXPECT_EQ(reg.trace_events_dropped(), 0u);
}

TEST(MetricsRegistry, TraceBufferCapsAndCountsDrops) {
  MetricsRegistry reg;
  const MetricId t = reg.timer("cap.span");
  reg.enable_tracing(true);
  constexpr std::uint64_t kCap = 1u << 18;
  for (std::uint64_t i = 0; i < kCap + 100; ++i) {
    reg.record_span(t, i, i + 1);
  }
  EXPECT_EQ(reg.trace_events().size(), kCap);
  EXPECT_EQ(reg.trace_events_dropped(), 100u);
  reg.reset();
  EXPECT_TRUE(reg.trace_events().empty());
  EXPECT_EQ(reg.trace_events_dropped(), 0u);
}

TEST(ProfMacros, RecordIntoGlobalRegistry) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t before =
      reg.snapshot().counter_value("test.macro_counter");
  PLF_PROF_COUNT("test.macro_counter", 3);
  PLF_PROF_GAUGE("test.macro_gauge", 1.5);
  {
    PLF_PROF_SCOPE("test.macro_scope");
  }
  const Snapshot snap = reg.snapshot();
#if defined(PLF_PROFILING_ENABLED)
  EXPECT_EQ(snap.counter_value("test.macro_counter"), before + 3);
  EXPECT_DOUBLE_EQ(snap.gauge_value("test.macro_gauge"), 1.5);
  const Snapshot::Timer* t = snap.find_timer("test.macro_scope");
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->stats.count(), 1u);
#else
  EXPECT_EQ(snap.counter_value("test.macro_counter"), before);
#endif
}

// --- JSON exporters -------------------------------------------------------

TEST(TraceWriter, EmitsChromeTracingShape) {
  FakeClockGuard clock(2'000);
  MetricsRegistry reg;
  reg.enable_tracing(true);
  const MetricId t = reg.timer("json.span");
  {
    ScopedTimer timer(reg, t);
    clock.advance_ns(5'000);  // 5 us
  }
  std::ostringstream os;
  write_chrome_trace(os, reg);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"json.span\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":5"), std::string::npos);  // microseconds
  EXPECT_EQ(out.find("Infinity"), std::string::npos);
  // Crude balance check: the writer emits one top-level object.
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
}

TEST(MetricsWriter, EmitsAllSectionsAndNullForEmptyTimerExtremes) {
  MetricsRegistry reg;
  reg.add(reg.counter("json.counter"), 5);
  reg.set_gauge(reg.gauge("json.gauge"), 0.5);
  reg.timer("json.empty_timer");  // interned, never sampled
  std::ostringstream os;
  write_metrics_json(os, reg.snapshot());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"gauges\""), std::string::npos);
  EXPECT_NE(out.find("\"timers\""), std::string::npos);
  EXPECT_NE(out.find("\"json.counter\":5"), std::string::npos);
  EXPECT_NE(out.find("\"json.empty_timer\""), std::string::npos);
  // Empty min/max are NaN internally and must serialize as null: JSON has
  // no NaN/Infinity literals and python -m json.tool would reject them.
  EXPECT_NE(out.find("\"min_s\":null"), std::string::npos);
  EXPECT_EQ(out.find("nan"), std::string::npos);
  EXPECT_EQ(out.find("inf"), std::string::npos);
}

// --- breakdown report -----------------------------------------------------

/// Registry pre-loaded with a known kernel profile: 2s down + 1s root +
/// 0.5s scaler + 0.5s reduce = 4s PLF, plus 1s of engine-serial time.
void load_kernel_profile(MetricsRegistry& reg) {
  reg.record_seconds(reg.timer(kTimerCondLikeDown), 2.0);
  reg.record_seconds(reg.timer(kTimerCondLikeRoot), 1.0);
  reg.record_seconds(reg.timer(kTimerCondLikeScaler), 0.5);
  reg.record_seconds(reg.timer(kTimerRootReduce), 0.5);
  reg.record_seconds(reg.timer(kTimerTiProbs), 0.75);
  reg.record_seconds(reg.timer(kTimerRepeatIdentify), 0.25);
}

TEST(Breakdown, SectionsPartitionTotalExactly) {
  MetricsRegistry reg;
  load_kernel_profile(reg);
  const Breakdown b = build_breakdown(reg.snapshot(), 10.0, "test-backend");
  EXPECT_DOUBLE_EQ(b.plf_s, 4.0);
  EXPECT_DOUBLE_EQ(b.remaining_s, 6.0);
  EXPECT_DOUBLE_EQ(b.plf_pct, 40.0);
  EXPECT_DOUBLE_EQ(b.remaining_pct, 60.0);
  EXPECT_NEAR(b.plf_pct + b.remaining_pct, 100.0, 1e-9);
  // Engine share: 4s of 5s measured engine time.
  EXPECT_NEAR(b.plf_pct_of_engine, 80.0, 1e-9);
  double kernel_pct_sum = 0.0;
  for (const KernelShare& k : b.kernels) kernel_pct_sum += k.pct_of_engine;
  EXPECT_NEAR(kernel_pct_sum, b.plf_pct_of_engine, 1e-9);
}

TEST(Breakdown, ClampsWhenWallTimeBelowKernelTime) {
  MetricsRegistry reg;
  load_kernel_profile(reg);
  // Caller-measured wall below summed kernel time (clock jitter): total is
  // raised so percentages stay in [0, 100] and still sum to 100.
  const Breakdown b = build_breakdown(reg.snapshot(), 1.0, "jitter");
  EXPECT_DOUBLE_EQ(b.total_s, 4.0);
  EXPECT_DOUBLE_EQ(b.plf_pct, 100.0);
  EXPECT_DOUBLE_EQ(b.remaining_pct, 0.0);
  EXPECT_NEAR(b.plf_pct + b.remaining_pct, 100.0, 1e-9);
}

TEST(Breakdown, EmptySnapshotIsAllRemaining) {
  MetricsRegistry reg;
  const Breakdown b = build_breakdown(reg.snapshot(), 0.0, "empty");
  EXPECT_DOUBLE_EQ(b.plf_s, 0.0);
  EXPECT_NEAR(b.plf_pct + b.remaining_pct, 100.0, 1e-9);
}

TEST(Breakdown, FormatContainsPaperSections) {
  MetricsRegistry reg;
  load_kernel_profile(reg);
  reg.set_gauge(reg.gauge(kGaugeTransferSimSeconds), 0.125);
  const Breakdown b = build_breakdown(reg.snapshot(), 10.0, "test-backend");
  const std::string out = format_breakdown(b);
  EXPECT_NE(out.find("CondLikeDown"), std::string::npos);
  EXPECT_NE(out.find("CondLikeRoot"), std::string::npos);
  EXPECT_NE(out.find("CondLikeScaler"), std::string::npos);
  EXPECT_NE(out.find("RootReduce"), std::string::npos);
  EXPECT_NE(out.find("PLF (parallel section)"), std::string::npos);
  EXPECT_NE(out.find("Remaining (serial)"), std::string::npos);
  EXPECT_NE(out.find("test-backend"), std::string::npos);
  EXPECT_NE(out.find("100.0"), std::string::npos);  // total row sums to 100%
  EXPECT_NE(out.find("simulated transfer"), std::string::npos);
  EXPECT_NE(out.find("85-95%"), std::string::npos);  // the paper anchor
}

// --- latency histograms ---------------------------------------------------

TEST(LatencyHistogram, BucketBoundariesArePowersOfTwo) {
  // Layout: bucket 0 = {0}; bucket b in 1..62 = [2^(b-1), 2^b); 63 overflow.
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_index(1023), 10);
  EXPECT_EQ(LatencyHistogram::bucket_index(1024), 11);
  EXPECT_EQ(LatencyHistogram::bucket_index(std::uint64_t{1} << 61), 62);
  EXPECT_EQ(LatencyHistogram::bucket_index(std::uint64_t{1} << 62), 63);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<std::uint64_t>::max()),
            63);
  for (int b = 1; b < LatencyHistogram::kBuckets - 1; ++b) {
    // Each bucket's bounds are consistent with bucket_index at the edges.
    EXPECT_EQ(LatencyHistogram::bucket_index(
                  LatencyHistogram::bucket_lower_ns(b)),
              b);
    EXPECT_EQ(LatencyHistogram::bucket_index(
                  LatencyHistogram::bucket_upper_ns(b) - 1),
              b);
  }
}

TEST(LatencyHistogram, MergeIsExactElementWiseAddition) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 10; ++i) a.add_ns(1000);
  for (int i = 0; i < 7; ++i) b.add_ns(1000);
  b.add_ns(0);
  b.add_ns(std::numeric_limits<std::uint64_t>::max());
  b.add_seconds(-1.0);  // dropped
  a.merge(b);
  EXPECT_EQ(a.count(), 19u);
  EXPECT_EQ(a.bucket_count(10), 17u);  // 1000 ns -> [512, 1024)
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(63), 1u);
  EXPECT_EQ(a.dropped(), 1u);
}

TEST(LatencyHistogram, PercentileGoldenSingleBucket) {
  // 100 identical 1000 ns samples live in bucket 10 = [512, 1024).
  // Linear interpolation inside the bucket gives exact, deterministic
  // quantiles: p50 -> 512 + 0.50*512 = 768, p99 -> 512 + 0.99*512 = 1018.88.
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.add_ns(1000);
  EXPECT_DOUBLE_EQ(h.percentile_ns(0.50), 768.0);
  EXPECT_DOUBLE_EQ(h.percentile_ns(0.95), 998.4);
  EXPECT_DOUBLE_EQ(h.percentile_ns(0.99), 1018.88);
  EXPECT_DOUBLE_EQ(h.percentile_s(0.50), 768.0e-9);
}

TEST(LatencyHistogram, PercentileSeparatesTailFromBody) {
  // 99 fast samples (~1 us) and 1 slow (~2 ms): the mean moves ~3%, but p99
  // must land in the slow bucket — the tail-visibility property the
  // histogram exists for.
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.add_ns(1000);
  h.add_ns(2'000'000);
  EXPECT_LT(h.percentile_ns(0.50), 1024.0);
  EXPECT_GE(h.percentile_ns(0.995), 1'048'576.0);  // slow bucket lower bound
}

TEST(LatencyHistogram, EmptyPercentileIsNaNAndDroppedCounts) {
  LatencyHistogram h;
  EXPECT_TRUE(std::isnan(h.percentile_ns(0.5)));
  h.add_seconds(std::numeric_limits<double>::quiet_NaN());
  h.add_seconds(std::numeric_limits<double>::infinity());
  h.add_seconds(-0.001);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.dropped(), 3u);
  h.add_seconds(1e-6);
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, TimerHistogramMatchesRecordedSamplesExactly) {
  FakeClockGuard clock(0);
  MetricsRegistry reg;
  const MetricId t = reg.timer("hist.timer");
  // 100 spans of exactly 1000 ns through the real ScopedTimer path.
  for (int i = 0; i < 100; ++i) {
    ScopedTimer timer(reg, t);
    clock.advance_ns(1'000);
  }
  const Snapshot snap = reg.snapshot();
  const Snapshot::Timer* timer = snap.find_timer("hist.timer");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->hist.count(), 100u);
  EXPECT_EQ(timer->hist.bucket_count(10), 100u);
  EXPECT_DOUBLE_EQ(timer->hist.percentile_ns(0.50), 768.0);
  EXPECT_EQ(snap.hist_samples_dropped, 0u);

  reg.reset();
  const Snapshot after_reset = reg.snapshot();
  const Snapshot::Timer* cleared = after_reset.find_timer("hist.timer");
  ASSERT_NE(cleared, nullptr);
  EXPECT_EQ(cleared->hist.count(), 0u);
}

TEST(MetricsRegistry, HistogramMergesAcrossThreadShards) {
  FakeClockGuard clock(0);
  MetricsRegistry reg;
  const MetricId t = reg.timer("hist.mt");
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&reg, t] {
      for (int j = 0; j < 50; ++j) reg.record_seconds(t, 1e-6);  // 1000 ns
    });
  }
  for (auto& th : threads) th.join();
  const Snapshot snap = reg.snapshot();
  const Snapshot::Timer* timer = snap.find_timer("hist.mt");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->hist.count(), 200u);
  EXPECT_EQ(timer->hist.bucket_count(10), 200u);
}

TEST(MetricsWriter, EmitsPercentileKeysAndMetaSection) {
  FakeClockGuard clock(0);
  MetricsRegistry reg;
  const MetricId t = reg.timer("json.p50");
  for (int i = 0; i < 10; ++i) {
    ScopedTimer timer(reg, t);
    clock.advance_ns(1'000);
  }
  reg.timer("json.empty");  // interned, never sampled -> null percentiles
  std::ostringstream os;
  write_metrics_json(os, reg.snapshot());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"p50_s\":7.68"), std::string::npos);  // 768 ns
  EXPECT_NE(out.find("\"p95_s\":"), std::string::npos);
  EXPECT_NE(out.find("\"p99_s\":"), std::string::npos);
  EXPECT_NE(out.find("\"p50_s\":null"), std::string::npos);  // empty timer
  EXPECT_NE(out.find("\"meta\":{\"trace_events_dropped\":0,"
                     "\"hist_samples_dropped\":0}"),
            std::string::npos);
  EXPECT_EQ(out.find("nan"), std::string::npos);
}

// --- report: latency table + drop-count footer ----------------------------

TEST(Breakdown, CarriesLatencyRowsAndDropCounts) {
  FakeClockGuard clock(0);
  MetricsRegistry reg;
  load_kernel_profile(reg);
  const MetricId t = reg.timer(kTimerPlanExecute);
  for (int i = 0; i < 8; ++i) {
    ScopedTimer timer(reg, t);
    clock.advance_ns(1'000);
  }
  const Breakdown b = build_breakdown(reg.snapshot(), 10.0, "lat");
  ASSERT_FALSE(b.latencies.empty());
  const LatencyRow* plan_row = nullptr;
  for (const LatencyRow& r : b.latencies) {
    if (r.name == kTimerPlanExecute) plan_row = &r;
  }
  ASSERT_NE(plan_row, nullptr);
  EXPECT_EQ(plan_row->count, 8u);
  EXPECT_DOUBLE_EQ(plan_row->p50_us, 0.768);

  const std::string out = format_breakdown(b);
  EXPECT_NE(out.find("per-call latency percentiles"), std::string::npos);
  EXPECT_NE(out.find("p99 us"), std::string::npos);
  EXPECT_NE(out.find(kTimerPlanExecute), std::string::npos);
  // No drops -> no warnings in the footer.
  EXPECT_EQ(out.find("warning:"), std::string::npos);
}

TEST(Breakdown, FooterSurfacesTraceAndHistogramDrops) {
  MetricsRegistry reg;
  const MetricId t = reg.timer("drop.timer");
  reg.record_seconds(t, -1.0);  // unbucketable -> hist drop
  reg.enable_tracing(true);
  constexpr std::uint64_t kCap = 1u << 18;
  for (std::uint64_t i = 0; i < kCap + 3; ++i) reg.record_span(t, i, i + 1);

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.trace_events_dropped, 3u);
  EXPECT_EQ(snap.hist_samples_dropped, 1u);

  const Breakdown b = build_breakdown(snap, 1.0, "drops");
  const std::string out = format_breakdown(b);
  EXPECT_NE(out.find("trace buffer full — 3 spans dropped"),
            std::string::npos);
  EXPECT_NE(out.find("1 histogram samples dropped"), std::string::npos);
}

// --- flight recorder (in-process paths; death paths live in
// contracts_test.cpp) --------------------------------------------------------

TEST(FlightRecorder, RecordsSpansAndCountsIntoJson) {
  flight_reset_for_tests();
  flight_record_span("flight.test.span", 100, 50);
  flight_record_count("flight.test.count", 3);
  std::ostringstream os;
  write_flight_json(os, "unit-test");
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\":\"plf-flight-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"span\",\"name\":\"flight.test.span\""),
            std::string::npos);
  EXPECT_NE(out.find("\"t_ns\":100,\"dur_ns\":50"), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"count\",\"name\":\"flight.test.count\""),
            std::string::npos);
  EXPECT_NE(out.find("\"delta\":3"), std::string::npos);
}

TEST(FlightRecorder, RingKeepsOnlyTheLastEvents) {
  flight_reset_for_tests();
  for (std::uint64_t i = 0; i < kFlightRingSize + 10; ++i) {
    flight_record_span(i % 2 == 0 ? "flight.even" : "flight.odd", i, 1);
  }
  std::ostringstream os;
  write_flight_json(os, "wrap");
  const std::string out = os.str();
  // The first 10 events were overwritten: t_ns 0..9 must be gone, the most
  // recent event must be present.
  EXPECT_EQ(out.find("\"t_ns\":3,"), std::string::npos);
  EXPECT_NE(out.find("\"t_ns\":" + std::to_string(kFlightRingSize + 9)),
            std::string::npos);
}

TEST(FlightRecorder, ScopedTimerFeedsTheRing) {
  FakeClockGuard clock(5'000);
  flight_reset_for_tests();
  MetricsRegistry reg;
  const MetricId t = reg.timer("flight.scoped");
  {
    ScopedTimer timer(reg, t, "flight.scoped");
    clock.advance_ns(2'000);
  }
  std::ostringstream os;
  write_flight_json(os, "scoped");
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"flight.scoped\""), std::string::npos);
  EXPECT_NE(out.find("\"t_ns\":5000,\"dur_ns\":2000"), std::string::npos);
}

}  // namespace
}  // namespace plf::obs
