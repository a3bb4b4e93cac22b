#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "par/thread_pool.hpp"
#include "util/error.hpp"

namespace plf::par {
namespace {

TEST(ThreadPoolTest, SizeIncludesCaller) {
  ThreadPool p(4);
  EXPECT_EQ(p.size(), 4u);
  ThreadPool p1(1);
  EXPECT_EQ(p1.size(), 1u);
}

TEST(ThreadPoolTest, CoversAllIndicesExactlyOnceStatic) {
  ThreadPool p(4);
  std::vector<std::atomic<int>> hits(1000);
  p.parallel_for(0, hits.size(), [&](Range r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NonZeroBegin) {
  ThreadPool p(2);
  std::atomic<std::size_t> sum{0};
  p.parallel_for(100, 200, [&](Range r, std::size_t) {
    std::size_t local = 0;
    for (std::size_t i = r.begin; i < r.end; ++i) local += i;
    sum += local;
  });
  std::size_t expect = 0;
  for (std::size_t i = 100; i < 200; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool p(2);
  bool ran = false;
  p.parallel_for(5, 5, [&](Range, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, RejectsInvertedRange) {
  ThreadPool p(2);
  EXPECT_THROW(p.parallel_for(3, 1, [](Range, std::size_t) {}), Error);
}

TEST(ThreadPoolTest, StaticPartitionIsContiguousPerThread) {
  ThreadPool p(4);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(4, {~0ull, 0});
  std::mutex m;
  p.parallel_for(0, 103, [&](Range r, std::size_t tid) {
    std::lock_guard<std::mutex> l(m);
    ranges[tid] = {r.begin, r.end};
  });
  // Ranges must tile [0, 103) in thread order.
  std::size_t cursor = 0;
  for (std::size_t t = 0; t < 4; ++t) {
    if (ranges[t].first == ~0ull) continue;  // thread got no work
    EXPECT_EQ(ranges[t].first, cursor);
    EXPECT_EQ(ranges[t].second, static_block(103, 4, t).end);
    cursor = ranges[t].second;
  }
  EXPECT_EQ(cursor, 103u);
}

TEST(ThreadPoolTest, StaticBlocksTileTheRangeInOrder) {
  for (std::size_t parts = 1; parts <= 9; ++parts) {
    for (std::size_t n = 0; n <= 40; ++n) {
      std::size_t cursor = 0;
      for (std::size_t b = 0; b < parts; ++b) {
        const Range r = static_block(n, parts, b);
        EXPECT_EQ(r.begin, cursor) << "n " << n << " parts " << parts;
        // Sizes differ by at most one, larger blocks first.
        EXPECT_EQ(r.size(), n / parts + (b < n % parts ? 1 : 0));
        cursor = r.end;
      }
      EXPECT_EQ(cursor, n) << "n " << n << " parts " << parts;
    }
  }
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool p(8);
  std::vector<std::atomic<int>> hits(3);
  p.parallel_for(0, hits.size(), [&](Range r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyBlocksAreNeverRun) {
  // Three indices over five threads: blocks 0..2 hold one index each,
  // offset by begin, and the empty blocks 3 and 4 never reach the body.
  ThreadPool p(5);
  std::vector<std::atomic<int>> calls(p.size());
  std::vector<Range> got(p.size());
  p.parallel_for(10, 13, [&](Range r, std::size_t b) {
    calls[b].fetch_add(1);
    got[b] = r;
  });
  for (std::size_t b = 0; b < p.size(); ++b) {
    const Range want = static_block(3, p.size(), b);
    EXPECT_EQ(calls[b].load(), want.empty() ? 0 : 1) << "block " << b;
    if (want.empty()) continue;
    EXPECT_EQ(got[b].begin, 10 + want.begin) << "block " << b;
    EXPECT_EQ(got[b].end, 10 + want.end) << "block " << b;
  }
}

TEST(ThreadPoolTest, ManySmallRegionsDoNotDeadlock) {
  ThreadPool p(4);
  std::atomic<std::size_t> total{0};
  for (int rep = 0; rep < 2000; ++rep) {
    p.parallel_for(0, 4, [&](Range r, std::size_t) {
      total += r.size();
    });
  }
  EXPECT_EQ(total.load(), 8000u);
}

TEST(ThreadPoolTest, StatsCountRegions) {
  // Every nonempty parallel_for is one par.regions count in the registry;
  // an empty range opens no region.
  ThreadPool p(2);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::uint64_t before =
      reg.snapshot().counter_value(obs::kCounterParRegions);
  for (int i = 0; i < 5; ++i) {
    p.parallel_for(0, 10, [](Range, std::size_t) {});
  }
  p.parallel_for(3, 3, [](Range, std::size_t) {});
  const std::uint64_t regions =
      reg.snapshot().counter_value(obs::kCounterParRegions) - before;
#if defined(PLF_PROFILING_ENABLED)
  EXPECT_EQ(regions, 5u);
#else
  EXPECT_EQ(regions, 0u);
#endif
}

TEST(ThreadPoolTest, ExceptionsInBodyDoNotCorruptPool) {
  // Exceptions must not escape worker threads; we only guarantee behavior
  // for the calling thread's share here.
  ThreadPool p(1);
  EXPECT_THROW(
      p.parallel_for(0, 4, [](Range, std::size_t) { throw Error("boom"); }),
      Error);
  // Pool still usable.
  std::atomic<int> n{0};
  p.parallel_for(0, 4, [&](Range r, std::size_t) {
    n += static_cast<int>(r.size());
  });
  EXPECT_EQ(n.load(), 4);
}

TEST(HelperCpuTest, SkipsTheConstructingCpu) {
  const std::vector<int> cpus = {0, 1, 2, 3};
  const int from3[] = {0, 1, 2, 0, 1, 2};
  const int from1[] = {2, 3, 0, 2, 3, 0};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(helper_cpu(cpus, 3, i), from3[i]) << "cursor " << i;
    EXPECT_EQ(helper_cpu(cpus, 1, i), from1[i]) << "cursor " << i;
  }
  // A sparse set: positions, not CPU numbers, advance.
  const std::vector<int> sparse = {2, 5, 7};
  EXPECT_EQ(helper_cpu(sparse, 5, 0), 7);
  EXPECT_EQ(helper_cpu(sparse, 5, 1), 2);
  EXPECT_EQ(helper_cpu(sparse, 5, 2), 7);
}

TEST(HelperCpuTest, OwnCpuOutsideTheSetUsesTheWholeSet) {
  const std::vector<int> cpus = {0, 1, 2, 3};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(helper_cpu(cpus, 9, i), cpus[i % 4]);
    EXPECT_EQ(helper_cpu(cpus, -1, i), cpus[i % 4]);
  }
}

TEST(HelperCpuTest, FewerThanTwoCpusLeaveHelpersUnbound) {
  EXPECT_EQ(helper_cpu({}, 0, 0), -1);
  EXPECT_EQ(helper_cpu({4}, 4, 0), -1);
  EXPECT_EQ(helper_cpu({4}, 0, 3), -1);
}

TEST(ThreadPoolTest, PoolBuiltOnAPinnedThreadStaysOnItsCpu) {
#if defined(__linux__)
  // A pool reads the affinity set of the thread that builds it, and its
  // helpers inherit that thread's mask: built on a thread pinned to one CPU,
  // every block runs on that CPU. Only the spawned thread's mask changes.
  // Each block waits until both have started, so the helper runs one.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  if (CPU_COUNT(&allowed) < 2) {
    GTEST_SKIP() << "affinity set has fewer than 2 CPUs";
  }
  int target = 0;
  while (!CPU_ISSET(target, &allowed)) ++target;

  bool pinned = false;
  bool both_started = true;
  std::vector<int> block_cpus;
  std::thread t([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(target, &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) != 0) return;
    pinned = true;
    ThreadPool p(2);
    std::vector<int> cpus(p.size(), -1);
    std::atomic<std::size_t> started{0};
    std::atomic<bool> timed_out{false};
    p.parallel_for(0, 64, [&](Range, std::size_t block) {
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (started.load() < 2) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
      cpus[block] = sched_getcpu();
    });
    both_started = !timed_out.load();
    block_cpus = cpus;
  });
  t.join();
  if (!pinned) GTEST_SKIP() << "pthread_setaffinity_np failed";
  EXPECT_TRUE(both_started) << "the helper never ran a block";
  for (std::size_t b = 0; b < block_cpus.size(); ++b) {
    EXPECT_EQ(block_cpus[b], target) << "block " << b;
  }
#else
  GTEST_SKIP() << "CPU affinity is Linux-only";
#endif
}

}  // namespace
}  // namespace plf::par
