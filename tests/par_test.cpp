#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

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

TEST(ThreadPoolTest, CoversAllIndicesExactlyOnceDynamic) {
  ThreadPool p(3);
  std::vector<std::atomic<int>> hits(777);
  p.parallel_for(
      0, hits.size(),
      [&](Range r, std::size_t) {
        for (std::size_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
      },
      Schedule::kDynamic, 10);
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
    cursor = ranges[t].second;
  }
  EXPECT_EQ(cursor, 103u);
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool p(8);
  std::vector<std::atomic<int>> hits(3);
  p.parallel_for(0, hits.size(), [&](Range r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
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

TEST(ThreadPoolTest, ParallelForEach) {
  ThreadPool p(3);
  std::vector<std::atomic<int>> hits(50);
  p.parallel_for_each(0, 50, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, StatsCountRegions) {
  ThreadPool p(2);
  p.reset_stats();
  for (int i = 0; i < 5; ++i) {
    p.parallel_for(0, 10, [](Range, std::size_t) {});
  }
  EXPECT_EQ(p.stats().regions, 5u);
  EXPECT_GE(p.stats().region_overhead_s, 0.0);
  p.reset_stats();
  EXPECT_EQ(p.stats().regions, 0u);
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

TEST(DefaultPoolTest, IsSingleton) {
  EXPECT_EQ(&default_pool(), &default_pool());
  EXPECT_GE(default_pool().size(), 1u);
}

}  // namespace
}  // namespace plf::par
