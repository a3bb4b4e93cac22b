// TSan-targeted stress tests for the parallel runtime.
//
// These tests deliberately create heavy cross-thread traffic through
// ThreadPool::parallel_for from 8 threads — more than the CI hosts have
// cores — so the ThreadSanitizer preset checks the happens-before edges the
// PLF backends rely on (the region hand-off: the epoch word helpers spin on,
// the done flag the submitter spins on, the park/notify path) under real
// oversubscription. Under the plain presets they double as functional checks
// that every index is visited exactly once and no region is lost or torn.
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "exec/scheduler.hpp"
#include "mcmc/coupled.hpp"
#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "par/thread_pool.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace plf::par {
namespace {

constexpr std::size_t kThreads = 8;

TEST(ParStressTest, StaticScheduleCoversEveryIndexExactlyOnce) {
  ThreadPool pool(kThreads);
  const std::size_t n = 20'000;
  std::vector<std::uint8_t> visits(n, 0);  // disjoint ranges: no atomics needed
  for (int region = 0; region < 25; ++region) {
    pool.parallel_for(0, n, [&](Range r, std::size_t) {
      for (std::size_t i = r.begin; i < r.end; ++i) visits[i]++;
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i], 25) << "index " << i;
  }
}

TEST(ParStressTest, ParallelForResultVisibleToNonParticipatingReader) {
  // The implicit end-of-region barrier must publish body writes to ANY thread
  // that observes parallel_for's return, not just the workers.
  ThreadPool pool(kThreads);
  std::vector<double> sums(kThreads, 0.0);
  pool.parallel_for(0, 4096, [&](Range r, std::size_t t) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      sums[t] += static_cast<double>(i);
    }
  });
  double total = 0.0;
  std::thread reader([&] {
    for (double s : sums) total += s;
  });
  reader.join();
  EXPECT_DOUBLE_EQ(total, 4095.0 * 4096.0 / 2.0);
}

TEST(ParStressTest, BarrierInsideParallelForRegions) {
  // Every static block of a region runs at the same time, on its own thread:
  // all pool threads rendezvous mid-region, which deadlocks if the hand-off
  // ever lets one thread run two blocks of the same region in sequence.
  ThreadPool pool(kThreads);
  std::barrier<> barrier(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::uint64_t> phase1(kThreads, 0);
  std::atomic<int> mismatches{0};
  for (int region = 0; region < 20; ++region) {
    pool.parallel_for(0, kThreads, [&](Range r, std::size_t t) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        phase1[t] = static_cast<std::uint64_t>(region) + 1;
      }
      barrier.arrive_and_wait();
      const std::uint64_t expect = static_cast<std::uint64_t>(region) + 1;
      if (phase1[(t + 1) % kThreads] != expect) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(mismatches.load(), 0);
}

/// Busy caller-side work between regions: a serial gap the helpers see as
/// idle time. Wall-clock, so sanitizer slowdowns do not stretch it.
void serial_gap(Rng& rng, double max_us) {
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::micro>(rng.uniform(0.0, max_us));
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Random 0–400 µs gaps straddle the pool's 200 µs spin-before-park bound, so
/// successive regions find their helpers spinning, parking, or parked.
constexpr double kMaxGapUs = 400.0;

/// One submitter's run of gapped regions: each region writes its index into
/// a plain (non-atomic) slot per element, and the caller checks every slot
/// after parallel_for returns — a lost, torn or unpublished block is a
/// mismatch here and a data race under TSan. Every region must also pass
/// each block's own index as thread_index, exactly once.
int run_gapped_regions(ThreadPool& pool, std::uint64_t seed, int regions) {
  Rng rng(seed);
  constexpr std::size_t kN = 257;  // not a multiple of the pool size
  std::vector<std::uint64_t> slot(kN, 0);
  int mismatches = 0;
  for (int region = 1; region <= regions; ++region) {
    serial_gap(rng, kMaxGapUs);
    const auto stamp = static_cast<std::uint64_t>(region);
    std::vector<std::uint8_t> block_seen(pool.size(), 0);
    pool.parallel_for(0, kN, [&](Range r, std::size_t t) {
      ++block_seen[t];  // one static block per index
      for (std::size_t i = r.begin; i < r.end; ++i) slot[i] = stamp;
    });
    for (std::size_t i = 0; i < kN; ++i) {
      if (slot[i] != stamp) ++mismatches;
    }
    for (std::uint8_t seen : block_seen) {
      if (seen != 1) ++mismatches;
    }
  }
  return mismatches;
}

TEST(ParStressTest, GappedRegionsFromOneSubmitterCrossTheParkBound) {
  ThreadPool pool(4);
  EXPECT_EQ(run_gapped_regions(pool, 11, 300), 0);
}

TEST(ParStressTest, GappedRegionsFromFourConcurrentSubmitters) {
  // Four external threads share one pool; their regions queue FIFO, and a
  // submitter that finishes its own blocks spins until a helper running its
  // last block publishes done.
  ThreadPool pool(4);
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < mismatches.size(); ++s) {
    submitters.emplace_back([&, s] {
      mismatches[s] = run_gapped_regions(pool, 100 + s, 150);
    });
  }
  for (auto& th : submitters) th.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

/// One submitter's run of regions of random length and offset, many shorter
/// than the pool: every call must get exactly begin + static_block(n, size,
/// b) as block b, each nonempty block once and no empty block at all, even
/// while other submitters' regions interleave on the same workers.
int run_exact_blocks(ThreadPool& pool, std::uint64_t seed, int regions) {
  Rng rng(seed);
  int mismatches = 0;
  for (int region = 0; region < regions; ++region) {
    const std::size_t begin = rng.below(50);
    const std::size_t n = 1 + rng.below(3 * pool.size());
    std::vector<Range> got(pool.size());
    std::vector<std::uint8_t> calls(pool.size(), 0);
    pool.parallel_for(begin, begin + n, [&](Range r, std::size_t b) {
      ++calls[b];
      got[b] = r;
    });
    for (std::size_t b = 0; b < pool.size(); ++b) {
      const Range want = static_block(n, pool.size(), b);
      if (calls[b] != (want.empty() ? 0 : 1)) ++mismatches;
      if (!want.empty() && (got[b].begin != begin + want.begin ||
                            got[b].end != begin + want.end)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

TEST(ParStressTest, ConcurrentSubmittersGetExactStaticBlocks) {
  ThreadPool pool(4);
  std::vector<int> mismatches(3, 0);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < mismatches.size(); ++s) {
    submitters.emplace_back([&, s] {
      mismatches[s] = run_exact_blocks(pool, 300 + s, 400);
    });
  }
  for (auto& th : submitters) th.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(ParStressTest, ThrowingGappedRegionsPropagateExactlyOnce) {
  // A throwing block must still count as finished (the region completes and
  // is unlinked), the exception reaches only its own submitter, and the
  // pool keeps working — whether its helpers were spinning or parked.
  ThreadPool pool(4);
  std::vector<int> failures(3, 0);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < failures.size(); ++s) {
    submitters.emplace_back([&, s] {
      Rng rng(200 + s);
      for (int region = 0; region < 120; ++region) {
        serial_gap(rng, kMaxGapUs);
        const bool throws = region % 2 == 0;
        const std::size_t bad_block = static_cast<std::size_t>(region / 2) % 4;
        std::atomic<std::size_t> ran{0};
        bool caught = false;
        try {
          pool.parallel_for(0, 64, [&](Range r, std::size_t t) {
            ran.fetch_add(r.size(), std::memory_order_relaxed);
            if (throws && t == bad_block) {
              throw Error("stress: gapped region failure");
            }
          });
        } catch (const Error&) {
          caught = true;
        }
        if (caught != throws) ++failures[s];
        if (ran.load(std::memory_order_relaxed) != 64) ++failures[s];
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (int f : failures) EXPECT_EQ(f, 0);
}

TEST(ParStressTest, PoolDestroyedWhileHelpersSpinOrPark) {
  // Shutdown bumps the epoch (wakes spinning helpers) and notifies cv_start_
  // (wakes parked ones); either way the destructor must join promptly.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> n{0};
    {
      ThreadPool spinning(4);
      spinning.parallel_for(0, 100, [&](Range r, std::size_t) {
        n.fetch_add(r.size(), std::memory_order_relaxed);
      });
    }  // helpers are still inside their spin window here
    {
      ThreadPool parked(4);
      parked.parallel_for(0, 100, [&](Range r, std::size_t) {
        n.fetch_add(r.size(), std::memory_order_relaxed);
      });
      // Well past the 200 µs spin bound: the helpers have parked.
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    { ThreadPool never_used(4); }
    EXPECT_EQ(n.load(std::memory_order_relaxed), 200u);
  }
}

TEST(ParStressTest, EightThreadPoolSharesCpusWithGappedRegions) {
  // Eight threads on a 4-CPU affinity set: helpers bound round-robin share
  // CPUs, so a spinning helper competes with the one running a block. Every
  // block must still run concurrently (the rendezvous) and every gapped
  // region must complete.
  ThreadPool pool(kThreads);
  std::barrier<> barrier(static_cast<std::ptrdiff_t>(kThreads));
  Rng rng(77);
  std::atomic<int> blocks{0};
  for (int region = 0; region < 60; ++region) {
    serial_gap(rng, kMaxGapUs);
    pool.parallel_for(0, kThreads, [&](Range, std::size_t) {
      barrier.arrive_and_wait();
      blocks.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(blocks.load(std::memory_order_relaxed), 60 * kThreads);
  EXPECT_EQ(run_gapped_regions(pool, 78, 100), 0);
}

TEST(ParStressTest, RepeatCompactedEngineUnderOversubscription) {
  // Site-repeat compaction hands every worker thread the SAME read-only
  // class maps (NodeRepeats::unique_sites, and each compacted child's
  // class_of_site) while they write disjoint compacted row ranges; a parent
  // level reads those rows, from any worker's chunk, only after the pool's
  // end-of-region barrier. Oversubscribed repeated evaluations give TSan a
  // dense interleaving of those shared reads; under plain presets this
  // doubles as a bitwise on-vs-off equivalence check.
  // Both engines run on the SAME oversubscribed pool: the threaded root
  // reduce fixes its summation order per backend configuration, so the
  // compacted and dense engines stay bit-comparable.
  ThreadPool pool(kThreads);
  core::ThreadedBackend threaded(pool);

  Rng rng(4242);
  // Short branches: sequences stay similar, so repeat classes are plentiful
  // and the compacted path is guaranteed to engage.
  auto tree = seqgen::yule_tree(12, rng, 1.0, 0.05);
  auto params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(600, rng));

  core::PlfEngine on(data, params, tree, threaded,
                     core::KernelVariant::kSimdCol,
                     core::SiteRepeatsMode::kOn);
  core::PlfEngine off(data, params, tree, threaded,
                      core::KernelVariant::kSimdCol,
                      core::SiteRepeatsMode::kOff);
  ASSERT_TRUE(on.site_repeats_enabled());
  EXPECT_EQ(on.log_likelihood(), off.log_likelihood());

  // Keep the pool busy re-running compacted kernels: branch moves recompute
  // root paths, NNIs additionally force class re-identification.
  const auto edges = on.tree().internal_edge_nodes();
  ASSERT_FALSE(edges.empty());
  for (int round = 0; round < 12; ++round) {
    const int leaf = on.tree().leaf_of(round % 12);
    const double len = 0.02 + 0.01 * round;
    on.set_branch_length(leaf, len);
    off.set_branch_length(leaf, len);
    if (round % 3 == 0) {
      const int v = edges[static_cast<std::size_t>(round) % edges.size()];
      on.begin_proposal();
      off.begin_proposal();
      on.apply_nni(v, round % 2 == 0);
      off.apply_nni(v, round % 2 == 0);
      EXPECT_EQ(on.log_likelihood(), off.log_likelihood());
      on.reject();
      off.reject();
    }
    EXPECT_EQ(on.log_likelihood(), off.log_likelihood());
  }
  EXPECT_GT(on.stats().repeat_down_hits, 0u);
}

TEST(ParStressTest, PlanDispatchHammeredWhileMetricsFlusherReads) {
  // ThreadedBackend::run_plan opens one fused parallel region per dependency
  // level and records plan.* counters/timers into the GLOBAL registry from
  // the calling thread, while 8 oversubscribed workers execute the fused
  // down+scale chunks. A concurrent flusher thread snapshots that registry
  // the whole time, and the engine publishes its gauge stats between
  // evaluations — the exact writer mix a live profiling run produces. Under
  // TSan this checks the region-boundary and registry-shard edges of the
  // batched path; under plain presets it doubles as a plan-vs-percall
  // bitwise equivalence check on a shared hot pool.
  ThreadPool pool(kThreads);
  core::ThreadedBackend threaded(pool);

  Rng rng(1717);
  auto tree = seqgen::yule_tree(12, rng, 1.0, 0.05);
  auto params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(600, rng));

  core::PerCallBackend per_call(threaded);
  core::PlfEngine plan(data, params, tree, threaded,
                       core::KernelVariant::kSimdCol,
                       core::SiteRepeatsMode::kOn);
  core::PlfEngine percall(data, params, tree, per_call,
                          core::KernelVariant::kSimdCol,
                          core::SiteRepeatsMode::kOn);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
      (void)snap.counter_value(obs::kCounterPlanOps);
      (void)snap.gauge_value(obs::kGaugeEnginePlanBuilds);
      (void)snap.timer_total_s(obs::kTimerPlanLevel);
    }
  });

  EXPECT_EQ(plan.log_likelihood(), percall.log_likelihood());
  const auto edges = plan.tree().internal_edge_nodes();
  ASSERT_FALSE(edges.empty());
  for (int round = 0; round < 12; ++round) {
    const int leaf = plan.tree().leaf_of(round % 12);
    const double len = 0.02 + 0.01 * round;
    plan.set_branch_length(leaf, len);
    percall.set_branch_length(leaf, len);
    if (round % 3 == 0) {
      const int v = edges[static_cast<std::size_t>(round) % edges.size()];
      plan.begin_proposal();
      percall.begin_proposal();
      plan.apply_nni(v, round % 2 == 0);
      percall.apply_nni(v, round % 2 == 0);
      EXPECT_EQ(plan.log_likelihood(), percall.log_likelihood());
      plan.reject();
      percall.reject();
    }
    EXPECT_EQ(plan.log_likelihood(), percall.log_likelihood());
    plan.publish_stats(obs::MetricsRegistry::global());
  }
  stop.store(true, std::memory_order_release);
  flusher.join();

  EXPECT_GT(plan.stats().plan_builds, 0u);
  EXPECT_GT(plan.stats().plan_ops, plan.stats().plan_builds);
}

TEST(ParStressTest, BudgetedArenaHammeredWhileMetricsFlusherReads) {
  // The budgeted CLV arena adds one more cross-thread shape to the plan
  // path: the engine thread mutates arena structural state (acquire/evict/
  // pin) between and during fused regions, its stats mutex publishes the
  // arena.* counters, and a concurrent flusher reads those gauges from the
  // global registry the whole time — the exact mix a live profiling run of
  // a memory-constrained chain produces. Under TSan this checks the
  // stats-mutex edge between the evaluation thread and the flusher; under
  // plain presets it doubles as a budgeted-vs-unbudgeted bitwise
  // equivalence check on a hot oversubscribed pool.
  ThreadPool pool(kThreads);
  core::ThreadedBackend threaded(pool);

  Rng rng(3131);
  auto tree = seqgen::yule_tree(12, rng, 1.0, 0.05);
  auto params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(600, rng));

  core::PlfEngine budgeted(data, params, tree, threaded,
                           core::KernelVariant::kSimdCol,
                           core::SiteRepeatsMode::kOn,
                           core::clv_budget_from_string("0.5"));
  core::PlfEngine full(data, params, tree, threaded,
                       core::KernelVariant::kSimdCol,
                       core::SiteRepeatsMode::kOn);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
      // engine.clv_bytes is published at construction, so it is visible
      // from the very first snapshot; the budget gauge never moves.
      (void)snap.gauge_value(obs::kGaugeEngineClvBytes);
      (void)snap.gauge_value(obs::kGaugeArenaBudgetBytes);
      (void)snap.gauge_value(obs::kGaugeArenaEvictions);
      (void)snap.gauge_value(obs::kGaugeArenaRecomputeOps);
      (void)snap.gauge_value(obs::kGaugeArenaHitRate);
    }
  });

  EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
  const auto edges = budgeted.tree().internal_edge_nodes();
  ASSERT_FALSE(edges.empty());
  for (int round = 0; round < 12; ++round) {
    const int leaf = budgeted.tree().leaf_of(round % 12);
    const double len = 0.02 + 0.01 * round;
    budgeted.set_branch_length(leaf, len);
    full.set_branch_length(leaf, len);
    if (round % 3 == 0) {
      const int v = edges[static_cast<std::size_t>(round) % edges.size()];
      budgeted.begin_proposal();
      full.begin_proposal();
      budgeted.apply_nni(v, round % 2 == 0);
      full.apply_nni(v, round % 2 == 0);
      EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
      budgeted.reject();
      full.reject();
    }
    EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
    // Thread-safe reads of the arena counters race the evaluation thread's
    // updates by design; the gauges they feed are flushed every round.
    EXPECT_LE(budgeted.arena().resident_bytes(),
              budgeted.arena().budget_bytes());
    budgeted.publish_stats(obs::MetricsRegistry::global());
  }
  stop.store(true, std::memory_order_release);
  flusher.join();

  EXPECT_GT(budgeted.arena().counters().evictions, 0u);
  EXPECT_EQ(full.arena().counters().evictions, 0u);
  EXPECT_GT(budgeted.arena().counters().hit_rate(), 0.0);
}

TEST(ParStressTest, TipFusedKernelsHammeredWhileMetricsFlusherReads) {
  // Tip children add one cross-thread shape to the fused plan path: every
  // worker reads the SAME read-only tip-partial tables (BranchState::tp,
  // rebuilt by the caller thread between evaluations when a tip branch
  // moves) while writing disjoint CLV/scaler chunks through the fused
  // down+scale entries. Hammer exactly that — tip-branch moves rebuild
  // tables between regions, NNIs re-pair cherries — with a concurrent
  // flusher snapshotting the global registry and the engine publishing its
  // plan gauges each round. Under TSan this checks the rebuild/consume edge
  // across the region boundary; under plain presets it doubles as a
  // plan-vs-percall bitwise equivalence check of the tip kernels on a hot
  // oversubscribed pool.
  ThreadPool pool(kThreads);
  core::ThreadedBackend threaded(pool);

  Rng rng(2929);
  auto tree = seqgen::yule_tree(12, rng, 1.0, 0.05);
  auto params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(600, rng));

  core::PerCallBackend per_call(threaded);
  core::PlfEngine plan(data, params, tree, threaded,
                       core::KernelVariant::kSimdCol,
                       core::SiteRepeatsMode::kOff);
  core::PlfEngine percall(data, params, tree, per_call,
                          core::KernelVariant::kSimdCol,
                          core::SiteRepeatsMode::kOff);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
      (void)snap.gauge_value(obs::kGaugeEnginePlanOps);
      (void)snap.gauge_value(obs::kGaugeEngineTmBuilds);
    }
  });

  EXPECT_EQ(plan.log_likelihood(), percall.log_likelihood());
  const auto edges = plan.tree().internal_edge_nodes();
  ASSERT_FALSE(edges.empty());
  for (int round = 0; round < 12; ++round) {
    // Leaf-branch moves: each one rebuilds a tip-partial buffer before the
    // next region reads it.
    const int leaf = plan.tree().leaf_of(round % 12);
    const double len = 0.02 + 0.01 * round;
    plan.set_branch_length(leaf, len);
    percall.set_branch_length(leaf, len);
    if (round % 3 == 0) {
      const int v = edges[static_cast<std::size_t>(round) % edges.size()];
      plan.begin_proposal();
      percall.begin_proposal();
      plan.apply_nni(v, round % 2 == 0);
      percall.apply_nni(v, round % 2 == 0);
      EXPECT_EQ(plan.log_likelihood(), percall.log_likelihood());
      plan.reject();
      percall.reject();
    }
    EXPECT_EQ(plan.log_likelihood(), percall.log_likelihood());
    plan.publish_stats(obs::MetricsRegistry::global());
  }
  stop.store(true, std::memory_order_release);
  flusher.join();

  EXPECT_GT(plan.stats().plan_ops, 0u);
  EXPECT_EQ(plan.stats().plan_ops, percall.stats().plan_ops);
}

TEST(ParStressTest, MultiInstanceSchedulerHammeredWhileMetricsFlusherReads) {
  // The multi-instance runtime (exec/scheduler.hpp) adds the last cross-
  // thread shape: four engines, one on the caller and three on fixed driver
  // threads, all submit regions to ONE oversubscribed pool concurrently,
  // while a flusher thread snapshots the global registry the engines publish
  // their per-instance gauges into between evaluations. Under TSan this
  // checks the region queue's cross-submitter edges and the driver handoff
  // (ThreadChecker detach/rebind); under plain presets it checks the
  // concurrent engines stay bit-identical to a twin stepped inline through
  // the same moves on the same backend (concurrency must not change the
  // arithmetic).
  ThreadPool pool(kThreads);
  core::ThreadedBackend threaded(pool);

  Rng rng(5151);
  auto tree = seqgen::yule_tree(12, rng, 1.0, 0.05);
  auto params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(600, rng));

  constexpr std::size_t kInstances = 4;
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < kInstances; ++i) {
    engines.push_back(std::make_unique<core::PlfEngine>(
        data, params, tree, threaded, core::KernelVariant::kSimdCol,
        core::SiteRepeatsMode::kOn));
  }
  core::PlfEngine reference(data, params, tree, threaded,
                            core::KernelVariant::kSimdCol,
                            core::SiteRepeatsMode::kOn);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
      (void)snap.gauge_value("inst0.engine.down_calls");
      (void)snap.gauge_value("inst3.engine.down_calls");
      (void)snap.counter_value(obs::kCounterPlanOps);
    }
  });

  {
    exec::InstanceScheduler sched(kInstances);
    for (std::size_t i = 0; i < kInstances; ++i) {
      engines[i]->set_instance_label("inst" + std::to_string(i));
      // Built (and first evaluated) here: hand off to the fixed threads.
      engines[i]->detach_thread();
    }
    const auto edges = reference.tree().internal_edge_nodes();
    ASSERT_FALSE(edges.empty());
    std::vector<double> lnl(kInstances);
    for (int round = 0; round < 12; ++round) {
      const int leaf = reference.tree().leaf_of(round % 12);
      const double len = 0.02 + 0.01 * round;
      const int v = edges[static_cast<std::size_t>(round) % edges.size()];
      const bool nni_round = round % 3 == 0;
      sched.for_each([&](std::size_t id) {
        core::PlfEngine& e = *engines[id];
        e.set_branch_length(leaf, len);
        if (nni_round) {
          e.begin_proposal();
          e.apply_nni(v, round % 2 == 0);
          e.log_likelihood();
          e.reject();
        }
        lnl[id] = e.log_likelihood();
        e.publish_stats(obs::MetricsRegistry::global());
      });
      reference.set_branch_length(leaf, len);
      if (nni_round) {
        reference.begin_proposal();
        reference.apply_nni(v, round % 2 == 0);
        reference.log_likelihood();
        reference.reject();
      }
      // Concurrent engines match the inline twin bit-for-bit, and
      // each other (all four ran the identical move sequence).
      const double expect = reference.log_likelihood();
      for (std::size_t i = 0; i < kInstances; ++i) {
        EXPECT_EQ(lnl[i], expect) << "instance " << i << " round " << round;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  flusher.join();

  // Per-instance gauge labels kept the four engines' stats distinct.
  const obs::Snapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(snap.gauge_value("inst0.engine.down_calls"), 0.0);
  EXPECT_GT(snap.gauge_value("inst3.engine.down_calls"), 0.0);
}

TEST(ParStressTest, NestedParallelForIsRejected) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [&](Range, std::size_t) {
                                   pool.parallel_for(
                                       0, 1, [](Range, std::size_t) {});
                                 }),
               Error);
  // Pool remains usable after the rejected nested call.
  std::atomic<int> n{0};
  pool.parallel_for(0, 8, [&](Range r, std::size_t) {
    n.fetch_add(static_cast<int>(r.size()));
  });
  EXPECT_EQ(n.load(), 8);
}

TEST(ParStressTest, MetricsRegistryHammeredWhileFlusherReads) {
  // 8 pool workers record counters, timer samples, and trace spans into the
  // registry while a dedicated reader thread snapshots and drains the trace
  // buffer in a tight loop. Under TSan this exercises the shard-mutex
  // handoff between writers and the flusher; under the plain presets it
  // checks that concurrent flushes never lose or duplicate a record.
  obs::MetricsRegistry reg;
  const obs::MetricId counter = reg.counter("stress.counter");
  const obs::MetricId timer = reg.timer("stress.timer");
  reg.enable_tracing(true);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const obs::Snapshot snap = reg.snapshot();
      const std::uint64_t seen = snap.counter_value("stress.counter");
      EXPECT_GE(seen, last);  // totals only grow while writers run
      last = seen;
      const auto* t = snap.find_timer("stress.timer");
      if (t != nullptr && t->stats.count() > 0) {
        EXPECT_DOUBLE_EQ(t->stats.min(), 1e-6);
        EXPECT_DOUBLE_EQ(t->stats.max(), 1e-6);
      }
      (void)reg.trace_events();
    }
  });

  ThreadPool pool(kThreads);
  constexpr std::size_t kN = 20'000;
  constexpr int kRounds = 10;  // kN * kRounds spans stay under the trace cap
  for (int round = 0; round < kRounds; ++round) {
    pool.parallel_for(0, kN, [&](Range r, std::size_t) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        reg.add(counter);
        reg.record_seconds(timer, 1e-6);
        reg.record_span(timer, i, i + 1);
      }
    });
  }
  stop.store(true, std::memory_order_release);
  flusher.join();

  const obs::Snapshot snap = reg.snapshot();
  constexpr std::uint64_t kTotal = static_cast<std::uint64_t>(kN) * kRounds;
  EXPECT_EQ(snap.counter_value("stress.counter"), kTotal);
  const auto* t = snap.find_timer("stress.timer");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->stats.count(), kTotal);
  EXPECT_EQ(reg.trace_events().size(), kTotal);
  EXPECT_EQ(reg.trace_events_dropped(), 0u);
}

TEST(ParStressTest, HistogramAndFlightHammeredWhileFlusherReads) {
  // Pool workers record timer samples (feeding the per-shard latency
  // histograms) and append flight-recorder events, while one reader thread
  // snapshots percentiles and serializes the flight rings in a loop. Under
  // TSan this checks the histogram shard-merge and the lock-free ring's
  // seqlock-style publish/read protocol; under plain presets it checks the
  // merged histogram is exact despite concurrent flushes.
  obs::flight_reset_for_tests();
  obs::MetricsRegistry reg;
  const obs::MetricId timer = reg.timer("stress.hist");

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::Snapshot snap = reg.snapshot();
      const auto* t = snap.find_timer("stress.hist");
      if (t != nullptr && t->hist.count() > 0) {
        // Every sample is exactly 1000 ns -> bucket [512, 1024); the merged
        // view must never show mass elsewhere, even mid-run.
        EXPECT_EQ(t->hist.bucket_count(10), t->hist.count());
        const double p99 = t->hist.percentile_ns(0.99);
        EXPECT_GE(p99, 512.0);
        EXPECT_LE(p99, 1024.0);
      }
      EXPECT_EQ(snap.hist_samples_dropped, 0u);
      std::ostringstream os;
      obs::write_flight_json(os, "stress");
      EXPECT_EQ(os.str().find("nan"), std::string::npos);
    }
  });

  ThreadPool pool(kThreads);
  constexpr std::size_t kN = 20'000;
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    pool.parallel_for(0, kN, [&](Range r, std::size_t) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        reg.record_seconds(timer, 1e-6);  // 1000 ns exactly
        obs::flight_record_span("stress.flight", i, 1);
        if (i % 64 == 0) obs::flight_record_count("stress.flight.count", 1);
      }
    });
  }
  stop.store(true, std::memory_order_release);
  flusher.join();

  const obs::Snapshot snap = reg.snapshot();
  const auto* t = snap.find_timer("stress.hist");
  ASSERT_NE(t, nullptr);
  constexpr std::uint64_t kTotal = static_cast<std::uint64_t>(kN) * kRounds;
  EXPECT_EQ(t->hist.count(), kTotal);
  EXPECT_EQ(t->hist.bucket_count(10), kTotal);
  EXPECT_EQ(snap.hist_samples_dropped, 0u);

  // Quiescent rings serialize consistently: the last writers' events are
  // visible and well-formed.
  std::ostringstream os;
  obs::write_flight_json(os, "stress-final");
  EXPECT_NE(os.str().find("\"name\":\"stress.flight\""), std::string::npos);
}

TEST(ParStressTest, RegionExceptionRethrownWhileStatsReadersRace) {
  // Regression for the TSA lock-discipline finding in parallel_for
  // (docs/STATIC_ANALYSIS.md): the caller used to read Region::error bare
  // after waiting for the region — safe only via the wait's happens-before
  // edge (today the done flag's release/acquire pair), invisible to the
  // analysis and fragile under refactoring. It now goes through
  // Region::take_error() under error_m. This hammers that path with
  // throwing bodies from every worker while a dedicated thread polls the
  // metrics registry, where every region records its par.regions count and
  // par.region span, the whole time; TSan checks both sides, the plain
  // presets check no exception is ever lost or doubled.
  ThreadPool pool(kThreads);
  std::atomic<bool> stop{false};
  std::thread stats_reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t regions =
          obs::MetricsRegistry::global().snapshot().counter_value(
              obs::kCounterParRegions);
      EXPECT_GE(regions, last);  // counters only grow
      last = regions;
    }
  });

  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    int caught = 0;
    try {
      pool.parallel_for(0, kThreads * 8, [&](Range r, std::size_t) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          if (i % 8 == 3) throw Error("stress: region body failure");
        }
      });
    } catch (const Error& e) {
      caught = 1;
      EXPECT_NE(std::string(e.what()).find("region body failure"),
                std::string::npos);
    }
    EXPECT_EQ(caught, 1) << "region exception swallowed in round " << round;
  }

  // The pool survives every failed region.
  std::atomic<int> n{0};
  pool.parallel_for(0, 128, [&](Range r, std::size_t) {
    n.fetch_add(static_cast<int>(r.size()), std::memory_order_relaxed);
  });
  EXPECT_EQ(n.load(std::memory_order_relaxed), 128);

  stop.store(true, std::memory_order_release);
  stats_reader.join();
}

TEST(ParStressTest, FreshThreadFirstRecordRacesSnapshotLoop) {
  // Regression for the metrics flush-ordering finding
  // (docs/STATIC_ANALYSIS.md): snapshot() used to copy the shard-pointer
  // list under the registry lock, release it, then merge each shard — so a
  // fresh thread's first record could register its shard mid-flush and the
  // "snapshot" was not a consistent cut. snapshot() now holds the registry
  // lock across the whole merge. The invariant checked here: a sample fully
  // recorded (thread joined) before a snapshot starts can never be missing
  // from it. Each recording thread is brand new, so every add() exercises
  // the make_shard registration path against the flush loop.
  obs::MetricsRegistry reg;
  const obs::MetricId counter = reg.counter("stress.fresh");

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> committed{0};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t floor = committed.load(std::memory_order_acquire);
      const obs::Snapshot snap = reg.snapshot();
      EXPECT_GE(snap.counter_value("stress.fresh"), floor);
    }
  });

  constexpr int kFreshThreads = 64;
  for (int i = 0; i < kFreshThreads; ++i) {
    std::thread recorder([&] { reg.add(counter); });
    recorder.join();
    committed.fetch_add(1, std::memory_order_release);
  }

  stop.store(true, std::memory_order_release);
  flusher.join();
  EXPECT_EQ(reg.snapshot().counter_value("stress.fresh"),
            static_cast<std::uint64_t>(kFreshThreads));
}

TEST(ParStressTest, TelemetryExporterHammeredWhileChainsRun) {
  // Live telemetry's cross-thread contract (obs/exporter.hpp): the run
  // thread exports records at its cadence while monitor threads poll
  // records_written()/last_generation()/due() and re-parse the atomically
  // renamed status file in a tight loop — exactly what `plf_status --follow`
  // does against a live run. Under TSan this checks the exporter's mutex
  // covers every counter the monitors read; under the plain presets it
  // checks the status file is always a complete parseable document and the
  // JSONL history never tears a line.
  Rng rng(6161);
  auto tree = seqgen::yule_tree(6, rng, 1.0, 0.15);
  auto params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(80, rng));

  core::SerialBackend backend;
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (int i = 0; i < 3; ++i) {
    engines.push_back(
        std::make_unique<core::PlfEngine>(data, params, tree, backend));
  }

  // Pid-qualified names: concurrent ctest invocations sharing one TMPDIR
  // must not append to each other's telemetry history.
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const std::string jsonl =
      ::testing::TempDir() + "plf" + tag + "_stress_telemetry.jsonl";
  const std::string status =
      ::testing::TempDir() + "plf" + tag + "_stress_status.json";
  std::remove(jsonl.c_str());
  std::remove(status.c_str());
  obs::MetricsRegistry registry;
  obs::TelemetryOptions topts;
  topts.jsonl_path = jsonl;
  topts.status_path = status;
  topts.every_generations = 5;  // export aggressively: contention, not cadence
  obs::TelemetryExporter exporter(topts, &registry);

  std::atomic<bool> stop{false};
  std::vector<std::thread> monitors;
  for (int m = 0; m < 3; ++m) {
    monitors.emplace_back([&, m] {
      std::uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t written = exporter.records_written();
        const std::uint64_t gen = exporter.last_generation();
        EXPECT_GE(written, last_seen) << "records_written went backwards";
        last_seen = written;
        (void)exporter.due(gen + static_cast<std::uint64_t>(m));
        if (written > 0) {
          // The tmp+rename protocol guarantees a complete document even
          // while export_record is mid-rewrite on the run thread.
          const json::Value rec = json::parse_file(status);
          EXPECT_EQ(rec.at("schema").as_string(),
                    obs::TelemetryExporter::kSchema);
        }
      }
    });
  }

  mcmc::CoupledOptions opts;
  opts.chain.seed = 59;
  opts.chain.sample_every = 10;
  opts.swap_every = 5;
  opts.telemetry = &exporter;
  mcmc::CoupledChains mc3(std::move(engines), opts);
  mc3.run(300);

  stop.store(true, std::memory_order_release);
  for (std::thread& t : monitors) t.join();

  EXPECT_EQ(exporter.records_written(), 60u);
  std::ifstream in(jsonl, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(json::parse(line).at("schema").as_string(),
              obs::TelemetryExporter::kSchema);
  }
  EXPECT_EQ(lines, 60u);
}

}  // namespace
}  // namespace plf::par
