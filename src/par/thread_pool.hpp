// Persistent worker pool with OpenMP-like parallel-for semantics.
//
// The paper parallelizes the outermost PLF loop with
// `#pragma omp parallel for` (§3.2) and observes that the spawn/sync cost of
// each parallel region is what limits scalability as the number of PLF calls
// grows (§4.1.1). We reproduce that structure: one pool is created up front,
// each `parallel_for` is a "parallel region" whose entry/exit are counted and
// timed so the multi-core timing model can be calibrated from measurements.
// Every region splits its range with OpenMP's schedule(static): one
// contiguous block per thread (static_block), the only schedule the pool
// has.
//
// Multi-region sharing (docs/SHARDING.md): unlike an OpenMP team, the pool
// accepts parallel_for calls from MANY external threads concurrently. Each
// call enqueues a region; workers drain the region queue in FIFO order,
// claiming blocks from the oldest region that still has unclaimed blocks,
// so independent engine instances can batch their plans through one shared
// pool without serializing on a single-region lock. A submitting thread only
// executes blocks of its own region (and then waits until that region
// completes), which bounds its latency by its own work plus whatever the
// workers are already committed to. Nested calls — a region body invoking
// parallel_for on the same pool — remain rejected: they could deadlock the
// workers executing the outer region.
//
// Hand-off protocol (docs/SHARDING.md has the full walk-through):
//   * Every enqueue (and shutdown) bumps `epoch_` under m_. An idle helper
//     re-checks the queue under m_, then spins on `epoch_` outside the lock
//     for a bounded time (kSpinBeforePark in thread_pool.cpp), and only then
//     parks on cv_start_. `parked_` counts parked helpers under m_, so a
//     submitter skips notify_all entirely while every helper is spinning.
//   * The submitter never sleeps on its own region. Once its claim loop
//     exits, every block is claimed and running somewhere, so it spins (with a
//     periodic yield) on the region's atomic `done` flag, which the last
//     finisher publishes with release order as its final touch of the
//     stack-owned Region.
//   * Each helper is bound to one CPU of the constructing thread's affinity
//     set: the pool's helpers take the set in order from one past that
//     thread's CPU, skipping that CPU (helper_cpu), so placement depends on
//     no earlier pool; the submitting thread is never bound. On hosts whose
//     cpusets disable scheduler load balancing
//     (cpuset.sched_load_balance = 0), a thread woken by another lands on the
//     waker's CPU and is never migrated back: unbound, a woken helper shares
//     the submitter's CPU and every static block of a region runs on that
//     one CPU. Binding keeps each helper on a CPU of its own. Binding is
//     best-effort (Linux only; a failed call or a one-CPU set leaves the
//     helper unbound).
//
// Determinism: a region always partitions [begin, end) into exactly
// `size()` contiguous blocks and passes the BLOCK index as the body's
// thread_index, no matter which thread claims which block. Reductions that
// combine per-thread_index partials in index order (ThreadedBackend::
// run_root_reduce) therefore stay bit-identical under region interleaving.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace plf::par {

/// Inclusive-exclusive index range [begin, end).
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// Block `b` of [0, n) split into `parts` contiguous blocks, the remainder
/// spread over the first blocks (OpenMP schedule(static)). The blocks tile
/// [0, n) in order and depend only on (n, parts, b); blocks b >= n are
/// empty. Requires b < parts.
Range static_block(std::size_t n, std::size_t parts, std::size_t b);

class ThreadPool {
 public:
  /// Creates `threads` workers. 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute a region (workers + calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  /// Run `body(block_range, b)` for every nonempty static block b of
  /// [begin, end) (b < size(); block_range is static_block of the range,
  /// offset by begin). Blocks until every block has completed (the implicit
  /// barrier at the end of an OpenMP parallel-for). Safe to call repeatedly
  /// and from several threads at once (regions from concurrent callers
  /// interleave on the workers); NOT reentrant from inside a region body on
  /// the same pool. Each nonempty call counts one par.regions and times
  /// par.region.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(Range, std::size_t)>& body);

 private:
  struct Region;
  void worker_loop() PLF_EXCLUDES(m_);
  /// Idle helper with m_ held and nothing claimable: spin on epoch_ outside
  /// the lock, then park on cv_start_ if no enqueue arrived meanwhile.
  /// Returns with m_ held; the caller re-checks the queue and shutdown.
  void idle_wait() PLF_REQUIRES(m_);
  /// Execute claimed block `block` of `region`. Exceptions are captured
  /// into the region.
  void run_block(Region& region, std::size_t block);
  /// Mark `region` finished if all blocks are claimed and none is running:
  /// unlinks it from the queue and publishes its done flag.
  void finish_if_complete(Region& region) PLF_REQUIRES(m_);
  /// Oldest enqueued region with unclaimed blocks, or nullptr.
  Region* claimable_region() PLF_REQUIRES(m_);

  std::vector<std::thread> workers_;  // immutable after construction

  // Region queue protocol: m_ guards the queue and every Region's claim state
  // (cursor / in-flight count). Idle helpers spin on epoch_ and then sleep on
  // cv_start_ until some region has unclaimed blocks; each submitter spins on
  // its own (stack-owned) region's done flag. A Region is unlinked under m_
  // before its done flag is published, so queue pointers never dangle.
  util::Mutex m_;
  util::CondVar cv_start_;
  std::vector<Region*> queue_ PLF_GUARDED_BY(m_);  // FIFO, oldest first
  bool shutting_down_ PLF_GUARDED_BY(m_) = false;
  /// Helpers currently parked on cv_start_.
  std::size_t parked_ PLF_GUARDED_BY(m_) = 0;
  /// Bumped under m_ on every enqueue and at shutdown; spinning helpers read
  /// it without the lock and take m_ before touching any region, so relaxed
  /// order suffices on both sides.
  std::atomic<std::uint64_t> epoch_{0};
};

/// CPU to bind helper `cursor` (0-based) of a pool to, given the affinity
/// set `cpus` (ascending) and the CPU `own_cpu` of the thread that
/// constructs the pool: the set in order from one past `own_cpu`, skipping
/// `own_cpu` itself, so no helper shares the constructing (submitting)
/// thread's CPU while the set has another. An `own_cpu` outside the set
/// starts at its first CPU. -1 (leave unbound) for fewer than two CPUs.
int helper_cpu(const std::vector<int>& cpus, int own_cpu, std::size_t cursor);

}  // namespace plf::par
