#include "par/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "util/clock.hpp"
#include "util/contracts.hpp"

namespace plf::par {

namespace {
/// How long an idle helper spins on epoch_ before it parks on cv_start_.
/// A parked helper costs the next region a futex wake-up, which is several
/// microseconds before the helper even reaches the queue — as much as a
/// whole 20 µs region's share of work. The gaps that matter are the serial
/// caller work between two regions: the par.region.*.gap60 cases put 60 µs
/// there, and a perfbench real20 trace shows about 0.3 ms/gen of serial
/// engine work (TiProbs, repeat identification, plan build) spread over
/// about 31 regions/gen, so most gaps are far shorter. 200 µs covers those
/// gaps with margin, while a pool left idle (at the end of a run, or while
/// its caller does other work) stops burning its CPUs within a fifth of a
/// millisecond.
constexpr std::chrono::microseconds kSpinBeforePark{200};

/// Spin iterations between sched_yield calls (and, for idle helpers, between
/// clock reads). Keeps a spinner that shares its CPU with the thread it
/// waits for (oversubscribed pools, sanitizer runs) from starving it for a
/// whole time slice, at a few microseconds per yield otherwise.
constexpr unsigned kSpinsPerYield = 128;

/// Hint to the CPU that we are in a spin-wait loop. On x86 this is the
/// `pause` instruction (reduces the memory-order-violation flush on loop
/// exit and yields pipeline resources to the sibling hyperthread); elsewhere
/// it is a no-op and the periodic yield provides the backoff.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// One step of a spin-wait: cpu_relax, and every kSpinsPerYield steps a
/// yield instead. Returns true on the yield steps.
bool spin_step(unsigned& spins) {
  if (++spins % kSpinsPerYield != 0) {
    cpu_relax();
    return false;
  }
  std::this_thread::yield();
  return true;
}

/// The calling thread's affinity set in ascending order (empty where
/// unknown). sched_getaffinity(0) reads the calling thread's mask, not the
/// process's: helpers inherit their creator's mask anyway, and `taskset`
/// sets every thread's, so a pool built on a thread pinned narrower than its
/// process stays inside that thread's set.
std::vector<int> affinity_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
#endif
  return cpus;
}

/// CPU the calling thread runs on, or -1 where unknown.
int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Pin the calling thread to `cpu` (no-op for -1). Best-effort: on failure
/// the thread simply stays unbound.
void bind_current_thread(int cpu) {
#if defined(__linux__)
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

/// Innermost pool whose region body this thread is currently executing.
/// parallel_for checks it to reject nested submission to the same pool (the
/// workers it would wait on may be the ones executing the outer body).
thread_local const ThreadPool* t_executing_pool = nullptr;

struct ExecutingPoolScope {
  const ThreadPool* saved;
  explicit ExecutingPoolScope(const ThreadPool* pool)
      : saved(t_executing_pool) {
    t_executing_pool = pool;
  }
  ~ExecutingPoolScope() { t_executing_pool = saved; }
};
}  // namespace

struct ThreadPool::Region {
  std::size_t begin = 0;
  std::size_t end = 0;
  Schedule schedule = Schedule::kStatic;
  std::size_t chunk = 1;
  std::size_t threads = 1;      ///< claim-slot space == static partition width
  std::size_t total_units = 0;  ///< static: `threads` blocks; dynamic: chunks
  const std::function<void(Range, std::size_t)>* body = nullptr;

  // Claim state, guarded by the owning pool's m_ (a nested struct cannot name
  // the outer instance's capability, so the proof lives in ThreadPool's
  // PLF_REQUIRES(m_) helpers that are the only accessors).
  std::size_t next_unit = 0;  ///< units [0, next_unit) are claimed
  std::size_t in_flight = 0;  ///< units claimed but not yet finished
  /// Fully executed and unlinked from the queue. Stored (release) by the last
  /// finisher as its final touch of the Region; the submitter spins on it
  /// (acquire) and may destroy the Region as soon as it reads true.
  std::atomic<bool> done{false};

  util::Mutex error_m;
  /// First exception thrown by any participant.
  std::exception_ptr error PLF_GUARDED_BY(error_m);
  void record_error() PLF_EXCLUDES(error_m) {
    util::MutexLock lock(error_m);
    if (!error) error = std::current_exception();
  }
  /// Lock-discipline helper for the caller's post-join rethrow: reads the
  /// slot under error_m (the done flag's release/acquire pair already orders
  /// every participant's writes before the caller's read, but TSA proves the
  /// simple rule "error is only touched under error_m" instead of that
  /// argument).
  std::exception_ptr take_error() PLF_EXCLUDES(error_m) {
    util::MutexLock lock(error_m);
    return error;
  }

  /// Index range of one unit. Static units are the contiguous per-thread
  /// blocks (remainder spread over the first blocks) — the partition depends
  /// only on (begin, end, threads), never on which thread claims the block.
  Range unit_range(std::size_t unit) const {
    const std::size_t total = end - begin;
    if (schedule == Schedule::kStatic) {
      const std::size_t base = total / threads;
      const std::size_t extra = total % threads;
      const std::size_t my_size = base + (unit < extra ? 1 : 0);
      const std::size_t my_begin =
          begin + unit * base + std::min(unit, extra);
      return Range{my_begin, my_begin + my_size};
    }
    const std::size_t start = unit * chunk;
    return Range{begin + start, begin + std::min(total, start + chunk)};
  }

  /// thread_index the body sees for this unit: the block index itself under
  /// static scheduling (determinism contract), the claimer's stable slot
  /// under dynamic.
  std::size_t unit_thread_index(std::size_t unit, std::size_t slot) const {
    return schedule == Schedule::kStatic ? unit : slot;
  }
};

int helper_cpu(const std::vector<int>& cpus, int own_cpu, std::size_t cursor) {
  if (cpus.size() < 2) return -1;
  const auto own = std::find(cpus.begin(), cpus.end(), own_cpu);
  if (own == cpus.end()) return cpus[cursor % cpus.size()];
  const auto first = static_cast<std::size_t>(own - cpus.begin()) + 1;
  return cpus[(first + cursor % (cpus.size() - 1)) % cpus.size()];
}

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread is worker 0; spawn n-1 helpers, each on its own CPU.
  const std::vector<int> cpus = affinity_cpus();
  const int own_cpu = current_cpu();
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    const int cpu = helper_cpu(cpus, own_cpu, i - 1);
    workers_.emplace_back([this, i, cpu] {
      bind_current_thread(cpu);
      worker_loop(i);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(m_);
    shutting_down_ = true;
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::Region* ThreadPool::claimable_region() {
  for (Region* r : queue_) {
    if (r->next_unit < r->total_units) return r;
  }
  return nullptr;
}

void ThreadPool::finish_if_complete(Region& region) {
  if (region.next_unit < region.total_units || region.in_flight != 0) return;
  queue_.erase(std::find(queue_.begin(), queue_.end(), &region));
  // Last touch: the submitter may destroy the Region as soon as it reads this.
  region.done.store(true, std::memory_order_release);
}

void ThreadPool::run_unit(Region& region, std::size_t unit, std::size_t slot) {
  const Range r = region.unit_range(unit);
  if (r.empty()) return;
  // One span per executed unit; each thread records into its own registry
  // shard, so these show up as separate trace rows.
  PLF_PROF_SCOPE(obs::kTimerParWorker);
  ExecutingPoolScope scope(this);
  try {
    (*region.body)(r, region.unit_thread_index(unit, slot));
  } catch (...) {
    region.record_error();
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  // worker_index in [1, size()) is this thread's stable dynamic-schedule
  // claim slot; slot 0 belongs to whichever thread submitted the region.
  m_.lock();
  while (!shutting_down_) {
    Region* region = claimable_region();
    if (region == nullptr) {
      idle_wait();
      continue;
    }
    const std::size_t unit = region->next_unit++;
    ++region->in_flight;
    m_.unlock();
    run_unit(*region, unit, worker_index);
    m_.lock();
    --region->in_flight;
    finish_if_complete(*region);
  }
  m_.unlock();
}

void ThreadPool::idle_wait() {
  // Any enqueue after this read bumps the epoch; one before it is already
  // visible in the queue our caller just found empty.
  const std::uint64_t seen = epoch_.load(std::memory_order_relaxed);
  m_.unlock();
  const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
  bool woken = false;
  for (unsigned spins = 0;;) {
    if (epoch_.load(std::memory_order_relaxed) != seen) {
      woken = true;
      break;
    }
    if (spin_step(spins) && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
  }
  m_.lock();
  if (woken) return;
  // Park. The predicate re-checks the queue under m_ before sleeping, and
  // every enqueue that finds parked_ > 0 notifies after releasing m_, so a
  // region enqueued between the spin's last read and here is never missed.
  ++parked_;
  // Predicate runs with m_ held by the wait loop itself; TSA analyzes the
  // lambda without that context, hence the exemption.
  cv_start_.wait(m_, [&]() PLF_NO_TSA {
    return shutting_down_ || claimable_region() != nullptr;
  });
  --parked_;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(Range, std::size_t)>& body,
                              Schedule schedule, std::size_t chunk) {
  PLF_CHECK(begin <= end, "parallel_for: begin > end");
  const std::size_t total = end - begin;
  if (total == 0) return;

  // A region body must not submit to the pool executing it: the workers it
  // would wait on may be the ones running the outer region. Concurrent calls
  // from distinct external threads are fine — they queue.
  PLF_CHECK(t_executing_pool != this,
            "parallel_for: nested call from inside a region body on the same "
            "pool (submit from a different thread or pool)");

  Stopwatch sw;
  PLF_PROF_COUNT(obs::kCounterParRegions, 1);
  PLF_PROF_SCOPE(obs::kTimerParRegion);

  Region region;
  region.begin = begin;
  region.end = end;
  region.schedule = schedule;
  region.threads = size();
  region.body = &body;
  if (chunk == 0) {
    // Default dynamic chunk: aim for ~4 chunks per thread.
    chunk = std::max<std::size_t>(1, total / (4 * region.threads));
  }
  region.chunk = chunk;
  region.total_units = schedule == Schedule::kStatic
                           ? region.threads
                           : (total + chunk - 1) / chunk;
  PLF_DCHECK(region.chunk >= 1, "parallel_for: zero dynamic chunk");
  PLF_DCHECK(region.threads >= 1, "parallel_for: pool has no threads");

  if (workers_.empty()) {
    // Serial pool: run every unit inline; the first exception propagates and
    // abandons the rest, matching the single participant's old share.
    for (std::size_t u = 0; u < region.total_units; ++u) {
      const Range r = region.unit_range(u);
      if (r.empty()) continue;
      PLF_PROF_SCOPE(obs::kTimerParWorker);
      ExecutingPoolScope scope(this);
      (*region.body)(r, region.unit_thread_index(u, 0));
    }
  } else {
    // Enqueue and claim our first unit in one critical section.
    std::size_t unit = 0;
    bool wake = false;
    {
      util::MutexLock lock(m_);
      queue_.push_back(&region);
      epoch_.fetch_add(1, std::memory_order_relaxed);
      wake = parked_ != 0;
      unit = region.next_unit++;
      ++region.in_flight;
    }
    if (wake) cv_start_.notify_all();
    // Participate in our own region only (claim slot 0): helping other
    // queued regions would let their runtimes leak into this caller's
    // latency. Workers drain whatever we leave unclaimed.
    for (bool claimed = true; claimed;) {
      run_unit(region, unit, 0);
      util::MutexLock lock(m_);
      --region.in_flight;
      claimed = region.next_unit < region.total_units;
      if (claimed) {
        unit = region.next_unit++;
        ++region.in_flight;
      } else {
        finish_if_complete(region);
      }
    }
    // Every unit is claimed and running (or done): wait for the in-flight
    // ones without sleeping, since they are already on their CPUs.
    for (unsigned spins = 0; !region.done.load(std::memory_order_acquire);) {
      spin_step(spins);
    }
    // TSA finding (docs/STATIC_ANALYSIS.md): this read used to access
    // region.error bare — safe only via a happens-before edge invisible to
    // the analysis and fragile under refactoring. Read it under error_m.
    if (std::exception_ptr error = region.take_error()) {
      std::rethrow_exception(error);
    }
  }

  {
    util::MutexLock lock(stats_m_);
    ++stats_.regions;
    // The body time is included here; callers interested purely in overhead
    // should time empty regions (see the calibration bench).
    stats_.region_overhead_s += sw.seconds();
  }
}

void ThreadPool::parallel_for_each(std::size_t begin, std::size_t end,
                                   const std::function<void(std::size_t)>& body) {
  parallel_for(begin, end, [&body](Range r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) body(i);
  });
}

PoolStats ThreadPool::stats() const {
  util::MutexLock lock(stats_m_);
  return stats_;
}

void ThreadPool::reset_stats() {
  util::MutexLock lock(stats_m_);
  stats_ = PoolStats{};
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace plf::par
