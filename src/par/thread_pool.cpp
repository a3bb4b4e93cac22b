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

Range static_block(std::size_t n, std::size_t parts, std::size_t b) {
  PLF_DCHECK(b < parts, "static_block: block index past the partition");
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t first = b * base + std::min(b, extra);
  const Range r{first, first + base + (b < extra ? 1 : 0)};
  // Consecutive blocks abut by construction; the last must end at n.
  PLF_DCHECK(r.end <= n && (b + 1 < parts || r.end == n),
             "static_block: blocks do not tile [0, n)");
  return r;
}

struct ThreadPool::Region {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t threads = 1;  ///< static partition width == block count
  const std::function<void(Range, std::size_t)>* body = nullptr;

  // Claim state, guarded by the owning pool's m_ (a nested struct cannot name
  // the outer instance's capability, so the proof lives in ThreadPool's
  // PLF_REQUIRES(m_) helpers that are the only accessors).
  std::size_t next_block = 0;  ///< blocks [0, next_block) are claimed
  std::size_t in_flight = 0;   ///< blocks claimed but not yet finished
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

  /// Index range of one block: depends only on (begin, end, threads), never
  /// on which thread claims the block.
  Range block_range(std::size_t block) const {
    const Range r = static_block(end - begin, threads, block);
    return Range{begin + r.begin, begin + r.end};
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
    workers_.emplace_back([this, cpu] {
      bind_current_thread(cpu);
      worker_loop();
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
    if (r->next_block < r->threads) return r;
  }
  return nullptr;
}

void ThreadPool::finish_if_complete(Region& region) {
  if (region.next_block < region.threads || region.in_flight != 0) return;
  queue_.erase(std::find(queue_.begin(), queue_.end(), &region));
  // Last touch: the submitter may destroy the Region as soon as it reads this.
  region.done.store(true, std::memory_order_release);
}

void ThreadPool::run_block(Region& region, std::size_t block) {
  const Range r = region.block_range(block);
  if (r.empty()) return;
  // One span per executed block; each thread records into its own registry
  // shard, so these show up as separate trace rows.
  PLF_PROF_SCOPE(obs::kTimerParWorker);
  ExecutingPoolScope scope(this);
  try {
    (*region.body)(r, block);
  } catch (...) {
    region.record_error();
  }
}

void ThreadPool::worker_loop() {
  m_.lock();
  while (!shutting_down_) {
    Region* region = claimable_region();
    if (region == nullptr) {
      idle_wait();
      continue;
    }
    const std::size_t block = region->next_block++;
    ++region->in_flight;
    m_.unlock();
    run_block(*region, block);
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
    if (util::spin_step(spins) && std::chrono::steady_clock::now() >= deadline) {
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

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(Range, std::size_t)>& body) {
  PLF_CHECK(begin <= end, "parallel_for: begin > end");
  if (begin == end) return;

  // A region body must not submit to the pool executing it: the workers it
  // would wait on may be the ones running the outer region. Concurrent calls
  // from distinct external threads are fine — they queue.
  PLF_CHECK(t_executing_pool != this,
            "parallel_for: nested call from inside a region body on the same "
            "pool (submit from a different thread or pool)");

  PLF_PROF_COUNT(obs::kCounterParRegions, 1);
  PLF_PROF_SCOPE(obs::kTimerParRegion);

  if (workers_.empty()) {
    // Serial pool: the one block is the whole range; an exception propagates.
    PLF_PROF_SCOPE(obs::kTimerParWorker);
    ExecutingPoolScope scope(this);
    body(Range{begin, end}, 0);
    return;
  }

  Region region;
  region.begin = begin;
  region.end = end;
  region.threads = size();
  region.body = &body;

  // Enqueue and claim our first block in one critical section.
  std::size_t block = 0;
  bool wake = false;
  {
    util::MutexLock lock(m_);
    queue_.push_back(&region);
    epoch_.fetch_add(1, std::memory_order_relaxed);
    wake = parked_ != 0;
    block = region.next_block++;
    ++region.in_flight;
  }
  if (wake) cv_start_.notify_all();
  // Participate in our own region only: helping other queued regions would
  // let their runtimes leak into this caller's latency. Workers drain
  // whatever we leave unclaimed.
  for (bool claimed = true; claimed;) {
    run_block(region, block);
    util::MutexLock lock(m_);
    --region.in_flight;
    claimed = region.next_block < region.threads;
    if (claimed) {
      block = region.next_block++;
      ++region.in_flight;
    } else {
      finish_if_complete(region);
    }
  }
  // Every block is claimed and running (or done): wait for the in-flight
  // ones without sleeping, since they are already on their CPUs.
  for (unsigned spins = 0; !region.done.load(std::memory_order_acquire);) {
    util::spin_step(spins);
  }
  // TSA finding (docs/STATIC_ANALYSIS.md): this read used to access
  // region.error bare — safe only via a happens-before edge invisible to
  // the analysis and fragile under refactoring. Read it under error_m.
  if (std::exception_ptr error = region.take_error()) {
    std::rethrow_exception(error);
  }
}

}  // namespace plf::par
