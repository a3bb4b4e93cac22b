// TSA-aware synchronization primitives.
//
// libstdc++'s std::mutex carries no Clang Thread Safety attributes, so
// PLF_GUARDED_BY(std_mutex_member) trips -Wthread-safety-attributes ("not a
// capability"). These thin wrappers attach the attributes (the same approach
// as absl::Mutex and Chromium's base::Lock) without changing the underlying
// primitive:
//
//   Mutex         std::mutex + PLF_CAPABILITY; lock/unlock/try_lock annotated.
//   MutexLock     scoped lock_guard replacement (PLF_SCOPED_CAPABILITY).
//   CondVar       std::condition_variable_any over Mutex; wait() declares
//                 PLF_REQUIRES(m) so waiting without the lock is a build break.
//   ThreadChecker a *thread-confinement* capability for the single-owner
//                 simulators (cell/mailbox, cell/dma, gpu/device_memory) and
//                 PlfEngine: members carry PLF_GUARDED_BY(checker_), every
//                 entry point calls checker_.check(), and TSA proves no
//                 confined state is touched on a path that skipped the check.
//                 At run time (checked builds) check() binds the first calling
//                 thread and aborts if any other thread ever calls in — the
//                 compile-time proof and the runtime tripwire come from one
//                 annotation. Release builds: check() is empty.
//   spin_step     one step of a bounded-latency spin-wait (pause, with a
//                 periodic yield) for waiters that must not sleep.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace plf::util {

/// Spin iterations between sched_yield calls. Keeps a spinner that shares
/// its CPU with the thread it waits for (oversubscribed pools, sanitizer
/// runs) from starving it for a whole time slice, at a few microseconds per
/// yield otherwise.
inline constexpr unsigned kSpinsPerYield = 128;

/// One step of a spin-wait: a CPU pause hint (on x86 `pause`, which eases
/// the loop-exit memory-order flush and yields pipeline resources to a
/// sibling hyperthread), and every kSpinsPerYield steps a yield instead.
/// Returns true on the yield steps.
inline bool spin_step(unsigned& spins) {
  if (++spins % kSpinsPerYield != 0) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
    return false;
  }
  std::this_thread::yield();
  return true;
}

class PLF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PLF_ACQUIRE() { m_.lock(); }
  void unlock() PLF_RELEASE() { m_.unlock(); }
  bool try_lock() PLF_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// RAII lock for Mutex; drop-in for std::lock_guard at the call sites.
class PLF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) PLF_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() PLF_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// Condition variable usable with Mutex (which is a BasicLockable).
/// wait() requires the mutex held; the predicate runs under the lock each
/// time the wait loop re-checks, but TSA analyzes the lambda as a separate
/// function with no capability context — predicates therefore carry
/// PLF_NO_TSA with a comment at each wait site.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  template <class Predicate>
  void wait(Mutex& m, Predicate pred) PLF_REQUIRES(m) {
    cv_.wait(m, std::move(pred));
  }

 private:
  std::condition_variable_any cv_;
};

/// Thread-confinement capability (see file comment). Copying yields a fresh,
/// unbound checker: a copied/moved object is a new confinement domain, and
/// std::atomic members would otherwise delete the copy operations the
/// containing value types rely on.
class PLF_CAPABILITY("thread role") ThreadChecker {
 public:
  ThreadChecker() = default;
  ThreadChecker(const ThreadChecker&) noexcept {}
  ThreadChecker& operator=(const ThreadChecker&) noexcept { return *this; }

  /// Asserts this code runs on the owning thread. The first call from any
  /// thread binds ownership (objects may be built on one thread and handed
  /// off before use). Checked builds abort on a violation; release builds
  /// compile to nothing but keep the TSA assertion.
  void check() const PLF_ASSERT_CAPABILITY(this) {
#if PLF_CONTRACTS_LEVEL
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id owner = owner_.load(std::memory_order_acquire);
    if (owner == std::thread::id{}) {
      if (owner_.compare_exchange_strong(owner, self,
                                         std::memory_order_acq_rel)) {
        return;
      }
      // Lost the race: `owner` now holds the winner; fall through to compare.
    }
    PLF_DCHECK(owner == self || owner == std::thread::id{},
               "thread-confined object touched from a second thread "
               "(see docs/STATIC_ANALYSIS.md: ThreadChecker)");
#endif
  }

  /// Release ownership so the next check() rebinds: for explicit serial
  /// handoff of a confined object to another thread.
  void detach() noexcept {
#if PLF_CONTRACTS_LEVEL
    owner_.store(std::thread::id{}, std::memory_order_release);
#endif
  }

 private:
#if PLF_CONTRACTS_LEVEL
  mutable std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace plf::util
