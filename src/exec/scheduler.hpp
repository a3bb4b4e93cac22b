// Multi-instance engine runtime: fixed-driver fork/join (docs/SHARDING.md).
//
// The paper accelerates ONE likelihood evaluation; production phylogenetics
// runs many at once — MrBayes steps N Metropolis-coupled chains — and
// BEAGLE's instance/resource split shows the winning shape: independent
// likelihood instances sharing a fixed hardware pool. This layer is that
// runtime for plf:
//
//   InstanceScheduler  for_each(fn) is one fork/join round: it runs fn(i)
//                      for every i in [0, N), i = 0 on the calling thread and
//                      each i >= 1 on its own DRIVER thread, then spin-waits
//                      for all of them (the caller never sleeps, so it keeps
//                      its CPU). Its one owner, the MC3 coupler, steps its
//                      chains through a whole swap interval in one round.
//                      Index i always lands on the same thread, so an engine
//                      touched only by fn(i) stays confined to one thread
//                      (its ThreadChecker binds once per handoff). The
//                      instances' backends submit parallel regions to the
//                      SHARED ThreadPool concurrently — the pool's FIFO
//                      region queue (par/thread_pool.hpp) interleaves the
//                      instances' plans at region granularity, so one
//                      instance's serial phase no longer leaves the pool
//                      idle. Every round counts once in `exec.rounds`.
//
// The driver threads below are the reason src/exec/ is exempt from the
// plf_lint raw-thread rule alongside src/par/: this layer IS the threading
// substrate other code should use instead of raw std::thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace plf::exec {

class InstanceScheduler {
 public:
  /// A scheduler for `n_instances` instances. Its `n_instances - 1` driver
  /// threads start at the first for_each, so whatever the owner does before
  /// its first fan-out (building and first evaluating its engines) runs
  /// alone; a single instance never starts one.
  explicit InstanceScheduler(std::size_t n_instances);
  ~InstanceScheduler();

  InstanceScheduler(const InstanceScheduler&) = delete;
  InstanceScheduler& operator=(const InstanceScheduler&) = delete;

  /// Run fn(i) for every i in [0, n_instances): i = 0 on the calling thread,
  /// each i >= 1 on its own driver. Returns once every call has finished,
  /// also when fn(0) throws, since the driver calls may reference the
  /// caller's frame. The caller spin-waits for the drivers and never
  /// sleeps, so it stays on its CPU. Rethrows fn(0)'s exception if it threw, else the first
  /// driver's. One caller at a time; fn must not call for_each on this
  /// scheduler.
  void for_each(const std::function<void(std::size_t)>& fn);

 private:
  void start_drivers();
  void driver_loop(std::size_t index);
  /// Stop and join every started driver.
  void stop_drivers();
  /// Block until every driver finished the current round; returns (and
  /// clears) the first exception a driver call threw.
  std::exception_ptr wait_drivers();

  util::Mutex m_;
  util::CondVar start_cv_;  ///< drivers wait here for the next round
  const std::function<void(std::size_t)>* job_ PLF_GUARDED_BY(m_) = nullptr;
  std::uint64_t round_ PLF_GUARDED_BY(m_) = 0;
  /// Drivers still running the current round; the caller spins on it.
  std::atomic<std::size_t> pending_{0};
  std::exception_ptr error_ PLF_GUARDED_BY(m_);
  bool stop_ PLF_GUARDED_BY(m_) = false;
  const std::size_t n_instances_;
  std::vector<std::thread> drivers_;
};

}  // namespace plf::exec
