#include "exec/scheduler.hpp"

#include <utility>

#include "obs/names.hpp"
#include "obs/profile.hpp"

namespace plf::exec {

InstanceScheduler::InstanceScheduler(std::size_t n_instances)
    : n_instances_(n_instances) {}

void InstanceScheduler::start_drivers() {
  drivers_.reserve(n_instances_ - 1);
  try {
    for (std::size_t i = 1; i < n_instances_; ++i) {
      drivers_.emplace_back([this, i] { driver_loop(i); });
    }
  } catch (...) {
    // Leave no thread running, and the scheduler as if never started.
    stop_drivers();
    drivers_.clear();
    util::MutexLock lock(m_);
    stop_ = false;
    throw;
  }
}

InstanceScheduler::~InstanceScheduler() { stop_drivers(); }

void InstanceScheduler::stop_drivers() {
  {
    util::MutexLock lock(m_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : drivers_) t.join();
}

void InstanceScheduler::for_each(
    const std::function<void(std::size_t)>& fn) {
  PLF_PROF_COUNT(obs::kCounterExecRounds, 1);
  if (n_instances_ <= 1) {
    if (n_instances_ == 1) fn(0);
    return;
  }
  if (drivers_.empty()) start_drivers();
  {
    util::MutexLock lock(m_);
    job_ = &fn;
    ++round_;
    pending_.store(drivers_.size(), std::memory_order_relaxed);
  }
  start_cv_.notify_all();
  try {
    fn(0);
  } catch (...) {
    // The driver calls hold references into the caller's frame: let them
    // finish before the exception unwinds it.
    (void)wait_drivers();
    throw;
  }
  if (std::exception_ptr error = wait_drivers()) {
    std::rethrow_exception(error);
  }
}

std::exception_ptr InstanceScheduler::wait_drivers() {
  // Spin rather than sleep, as the pool's submitter does on its region: a
  // sleeping caller is woken on whichever CPU the last driver finished on,
  // so over a run it wanders across CPUs, and the single-threaded work it
  // does after the run (perfbench's next set-up) ran up to a third slower.
  for (unsigned spins = 0; pending_.load(std::memory_order_acquire) != 0;) {
    util::spin_step(spins);
  }
  util::MutexLock lock(m_);
  job_ = nullptr;
  return std::exchange(error_, nullptr);
}

void InstanceScheduler::driver_loop(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      util::MutexLock lock(m_);
      // Predicate runs with m_ held by the wait loop itself (see above).
      start_cv_.wait(m_,
                     [&]() PLF_NO_TSA { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      util::MutexLock lock(m_);
      // Hand the exception over, or drop it, under the lock: once pending_
      // reaches 0 the caller may rethrow and destroy it.
      if (!error_) error_ = std::move(error);
      error = nullptr;
    }
    pending_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace plf::exec
