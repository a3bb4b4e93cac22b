// RAII phase timers and the PLF_PROF_* instrumentation macros.
//
// Usage at an instrumentation point:
//
//   void PlfEngine::evaluate() {
//     ...
//     { PLF_PROF_SCOPE("plf.CondLikeDown"); backend_->run_down(...); }
//
// The macro interns the metric name once (function-local static), then
// records one OnlineStats timer sample per scope exit — and, when tracing is
// enabled on the global registry, one chrome://tracing span. With
// -DPLF_PROFILING=OFF the macros expand to nothing: kernels compile exactly
// as before, the "zero overhead when disabled" guarantee.
#pragma once

#include <cstdint>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace plf::obs {

/// Times one lexical scope into a registry timer (and the trace buffer when
/// tracing is on). Duration source is plf::now_ns(), so tests with an
/// injected fake clock get exact durations.
///
/// When constructed with a non-null `name` (a string literal — the flight
/// ring stores the pointer) the completed span is also appended to this
/// thread's flight-recorder ring, so crash dumps show the last scopes the
/// thread ran. PLF_PROF_SCOPE always passes its name literal.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry& registry, MetricId id,
              const char* name = nullptr)
      : registry_(&registry), id_(id), name_(name), start_ns_(now_ns()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    std::uint64_t end_ns = now_ns();
    if (end_ns < start_ns_) end_ns = start_ns_;  // defensive vs fake clocks
    registry_->record_seconds(
        id_, static_cast<double>(end_ns - start_ns_) * 1e-9);
    if (registry_->tracing_enabled()) {
      registry_->record_span(id_, start_ns_, end_ns);
    }
    if (name_ != nullptr) {
      flight_record_span(name_, start_ns_, end_ns - start_ns_);
    }
  }

 private:
  MetricsRegistry* registry_;
  MetricId id_;
  const char* name_;
  std::uint64_t start_ns_;
};

}  // namespace plf::obs

// Two-level expansion so __LINE__ pastes into unique identifiers.
#define PLF_PROF_CONCAT_IMPL(a, b) a##b
#define PLF_PROF_CONCAT(a, b) PLF_PROF_CONCAT_IMPL(a, b)

#if defined(PLF_PROFILING_ENABLED)

/// Time the enclosing scope under `name` in the global registry.
#define PLF_PROF_SCOPE(name)                                                  \
  static const ::plf::obs::MetricId PLF_PROF_CONCAT(plf_prof_id_, __LINE__) = \
      ::plf::obs::MetricsRegistry::global().timer(name);                      \
  const ::plf::obs::ScopedTimer PLF_PROF_CONCAT(plf_prof_scope_, __LINE__)(   \
      ::plf::obs::MetricsRegistry::global(),                                  \
      PLF_PROF_CONCAT(plf_prof_id_, __LINE__), name)

/// Add `delta` to the counter `name` in the global registry.
#define PLF_PROF_COUNT(name, delta)                                           \
  do {                                                                        \
    static const ::plf::obs::MetricId plf_prof_count_id =                     \
        ::plf::obs::MetricsRegistry::global().counter(name);                  \
    ::plf::obs::MetricsRegistry::global().add(                                \
        plf_prof_count_id, static_cast<std::uint64_t>(delta));                \
    ::plf::obs::flight_record_count(name,                                     \
                                    static_cast<std::uint64_t>(delta));       \
  } while (false)

/// Publish `value` to the gauge `name` in the global registry (cold paths).
#define PLF_PROF_GAUGE(name, value)                                           \
  do {                                                                        \
    static const ::plf::obs::MetricId plf_prof_gauge_id =                     \
        ::plf::obs::MetricsRegistry::global().gauge(name);                    \
    ::plf::obs::MetricsRegistry::global().set_gauge(                          \
        plf_prof_gauge_id, static_cast<double>(value));                       \
  } while (false)

#else  // profiling compiled out: zero code, zero overhead

#define PLF_PROF_SCOPE(name) static_cast<void>(0)
#define PLF_PROF_COUNT(name, delta) static_cast<void>(0)
#define PLF_PROF_GAUGE(name, value) static_cast<void>(0)

#endif  // PLF_PROFILING_ENABLED
