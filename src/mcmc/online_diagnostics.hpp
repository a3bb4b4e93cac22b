// Streaming convergence diagnostics — the online counterparts of
// mcmc/diagnostics.hpp, computable WHILE the chain runs instead of after it.
//
// The post-hoc estimators (Geyer ESS, split frequencies) need the whole
// trace in memory and O(n^2) work; a multi-hour MC^3 run can't afford either
// on every telemetry tick. This header provides the standard bounded-memory
// replacements from the production-MCMC literature:
//
//   - StreamingEss: effective sample size by the method of batch means.
//     Samples are grouped into B batches whose size doubles whenever the
//     batch table fills, so memory stays O(B) forever while the batch length
//     grows with n (the consistency requirement: batch length >> the
//     autocorrelation time). ESS = n * s^2 / (b * Var(batch means)), the
//     classic MCMC-variance estimator inverted. Agreement with the Geyer
//     estimator in summarize_trace is validated by the goldens in
//     tests/online_diagnostics_test.cpp (documented tolerance: a factor of
//     2 on AR(1) traces once both see >= 64 batches — batch means and
//     initial-sequence estimators are both noisy, but they agree on the
//     order of magnitude, which is what a convergence monitor needs).
//
//   - split_rhat: the Gelman-Rubin potential scale reduction factor over M
//     independent chains, each split in half (so one drifting chain cannot
//     hide inside its own average). Values near 1.0 indicate the chains
//     agree; practice stops trusting runs with R-hat > 1.01..1.1. Feed it
//     one series per chain/instance (the PR-9 multi-instance runtime) or the
//     two halves of a single chain's batch means (StreamingEss::split_rhat).
//
// Everything here is plain single-threaded value semantics: the coupler owns
// the estimators and updates them from one thread at a time (its control
// thread, or the cold chain's driver inside a round, handed over at the
// round's barrier); cross-thread publication goes through the metrics
// registry / telemetry exporter, never through these objects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/stats.hpp"

namespace plf::util {
class BinaryWriter;
class BinaryReader;
}  // namespace plf::util

namespace plf::mcmc {

/// Bounded-memory streaming effective-sample-size estimator (batch means
/// with doubling batch length). add() is O(1) amortized; memory is O(max_batches).
class StreamingEss {
 public:
  /// `max_batches` caps the batch table (>= 4; default 64 — the standard
  /// sqrt-ish compromise: enough batches for a stable variance, short enough
  /// that batch length grows quickly past the autocorrelation time).
  explicit StreamingEss(std::size_t max_batches = 64);

  void add(double x);

  /// Samples seen so far.
  std::uint64_t count() const { return overall_.count(); }
  /// Mean / sample variance over ALL samples (Welford, exact).
  double mean() const { return overall_.mean(); }
  double variance() const { return overall_.variance(); }

  /// Effective sample size estimate. Defined for every state:
  ///   - fewer than 2 completed batches or zero overall variance: ESS = n
  ///     (the iid/constant-series convention summarize_trace also uses);
  ///   - otherwise n * s^2 / (b * Var(batch means)), clamped to [1, n].
  double ess() const;
  /// Integrated autocorrelation time implied by ess(): n / ESS, >= 1.
  double autocorrelation_time() const;

  /// Split-R-hat over this single chain's batch means (first half vs second
  /// half — detects a still-drifting chain). NaN until >= 4 completed
  /// batches; 1.0 for a constant series.
  double split_rhat() const;

  /// Completed batch means, oldest first (for cross-chain R-hat pooling).
  const std::vector<double>& batch_means() const { return batches_; }
  /// Samples per completed batch (doubles as the run grows).
  std::uint64_t batch_length() const { return batch_len_; }

  // --- checkpoint/restore (docs/SHARDING.md) ---
  /// Serialize the exact accumulator state ("ESSS" section): telemetry
  /// emitted after --resume must continue the uninterrupted run's estimator
  /// trajectory bit-for-bit.
  void save_state(util::BinaryWriter& w) const;
  void restore_state(util::BinaryReader& r);

 private:
  std::size_t max_batches_;
  OnlineStats overall_;
  std::vector<double> batches_;   ///< completed batch means
  std::uint64_t batch_len_ = 1;   ///< current batch length (doubles on fill)
  double cur_sum_ = 0.0;          ///< running sum of the open batch
  std::uint64_t cur_n_ = 0;       ///< samples in the open batch
};

/// Gelman-Rubin split-R-hat (PSRF) over M >= 1 series — one per independent
/// chain or instance. Each series is split in half, halves become separate
/// sequences, all sequences are truncated to the shortest half so the
/// between/within decomposition is balanced. Returns:
///   - NaN when there are no series, or the common half-length is < 2
///     (undefined — callers render "n/a", they don't propagate it);
///   - 1.0 when the pooled within-sequence variance is zero and the
///     sequence means agree (constant chains are trivially converged);
///   - +infinity when within-variance is zero but the means differ
///     (frozen chains stuck at different values never converge).
double split_rhat(const std::vector<std::vector<double>>& series);

}  // namespace plf::mcmc
