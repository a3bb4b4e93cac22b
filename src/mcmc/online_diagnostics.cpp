#include "mcmc/online_diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::mcmc {

namespace {

double nan_value() { return std::numeric_limits<double>::quiet_NaN(); }

/// Sample variance (n-1) of a [first, last) range around its own mean.
double sample_variance(const std::vector<double>& v, std::size_t first,
                       std::size_t last, double* mean_out) {
  const std::size_t n = last - first;
  double mean = 0.0;
  for (std::size_t i = first; i < last; ++i) mean += v[i];
  mean /= static_cast<double>(n);
  double ss = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    ss += (v[i] - mean) * (v[i] - mean);
  }
  if (mean_out != nullptr) *mean_out = mean;
  return n < 2 ? 0.0 : ss / static_cast<double>(n - 1);
}

}  // namespace

StreamingEss::StreamingEss(std::size_t max_batches)
    : max_batches_(max_batches) {
  PLF_CHECK(max_batches_ >= 4, "StreamingEss needs at least 4 batches");
  // Keep pair-collapse exact: an even table halves to an integer count.
  PLF_CHECK(max_batches_ % 2 == 0, "StreamingEss batch cap must be even");
  batches_.reserve(max_batches_);
}

void StreamingEss::add(double x) {
  overall_.add(x);
  cur_sum_ += x;
  if (++cur_n_ < batch_len_) return;
  batches_.push_back(cur_sum_ / static_cast<double>(batch_len_));
  cur_sum_ = 0.0;
  cur_n_ = 0;
  if (batches_.size() == max_batches_) {
    // Table full: double the batch length and merge adjacent pairs (each
    // pair of equal-length batches averages exactly into one batch of the
    // new length).
    for (std::size_t i = 0; i < batches_.size() / 2; ++i) {
      batches_[i] = 0.5 * (batches_[2 * i] + batches_[2 * i + 1]);
    }
    batches_.resize(batches_.size() / 2);
    batch_len_ *= 2;
  }
}

double StreamingEss::ess() const {
  const double n = static_cast<double>(overall_.count());
  const double s2 = overall_.variance();
  if (batches_.size() < 2 || s2 <= 0.0) return n;
  const double var_bm = sample_variance(batches_, 0, batches_.size(), nullptr);
  if (var_bm <= 0.0) return n;
  // tau = b * Var(batch means) / s^2; ESS = n / max(tau, 1), floored at 1.
  const double tau = static_cast<double>(batch_len_) * var_bm / s2;
  return std::clamp(n / std::max(tau, 1.0), 1.0, n);
}

double StreamingEss::autocorrelation_time() const {
  const std::uint64_t n = overall_.count();
  return n == 0 ? 1.0 : static_cast<double>(n) / ess();
}

double StreamingEss::split_rhat() const {
  if (batches_.size() < 4) return nan_value();
  const std::size_t half = batches_.size() / 2;
  std::vector<std::vector<double>> halves(2);
  halves[0].assign(batches_.begin(),
                   batches_.begin() + static_cast<std::ptrdiff_t>(half));
  halves[1].assign(batches_.begin() + static_cast<std::ptrdiff_t>(half),
                   batches_.end());
  return mcmc::split_rhat(halves);
}

void StreamingEss::save_state(util::BinaryWriter& w) const {
  w.section("ESSS");
  const OnlineStats::State s = overall_.state();
  w.u64(s.n);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.min);
  w.f64(s.max);
  w.u64(max_batches_);
  w.u64(batch_len_);
  w.f64(cur_sum_);
  w.u64(cur_n_);
  w.f64_array(batches_.data(), batches_.size());
}

void StreamingEss::restore_state(util::BinaryReader& r) {
  r.section("ESSS");
  OnlineStats::State s;
  s.n = r.u64();
  s.mean = r.f64();
  s.m2 = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  overall_.set_state(s);
  const std::uint64_t cap = r.u64();
  PLF_CHECK(cap == max_batches_,
            "checkpoint: StreamingEss batch cap does not match this build");
  batch_len_ = r.u64();
  cur_sum_ = r.f64();
  cur_n_ = r.u64();
  batches_ = r.f64_array();
  PLF_CHECK(batches_.size() < max_batches_,
            "checkpoint: StreamingEss batch table overflow");
  // Full capacity, as the constructor reserves: add() never reallocates,
  // also where it runs on another thread than the restore.
  batches_.reserve(max_batches_);
}

double split_rhat(const std::vector<std::vector<double>>& series) {
  // Split every series in half; all halves truncate to the common length.
  std::size_t half_len = std::numeric_limits<std::size_t>::max();
  for (const auto& s : series) half_len = std::min(half_len, s.size() / 2);
  if (series.empty() || half_len < 2) return nan_value();

  std::vector<double> seq_means;
  double within = 0.0;
  for (const auto& s : series) {
    for (std::size_t h = 0; h < 2; ++h) {
      const std::size_t first = h * half_len;
      double mean = 0.0;
      within += sample_variance(s, first, first + half_len, &mean);
      seq_means.push_back(mean);
    }
  }
  const double m = static_cast<double>(seq_means.size());
  const double n = static_cast<double>(half_len);
  within /= m;
  // Between-sequence variance: n * Var(sequence means).
  const double between =
      n * sample_variance(seq_means, 0, seq_means.size(), nullptr);
  if (within <= 0.0) {
    return between <= 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  const double var_plus = (n - 1.0) / n * within + between / n;
  return std::sqrt(var_plus / within);
}

}  // namespace plf::mcmc
