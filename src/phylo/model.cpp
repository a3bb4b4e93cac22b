#include "phylo/model.hpp"

#include <cmath>

#include "util/error.hpp"

namespace plf::phylo {

GtrParams GtrParams::jc69(double shape, std::size_t cats) {
  GtrParams p;
  p.gamma_shape = shape;
  p.n_rate_categories = cats;
  return p;
}

GtrParams GtrParams::hky85(double kappa, const std::array<double, 4>& pi,
                           double shape, std::size_t cats) {
  GtrParams p;
  // Transitions (A<->G, C<->T) get rate kappa; transversions rate 1.
  p.rates = {1.0, kappa, 1.0, 1.0, kappa, 1.0};
  p.pi = pi;
  p.gamma_shape = shape;
  p.n_rate_categories = cats;
  return p;
}

num::Matrix4 build_gtr_q(const std::array<double, 6>& rates,
                         const std::array<double, 4>& pi) {
  for (double r : rates) PLF_CHECK(r > 0.0, "GTR exchangeabilities must be positive");
  double pi_sum = 0.0;
  for (double p : pi) {
    PLF_CHECK(p > 0.0, "stationary frequencies must be positive");
    pi_sum += p;
  }
  PLF_CHECK(std::abs(pi_sum - 1.0) < 1e-9, "stationary frequencies must sum to 1");

  // Upper-triangle order AC, AG, AT, CG, CT, GT.
  num::Matrix4 q;
  const std::size_t pair_index[4][4] = {{0, 0, 1, 2},
                                        {0, 0, 3, 4},
                                        {1, 3, 0, 5},
                                        {2, 4, 5, 0}};
  for (std::size_t i = 0; i < 4; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      q(i, j) = rates[pair_index[i][j]] * pi[j];
      row += q(i, j);
    }
    q(i, i) = -row;
  }

  // Normalize so the expected substitution rate at stationarity is 1
  // (branch lengths are then in expected substitutions per site).
  double mu = 0.0;
  for (std::size_t i = 0; i < 4; ++i) mu -= pi[i] * q(i, i);
  PLF_CHECK(mu > 0.0, "degenerate rate matrix");
  for (auto& v : q.m) v /= mu;
  return q;
}

TransitionMatrices::TransitionMatrices(std::size_t n_categories)
    : k_(n_categories), rm_(n_categories * 16, 0.0f), cm_(n_categories * 16, 0.0f) {}

num::Matrix4 TransitionMatrices::matrix(std::size_t k) const {
  num::Matrix4 m;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      m(i, j) = static_cast<double>(rm_[k * 16 + i * 4 + j]);
  return m;
}

void TransitionMatrices::set(std::size_t k, const num::Matrix4& p) {
  PLF_CHECK(k < k_, "rate category out of range");
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      const float v = static_cast<float>(p(i, j));
      rm_[k * 16 + i * 4 + j] = v;
      cm_[k * 16 + j * 4 + i] = v;
    }
  }
}

SubstitutionModel::SubstitutionModel(const GtrParams& params)
    : params_(params),
      q_(build_gtr_q(params.rates, params.pi)),
      spectral_(q_, params.pi),
      category_rates_(num::discrete_gamma_rates(params.gamma_shape,
                                                params.n_rate_categories)) {
  set_p_invariant(params.p_invariant);
}

void SubstitutionModel::set_p_invariant(double p_invariant) {
  PLF_CHECK(p_invariant >= 0.0 && p_invariant < 1.0,
            "p_invariant must be in [0, 1)");
  params_.p_invariant = p_invariant;
}

TransitionMatrices SubstitutionModel::transition_matrices(double t) const {
  TransitionMatrices out(n_rate_categories());
  transition_matrices(t, out);
  return out;
}

void SubstitutionModel::transition_matrices(double t,
                                            TransitionMatrices& out) const {
  if (out.n_categories() != n_rate_categories()) {
    out = TransitionMatrices(n_rate_categories());
  }
  for (std::size_t k = 0; k < n_rate_categories(); ++k) {
    out.set(k, spectral_.transition_matrix(t * category_rates_[k]));
  }
}

num::Matrix4 SubstitutionModel::transition_matrix(double t,
                                                  std::size_t category) const {
  PLF_CHECK(category < n_rate_categories(), "rate category out of range");
  return spectral_.transition_matrix(t * category_rates_[category]);
}

}  // namespace plf::phylo
