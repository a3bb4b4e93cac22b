// Nucleotide substitution models (JC69, HKY85, GTR) with discrete-Γ rate
// variation — the statistical machinery behind the paper's Q matrix (Fig. 2)
// and the 4-rate conditional likelihood elements (Fig. 3).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "numerics/discrete_gamma.hpp"
#include "numerics/eigen.hpp"
#include "numerics/matrix4.hpp"
#include "util/aligned.hpp"

namespace plf::phylo {

/// Exchangeability order used throughout: AC, AG, AT, CG, CT, GT.
struct GtrParams {
  std::array<double, 6> rates{1, 1, 1, 1, 1, 1};  ///< relative exchangeabilities
  std::array<double, 4> pi{0.25, 0.25, 0.25, 0.25};  ///< stationary frequencies
  double gamma_shape = 1.0;        ///< Γ shape alpha for among-site variation
  std::size_t n_rate_categories = 4;  ///< discrete-Γ categories (paper uses 4)
  /// Proportion of invariable sites (the +I of GTR+I+Γ). 0 disables the
  /// invariant-sites mixture.
  double p_invariant = 0.0;

  static GtrParams jc69(double shape = 1.0, std::size_t cats = 4);
  static GtrParams hky85(double kappa, const std::array<double, 4>& pi,
                         double shape = 1.0, std::size_t cats = 4);
};

/// Per-branch transition probabilities for every rate category, stored in
/// single precision in the layouts the kernels consume:
///   row-major:    tiP[k*16 + i*4 + j] = P_k(t)[i][j]   (approach i)
///   column-major: tiPT[k*16 + j*4 + i] = P_k(t)[i][j]  (approach ii, the
///   transposed matrices the paper precomputes for column-wise SPU access)
class TransitionMatrices {
 public:
  TransitionMatrices() = default;
  TransitionMatrices(std::size_t n_categories);

  std::size_t n_categories() const { return k_; }

  float* row_major() { return rm_.data(); }
  const float* row_major() const { return rm_.data(); }
  float* col_major() { return cm_.data(); }
  const float* col_major() const { return cm_.data(); }

  /// P for category k as a double-precision matrix (test/diagnostic use).
  num::Matrix4 matrix(std::size_t k) const;

  /// Write category k of both layouts from its double-precision matrix.
  void set(std::size_t k, const num::Matrix4& p);

 private:
  std::size_t k_ = 0;
  aligned_vector<float> rm_;
  aligned_vector<float> cm_;
};

/// A fully-specified reversible substitution process: normalized Q, spectral
/// decomposition, and discrete-Γ category rates.
class SubstitutionModel {
 public:
  explicit SubstitutionModel(const GtrParams& params);

  const GtrParams& params() const { return params_; }
  /// Change p_invariant alone: nothing else of the model depends on it.
  void set_p_invariant(double p_invariant);
  const num::Matrix4& q() const { return q_; }
  const std::array<double, 4>& pi() const { return params_.pi; }
  std::size_t n_rate_categories() const { return params_.n_rate_categories; }
  const std::vector<double>& category_rates() const { return category_rates_; }

  /// Transition matrices P(r_k * t) for all categories at branch length t.
  TransitionMatrices transition_matrices(double t) const;
  /// The same matrices written into `out`, whose storage is reused when it
  /// already holds n_rate_categories() categories: a rebuild into an
  /// existing buffer allocates nothing. The one code path of both forms.
  void transition_matrices(double t, TransitionMatrices& out) const;

  /// Double-precision P(t) for one category (test/diagnostic use).
  num::Matrix4 transition_matrix(double t, std::size_t category) const;

 private:
  GtrParams params_;
  num::Matrix4 q_;
  num::ReversibleSpectral spectral_;
  std::vector<double> category_rates_;
};

/// Build the normalized GTR rate matrix (mean rate 1) for the given params.
num::Matrix4 build_gtr_q(const std::array<double, 6>& rates,
                         const std::array<double, 4>& pi);

}  // namespace plf::phylo
