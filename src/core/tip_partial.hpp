// Per-branch tip-partial tables.
//
// For a tip child the inner products of Fig. 5 collapse to a lookup: the
// tip's conditional likelihood is a 0/1 vector determined by its (possibly
// ambiguous) observed state, so sum_j P_k[i][j] * tip[j] takes only 16
// possible values per (k, i). MrBayes precomputes exactly this per branch;
// so do we. Table layout: tp[mask * K * 4 + k * 4 + i].
#pragma once

#include <cstddef>

#include "phylo/model.hpp"
#include "util/aligned.hpp"

namespace plf::core {

class TipPartial {
 public:
  TipPartial() = default;

  /// Build from a branch's transition matrices (row-major layout inside).
  explicit TipPartial(const phylo::TransitionMatrices& tm);

  /// Rebuild from `tm` in place: the table keeps its storage when the
  /// category count is unchanged, so a branch rebuild allocates nothing.
  void rebuild(const phylo::TransitionMatrices& tm);

  const float* data() const { return table_.data(); }
  std::size_t n_categories() const { return k_; }

 private:
  aligned_vector<float> table_;
  std::size_t k_ = 0;
};

}  // namespace plf::core
