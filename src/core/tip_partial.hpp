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

  const float* data() const { return table_.data(); }
  std::size_t n_categories() const { return k_; }

 private:
  aligned_vector<float> table_;
  std::size_t k_ = 0;
};

/// Per-edge-pair tip×tip table for cherry nodes (docs/KERNELS.md): when both
/// children of a node are tips, cond_like_down's output row is l_tp[lm] *
/// r_tp[rm] elementwise — a function of the (left_mask, right_mask) pair
/// alone, of which there are only kNumMasks² = 256. Precomputing all pairs
/// turns the fused down+scale kernel into a gather (TipTipArgs). Each pair's
/// row is stored prescaled, with its log scale factor: the scale-kernel body
/// applied once per pair, so gathering it is bit-identical to rescaling the
/// product row per site.
///
/// Memory: kNumMasks² × K × 4 floats + kNumMasks² factors per cherry
/// (17 KiB at K=4) — independent of the pattern count.
class TipPairTable {
 public:
  TipPairTable() = default;

  /// Build from the two child branches' tip-partial tables (equal K).
  TipPairTable(const TipPartial& left, const TipPartial& right);

  /// Prescaled product rows, pair-major: scaled()[pair * K * 4 + k * 4 + i]
  /// with pair = left_mask * kNumMasks + right_mask.
  const float* scaled() const { return scaled_.data(); }
  /// Per-pair log scale factor, indexed by pair.
  const float* ln_factors() const { return ln_.data(); }
  std::size_t n_categories() const { return k_; }

 private:
  aligned_vector<float> scaled_;
  aligned_vector<float> ln_;
  std::size_t k_ = 0;
};

}  // namespace plf::core
