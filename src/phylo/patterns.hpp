// Site-pattern compression.
//
// "Identical alignment columns can be compressed into column patterns under
// ML, which are then assigned a respective higher per-pattern weight. Hence,
// in our experiments the number of columns corresponds exactly to the number
// of patterns and thus to the length of the compute-intensive for loops"
// (§4). This module performs that compression and also reproduces the
// paper's dataset-preparation step of extracting a fixed number of *distinct*
// columns from a longer simulated alignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "phylo/alignment.hpp"
#include "phylo/dna.hpp"
#include "util/aligned.hpp"

namespace plf::phylo {

/// A compressed alignment: one column per *distinct* site pattern plus an
/// integer weight (multiplicity). This is the structure the PLF kernels
/// iterate over; its pattern count is the paper's "m".
class PatternMatrix {
 public:
  PatternMatrix() = default;

  /// Compress a full alignment into distinct patterns with multiplicities.
  /// Patterns keep first-occurrence order, matching how MrBayes compresses.
  static PatternMatrix compress(const Alignment& aln);

  /// Extract the first `count` distinct patterns of `aln`, all with weight 1
  /// (the paper's sub-alignment extraction; throws if the alignment has
  /// fewer distinct patterns than requested).
  static PatternMatrix distinct_prefix(const Alignment& aln, std::size_t count);

  /// Assemble directly from per-pattern columns (each of length n_taxa) and
  /// weights. Used by the dataset generator, which deduplicates on the fly.
  static PatternMatrix from_patterns(
      std::vector<std::string> names,
      const std::vector<std::vector<StateMask>>& patterns,
      std::vector<std::uint32_t> weights);

  std::size_t n_taxa() const { return names_.size(); }
  std::size_t n_patterns() const { return n_patterns_; }

  /// Total column count represented (sum of weights).
  std::uint64_t total_weight() const;

  const std::vector<std::string>& names() const { return names_; }
  const aligned_vector<std::uint32_t>& weights() const { return weights_; }

  /// Mask of taxon `t` at pattern `p`.
  StateMask at(std::size_t t, std::size_t p) const {
    return data_[t * stride_ + p];
  }

  /// Row of masks for one taxon (length n_patterns(); the row start is
  /// 128-byte aligned so simulated Cell DMA can stream tip masks directly).
  const StateMask* row(std::size_t t) const { return &data_[t * stride_]; }

 private:
  void init_storage(std::size_t n_taxa, std::size_t n_patterns) {
    n_patterns_ = n_patterns;
    stride_ = round_up(n_patterns, kDmaAlignBytes);
    data_.assign(n_taxa * stride_, kGapMask);
  }
  StateMask& cell(std::size_t t, std::size_t p) { return data_[t * stride_ + p]; }

  std::vector<std::string> names_;
  aligned_vector<StateMask> data_;  // row-major, rows padded to stride_
  aligned_vector<std::uint32_t> weights_;
  std::size_t n_patterns_ = 0;
  std::size_t stride_ = 0;
};

}  // namespace plf::phylo
