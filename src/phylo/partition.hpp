// Alignment partitioning (docs/SHARDING.md, "Partition specs").
//
// Production phylogenetics rarely runs one model over one matrix: alignments
// are split into partitions (genes, codon positions) that evolve under
// independent substitution models, and the run's log likelihood is the sum of
// the per-partition log likelihoods. A PartitionSpec names contiguous column
// ranges of one alignment; split() cuts the alignment into one Alignment per
// range, and `mrbayes_lite --partitions` evaluates one PlfEngine on each.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "phylo/alignment.hpp"

namespace plf::phylo {

/// One named, half-open column range [begin, end) of the parent alignment.
struct PartitionRange {
  std::string name;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t n_columns() const { return end - begin; }
};

class PartitionSpec {
 public:
  PartitionSpec() = default;

  /// Validates on construction: at least one range, each non-empty and
  /// in-bounds for `n_columns`, ranges disjoint and covering [0, n_columns)
  /// in order. Throws plf::Error otherwise.
  PartitionSpec(std::vector<PartitionRange> ranges, std::size_t n_columns);

  /// Split [0, n_columns) into `n_parts` near-equal contiguous ranges named
  /// part0..part{n-1} (remainder columns go to the first ranges).
  static PartitionSpec uniform(std::size_t n_columns, std::size_t n_parts);

  /// Parse "name1:0-499,name2:500-1203" (half-open would be unnatural on the
  /// command line, so the textual form is INCLUSIVE: 0-499 means columns
  /// [0, 500)). Column numbers are plain decimal digits; an empty entry, a
  /// sign, a space or a trailing character is refused with plf::Error.
  /// Ranges must arrive in order and cover the alignment.
  static PartitionSpec parse(const std::string& text, std::size_t n_columns);

  std::size_t n_parts() const { return ranges_.size(); }
  std::size_t n_columns() const { return n_columns_; }
  const PartitionRange& range(std::size_t i) const { return ranges_[i]; }
  const std::vector<PartitionRange>& ranges() const { return ranges_; }

  /// Per-partition alignments: the same taxa, each holding only its range's
  /// columns. Round-trips through IUPAC codes, which is exact (StateMask and
  /// IUPAC characters are in bijection).
  std::vector<Alignment> split(const Alignment& aln) const;

 private:
  std::vector<PartitionRange> ranges_;
  std::size_t n_columns_ = 0;
};

}  // namespace plf::phylo
