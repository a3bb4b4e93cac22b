#include "phylo/patterns.hpp"

#include <string>
#include <unordered_map>

#include "util/error.hpp"

namespace plf::phylo {

namespace {

/// Column of masks as a hashable key.
std::string column_key(const Alignment& aln, std::size_t c) {
  std::string key(aln.n_taxa(), '\0');
  for (std::size_t t = 0; t < aln.n_taxa(); ++t) {
    key[t] = static_cast<char>(aln.at(t, c));
  }
  return key;
}

}  // namespace

PatternMatrix PatternMatrix::compress(const Alignment& aln) {
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::string> patterns;  // in first-occurrence order
  std::vector<std::uint32_t> weights;
  for (std::size_t c = 0; c < aln.n_columns(); ++c) {
    auto [it, inserted] = index.try_emplace(column_key(aln, c), patterns.size());
    if (inserted) {
      patterns.push_back(it->first);
      weights.push_back(1);
    } else {
      ++weights[it->second];
    }
  }

  PatternMatrix out;
  out.names_ = aln.names();
  out.weights_.assign(weights.begin(), weights.end());
  out.init_storage(aln.n_taxa(), patterns.size());
  for (std::size_t p = 0; p < out.n_patterns_; ++p) {
    for (std::size_t t = 0; t < aln.n_taxa(); ++t) {
      out.cell(t, p) = static_cast<StateMask>(patterns[p][t]);
    }
  }
  return out;
}

PatternMatrix PatternMatrix::from_patterns(
    std::vector<std::string> names,
    const std::vector<std::vector<StateMask>>& patterns,
    std::vector<std::uint32_t> weights) {
  PLF_CHECK(patterns.size() == weights.size(),
            "from_patterns: pattern/weight count mismatch");
  PLF_CHECK(!patterns.empty(), "from_patterns: no patterns");
  PatternMatrix out;
  out.names_ = std::move(names);
  out.weights_.assign(weights.begin(), weights.end());
  out.init_storage(out.names_.size(), patterns.size());
  for (std::size_t p = 0; p < out.n_patterns_; ++p) {
    PLF_CHECK(patterns[p].size() == out.names_.size(),
              "from_patterns: column length != taxon count");
    for (std::size_t t = 0; t < out.names_.size(); ++t) {
      out.cell(t, p) = patterns[p][t];
    }
  }
  return out;
}

std::uint64_t PatternMatrix::total_weight() const {
  std::uint64_t sum = 0;
  for (auto w : weights_) sum += w;
  return sum;
}

}  // namespace plf::phylo
