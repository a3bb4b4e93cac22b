#include "core/tip_partial.hpp"

#include "phylo/dna.hpp"

namespace plf::core {

TipPartial::TipPartial(const phylo::TransitionMatrices& tm) { rebuild(tm); }

void TipPartial::rebuild(const phylo::TransitionMatrices& tm) {
  k_ = tm.n_categories();
  table_.resize(phylo::kNumMasks * k_ * 4);
  const float* p = tm.row_major();
  for (std::size_t mask = 0; mask < phylo::kNumMasks; ++mask) {
    for (std::size_t k = 0; k < k_; ++k) {
      for (std::size_t i = 0; i < 4; ++i) {
        float s = 0.0f;
        for (std::size_t j = 0; j < 4; ++j) {
          if ((mask >> j) & 1u) s += p[k * 16 + i * 4 + j];
        }
        table_[mask * k_ * 4 + k * 4 + i] = s;
      }
    }
  }
}

}  // namespace plf::core
