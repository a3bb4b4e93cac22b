#include "core/tip_partial.hpp"

#include <cmath>

#include "phylo/dna.hpp"
#include "util/contracts.hpp"

namespace plf::core {

TipPartial::TipPartial(const phylo::TransitionMatrices& tm)
    : table_(phylo::kNumMasks * tm.n_categories() * 4, 0.0f),
      k_(tm.n_categories()) {
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

TipPairTable::TipPairTable(const TipPartial& left, const TipPartial& right)
    : scaled_(phylo::kNumMasks * phylo::kNumMasks * left.n_categories() * 4),
      ln_(phylo::kNumMasks * phylo::kNumMasks, 0.0f),
      k_(left.n_categories()) {
  PLF_CHECK(left.n_categories() == right.n_categories() && k_ >= 1,
            "TipPairTable: child tables disagree on rate categories");
  const std::size_t row = k_ * 4;
  for (std::size_t lm = 0; lm < phylo::kNumMasks; ++lm) {
    for (std::size_t rm = 0; rm < phylo::kNumMasks; ++rm) {
      const std::size_t pair = lm * phylo::kNumMasks + rm;
      const float* l = left.data() + lm * row;
      const float* r = right.data() + rm * row;
      float* scaled = scaled_.data() + pair * row;
      for (std::size_t v = 0; v < row; ++v) scaled[v] = l[v] * r[v];
      // Prescale in place: the scale-kernel body applied once per pair
      // instead of once per site. max is order-invariant and the rescale
      // uses the identical 1/max multiply, so gathering these rows is
      // bit-identical to running cond_like_scaler over the product rows.
      float m = scaled[0];
      for (std::size_t v = 1; v < row; ++v) {
        if (scaled[v] > m) m = scaled[v];
      }
      if (m > 0.0f) {
        const float inv = 1.0f / m;
        for (std::size_t v = 0; v < row; ++v) scaled[v] *= inv;
        ln_[pair] = std::log(m);
      }
    }
  }
}

}  // namespace plf::core
