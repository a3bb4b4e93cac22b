// Tip×tip (cherry) specialization of cond_like_down + cond_like_scaler: both
// children are tips, so the rescaled output row is a pure gather from the
// per-pair table the engine precomputed (core/tip_partial.hpp TipPairTable).
// There is no arithmetic left to vectorize — the same entry serves every
// KernelSet.
//
// Bit-identity: the table rows were computed with exactly the per-site float
// ops of the generic path (elementwise tip-partial product, then the
// scale-kernel body once per pair), so the gather reproduces the generic
// down + scale results to the last ULP.
#include <cstring>

#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"

namespace plf::core::detail {

void down_tip_tip_scale(const TipTipArgs& a, const ScaleArgs& s,
                        std::size_t begin, std::size_t end) {
  check_down_tt(a, begin, end);
  check_fused_scale(s, a.out, a.K);
  const std::size_t row = a.K * 4;
  for (std::size_t idx = begin; idx < end; ++idx) {
    const std::size_t c = a.site(idx);
    const std::size_t pair =
        static_cast<std::size_t>(a.left_mask[c]) * phylo::kNumMasks +
        static_cast<std::size_t>(a.right_mask[c]);
    std::memcpy(a.out + idx * row, a.pair_scaled + pair * row,
                row * sizeof(float));
    s.ln_scaler[idx] = a.pair_ln[pair];
  }
}

}  // namespace plf::core::detail
