// Tip×tip (cherry) specialization of cond_like_down: both children are tips,
// so the output row is a pure gather from the per-pair table the engine
// precomputed (core/tip_partial.hpp TipPairTable). There is no arithmetic
// left to vectorize — the same two entry points serve every KernelSet.
//
// Bit-identity: the table rows were computed with exactly the per-site float
// ops of the generic path (elementwise tip-partial product; prescaled rows
// apply the scale-kernel body once per pair), so the gather reproduces the
// generic down / down+scale results to the last ULP.
#include <cstring>

#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"

namespace plf::core::detail {

void down_tip_tip(const TipTipArgs& a, std::size_t begin, std::size_t end) {
  check_down_tt(a, begin, end);
  const std::size_t row = a.K * 4;
  for (std::size_t idx = begin; idx < end; ++idx) {
    const std::size_t c = a.site(idx);
    const std::size_t pair =
        static_cast<std::size_t>(a.left_mask[c]) * phylo::kNumMasks +
        static_cast<std::size_t>(a.right_mask[c]);
    std::memcpy(a.out + idx * row, a.pair + pair * row, row * sizeof(float));
  }
}

void down_tip_tip_scale(const TipTipArgs& a, const ScaleArgs& s,
                        std::size_t begin, std::size_t end) {
  check_down_tt(a, begin, end);
  check_fused_scale(s, a.out, a.K);
  PLF_DCHECK(a.pair_scaled != nullptr && a.pair_ln != nullptr,
             "tip-tip fused scale: prescaled table required");
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
