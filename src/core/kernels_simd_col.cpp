// SIMD "approach (ii)" from the paper (§3.3): vectorize ACROSS the four
// inner products of one matrix-vector multiply. The accumulator holds the
// four output states; each step broadcasts one element of the child's rate
// array and multiplies it with one COLUMN of the transition matrix (a row of
// the precomputed transpose), fused-multiply-accumulating. No horizontal
// reduction is needed until the very end of the likelihood computation.
// The paper measured this 2x faster at the PLF level on the SPU and adopted
// it; it maps 1:1 onto SSE here. kernels_simd_site.cpp runs the same float
// operations one whole site row per register, calling these entries for
// K != 4; the Cell SPU model runs these.
#include <cmath>

#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"
#include "simd/vec4f.hpp"

namespace plf::core {

namespace detail {
extern const ScaleFn kSharedSimdScale;
extern const RootReduceFn kSharedSimdRootReduce;
}  // namespace detail

namespace {

using simd::Vec4f;

/// Column-wise matrix-vector multiply: broadcast cl[j], FMA with transposed
/// row j.
inline Vec4f matvec_cols(const float* pt, const float* cl) {
  Vec4f acc = Vec4f(cl[0]) * Vec4f::load(pt + 0);
  acc = Vec4f::fma(Vec4f(cl[1]), Vec4f::load(pt + 4), acc);
  acc = Vec4f::fma(Vec4f(cl[2]), Vec4f::load(pt + 8), acc);
  acc = Vec4f::fma(Vec4f(cl[3]), Vec4f::load(pt + 12), acc);
  return acc;
}

/// One child's factor for category k from its site row (ChildArgs::row):
/// column-wise accumulation over j.
inline Vec4f child_values(const ChildArgs& ch, const float* row,
                          std::size_t k) {
  if (ch.is_tip()) return Vec4f::load(row + k * 4);
  return matvec_cols(ch.pt + k * 16, row + k * 4);
}

/// Per-site SIMD rescale body. Same float ops as the shared scale kernel in
/// kernels_simd_row.cpp (max is order-invariant; identical 1/max multiply),
/// duplicated here so the fused entries can inline it.
inline void scale_site(std::size_t r, const ScaleArgs& a) {
  float* cl = a.cl + r * a.K * 4;
  Vec4f m = Vec4f::load(cl);
  for (std::size_t k = 1; k < a.K; ++k) {
    m = Vec4f::max(m, Vec4f::load(cl + k * 4));
  }
  const float mx = m.hmax();
  if (mx > 0.0f) {
    const Vec4f inv(1.0f / mx);
    for (std::size_t k = 0; k < a.K; ++k) {
      (Vec4f::load(cl + k * 4) * inv).store(cl + k * 4);
    }
    a.ln_scaler[r] = std::log(mx);
  } else {
    a.ln_scaler[r] = 0.0f;
  }
}

/// Output row r from site c (r == c on the dense path).
inline void down_site(std::size_t r, std::size_t c, const DownArgs& a) {
  float* out = a.out + r * a.K * 4;
  const float* lrow = a.left.row(c, a.K);
  const float* rrow = a.right.row(c, a.K);
  for (std::size_t k = 0; k < a.K; ++k) {
    const Vec4f l = child_values(a.left, lrow, k);
    const Vec4f rv = child_values(a.right, rrow, k);
    (l * rv).store(out + k * 4);
  }
}

inline void root_site(std::size_t r, std::size_t c, const RootArgs& a) {
  const DownArgs& d = a.down;
  float* out = d.out + r * d.K * 4;
  const float* tp = a.out_tp + static_cast<std::size_t>(a.out_mask[c]) * d.K * 4;
  const float* lrow = d.left.row(c, d.K);
  const float* rrow = d.right.row(c, d.K);
  for (std::size_t k = 0; k < d.K; ++k) {
    const Vec4f l = child_values(d.left, lrow, k);
    const Vec4f rv = child_values(d.right, rrow, k);
    const Vec4f o = Vec4f::load(tp + k * 4);
    (l * rv * o).store(out + k * 4);
  }
}

void down_col(const DownArgs& a, std::size_t begin, std::size_t end) {
  detail::check_down(a, begin, end, /*needs_transpose=*/true);
  detail::check_down_aligned(a);
  for (std::size_t idx = begin; idx < end; ++idx) {
    down_site(idx, a.site(idx), a);
  }
}

void root_col(const RootArgs& a, std::size_t begin, std::size_t end) {
  detail::check_root(a, begin, end, /*needs_transpose=*/true);
  detail::check_root_aligned(a);
  for (std::size_t idx = begin; idx < end; ++idx) {
    root_site(idx, a.down.site(idx), a);
  }
}

void down_scale_col(const DownArgs& a, const ScaleArgs& s, std::size_t begin,
                    std::size_t end) {
  detail::check_down(a, begin, end, /*needs_transpose=*/true);
  detail::check_down_aligned(a);
  detail::check_fused_scale(s, a.out, a.K);
  for (std::size_t idx = begin; idx < end; ++idx) {
    down_site(idx, a.site(idx), a);
    scale_site(idx, s);
  }
}

void root_scale_col(const RootArgs& a, const ScaleArgs& s, std::size_t begin,
                    std::size_t end) {
  detail::check_root(a, begin, end, /*needs_transpose=*/true);
  detail::check_root_aligned(a);
  detail::check_fused_scale(s, a.down.out, a.down.K);
  for (std::size_t idx = begin; idx < end; ++idx) {
    root_site(idx, a.down.site(idx), a);
    scale_site(idx, s);
  }
}

}  // namespace

namespace detail {
extern const KernelSet kSimdColKernels;
const KernelSet kSimdColKernels{KernelVariant::kSimdCol,
                                down_col,
                                root_col,
                                kSharedSimdScale,
                                kSharedSimdRootReduce,
                                down_tip_tip,
                                down_scale_col,
                                down_tip_tip_scale,
                                root_scale_col};
}  // namespace detail

}  // namespace plf::core
