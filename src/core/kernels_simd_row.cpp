// SIMD "approach (i)" from the paper (§3.3, §3.4): vectorize each inner
// product individually with row-wise matrix access. The original formulation
// ended every inner product in its own horizontal sum (4 shuffle+add chains
// per matrix-vector product) and then rebuilt a vector from the four scalar
// results — that scalar round trip is what made this variant slower than the
// plain scalar kernel (see docs/KERNELS.md for the before/after microbench).
// The reduction now computes all four inner products together: multiply the
// four matrix rows by the child vector, transpose the 4×4 block of partial
// products, and add the columns pairwise. The (a0+a1)+(a2+a3) association is
// exactly the association Vec4f::hsum used, so results are bit-identical to
// the old formulation — only the shuffle count changes (one 4×4 transpose vs
// four hsum chains plus a setr). Approach (i) remains the ablation baseline
// against approach (ii) (bench_ablation_cell_simd / bench_ablation_gpu_threads).
#include <cmath>

#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"
#include "simd/simd.hpp"
#include "simd/vec4f.hpp"

namespace plf::core {

namespace {

using simd::Vec4f;

/// Four row-wise inner products of one matrix-vector multiply, reduced
/// together via transpose. Bit-identical to four hsum() calls (same sum
/// association), without the per-product scalar extraction.
inline Vec4f matvec_rows(const float* p, const Vec4f& clv) {
  Vec4f r0 = Vec4f::load(p + 0) * clv;
  Vec4f r1 = Vec4f::load(p + 4) * clv;
  Vec4f r2 = Vec4f::load(p + 8) * clv;
  Vec4f r3 = Vec4f::load(p + 12) * clv;
  simd::transpose4(r0, r1, r2, r3);
  return (r0 + r1) + (r2 + r3);
}

/// One child's factor for category k from its site row (ChildArgs::row),
/// with row-wise matrix access.
inline Vec4f child_values(const ChildArgs& ch, const float* row,
                          std::size_t k) {
  if (ch.is_tip()) return Vec4f::load(row + k * 4);
  return matvec_rows(ch.p + k * 16, Vec4f::load(row + k * 4));
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

void down_row(const DownArgs& a, std::size_t begin, std::size_t end) {
  detail::check_down(a, begin, end, /*needs_transpose=*/false);
  detail::check_down_aligned(a);
  for (std::size_t idx = begin; idx < end; ++idx) {
    down_site(idx, a.site(idx), a);
  }
}

void root_row(const RootArgs& a, std::size_t begin, std::size_t end) {
  detail::check_root(a, begin, end, /*needs_transpose=*/false);
  detail::check_root_aligned(a);
  for (std::size_t idx = begin; idx < end; ++idx) {
    root_site(idx, a.down.site(idx), a);
  }
}

void scale_simd(const ScaleArgs& a, std::size_t begin, std::size_t end) {
  detail::check_scale(a, begin, end);
  PLF_DCHECK_ALIGNED(a.cl, detail::kKernelAlignBytes);
  for (std::size_t r = begin; r < end; ++r) scale_site(r, a);
}

void down_scale_row(const DownArgs& a, const ScaleArgs& s, std::size_t begin,
                    std::size_t end) {
  detail::check_down(a, begin, end, /*needs_transpose=*/false);
  detail::check_down_aligned(a);
  detail::check_fused_scale(s, a.out, a.K);
  for (std::size_t idx = begin; idx < end; ++idx) {
    down_site(idx, a.site(idx), a);
    scale_site(idx, s);
  }
}

void root_scale_row(const RootArgs& a, const ScaleArgs& s, std::size_t begin,
                    std::size_t end) {
  detail::check_root(a, begin, end, /*needs_transpose=*/false);
  detail::check_root_aligned(a);
  detail::check_fused_scale(s, a.down.out, a.down.K);
  for (std::size_t idx = begin; idx < end; ++idx) {
    root_site(idx, a.down.site(idx), a);
    scale_site(idx, s);
  }
}

double root_reduce_simd(const RootReduceArgs& a, std::size_t begin,
                        std::size_t end) {
  simd::zero_upper();  // std::log enters through a legacy-SSE glibc wrapper
  detail::check_root_reduce(a, begin, end);
  PLF_DCHECK_ALIGNED(a.cl, detail::kKernelAlignBytes);
  const Vec4f pi(a.pi[0], a.pi[1], a.pi[2], a.pi[3]);
  const double inv_k = 1.0 / static_cast<double>(a.K);
  double partial = 0.0;
  for (std::size_t c = begin; c < end; ++c) {
    const float* cl = a.cl + c * a.K * 4;
    Vec4f acc;
    for (std::size_t k = 0; k < a.K; ++k) {
      acc = Vec4f::fma(pi, Vec4f::load(cl + k * 4), acc);
    }
    const double site = static_cast<double>(acc.hsum());
    partial += static_cast<double>(a.weights[c]) *
               site_log_likelihood(site * inv_k, a.ln_scaler_total[c], a, c);
  }
  return partial;
}

}  // namespace

namespace detail {
extern const KernelSet kSimdRowKernels;
const KernelSet kSimdRowKernels{KernelVariant::kSimdRow,
                                down_row,
                                root_row,
                                scale_simd,
                                root_reduce_simd,
                                down_tip_tip,
                                down_scale_row,
                                down_tip_tip_scale,
                                root_scale_row};
// Shared by the column-wise variants (the scale/reduce kernels do not differ
// between row- and column-wise matrix access).
extern const ScaleFn kSharedSimdScale;
const ScaleFn kSharedSimdScale = scale_simd;
extern const RootReduceFn kSharedSimdRootReduce;
const RootReduceFn kSharedSimdRootReduce = root_reduce_simd;
}  // namespace detail

}  // namespace plf::core
