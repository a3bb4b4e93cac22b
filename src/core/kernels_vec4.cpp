// The paper's two SIMD formulations (§3.3, §3.4), one Vec4f — the four
// states of one rate category — at a time. They differ only in how an
// internal child's 4×4 matrix-vector product is vectorized, so one body,
// Vec4Body<Matvec>, serves both:
//
//   RowMatvec (kSimdRow, approach i): row-wise inner products, reduced all
//     four together through one 4×4 transpose and a pairwise add whose
//     (a0+a1)+(a2+a3) association is Vec4f::hsum's (docs/KERNELS.md, "The
//     simd-row regression, diagnosed"). The Cell model's ablation input.
//   ColMatvec (kSimdCol, approach ii): broadcast each child state and FMA it
//     with one column of the matrix (a row of the transpose), with no
//     horizontal reduction. The paper measured it 2x faster on the SPU and
//     adopted it; the Cell model runs it, and kernels_simd_site.cpp runs the
//     same float operations one whole site per register, calling these
//     entries for K != 4.
//
// The rescale and the root reduction do not depend on the matrix access, so
// the three Vec4f variants (simd-site included) share one entry of each.
#include <cmath>

#include "core/kernel_contracts.hpp"
#include "core/kernel_entries.hpp"
#include "core/kernels.hpp"
#include "simd/simd.hpp"
#include "simd/vec4f.hpp"

namespace plf::core {

namespace {

using simd::Vec4f;

/// Four row-wise inner products reduced together via transpose:
/// bit-identical to four hsum() calls, without the scalar extractions.
struct RowMatvec {
  static constexpr bool kNeedsTranspose = false;

  /// Child ch's factor for rate k from that rate's CLV entries cl.
  static Vec4f apply(const ChildArgs& ch, std::size_t k, const float* cl) {
    const float* p = ch.p + k * 16;
    const Vec4f clv = Vec4f::load(cl);
    Vec4f r0 = Vec4f::load(p + 0) * clv;
    Vec4f r1 = Vec4f::load(p + 4) * clv;
    Vec4f r2 = Vec4f::load(p + 8) * clv;
    Vec4f r3 = Vec4f::load(p + 12) * clv;
    simd::transpose4(r0, r1, r2, r3);
    return (r0 + r1) + (r2 + r3);
  }
};

/// Column-wise matrix-vector multiply: broadcast cl[j], FMA with transposed
/// row j.
struct ColMatvec {
  static constexpr bool kNeedsTranspose = true;

  static Vec4f apply(const ChildArgs& ch, std::size_t k, const float* cl) {
    const float* pt = ch.pt + k * 16;
    Vec4f acc = Vec4f(cl[0]) * Vec4f::load(pt + 0);
    acc = Vec4f::fma(Vec4f(cl[1]), Vec4f::load(pt + 4), acc);
    acc = Vec4f::fma(Vec4f(cl[2]), Vec4f::load(pt + 8), acc);
    acc = Vec4f::fma(Vec4f(cl[3]), Vec4f::load(pt + 12), acc);
    return acc;
  }
};

template <class Matvec>
struct Vec4Body : detail::Vec4Scale {
  static constexpr bool kNeedsTranspose = Matvec::kNeedsTranspose;

  /// One child's factor for category k from its site row (ChildArgs::row).
  static Vec4f child_values(const ChildArgs& ch, const float* row,
                            std::size_t k) {
    if (ch.is_tip()) return Vec4f::load(row + k * 4);
    return Matvec::apply(ch, k, row + k * 4);
  }

  /// Output row r from site c (r == c on the dense path).
  static void down_site(std::size_t r, std::size_t c, const DownArgs& a) {
    float* out = a.out + r * a.K * 4;
    const float* lrow = a.left.row(c, a.K);
    const float* rrow = a.right.row(c, a.K);
    for (std::size_t k = 0; k < a.K; ++k) {
      const Vec4f l = child_values(a.left, lrow, k);
      const Vec4f rv = child_values(a.right, rrow, k);
      (l * rv).store(out + k * 4);
    }
  }

  static void root_site(std::size_t r, std::size_t c, const RootArgs& a) {
    const DownArgs& d = a.down;
    float* out = d.out + r * d.K * 4;
    const float* tp =
        a.out_tp + static_cast<std::size_t>(a.out_mask[c]) * d.K * 4;
    const float* lrow = d.left.row(c, d.K);
    const float* rrow = d.right.row(c, d.K);
    for (std::size_t k = 0; k < d.K; ++k) {
      const Vec4f l = child_values(d.left, lrow, k);
      const Vec4f rv = child_values(d.right, rrow, k);
      const Vec4f o = Vec4f::load(tp + k * 4);
      (l * rv * o).store(out + k * 4);
    }
  }
};

using SimdRow = detail::SiteKernels<Vec4Body<RowMatvec>>;
using SimdCol = detail::SiteKernels<Vec4Body<ColMatvec>>;

}  // namespace

namespace detail {

double vec4_root_reduce(const RootReduceArgs& a, std::size_t begin,
                        std::size_t end) {
  simd::zero_upper();  // std::log enters through a legacy-SSE glibc wrapper
  check_root_reduce(a, begin, end);
  PLF_DCHECK_ALIGNED(a.cl, kKernelAlignBytes);
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
               site_log_likelihood(site * inv_k, a.scaler_count[c], a, c);
  }
  return partial;
}

extern const KernelSet kSimdRowKernels;
const KernelSet kSimdRowKernels{KernelVariant::kSimdRow,
                                SimdRow::down,
                                SimdRow::root,
                                SiteKernels<Vec4Scale>::scale,
                                vec4_root_reduce,
                                SimdRow::down_scale,
                                SimdRow::root_scale};
extern const KernelSet kSimdColKernels;
const KernelSet kSimdColKernels{KernelVariant::kSimdCol,
                                SimdCol::down,
                                SimdCol::root,
                                SiteKernels<Vec4Scale>::scale,
                                vec4_root_reduce,
                                SimdCol::down_scale,
                                SimdCol::root_scale};

}  // namespace detail

}  // namespace plf::core
