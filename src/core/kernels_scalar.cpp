// Scalar reference implementation of the PLF kernels — the ground truth all
// SIMD/backend variants are validated against.
//
// Each kernel body is a per-site helper that writes output row r from site
// c; detail::SiteKernels (kernel_entries.hpp) builds the checked range
// entries, fused and unfused, from them.
#include <cmath>

#include "core/kernel_contracts.hpp"
#include "core/kernel_entries.hpp"
#include "core/kernels.hpp"
#include "simd/simd.hpp"

namespace plf::core {

namespace {

/// Evaluate one child's 4-state factor for site c, category k; `row` is an
/// internal child's stored row for c (ChildArgs::stored_row). The tip and
/// CLV operands keep separate address expressions: sharing one row pointer
/// lets GCC merge the two loads into a vector load plus lane shuffles,
/// which measured ~30% slower than broadcasting each CLV entry.
inline void child_values(const ChildArgs& ch, std::size_t c, std::size_t row,
                         std::size_t k, std::size_t K, float out[4]) {
  if (ch.is_tip()) {
    const float* tp =
        ch.tp + static_cast<std::size_t>(ch.mask[c]) * K * 4 + k * 4;
    out[0] = tp[0];
    out[1] = tp[1];
    out[2] = tp[2];
    out[3] = tp[3];
  } else {
    const float* cl = ch.cl + row * K * 4 + k * 4;
    const float* p = ch.p + k * 16;
    for (std::size_t i = 0; i < 4; ++i) {
      out[i] = p[i * 4 + 0] * cl[0] + p[i * 4 + 1] * cl[1] +
               p[i * 4 + 2] * cl[2] + p[i * 4 + 3] * cl[3];
    }
  }
}

struct ScalarBody {
  static constexpr bool kNeedsTranspose = false;
  static constexpr bool kAligned = false;

  /// Output row r from site c (r == c on the dense path).
  static void down_site(std::size_t r, std::size_t c, const DownArgs& a) {
    float* out = a.out + r * a.K * 4;
    const std::size_t lrow = a.left.stored_row(c);
    const std::size_t rrow = a.right.stored_row(c);
    for (std::size_t k = 0; k < a.K; ++k) {
      float l[4], rv[4];
      child_values(a.left, c, lrow, k, a.K, l);
      child_values(a.right, c, rrow, k, a.K, rv);
      for (std::size_t i = 0; i < 4; ++i) out[k * 4 + i] = l[i] * rv[i];
    }
  }

  static void root_site(std::size_t r, std::size_t c, const RootArgs& a) {
    const DownArgs& d = a.down;
    float* out = d.out + r * d.K * 4;
    const float* tp =
        a.out_tp + static_cast<std::size_t>(a.out_mask[c]) * d.K * 4;
    const std::size_t lrow = d.left.stored_row(c);
    const std::size_t rrow = d.right.stored_row(c);
    for (std::size_t k = 0; k < d.K; ++k) {
      float l[4], rv[4];
      child_values(d.left, c, lrow, k, d.K, l);
      child_values(d.right, c, rrow, k, d.K, rv);
      for (std::size_t i = 0; i < 4; ++i) {
        out[k * 4 + i] = l[i] * rv[i] * tp[k * 4 + i];
      }
    }
  }

  static void scale_site(std::size_t r, const ScaleArgs& a) {
    // A fully underflowed site (max 0) stays as it is with exponent 0: the
    // root reduction will produce -inf for it, which is the honest answer.
    a.ln_scaler[r] =
        static_cast<float>(detail::scale_row(a.cl + r * a.K * 4, a.K * 4));
  }
};

double root_reduce_scalar(const RootReduceArgs& a, std::size_t begin,
                          std::size_t end) {
  simd::zero_upper();  // std::log enters through a legacy-SSE glibc wrapper
  detail::check_root_reduce(a, begin, end);
  double partial = 0.0;
  const double inv_k = 1.0 / static_cast<double>(a.K);
  for (std::size_t c = begin; c < end; ++c) {
    const float* cl = a.cl + c * a.K * 4;
    double site = 0.0;
    for (std::size_t k = 0; k < a.K; ++k) {
      site += static_cast<double>(a.pi[0]) * cl[k * 4 + 0] +
              static_cast<double>(a.pi[1]) * cl[k * 4 + 1] +
              static_cast<double>(a.pi[2]) * cl[k * 4 + 2] +
              static_cast<double>(a.pi[3]) * cl[k * 4 + 3];
    }
    partial += static_cast<double>(a.weights[c]) *
               site_log_likelihood(site * inv_k, a.scaler_count[c], a, c);
  }
  return partial;
}

using Scalar = detail::SiteKernels<ScalarBody>;

}  // namespace

namespace detail {
extern const KernelSet kScalarKernels;
const KernelSet kScalarKernels{KernelVariant::kScalar,
                               Scalar::down,
                               Scalar::root,
                               Scalar::scale,
                               root_reduce_scalar,
                               Scalar::down_scale,
                               Scalar::root_scale};
}  // namespace detail

}  // namespace plf::core
