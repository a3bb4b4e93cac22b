// The checked range entries of the per-site PLF kernels, written once.
//
// A variant supplies its contract flags and per-site bodies, each writing
// output row r from site c (DownArgs::site maps the iteration index through
// the optional site-repeat indirection):
//
//   struct Body {
//     static constexpr bool kNeedsTranspose;  // internal children read pt
//     static constexpr bool kAligned;         // aligned Vec4f loads/stores
//     static void down_site(std::size_t r, std::size_t c, const DownArgs&);
//     static void root_site(std::size_t r, std::size_t c, const RootArgs&);
//     static void scale_site(std::size_t r, const ScaleArgs&);
//   };
//
// SiteKernels<Body> builds the five range entries a KernelSet names. The
// fused entries run the same two bodies back to back per site, so fused ==
// unfused holds by construction. Each entry calls its own contract checks:
// plf_lint's kernel-contract rule scans this header, and a KernelSet names
// these entries directly, never through a forwarding wrapper.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"
#include "simd/vec4f.hpp"

namespace plf::core::detail {

/// The exact rescale (ScaleArgs), split so that the hot path is one branch
/// and one multiply per entry.
///
/// fast_scale_exponent(mx) is e = ilogb(mx), read from the exponent bits,
/// when mx is a positive normal float with e in [-126, 126], so that 2^-e
/// (pow2_neg) is a normal float and one multiply scales each entry exactly.
/// For any other maximum it returns kSlowScale, and the row goes through
/// scale_row_slow.
inline constexpr int kSlowScale = -1000;

inline int fast_scale_exponent(float mx) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &mx, sizeof bits);
  const std::uint32_t biased = bits >> 23;  // a set sign bit lands above 255
  return biased - 1u < 253u ? static_cast<int>(biased) - 127 : kSlowScale;
}

/// 2^-e for an e that fast_scale_exponent returned, built from its bits.
inline float pow2_neg(int e) {
  const std::uint32_t bits = static_cast<std::uint32_t>(127 - e) << 23;
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

/// Every row fast_scale_exponent refuses, stored unscaled in row[0, n):
/// a zero, negative, infinite or NaN maximum leaves it unscaled (returns
/// 0); a subnormal maximum or one in [2^127, FLT_MAX] scales each entry by
/// std::ldexp, exactly. Returns e. Out of line and cold, so the kernels'
/// site loops carry no call on their hot path.
[[gnu::cold, gnu::noinline]] inline int scale_row_slow(float* row,
                                                      std::size_t n,
                                                      float mx) {
  if (!(mx > 0.0f) || !std::isfinite(mx)) return 0;
  const int e = std::ilogb(mx);
  for (std::size_t v = 0; v < n; ++v) row[v] = std::ldexp(row[v], -e);
  return e;
}

/// The exact rescale of one row of n entries in place, maximum taken in
/// index order; returns e. The scalar kernel's body and the GPU's.
inline int scale_row(float* row, std::size_t n) {
  float m = row[0];
  for (std::size_t v = 1; v < n; ++v) {
    if (row[v] > m) m = row[v];
  }
  const int e = fast_scale_exponent(m);
  if (e == kSlowScale) return scale_row_slow(row, n, m);
  const float f = pow2_neg(e);
  for (std::size_t v = 0; v < n; ++v) row[v] *= f;
  return e;
}

template <class Body>
struct SiteKernels {
  static void down(const DownArgs& a, std::size_t begin, std::size_t end) {
    check_down(a, begin, end, Body::kNeedsTranspose);
    if constexpr (Body::kAligned) check_down_aligned(a);
    for (std::size_t idx = begin; idx < end; ++idx) {
      Body::down_site(idx, a.site(idx), a);
    }
  }

  static void root(const RootArgs& a, std::size_t begin, std::size_t end) {
    check_root(a, begin, end, Body::kNeedsTranspose);
    if constexpr (Body::kAligned) check_root_aligned(a);
    for (std::size_t idx = begin; idx < end; ++idx) {
      Body::root_site(idx, a.down.site(idx), a);
    }
  }

  static void scale(const ScaleArgs& a, std::size_t begin, std::size_t end) {
    check_scale(a, begin, end);
    if constexpr (Body::kAligned) {
      PLF_DCHECK_ALIGNED(a.cl, kKernelAlignBytes);
    }
    for (std::size_t r = begin; r < end; ++r) Body::scale_site(r, a);
  }

  static void down_scale(const DownArgs& a, const ScaleArgs& s,
                         std::size_t begin, std::size_t end) {
    check_down(a, begin, end, Body::kNeedsTranspose);
    if constexpr (Body::kAligned) check_down_aligned(a);
    check_fused_scale(s, a.out, a.K);
    for (std::size_t idx = begin; idx < end; ++idx) {
      Body::down_site(idx, a.site(idx), a);
      Body::scale_site(idx, s);
    }
  }

  static void root_scale(const RootArgs& a, const ScaleArgs& s,
                         std::size_t begin, std::size_t end) {
    check_root(a, begin, end, Body::kNeedsTranspose);
    if constexpr (Body::kAligned) check_root_aligned(a);
    check_fused_scale(s, a.down.out, a.down.K);
    for (std::size_t idx = begin; idx < end; ++idx) {
      Body::root_site(idx, a.down.site(idx), a);
      Body::scale_site(idx, s);
    }
  }
};

/// The Vec4f per-site exact rescale (ScaleArgs). simd-row, simd-col and
/// simd-site share its one scale entry, SiteKernels<Vec4Scale>::scale (an
/// inline function, so one address in every translation unit that names
/// it), and the fused simd-row and simd-col entries inline it.
struct Vec4Scale {
  static constexpr bool kAligned = true;

  static void scale_site(std::size_t r, const ScaleArgs& a) {
    using simd::Vec4f;
    float* cl = a.cl + r * a.K * 4;
    Vec4f m = Vec4f::load(cl);
    for (std::size_t k = 1; k < a.K; ++k) {
      m = Vec4f::max(m, Vec4f::load(cl + k * 4));
    }
    const float mx = m.hmax();
    int e = fast_scale_exponent(mx);
    if (e != kSlowScale) {
      const Vec4f f(pow2_neg(e));
      for (std::size_t k = 0; k < a.K; ++k) {
        (Vec4f::load(cl + k * 4) * f).store(cl + k * 4);
      }
    } else {
      e = scale_row_slow(cl, a.K * 4, mx);
    }
    a.ln_scaler[r] = static_cast<float>(e);
  }
};

/// The Vec4f root reduction the same three variants share (kernels_vec4.cpp).
double vec4_root_reduce(const RootReduceArgs& a, std::size_t begin,
                        std::size_t end);

}  // namespace plf::core::detail
