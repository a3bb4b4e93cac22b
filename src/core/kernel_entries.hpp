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

#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"
#include "simd/vec4f.hpp"

namespace plf::core::detail {

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

/// The Vec4f per-site rescale. simd-row, simd-col and simd-site share its
/// one scale entry, SiteKernels<Vec4Scale>::scale (an inline function, so
/// one address in every translation unit that names it), and the fused
/// simd-row and simd-col entries inline it.
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
};

/// The Vec4f root reduction the same three variants share (kernels_vec4.cpp).
double vec4_root_reduce(const RootReduceArgs& a, std::size_t begin,
                        std::size_t end);

}  // namespace plf::core::detail
