// Whole-site kernels (kSimdSite): at K = 4 one CLV row is 16 floats, which
// is exactly one AVX-512 register. The row of a site is loaded once; within
// each rate's own 128-bit lane an in-lane shuffle broadcasts child state j,
// and one mul plus three FMAs against a lane-major copy of the transposed
// matrices yield all 4 × 4 inner products of the site at once. The rescale
// happens in the same register before the row is stored.
//
// Every lane performs the IEEE sequence of approach (ii) in
// kernels_vec4.cpp — mul, then FMAs in j order, then l * r, then * o at
// the root, then max over the rate groups in k order — with the same operand
// order, and rescales by the same exact power of two, so CLV rows, scale
// exponents and hence lnL are bit-identical to simd-col (docs/KERNELS.md,
// "Whole-site kernel").
//
// Bodies by ISA: zmm under AVX-512F, two ymm per row (two rates each) under
// AVX2 + FMA, and otherwise — as for K != 4 — the simd-col entries.
#include "core/kernel_contracts.hpp"
#include "core/kernel_entries.hpp"
#include "core/kernels.hpp"
#include "simd/vec4f.hpp"

#if defined(__AVX512F__) && defined(__FMA__)
#define PLF_SITE_ZMM 1
#elif defined(__AVX2__) && defined(__FMA__)
#define PLF_SITE_YMM 1
#endif

namespace plf::core {

namespace detail {
extern const KernelSet kSimdColKernels;

const char* simd_site_body() {
#if defined(PLF_SITE_ZMM)
  return "zmm";
#elif defined(PLF_SITE_YMM)
  return "ymm";
#else
  return "sse";
#endif
}
}  // namespace detail

namespace {

#if defined(PLF_SITE_ZMM) || defined(PLF_SITE_YMM)
#define PLF_SITE_BODY 1

constexpr std::size_t kK = 4;               // rate categories of the body
constexpr std::size_t kRowFloats = kK * 4;  // one CLV row

#if defined(PLF_SITE_ZMM)
/// One K = 4 CLV row in one zmm register, rate k in 128-bit lane k.
struct Row {
  __m512 v;

  static Row load(const float* p) { return {_mm512_loadu_ps(p)}; }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
  friend Row operator*(Row a, Row b) { return {_mm512_mul_ps(a.v, b.v)}; }
  Row operator*(float s) const { return {_mm512_mul_ps(v, _mm512_set1_ps(s))}; }
  static Row fma(Row a, Row b, Row c) {
    return {_mm512_fmadd_ps(a.v, b.v, c.v)};
  }
  /// State j of each rate broadcast across that rate's lane (kSel = j * 0x55).
  /// _mm512_shuffle_ps rather than _mm512_permute_ps: GCC 12's permute
  /// intrinsic raises a false -Wmaybe-uninitialized.
  template <int kSel>
  Row broadcast() const {
    return {_mm512_shuffle_ps(v, v, kSel)};
  }
  /// The row maximum in the operand order of simd-col's rescale: Vec4f::max
  /// over the rate groups k = 0..3, then Vec4f::hmax. Keeps its bits even
  /// with a NaN lane, which _mm512_reduce_max_ps's tree would not.
  float max() const {
    __m128 m = group<0>();
    m = _mm_max_ps(m, group<1>());
    m = _mm_max_ps(m, group<2>());
    m = _mm_max_ps(m, group<3>());
    return simd::Vec4f(m).hmax();
  }
  /// Rate group k. With an all-ones mask this is the plain vextractf32x4;
  /// GCC 12's unmasked extract (which _mm512_castps512_ps128 also uses)
  /// has an undefined source operand that raises the same false warning.
  template <int k>
  __m128 group() const {
    return _mm512_mask_extractf32x4_ps(_mm_setzero_ps(), 0xFF, v, k);
  }
};
#else
/// One K = 4 CLV row in two ymm registers: rates 0-1 and rates 2-3.
struct Row {
  __m256 lo, hi;

  static Row load(const float* p) {
    return {_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8)};
  }
  void store(float* p) const {
    _mm256_storeu_ps(p, lo);
    _mm256_storeu_ps(p + 8, hi);
  }
  friend Row operator*(Row a, Row b) {
    return {_mm256_mul_ps(a.lo, b.lo), _mm256_mul_ps(a.hi, b.hi)};
  }
  Row operator*(float s) const {
    const __m256 k = _mm256_set1_ps(s);
    return {_mm256_mul_ps(lo, k), _mm256_mul_ps(hi, k)};
  }
  static Row fma(Row a, Row b, Row c) {
    return {_mm256_fmadd_ps(a.lo, b.lo, c.lo),
            _mm256_fmadd_ps(a.hi, b.hi, c.hi)};
  }
  template <int kSel>
  Row broadcast() const {
    return {_mm256_shuffle_ps(lo, lo, kSel), _mm256_shuffle_ps(hi, hi, kSel)};
  }
  float max() const {
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(lo),
                          _mm256_extractf128_ps(lo, 1));
    m = _mm_max_ps(m, _mm256_castps256_ps128(hi));
    m = _mm_max_ps(m, _mm256_extractf128_ps(hi, 1));
    return simd::Vec4f(m).hmax();
  }
};
#endif

/// One child's transposed matrices, lane-major: col[j] holds
/// pt[k*16 + j*4 + i] at position k*4 + i, so lane k of col[j] is the
/// column simd-col's ColMatvec multiplies child state j of rate k with.
/// Built once per kernel call; a tip child without pt gets zeros it never
/// reads.
struct LaneMajor {
  Row col[4];

  explicit LaneMajor(const float* pt) {
    alignas(64) float zp[4][kRowFloats] = {};
    if (pt != nullptr) {
      for (std::size_t k = 0; k < kK; ++k) {
        for (std::size_t j = 0; j < 4; ++j) {
          for (std::size_t i = 0; i < 4; ++i) {
            zp[j][k * 4 + i] = pt[k * 16 + j * 4 + i];
          }
        }
      }
    }
    for (std::size_t j = 0; j < 4; ++j) col[j] = Row::load(zp[j]);
  }

  /// ColMatvec::apply for all four rates of the row x.
  Row apply(Row x) const {
    Row acc = x.broadcast<0x00>() * col[0];
    acc = Row::fma(x.broadcast<0x55>(), col[1], acc);
    acc = Row::fma(x.broadcast<0xAA>(), col[2], acc);
    return Row::fma(x.broadcast<0xFF>(), col[3], acc);
  }
};

/// Site c's factor from one child: its tip-partial row, or its matrices
/// applied to its stored CLV row.
inline Row child_factor(const ChildArgs& ch, const LaneMajor& m,
                        std::size_t c) {
  if (ch.is_tip()) {
    return Row::load(ch.tp + static_cast<std::size_t>(ch.mask[c]) * kRowFloats);
  }
  return m.apply(Row::load(ch.cl + ch.stored_row(c) * kRowFloats));
}

/// Output rows [begin, end) of `out` from row(idx).
template <class RowFn>
inline void store_rows(float* out, std::size_t begin, std::size_t end,
                       RowFn row) {
  for (std::size_t idx = begin; idx < end; ++idx) {
    row(idx).store(out + idx * kRowFloats);
  }
}

/// store_rows with each row rescaled exactly in its register before the
/// store (ScaleArgs): one multiply by 2^-e, or, for the rare maximum that
/// fast_scale_exponent refuses, the stored row is scaled in place.
template <class RowFn>
inline void store_scaled_rows(float* out, float* ln_scaler, std::size_t begin,
                              std::size_t end, RowFn row) {
  for (std::size_t idx = begin; idx < end; ++idx) {
    Row r = row(idx);
    const float m = r.max();
    float* dst = out + idx * kRowFloats;
    int e = detail::fast_scale_exponent(m);
    if (e != detail::kSlowScale) {
      (r * detail::pow2_neg(e)).store(dst);
    } else {
      r.store(dst);
      e = detail::scale_row_slow(dst, kRowFloats, m);
    }
    ln_scaler[idx] = static_cast<float>(e);
  }
}

/// The per-row bodies, shared by the plain and the fused entries. A tip
/// child costs one row load and no matvec (child_factor).
inline auto down_rows(const LaneMajor& lm, const LaneMajor& rm,
                      const DownArgs& a) {
  return [&a, &lm, &rm](std::size_t idx) {
    const std::size_t c = a.site(idx);
    return child_factor(a.left, lm, c) * child_factor(a.right, rm, c);
  };
}

inline auto root_rows(const LaneMajor& lm, const LaneMajor& rm,
                      const RootArgs& a) {
  return [&a, &lm, &rm](std::size_t idx) {
    const DownArgs& d = a.down;
    const std::size_t c = d.site(idx);
    const Row o = Row::load(
        a.out_tp + static_cast<std::size_t>(a.out_mask[c]) * kRowFloats);
    return child_factor(d.left, lm, c) * child_factor(d.right, rm, c) * o;
  };
}
#endif  // PLF_SITE_ZMM || PLF_SITE_YMM

void down_site(const DownArgs& a, std::size_t begin, std::size_t end) {
  detail::check_down(a, begin, end, /*needs_transpose=*/true);
  detail::check_down_aligned(a);
#if defined(PLF_SITE_BODY)
  if (a.K == kK) {
    const LaneMajor lm(a.left.pt), rm(a.right.pt);
    store_rows(a.out, begin, end, down_rows(lm, rm, a));
    return;
  }
#endif
  detail::kSimdColKernels.down(a, begin, end);
}

void root_site(const RootArgs& a, std::size_t begin, std::size_t end) {
  detail::check_root(a, begin, end, /*needs_transpose=*/true);
  detail::check_root_aligned(a);
#if defined(PLF_SITE_BODY)
  if (a.down.K == kK) {
    const LaneMajor lm(a.down.left.pt), rm(a.down.right.pt);
    store_rows(a.down.out, begin, end, root_rows(lm, rm, a));
    return;
  }
#endif
  detail::kSimdColKernels.root(a, begin, end);
}

void down_scale_site(const DownArgs& a, const ScaleArgs& s, std::size_t begin,
                     std::size_t end) {
  detail::check_down(a, begin, end, /*needs_transpose=*/true);
  detail::check_down_aligned(a);
  detail::check_fused_scale(s, a.out, a.K);
#if defined(PLF_SITE_BODY)
  if (a.K == kK) {
    const LaneMajor lm(a.left.pt), rm(a.right.pt);
    store_scaled_rows(a.out, s.ln_scaler, begin, end, down_rows(lm, rm, a));
    return;
  }
#endif
  detail::kSimdColKernels.down_scale(a, s, begin, end);
}

void root_scale_site(const RootArgs& a, const ScaleArgs& s, std::size_t begin,
                     std::size_t end) {
  detail::check_root(a, begin, end, /*needs_transpose=*/true);
  detail::check_root_aligned(a);
  detail::check_fused_scale(s, a.down.out, a.down.K);
#if defined(PLF_SITE_BODY)
  if (a.down.K == kK) {
    const LaneMajor lm(a.down.left.pt), rm(a.down.right.pt);
    store_scaled_rows(a.down.out, s.ln_scaler, begin, end,
                      root_rows(lm, rm, a));
    return;
  }
#endif
  detail::kSimdColKernels.root_scale(a, s, begin, end);
}

}  // namespace

namespace detail {
extern const KernelSet kSimdSiteKernels;
const KernelSet kSimdSiteKernels{KernelVariant::kSimdSite,
                                 down_site,
                                 root_site,
                                 SiteKernels<Vec4Scale>::scale,
                                 vec4_root_reduce,
                                 down_scale_site,
                                 root_scale_site};
}  // namespace detail

}  // namespace plf::core
