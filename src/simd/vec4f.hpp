// 4-wide single-precision SIMD vector.
//
// This is the register shape of the paper's kernels on every platform: the
// SPU's 128-bit SIMD unit, SSE on the x86 hosts, and the groups-of-4-threads
// coalescing trick on the GPU all operate on one 4-float discrete-rate array
// (Fig. 3) at a time. On x86 we map it to SSE; otherwise a scalar fallback
// with identical semantics is used, so every consumer (including the Cell
// and GPU simulators, which emulate SPU/warp lanes with it) is portable.
#pragma once

#include <array>
#include <cstddef>

#if defined(__SSE2__)
#define PLF_SIMD_SSE 1
#include <immintrin.h>
#endif

namespace plf::simd {

#if defined(PLF_SIMD_SSE)

/// 4 packed floats backed by an SSE register.
struct Vec4f {
  __m128 v;

  Vec4f() : v(_mm_setzero_ps()) {}
  explicit Vec4f(__m128 x) : v(x) {}
  explicit Vec4f(float x) : v(_mm_set1_ps(x)) {}
  Vec4f(float a, float b, float c, float d) : v(_mm_setr_ps(a, b, c, d)) {}

  static Vec4f load(const float* p) { return Vec4f(_mm_load_ps(p)); }
  static Vec4f loadu(const float* p) { return Vec4f(_mm_loadu_ps(p)); }
  void store(float* p) const { _mm_store_ps(p, v); }
  void storeu(float* p) const { _mm_storeu_ps(p, v); }

  friend Vec4f operator+(Vec4f a, Vec4f b) { return Vec4f(_mm_add_ps(a.v, b.v)); }
  friend Vec4f operator-(Vec4f a, Vec4f b) { return Vec4f(_mm_sub_ps(a.v, b.v)); }
  friend Vec4f operator*(Vec4f a, Vec4f b) { return Vec4f(_mm_mul_ps(a.v, b.v)); }

  Vec4f& operator+=(Vec4f b) { v = _mm_add_ps(v, b.v); return *this; }
  Vec4f& operator*=(Vec4f b) { v = _mm_mul_ps(v, b.v); return *this; }

  /// Fused (or fused-equivalent) multiply-add: this * b + c.
  static Vec4f fma(Vec4f a, Vec4f b, Vec4f c) {
#if defined(__FMA__)
    return Vec4f(_mm_fmadd_ps(a.v, b.v, c.v));
#else
    return a * b + c;
#endif
  }

  /// Element-wise maximum.
  static Vec4f max(Vec4f a, Vec4f b) { return Vec4f(_mm_max_ps(a.v, b.v)); }

  /// Horizontal sum of all 4 lanes.
  float hsum() const {
    // Lanes (1, 0, 3, 2): SSE2 only, unlike the SSE3 movehdup. Lane 0 ends
    // as (v0 + v1) + (v2 + v3) either way.
    __m128 shuf = _mm_shuffle_ps(v, v, _MM_SHUFFLE(2, 3, 0, 1));
    __m128 sums = _mm_add_ps(v, shuf);
    shuf = _mm_movehl_ps(shuf, sums);
    sums = _mm_add_ss(sums, shuf);
    return _mm_cvtss_f32(sums);
  }

  /// Horizontal maximum of all 4 lanes.
  float hmax() const {
    __m128 m = _mm_max_ps(v, _mm_shuffle_ps(v, v, _MM_SHUFFLE(2, 3, 0, 1)));
    m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(1, 0, 3, 2)));
    return _mm_cvtss_f32(m);
  }

  float lane(std::size_t i) const {
    alignas(16) float tmp[4];
    _mm_store_ps(tmp, v);
    return tmp[i];
  }
};

/// In-place 4x4 transpose of four Vec4f rows (used by the column-wise SIMD
/// layout, paper §3.3 approach ii).
inline void transpose4(Vec4f& r0, Vec4f& r1, Vec4f& r2, Vec4f& r3) {
  _MM_TRANSPOSE4_PS(r0.v, r1.v, r2.v, r3.v);
}

#else  // scalar fallback

/// 4 packed floats, scalar implementation with SSE-identical semantics.
struct Vec4f {
  std::array<float, 4> v{};

  Vec4f() = default;
  explicit Vec4f(float x) { v.fill(x); }
  Vec4f(float a, float b, float c, float d) : v{a, b, c, d} {}

  static Vec4f load(const float* p) { return loadu(p); }
  static Vec4f loadu(const float* p) {
    Vec4f r;
    for (std::size_t i = 0; i < 4; ++i) r.v[i] = p[i];
    return r;
  }
  void store(float* p) const { storeu(p); }
  void storeu(float* p) const {
    for (std::size_t i = 0; i < 4; ++i) p[i] = v[i];
  }

  friend Vec4f operator+(Vec4f a, Vec4f b) {
    Vec4f r;
    for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend Vec4f operator-(Vec4f a, Vec4f b) {
    Vec4f r;
    for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend Vec4f operator*(Vec4f a, Vec4f b) {
    Vec4f r;
    for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  Vec4f& operator+=(Vec4f b) { return *this = *this + b; }
  Vec4f& operator*=(Vec4f b) { return *this = *this * b; }

  static Vec4f fma(Vec4f a, Vec4f b, Vec4f c) { return a * b + c; }

  static Vec4f max(Vec4f a, Vec4f b) {
    Vec4f r;
    for (std::size_t i = 0; i < 4; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }

  float hsum() const { return (v[0] + v[1]) + (v[2] + v[3]); }
  float hmax() const {
    float m = v[0];
    for (std::size_t i = 1; i < 4; ++i) m = v[i] > m ? v[i] : m;
    return m;
  }
  float lane(std::size_t i) const { return v[i]; }
};

inline void transpose4(Vec4f& r0, Vec4f& r1, Vec4f& r2, Vec4f& r3) {
  Vec4f c0(r0.lane(0), r1.lane(0), r2.lane(0), r3.lane(0));
  Vec4f c1(r0.lane(1), r1.lane(1), r2.lane(1), r3.lane(1));
  Vec4f c2(r0.lane(2), r1.lane(2), r2.lane(2), r3.lane(2));
  Vec4f c3(r0.lane(3), r1.lane(3), r2.lane(3), r3.lane(3));
  r0 = c0;
  r1 = c1;
  r2 = c2;
  r3 = c3;
}

#endif

}  // namespace plf::simd
