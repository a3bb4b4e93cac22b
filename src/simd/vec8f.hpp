// 8-wide single-precision SIMD vector (AVX2 when available, otherwise a pair
// of Vec4f with identical semantics). No kernel uses it: the whole-site
// kernels (core/kernels_simd_site.cpp) work on raw zmm/ymm registers.
#pragma once

#include <cstddef>

#include "simd/vec4f.hpp"

#if defined(__AVX__)
#define PLF_SIMD_AVX 1
#endif

namespace plf::simd {

#if defined(PLF_SIMD_AVX)

/// 8 packed floats backed by an AVX register.
struct Vec8f {
  __m256 v;

  Vec8f() : v(_mm256_setzero_ps()) {}
  explicit Vec8f(__m256 x) : v(x) {}
  explicit Vec8f(float x) : v(_mm256_set1_ps(x)) {}

  static Vec8f load(const float* p) { return Vec8f(_mm256_load_ps(p)); }
  static Vec8f loadu(const float* p) { return Vec8f(_mm256_loadu_ps(p)); }

  /// Concatenate two 4-wide vectors into the low/high lanes.
  static Vec8f combine(Vec4f lo, Vec4f hi) {
    return Vec8f(_mm256_insertf128_ps(_mm256_castps128_ps256(lo.v), hi.v, 1));
  }
  void store(float* p) const { _mm256_store_ps(p, v); }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }

  friend Vec8f operator+(Vec8f a, Vec8f b) {
    return Vec8f(_mm256_add_ps(a.v, b.v));
  }
  friend Vec8f operator*(Vec8f a, Vec8f b) {
    return Vec8f(_mm256_mul_ps(a.v, b.v));
  }
  Vec8f& operator+=(Vec8f b) { v = _mm256_add_ps(v, b.v); return *this; }

  static Vec8f fma(Vec8f a, Vec8f b, Vec8f c) {
#if defined(__FMA__)
    return Vec8f(_mm256_fmadd_ps(a.v, b.v, c.v));
#else
    return a * b + c;
#endif
  }

  static Vec8f max(Vec8f a, Vec8f b) { return Vec8f(_mm256_max_ps(a.v, b.v)); }

  float hsum() const {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    return Vec4f(_mm_add_ps(lo, hi)).hsum();
  }

  float hmax() const {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    return Vec4f(_mm_max_ps(lo, hi)).hmax();
  }
};

#else

/// 8 packed floats as two Vec4f halves.
struct Vec8f {
  Vec4f lo, hi;

  Vec8f() = default;
  explicit Vec8f(float x) : lo(x), hi(x) {}

  static Vec8f load(const float* p) { return loadu(p); }
  static Vec8f loadu(const float* p) {
    Vec8f r;
    r.lo = Vec4f::loadu(p);
    r.hi = Vec4f::loadu(p + 4);
    return r;
  }

  /// Concatenate two 4-wide vectors into the low/high lanes.
  static Vec8f combine(Vec4f lo, Vec4f hi) {
    Vec8f r;
    r.lo = lo;
    r.hi = hi;
    return r;
  }
  void store(float* p) const { storeu(p); }
  void storeu(float* p) const {
    lo.storeu(p);
    hi.storeu(p + 4);
  }

  friend Vec8f operator+(Vec8f a, Vec8f b) {
    Vec8f r;
    r.lo = a.lo + b.lo;
    r.hi = a.hi + b.hi;
    return r;
  }
  friend Vec8f operator*(Vec8f a, Vec8f b) {
    Vec8f r;
    r.lo = a.lo * b.lo;
    r.hi = a.hi * b.hi;
    return r;
  }
  Vec8f& operator+=(Vec8f b) { return *this = *this + b; }

  static Vec8f fma(Vec8f a, Vec8f b, Vec8f c) {
    Vec8f r;
    r.lo = Vec4f::fma(a.lo, b.lo, c.lo);
    r.hi = Vec4f::fma(a.hi, b.hi, c.hi);
    return r;
  }

  static Vec8f max(Vec8f a, Vec8f b) {
    Vec8f r;
    r.lo = Vec4f::max(a.lo, b.lo);
    r.hi = Vec4f::max(a.hi, b.hi);
    return r;
  }

  float hsum() const { return lo.hsum() + hi.hsum(); }
  float hmax() const {
    const float a = lo.hmax();
    const float b = hi.hmax();
    return a > b ? a : b;
  }
};

#endif

}  // namespace plf::simd
