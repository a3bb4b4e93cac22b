#include "simd/upper_state.hpp"

#if defined(__AVX__) && defined(__x86_64__)
#include <cpuid.h>
#endif

namespace plf::simd {

bool upper_state_observable() {
#if defined(__AVX__) && defined(__x86_64__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & (1u << 27)) == 0) {
    return false;  // no OSXSAVE: XGETBV faults
  }
  if (__get_cpuid_max(0, nullptr) < 0xD) return false;
  __cpuid_count(0xD, 1, a, b, c, d);
  return (a & (1u << 2)) != 0;
#else
  return false;
#endif
}

bool upper_state_dirty() {
#if defined(__AVX__) && defined(__x86_64__)
  unsigned lo = 0, hi = 0;
  asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 4u) != 0;
#else
  return false;
#endif
}

void call_with_dirty_upper(void (*fn)(void*), void* ctx) {
#if defined(__AVX__)
  // The result is a 128-bit value as far as the compiler can tell (no
  // clobber list either): either would make it emit a vzeroupper before fn.
  alignas(32) static const double kSource[4] = {1.0, 2.0, 3.0, 4.0};
  using Float4 = float __attribute__((vector_size(16)));
  Float4 converted;
  asm volatile("vcvtpd2psy %1, %0" : "=x"(converted) : "m"(kSource));
#endif
  fn(ctx);
}

}  // namespace plf::simd
