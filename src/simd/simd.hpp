// Backend identification for the SIMD layer.
#pragma once

#include <string>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "simd/vec4f.hpp"

namespace plf::simd {

/// Human-readable name of the compiled-in backend ("avx2+fma", "sse2",
/// "scalar", ...). Decided at compile time.
std::string backend_name();

/// True when 4-wide operations map to hardware SIMD instructions.
constexpr bool has_hardware_vec4() {
#if defined(PLF_SIMD_SSE)
  return true;
#else
  return false;
#endif
}

/// Clear the upper halves of the YMM registers (vzeroupper). A caller can
/// leave them dirty without writing a YMM register: GCC emits no vzeroupper
/// after a VEX.256 instruction with a memory source and an XMM destination
/// (vcvtpd2psy m256, xmm), yet the CPU marks the upper state in use. Legacy
/// SSE code run in that state (glibc's exp/log/log1p wrappers) stalls, so
/// entries that call such code clear the state first (docs/KERNELS.md,
/// "Vector-state hygiene"). A no-op without AVX.
inline void zero_upper() {
#if defined(__AVX__)
  _mm256_zeroupper();
#endif
}

}  // namespace plf::simd
