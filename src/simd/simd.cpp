#include "simd/simd.hpp"

namespace plf::simd {

std::string backend_name() {
#if defined(__AVX__) && defined(__FMA__)
  return "avx+fma";
#elif defined(__AVX__)
  return "avx";
#elif defined(PLF_SIMD_SSE)
  return "sse2";
#else
  return "scalar";
#endif
}

}  // namespace plf::simd
