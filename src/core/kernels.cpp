#include "core/kernels.hpp"

#include "util/error.hpp"

namespace plf::core {

namespace detail {
extern const KernelSet kScalarKernels;
extern const KernelSet kSimdRowKernels;
extern const KernelSet kSimdColKernels;
extern const KernelSet kSimdSiteKernels;
}  // namespace detail

std::string to_string(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return "scalar";
    case KernelVariant::kSimdRow: return "simd-row (approach i)";
    case KernelVariant::kSimdCol: return "simd-col (approach ii)";
    case KernelVariant::kSimdSite:
      return std::string("simd-site (") + detail::simd_site_body() + ")";
  }
  return "?";
}

const KernelSet& kernels(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar: return detail::kScalarKernels;
    case KernelVariant::kSimdRow: return detail::kSimdRowKernels;
    case KernelVariant::kSimdCol: return detail::kSimdColKernels;
    case KernelVariant::kSimdSite: return detail::kSimdSiteKernels;
  }
  throw Error("unknown kernel variant");
}

}  // namespace plf::core
