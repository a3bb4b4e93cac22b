// Known-good companion for rule kernel-contract: the same entry shape with
// the contract check in place must NOT fire. Never compiled.
#include "core/kernels.hpp"

namespace plf::core {

void down_ok(const DownArgs& a, std::size_t begin, std::size_t end) {
  detail::check_down(a, begin, end, false);
  for (std::size_t i = begin; i < end; ++i) {
    a.cl_out[i] = 0;
  }
}

void down_scale_ok(const DownArgs& a, const ScaleArgs& s, std::size_t begin,
                   std::size_t end) {
  detail::check_down(a, begin, end, false);
  for (std::size_t i = begin; i < end; ++i) {
    a.cl_out[i] = 0;
  }
}

}  // namespace plf::core
