// Known-bad fixture for rule kernel-contract in the shared entries header:
// a templated static member taking DownArgs that never calls its contract
// check. Linted as if at src/core/kernel_entries.hpp; never compiled.
template <class Body>
struct SiteKernels {
  static void down(const DownArgs& a, std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      Body::down_site(idx, a.site(idx), a);
    }
  }
};
