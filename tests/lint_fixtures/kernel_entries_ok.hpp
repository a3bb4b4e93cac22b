// Known-good companion: the same member with its checks, the aligned one
// under if constexpr, must NOT fire. Never compiled.
template <class Body>
struct SiteKernels {
  static void down(const DownArgs& a, std::size_t begin, std::size_t end) {
    check_down(a, begin, end, Body::kNeedsTranspose);
    if constexpr (Body::kAligned) check_down_aligned(a);
    for (std::size_t idx = begin; idx < end; ++idx) {
      Body::down_site(idx, a.site(idx), a);
    }
  }
};
