// Scale conformance: the exact power-of-two rescale (core::ScaleArgs) on
// rows built to hit its edge cases. Every kernel variant, through the plain
// scale entry and the fused down/root + scale entries, and the Cell and GPU
// backends' scale must write the reference rows and exponents bit for bit:
//
//   - e = ilogb(row max) for a positive finite max, else 0 with the row
//     left as it is (zero, infinite and NaN maxima);
//   - the scaled row is ldexp(row, -e), so its max lies in [1, 2) unless
//     e = 0, and row × 2^e gives the input back wherever the scaled entry
//     is a normal float;
//   - a subnormal max, or one in [2^127, FLT_MAX], scales exactly too.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/kernels.hpp"
#include "gpu/plf_gpu.hpp"
#include "phylo/dna.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace plf {
namespace {

using core::KernelVariant;

float from_bits(std::uint32_t b) {
  float f = 0.0f;
  std::memcpy(&f, &b, sizeof f);
  return f;
}

std::uint32_t bits_of(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

/// One named edge-case row of n entries.
struct EdgeRow {
  std::string name;
  std::vector<float> v;
};

/// The edge cases, each filled to n = K * 4 entries; the row's max sits at
/// a K-dependent position so that every rate group is exercised.
std::vector<EdgeRow> edge_rows(std::size_t n) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t at = (n * 5) / 7;  // where the max goes
  auto row = [n, at](const std::string& name, float max, float rest) {
    EdgeRow r{name, std::vector<float>(n, rest)};
    for (std::size_t i = 0; i < n; ++i) {
      // A spread of smaller entries: rest, rest / 2, rest / 3, ...
      r.v[i] = rest / static_cast<float>(1 + i % 5);
    }
    r.v[at] = max;
    return r;
  };
  std::vector<EdgeRow> rows;
  rows.push_back(row("zero", 0.0f, 0.0f));
  rows.push_back(row("exactly-one", 1.0f, 0.3f));
  rows.push_back(row("below-half", std::nextafter(0.5f, 0.0f), 0.1f));
  rows.push_back(row("power-of-two", 0.25f, 0.2f));
  rows.push_back(row("typical", 3.7e-3f, 1.1e-3f));
  rows.push_back(row("deep", 1.5e-30f, 7.0e-31f));
  rows.push_back(row("smallest-normal", FLT_MIN, FLT_MIN / 4.0f));
  rows.push_back(row("subnormal", from_bits(0x00300001u), from_bits(0x11u)));
  rows.push_back(row("subnormal-pow2", from_bits(0x00400000u),  // 2^-127
                     from_bits(0x00000001u)));
  rows.push_back(row("fast-path-top", 1.5f * std::ldexp(1.0f, 126), 3.0e37f));
  rows.push_back(row("near-flt-max", FLT_MAX, FLT_MAX / 3.0f));
  rows.push_back(row("underflowing-tail", std::ldexp(1.0f, 127), 1.0e-30f));
  rows.push_back(row("infinite", inf, 0.5f));
  rows.push_back(row("all-nan", nan, nan));
  return rows;
}

/// The reference exponent: ilogb of the max for a positive finite max,
/// else 0.
int ref_exponent(const std::vector<float>& v) {
  float m = v[0];
  for (float x : v) {
    if (x > m) m = x;
  }
  if (!(m > 0.0f) || !std::isfinite(m)) return 0;
  return std::ilogb(m);
}

/// Checks one scaled row against the reference: the exponent, the bits,
/// the max in [1, 2) and the round trip.
void expect_conforms(const EdgeRow& in, const float* out, float exponent,
                     const std::string& who) {
  const int e = ref_exponent(in.v);
  SCOPED_TRACE(who + ", row " + in.name);
  ASSERT_EQ(bits_of(exponent), bits_of(static_cast<float>(e)))
      << "exponent " << exponent << ", expected " << e;
  float mx = 0.0f;
  for (std::size_t i = 0; i < in.v.size(); ++i) {
    const float want = e == 0 ? in.v[i] : std::ldexp(in.v[i], -e);
    EXPECT_EQ(bits_of(out[i]), bits_of(want)) << "entry " << i;
    if (out[i] > mx) mx = out[i];
    if (std::fabs(out[i]) >= FLT_MIN) {
      EXPECT_EQ(bits_of(std::ldexp(out[i], e)), bits_of(in.v[i]))
          << "entry " << i << " does not round-trip";
    }
  }
  if (e != 0) {
    EXPECT_GE(mx, 1.0f);
    EXPECT_LT(mx, 2.0f);
  }
}

/// The edge rows laid out as one CLV block of n-entry rows, aligned.
aligned_vector<float> as_block(const std::vector<EdgeRow>& rows,
                               std::size_t n) {
  aligned_vector<float> block(rows.size() * n);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::memcpy(block.data() + r * n, rows[r].v.data(), n * sizeof(float));
  }
  return block;
}

class ScaleConformanceTest
    : public ::testing::TestWithParam<std::tuple<KernelVariant, std::size_t>> {
 protected:
  std::size_t K() const { return std::get<1>(GetParam()); }
  std::size_t n() const { return K() * 4; }
  const core::KernelSet& ks() const {
    return core::kernels(std::get<0>(GetParam()));
  }
  std::string who(const char* entry) const {
    return core::to_string(std::get<0>(GetParam())) + " " + entry + " K=" +
           std::to_string(K());
  }

  void check_block(const std::vector<EdgeRow>& rows, const float* out,
                   const float* exponents, const char* entry) const {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      expect_conforms(rows[r], out + r * n(), exponents[r], who(entry));
    }
  }

  /// Fused entries: the left tip table holds the edge rows (mask r selects
  /// row r) and the right tip table and the outgroup table are all ones, so
  /// the down (and root) output is each edge row exactly, rescaled in the
  /// fused pass.
  void run_fused(bool root) const {
    const std::vector<EdgeRow> rows = edge_rows(n());
    ASSERT_LE(rows.size(), phylo::kNumMasks);
    aligned_vector<float> left_tp(phylo::kNumMasks * n(), 0.0f);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::memcpy(left_tp.data() + r * n(), rows[r].v.data(),
                  n() * sizeof(float));
    }
    const aligned_vector<float> ones(phylo::kNumMasks * n(), 1.0f);
    std::vector<phylo::StateMask> left_mask(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      left_mask[r] = static_cast<phylo::StateMask>(r);
    }
    const std::vector<phylo::StateMask> other_mask(rows.size(),
                                                   phylo::kGapMask);
    aligned_vector<float> out(rows.size() * n(), -7.0f);
    aligned_vector<float> exps(rows.size(), -1000.0f);

    core::RootArgs a;
    a.down.left.mask = left_mask.data();
    a.down.left.tp = left_tp.data();
    a.down.right.mask = other_mask.data();
    a.down.right.tp = ones.data();
    a.down.out = out.data();
    a.down.K = K();
    a.out_mask = other_mask.data();
    a.out_tp = ones.data();
    const core::ScaleArgs s{out.data(), exps.data(), K()};
    if (root) {
      ks().root_scale(a, s, 0, rows.size());
    } else {
      ks().down_scale(a.down, s, 0, rows.size());
    }
    check_block(rows, out.data(), exps.data(),
                root ? "root_scale" : "down_scale");
  }
};

TEST_P(ScaleConformanceTest, ScaleEntry) {
  const std::vector<EdgeRow> rows = edge_rows(n());
  aligned_vector<float> block = as_block(rows, n());
  aligned_vector<float> exps(rows.size(), -1000.0f);
  ks().scale(core::ScaleArgs{block.data(), exps.data(), K()}, 0, rows.size());
  check_block(rows, block.data(), exps.data(), "scale");
}

TEST_P(ScaleConformanceTest, FusedDownScaleEntry) { run_fused(false); }

TEST_P(ScaleConformanceTest, FusedRootScaleEntry) { run_fused(true); }

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ScaleConformanceTest,
    ::testing::Combine(::testing::Values(KernelVariant::kScalar,
                                         KernelVariant::kSimdRow,
                                         KernelVariant::kSimdCol,
                                         KernelVariant::kSimdSite),
                       ::testing::Values(1u, 3u, 4u, 8u)),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case KernelVariant::kScalar: name = "Scalar"; break;
        case KernelVariant::kSimdRow: name = "SimdRow"; break;
        case KernelVariant::kSimdCol: name = "SimdCol"; break;
        case KernelVariant::kSimdSite: name = "SimdSite"; break;
      }
      return name + "_K" + std::to_string(std::get<1>(info.param));
    });

/// The simulated accelerators' scale: the Cell SPUs run the simd-col
/// kernels on DMA'd chunks, the GPU the scalar row body on device memory.
TEST(ScaleConformanceBackendTest, CellAndGpuScaleMatchTheReference) {
  constexpr std::size_t kK = 4, kN = kK * 4;
  const std::vector<EdgeRow> rows = edge_rows(kN);
  // Enough copies for several SPU chunks and GPU blocks.
  constexpr std::size_t kCopies = 40;
  std::vector<EdgeRow> many;
  for (std::size_t c = 0; c < kCopies; ++c) {
    many.insert(many.end(), rows.begin(), rows.end());
  }
  cell::CellConfig cell_cfg;
  cell_cfg.n_spes = 4;
  cell::CellMachine cell(cell_cfg);
  gpu::GpuPlf gpu(gpu::GpuPlfConfig{});
  const core::KernelSet& ks = core::kernels(KernelVariant::kSimdCol);
  for (core::ExecutionBackend* b :
       {static_cast<core::ExecutionBackend*>(&cell),
        static_cast<core::ExecutionBackend*>(&gpu)}) {
    aligned_vector<float> block = as_block(many, kN);
    aligned_vector<float> exps(many.size(), -1000.0f);
    b->run_scale(ks, core::ScaleArgs{block.data(), exps.data(), kK},
                 many.size());
    for (std::size_t r = 0; r < many.size(); ++r) {
      expect_conforms(many[r], block.data() + r * kN, exps[r], b->name());
    }
  }
}

/// Random rows at every exponent the kernels meet in practice: all
/// variants agree bit for bit with each other and with the reference.
TEST(ScaleConformanceBackendTest, RandomRowsAcrossExponents) {
  constexpr std::size_t kK = 4, kN = kK * 4, kRows = 509;
  Rng rng(29);
  std::vector<EdgeRow> rows(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    const int shift = -static_cast<int>(rng.below(140));
    rows[r].name = "random-" + std::to_string(r);
    rows[r].v.resize(kN);
    for (float& x : rows[r].v) {
      x = std::ldexp(static_cast<float>(rng.uniform(0.0, 1.0)), shift);
    }
  }
  for (KernelVariant v : {KernelVariant::kScalar, KernelVariant::kSimdRow,
                          KernelVariant::kSimdCol, KernelVariant::kSimdSite}) {
    aligned_vector<float> block = as_block(rows, kN);
    aligned_vector<float> exps(kRows, -1000.0f);
    core::kernels(v).scale(core::ScaleArgs{block.data(), exps.data(), kK}, 0,
                           kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      expect_conforms(rows[r], block.data() + r * kN, exps[r],
                      core::to_string(v));
    }
  }
}

}  // namespace
}  // namespace plf
