// Conformance suite for the fused PLF kernels with tip children
// (docs/KERNELS.md): every fused down/root+scale entry, with a tip child on
// either side or on both (a cherry), must reproduce the generic unfused path
// to the last ULP — across all kernel variants, all 15×15 valid
// ambiguity-mask pairs, K ∈ {1, 4}, with and without site-repeat compaction,
// and at branch-length extremes. Under compaction, output row r is computed
// from site site_index[r], internal children are read through their class
// maps (ChildArgs::row_of), and rows at or past the run length stay
// untouched. Comparisons are memcmp (0 ULP), because the
// backends substitute these entries freely and the engine's A/B guarantees
// (PerCallBackend vs each backend's own run_plan) demand bit identity, not
// tolerance.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "core/tip_partial.hpp"
#include "phylo/dna.hpp"
#include "phylo/model.hpp"
#include "test_support.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace plf::core {
namespace {

using phylo::GtrParams;
using phylo::StateMask;
using phylo::SubstitutionModel;
using phylo::TransitionMatrices;

// All valid (nonzero) mask pairs, exhaustively: site c carries the pair
// (1 + c / 15, 1 + c % 15). Mask 0 never occurs in data (patterns always
// intersect at least one state), so 15×15 = 225 sites cover every reachable
// pair of tip-partial rows.
constexpr std::size_t kValidMasks = phylo::kNumMasks - 1;
constexpr std::size_t kPairSites = kValidMasks * kValidMasks;

struct TipFixture {
  std::size_t m = kPairSites;
  std::size_t K;
  Rng rng{777};

  TransitionMatrices tm_l, tm_r, tm_o;
  TipPartial tp_l, tp_r, tp_o;
  std::vector<StateMask> mask_l, mask_r, mask_o;
  aligned_vector<float> cl_r;          // internal child of tip×inner ops
  std::vector<std::uint32_t> repeats;  // strictly increasing site subset
  // Compacted internal children: site c lives in stored row row_of[c].
  static constexpr std::size_t kChildRows = 50;
  std::vector<std::uint32_t> row_of;
  aligned_vector<float> cl_r_rows;  // compacted right child, kChildRows rows

  TipFixture(std::size_t K_, double branch_scale) : K(K_) {
    GtrParams p = test::random_gtr(rng, K);
    SubstitutionModel model(p);
    tm_l = model.transition_matrices(0.12 * branch_scale);
    tm_r = model.transition_matrices(0.31 * branch_scale);
    tm_o = model.transition_matrices(0.07 * branch_scale);
    tp_l = TipPartial(tm_l);
    tp_r = TipPartial(tm_r);
    tp_o = TipPartial(tm_o);
    mask_l.resize(m);
    mask_r.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
      mask_l[c] = static_cast<StateMask>(1 + c / kValidMasks);
      mask_r[c] = static_cast<StateMask>(1 + c % kValidMasks);
    }
    mask_o = test::random_masks(m, rng);
    cl_r = test::random_cl(m, K, rng);
    for (std::uint32_t c = 0; c < m; c += 3) repeats.push_back(c);
    row_of.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
      row_of[c] = static_cast<std::uint32_t>((c * 7) % kChildRows);
    }
    cl_r_rows = test::random_cl(kChildRows, K, rng);
  }

  ChildArgs tip_left() const {
    ChildArgs ch;
    ch.mask = mask_l.data();
    ch.tp = tp_l.data();
    ch.p = tm_l.row_major();
    ch.pt = tm_l.col_major();
    return ch;
  }
  ChildArgs tip_right() const {
    ChildArgs ch;
    ch.mask = mask_r.data();
    ch.tp = tp_r.data();
    ch.p = tm_r.row_major();
    ch.pt = tm_r.col_major();
    return ch;
  }
  /// The internal right child: dense, or compacted behind row_of.
  ChildArgs inner_right(bool use_repeats) const {
    ChildArgs ch;
    ch.cl = use_repeats ? cl_r_rows.data() : cl_r.data();
    ch.row_of = use_repeats ? row_of.data() : nullptr;
    ch.p = tm_r.row_major();
    ch.pt = tm_r.col_major();
    return ch;
  }
  /// inner_right(true) expanded to one stored row per site: the dense child
  /// the compacted one stands for.
  aligned_vector<float> expanded_right() const {
    const std::size_t row = K * 4;
    aligned_vector<float> dense(m * row);
    for (std::size_t c = 0; c < m; ++c) {
      std::memcpy(dense.data() + c * row, cl_r_rows.data() + row_of[c] * row,
                  row * sizeof(float));
    }
    return dense;
  }

  /// A cherry op: both children tips, every valid mask pair over the sites.
  DownArgs tip_tip(bool use_repeats) const {
    DownArgs a;
    a.left = tip_left();
    a.right = tip_right();
    a.K = K;
    a.site_index = use_repeats ? repeats.data() : nullptr;
    a.n_sites = m;
    return a;
  }

  std::size_t run_m(bool use_repeats) const {
    return use_repeats ? repeats.size() : m;
  }
};

void expect_bitwise_equal(const aligned_vector<float>& got,
                          const aligned_vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

/// Entries from `first` on were never written (the buffers start zeroed).
void expect_zero_from(const aligned_vector<float>& v, std::size_t first) {
  for (std::size_t i = first; i < v.size(); ++i) {
    ASSERT_EQ(v[i], 0.0f) << "entry " << i << " written past the run";
  }
}

// ---------------------------------------------------------------------------
// Kernel conformance, parameterized over
// (variant, K, branch-length scale, site repeats on/off).

using TipParam =
    std::tuple<KernelVariant, std::size_t /*K*/, double /*branch scale*/,
               bool /*site repeats*/>;

class TipKernelConformanceTest : public ::testing::TestWithParam<TipParam> {
 protected:
  // Both outputs seeded identically so untouched rows (at or past the run
  // length) compare equal under memcmp too.
  static aligned_vector<float> zeros(std::size_t n) {
    return aligned_vector<float>(n, 0.0f);
  }
};

TEST_P(TipKernelConformanceTest, TipInnerMatchesGenericDown) {
  // The generic down reads a tip child's TipPartial row where an internal
  // child gets a matvec. Both must agree bit for bit on the same rows: the
  // tip-partial table read as an internal child behind a class map of the
  // tip's masks, under identity transition matrices (P·x == x exactly for
  // x >= 0). Tip child left and right, internal sibling dense or compacted.
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const std::size_t n = fx.run_m(use_repeats);

  aligned_vector<float> identity(K * 16, 0.0f);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t i = 0; i < 4; ++i) identity[k * 16 + i * 5] = 1.0f;
  }
  const std::vector<std::uint32_t> mask_rows(fx.mask_l.begin(),
                                             fx.mask_l.end());
  ChildArgs tip_as_inner;
  tip_as_inner.cl = fx.tp_l.data();
  tip_as_inner.row_of = mask_rows.data();
  tip_as_inner.p = identity.data();
  tip_as_inner.pt = identity.data();

  for (const bool left_is_tip : {true, false}) {
    SCOPED_TRACE(left_is_tip ? "tip left" : "tip right");
    DownArgs tip;
    tip.left = fx.tip_left();
    tip.right = fx.inner_right(use_repeats);
    tip.K = K;
    tip.site_index = use_repeats ? fx.repeats.data() : nullptr;
    tip.n_sites = fx.m;
    DownArgs inner = tip;
    inner.left = tip_as_inner;
    if (!left_is_tip) {
      std::swap(tip.left, tip.right);
      std::swap(inner.left, inner.right);
    }

    aligned_vector<float> out_tip = zeros(fx.m * K * 4);
    aligned_vector<float> out_inner = zeros(fx.m * K * 4);
    tip.out = out_tip.data();
    ks.down(tip, 0, n);
    inner.out = out_inner.data();
    ks.down(inner, 0, n);
    expect_bitwise_equal(out_tip, out_inner);
    expect_zero_from(out_tip, n * K * 4);
  }
}

/// Unfused (down then scale) and fused outputs of one op, each over its own
/// zeroed buffers, plus the scale block both runs use.
struct FusedPair {
  aligned_vector<float> out_a, out_b, ln_a, ln_b;

  FusedPair(std::size_t m, std::size_t K)
      : out_a(m * K * 4, 0.0f),
        out_b(m * K * 4, 0.0f),
        ln_a(m, 0.0f),
        ln_b(m, 0.0f) {}

  ScaleArgs scale_a(std::size_t K) {
    ScaleArgs s;
    s.cl = out_a.data();
    s.ln_scaler = ln_a.data();
    s.K = K;
    return s;
  }
  ScaleArgs scale_b(std::size_t K) {
    ScaleArgs s;
    s.cl = out_b.data();
    s.ln_scaler = ln_b.data();
    s.K = K;
    return s;
  }

  /// Fused == unfused bit for bit, and nothing at or past row `run_m` was
  /// written by either.
  void expect_match(std::size_t run_m, std::size_t K) const {
    expect_bitwise_equal(out_b, out_a);
    expect_bitwise_equal(ln_b, ln_a);
    expect_zero_from(out_a, run_m * K * 4);
    expect_zero_from(ln_a, run_m);
  }
};

TEST_P(TipKernelConformanceTest, FusedDownScaleMatchesUnfusedPair) {
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  // Generic inner×inner op (second random CLV as the left child; compacted
  // runs read it through the same class map as the right child).
  aligned_vector<float> cl_l = test::random_cl(fx.m, K, fx.rng);

  DownArgs args;
  args.left = fx.inner_right(use_repeats);
  args.left.cl = cl_l.data();
  args.left.p = fx.tm_l.row_major();
  args.left.pt = fx.tm_l.col_major();
  args.right = fx.inner_right(use_repeats);
  args.K = K;
  args.site_index = use_repeats ? fx.repeats.data() : nullptr;
  args.n_sites = fx.m;
  const std::size_t n = fx.run_m(use_repeats);

  FusedPair fp(fx.m, K);
  args.out = fp.out_a.data();
  ks.down(args, 0, n);
  ks.scale(fp.scale_a(K), 0, n);
  args.out = fp.out_b.data();
  ks.down_scale(args, fp.scale_b(K), 0, n);
  fp.expect_match(n, K);
}

TEST_P(TipKernelConformanceTest, FusedTipInnerScaleMatchesUnfusedPair) {
  // A one-tip op runs the generic entries with the tip child on whichever
  // side the tree has it, so both sides must fuse exactly — and, the two
  // child factors multiplying elementwise, give the same bits as each other.
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const std::size_t n = fx.run_m(use_repeats);

  FusedPair tip_left(fx.m, K), tip_right(fx.m, K);
  for (const bool left_is_tip : {true, false}) {
    SCOPED_TRACE(left_is_tip ? "tip left" : "tip right");
    DownArgs args;
    args.left = fx.tip_left();
    args.right = fx.inner_right(use_repeats);
    if (!left_is_tip) std::swap(args.left, args.right);
    args.K = K;
    args.site_index = use_repeats ? fx.repeats.data() : nullptr;
    args.n_sites = fx.m;

    FusedPair& fp = left_is_tip ? tip_left : tip_right;
    args.out = fp.out_a.data();
    ks.down(args, 0, n);
    ks.scale(fp.scale_a(K), 0, n);
    args.out = fp.out_b.data();
    ks.down_scale(args, fp.scale_b(K), 0, n);
    fp.expect_match(n, K);
  }
  expect_bitwise_equal(tip_right.out_b, tip_left.out_b);
  expect_bitwise_equal(tip_right.ln_b, tip_left.ln_b);
}

TEST_P(TipKernelConformanceTest, FusedTipTipScaleMatchesUnfusedPair) {
  // The engine runs a cherry op through the generic fused down_scale; it
  // must give the bits of the unfused pair, the generic down then scale,
  // over the same two tip children and every valid mask pair.
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const std::size_t n = fx.run_m(use_repeats);

  DownArgs args = fx.tip_tip(use_repeats);
  FusedPair fp(fx.m, K);
  args.out = fp.out_a.data();
  ks.down(args, 0, n);
  ks.scale(fp.scale_a(K), 0, n);
  args.out = fp.out_b.data();
  ks.down_scale(args, fp.scale_b(K), 0, n);
  fp.expect_match(n, K);
}

TEST_P(TipKernelConformanceTest, TipTipGatherMatchesGenericDown) {
  // A cherry's rows depend only on its two tips' mask pair, so a reference
  // built per pair — the product of the two tip-partial rows, rescaled by
  // the variant's own scale entry — and gathered by each site's masks must
  // give the bits of the generic fused down over the same two tips.
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const std::size_t n = fx.run_m(use_repeats);
  const std::size_t row = K * 4;

  aligned_vector<float> pair_rows(kPairSites * row);
  aligned_vector<float> pair_ln(kPairSites, 0.0f);
  for (std::size_t lm = 1; lm <= kValidMasks; ++lm) {
    for (std::size_t rm = 1; rm <= kValidMasks; ++rm) {
      const std::size_t pair = (lm - 1) * kValidMasks + (rm - 1);
      for (std::size_t v = 0; v < row; ++v) {
        pair_rows[pair * row + v] =
            fx.tp_l.data()[lm * row + v] * fx.tp_r.data()[rm * row + v];
      }
    }
  }
  ScaleArgs table_scale;
  table_scale.cl = pair_rows.data();
  table_scale.ln_scaler = pair_ln.data();
  table_scale.K = K;
  ks.scale(table_scale, 0, kPairSites);

  DownArgs args = fx.tip_tip(use_repeats);
  FusedPair fp(fx.m, K);
  args.out = fp.out_a.data();
  ks.down_scale(args, fp.scale_a(K), 0, n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t c = args.site(r);
    const std::size_t pair =
        (fx.mask_l[c] - 1u) * kValidMasks + (fx.mask_r[c] - 1u);
    std::memcpy(fp.out_b.data() + r * row, pair_rows.data() + pair * row,
                row * sizeof(float));
    fp.ln_b[r] = pair_ln[pair];
  }
  fp.expect_match(n, K);
}

TEST_P(TipKernelConformanceTest, TipTipChildOrderGivesSameBits) {
  // The two tip factors multiply elementwise, so a cherry's fused output
  // must not depend on which tip the tree puts on the left.
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const std::size_t n = fx.run_m(use_repeats);

  DownArgs args = fx.tip_tip(use_repeats);
  FusedPair fp(fx.m, K);
  args.out = fp.out_a.data();
  ks.down_scale(args, fp.scale_a(K), 0, n);
  std::swap(args.left, args.right);
  args.out = fp.out_b.data();
  ks.down_scale(args, fp.scale_b(K), 0, n);
  fp.expect_match(n, K);
}

TEST_P(TipKernelConformanceTest, FusedRootScaleMatchesUnfusedPair) {
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);

  RootArgs args;
  args.down.left = fx.tip_left();
  args.down.right = fx.inner_right(use_repeats);
  args.down.K = K;
  args.down.site_index = use_repeats ? fx.repeats.data() : nullptr;
  args.down.n_sites = fx.m;
  args.out_mask = fx.mask_o.data();
  args.out_tp = fx.tp_o.data();
  const std::size_t n = fx.run_m(use_repeats);

  FusedPair fp(fx.m, K);
  args.down.out = fp.out_a.data();
  ks.root(args, 0, n);
  ks.scale(fp.scale_a(K), 0, n);
  args.down.out = fp.out_b.data();
  ks.root_scale(args, fp.scale_b(K), 0, n);
  fp.expect_match(n, K);
}

TEST_P(TipKernelConformanceTest, CompactedRowsEqualDenseRowsOfTheirSites) {
  // Row r of a compacted run holds exactly the dense run's row for site
  // site_index[r], when the dense run reads the compacted child expanded to
  // one row per site: the layout the engine's class maps stand for. Covers
  // the generic down with the tip child left and right, and the root entry
  // (dense params: the identity).
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const std::size_t n = fx.run_m(use_repeats);
  const std::size_t row = K * 4;
  const aligned_vector<float> right_dense =
      use_repeats ? fx.expanded_right() : fx.cl_r;

  RootArgs compact;
  compact.down.left = fx.tip_left();
  compact.down.right = fx.inner_right(use_repeats);
  compact.down.K = K;
  compact.down.site_index = use_repeats ? fx.repeats.data() : nullptr;
  compact.down.n_sites = fx.m;
  compact.out_mask = fx.mask_o.data();
  compact.out_tp = fx.tp_o.data();
  RootArgs dense = compact;
  dense.down.right = fx.inner_right(false);
  dense.down.right.cl = right_dense.data();
  dense.down.site_index = nullptr;

  for (int entry = 0; entry < 3; ++entry) {
    SCOPED_TRACE(entry == 0 ? "down" : (entry == 1 ? "down, tip right"
                                                   : "root"));
    aligned_vector<float> out_c = zeros(fx.m * row);
    aligned_vector<float> out_d = zeros(fx.m * row);
    compact.down.out = out_c.data();
    dense.down.out = out_d.data();
    if (entry == 0) {
      ks.down(compact.down, 0, n);
      ks.down(dense.down, 0, fx.m);
    } else if (entry == 1) {
      DownArgs compact_swapped = compact.down;
      DownArgs dense_swapped = dense.down;
      std::swap(compact_swapped.left, compact_swapped.right);
      std::swap(dense_swapped.left, dense_swapped.right);
      ks.down(compact_swapped, 0, n);
      ks.down(dense_swapped, 0, fx.m);
    } else {
      ks.root(compact, 0, n);
      ks.root(dense, 0, fx.m);
    }
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t c = compact.down.site(r);
      ASSERT_EQ(std::memcmp(out_c.data() + r * row, out_d.data() + c * row,
                            row * sizeof(float)),
                0)
          << "row " << r << " (site " << c << ")";
    }
    expect_zero_from(out_c, n * row);
  }
}

TEST_P(TipKernelConformanceTest, TipTipRangeSplitEqualsWholeRange) {
  // A threaded backend splits a cherry op into site chunks; the chunks must
  // rebuild the whole-range output exactly.
  const auto [variant, K, scale, use_repeats] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const std::size_t n = fx.run_m(use_repeats);

  DownArgs args = fx.tip_tip(use_repeats);
  FusedPair fp(fx.m, K);
  args.out = fp.out_a.data();
  ks.down_scale(args, fp.scale_a(K), 0, n);
  args.out = fp.out_b.data();
  const ScaleArgs ss = fp.scale_b(K);
  ks.down_scale(args, ss, 0, n / 3);
  ks.down_scale(args, ss, n / 3, n / 2 + 1);
  ks.down_scale(args, ss, n / 2 + 1, n);
  fp.expect_match(n, K);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TipKernelConformanceTest,
    ::testing::Combine(
        ::testing::Values(KernelVariant::kScalar, KernelVariant::kSimdRow,
                          KernelVariant::kSimdCol, KernelVariant::kSimdSite),
        ::testing::Values(1u, 4u),
        // Branch-length scale factors: near-zero branches (transition matrix
        // ~identity, tip rows hit the 0/1 extremes), typical, and
        // near-saturation (rows flatten toward the stationary distribution).
        ::testing::Values(1e-5, 1.0, 250.0), ::testing::Bool()),
    [](const ::testing::TestParamInfo<TipParam>& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      const double s = std::get<2>(info.param);
      const char* stag = s < 1e-3 ? "tiny" : (s > 10.0 ? "huge" : "mid");
      return name + "_K" + std::to_string(std::get<1>(info.param)) + "_" +
             stag + (std::get<3>(info.param) ? "_rep" : "_dense");
    });

}  // namespace
}  // namespace plf::core
