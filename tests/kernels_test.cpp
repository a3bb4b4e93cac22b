#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include "core/kernels.hpp"
#include "core/tip_partial.hpp"
#include "phylo/model.hpp"
#include "test_support.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace plf::core {
namespace {

using phylo::GtrParams;
using phylo::SubstitutionModel;
using phylo::TransitionMatrices;

struct KernelFixture {
  std::size_t m;
  std::size_t K;
  Rng rng{12345};

  TransitionMatrices tm_l, tm_r, tm_o;
  TipPartial tp_l, tp_r, tp_o;
  aligned_vector<float> cl_l, cl_r;
  std::vector<phylo::StateMask> mask_l, mask_r, mask_o;

  KernelFixture(std::size_t m_, std::size_t K_) : m(m_), K(K_) {
    GtrParams p = test::random_gtr(rng, K);
    SubstitutionModel model(p);
    tm_l = model.transition_matrices(0.12);
    tm_r = model.transition_matrices(0.31);
    tm_o = model.transition_matrices(0.07);
    tp_l = TipPartial(tm_l);
    tp_r = TipPartial(tm_r);
    tp_o = TipPartial(tm_o);
    cl_l = test::random_cl(m, K, rng);
    cl_r = test::random_cl(m, K, rng);
    mask_l = test::random_masks(m, rng);
    mask_r = test::random_masks(m, rng);
    mask_o = test::random_masks(m, rng);
  }

  ChildArgs child(bool tip, bool left) const {
    ChildArgs ch;
    const auto& tm = left ? tm_l : tm_r;
    ch.p = tm.row_major();
    ch.pt = tm.col_major();
    if (tip) {
      ch.mask = (left ? mask_l : mask_r).data();
      ch.tp = (left ? tp_l : tp_r).data();
    } else {
      ch.cl = (left ? cl_l : cl_r).data();
    }
    return ch;
  }
};

void expect_close(const aligned_vector<float>& a, const aligned_vector<float>& b,
                  float rel = 2e-5f) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float tol = rel * std::max(1.0f, std::abs(b[i]));
    ASSERT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

using VariantParam = std::tuple<KernelVariant, std::size_t /*K*/,
                                std::size_t /*m*/, bool /*ltip*/, bool /*rtip*/>;

class DownKernelTest : public ::testing::TestWithParam<VariantParam> {};

TEST_P(DownKernelTest, MatchesScalarReference) {
  const auto [variant, K, m, ltip, rtip] = GetParam();
  KernelFixture fx(m, K);

  DownArgs args;
  args.left = fx.child(ltip, true);
  args.right = fx.child(rtip, false);
  args.K = K;

  aligned_vector<float> out_ref(m * K * 4), out_var(m * K * 4);
  args.out = out_ref.data();
  kernels(KernelVariant::kScalar).down(args, 0, m);
  args.out = out_var.data();
  kernels(variant).down(args, 0, m);
  expect_close(out_var, out_ref);
}

TEST_P(DownKernelTest, RangeSplitEqualsWholeRange) {
  const auto [variant, K, m, ltip, rtip] = GetParam();
  KernelFixture fx(m, K);

  DownArgs args;
  args.left = fx.child(ltip, true);
  args.right = fx.child(rtip, false);
  args.K = K;

  aligned_vector<float> whole(m * K * 4), split(m * K * 4);
  args.out = whole.data();
  kernels(variant).down(args, 0, m);
  args.out = split.data();
  // Process in three uneven chunks: identical result required (this is the
  // property every backend partitioning relies on).
  kernels(variant).down(args, 0, m / 3);
  kernels(variant).down(args, m / 3, m / 2 + 1);
  kernels(variant).down(args, m / 2 + 1, m);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    ASSERT_EQ(whole[i], split[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DownKernelTest,
    ::testing::Combine(
        ::testing::Values(KernelVariant::kSimdRow, KernelVariant::kSimdCol,
                          KernelVariant::kSimdSite),
        ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u),
        ::testing::Values(1u, 7u, 64u, 193u),
        ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<VariantParam>& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_K" + std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_Lt" : "_Li") +
             (std::get<4>(info.param) ? "_Rt" : "_Ri");
    });

using RootParam = std::tuple<KernelVariant, std::size_t, bool, bool>;
class RootKernelTest : public ::testing::TestWithParam<RootParam> {};

TEST_P(RootKernelTest, MatchesScalarReference) {
  const auto [variant, K, ltip, rtip] = GetParam();
  const std::size_t m = 111;
  KernelFixture fx(m, K);

  RootArgs args;
  args.down.left = fx.child(ltip, true);
  args.down.right = fx.child(rtip, false);
  args.down.K = K;
  args.out_mask = fx.mask_o.data();
  args.out_tp = fx.tp_o.data();

  aligned_vector<float> out_ref(m * K * 4), out_var(m * K * 4);
  args.down.out = out_ref.data();
  kernels(KernelVariant::kScalar).root(args, 0, m);
  args.down.out = out_var.data();
  kernels(variant).root(args, 0, m);
  expect_close(out_var, out_ref);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, RootKernelTest,
    ::testing::Combine(
        ::testing::Values(KernelVariant::kSimdRow, KernelVariant::kSimdCol,
                          KernelVariant::kSimdSite),
        ::testing::Values(1u, 4u, 5u), ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<RootParam>& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_K" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_Lt" : "_Li") +
             (std::get<3>(info.param) ? "_Rt" : "_Ri");
    });

class ScaleKernelTest
    : public ::testing::TestWithParam<std::tuple<KernelVariant, std::size_t>> {};

TEST_P(ScaleKernelTest, ScalesExactlyByPowerOfTwo) {
  const auto [variant, K] = GetParam();
  const std::size_t m = 97;
  Rng rng(5);
  aligned_vector<float> cl = test::random_cl(m, K, rng, 1e-6f, 0.3f);
  aligned_vector<float> original = cl;
  aligned_vector<float> ln_scaler(m, -1000.0f);

  ScaleArgs args{cl.data(), ln_scaler.data(), K};
  kernels(variant).scale(args, 0, m);

  for (std::size_t c = 0; c < m; ++c) {
    float mx = 0.0f;
    float mx_orig = 0.0f;
    for (std::size_t v = 0; v < K * 4; ++v) {
      mx = std::max(mx, cl[c * K * 4 + v]);
      mx_orig = std::max(mx_orig, original[c * K * 4 + v]);
    }
    // The exponent is ilogb of the row max, recorded as an exact integer,
    // and the scaled max lies in [1, 2).
    const float e = ln_scaler[c];
    ASSERT_EQ(e, static_cast<float>(std::ilogb(mx_orig))) << "site " << c;
    EXPECT_GE(mx, 1.0f);
    EXPECT_LT(mx, 2.0f);
    // row × 2^e is the input, bit for bit.
    for (std::size_t v = 0; v < K * 4; ++v) {
      EXPECT_EQ(std::ldexp(cl[c * K * 4 + v], static_cast<int>(e)),
                original[c * K * 4 + v]);
    }
  }
}

TEST_P(ScaleKernelTest, AllZeroSiteLeftIntact) {
  const auto [variant, K] = GetParam();
  const std::size_t m = 3;
  aligned_vector<float> cl(m * K * 4, 0.0f);
  cl[1 * K * 4 + 2] = 0.5f;  // only site 1 has signal
  aligned_vector<float> ln_scaler(m, 99.0f);
  ScaleArgs args{cl.data(), ln_scaler.data(), K};
  kernels(variant).scale(args, 0, m);
  EXPECT_EQ(ln_scaler[0], 0.0f);
  EXPECT_EQ(ln_scaler[2], 0.0f);
  EXPECT_EQ(ln_scaler[1], -1.0f);  // 0.5 = 2^-1, scaled to exactly 1
  for (std::size_t v = 0; v < K * 4; ++v) {
    EXPECT_EQ(cl[0 * K * 4 + v], 0.0f);
    EXPECT_EQ(cl[1 * K * 4 + v], v == 2 ? 1.0f : 0.0f);
    EXPECT_EQ(cl[2 * K * 4 + v], 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ScaleKernelTest,
    ::testing::Combine(::testing::Values(KernelVariant::kScalar,
                                         KernelVariant::kSimdRow,
                                         KernelVariant::kSimdCol,
                                         KernelVariant::kSimdSite),
                       ::testing::Values(1u, 3u, 4u, 8u)));

TEST(RootReduceTest, VariantsAgreeWithScalar) {
  const std::size_t m = 301, K = 4;
  Rng rng(9);
  aligned_vector<float> cl = test::random_cl(m, K, rng);
  std::vector<std::int32_t> scaler(m);
  std::vector<std::uint32_t> weights(m);
  for (std::size_t c = 0; c < m; ++c) {
    scaler[c] = -static_cast<std::int32_t>(rng.below(40));
    weights[c] = static_cast<std::uint32_t>(1 + rng.below(10));
  }
  RootReduceArgs args;
  args.cl = cl.data();
  args.scaler_count = scaler.data();
  args.weights = weights.data();
  args.K = K;
  const float pis[4] = {0.3f, 0.2f, 0.26f, 0.24f};
  for (int i = 0; i < 4; ++i) args.pi[i] = pis[i];

  const double ref = kernels(KernelVariant::kScalar).root_reduce(args, 0, m);
  for (auto v : {KernelVariant::kSimdRow, KernelVariant::kSimdCol,
                 KernelVariant::kSimdSite}) {
    const double got = kernels(v).root_reduce(args, 0, m);
    EXPECT_NEAR(got, ref, std::abs(ref) * 1e-5);
  }
}

TEST(RootReduceTest, PartialSumsCompose) {
  const std::size_t m = 100, K = 4;
  Rng rng(10);
  aligned_vector<float> cl = test::random_cl(m, K, rng);
  std::vector<std::int32_t> scaler(m, 0);
  std::vector<std::uint32_t> weights(m, 1);
  RootReduceArgs args;
  args.cl = cl.data();
  args.scaler_count = scaler.data();
  args.weights = weights.data();
  args.K = K;

  const auto& ks = kernels(KernelVariant::kScalar);
  const double whole = ks.root_reduce(args, 0, m);
  const double parts = ks.root_reduce(args, 0, 33) +
                       ks.root_reduce(args, 33, 71) +
                       ks.root_reduce(args, 71, m);
  EXPECT_NEAR(whole, parts, 1e-9);
}

TEST(RootReduceTest, WeightsScaleContribution) {
  const std::size_t K = 4;
  Rng rng(11);
  aligned_vector<float> cl = test::random_cl(1, K, rng);
  std::vector<std::int32_t> scaler(1, -3);
  RootReduceArgs args;
  args.cl = cl.data();
  args.scaler_count = scaler.data();
  args.K = K;
  std::vector<std::uint32_t> w1{1}, w5{5};
  args.weights = w1.data();
  const double a = kernels(KernelVariant::kScalar).root_reduce(args, 0, 1);
  args.weights = w5.data();
  const double b = kernels(KernelVariant::kScalar).root_reduce(args, 0, 1);
  EXPECT_NEAR(b, 5.0 * a, 1e-12);
}

TEST(TipPartialTest, MatchesManualSum) {
  Rng rng(3);
  SubstitutionModel model(test::random_gtr(rng, 4));
  const TransitionMatrices tm = model.transition_matrices(0.2);
  const TipPartial tp(tm);
  for (std::size_t mask = 1; mask < phylo::kNumMasks; ++mask) {
    for (std::size_t k = 0; k < 4; ++k) {
      for (std::size_t i = 0; i < 4; ++i) {
        float expect = 0.0f;
        for (std::size_t j = 0; j < 4; ++j) {
          if ((mask >> j) & 1u) expect += tm.row_major()[k * 16 + i * 4 + j];
        }
        EXPECT_FLOAT_EQ(tp.data()[mask * 16 + k * 4 + i], expect);
      }
    }
  }
}

TEST(TipPartialTest, GapMaskGivesRowSumsNearOne) {
  // For the full-gap mask the partial is the row sum of P, which is 1.
  Rng rng(4);
  SubstitutionModel model(test::random_gtr(rng, 4));
  const TipPartial tp(model.transition_matrices(0.5));
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(tp.data()[15 * 16 + k * 4 + i], 1.0f, 1e-5f);
    }
  }
}

TEST(KernelMetaTest, VariantNamesDistinct) {
  std::set<std::string> names;
  for (auto v : {KernelVariant::kScalar, KernelVariant::kSimdRow,
                 KernelVariant::kSimdCol, KernelVariant::kSimdSite}) {
    names.insert(to_string(v));
    EXPECT_EQ(kernels(v).variant, v);
  }
  EXPECT_EQ(names.size(), 4u);
}

TEST(KernelMetaTest, FlopCountPositiveAndLinearInK) {
  EXPECT_GT(down_flops_per_pattern(1), 0.0);
  EXPECT_DOUBLE_EQ(down_flops_per_pattern(8), 2.0 * down_flops_per_pattern(4));
}

}  // namespace
}  // namespace plf::core
