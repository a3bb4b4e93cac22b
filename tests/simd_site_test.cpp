// 0-ULP conformance of the whole-site kernels (kSimdSite) against approach
// (ii) (kSimdCol), whose float operations they rearrange into one register
// per site row: every covered entry — down, root and their fused rescale
// twins, with tips on either side — must write the same CLV rows and ln_scaler entries, byte
// for byte, and the engine must return the same lnL bits.
//
// Coverage: K ∈ {1, 2, 4, 8} (K != 4 runs the simd-col fallback), dense and
// compacted operands (site_index + per-child row_of maps), ranges of 0 and 1
// rows and ranges of odd lengths and edges, and extreme child rows: all
// zero, subnormal, one +inf, one NaN lane. Comparisons are memcmp, so NaN
// payloads and the sign of zero count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/kernels.hpp"
#include "core/tip_partial.hpp"
#include "par/thread_pool.hpp"
#include "phylo/model.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace plf::core {
namespace {

using phylo::StateMask;
using phylo::TransitionMatrices;

constexpr float kSentinel = -7.25f;  // rows a range must leave untouched

/// Rows first..first+3 of `cl` become the extreme rows: all zero, all
/// subnormal, one +inf, one NaN lane.
void plant_extremes(aligned_vector<float>& cl, std::size_t K,
                    std::size_t first) {
  const std::size_t w = K * 4;
  float* zero = cl.data() + first * w;
  float* sub = zero + w;
  float* inf = sub + w;
  float* nan = inf + w;
  for (std::size_t v = 0; v < w; ++v) {
    zero[v] = 0.0f;
    sub[v] = std::numeric_limits<float>::denorm_min() *
             static_cast<float>(1 + 37 * v);
  }
  inf[w - 3] = std::numeric_limits<float>::infinity();
  nan[2] = std::numeric_limits<float>::quiet_NaN();
}

struct SiteFixture {
  static constexpr std::size_t kSites = 300;
  static constexpr std::size_t kChildRows = 40;  // compacted child rows

  std::size_t K;
  bool compact;
  Rng rng{4242};
  TransitionMatrices tm_l, tm_r, tm_o;
  TipPartial tp_l, tp_r, tp_o;
  std::vector<StateMask> mask_l, mask_r, mask_o;
  aligned_vector<float> cl_l, cl_r;  // kSites rows dense, kChildRows compacted
  std::vector<std::uint32_t> row_of_l, row_of_r, site_index;

  SiteFixture(std::size_t K_, bool compact_, bool extremes = true)
      : K(K_), compact(compact_) {
    phylo::SubstitutionModel model(test::random_gtr(rng, K));
    tm_l = model.transition_matrices(0.12);
    tm_r = model.transition_matrices(0.31);
    tm_o = model.transition_matrices(0.07);
    tp_l = TipPartial(tm_l);
    tp_r = TipPartial(tm_r);
    tp_o = TipPartial(tm_o);
    mask_l = test::random_masks(kSites, rng);
    mask_r = test::random_masks(kSites, rng);
    mask_o = test::random_masks(kSites, rng);
    const std::size_t rows = compact ? kChildRows : kSites;
    cl_l = test::random_cl(rows, K, rng);
    cl_r = test::random_cl(rows, K, rng);
    // Dense: sites 3..6 read the extreme rows. Compacted: those rows are
    // stored rows 3..6, which several sites map to.
    if (extremes) {
      plant_extremes(cl_l, K, 3);
      plant_extremes(cl_r, K, 3);
    }
    if (compact) {
      for (std::size_t c = 0; c < kSites; ++c) {
        row_of_l.push_back(static_cast<std::uint32_t>(c % kChildRows));
        row_of_r.push_back(static_cast<std::uint32_t>((c * 7) % kChildRows));
      }
      for (std::uint32_t c = 0; c < kSites; ++c) {
        if (c % 3 != 1) site_index.push_back(c);
      }
    }
  }

  /// Output rows of the iteration range.
  std::size_t n_out() const { return compact ? site_index.size() : kSites; }

  ChildArgs child(bool tip, bool left) const {
    ChildArgs ch;
    const TransitionMatrices& tm = left ? tm_l : tm_r;
    ch.p = tm.row_major();
    ch.pt = tm.col_major();
    if (tip) {
      ch.mask = (left ? mask_l : mask_r).data();
      ch.tp = (left ? tp_l : tp_r).data();
    } else {
      ch.cl = (left ? cl_l : cl_r).data();
      if (compact) ch.row_of = (left ? row_of_l : row_of_r).data();
    }
    return ch;
  }

  DownArgs down(bool ltip, bool rtip) const {
    DownArgs a;
    a.left = child(ltip, true);
    a.right = child(rtip, false);
    a.K = K;
    if (compact) {
      a.site_index = site_index.data();
      a.n_sites = kSites;
    }
    return a;
  }

  RootArgs root(bool ltip, bool rtip) const {
    RootArgs r;
    r.down = down(ltip, rtip);
    r.out_mask = mask_o.data();
    r.out_tp = tp_o.data();
    return r;
  }
};

/// Output and ln_scaler buffers of one run, prefilled with the sentinel.
struct Result {
  aligned_vector<float> out, ln;
  Result(std::size_t n, std::size_t K)
      : out(n * K * 4, kSentinel), ln(n, kSentinel) {}
};

void expect_same_bytes(const aligned_vector<float>& site,
                       const aligned_vector<float>& col, const char* what) {
  ASSERT_EQ(site.size(), col.size());
  for (std::size_t i = 0; i < site.size(); ++i) {
    if (std::memcmp(&site[i], &col[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << " differs at float " << i << ": simd-site "
                    << site[i] << " vs simd-col " << col[i];
      return;
    }
  }
}

enum class Entry { kDown, kRoot, kDownScale, kRootScale };

const char* name_of(Entry e) {
  switch (e) {
    case Entry::kDown: return "down";
    case Entry::kRoot: return "root";
    case Entry::kDownScale: return "down_scale";
    case Entry::kRootScale: return "root_scale";
  }
  return "?";
}

/// Run one entry of `ks` over each chunk in turn.
void run(const KernelSet& ks, Entry e, const SiteFixture& fx, bool ltip,
         bool rtip, const std::vector<std::pair<std::size_t, std::size_t>>& chunks,
         Result& r) {
  DownArgs d = fx.down(ltip, rtip);
  d.out = r.out.data();
  RootArgs root = fx.root(ltip, rtip);
  root.down.out = r.out.data();
  const ScaleArgs s{r.out.data(), r.ln.data(), fx.K};
  for (const auto& [b, end] : chunks) {
    switch (e) {
      case Entry::kDown: ks.down(d, b, end); break;
      case Entry::kRoot: ks.root(root, b, end); break;
      case Entry::kDownScale: ks.down_scale(d, s, b, end); break;
      case Entry::kRootScale: ks.root_scale(root, s, b, end); break;
    }
  }
}

using Param = std::tuple<std::size_t /*K*/, bool /*compact*/, bool /*ltip*/,
                         bool /*rtip*/>;

class SimdSiteConformanceTest : public ::testing::TestWithParam<Param> {};

TEST_P(SimdSiteConformanceTest, EveryEntryMatchesSimdColBitForBit) {
  const auto [K, compact, ltip, rtip] = GetParam();
  const SiteFixture fx(K, compact);
  const std::size_t n = fx.n_out();
  // Single ranges (empty, one row, odd edges and lengths) and one chunked
  // sweep of the whole range.
  const std::vector<std::vector<std::pair<std::size_t, std::size_t>>> plans = {
      {{0, 0}},       {{n / 2, n / 2}}, {{0, 1}},   {{n - 1, n}},
      {{5, 6}},       {{0, n}},         {{1, 66}},  {{63, 192}},
      {{0, 1}, {1, 65}, {65, 130}, {130, 131}, {131, n}}};
  const KernelSet& site = kernels(KernelVariant::kSimdSite);
  const KernelSet& col = kernels(KernelVariant::kSimdCol);
  for (const Entry e :
       {Entry::kDown, Entry::kRoot, Entry::kDownScale, Entry::kRootScale}) {
    for (const auto& chunks : plans) {
      SCOPED_TRACE(std::string(name_of(e)) + " [" +
                   std::to_string(chunks.front().first) + ", " +
                   std::to_string(chunks.back().second) + ") in " +
                   std::to_string(chunks.size()) + " chunk(s)");
      Result got(n, K), want(n, K);
      run(site, e, fx, ltip, rtip, chunks, got);
      run(col, e, fx, ltip, rtip, chunks, want);
      expect_same_bytes(got.out, want.out, "CLV row");
      expect_same_bytes(got.ln, want.ln, "ln_scaler");
    }
  }
}

TEST_P(SimdSiteConformanceTest, RootReductionOfFusedRootRowsMatches) {
  const auto [K, compact, ltip, rtip] = GetParam();
  // Without the extreme rows: their site likelihoods have no finite log,
  // which would make a bitwise comparison of the sum vacuous.
  const SiteFixture fx(K, compact, /*extremes=*/false);
  const std::size_t n = fx.n_out();
  std::vector<std::uint32_t> weights(n);
  for (std::size_t c = 0; c < n; ++c) {
    weights[c] = static_cast<std::uint32_t>(1 + c % 5);
  }
  auto lnl = [&](const KernelSet& ks) {
    Result r(n, K);
    run(ks, Entry::kRootScale, fx, ltip, rtip, {{0, n}}, r);
    std::vector<std::int32_t> total(r.ln.begin(), r.ln.end());
    RootReduceArgs a;
    a.cl = r.out.data();
    a.scaler_count = total.data();
    a.weights = weights.data();
    a.K = K;
    return ks.root_reduce(a, 0, n);
  };
  const double site = lnl(kernels(KernelVariant::kSimdSite));
  const double col = lnl(kernels(KernelVariant::kSimdCol));
  ASSERT_TRUE(std::isfinite(col));
  EXPECT_EQ(std::memcmp(&site, &col, sizeof(double)), 0)
      << "simd-site " << site << " vs simd-col " << col;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, SimdSiteConformanceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u), ::testing::Bool(),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "K" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_compact" : "_dense") +
             (std::get<2>(info.param) ? "_Lt" : "_Li") +
             (std::get<3>(info.param) ? "_Rt" : "_Ri");
    });

/// The engine end to end: the same lnL bits from both variants, on the
/// serial and the threaded backend, with site repeats off and on, before and
/// after a branch move.
class SimdSiteEngineTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(SimdSiteEngineTest, LogLikelihoodMatchesSimdColBitForBit) {
  const auto [K, repeats] = GetParam();
  Rng rng(900 + K);
  const phylo::Tree tree = seqgen::yule_tree(24, rng, 1.0, 0.2);
  phylo::GtrParams params = seqgen::default_gtr_params();
  params.n_rate_categories = K;
  params.p_invariant = 0.1;
  const phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  const auto data = phylo::PatternMatrix::compress(ev.evolve(700, rng));
  const SiteRepeatsMode mode =
      repeats ? SiteRepeatsMode::kOn : SiteRepeatsMode::kOff;

  SerialBackend serial;
  par::ThreadPool pool(2);
  ThreadedBackend threaded(pool);
  for (ExecutionBackend* backend :
       {static_cast<ExecutionBackend*>(&serial),
        static_cast<ExecutionBackend*>(&threaded)}) {
    SCOPED_TRACE(backend->name());
    PlfEngine site(data, params, tree, *backend, KernelVariant::kSimdSite,
                   mode);
    PlfEngine col(data, params, tree, *backend, KernelVariant::kSimdCol, mode);
    double a = site.log_likelihood();
    double b = col.log_likelihood();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << a << " vs " << b;
    site.set_branch_length(site.tree().leaf_of(3), 0.41);
    col.set_branch_length(col.tree().leaf_of(3), 0.41);
    a = site.log_likelihood();
    b = col.log_likelihood();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << a << " vs " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllK, SimdSiteEngineTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                                            ::testing::Bool()));

TEST(SimdSiteMetaTest, NameCarriesTheCompiledBody) {
  const std::string name = to_string(KernelVariant::kSimdSite);
  EXPECT_EQ(name, std::string("simd-site (") + detail::simd_site_body() + ")");
  const std::string body = detail::simd_site_body();
  EXPECT_TRUE(body == "zmm" || body == "ymm" || body == "sse") << body;
#if defined(__AVX512F__) && defined(__FMA__)
  EXPECT_EQ(body, "zmm");
#elif defined(__AVX2__) && defined(__FMA__)
  EXPECT_EQ(body, "ymm");
#endif
}

}  // namespace
}  // namespace plf::core
