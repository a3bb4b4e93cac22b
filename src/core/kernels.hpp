// The Phylogenetic Likelihood Function kernels (paper §3.1, Fig. 5).
//
// Three kernels account for >85% of MrBayes' runtime and are what every
// architecture in the paper accelerates:
//
//   cond_like_down   clP[c][k][i] = (sum_j PL_k[i][j] clL[c][k][j])
//                                 * (sum_j PR_k[i][j] clR[c][k][j])
//   cond_like_root   same, times the third (outgroup) neighbor's factor
//   cond_like_scaler per-site rescaling by the power of two of the maximum
//                    entry (underflow guard; exact, see ScaleArgs)
//
// plus the final root-likelihood reduction. All kernels operate on a
// half-open pattern range so every backend (threads, simulated SPEs,
// simulated CUDA blocks) can partition the outermost loop, which is exactly
// the fine-grain decomposition the paper studies.
//
// Layouts (single precision, as in MrBayes):
//   conditional likelihoods  cl[c*K*4 + k*4 + j]    (Fig. 3: K rate arrays of 4)
//   transition matrices      p[k*16 + i*4 + j]      row-major
//                            pt[k*16 + j*4 + i]     transposed (column-wise)
//   tip partials             tp[mask*K*4 + k*4 + i] per-branch lookup for the
//                            16 ambiguity masks (what MrBayes precomputes for
//                            tip children)
//
// Variants:
//   kScalar   reference implementation, plain loops
//   kSimdRow  paper §3.3/§3.4 "approach (i)": SIMD across each inner
//             product (row-wise matrix access, horizontal reduction)
//   kSimdCol  "approach (ii)": SIMD across the four inner products of one
//             matrix-vector multiply (column-wise access via the transposed
//             matrix, no horizontal reduction) — the layout the paper found
//             2x faster on the SPU and adopted. kSimdRow and kSimdCol are one
//             Vec4f body over two matvecs (kernels_vec4.cpp)
//   kSimdSite modern extension, the production default: one whole K = 4
//             site row per vector register (zmm under AVX-512F, two ymm
//             under AVX2 + FMA), rescaled in the same register; bit-identical
//             to kSimdCol, whose entries it calls for K != 4
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <string>

#include "phylo/dna.hpp"

namespace plf::core {

using phylo::StateMask;

/// One child of a node, plus the per-branch matrices used to absorb it.
/// Exactly one of `cl` (internal child) or `mask` (tip child) is non-null.
struct ChildArgs {
  const float* cl = nullptr;        ///< internal child conditional likelihoods
  const StateMask* mask = nullptr;  ///< tip child pattern masks
  const float* tp = nullptr;        ///< tip-partial table (tip children)
  const float* p = nullptr;         ///< row-major transition matrices (K*16)
  const float* pt = nullptr;        ///< transposed transition matrices (K*16)
  /// Compacted internal child (docs/SITE_REPEATS.md): site c of the child
  /// lives in stored row row_of[c] of `cl` (the child's repeat-class map).
  /// nullptr means the child is dense: site c lives in row c.
  const std::uint32_t* row_of = nullptr;

  bool is_tip() const { return mask != nullptr; }

  /// Stored row of an internal child holding site c.
  std::size_t stored_row(std::size_t c) const {
    return row_of != nullptr ? row_of[c] : c;
  }
  /// Site c's operand row: the tip-partial row of its mask, or the child's
  /// stored CLV row for c. Kernels resolve it once per site and index
  /// k * 4 into it per rate category.
  const float* row(std::size_t c, std::size_t K) const {
    if (is_tip()) return tp + static_cast<std::size_t>(mask[c]) * K * 4;
    return cl + stored_row(c) * K * 4;
  }
};

/// Arguments for cond_like_down.
struct DownArgs {
  ChildArgs left;
  ChildArgs right;
  float* out = nullptr;  ///< clP, same layout as inputs
  std::size_t K = 4;     ///< number of discrete rate categories
  /// Site-repeat compaction (optional). The output row is always the
  /// iteration index idx in [begin, end); when site_index is non-null, row
  /// idx is computed from its representative site c = site_index[idx]: tip
  /// masks are read at c and each internal child at its own row for c
  /// (ChildArgs::row_of). Every site of a repeat class shares both child
  /// classes, so the compacted row holds exactly the dense row's bits.
  /// Entries are strictly increasing and bounded by n_sites (the contract
  /// layer verifies both). Backends that cannot honor the indirection must
  /// refuse it (ExecutionBackend::supports_site_repeats).
  const std::uint32_t* site_index = nullptr;
  std::size_t n_sites = 0;  ///< exclusive bound on site_index entries

  /// Site output row idx is computed from.
  std::size_t site(std::size_t idx) const {
    return site_index != nullptr ? site_index[idx] : idx;
  }
};

/// Arguments for cond_like_root: down plus the third (outgroup) neighbor,
/// which in the leaf-rooted representation is always a tip.
struct RootArgs {
  DownArgs down;
  const StateMask* out_mask = nullptr;  ///< outgroup tip masks
  const float* out_tp = nullptr;        ///< outgroup tip-partial table
};

/// Arguments for cond_like_scaler. Scales stored rows [begin, end) — dense
/// or compacted alike, since rescaling reads and writes one row only.
///
/// The rescale is exact (docs/KERNELS.md, "The rescale"): a row whose
/// maximum entry mx is a positive finite float is multiplied by 2^-e with
/// e = ilogb(mx), so its maximum lands in [1, 2) and row × 2^e is the input
/// again; any other maximum (zero, NaN, infinite) leaves the row unscaled
/// with e = 0. Every variant and backend writes the same bits.
struct ScaleArgs {
  float* cl = nullptr;  ///< scaled in place
  /// Per-row scale exponent e (overwritten), held as an exactly
  /// representable float: the row was scaled by 2^-e, so its log scale
  /// factor is e × ln 2. The name predates the exponent form.
  float* ln_scaler = nullptr;
  std::size_t K = 4;
};

/// Arguments for the root log-likelihood reduction.
struct RootReduceArgs {
  const float* cl = nullptr;  ///< root conditional likelihoods
  /// Per-pattern total of the scale exponents of every internal node (the
  /// root's cumulative row): the pattern's rows were scaled by 2^-count.
  const std::int32_t* scaler_count = nullptr;
  const std::uint32_t* weights = nullptr; ///< per-pattern multiplicities
  float pi[4] = {0.25f, 0.25f, 0.25f, 0.25f};
  std::size_t K = 4;
  /// +I mixture (GTR+I+Γ): per-pattern invariant-site likelihood
  /// (sum of pi over the states shared by every taxon; 0 when the pattern
  /// is variable). nullptr or p_invariant == 0 disables the mixture.
  const float* const_lik = nullptr;
  float p_invariant = 0.0f;
};

/// Per-site log likelihood under the optional +I mixture. `site_mean` is the
/// Γ-averaged (already /K) scaled site likelihood, `count` its total scale
/// exponent, whose log factor count × ln 2 is added once here. Stable in log
/// space: the invariant term is unscaled, so the two components are
/// combined with log-sum-exp.
inline double site_log_likelihood(double site_mean, std::int32_t count,
                                  const RootReduceArgs& a, std::size_t c) {
  const double scaler = static_cast<double>(count) * std::numbers::ln2;
  if (a.const_lik == nullptr || a.p_invariant <= 0.0f) {
    return std::log(site_mean) + scaler;
  }
  const double pinv = static_cast<double>(a.p_invariant);
  const double var_part = std::log((1.0 - pinv) * site_mean) + scaler;
  const double cl = static_cast<double>(a.const_lik[c]);
  if (cl <= 0.0) return var_part;
  const double inv_part = std::log(pinv * cl);
  const double mx = var_part > inv_part ? var_part : inv_part;
  const double mn = var_part > inv_part ? inv_part : var_part;
  return mx + std::log1p(std::exp(mn - mx));
}

using DownFn = void (*)(const DownArgs&, std::size_t begin, std::size_t end);
using RootFn = void (*)(const RootArgs&, std::size_t begin, std::size_t end);
using ScaleFn = void (*)(const ScaleArgs&, std::size_t begin, std::size_t end);
/// Returns the partial lnL contribution of [begin, end).
using RootReduceFn = double (*)(const RootReduceArgs&, std::size_t begin,
                                std::size_t end);
/// Fused down/root + per-site rescale in one pass. The scale block must alias
/// the down output (ScaleArgs::cl == out; contract-checked), exactly the
/// PlfPlan invariant, so the rescale happens while the freshly computed row
/// is still in registers — one CLV sweep instead of two. Fused entries are
/// per-site compositions of the unfused bodies (kernel_entries.hpp) and
/// therefore bit-identical to calling down then scale over the same range.
using DownScaleFn = void (*)(const DownArgs&, const ScaleArgs&,
                             std::size_t begin, std::size_t end);
using RootScaleFn = void (*)(const RootArgs&, const ScaleArgs&,
                             std::size_t begin, std::size_t end);

enum class KernelVariant { kScalar, kSimdRow, kSimdCol, kSimdSite };

/// kSimdSite's name carries the body this build compiled: "simd-site (zmm)",
/// "(ymm)" or "(sse)", the last being the kSimdCol entries.
std::string to_string(KernelVariant v);

/// The kernels for one variant: the four generic entries plus the fused
/// forms plan-capable backends dispatch to (docs/KERNELS.md).
struct KernelSet {
  KernelVariant variant;
  DownFn down;
  RootFn root;
  ScaleFn scale;
  RootReduceFn root_reduce;
  DownScaleFn down_scale;  ///< fused down + rescale
  RootScaleFn root_scale;  ///< fused root + rescale
};

/// Fetch the kernel set for a variant (all variants are always available;
/// SIMD variants fall back to portable emulation when the ISA is absent).
const KernelSet& kernels(KernelVariant v);

namespace detail {
/// The vector body kSimdSite runs at K = 4 in this build: "zmm", "ymm" or
/// "sse" (kernels_simd_site.cpp).
const char* simd_site_body();
}  // namespace detail

/// Approximate floating-point operation count of cond_like_down per pattern
/// (used by the architecture timing models): per rate category, two 4x4
/// matrix-vector products (2*4*7 flops) plus 4 multiplies.
constexpr double down_flops_per_pattern(std::size_t K) {
  return static_cast<double>(K) * (2 * 4 * 7 + 4);
}

}  // namespace plf::core
