// Entry-point contracts for the PLF kernels.
//
// Every kernel variant (scalar, simd-row, simd-col, simd-col8) receives raw
// pointers plus a half-open pattern range from whichever backend partitioned
// the outermost loop (threads, simulated SPEs, simulated CUDA blocks). These
// helpers spell out the trust boundary once so all variants check identical
// preconditions:
//
//   - the range is well-formed (begin <= end),
//   - K >= 1 rate categories,
//   - exactly one of {cl, mask} per child, with the matching matrix table
//     (p/pt for internal children, tp for tips),
//   - for the SIMD variants, 16-byte alignment of every array the kernels
//     access with aligned vector loads/stores (util/aligned.hpp allocates at
//     128 bytes, so a violation means a caller sliced a buffer mid-register).
//
// All checks are PLF_DCHECK-level: active in Debug / sanitizer / contract
// builds, compiled out of release kernels (these functions sit on the hot
// path — they run once per (node, chunk), not per site, but the PLF is called
// millions of times per MCMC run).
#pragma once

#include "core/clv_arena.hpp"
#include "core/kernels.hpp"
#include "core/plan.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace plf::core::detail {

/// SIMD register width the aligned kernel loads/stores assume, in bytes.
inline constexpr std::size_t kKernelAlignBytes = 16;

inline void check_child(const ChildArgs& ch, bool needs_transpose) {
  PLF_DCHECK((ch.cl != nullptr) != (ch.mask != nullptr),
             "child must be exactly one of internal (cl) or tip (mask)");
  if (ch.mask != nullptr) {
    PLF_DCHECK(ch.tp != nullptr, "tip child needs its tip-partial table");
  } else if (needs_transpose) {
    PLF_DCHECK(ch.pt != nullptr,
               "internal child needs the transposed transition matrices");
  } else {
    PLF_DCHECK(ch.p != nullptr,
               "internal child needs the row-major transition matrices");
  }
}

inline void check_child_aligned(const ChildArgs& ch) {
  if (ch.mask != nullptr) {
    PLF_DCHECK_ALIGNED(ch.tp, kKernelAlignBytes);
  } else {
    PLF_DCHECK_ALIGNED(ch.cl, kKernelAlignBytes);
    if (ch.p != nullptr) PLF_DCHECK_ALIGNED(ch.p, kKernelAlignBytes);
    if (ch.pt != nullptr) PLF_DCHECK_ALIGNED(ch.pt, kKernelAlignBytes);
  }
}

/// Trust boundary of the site-repeat index vector: the engine hands kernels a
/// compacted site list built by core/repeats. The representative sites are
/// strictly increasing by construction, so the last entry bounds the whole
/// range — checked always (O(1), it guards every subsequent indexed store);
/// the monotonicity itself is re-verified per chunk in checked builds.
inline void check_site_index(const std::uint32_t* site_index, std::size_t begin,
                             std::size_t end, std::size_t n_sites) {
  if (site_index == nullptr || begin >= end) return;
  PLF_CHECK(site_index[end - 1] < n_sites,
            "site_index: repeat index out of range");
#if PLF_CONTRACTS_LEVEL
  for (std::size_t i = begin + 1; i < end; ++i) {
    PLF_DCHECK(site_index[i - 1] < site_index[i],
               "site_index: representative sites must be strictly increasing");
  }
#endif
}

inline void check_down(const DownArgs& a, std::size_t begin, std::size_t end,
                       bool needs_transpose) {
  PLF_DCHECK(begin <= end, "cond_like_down: reversed pattern range");
  PLF_DCHECK(a.K >= 1, "cond_like_down: needs at least one rate category");
  PLF_DCHECK(a.out != nullptr, "cond_like_down: null output array");
  check_site_index(a.site_index, begin, end, a.n_sites);
  check_child(a.left, needs_transpose);
  check_child(a.right, needs_transpose);
}

inline void check_down_aligned(const DownArgs& a) {
  PLF_DCHECK_ALIGNED(a.out, kKernelAlignBytes);
  check_child_aligned(a.left);
  check_child_aligned(a.right);
}

/// Tip×inner specialization: the caller promises left is a tip and right is
/// internal (the engine canonicalizes by swapping — multiplication of the two
/// child factors commutes bit-exactly), so the kernel may skip the per-site
/// child-kind branch.
inline void check_down_ti(const DownArgs& a, std::size_t begin, std::size_t end,
                          bool needs_transpose) {
  check_down(a, begin, end, needs_transpose);
  PLF_DCHECK(a.left.mask != nullptr,
             "tip-inner down: left child must be a tip");
  PLF_DCHECK(a.right.cl != nullptr,
             "tip-inner down: right child must be internal");
}

/// Tip×tip specialization: both children are tips and the output row is a
/// pure gather from the per-pair table. The category count the table was
/// built for must match K — a mismatch would stride the gather wrong, so it
/// is rejected always (O(1)). Checked builds additionally validate every
/// 4-bit tip-state code in the range: the gather indexes the table with
/// mask * kNumMasks + mask, so an out-of-range code reads foreign memory.
inline void check_down_tt(const TipTipArgs& a, std::size_t begin,
                          std::size_t end) {
  PLF_DCHECK(begin <= end, "tip-tip down: reversed pattern range");
  PLF_DCHECK(a.K >= 1, "tip-tip down: needs at least one rate category");
  PLF_DCHECK(a.out != nullptr, "tip-tip down: null output array");
  PLF_DCHECK(a.left_mask != nullptr && a.right_mask != nullptr,
             "tip-tip down: both children must provide tip masks");
  PLF_DCHECK(a.pair != nullptr, "tip-tip down: null pair table");
  PLF_CHECK(a.table_categories == a.K,
            "tip-tip down: pair table/CLV rate-category mismatch");
  check_site_index(a.site_index, begin, end, a.n_sites);
#if PLF_CONTRACTS_LEVEL
  for (std::size_t idx = begin; idx < end; ++idx) {
    const std::size_t c = a.site_index != nullptr ? a.site_index[idx] : idx;
    PLF_DCHECK(a.left_mask[c] < phylo::kNumMasks &&
                   a.right_mask[c] < phylo::kNumMasks,
               "tip-tip down: tip-state code out of range");
  }
#endif
}

/// Fused down/root + scale trust boundary: the scale block must alias the
/// down output and describe the same iteration space, otherwise the single
/// pass would rescale rows the down stage never wrote.
inline void check_fused_scale(const ScaleArgs& s, const float* down_out,
                              std::size_t K, const std::uint32_t* site_index) {
  PLF_DCHECK(s.cl == down_out,
             "fused scale: scale block must alias the down output");
  PLF_DCHECK(s.K == K, "fused scale: rate-category mismatch");
  PLF_DCHECK(s.site_index == site_index,
             "fused scale: site-index mismatch with the down stage");
  PLF_DCHECK(s.ln_scaler != nullptr, "fused scale: null scaler row");
}

inline void check_root(const RootArgs& a, std::size_t begin, std::size_t end,
                       bool needs_transpose) {
  check_down(a.down, begin, end, needs_transpose);
  PLF_DCHECK(a.out_mask != nullptr && a.out_tp != nullptr,
             "cond_like_root: outgroup tip masks/table required");
}

inline void check_root_aligned(const RootArgs& a) {
  check_down_aligned(a.down);
  PLF_DCHECK_ALIGNED(a.out_tp, kKernelAlignBytes);
}

inline void check_scale(const ScaleArgs& a, std::size_t begin,
                        std::size_t end) {
  PLF_DCHECK(begin <= end, "cond_like_scaler: reversed pattern range");
  PLF_DCHECK(a.K >= 1, "cond_like_scaler: needs at least one rate category");
  PLF_DCHECK(a.cl != nullptr && a.ln_scaler != nullptr,
             "cond_like_scaler: null array");
  check_site_index(a.site_index, begin, end, a.n_sites);
}

inline void check_root_reduce(const RootReduceArgs& a, std::size_t begin,
                              std::size_t end) {
  PLF_DCHECK(begin <= end, "root_reduce: reversed pattern range");
  PLF_DCHECK(a.K >= 1, "root_reduce: needs at least one rate category");
  PLF_DCHECK(a.cl != nullptr && a.ln_scaler_total != nullptr &&
                 a.weights != nullptr,
             "root_reduce: null array");
}

/// Trust boundary of batched dispatch: every run_plan implementation calls
/// this once per plan before touching any op. Checked-build body verifies
/// the properties the executors rely on for correctness under fusion and
/// per-level parallelism (O(ops + children) — once per evaluation, not per
/// site):
///
///   - the plan is finalized and its level ranges tile ops() exactly, with
///     no empty level (levels are dense by construction);
///   - each op sits in the level the plan indexes it under, and every child
///     with an op of its own sits in a STRICTLY earlier level (ops outside
///     the plan report level -1), so intra-level execution order is free;
///   - the fused scale stage aliases the op's own down/root output
///     (scale.cl == args.down.out) with a real scaler row to fill, so a
///     backend may rescale each site chunk immediately after computing it;
///   - run_m never exceeds the plan's pattern count, and a compacted op's
///     run_m/site_index agree with its repeat classes.
inline void check_plan(const PlfPlan& plan) {
  PLF_DCHECK(plan.finalized(), "run_plan: plan must be finalized");
#if PLF_CONTRACTS_LEVEL
  std::size_t tiled = 0;
  for (std::size_t l = 0; l < plan.n_levels(); ++l) {
    PLF_DCHECK(plan.level_begin(l) == tiled,
               "run_plan: level ranges must tile the op list");
    PLF_DCHECK(plan.level_begin(l) < plan.level_end(l),
               "run_plan: empty dependency level");
    tiled = plan.level_end(l);
    for (std::size_t i = plan.level_begin(l); i < plan.level_end(l); ++i) {
      const PlfOp& op = plan.ops()[i];
      PLF_DCHECK(plan.level_of_node(op.node) == static_cast<int>(l),
                 "run_plan: op scheduled outside its indexed level");
      for (int child : {op.left, op.right}) {
        PLF_DCHECK(plan.level_of_node(child) < static_cast<int>(l),
                   "run_plan: child op must be in a strictly earlier level");
      }
      PLF_DCHECK(op.scale.cl == op.args.down.out,
                 "run_plan: fused scale must alias the op's down output");
      PLF_DCHECK(op.scale.ln_scaler != nullptr,
                 "run_plan: fused scale needs a scaler row");
      PLF_DCHECK(op.run_m <= plan.m(), "run_plan: op exceeds pattern count");
      if (op.kind != PlfOpKind::kGeneric) {
        PLF_DCHECK(!op.is_root,
                   "run_plan: root ops must use the generic three-way kernel");
      }
      if (op.kind == PlfOpKind::kTipTip) {
        PLF_DCHECK(op.tt.out == op.args.down.out,
                   "run_plan: tip-tip op must write the op's down output");
        PLF_DCHECK(op.tt.table_categories == op.args.down.K,
                   "run_plan: tip-tip pair table built for a different K");
        PLF_DCHECK(op.tt.site_index == op.args.down.site_index,
                   "run_plan: tip-tip op must share the op's site index");
      } else if (op.kind == PlfOpKind::kTipInner) {
        PLF_DCHECK(op.args.down.left.mask != nullptr &&
                       op.args.down.right.cl != nullptr,
                   "run_plan: tip-inner op must be canonicalized tip-left");
      }
      if (op.repeats != nullptr) {
        PLF_DCHECK(op.run_m == op.repeats->n_classes,
                   "run_plan: compacted op must iterate its class count");
        PLF_DCHECK(op.args.down.site_index == op.repeats->unique_sites.data(),
                   "run_plan: compacted op must index its representatives");
      }
    }
  }
  PLF_DCHECK(tiled == plan.n_ops(),
             "run_plan: levels must partition the op list exactly");
#endif
}

/// Trust boundary of the budgeted CLV arena: every mutating arena entry
/// point calls this (enforced by plf_lint's arena-contract rule). Always-on
/// O(1) body keeps the hard budget hard — the resident total may never
/// exceed it, not even transiently mid-eviction; the checked-build body runs
/// the full structural validation (LRU list integrity, pin/resident flag
/// consistency, exact byte accounting).
inline void check_arena(const ClvArena& arena) {
  PLF_CHECK(arena.resident_bytes() <= arena.budget_bytes(),
            "clv arena: resident CLV bytes exceed the hard budget");
#if PLF_CONTRACTS_LEVEL
  arena.validate();
#endif
}

/// Arena x plan handoff: no kernel may ever receive an evicted or unmapped
/// CLV pointer. The engine calls this after build_plan and before run_plan;
/// checked builds scan every op and require each internal-child CLV input
/// and each op output to be the storage of a currently *resident* arena
/// slot (tip children use masks, not CLVs, and are engine-owned). An evicted
/// slot frees its storage, so a stale pointer cannot match any resident
/// slot and the scan aborts before a kernel dereferences it.
inline void check_arena(const ClvArena& arena,
                        [[maybe_unused]] const PlfPlan& plan) {
  check_arena(arena);
#if PLF_CONTRACTS_LEVEL
  for (const PlfOp& op : plan.ops()) {
    PLF_DCHECK(arena.owns_resident(op.args.down.out),
               "clv arena: plan op writes a non-resident CLV slot");
    for (const ChildArgs* ch : {&op.args.down.left, &op.args.down.right}) {
      if (ch->cl == nullptr) continue;  // tip child: mask, engine-owned
      PLF_DCHECK(arena.owns_resident(ch->cl),
                 "clv arena: kernel would read an evicted CLV pointer");
    }
  }
#endif
}

}  // namespace plf::core::detail
