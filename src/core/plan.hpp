// Batched operation-plan dispatch for the PLF (BEAGLE-style updatePartials).
//
// A per-call engine issues two synchronous backend calls per dirty node
// (down/root, then scale, each with its own spawn/sync barrier) — the
// overhead structure the paper blames for the Fig. 9 scaling loss. A
// `PlfPlan` replaces that with ONE dependency-ordered batch per evaluation:
// every dirty node becomes a `PlfOp` carrying the fused down/root + scale +
// cumulative-scaler argument blocks, and ops are grouped into *dependency
// levels* such that
//
//   - all ops within a level are mutually independent (no op reads another
//     same-level op's output), and
//   - every op's children are scheduled in a strictly earlier level (or are
//     not in the plan at all, i.e. their CLVs are already valid).
//
// The root reduction closes every plan, and run_plan returns the lnL. Each
// backend executes the batch its own way: the base
// ExecutionBackend::run_plan loops ops through the per-call entries
// (the per-call structure; PerCallBackend pins it), the threaded backend
// opens one parallel region per run of dense levels (or per level with
// compacted ops) with down+scale+cum fused per static block and the
// reduction folded into the last one, and the GPU backend keeps each op's
// CLV block device-resident between the down and scale kernels, coalescing
// the PCIe round trip. See docs/EXECUTION_PLAN.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/kernels.hpp"
#include "core/repeats.hpp"
#include "phylo/tree.hpp"

namespace plf::core {

/// One child's cumulative scaler-count row, as the op that reads it sees it.
struct CumChild {
  const std::int32_t* cum = nullptr;      ///< nullptr: tip child (adds nothing)
  const std::uint32_t* row_of = nullptr;  ///< nullptr: dense child
  std::int32_t at(std::size_t c) const {
    return cum[row_of != nullptr ? row_of[c] : c];
  }
};

/// The cumulative scaler step of one op (docs/EXECUTION_PLAN.md, "The plan
/// tail"). For stored row i of site c = site(i):
///   out[i] = e[i] + left.at(c) + right.at(c),
/// with e the op's scale exponents (ScaleArgs::ln_scaler). The counts are
/// integers, so the sum is exact and does not depend on its order. Every
/// site of a repeat class shares both child classes, so a compacted row
/// holds the dense count of any of its sites. The step is per-row
/// elementwise, like the scale step whose output it reads, so a backend runs
/// it on the same chunk right after that step.
struct CumArgs {
  std::int32_t* out = nullptr;      ///< the op's target cumulative row
  const float* exponent = nullptr;  ///< the op's scale-step output
  CumChild left;
  CumChild right;
  /// Compacted op: row i is computed from site site_index[i].
  const std::uint32_t* site_index = nullptr;

  std::size_t site(std::size_t i) const {
    return site_index != nullptr ? site_index[i] : i;
  }
};

/// One node recomputation: the fused down/root + scale invocation. The
/// argument blocks are fully resolved at plan-build time (child CLV pointers
/// already refer to the buffer the child's own op will write), so executing
/// an op never consults engine state.
struct PlfOp {
  int node = phylo::kNoNode;
  int left = phylo::kNoNode;   ///< child node ids (tip or internal)
  int right = phylo::kNoNode;
  bool is_root = false;        ///< CondLikeRoot (three-way) vs CondLikeDown
  /// args.down is always the kernel input; the outgroup members are set only
  /// when is_root.
  RootArgs args;
  /// Fused rescale of the op's own output: scale.cl aliases args.down.out
  /// (contract-checked), so a backend may run it per site chunk immediately
  /// after the down/root kernel — rescaling is per-site.
  ScaleArgs scale;
  /// Cumulative scaler step after the scale step (cum.exponent aliases
  /// scale.ln_scaler; contract-checked).
  CumArgs cum;
  /// Rows the kernels compute and store: the compacted class count when
  /// `repeats` is set, else the full pattern count.
  std::size_t run_m = 0;
  /// Non-null when the op's node stores one row per repeat class (row r
  /// computed from site repeats->unique_sites[r]). Parents read it through
  /// ChildArgs::row_of, which can land in any row, so a compacted op must
  /// finish before any later-level op starts (docs/SITE_REPEATS.md).
  const NodeRepeats* repeats = nullptr;
};

/// One block's root-reduction partial, alone on its cache line so that
/// blocks running on different threads never share one.
struct alignas(64) ReducePartial {
  double value = 0.0;
};

/// A dependency-leveled batch of PlfOps closed by the root reduction. Build
/// with add() (any level order), then finalize() groups ops by level —
/// stably, so within a level the engine's postorder insertion order is
/// preserved. run_plan executes the ops, then reduces the root's rows
/// (reduce()) and returns the log likelihood.
class PlfPlan {
 public:
  /// Start a new plan over `n_nodes` tree nodes and `m` dense patterns.
  void reset(std::size_t n_nodes, std::size_t m);

  void add(const PlfOp& op, std::size_t level);

  /// Group ops by level (counting sort; stable) and index nodes -> levels.
  void finalize();

  bool finalized() const { return finalized_; }
  bool empty() const { return ops_.empty(); }
  std::size_t n_ops() const { return ops_.size(); }
  std::size_t n_levels() const {
    return level_offsets_.empty() ? 0 : level_offsets_.size() - 1;
  }
  std::size_t m() const { return m_; }

  /// Ops sorted by level after finalize(); level l occupies
  /// [level_begin(l), level_end(l)).
  const std::vector<PlfOp>& ops() const { return ops_; }
  std::size_t level_begin(std::size_t level) const {
    return level_offsets_[level];
  }
  std::size_t level_end(std::size_t level) const {
    return level_offsets_[level + 1];
  }

  /// Level of the op recomputing `node`, or -1 when `node` has no op.
  int level_of_node(int node) const;

  /// The root reduction that closes the plan: it reads the root's rows as
  /// the plan leaves them (the root op's output when the plan has one).
  void set_reduce(const RootReduceArgs& a) { reduce_ = a; }
  const RootReduceArgs& reduce() const { return reduce_; }

  /// `blocks` zeroed per-block partial slots for a parallel reduction. The
  /// plan, not the backend, owns them: several engines may run their plans
  /// on one backend at once. Reallocates only when `blocks` grows.
  ReducePartial* reduce_partials(std::size_t blocks);

 private:
  std::vector<PlfOp> ops_;
  std::vector<std::size_t> op_level_;        ///< pre-finalize, parallel to ops_
  std::vector<std::size_t> level_offsets_;   ///< size n_levels()+1 once final
  std::vector<int> node_level_;              ///< node id -> level, -1 outside
  std::size_t m_ = 0;
  bool finalized_ = false;
  RootReduceArgs reduce_;
  std::vector<ReducePartial> partials_;
};

/// Dependency levels for a recompute set: level[id] = -1 for nodes outside
/// the set, else 1 + max over in-set internal children (0 when all inputs
/// are already valid). `recompute` is indexed by node id over tree.n_nodes();
/// entries for leaves are ignored. This is the topological partition the
/// plan property tests verify directly.
std::vector<int> compute_levels(const phylo::Tree& tree,
                                const std::vector<char>& recompute);

}  // namespace plf::core
