// Batched operation-plan dispatch for the PLF (BEAGLE-style updatePartials).
//
// A per-call engine issues two synchronous backend calls per dirty node
// (down/root, then scale, each with its own spawn/sync barrier) — the
// overhead structure the paper blames for the Fig. 9 scaling loss. A
// `PlfPlan` replaces that with ONE dependency-ordered batch per evaluation:
// every dirty node becomes a `PlfOp` carrying the fused down/root + scale
// argument blocks, and ops are grouped into *dependency levels* such that
//
//   - all ops within a level are mutually independent (no op reads another
//     same-level op's output), and
//   - every op's children are scheduled in a strictly earlier level (or are
//     not in the plan at all, i.e. their CLVs are already valid).
//
// Each backend then executes the batch its own way: the base
// ExecutionBackend::run_plan loops ops through the per-call entries
// (the per-call structure; PerCallBackend pins it), the threaded backend
// opens one parallel region per level with down+scale fused per site chunk
// (2 barriers/node -> 1 barrier/level), and the GPU backend keeps each op's
// CLV block device-resident between the down and scale kernels, coalescing
// the PCIe round trip. See docs/EXECUTION_PLAN.md.
#pragma once

#include <cstddef>
#include <vector>

#include "core/kernels.hpp"
#include "core/repeats.hpp"
#include "phylo/tree.hpp"

namespace plf::core {

/// Which kernel entry recomputes an op fastest. The generic argument block
/// (PlfOp::args) is ALWAYS fully populated regardless of kind, so executors
/// without tip-specialized paths (the base per-call loop, Cell, GPU) simply
/// ignore the hint and stay bit-identical; specialization itself is exact
/// (docs/KERNELS.md).
enum class PlfOpKind : std::uint8_t {
  kGeneric,   ///< down/root with per-site child-kind dispatch
  kTipInner,  ///< left child tip, right internal (engine canonicalizes)
  kTipTip,    ///< cherry: both children tips, pair-table gather (PlfOp::tt)
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
  /// Tip specialization hint; `tt` is populated (and contract-checked
  /// against args.down) only when kind == kTipTip.
  PlfOpKind kind = PlfOpKind::kGeneric;
  TipTipArgs tt;
  /// Fused rescale of the op's own output: scale.cl aliases args.down.out
  /// (contract-checked), so a backend may run it per site chunk immediately
  /// after the down/root kernel — rescaling is per-site.
  ScaleArgs scale;
  /// Rows the kernels compute and store: the compacted class count when
  /// `repeats` is set, else the full pattern count.
  std::size_t run_m = 0;
  /// Non-null when the op's node stores one row per repeat class (row r
  /// computed from site repeats->unique_sites[r]). Parents read it through
  /// ChildArgs::row_of, which can land in any row, so a compacted op must
  /// finish before any later-level op starts (docs/SITE_REPEATS.md).
  const NodeRepeats* repeats = nullptr;
};

/// A dependency-leveled batch of PlfOps. Build with add() (any level order),
/// then finalize() groups ops by level — stably, so within a level the
/// engine's postorder insertion order is preserved.
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

 private:
  std::vector<PlfOp> ops_;
  std::vector<std::size_t> op_level_;        ///< pre-finalize, parallel to ops_
  std::vector<std::size_t> level_offsets_;   ///< size n_levels()+1 once final
  std::vector<int> node_level_;              ///< node id -> level, -1 outside
  std::size_t m_ = 0;
  bool finalized_ = false;
};

/// Dependency levels for a recompute set: level[id] = -1 for nodes outside
/// the set, else 1 + max over in-set internal children (0 when all inputs
/// are already valid). `recompute` is indexed by node id over tree.n_nodes();
/// entries for leaves are ignored. This is the topological partition the
/// plan property tests verify directly.
std::vector<int> compute_levels(const phylo::Tree& tree,
                                const std::vector<char>& recompute);

}  // namespace plf::core
