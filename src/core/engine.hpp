// PlfEngine: orchestrates PLF kernel invocations over a tree.
//
// This is the role MrBayes' likelihood machinery plays around the three hot
// kernels: it owns the conditional-likelihood vectors of every internal node,
// rebuilds per-branch transition matrices when branch lengths or model
// parameters change, recomputes only the nodes a proposal dirtied
// (children-before-parents), rescales each node (CondLikeScaler), and
// finishes with the root reduction.
//
// State is double-buffered exactly like MrBayes' "touch/flip" scheme: a
// recomputation writes into the inactive buffer and flips, so rejecting a
// proposal is a pointer flip back — no recomputation. This keeps the PLF
// call pattern (the workload the paper measures) faithful to the original
// program.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/clv_arena.hpp"
#include "core/kernels.hpp"
#include "core/plan.hpp"
#include "obs/metrics.hpp"
#include "core/repeats.hpp"
#include "core/tip_partial.hpp"
#include "phylo/model.hpp"
#include "phylo/patterns.hpp"
#include "phylo/tree.hpp"
#include "util/aligned.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace plf::util {
class BinaryWriter;
class BinaryReader;
}  // namespace plf::util

namespace plf::core {

/// Counters describing the PLF work performed (consumed by the architecture
/// timing models and the Fig. 12 breakdown).
struct EngineStats {
  std::uint64_t down_calls = 0;
  std::uint64_t root_calls = 0;
  std::uint64_t scale_calls = 0;
  std::uint64_t reduce_calls = 0;
  std::uint64_t tm_builds = 0;            ///< per-branch matrix rebuilds
  std::uint64_t pattern_iterations = 0;   ///< sites actually iterated by kernels
  double plf_seconds = 0.0;               ///< wall time inside kernels
  double serial_seconds = 0.0;            ///< matrix rebuilds + scaler totals

  // Site-repeat caching (docs/SITE_REPEATS.md). A "hit" is a kernel call that
  // took the compacted path; sites_total/sites_computed cover hits only, so
  // their ratio is the realized compression.
  std::uint64_t repeat_down_hits = 0;
  std::uint64_t repeat_root_hits = 0;
  std::uint64_t repeat_scale_hits = 0;
  std::uint64_t repeat_sites_total = 0;     ///< m summed over compacted calls
  std::uint64_t repeat_sites_computed = 0;  ///< unique classes summed over them
  double repeat_rebuild_seconds = 0.0;      ///< class identification time
  std::uint64_t repeat_node_rebuilds = 0;   ///< nodes whose classes were rebuilt

  // Plan dispatch (docs/EXECUTION_PLAN.md). One build per evaluation with
  // dirty nodes; plan_ops/plan_levels accumulate over builds, so their ratio
  // is the mean level width — the spawn/sync amortization factor.
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_ops = 0;
  std::uint64_t plan_levels = 0;
  double plan_build_seconds = 0.0;

  // Scaler-total bookkeeping: full O(nodes*m) resums (first evaluation and
  // after topology changes/rejects) vs incremental delta updates (one
  // subtract+add per recomputed node).
  std::uint64_t scaler_resums = 0;
  std::uint64_t scaler_delta_updates = 0;

  // Tip-specialized plan ops (docs/KERNELS.md): cherry ops dispatched to the
  // pair-table gather, tip×inner ops to the branch-free kernel, and how many
  // 256-pair tables were (re)built — a rebuild is needed only when a cherry's
  // child branch matrices changed since the cached table was computed.
  std::uint64_t tip_tt_ops = 0;
  std::uint64_t tip_ti_ops = 0;
  std::uint64_t tip_tables_built = 0;

  /// Sites per computed class on the compacted calls (1.0 when none ran).
  double repeat_compression_ratio() const {
    return repeat_sites_computed == 0
               ? 1.0
               : static_cast<double>(repeat_sites_total) /
                     static_cast<double>(repeat_sites_computed);
  }
  double down_repeat_hit_rate() const {
    return down_calls == 0 ? 0.0
                           : static_cast<double>(repeat_down_hits) /
                                 static_cast<double>(down_calls);
  }
  double root_repeat_hit_rate() const {
    return root_calls == 0 ? 0.0
                           : static_cast<double>(repeat_root_hits) /
                                 static_cast<double>(root_calls);
  }
  double scale_repeat_hit_rate() const {
    return scale_calls == 0 ? 0.0
                            : static_cast<double>(repeat_scale_hits) /
                                  static_cast<double>(scale_calls);
  }
};

class PlfEngine {
 public:
  PlfEngine(phylo::PatternMatrix data, const phylo::GtrParams& params,
            phylo::Tree tree, ExecutionBackend& backend,
            KernelVariant variant = KernelVariant::kSimdCol,
            SiteRepeatsMode site_repeats = SiteRepeatsMode::kAuto,
            DispatchMode dispatch = DispatchMode::kPlan,
            ClvBudget clv_budget = ClvBudget{});

  /// Evaluate the log likelihood, recomputing whatever is dirty.
  double log_likelihood();

  // --- proposal protocol (MCMC) ---
  void begin_proposal();
  void accept();
  void reject();
  bool in_proposal() const { return in_proposal_; }

  // --- mutations (usable inside or outside a proposal) ---
  void set_branch_length(int node, double length);
  void apply_nni(int v, bool swap_left);
  /// Subtree pruning and regrafting (see phylo::Tree::spr). NOTE: undo logs
  /// are replayed per category (NNI, lengths, SPR); a single proposal must
  /// not interleave SPR with other topology moves.
  void apply_spr(int s, int target, double split_x);
  void set_model(const phylo::GtrParams& params);

  const phylo::Tree& tree() const { return tree_; }
  const phylo::GtrParams& model_params() const { return model_.params(); }
  const phylo::SubstitutionModel& model() const { return model_; }
  const phylo::PatternMatrix& data() const { return data_; }
  ExecutionBackend& backend() { return *backend_; }
  KernelVariant variant() const { return kernels_->variant; }

  const EngineStats& stats() const {
    checker_.check();
    return stats_;
  }
  void reset_stats() {
    checker_.check();
    stats_ = EngineStats{};
  }

  /// Fold the current EngineStats into `registry` as "engine.*" gauges
  /// (call counts, pattern iterations, site-repeat hit rates and realized
  /// compression). Gauges are last-write-wins, so repeated publication is
  /// idempotent. Cold path: available regardless of PLF_PROFILING.
  void publish_stats(obs::MetricsRegistry& registry) const;

  /// Label prepended (as "<label>.") to every gauge name this engine
  /// publishes, so concurrent instances sharing one registry don't clobber
  /// each other's engine.*/arena.* gauges. Empty (the default) keeps the
  /// historical unprefixed names for single-engine runs.
  void set_instance_label(std::string label);
  const std::string& instance_label() const { return instance_label_; }

  /// Release thread confinement (engine + arena) so this engine can be
  /// handed off serially to another thread — exec::InstanceScheduler driver
  /// threads, post-run stats reads from the coordinator. The next entry
  /// point binds the calling thread (see util::ThreadChecker).
  void detach_thread() noexcept;

  // --- checkpoint/restore (docs/SHARDING.md) ---
  /// Serialize everything a 0-ULP resume needs: tree (exact branch-length
  /// bits), model parameters, each internal node's active scaler row and —
  /// when arena-resident — its active CLV buffer, the accumulated
  /// scaler-total bits, and the cached likelihood. Requires no open
  /// proposal. EngineStats are run-local and intentionally not saved.
  void save_state(util::BinaryWriter& w) const;
  /// Inverse of save_state, into an engine constructed with the SAME data,
  /// backend, kernel variant, dispatch mode, and rate-category count (a
  /// config fingerprint is checked; bit-identity additionally requires the
  /// same kernel configuration, which cannot be fingerprinted). Branch
  /// transition matrices are rebuilt eagerly (pure functions of model x
  /// length), non-resident CLVs rematerialize on the next evaluation, and
  /// site-repeat classes re-identify lazily — all deterministic, so the
  /// post-restore likelihood trajectory is bit-identical to the
  /// uninterrupted run's.
  void restore_state(util::BinaryReader& r);

  /// How evaluations reach the backend: per-call kernels or dependency-
  /// leveled plans. Fixed at construction; results are bit-identical.
  DispatchMode dispatch_mode() const { return dispatch_; }

  /// True when plan dispatch marks cherry/tip-child ops for the lookup-table
  /// kernels (backend advertises Capabilities::kTipKernels; per-call dispatch
  /// stays fully generic as the A/B baseline).
  bool tip_kernels_enabled() const { return tip_kernels_enabled_; }

  /// Requested site-repeats policy (the effective path also depends on the
  /// backend's Capabilities::kSiteRepeats and each node's compression).
  SiteRepeatsMode site_repeats_mode() const { return repeats_mode_; }
  /// True when this engine can ever take the compacted path.
  bool site_repeats_enabled() const { return repeats_enabled_; }
  /// Sites-per-class averaged over internal nodes (identification must have
  /// run, i.e. after the first log_likelihood() with repeats enabled).
  double repeat_mean_compression() const {
    return repeats_.initialized() ? repeats_.mean_compression() : 1.0;
  }
  /// The engine's repeat classes (tests/diagnostics; uninitialized when
  /// site repeats are disabled).
  const SiteRepeats& site_repeats() const { return repeats_; }

  /// Read-only view of an internal node's active conditional likelihoods
  /// (tests/diagnostics). PLF_CHECKs that the buffer is arena-resident — an
  /// evicted CLV has no storage until an evaluation rematerializes it.
  const float* node_cl(int node) const;

  // --- budgeted CLV arena (docs/MEMORY.md) ---
  /// The arena that owns every internal node's CLV storage.
  const ClvArena& arena() const { return arena_; }
  /// True when `node`'s ACTIVE CLV buffer is currently resident.
  bool node_resident(int node) const;
  /// Force-evict `node`'s active CLV buffer so the next evaluation must grow
  /// its recompute set with this ancestor (test hook for the remat path).
  void evict_node_for_test(int node);
  /// The most recently built execution plan (tests: leveling of evicted
  /// ancestors). Meaningful after a plan-dispatch evaluation.
  const PlfPlan& last_plan() const { return plan_; }

 private:
  struct NodeState {
    std::array<aligned_vector<float>, 2> scaler;
    int active = 0;
    bool dirty = true;
    /// Last proposal in which this node flipped. A second recomputation
    /// within the same proposal must overwrite the ACTIVE buffer instead of
    /// flipping again — the inactive buffer holds the pre-proposal state
    /// that reject() restores.
    std::uint64_t flip_epoch = 0;
    /// Last proposal in which the dirty flag was RAISED. A node that enters
    /// a proposal already dirty (dirty_epoch != proposal_epoch_) has no
    /// valid pre-proposal buffer for reject() to flip back to, so reject
    /// must re-raise its dirty flag instead of trusting the restored buffer.
    std::uint64_t dirty_epoch = 0;
    /// Cherry nodes only: cached tip×tip pair table and the tp build stamps
    /// it was computed from (see BranchState::tp_stamp). Single-buffered on
    /// purpose — the table is a pure function of the two stamped inputs, so
    /// a stamp mismatch (proposal, reject, topology move) just rebuilds it.
    TipPairTable pair;
    std::uint64_t pair_stamp_l = 0;
    std::uint64_t pair_stamp_r = 0;
  };
  struct BranchState {
    std::array<phylo::TransitionMatrices, 2> tm;
    std::array<TipPartial, 2> tp;
    int active = 0;
    bool dirty = true;
    std::uint64_t flip_epoch = 0;   ///< see NodeState::flip_epoch
    std::uint64_t dirty_epoch = 0;  ///< see NodeState::dirty_epoch
    /// Monotonic build stamp per tip-partial buffer (leaves only; 0 = never
    /// built). Stamps are globally unique across branches, so a cherry's
    /// cached pair table can be validated against its current children by
    /// stamp equality alone, even after topology moves swap the children.
    std::array<std::uint64_t, 2> tp_stamp{};
  };

  /// One entry of the recompute postorder. `remat` marks an eviction-driven
  /// rebuild of a CLEAN node: its target is the ACTIVE buffer (no flip, no
  /// undo-log entry) and the kernels reproduce the evicted bits exactly, so
  /// the incremental scaler passes skip it — subtracting and re-adding an
  /// identical row is not a no-op in floating point.
  struct RecomputeEntry {
    int node;
    int target;
    bool remat;
  };

  /// Arena slot of an internal node's CLV buffer `buf` (0/1).
  int clv_slot(int node, int buf) const { return 2 * node + buf; }

  void mark_node_dirty(int node);
  void mark_path_dirty(int from_node);
  void mark_branch_dirty(int node);
  void rebuild_branch(int node) PLF_REQUIRES(checker_);
  ChildArgs make_child(int node) const;
  /// make_child, except a child this evaluation also recomputes resolves to
  /// its TARGET buffer: plan dispatch defers all flips to post-processing,
  /// so the active index still names the pre-evaluation state while the
  /// plan's ops must read what earlier levels will have written.
  ChildArgs make_plan_child(int node) const;
  void evaluate() PLF_REQUIRES(checker_);
  /// The evaluation phases evaluate() composes (docs/EXECUTION_PLAN.md):
  /// collect the dirty postorder with each node's write target, then either
  /// replay the per-call loop or build-plan / execute-plan / post-process.
  void collect_recompute_targets() PLF_REQUIRES(checker_);
  /// Pin every CLV buffer this evaluation reads or writes, in the documented
  /// LRU touch order (external reads in recompute postorder, then write
  /// targets in recompute postorder), acquiring storage for the targets.
  /// Runs before any kernel, so no kernel ever sees an evicted pointer.
  void stage_arena() PLF_REQUIRES(checker_);
  void build_plan() PLF_REQUIRES(checker_);
  void execute_percall() PLF_REQUIRES(checker_);
  /// Deferred flips + dirty clearing after a plan executes.
  void post_process_plan() PLF_REQUIRES(checker_);
  /// Repeat classes to compact node `id` with, or nullptr for the dense path
  /// (mode/backend/compression gate). Identification must be fresh.
  const NodeRepeats* repeats_for(int id) const;
  /// Copy each repeat class's representative CLV block and scaler entry to
  /// the class's duplicate sites (representatives precede duplicates).
  void scatter_repeats(const NodeRepeats& nr, float* cl, float* ln_scaler) const;
  /// Arena footprint gauges (engine.clv_bytes + arena.*). Called from the
  /// constructor against the global registry — before the first snapshot any
  /// --metrics-json run takes — and from publish_stats.
  void publish_arena_gauges(obs::MetricsRegistry& registry) const;

  phylo::PatternMatrix data_;
  phylo::SubstitutionModel model_;
  phylo::Tree tree_;
  ExecutionBackend* backend_;
  const KernelSet* kernels_;

  std::size_t m_ = 0;  ///< pattern count
  std::size_t k_ = 0;  ///< rate categories

  std::vector<NodeState> nodes_;     ///< indexed by node id; internals only
  std::vector<BranchState> branches_;///< indexed by node id; all but root

  // Site-repeat caching (see core/repeats.hpp). Classes are invariant under
  // branch-length/model changes; topology moves invalidate the affected
  // root paths, evaluate() refreshes lazily, and reject() swaps the
  // pre-proposal classes back (SiteRepeats' own double buffer).
  SiteRepeatsMode repeats_mode_ = SiteRepeatsMode::kAuto;
  bool repeats_enabled_ = false;  ///< mode != off && backend supports it
  SiteRepeats repeats_;

  // Tip-specialized plan ops: enabled when the backend can dispatch them.
  // tp_builds_ stamps every tip-partial rebuild (see BranchState::tp_stamp).
  bool tip_kernels_enabled_ = false;
  std::uint64_t tp_builds_ = 0;

  // Batched dispatch (core/plan.hpp). recompute_targets_ is the dirty
  // postorder with each node's resolved write target — the shared input of
  // both dispatch paths and of the incremental scaler passes, which must
  // walk it in identical order for cross-mode bit-identity.
  DispatchMode dispatch_ = DispatchMode::kPlan;
  PlfPlan plan_;
  std::vector<RecomputeEntry> recompute_targets_;
  std::vector<char> recompute_;    ///< node id -> in recompute set (scratch)
  std::vector<int> plan_target_;   ///< node id -> target buffer, -1 outside

  /// Budgeted storage for every internal node's two CLV buffers; slot ids
  /// come from clv_slot(). Unlimited budgets preallocate eagerly (historical
  /// behaviour); finite budgets allocate lazily and evict LRU during
  /// stage_arena(). Tip masks/partials and scaler rows are engine-owned and
  /// never evicted.
  ClvArena arena_;

  aligned_vector<double> scaler_total_; ///< per-pattern summed log scalers
  /// When set, the next evaluation re-sums scaler_total_ from every internal
  /// node instead of applying per-node deltas: required on first use and
  /// whenever buffer flips were reverted wholesale (reject) or node
  /// ancestry changed (NNI/SPR).
  bool scaler_resum_ = true;
  /// +I support: per-pattern AND of all taxon masks (which states could be
  /// shared by every taxon; fixed by the data) and the resulting
  /// invariant-site likelihoods under the current pi (refreshed per eval).
  std::vector<phylo::StateMask> const_mask_;
  aligned_vector<float> const_lik_;

  double ln_lik_ = 0.0;
  bool lik_valid_ = false;

  /// Gauge-name prefix for multi-instance runs (see set_instance_label).
  std::string instance_label_;

  // Undo log for the active proposal.
  bool in_proposal_ = false;
  std::uint64_t proposal_epoch_ = 0;
  double saved_ln_lik_ = 0.0;
  bool saved_lik_valid_ = false;
  std::vector<int> flipped_nodes_;
  std::vector<int> flipped_branches_;
  std::vector<int> node_dirty_marks_;
  std::vector<int> branch_dirty_marks_;
  // Nodes/branches that entered the current proposal already dirty and were
  // recomputed inside it: their pre-proposal buffers were stale (or never
  // built at all), so reject() must re-mark them dirty after flipping back.
  std::vector<int> pre_dirty_nodes_;
  std::vector<int> pre_dirty_branches_;
  std::vector<std::pair<int, double>> old_lengths_;
  std::vector<std::pair<int, bool>> nni_log_;
  std::vector<phylo::Tree::SprUndo> spr_log_;
  std::optional<phylo::GtrParams> old_params_;

  /// Thread confinement: one engine serves one MCMC chain on one thread
  /// (parallelism lives INSIDE the backend's kernel dispatch, never across
  /// engine entry points). The checker turns that rule into a TSA capability:
  /// stats_ accumulation — the state most tempting to read from a monitoring
  /// thread — is GUARDED_BY it, the evaluation phases REQUIRE it, and public
  /// entry points assert it (checked builds also get a runtime tripwire).
  util::ThreadChecker checker_;
  EngineStats stats_ PLF_GUARDED_BY(checker_);
};

}  // namespace plf::core
