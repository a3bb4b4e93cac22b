#include "core/engine.hpp"

#include <cstring>
#include <utility>

#include "core/kernel_contracts.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "util/clock.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::core {

PlfEngine::PlfEngine(phylo::PatternMatrix data, const phylo::GtrParams& params,
                     phylo::Tree tree, ExecutionBackend& backend,
                     KernelVariant variant, SiteRepeatsMode site_repeats,
                     DispatchMode dispatch, ClvBudget clv_budget)
    : data_(std::move(data)),
      model_(params),
      tree_(std::move(tree)),
      backend_(&backend),
      kernels_(&kernels(variant)),
      repeats_mode_(site_repeats),
      dispatch_(dispatch) {
  PLF_CHECK(data_.n_taxa() == tree_.n_taxa(),
            "pattern matrix and tree disagree on taxon count");
  m_ = data_.n_patterns();
  k_ = model_.n_rate_categories();

  nodes_.resize(tree_.n_nodes());
  branches_.resize(tree_.n_nodes());
  std::size_t n_internal = 0;
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    const phylo::TreeNode& n = tree_.node(static_cast<int>(id));
    if (!n.is_leaf()) {
      // Scaler rows stay engine-owned (the full resum must read every
      // internal node's active row); the CLV storage itself lives in the
      // budgeted arena below.
      for (int b = 0; b < 2; ++b) {
        nodes_[id].scaler[static_cast<std::size_t>(b)].assign(m_, 0.0f);
      }
      nodes_[id].dirty = true;
      ++n_internal;
    }
    if (n.parent != phylo::kNoNode) {
      branches_[id].dirty = true;
    }
  }

  // Budgeted CLV arena (docs/MEMORY.md): two buffers of m*K*4 floats per
  // internal node; the budget is clamped up to one buffer per internal node,
  // the worst-case pinned working set of a single evaluation.
  const std::size_t slot_floats = m_ * k_ * 4;
  const std::size_t slot_bytes = slot_floats * sizeof(float);
  arena_.init(2 * tree_.n_nodes(), slot_floats,
              clv_budget.resolve(2 * n_internal * slot_bytes,
                                 n_internal * slot_bytes));
  if (clv_budget.unlimited()) {
    // Historical behaviour: preallocate both buffers of every internal node
    // eagerly, so nothing is ever evicted and node_cl() is valid (zeroed)
    // before the first evaluation.
    for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
      if (tree_.node(static_cast<int>(id)).is_leaf()) continue;
      for (int b = 0; b < 2; ++b) {
        arena_.acquire(clv_slot(static_cast<int>(id), b));
      }
    }
  }
  scaler_total_.assign(m_, 0.0);

  // +I support: which states every taxon could share, per pattern.
  const_mask_.assign(m_, phylo::kGapMask);
  for (std::size_t t = 0; t < data_.n_taxa(); ++t) {
    const phylo::StateMask* row = data_.row(t);
    for (std::size_t c = 0; c < m_; ++c) {
      const_mask_[c] = static_cast<phylo::StateMask>(const_mask_[c] & row[c]);
    }
  }
  const_lik_.assign(m_, 0.0f);

  // Site-repeat caching: identification is deferred to the first evaluation
  // (construction just marks every node stale).
  repeats_enabled_ =
      repeats_mode_ != SiteRepeatsMode::kOff &&
      has_capability(backend_->capabilities(), Capabilities::kSiteRepeats) &&
      m_ > 0;
  if (repeats_enabled_) {
    repeats_ = SiteRepeats(data_, tree_);
  }

  // Tip-specialized kernels ride plan dispatch only: the per-call path stays
  // fully generic so --dispatch=percall remains the exact A/B baseline.
  tip_kernels_enabled_ =
      dispatch_ == DispatchMode::kPlan &&
      has_capability(backend_->capabilities(), Capabilities::kTipKernels);

  // Publish the CLV footprint gauges immediately: a --metrics-json snapshot
  // taken before the first evaluation must already see engine.clv_bytes.
  publish_arena_gauges(obs::MetricsRegistry::global());
}

void PlfEngine::mark_node_dirty(int node) {
  NodeState& st = nodes_[static_cast<std::size_t>(node)];
  if (!st.dirty) {
    st.dirty = true;
    if (in_proposal_) {
      node_dirty_marks_.push_back(node);
      st.dirty_epoch = proposal_epoch_;
    }
  }
}

void PlfEngine::mark_path_dirty(int from_node) {
  for (int id = from_node; id != phylo::kNoNode; id = tree_.node(id).parent) {
    if (!tree_.node(id).is_leaf()) mark_node_dirty(id);
  }
  lik_valid_ = false;
}

void PlfEngine::mark_branch_dirty(int node) {
  BranchState& st = branches_[static_cast<std::size_t>(node)];
  if (!st.dirty) {
    st.dirty = true;
    if (in_proposal_) {
      branch_dirty_marks_.push_back(node);
      st.dirty_epoch = proposal_epoch_;
    }
  }
}

void PlfEngine::begin_proposal() {
  PLF_CHECK(!in_proposal_, "begin_proposal: proposal already open");
  in_proposal_ = true;
  ++proposal_epoch_;
  saved_ln_lik_ = ln_lik_;
  saved_lik_valid_ = lik_valid_;
  flipped_nodes_.clear();
  flipped_branches_.clear();
  node_dirty_marks_.clear();
  branch_dirty_marks_.clear();
  pre_dirty_nodes_.clear();
  pre_dirty_branches_.clear();
  old_lengths_.clear();
  nni_log_.clear();
  spr_log_.clear();
  old_params_.reset();
  if (repeats_enabled_) repeats_.begin_proposal();
}

void PlfEngine::accept() {
  PLF_CHECK(in_proposal_, "accept: no open proposal");
  in_proposal_ = false;
  if (repeats_enabled_) repeats_.accept();
}

void PlfEngine::reject() {
  PLF_CHECK(in_proposal_, "reject: no open proposal");
  in_proposal_ = false;

  // Undo topology changes (NNI is an involution for a fixed (v, slot)).
  for (auto it = nni_log_.rbegin(); it != nni_log_.rend(); ++it) {
    tree_.nni(it->first, it->second);
  }
  // Undo branch lengths.
  for (auto it = old_lengths_.rbegin(); it != old_lengths_.rend(); ++it) {
    tree_.set_branch_length(it->first, it->second);
  }
  // Undo SPR moves (restores the u/w/target branch lengths absolutely).
  for (auto it = spr_log_.rbegin(); it != spr_log_.rend(); ++it) {
    tree_.undo_spr(*it);
  }
  // Topology is back to the pre-proposal shape: every node the proposal
  // invalidated gets its pre-proposal repeat classes swapped back in, like
  // the CLV flips below — nothing is re-identified.
  if (repeats_enabled_) repeats_.reject();
  // Undo model change.
  if (old_params_) {
    model_ = phylo::SubstitutionModel(*old_params_);
  }
  // Flip buffers back (no recomputation — the MrBayes restore path).
  for (int id : flipped_nodes_) {
    nodes_[static_cast<std::size_t>(id)].active ^= 1;
  }
  for (int id : flipped_branches_) {
    branches_[static_cast<std::size_t>(id)].active ^= 1;
  }
  // Dirty flags raised by the proposal refer to state we just restored.
  for (int id : node_dirty_marks_) {
    nodes_[static_cast<std::size_t>(id)].dirty = false;
  }
  for (int id : branch_dirty_marks_) {
    branches_[static_cast<std::size_t>(id)].dirty = false;
  }
  // Anything that entered the proposal dirty was recomputed into the buffer
  // we just flipped away from; the restored buffer is stale (possibly never
  // built), so those entries go back to dirty and must be recomputed.
  for (int id : pre_dirty_nodes_) {
    nodes_[static_cast<std::size_t>(id)].dirty = true;
  }
  for (int id : pre_dirty_branches_) {
    branches_[static_cast<std::size_t>(id)].dirty = true;
  }
  if (!pre_dirty_nodes_.empty() || !pre_dirty_branches_.empty()) {
    lik_valid_ = false;
    saved_lik_valid_ = false;
  }
  // The flips above wholesale-reverted scaler rows the incremental total
  // already absorbed; only a full resum can reconcile it.
  scaler_resum_ = true;
  ln_lik_ = saved_ln_lik_;
  lik_valid_ = saved_lik_valid_;
}

void PlfEngine::set_branch_length(int node, double length) {
  if (in_proposal_) {
    old_lengths_.emplace_back(node, tree_.branch_length(node));
  }
  tree_.set_branch_length(node, length);
  mark_branch_dirty(node);
  mark_path_dirty(tree_.node(node).parent);
}

void PlfEngine::apply_nni(int v, bool swap_left) {
  tree_.nni(v, swap_left);
  if (in_proposal_) nni_log_.emplace_back(v, swap_left);
  // v's children changed, so v and everything above it must be recomputed.
  mark_path_dirty(v);
  // Descendant sets changed for the same nodes: their repeat classes are out.
  if (repeats_enabled_) repeats_.invalidate_path(tree_, v);
  scaler_resum_ = true;  // topology change: rebuild the scaler total
}

void PlfEngine::apply_spr(int s, int target, double split_x) {
  const auto undo = tree_.spr(s, target, split_x);
  if (in_proposal_) spr_log_.push_back(undo);
  // Three branch lengths changed; both the detachment and insertion sites
  // need their root paths recomputed.
  mark_branch_dirty(undo.u);
  mark_branch_dirty(undo.w);
  mark_branch_dirty(undo.target);
  const int p = tree_.node(undo.w).parent;
  mark_path_dirty(p);       // where the subtree left
  mark_path_dirty(undo.u);  // where it arrived
  // Only these two root paths gained or lost descendants, so only their
  // repeat classes change.
  if (repeats_enabled_) {
    repeats_.invalidate_path(tree_, p);
    repeats_.invalidate_path(tree_, undo.u);
  }
  scaler_resum_ = true;  // topology change: rebuild the scaler total
}

void PlfEngine::set_model(const phylo::GtrParams& params) {
  PLF_CHECK(params.n_rate_categories == model_.n_rate_categories(),
            "set_model: rate category count is fixed at engine construction");
  if (in_proposal_ && !old_params_) old_params_ = model_.params();
  model_ = phylo::SubstitutionModel(params);
  k_ = model_.n_rate_categories();
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    if (tree_.node(static_cast<int>(id)).parent != phylo::kNoNode) {
      mark_branch_dirty(static_cast<int>(id));
    }
  }
  mark_path_dirty(tree_.root());
  // All internal nodes depend on the model, not just the root path.
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    if (!tree_.node(static_cast<int>(id)).is_leaf()) {
      mark_node_dirty(static_cast<int>(id));
    }
  }
  lik_valid_ = false;
}

void PlfEngine::rebuild_branch(int node) {
  BranchState& st = branches_[static_cast<std::size_t>(node)];
  if (in_proposal_ && st.dirty && st.dirty_epoch != proposal_epoch_) {
    // Dirty since BEFORE this proposal: there is no valid pre-proposal
    // buffer to restore, so a reject must leave this branch dirty again.
    pre_dirty_branches_.push_back(node);
    st.dirty_epoch = proposal_epoch_;
  }
  // Within one proposal only the FIRST rebuild may flip: the inactive buffer
  // holds the pre-proposal matrices that reject() must be able to restore.
  int target = st.active ^ 1;
  if (in_proposal_ && st.flip_epoch == proposal_epoch_) {
    target = st.active;  // overwrite this proposal's own buffer
  }
  st.tm[static_cast<std::size_t>(target)] =
      model_.transition_matrices(tree_.branch_length(node));
  if (tree_.node(node).is_leaf()) {
    st.tp[static_cast<std::size_t>(target)] =
        TipPartial(st.tm[static_cast<std::size_t>(target)]);
    st.tp_stamp[static_cast<std::size_t>(target)] = ++tp_builds_;
  }
  if (target != st.active) {
    st.active = target;
    if (in_proposal_) {
      flipped_branches_.push_back(node);
      st.flip_epoch = proposal_epoch_;
    }
  }
  st.dirty = false;
  ++stats_.tm_builds;
}

ChildArgs PlfEngine::make_child(int node) const {
  const BranchState& b = branches_[static_cast<std::size_t>(node)];
  const auto& tm = b.tm[static_cast<std::size_t>(b.active)];
  ChildArgs ch;
  if (tree_.node(node).is_leaf()) {
    ch.mask = data_.row(static_cast<std::size_t>(tree_.node(node).taxon));
    ch.tp = b.tp[static_cast<std::size_t>(b.active)].data();
  } else {
    const NodeState& st = nodes_[static_cast<std::size_t>(node)];
    // stage_arena() pinned this buffer for the whole evaluation, so the
    // residency check cannot fire on a kernel-bound pointer.
    ch.cl = arena_.data(clv_slot(node, st.active));
  }
  ch.p = tm.row_major();
  ch.pt = tm.col_major();
  return ch;
}

ChildArgs PlfEngine::make_plan_child(int node) const {
  if (!tree_.node(node).is_leaf()) {
    const int target = plan_target_[static_cast<std::size_t>(node)];
    if (target >= 0) {
      // The child is recomputed by this same plan (an earlier level): read
      // the buffer its op writes, which becomes active at post-processing.
      // Resolved directly — the child's PRE-evaluation active buffer may be
      // evicted (only the target is staged), so make_child must not touch it.
      const BranchState& b = branches_[static_cast<std::size_t>(node)];
      const auto& tm = b.tm[static_cast<std::size_t>(b.active)];
      ChildArgs ch;
      ch.cl = arena_.data(clv_slot(node, target));
      ch.p = tm.row_major();
      ch.pt = tm.col_major();
      return ch;
    }
  }
  return make_child(node);
}

const NodeRepeats* PlfEngine::repeats_for(int id) const {
  if (!repeats_enabled_) return nullptr;
  const NodeRepeats& nr = repeats_.node(id);
  if (nr.n_classes >= m_) return nullptr;  // nothing repeats: dense is free
  if (repeats_mode_ == SiteRepeatsMode::kAuto &&
      static_cast<double>(nr.n_classes) >
          kSiteRepeatsAutoMaxUniqueFraction * static_cast<double>(m_)) {
    return nullptr;  // too few repeats to pay for the scatter pass
  }
  return &nr;
}

void PlfEngine::scatter_repeats(const NodeRepeats& nr, float* cl,
                                float* ln_scaler) const {
  core::scatter_repeats(nr, k_, cl, ln_scaler);  // core/plan.cpp
}

void PlfEngine::collect_recompute_targets() {
  recompute_targets_.clear();
  recompute_.assign(tree_.n_nodes(), 0);

  // Seed with the dirty flags; the propagation in mark_path_dirty guarantees
  // flags are set on the whole root path, so the flag alone is sufficient.
  std::vector<int> work;
  for (int id : tree_.postorder_internals()) {
    if (nodes_[static_cast<std::size_t>(id)].dirty) {
      recompute_[static_cast<std::size_t>(id)] = 1;
      work.push_back(id);
    }
  }

  // Grow the set with evicted ancestors: every internal child an in-set node
  // reads must be resident, and a non-resident one joins the set as a
  // rematerialization — recursively, since its own children may be evicted
  // too. The existing leveling/dispatch machinery then rebuilds them in the
  // same fused plan, children before parents.
  while (!work.empty()) {
    const int id = work.back();
    work.pop_back();
    const phylo::TreeNode& n = tree_.node(id);
    for (int child : {n.left, n.right}) {
      if (child == phylo::kNoNode || tree_.node(child).is_leaf()) continue;
      if (recompute_[static_cast<std::size_t>(child)] != 0) continue;
      const NodeState& cst = nodes_[static_cast<std::size_t>(child)];
      if (!arena_.resident(clv_slot(child, cst.active))) {
        recompute_[static_cast<std::size_t>(child)] = 1;
        work.push_back(child);
      }
    }
  }

  // Emit the recompute postorder. The dirty subset keeps exactly the order
  // the unbudgeted engine would produce, and rematerializations resolve to
  // the ACTIVE buffer: a clean node has only clean descendants (dirtiness is
  // upward-closed), so deterministic kernels reproduce the evicted bits
  // exactly and neither a flip nor an undo-log entry is warranted.
  std::uint64_t remat_ops = 0;
  for (int id : tree_.postorder_internals()) {
    if (recompute_[static_cast<std::size_t>(id)] == 0) continue;
    const NodeState& st = nodes_[static_cast<std::size_t>(id)];
    const bool remat = !st.dirty;
    int target;
    if (remat) {
      target = st.active;
      ++remat_ops;
    } else {
      // First recomputation in a proposal flips; later ones overwrite the
      // proposal's own buffer (see NodeState::flip_epoch).
      target = st.active ^ 1;
      if (in_proposal_ && st.flip_epoch == proposal_epoch_) {
        target = st.active;
      }
    }
    recompute_targets_.push_back({id, target, remat});
  }
  if (remat_ops > 0) arena_.note_recompute(remat_ops);
}

void PlfEngine::stage_arena() {
  // Reads first: pin the active CLV of every out-of-set internal child, so a
  // later target allocation can never evict a buffer the closure above found
  // resident. Then the write targets, children before parents. This
  // traversal — external reads in recompute postorder (left child before
  // right), then targets in recompute postorder — is the documented LRU
  // touch protocol; the reference model in tests/clv_arena_test.cpp mirrors
  // it verbatim. Pins hold through the root reduction and are dropped at the
  // end of evaluate().
  for (const RecomputeEntry& e : recompute_targets_) {
    const phylo::TreeNode& n = tree_.node(e.node);
    for (int child : {n.left, n.right}) {
      if (child == phylo::kNoNode || tree_.node(child).is_leaf()) continue;
      if (recompute_[static_cast<std::size_t>(child)] != 0) continue;
      const NodeState& cst = nodes_[static_cast<std::size_t>(child)];
      const int slot = clv_slot(child, cst.active);
      arena_.acquire(slot);
      arena_.pin(slot);
    }
  }
  for (const RecomputeEntry& e : recompute_targets_) {
    const int slot = clv_slot(e.node, e.target);
    arena_.acquire(slot);
    arena_.pin(slot);
  }
  detail::check_arena(arena_);
}

void PlfEngine::build_plan() {
  // recompute_ already marks the set (collect_recompute_targets owns it, so
  // the eviction closure and the leveling agree); resolve the targets here.
  plan_target_.assign(tree_.n_nodes(), -1);
  for (const RecomputeEntry& e : recompute_targets_) {
    plan_target_[static_cast<std::size_t>(e.node)] = e.target;
  }
  const std::vector<int> levels = compute_levels(tree_, recompute_);

  plan_.reset(tree_.n_nodes(), m_);
  for (const RecomputeEntry& e : recompute_targets_) {
    const int id = e.node;
    const int target = e.target;
    const phylo::TreeNode& n = tree_.node(id);
    NodeState& st = nodes_[static_cast<std::size_t>(id)];
    float* out = arena_.data(clv_slot(id, target));
    float* ln_scaler = st.scaler[static_cast<std::size_t>(target)].data();
    const NodeRepeats* nr = repeats_for(id);

    PlfOp op;
    op.node = id;
    op.left = n.left;
    op.right = n.right;
    op.is_root = id == tree_.root();
    op.repeats = nr;
    op.run_m = nr != nullptr ? nr->n_classes : m_;
    op.args.down.left = make_plan_child(n.left);
    op.args.down.right = make_plan_child(n.right);
    op.args.down.out = out;
    op.args.down.K = k_;
    op.args.down.site_index = nr != nullptr ? nr->unique_sites.data() : nullptr;
    op.args.down.n_sites = m_;
    if (op.is_root) {
      const int og = tree_.outgroup();
      const BranchState& ob = branches_[static_cast<std::size_t>(og)];
      op.args.out_mask =
          data_.row(static_cast<std::size_t>(tree_.node(og).taxon));
      op.args.out_tp = ob.tp[static_cast<std::size_t>(ob.active)].data();
    }
    op.scale.cl = out;
    op.scale.ln_scaler = ln_scaler;
    op.scale.K = k_;
    op.scale.site_index = op.args.down.site_index;
    op.scale.n_sites = m_;

    // Tip specialization (docs/KERNELS.md): a cherry op becomes a pair-table
    // gather, a one-tip op the branch-free tip×inner kernel. The tip child is
    // canonicalized to the left slot — the two child factors multiply
    // elementwise and IEEE multiplication commutes, so the swap is exact.
    // Root ops keep the generic three-way kernel (one per evaluation).
    if (tip_kernels_enabled_ && !op.is_root) {
      const bool l_tip = tree_.node(n.left).is_leaf();
      const bool r_tip = tree_.node(n.right).is_leaf();
      if (l_tip && r_tip) {
        const BranchState& lb = branches_[static_cast<std::size_t>(n.left)];
        const BranchState& rb = branches_[static_cast<std::size_t>(n.right)];
        const std::uint64_t sl =
            lb.tp_stamp[static_cast<std::size_t>(lb.active)];
        const std::uint64_t sr =
            rb.tp_stamp[static_cast<std::size_t>(rb.active)];
        if (st.pair_stamp_l != sl || st.pair_stamp_r != sr) {
          st.pair = TipPairTable(lb.tp[static_cast<std::size_t>(lb.active)],
                                 rb.tp[static_cast<std::size_t>(rb.active)]);
          st.pair_stamp_l = sl;
          st.pair_stamp_r = sr;
          ++stats_.tip_tables_built;
        }
        op.kind = PlfOpKind::kTipTip;
        op.tt.left_mask = op.args.down.left.mask;
        op.tt.right_mask = op.args.down.right.mask;
        op.tt.pair = st.pair.raw();
        op.tt.pair_scaled = st.pair.scaled();
        op.tt.pair_ln = st.pair.ln_factors();
        op.tt.out = out;
        op.tt.K = k_;
        op.tt.table_categories = st.pair.n_categories();
        op.tt.site_index = op.args.down.site_index;
        op.tt.n_sites = m_;
        ++stats_.tip_tt_ops;
      } else if (l_tip != r_tip) {
        if (!l_tip) {
          std::swap(op.args.down.left, op.args.down.right);
          std::swap(op.left, op.right);
        }
        op.kind = PlfOpKind::kTipInner;
        ++stats_.tip_ti_ops;
      }
    }
    plan_.add(op, static_cast<std::size_t>(
                      levels[static_cast<std::size_t>(id)]));

    // Work accounting identical to what the per-call loop counts.
    if (op.is_root) {
      ++stats_.root_calls;
      if (nr != nullptr) ++stats_.repeat_root_hits;
    } else {
      ++stats_.down_calls;
      if (nr != nullptr) ++stats_.repeat_down_hits;
    }
    ++stats_.scale_calls;
    if (nr != nullptr) {
      ++stats_.repeat_scale_hits;
      stats_.repeat_sites_total += m_;
      stats_.repeat_sites_computed += op.run_m;
    }
    stats_.pattern_iterations += 2 * op.run_m;
  }
  plan_.finalize();
  PLF_DCHECK(plan_.n_ops() == recompute_targets_.size(),
             "plan must cover the dirty set exactly");
  // No kernel may ever receive an evicted/unmapped CLV pointer: verify the
  // arena x plan handoff before any backend touches an op.
  detail::check_arena(arena_, plan_);
  ++stats_.plan_builds;
  stats_.plan_ops += plan_.n_ops();
  stats_.plan_levels += plan_.n_levels();
}

void PlfEngine::post_process_plan() {
  for (const RecomputeEntry& e : recompute_targets_) {
    NodeState& st = nodes_[static_cast<std::size_t>(e.node)];
    if (in_proposal_ && st.dirty && st.dirty_epoch != proposal_epoch_) {
      pre_dirty_nodes_.push_back(e.node);
      st.dirty_epoch = proposal_epoch_;
    }
    if (e.target != st.active) {
      st.active = e.target;
      if (in_proposal_) {
        flipped_nodes_.push_back(e.node);
        st.flip_epoch = proposal_epoch_;
      }
    }
    st.dirty = false;
  }
}

void PlfEngine::execute_percall() {
  for (const RecomputeEntry& e : recompute_targets_) {
    const int id = e.node;
    const int target = e.target;
    NodeState& st = nodes_[static_cast<std::size_t>(id)];
    if (in_proposal_ && st.dirty && st.dirty_epoch != proposal_epoch_) {
      pre_dirty_nodes_.push_back(id);
      st.dirty_epoch = proposal_epoch_;
    }
    const phylo::TreeNode& n = tree_.node(id);
    float* out = arena_.data(clv_slot(id, target));
    float* ln_scaler = st.scaler[static_cast<std::size_t>(target)].data();

    // Site-repeat compaction: compute only the class representatives, then
    // scatter their CLV blocks (and scaler entries) to the duplicate sites.
    const NodeRepeats* nr = repeats_for(id);
    const std::uint32_t* site_index =
        nr != nullptr ? nr->unique_sites.data() : nullptr;
    const std::size_t run_m = nr != nullptr ? nr->n_classes : m_;

    Stopwatch plf_sw;
    if (id == tree_.root()) {
      RootArgs ra;
      ra.down.left = make_child(n.left);
      ra.down.right = make_child(n.right);
      ra.down.out = out;
      ra.down.K = k_;
      ra.down.site_index = site_index;
      ra.down.n_sites = m_;
      const int og = tree_.outgroup();
      const BranchState& ob = branches_[static_cast<std::size_t>(og)];
      ra.out_mask = data_.row(static_cast<std::size_t>(tree_.node(og).taxon));
      ra.out_tp = ob.tp[static_cast<std::size_t>(ob.active)].data();
      {
        PLF_PROF_SCOPE(obs::kTimerCondLikeRoot);
        backend_->run_root(*kernels_, ra, run_m);
      }
      ++stats_.root_calls;
      if (nr != nullptr) ++stats_.repeat_root_hits;
    } else {
      DownArgs da;
      da.left = make_child(n.left);
      da.right = make_child(n.right);
      da.out = out;
      da.K = k_;
      da.site_index = site_index;
      da.n_sites = m_;
      {
        PLF_PROF_SCOPE(obs::kTimerCondLikeDown);
        backend_->run_down(*kernels_, da, run_m);
      }
      ++stats_.down_calls;
      if (nr != nullptr) ++stats_.repeat_down_hits;
    }

    ScaleArgs sa;
    sa.cl = out;
    sa.ln_scaler = ln_scaler;
    sa.K = k_;
    sa.site_index = site_index;
    sa.n_sites = m_;
    {
      PLF_PROF_SCOPE(obs::kTimerCondLikeScaler);
      backend_->run_scale(*kernels_, sa, run_m);
    }
    ++stats_.scale_calls;
    if (nr != nullptr) {
      ++stats_.repeat_scale_hits;
      stats_.repeat_sites_total += m_;
      stats_.repeat_sites_computed += run_m;
      PLF_PROF_SCOPE(obs::kTimerRepeatScatter);
      scatter_repeats(*nr, out, ln_scaler);
    }
    stats_.pattern_iterations += 2 * run_m;  // one PLF pass + one scaler pass
    stats_.plf_seconds += plf_sw.seconds();

    if (target != st.active) {
      st.active = target;
      if (in_proposal_) {
        flipped_nodes_.push_back(id);
        st.flip_epoch = proposal_epoch_;
      }
    }
    st.dirty = false;
  }
}

void PlfEngine::evaluate() {
  Stopwatch serial_sw;

  // 1. Rebuild dirty branch matrices (serial work, like MrBayes' TiProbs).
  {
    PLF_PROF_SCOPE(obs::kTimerTiProbs);
    for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
      const phylo::TreeNode& n = tree_.node(static_cast<int>(id));
      if (n.parent != phylo::kNoNode && branches_[id].dirty) {
        rebuild_branch(static_cast<int>(id));
      }
    }
  }
  stats_.serial_seconds += serial_sw.seconds();

  // 1b. Re-identify repeat classes on nodes whose subtree changed (lazy: the
  // topology moves only marked them stale). Postorder inside refresh()
  // guarantees children are identified before parents.
  if (repeats_enabled_ && repeats_.any_stale()) {
    PLF_PROF_SCOPE(obs::kTimerRepeatIdentify);
    Stopwatch repeat_sw;
    stats_.repeat_node_rebuilds += repeats_.refresh(tree_);
    stats_.repeat_rebuild_seconds += repeat_sw.seconds();
  }

  // 2. Recompute dirty internal nodes, children before parents: collect the
  // dirty postorder (with each node's resolved write target) once, then
  // dispatch it per-call or as one dependency-leveled plan.
  collect_recompute_targets();

  // 2a'. Pin every CLV buffer this evaluation reads or writes (acquiring
  // target storage, evicting LRU unpinned slots under a finite budget)
  // before any kernel or scaler pass runs.
  stage_arena();

  // 2a. Retire the recomputed nodes' old scaler-total contributions while
  // their pre-evaluation buffers are still active. Shared by both dispatch
  // modes and walked in the same order as the post-kernel addition pass, so
  // scaler_total_ stays bit-identical between --dispatch=percall and plan.
  // Rematerializations are skipped: their recomputed scaler row is bit-
  // identical to the one already absorbed, and (t - x) + x != t in floating
  // point — touching the total would break budgeted/unbudgeted bit-identity.
  if (!scaler_resum_) {
    serial_sw.reset();
    PLF_PROF_SCOPE(obs::kTimerScalerSum);
    for (const RecomputeEntry& e : recompute_targets_) {
      if (e.remat) continue;
      const NodeState& st = nodes_[static_cast<std::size_t>(e.node)];
      const float* sc = st.scaler[static_cast<std::size_t>(st.active)].data();
      for (std::size_t c = 0; c < m_; ++c) {
        scaler_total_[c] -= static_cast<double>(sc[c]);
      }
    }
    stats_.serial_seconds += serial_sw.seconds();
  }

  // 2b. Execute.
  if (dispatch_ == DispatchMode::kPlan) {
    if (!recompute_targets_.empty()) {
      serial_sw.reset();
      {
        PLF_PROF_SCOPE(obs::kTimerPlanBuild);
        Stopwatch build_sw;
        build_plan();
        stats_.plan_build_seconds += build_sw.seconds();
      }
      stats_.serial_seconds += serial_sw.seconds();

      Stopwatch plf_sw;
      {
        PLF_PROF_SCOPE(obs::kTimerPlanExecute);
        backend_->run_plan(*kernels_, plan_);
      }
      stats_.plf_seconds += plf_sw.seconds();

      post_process_plan();
    }
  } else {
    execute_percall();
  }

  // 3. Fold the new scaler rows into the per-pattern total — incrementally
  // (same node order as the 2a subtraction), or a full resum over every
  // internal node when flagged (first evaluation, reject, topology change).
  serial_sw.reset();
  {
    PLF_PROF_SCOPE(obs::kTimerScalerSum);
    if (scaler_resum_) {
      scaler_total_.assign(m_, 0.0);
      for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
        const phylo::TreeNode& n = tree_.node(static_cast<int>(id));
        if (n.is_leaf()) continue;
        const NodeState& st = nodes_[id];
        const float* sc = st.scaler[static_cast<std::size_t>(st.active)].data();
        for (std::size_t c = 0; c < m_; ++c) scaler_total_[c] += sc[c];
      }
      scaler_resum_ = false;
      ++stats_.scaler_resums;
    } else {
      for (const RecomputeEntry& e : recompute_targets_) {
        if (e.remat) continue;  // same skip as the 2a subtraction pass
        const NodeState& st = nodes_[static_cast<std::size_t>(e.node)];
        const float* sc = st.scaler[static_cast<std::size_t>(e.target)].data();
        for (std::size_t c = 0; c < m_; ++c) {
          scaler_total_[c] += static_cast<double>(sc[c]);
        }
        ++stats_.scaler_delta_updates;
      }
    }
  }
  stats_.serial_seconds += serial_sw.seconds();

  // 4. Root reduction (with the +I invariant-sites mixture when enabled).
  Stopwatch reduce_sw;
  RootReduceArgs rr;
  const NodeState& root = nodes_[static_cast<std::size_t>(tree_.root())];
  rr.cl = arena_.data(clv_slot(tree_.root(), root.active));
  rr.ln_scaler_total = scaler_total_.data();
  rr.weights = data_.weights().data();
  const auto& pi = model_.pi();
  for (std::size_t i = 0; i < 4; ++i) rr.pi[i] = static_cast<float>(pi[i]);
  rr.K = k_;
  if (model_.params().p_invariant > 0.0) {
    for (std::size_t c = 0; c < m_; ++c) {
      float s = 0.0f;
      for (std::size_t st = 0; st < 4; ++st) {
        if ((const_mask_[c] >> st) & 1u) s += static_cast<float>(pi[st]);
      }
      const_lik_[c] = s;
    }
    rr.const_lik = const_lik_.data();
    rr.p_invariant = static_cast<float>(model_.params().p_invariant);
  }
  {
    PLF_PROF_SCOPE(obs::kTimerRootReduce);
    ln_lik_ = backend_->run_root_reduce(*kernels_, rr, m_);
  }
  ++stats_.reduce_calls;
  stats_.pattern_iterations += m_;
  stats_.plf_seconds += reduce_sw.seconds();

  // The evaluation's working set survives until here (the root reduction
  // reads the root CLV); from the next evaluation on, everything is fair
  // game for LRU eviction again.
  arena_.release_eval_pins();

  lik_valid_ = true;
}

void PlfEngine::set_instance_label(std::string label) {
  checker_.check();
  instance_label_ = std::move(label);
}

void PlfEngine::detach_thread() noexcept {
  checker_.detach();
  arena_.detach_thread();
}

void PlfEngine::publish_stats(obs::MetricsRegistry& registry) const {
  checker_.check();
  const auto set = [this, &registry](const char* name, double value) {
    if (instance_label_.empty()) {
      registry.set_gauge(registry.gauge(name), value);
    } else {
      registry.set_gauge(registry.gauge(instance_label_ + "." + name), value);
    }
  };
  set(obs::kGaugeEngineDownCalls, static_cast<double>(stats_.down_calls));
  set(obs::kGaugeEngineRootCalls, static_cast<double>(stats_.root_calls));
  set(obs::kGaugeEngineScaleCalls, static_cast<double>(stats_.scale_calls));
  set(obs::kGaugeEngineReduceCalls, static_cast<double>(stats_.reduce_calls));
  set(obs::kGaugeEngineTmBuilds, static_cast<double>(stats_.tm_builds));
  set(obs::kGaugeEnginePatternIterations,
      static_cast<double>(stats_.pattern_iterations));
  set(obs::kGaugeRepeatDownHitRate, stats_.down_repeat_hit_rate());
  set(obs::kGaugeRepeatRootHitRate, stats_.root_repeat_hit_rate());
  set(obs::kGaugeRepeatScaleHitRate, stats_.scale_repeat_hit_rate());
  set(obs::kGaugeRepeatCompressionRatio, stats_.repeat_compression_ratio());
  set(obs::kGaugeRepeatRebuildSeconds, stats_.repeat_rebuild_seconds);
  set(obs::kGaugeRepeatNodeRebuilds,
      static_cast<double>(stats_.repeat_node_rebuilds));
  set(obs::kGaugeEnginePlanBuilds, static_cast<double>(stats_.plan_builds));
  set(obs::kGaugeEnginePlanOps, static_cast<double>(stats_.plan_ops));
  set(obs::kGaugeEnginePlanLevels, static_cast<double>(stats_.plan_levels));
  set(obs::kGaugeEngineScalerResums,
      static_cast<double>(stats_.scaler_resums));
  set(obs::kGaugeEngineScalerDeltaUpdates,
      static_cast<double>(stats_.scaler_delta_updates));
  set(obs::kGaugeEngineTipTtOps, static_cast<double>(stats_.tip_tt_ops));
  set(obs::kGaugeEngineTipTiOps, static_cast<double>(stats_.tip_ti_ops));
  set(obs::kGaugeEngineTipTablesBuilt,
      static_cast<double>(stats_.tip_tables_built));
  publish_arena_gauges(registry);
}

void PlfEngine::publish_arena_gauges(obs::MetricsRegistry& registry) const {
  const ArenaCounters ac = arena_.counters();
  const auto set = [this, &registry](const char* name, double value) {
    if (instance_label_.empty()) {
      registry.set_gauge(registry.gauge(name), value);
    } else {
      registry.set_gauge(registry.gauge(instance_label_ + "." + name), value);
    }
  };
  set(obs::kGaugeEngineClvBytes, static_cast<double>(ac.resident_bytes));
  set(obs::kGaugeArenaBudgetBytes, static_cast<double>(arena_.budget_bytes()));
  set(obs::kGaugeArenaEvictions, static_cast<double>(ac.evictions));
  set(obs::kGaugeArenaRecomputeOps, static_cast<double>(ac.recompute_ops));
  set(obs::kGaugeArenaHitRate, ac.hit_rate());
}

void PlfEngine::save_state(util::BinaryWriter& w) const {
  checker_.check();
  PLF_CHECK(!in_proposal_, "save_state: close the open proposal first");

  // Config fingerprint, checked on restore: a checkpoint only resumes into
  // an engine shaped like the one that wrote it.
  w.section("ENGI");
  w.u64(m_);
  w.u64(k_);
  w.u64(tree_.n_nodes());
  w.u64(tree_.n_taxa());

  tree_.save(w);

  w.section("MODL");
  const phylo::GtrParams& p = model_.params();
  for (double r : p.rates) w.f64(r);
  for (double f : p.pi) w.f64(f);
  w.f64(p.gamma_shape);
  w.u64(p.n_rate_categories);
  w.f64(p.p_invariant);

  // Internal nodes, in id order: the active buffer index, the active scaler
  // row (its exact f32 bits — scaler_total_ was accumulated from them), and
  // the active CLV when it is arena-resident. Evicted CLVs are omitted on
  // purpose: the recompute closure rematerializes them bit-exactly from the
  // tips, which is the same guarantee the budgeted arena already relies on.
  w.section("NODE");
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    if (tree_.node(static_cast<int>(id)).is_leaf()) continue;
    const NodeState& st = nodes_[id];
    w.u8(static_cast<std::uint8_t>(st.active));
    w.f32_array(st.scaler[static_cast<std::size_t>(st.active)].data(), m_);
    const int slot = clv_slot(static_cast<int>(id), st.active);
    const bool resident = arena_.resident(slot);
    w.u8(resident ? 1 : 0);
    if (resident) w.f32_array(arena_.data(slot), m_ * k_ * 4);
  }

  // The accumulated scaler total must round-trip bit-exactly: a fresh resum
  // would differ in the low bits from the incremental subtract/add history,
  // shifting every subsequent likelihood. The pending-resum flag rides along
  // so a checkpoint taken right after a reject resums exactly once, like the
  // uninterrupted run.
  w.section("SCLR");
  w.f64_array(scaler_total_.data(), m_);
  w.u8(scaler_resum_ ? 1 : 0);
  w.f64(ln_lik_);
  w.u8(lik_valid_ ? 1 : 0);
}

void PlfEngine::restore_state(util::BinaryReader& r) {
  checker_.check();
  PLF_CHECK(!in_proposal_, "restore_state: close the open proposal first");

  r.section("ENGI");
  const std::uint64_t m = r.u64();
  const std::uint64_t k = r.u64();
  const std::uint64_t n_nodes = r.u64();
  const std::uint64_t n_taxa = r.u64();
  PLF_CHECK(m == m_ && k == k_ && n_nodes == tree_.n_nodes() &&
                n_taxa == tree_.n_taxa(),
            "restore_state: checkpoint was written by a differently-"
            "configured engine (pattern/category/tree shape mismatch)");

  tree_ = phylo::Tree::load(r);

  r.section("MODL");
  phylo::GtrParams p;
  for (double& v : p.rates) v = r.f64();
  for (double& v : p.pi) v = r.f64();
  p.gamma_shape = r.f64();
  p.n_rate_categories = static_cast<std::size_t>(r.u64());
  p.p_invariant = r.f64();
  PLF_CHECK(p.n_rate_categories == k_,
            "restore_state: rate category count is fixed at construction");
  model_ = phylo::SubstitutionModel(p);

  // Branch matrices are pure functions of (model, branch length): rebuild
  // every branch eagerly and leave it CLEAN. Leaving branches dirty instead
  // would be wrong, not just lazy — the first post-restore proposal's
  // reject() must flip back to real pre-proposal buffers, never to buffers
  // that are empty because they predate the checkpoint.
  tp_builds_ = 0;
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    const phylo::TreeNode& n = tree_.node(static_cast<int>(id));
    if (n.parent == phylo::kNoNode) continue;
    BranchState& st = branches_[id];
    st.active = 0;
    st.dirty = false;
    st.flip_epoch = 0;
    st.tm[0] = model_.transition_matrices(
        tree_.branch_length(static_cast<int>(id)));
    if (n.is_leaf()) {
      st.tp[0] = TipPartial(st.tm[0]);
      st.tp_stamp[0] = ++tp_builds_;
      st.tp_stamp[1] = 0;
    }
    ++stats_.tm_builds;
  }

  // Drop every pre-restore CLV before loading the checkpointed ones: a stale
  // buffer left "resident" would satisfy the recompute closure's residency
  // test while holding the wrong contents.
  arena_.evict_all();

  r.section("NODE");
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    if (tree_.node(static_cast<int>(id)).is_leaf()) continue;
    NodeState& st = nodes_[id];
    const std::uint8_t active = r.u8();
    PLF_CHECK(active <= 1, "restore_state: corrupt buffer index");
    st.active = active;
    const std::vector<float> scaler = r.f32_array();
    PLF_CHECK(scaler.size() == m_, "restore_state: scaler row size mismatch");
    st.scaler[static_cast<std::size_t>(st.active)].assign(scaler.begin(),
                                                          scaler.end());
    st.scaler[static_cast<std::size_t>(st.active ^ 1)].assign(m_, 0.0f);
    st.dirty = false;
    st.flip_epoch = 0;
    st.pair_stamp_l = 0;  // pair tables revalidate against the new tp stamps
    st.pair_stamp_r = 0;
    if (r.u8() != 0) {
      float* dst = arena_.acquire(clv_slot(static_cast<int>(id), st.active));
      const std::vector<float> cl = r.f32_array();
      PLF_CHECK(cl.size() == m_ * k_ * 4,
                "restore_state: CLV buffer size mismatch");
      std::memcpy(dst, cl.data(), cl.size() * sizeof(float));
    }
  }

  r.section("SCLR");
  const std::vector<double> total = r.f64_array();
  PLF_CHECK(total.size() == m_, "restore_state: scaler total size mismatch");
  scaler_total_.assign(total.begin(), total.end());
  scaler_resum_ = r.u8() != 0;
  ln_lik_ = r.f64();
  lik_valid_ = r.u8() != 0;

  // Repeat classes re-identify lazily (deterministic from data + tree), and
  // the proposal undo machinery starts from a clean slate.
  if (repeats_enabled_) repeats_.invalidate_all();
  proposal_epoch_ = 0;
  saved_ln_lik_ = 0.0;
  saved_lik_valid_ = false;
  flipped_nodes_.clear();
  flipped_branches_.clear();
  node_dirty_marks_.clear();
  branch_dirty_marks_.clear();
  pre_dirty_nodes_.clear();
  pre_dirty_branches_.clear();
  old_lengths_.clear();
  nni_log_.clear();
  spr_log_.clear();
  old_params_.reset();

  publish_arena_gauges(obs::MetricsRegistry::global());
}

double PlfEngine::log_likelihood() {
  checker_.check();
  if (!lik_valid_) evaluate();
  return ln_lik_;
}

const float* PlfEngine::node_cl(int node) const {
  const NodeState& st = nodes_[static_cast<std::size_t>(node)];
  PLF_CHECK(!tree_.node(node).is_leaf(), "node_cl: leaf nodes carry no cl");
  return arena_.data(clv_slot(node, st.active));
}

bool PlfEngine::node_resident(int node) const {
  PLF_CHECK(!tree_.node(node).is_leaf(),
            "node_resident: leaf nodes carry no cl");
  const NodeState& st = nodes_[static_cast<std::size_t>(node)];
  return arena_.resident(clv_slot(node, st.active));
}

void PlfEngine::evict_node_for_test(int node) {
  PLF_CHECK(!tree_.node(node).is_leaf(),
            "evict_node_for_test: leaf nodes carry no cl");
  const NodeState& st = nodes_[static_cast<std::size_t>(node)];
  arena_.evict_slot_for_test(clv_slot(node, st.active));
}

}  // namespace plf::core
