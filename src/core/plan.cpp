#include "core/plan.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace plf::core {

void PlfPlan::reset(std::size_t n_nodes, std::size_t m) {
  ops_.clear();
  op_level_.clear();
  level_offsets_.clear();
  node_level_.assign(n_nodes, -1);
  m_ = m;
  finalized_ = false;
  reduce_ = RootReduceArgs{};
}

void PlfPlan::add(const PlfOp& op, std::size_t level) {
  PLF_CHECK(!finalized_, "PlfPlan::add after finalize");
  PLF_CHECK(op.node >= 0 &&
                static_cast<std::size_t>(op.node) < node_level_.size(),
            "PlfOp node id out of range");
  PLF_CHECK(node_level_[static_cast<std::size_t>(op.node)] == -1,
            "duplicate PlfOp for node");
  ops_.push_back(op);
  op_level_.push_back(level);
  node_level_[static_cast<std::size_t>(op.node)] = static_cast<int>(level);
}

void PlfPlan::finalize() {
  PLF_CHECK(!finalized_, "PlfPlan::finalize called twice");
  std::size_t n_levels = 0;
  for (std::size_t l : op_level_) n_levels = std::max(n_levels, l + 1);
  // Counting sort by level: stable, so within a level the engine's postorder
  // insertion order is preserved.
  std::vector<std::size_t> counts(n_levels, 0);
  for (std::size_t l : op_level_) counts[l]++;
  level_offsets_.assign(n_levels + 1, 0);
  for (std::size_t l = 0; l < n_levels; ++l) {
    level_offsets_[l + 1] = level_offsets_[l] + counts[l];
  }
  std::vector<PlfOp> sorted(ops_.size());
  std::vector<std::size_t> cursor(level_offsets_.begin(),
                                  level_offsets_.end() - 1);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    sorted[cursor[op_level_[i]]++] = ops_[i];
  }
  ops_ = std::move(sorted);
  finalized_ = true;
}

int PlfPlan::level_of_node(int node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= node_level_.size()) {
    return -1;
  }
  return node_level_[static_cast<std::size_t>(node)];
}

ReducePartial* PlfPlan::reduce_partials(std::size_t blocks) {
  if (partials_.size() < blocks) partials_.resize(blocks);
  std::fill(partials_.begin(), partials_.begin() + blocks, ReducePartial{});
  return partials_.data();
}

std::vector<int> compute_levels(const phylo::Tree& tree,
                                const std::vector<char>& recompute) {
  PLF_CHECK(recompute.size() == tree.n_nodes(),
            "recompute set size mismatches tree");
  std::vector<int> level(tree.n_nodes(), -1);
  // Postorder guarantees children's levels are settled before the parent.
  for (int id : tree.postorder_internals()) {
    const auto uid = static_cast<std::size_t>(id);
    if (!recompute[uid]) continue;
    int lvl = 0;
    const phylo::TreeNode& nd = tree.node(id);
    for (int child : {nd.left, nd.right}) {
      if (child == phylo::kNoNode) continue;
      const int cl = level[static_cast<std::size_t>(child)];
      lvl = std::max(lvl, cl + 1);  // cl == -1 (valid input) contributes 0
    }
    level[uid] = lvl;
  }
  return level;
}

}  // namespace plf::core
