#include "core/repeats.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace plf::core {

namespace {

/// A tip's classes are its 4-bit state masks.
constexpr std::uint32_t kTipClasses = 16;
constexpr std::uint32_t kNoGroup = 0xffffffffu;

}  // namespace

std::string to_string(SiteRepeatsMode m) {
  switch (m) {
    case SiteRepeatsMode::kOff: return "off";
    case SiteRepeatsMode::kOn: return "on";
    case SiteRepeatsMode::kAuto: return "auto";
  }
  return "?";
}

SiteRepeatsMode site_repeats_mode_from_string(const std::string& s) {
  if (s == "off") return SiteRepeatsMode::kOff;
  if (s == "on") return SiteRepeatsMode::kOn;
  if (s == "auto") return SiteRepeatsMode::kAuto;
  throw Error("--site-repeats: expected on|off|auto, got '" + s + "'");
}

SiteRepeats::SiteRepeats(const phylo::PatternMatrix& data,
                         const phylo::Tree& tree)
    : data_(&data), m_(data.n_patterns()) {
  PLF_CHECK(data.n_taxa() == tree.n_taxa(),
            "SiteRepeats: pattern matrix and tree disagree on taxon count");
  PLF_CHECK(m_ < kNoGroup, "SiteRepeats: pattern count overflows class ids");
  nodes_.resize(tree.n_nodes());
  back_.resize(tree.n_nodes());
  stale_.assign(tree.n_nodes(), 0);
  logged_.assign(tree.n_nodes(), 0);
  invalidate_all();
}

void SiteRepeats::invalidate_node(int id) {
  const auto i = static_cast<std::size_t>(id);
  if (in_proposal_ && logged_[i] == 0) {
    logged_[i] = 1;
    log_.emplace_back(id, stale_[i]);
    std::swap(nodes_[i], back_[i]);
  }
  stale_[i] = 1;
  any_stale_ = true;
}

void SiteRepeats::invalidate_path(const phylo::Tree& tree, int from_node) {
  for (int id = from_node; id != phylo::kNoNode; id = tree.node(id).parent) {
    if (!tree.node(id).is_leaf()) invalidate_node(id);
  }
}

void SiteRepeats::invalidate_all() {
  for (std::size_t id = 0; id < stale_.size(); ++id) {
    invalidate_node(static_cast<int>(id));
  }
}

void SiteRepeats::begin_proposal() {
  PLF_CHECK(!in_proposal_, "SiteRepeats: proposal already open");
  in_proposal_ = true;
  saved_any_stale_ = any_stale_;
}

void SiteRepeats::accept() {
  PLF_CHECK(in_proposal_, "SiteRepeats: accept without a proposal");
  for (const auto& entry : log_) {
    logged_[static_cast<std::size_t>(entry.first)] = 0;
  }
  log_.clear();
  in_proposal_ = false;
}

void SiteRepeats::reject() {
  PLF_CHECK(in_proposal_, "SiteRepeats: reject without a proposal");
  for (const auto& [id, was_stale] : log_) {
    const auto i = static_cast<std::size_t>(id);
    std::swap(nodes_[i], back_[i]);
    stale_[i] = was_stale;
    logged_[i] = 0;
  }
  log_.clear();
  in_proposal_ = false;
  // Only logged nodes can have gone stale inside the proposal, and they are
  // back to their pre-proposal flags; refresh() only ever clears flags. So
  // the pre-proposal summary is exact when it was false and safe when true.
  any_stale_ = saved_any_stale_;
}

const std::uint32_t* SiteRepeats::widen_tip(
    const phylo::StateMask* row, std::vector<std::uint32_t>& scratch) const {
  scratch.resize(m_);
  std::uint32_t seen = 0;
  for (std::size_t c = 0; c < m_; ++c) {
    scratch[c] = row[c];
    seen |= row[c];
  }
  PLF_CHECK(seen < kTipClasses, "SiteRepeats: tip state mask out of range");
  return scratch.data();
}

const std::uint32_t* SiteRepeats::child_classes(
    const phylo::Tree& tree, int child, std::vector<std::uint32_t>& scratch,
    std::uint32_t& n_classes) const {
  if (tree.node(child).is_leaf()) {
    n_classes = kTipClasses;
    return widen_tip(
        data_->row(static_cast<std::size_t>(tree.node(child).taxon)), scratch);
  }
  const NodeRepeats& nr = nodes_[static_cast<std::size_t>(child)];
  PLF_CHECK(stale_[static_cast<std::size_t>(child)] == 0 &&
                nr.class_of_site.size() == m_,
            "SiteRepeats: child classes missing (postorder violated)");
  n_classes = nr.n_classes;
  return nr.class_of_site.data();
}

std::uint32_t SiteRepeats::rank_pairs(const std::uint32_t* a,
                                      std::uint32_t na,
                                      const std::uint32_t* b,
                                      std::uint32_t nb) {
  // Counting sort by a: bucket_end_[x] ends up one past bucket x's last slot
  // in order_, and each bucket lists its sites in increasing order.
  bucket_end_.assign(na, 0);
  for (std::size_t c = 0; c < m_; ++c) ++bucket_end_[a[c]];
  std::uint32_t sum = 0;
  for (std::uint32_t x = 0; x < na; ++x) {
    const std::uint32_t n = bucket_end_[x];
    bucket_end_[x] = sum;
    sum += n;
  }
  order_.resize(m_);
  for (std::size_t c = 0; c < m_; ++c) {
    order_[bucket_end_[a[c]]++] = static_cast<std::uint32_t>(c);
  }

  // Inside each bucket, b values seen under the current stamp already own a
  // group; a fresh stamp per bucket empties the table in O(1).
  if (stamp_.size() < nb) {
    stamp_.resize(nb, 0);
    slot_.resize(nb);
  }
  rank_.resize(m_);
  std::uint32_t n_groups = 0;
  std::uint32_t begin = 0;
  for (std::uint32_t x = 0; x < na; ++x) {
    const std::uint32_t end = bucket_end_[x];
    if (begin == end) continue;
    if (++epoch_ == 0) {  // wrapped: old stamps could collide, so clear them
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t c = order_[i];
      const std::uint32_t r = b[c];
      if (stamp_[r] != epoch_) {
        stamp_[r] = epoch_;
        slot_[r] = n_groups++;
      }
      rank_[c] = slot_[r];
    }
    begin = end;
  }
  return n_groups;
}

void SiteRepeats::renumber(std::uint32_t n_groups, NodeRepeats& nr) {
  remap_.assign(n_groups, kNoGroup);
  nr.class_of_site.resize(m_);
  nr.unique_sites.clear();
  for (std::size_t c = 0; c < m_; ++c) {
    std::uint32_t& id = remap_[rank_[c]];
    if (id == kNoGroup) {
      id = static_cast<std::uint32_t>(nr.unique_sites.size());
      nr.unique_sites.push_back(static_cast<std::uint32_t>(c));
    }
    nr.class_of_site[c] = id;
  }
  nr.n_classes = static_cast<std::uint32_t>(nr.unique_sites.size());
}

void SiteRepeats::rebuild_node(const phylo::Tree& tree, int id) {
  const phylo::TreeNode& n = tree.node(id);
  std::uint32_t nl = 0, nr_classes = 0;
  const std::uint32_t* lc = child_classes(tree, n.left, left_tip_, nl);
  const std::uint32_t* rc = child_classes(tree, n.right, right_tip_, nr_classes);
  std::uint32_t n_groups = rank_pairs(lc, nl, rc, nr_classes);
  if (id == tree.root()) {
    // The root kernel is a three-way product: rank (pair group, outgroup
    // mask) on top of the (left, right) ranking.
    const int og = tree.outgroup();
    const std::uint32_t* oc = widen_tip(
        data_->row(static_cast<std::size_t>(tree.node(og).taxon)), out_tip_);
    pairs_.swap(rank_);
    n_groups = rank_pairs(pairs_.data(), n_groups, oc, kTipClasses);
  }
  NodeRepeats& out = nodes_[static_cast<std::size_t>(id)];
  renumber(n_groups, out);
  PLF_CHECK(out.n_classes >= 1 || m_ == 0,
            "SiteRepeats: no classes for a nonempty pattern set");
}

std::size_t SiteRepeats::refresh(const phylo::Tree& tree) {
  PLF_CHECK(initialized(), "SiteRepeats: refresh before construction");
  if (!any_stale_) return 0;
  std::size_t rebuilt = 0;
  for (int id : tree.postorder_internals()) {
    if (stale_[static_cast<std::size_t>(id)] != 0) {
      rebuild_node(tree, id);
      stale_[static_cast<std::size_t>(id)] = 0;
      ++rebuilt;
    }
  }
  any_stale_ = false;
  return rebuilt;
}

const NodeRepeats& SiteRepeats::node(int id) const {
  const auto& nr = nodes_[static_cast<std::size_t>(id)];
  PLF_CHECK(stale_[static_cast<std::size_t>(id)] == 0 &&
                nr.class_of_site.size() == m_,
            "SiteRepeats: node classes are stale (refresh() first)");
  return nr;
}

double SiteRepeats::mean_compression() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (stale_[id] == 0 && nodes_[id].class_of_site.size() == m_ && m_ > 0) {
      sum += nodes_[id].compression();
      ++n;
    }
  }
  return n == 0 ? 1.0 : sum / static_cast<double>(n);
}

}  // namespace plf::core
