// Site-repeat identification for the PLF kernels.
//
// In real alignments many sites induce the same pattern when restricted to a
// subtree: their conditional-likelihood entries at that subtree's root are
// byte-identical (CLVs depend on the tip states below the node and on the
// globally-shared branch lengths/model, not on the site index). BEAGLE and
// epa-ng exploit this by computing each distinct per-node pattern once and
// reusing it (Kobert, Stamatakis, Flouri 2017). This module performs the
// bottom-up identification:
//
//   tip t        class(site c) = state mask of t at c        (<= 16 classes)
//   internal v   class(c) = id of the pair (class_left(c), class_right(c))
//   root         additionally folds in the outgroup tip's mask, matching
//                CondLikeRoot's three-way product
//
// ids are assigned in first-occurrence order, so each class's representative
// site (its first member) is strictly increasing across classes — the kernels
// rely on that for the O(1) bound contract, and the engine's scatter relies
// on every representative preceding its duplicates.
//
// Each internal node's pass is a pair ranker, O(m + n_left + n_right) with
// no hashing: counting-sort the sites by left-child class, rank the
// right-child classes inside each bucket with a stamped table, then renumber
// once in site order so the ids are first-occurrence ids.
//
// Classes are invariant under branch-length and model changes; only topology
// moves (NNI/SPR) change which sites repeat, and only for the nodes whose
// descendant set changed. The engine invalidates those paths and calls
// refresh() before the next evaluation. Inside a proposal the classes are
// double-buffered like the engine's CLVs: the first invalidation of a node
// parks its classes in a back slot, and reject() swaps them back without
// re-identifying anything.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "phylo/patterns.hpp"
#include "phylo/tree.hpp"
#include "util/aligned.hpp"

namespace plf::core {

/// Runtime policy for the repeat-compacted kernel path
/// (--site-repeats=on|off|auto).
enum class SiteRepeatsMode {
  kOff,   ///< always the dense path
  kOn,    ///< compact whenever a node has any repeated site
  kAuto,  ///< compact only where the per-node compression clears a threshold
};

std::string to_string(SiteRepeatsMode m);

/// Parse an on|off|auto flag value; throws plf::Error on anything else.
SiteRepeatsMode site_repeats_mode_from_string(const std::string& s);

/// kAuto enables the compacted path for a node only when unique classes make
/// up at most this fraction of its sites: below that the skipped arithmetic
/// provably outweighs the scatter pass and index indirection (see
/// docs/SITE_REPEATS.md for the measurement).
inline constexpr double kSiteRepeatsAutoMaxUniqueFraction = 0.9;

/// One internal node's repeat classes over the engine's m patterns.
struct NodeRepeats {
  std::uint32_t n_classes = 0;
  /// site -> repeat-class id (size m; ids dense in [0, n_classes)).
  aligned_vector<std::uint32_t> class_of_site;
  /// class id -> representative (first-occurrence) site. Strictly increasing.
  aligned_vector<std::uint32_t> unique_sites;

  /// Sites per unique class (1.0 = no repeats).
  double compression() const {
    return n_classes == 0 ? 1.0
                          : static_cast<double>(class_of_site.size()) /
                                static_cast<double>(n_classes);
  }
};

/// Repeat classes for every internal node of one (data, tree) pair, with
/// path-wise invalidation for topology moves.
class SiteRepeats {
 public:
  SiteRepeats() = default;

  /// Lazily initialized: all nodes start stale; call refresh() before use.
  SiteRepeats(const phylo::PatternMatrix& data, const phylo::Tree& tree);

  bool initialized() const { return data_ != nullptr; }

  /// Mark `from_node` and every ancestor stale (the nodes whose descendant
  /// set a topology move below or at `from_node` can change).
  void invalidate_path(const phylo::Tree& tree, int from_node);

  /// Mark every node stale (initial state, checkpoint restore).
  void invalidate_all();

  bool any_stale() const { return any_stale_; }

  // --- proposal protocol (mirrors PlfEngine's) ---
  /// Open an undo log: until accept()/reject(), the first invalidation of a
  /// node swaps its classes into the back slot and records its stale flag.
  void begin_proposal();
  /// Drop the undo log; the current classes stand.
  void accept();
  /// Swap every logged node's classes back and restore its stale flag:
  /// O(nodes touched), no re-identification.
  void reject();

  /// Recompute every stale node's classes, children before parents; returns
  /// how many nodes were rebuilt. The tree must have the same node-id space
  /// as at construction.
  std::size_t refresh(const phylo::Tree& tree);

  /// Classes of internal node `id`. Must not be stale (refresh() first).
  const NodeRepeats& node(int id) const;

  std::size_t n_patterns() const { return m_; }

  /// Sites-per-class averaged over all internal nodes (diagnostic; the
  /// engine's stats report the per-call ratios actually realized).
  double mean_compression() const;

 private:
  void invalidate_node(int id);
  void rebuild_node(const phylo::Tree& tree, int id);
  /// Per-site class ids of `child` and their count (the ranker's table
  /// size): a tip's masks widened into `scratch` (16 classes), or an inner
  /// child's own classes.
  const std::uint32_t* child_classes(const phylo::Tree& tree, int child,
                                     std::vector<std::uint32_t>& scratch,
                                     std::uint32_t& n_classes) const;
  /// Widen a tip row into `scratch` (masks as class ids, 16 classes).
  const std::uint32_t* widen_tip(const phylo::StateMask* row,
                                 std::vector<std::uint32_t>& scratch) const;
  /// Rank the site pairs (a[c], b[c]), a[c] < na, b[c] < nb: writes a dense
  /// group id per site to rank_ and returns the group count. Group ids are
  /// NOT in first-occurrence order; renumber() makes them so.
  std::uint32_t rank_pairs(const std::uint32_t* a, std::uint32_t na,
                           const std::uint32_t* b, std::uint32_t nb);
  /// First-occurrence renumbering of rank_ (n_groups groups) into `nr`.
  void renumber(std::uint32_t n_groups, NodeRepeats& nr);

  const phylo::PatternMatrix* data_ = nullptr;
  std::size_t m_ = 0;
  std::vector<NodeRepeats> nodes_;  ///< indexed by node id; internals only
  std::vector<NodeRepeats> back_;   ///< pre-proposal classes (logged nodes)
  std::vector<char> stale_;
  bool any_stale_ = false;

  // Proposal undo log: (node, stale flag before the proposal), one entry per
  // node on its first invalidation; logged_ dedups.
  bool in_proposal_ = false;
  bool saved_any_stale_ = false;
  std::vector<std::pair<int, char>> log_;
  std::vector<char> logged_;

  // Ranker scratch. Members, not thread_locals: concurrent MC3 chains each
  // own an engine, hence a SiteRepeats.
  std::vector<std::uint32_t> left_tip_, right_tip_, out_tip_;
  std::vector<std::uint32_t> bucket_end_;  ///< per left class
  std::vector<std::uint32_t> order_;       ///< sites sorted by left class
  std::vector<std::uint32_t> stamp_, slot_;  ///< per right class
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> rank_;   ///< site -> group
  std::vector<std::uint32_t> pairs_;  ///< root: site -> (left, right) group
  std::vector<std::uint32_t> remap_;  ///< group -> first-occurrence id
};

}  // namespace plf::core
