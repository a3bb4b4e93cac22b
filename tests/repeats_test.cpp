// Unit tests for site-repeat class identification (core/repeats.hpp): class
// counts on hand-built data sets, tip-vs-inner class composition, a
// differential test of the pair ranker against a brute-force reference, and
// the invalidation protocol (path invalidation, proposal double buffer)
// under the mutations an MCMC run performs.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/repeats.hpp"
#include "phylo/patterns.hpp"
#include "phylo/tree.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace plf::core {
namespace {

// Four taxa rooted at outgroup A: internals are the (C,D) cherry and the
// root joining B with that cherry.
phylo::Tree four_taxon_tree() {
  return phylo::Tree::from_newick("(A:0.1,B:0.1,(C:0.1,D:0.1):0.1);",
                                  {"A", "B", "C", "D"});
}

/// One alignment column: masks for A, B, C, D in taxon order.
phylo::PatternMatrix make_data(
    const std::vector<std::vector<phylo::StateMask>>& columns) {
  return phylo::PatternMatrix::from_patterns(
      {"A", "B", "C", "D"}, columns,
      std::vector<std::uint32_t>(columns.size(), 1));
}

/// Brute-force reference identification: a node's class for a site is the
/// first-occurrence rank of (left class, right class, outgroup mask at the
/// root) in a std::map. Tips' classes are their masks.
struct RefClasses {
  std::vector<std::uint32_t> class_of_site;
  std::vector<std::uint32_t> unique_sites;
};

std::vector<RefClasses> reference_classes(const phylo::PatternMatrix& data,
                                          const phylo::Tree& tree) {
  const std::size_t m = data.n_patterns();
  std::vector<RefClasses> out(tree.n_nodes());
  const auto tip_row = [&](int node) {
    const phylo::StateMask* row =
        data.row(static_cast<std::size_t>(tree.node(node).taxon));
    return std::vector<std::uint32_t>(row, row + m);
  };
  const auto classes_of = [&](int node) {
    return tree.node(node).is_leaf()
               ? tip_row(node)
               : out[static_cast<std::size_t>(node)].class_of_site;
  };
  for (int id : tree.postorder_internals()) {
    const std::vector<std::uint32_t> l = classes_of(tree.node(id).left);
    const std::vector<std::uint32_t> r = classes_of(tree.node(id).right);
    const std::vector<std::uint32_t> og =
        id == tree.root() ? tip_row(tree.outgroup())
                          : std::vector<std::uint32_t>(m, 0);
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
             std::uint32_t>
        ids;
    RefClasses& rc = out[static_cast<std::size_t>(id)];
    for (std::size_t c = 0; c < m; ++c) {
      const auto [it, inserted] = ids.emplace(
          std::make_tuple(l[c], r[c], og[c]),
          static_cast<std::uint32_t>(ids.size()));
      if (inserted) rc.unique_sites.push_back(static_cast<std::uint32_t>(c));
      rc.class_of_site.push_back(it->second);
    }
  }
  return out;
}

/// Assert `sr` (refreshed) matches the reference on every internal node,
/// and that its ids are first-occurrence ids.
void expect_matches_reference(const SiteRepeats& sr,
                              const phylo::PatternMatrix& data,
                              const phylo::Tree& tree) {
  const std::vector<RefClasses> ref = reference_classes(data, tree);
  for (int id : tree.postorder_internals()) {
    const NodeRepeats& nr = sr.node(id);
    const RefClasses& rc = ref[static_cast<std::size_t>(id)];
    ASSERT_EQ(std::vector<std::uint32_t>(nr.class_of_site.begin(),
                                         nr.class_of_site.end()),
              rc.class_of_site)
        << "node " << id;
    ASSERT_EQ(std::vector<std::uint32_t>(nr.unique_sites.begin(),
                                         nr.unique_sites.end()),
              rc.unique_sites)
        << "node " << id;
    ASSERT_EQ(nr.n_classes, rc.unique_sites.size()) << "node " << id;
    std::uint32_t next = 0;  // first occurrences appear as 0, 1, 2, ...
    for (std::size_t c = 0; c < nr.class_of_site.size(); ++c) {
      ASSERT_LE(nr.class_of_site[c], next) << "node " << id << " site " << c;
      if (nr.class_of_site[c] == next) {
        ASSERT_EQ(nr.unique_sites[next], c);
        ++next;
      }
    }
  }
}

/// `m` columns over `tree`'s taxa, each mask drawn from `alphabet`.
phylo::PatternMatrix random_data(const phylo::Tree& tree, std::size_t m,
                                 const std::vector<phylo::StateMask>& alphabet,
                                 Rng& rng) {
  std::vector<std::vector<phylo::StateMask>> cols(
      m, std::vector<phylo::StateMask>(tree.n_taxa()));
  for (auto& col : cols) {
    for (auto& mask : col) mask = alphabet[rng.below(alphabet.size())];
  }
  return phylo::PatternMatrix::from_patterns(
      tree.taxon_names(), cols, std::vector<std::uint32_t>(m, 1));
}

TEST(SiteRepeatsModeTest, StringRoundTrip) {
  for (auto m : {SiteRepeatsMode::kOff, SiteRepeatsMode::kOn,
                 SiteRepeatsMode::kAuto}) {
    EXPECT_EQ(site_repeats_mode_from_string(to_string(m)), m);
  }
  EXPECT_THROW(site_repeats_mode_from_string("maybe"), Error);
  EXPECT_THROW(site_repeats_mode_from_string(""), Error);
}

TEST(SiteRepeatsTest, AllIdenticalColumnsCollapseToOneClass) {
  const phylo::Tree tree = four_taxon_tree();
  const std::vector<phylo::StateMask> col = {1, 2, 4, 8};  // A C G T
  const auto data = make_data(std::vector<std::vector<phylo::StateMask>>(8, col));

  SiteRepeats sr(data, tree);
  ASSERT_TRUE(sr.any_stale());
  sr.refresh(tree);
  ASSERT_FALSE(sr.any_stale());

  for (int id : tree.postorder_internals()) {
    const NodeRepeats& nr = sr.node(id);
    EXPECT_EQ(nr.n_classes, 1u) << "node " << id;
    ASSERT_EQ(nr.unique_sites.size(), 1u);
    EXPECT_EQ(nr.unique_sites[0], 0u);  // representative = first occurrence
    for (std::uint32_t cls : nr.class_of_site) EXPECT_EQ(cls, 0u);
    EXPECT_DOUBLE_EQ(nr.compression(), 8.0);
  }
  EXPECT_DOUBLE_EQ(sr.mean_compression(), 8.0);
}

TEST(SiteRepeatsTest, AllUniqueColumnsStayFullyDense) {
  const phylo::Tree tree = four_taxon_tree();
  // Every site gets a distinct (C,D) mask pair, so the cherry — and
  // everything above it — has one class per site.
  std::vector<std::vector<phylo::StateMask>> cols;
  for (phylo::StateMask c : {1, 2}) {
    for (phylo::StateMask d : {1, 2, 4, 8}) {
      cols.push_back({1, 1, c, d});
    }
  }
  const auto data = make_data(cols);

  SiteRepeats sr(data, tree);
  sr.refresh(tree);
  for (int id : tree.postorder_internals()) {
    const NodeRepeats& nr = sr.node(id);
    EXPECT_EQ(nr.n_classes, cols.size()) << "node " << id;
    for (std::size_t c = 0; c < cols.size(); ++c) {
      EXPECT_EQ(nr.class_of_site[c], c);
      EXPECT_EQ(nr.unique_sites[c], c);
    }
    EXPECT_DOUBLE_EQ(nr.compression(), 1.0);
  }
}

TEST(SiteRepeatsTest, InnerClassesComposeTipClasses) {
  const phylo::Tree tree = four_taxon_tree();
  // Cherry (C,D): pairs (1,4),(1,4),(2,4),(2,4) -> 2 classes.
  // Root (B, cherry) + outgroup A: (1,cls0),(2,cls0),(1,cls1),(2,cls1)
  // with constant A -> 4 classes.
  const auto data = make_data({
      {1, 1, 1, 4},
      {1, 2, 1, 4},
      {1, 1, 2, 4},
      {1, 2, 2, 4},
  });

  SiteRepeats sr(data, tree);
  sr.refresh(tree);

  // Find the cherry: the internal node that is not the root.
  int cherry = phylo::kNoNode;
  for (int id : tree.postorder_internals()) {
    if (id != tree.root()) cherry = id;
  }
  ASSERT_NE(cherry, phylo::kNoNode);

  const NodeRepeats& ch = sr.node(cherry);
  EXPECT_EQ(ch.n_classes, 2u);
  EXPECT_EQ(ch.class_of_site[0], ch.class_of_site[1]);
  EXPECT_EQ(ch.class_of_site[2], ch.class_of_site[3]);
  EXPECT_NE(ch.class_of_site[0], ch.class_of_site[2]);

  const NodeRepeats& rt = sr.node(tree.root());
  EXPECT_EQ(rt.n_classes, 4u);  // B's mask splits each cherry class
}

TEST(SiteRepeatsTest, RootClassFoldsOutgroupMask) {
  const phylo::Tree tree = four_taxon_tree();
  // B, C, D identical on both sites; only the outgroup A differs. The cherry
  // sees one class, but the root's three-way product includes A's tip, so
  // its classes must split.
  const auto data = make_data({
      {1, 1, 1, 1},
      {2, 1, 1, 1},
  });

  SiteRepeats sr(data, tree);
  sr.refresh(tree);

  for (int id : tree.postorder_internals()) {
    const NodeRepeats& nr = sr.node(id);
    if (id == tree.root()) {
      EXPECT_EQ(nr.n_classes, 2u);
    } else {
      EXPECT_EQ(nr.n_classes, 1u);
    }
  }
}

TEST(SiteRepeatsTest, StaleAccessThrowsAndPathInvalidationIsAncestral) {
  const phylo::Tree tree = four_taxon_tree();
  const std::vector<phylo::StateMask> col = {1, 2, 4, 8};
  const auto data = make_data(std::vector<std::vector<phylo::StateMask>>(4, col));

  SiteRepeats sr(data, tree);
  EXPECT_THROW(sr.node(tree.root()), Error);  // refresh() not called yet
  sr.refresh(tree);
  EXPECT_NO_THROW(sr.node(tree.root()));

  // Invalidate from the cherry: the cherry and the root go stale; accessing
  // either throws until the next refresh.
  int cherry = phylo::kNoNode;
  for (int id : tree.postorder_internals()) {
    if (id != tree.root()) cherry = id;
  }
  sr.invalidate_path(tree, cherry);
  EXPECT_TRUE(sr.any_stale());
  EXPECT_THROW(sr.node(cherry), Error);
  EXPECT_THROW(sr.node(tree.root()), Error);
  sr.refresh(tree);
  EXPECT_EQ(sr.node(cherry).n_classes, 1u);
}

// The classes must track every mutation an MCMC chain performs: branch
// lengths (no class change, values change), NNI inside a proposal, and
// rejection (pre-proposal classes swapped back for the restored topology). The
// repeat-compacted engine must match a dense engine bit-for-bit throughout,
// because compaction only skips arithmetic that would produce identical bits.
TEST(SiteRepeatsEngineTest, TracksMutationsMidMcmc) {
  Rng rng(77);
  phylo::Tree tree = seqgen::yule_tree(8, rng, 1.0, 0.15);
  phylo::GtrParams params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  const auto data = phylo::PatternMatrix::compress(ev.evolve(400, rng));

  SerialBackend b_on, b_off;
  PlfEngine on(data, params, tree, b_on, KernelVariant::kSimdCol,
               SiteRepeatsMode::kOn);
  PlfEngine off(data, params, tree, b_off, KernelVariant::kSimdCol,
                SiteRepeatsMode::kOff);
  ASSERT_TRUE(on.site_repeats_enabled());
  ASSERT_FALSE(off.site_repeats_enabled());

  EXPECT_EQ(on.log_likelihood(), off.log_likelihood());
  EXPECT_GT(on.stats().repeat_down_hits, 0u);
  EXPECT_GT(on.repeat_mean_compression(), 1.0);

  // Branch-length change: classes are invariant, CLVs are not.
  const int leaf = on.tree().leaf_of(3);
  on.set_branch_length(leaf, 0.91);
  off.set_branch_length(leaf, 0.91);
  EXPECT_EQ(on.log_likelihood(), off.log_likelihood());

  // NNI inside a proposal, then reject: the compacted engine must
  // re-identify classes for the proposal topology and restore the old ones
  // for the restored topology.
  const auto edges = on.tree().internal_edge_nodes();
  ASSERT_FALSE(edges.empty());
  const int v = edges[edges.size() / 2];

  on.begin_proposal();
  off.begin_proposal();
  on.apply_nni(v, true);
  off.apply_nni(v, true);
  EXPECT_EQ(on.log_likelihood(), off.log_likelihood());
  on.reject();
  off.reject();
  EXPECT_EQ(on.log_likelihood(), off.log_likelihood());

  // Accepted NNI stays consistent too.
  on.begin_proposal();
  off.begin_proposal();
  on.apply_nni(v, false);
  off.apply_nni(v, false);
  EXPECT_EQ(on.log_likelihood(), off.log_likelihood());
  on.accept();
  off.accept();
  EXPECT_EQ(on.log_likelihood(), off.log_likelihood());
}

// The pair ranker against the std::map reference on seeded random trees and
// alignments over `alphabet`, from one site up.
void check_ranker_on_random_data(const std::vector<phylo::StateMask>& alphabet,
                                 std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t taxa = 3 + rng.below(22);
    const phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.1);
    for (const std::size_t m : {std::size_t{1}, std::size_t{2},
                                std::size_t{37}, std::size_t{400}}) {
      const auto data = random_data(tree, m, alphabet, rng);
      SiteRepeats sr(data, tree);
      sr.refresh(tree);
      SCOPED_TRACE("taxa " + std::to_string(taxa) + " m " + std::to_string(m));
      expect_matches_reference(sr, data, tree);
    }
  }
}

TEST(SiteRepeatsRankerTest, MatchesReferenceOnUnambiguousData) {
  check_ranker_on_random_data({1, 2, 4, 8}, 1306);
}

TEST(SiteRepeatsRankerTest, MatchesReferenceOnRepeatHeavyBinaryData) {
  check_ranker_on_random_data({1, 8}, 1307);
}

// Every ambiguity code plus the gap mask.
TEST(SiteRepeatsRankerTest, MatchesReferenceWithAmbiguityAndGapMasks) {
  check_ranker_on_random_data(
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, phylo::kGapMask}, 1308);
}

TEST(SiteRepeatsRankerTest, AllIdenticalAndAllDistinctColumns) {
  Rng rng(5);
  const phylo::Tree tree = seqgen::yule_tree(9, rng, 1.0, 0.1);
  const std::size_t n = tree.n_taxa();

  // All identical: one class everywhere, representative site 0.
  std::vector<phylo::StateMask> col(n);
  for (auto& mk : col) mk = static_cast<phylo::StateMask>(1 + rng.below(15));
  const auto same = phylo::PatternMatrix::from_patterns(
      tree.taxon_names(), std::vector<std::vector<phylo::StateMask>>(64, col),
      std::vector<std::uint32_t>(64, 1));
  SiteRepeats sr_same(same, tree);
  sr_same.refresh(tree);
  expect_matches_reference(sr_same, same, tree);
  for (int id : tree.postorder_internals()) {
    EXPECT_EQ(sr_same.node(id).n_classes, 1u);
  }

  // All distinct: column c spells c in base 4 over the taxa, so the root
  // (which sees every taxon) has one class per site.
  constexpr std::size_t kM = 4096;
  std::vector<std::vector<phylo::StateMask>> cols(
      kM, std::vector<phylo::StateMask>(n, 1));
  for (std::size_t c = 0; c < kM; ++c) {
    std::size_t v = c;
    for (std::size_t t = 0; t < n && v > 0; ++t, v /= 4) {
      cols[c][t] = static_cast<phylo::StateMask>(1u << (v % 4));
    }
  }
  const auto distinct = phylo::PatternMatrix::from_patterns(
      tree.taxon_names(), cols, std::vector<std::uint32_t>(kM, 1));
  SiteRepeats sr_distinct(distinct, tree);
  sr_distinct.refresh(tree);
  expect_matches_reference(sr_distinct, distinct, tree);
  EXPECT_EQ(sr_distinct.node(tree.root()).n_classes, kM);
}

// Only the outgroup varies: every non-root node has one class, and the root's
// second ranking pass splits by the outgroup's (possibly ambiguous) mask.
TEST(SiteRepeatsRankerTest, RootFoldsOutgroupMaskOnTopOfPairRanks) {
  Rng rng(8);
  const phylo::Tree tree = seqgen::yule_tree(7, rng, 1.0, 0.1);
  const int og_taxon = tree.node(tree.outgroup()).taxon;
  std::vector<std::vector<phylo::StateMask>> cols;
  std::set<phylo::StateMask> og_masks;
  for (int c = 0; c < 200; ++c) {
    std::vector<phylo::StateMask> col(tree.n_taxa(), phylo::kMaskG);
    col[static_cast<std::size_t>(og_taxon)] =
        static_cast<phylo::StateMask>(1 + rng.below(15));
    og_masks.insert(col[static_cast<std::size_t>(og_taxon)]);
    cols.push_back(col);
  }
  const auto data = phylo::PatternMatrix::from_patterns(
      tree.taxon_names(), cols, std::vector<std::uint32_t>(cols.size(), 1));
  SiteRepeats sr(data, tree);
  sr.refresh(tree);
  expect_matches_reference(sr, data, tree);
  for (int id : tree.postorder_internals()) {
    EXPECT_EQ(sr.node(id).n_classes,
              id == tree.root() ? og_masks.size() : std::size_t{1})
        << "node " << id;
  }
}

// The proposal double buffer on its own: invalidate inside a proposal,
// refresh against the new topology, reject — the pre-proposal classes come
// back without a rebuild, and accept keeps the new ones.
TEST(SiteRepeatsTest, RejectSwapsClassesBackWithoutRebuilding) {
  Rng rng(12);
  phylo::Tree tree = seqgen::yule_tree(10, rng, 1.0, 0.1);
  const auto data = random_data(tree, 300, {1, 2, 4, 8}, rng);
  SiteRepeats sr(data, tree);
  EXPECT_EQ(sr.refresh(tree), tree.postorder_internals().size());
  const std::vector<RefClasses> before = reference_classes(data, tree);

  const auto edges = tree.internal_edge_nodes();
  ASSERT_FALSE(edges.empty());
  const int v = edges.front();
  sr.begin_proposal();
  tree.nni(v, true);
  sr.invalidate_path(tree, v);
  sr.invalidate_path(tree, v);  // a second invalidation logs nothing new
  EXPECT_TRUE(sr.any_stale());
  EXPECT_GT(sr.refresh(tree), 0u);
  expect_matches_reference(sr, data, tree);
  tree.nni(v, true);  // NNI is an involution for a fixed (v, slot)
  sr.reject();
  EXPECT_FALSE(sr.any_stale());
  EXPECT_EQ(sr.refresh(tree), 0u);
  expect_matches_reference(sr, data, tree);
  for (int id : tree.postorder_internals()) {
    EXPECT_EQ(sr.node(id).n_classes,
              before[static_cast<std::size_t>(id)].unique_sites.size());
  }

  sr.begin_proposal();
  tree.nni(v, false);
  sr.invalidate_path(tree, v);
  sr.refresh(tree);
  sr.accept();
  EXPECT_EQ(sr.refresh(tree), 0u);
  expect_matches_reference(sr, data, tree);
}

/// Internal nodes on the root paths of `from` (deduplicated).
std::set<int> root_path_internals(const phylo::Tree& tree,
                                  std::initializer_list<int> from) {
  std::set<int> out;
  for (int start : from) {
    for (int id = start; id != phylo::kNoNode; id = tree.node(id).parent) {
      if (!tree.node(id).is_leaf()) out.insert(id);
    }
  }
  return out;
}

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// Seeded random NNI/SPR/branch proposals with random accept/reject and one
// checkpoint restore mid-sequence. After every step the engine's classes
// equal a fresh identification of its current tree, its lnL equals a dense
// engine's bit for bit, and the rebuild counter shows the narrowing: a move
// rebuilds exactly the internal nodes on its root paths (NNI: path(v); SPR:
// path(parent(w)) and path(u)), and reject + evaluate rebuilds nothing.
TEST(SiteRepeatsEngineTest, TopologyMovesRebuildOnlyTheirRootPaths) {
  Rng rng(4411);
  const phylo::Tree start = seqgen::yule_tree(14, rng, 1.0, 0.1);
  const phylo::GtrParams params = seqgen::default_gtr_params();
  const phylo::SubstitutionModel model(params);
  const seqgen::SequenceEvolver ev(start, model);
  const auto data = phylo::PatternMatrix::compress(ev.evolve(600, rng));

  SerialBackend b_on, b_off;
  PlfEngine on(data, params, start, b_on, KernelVariant::kSimdCol,
               SiteRepeatsMode::kOn);
  PlfEngine off(data, params, start, b_off, KernelVariant::kSimdCol,
                SiteRepeatsMode::kOff);
  const std::size_t n_internal = start.postorder_internals().size();
  const auto rebuilds = [&] { return on.stats().repeat_node_rebuilds; };

  const auto check = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_EQ(bits(on.log_likelihood()), bits(off.log_likelihood()));
    SiteRepeats fresh(on.data(), on.tree());
    fresh.refresh(on.tree());
    for (int id : on.tree().postorder_internals()) {
      const NodeRepeats& got = on.site_repeats().node(id);
      const NodeRepeats& want = fresh.node(id);
      ASSERT_EQ(got.n_classes, want.n_classes) << "node " << id;
      ASSERT_TRUE(got.class_of_site == want.class_of_site) << "node " << id;
      ASSERT_TRUE(got.unique_sites == want.unique_sites) << "node " << id;
    }
  };

  std::uint64_t before = rebuilds();
  check(-1);
  EXPECT_EQ(rebuilds() - before, n_internal);

  constexpr int kSteps = 150;
  std::string ckpt_on, ckpt_off;
  int n_spr = 0, n_nni = 0, n_reject = 0;
  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 3) {
      std::ostringstream os_on, os_off;
      util::BinaryWriter w_on(os_on), w_off(os_off);
      on.save_state(w_on);
      off.save_state(w_off);
      ckpt_on = os_on.str();
      ckpt_off = os_off.str();
    }
    if (step == 2 * kSteps / 3) {
      std::istringstream is_on(ckpt_on), is_off(ckpt_off);
      util::BinaryReader r_on(is_on), r_off(is_off);
      on.restore_state(r_on);
      off.restore_state(r_off);
      // Restore re-identifies everything lazily; a same-length branch write
      // forces the evaluation.
      const int leaf = on.tree().leaf_of(0);
      const double len = on.tree().branch_length(leaf);
      on.set_branch_length(leaf, len);
      off.set_branch_length(leaf, len);
      before = rebuilds();
      check(step);
      EXPECT_EQ(rebuilds() - before, n_internal);
    }

    on.begin_proposal();
    off.begin_proposal();
    const phylo::Tree& t = on.tree();
    std::set<int> expected;
    const double move = rng.uniform();
    if (move < 0.45) {
      const auto edges = t.internal_edge_nodes();
      const int v = edges[rng.below(edges.size())];
      const bool swap_left = rng.below(2) == 0;
      on.apply_nni(v, swap_left);
      off.apply_nni(v, swap_left);
      expected = root_path_internals(t, {v});
      ++n_nni;
    } else if (move < 0.9) {
      int s = phylo::kNoNode;
      std::vector<int> targets;
      while (targets.empty()) {
        s = static_cast<int>(rng.below(t.n_nodes()));
        targets = t.spr_valid_targets(s);
      }
      const int target = targets[rng.below(targets.size())];
      const double x = t.branch_length(target) * rng.uniform(0.1, 0.9);
      const int u = t.node(s).parent;
      const int w =
          t.node(u).left == s ? t.node(u).right : t.node(u).left;
      on.apply_spr(s, target, x);
      off.apply_spr(s, target, x);
      expected = root_path_internals(t, {t.node(w).parent, u});
      ++n_spr;
    } else {
      const int node = t.leaf_of(static_cast<int>(rng.below(t.n_taxa())));
      const double len = rng.uniform(0.01, 0.5);
      on.set_branch_length(node, len);
      off.set_branch_length(node, len);
    }
    before = rebuilds();
    check(step);
    EXPECT_EQ(rebuilds() - before, expected.size()) << "step " << step;

    if (rng.below(2) == 0) {
      on.accept();
      off.accept();
      check(step);
    } else {
      on.reject();
      off.reject();
      ++n_reject;
      // Perturb a branch outside the proposal so the evaluation really runs:
      // the restored classes must serve it with zero rebuilds.
      const int leaf = on.tree().leaf_of(
          static_cast<int>(rng.below(on.tree().n_taxa())));
      const double len = rng.uniform(0.01, 0.5);
      on.set_branch_length(leaf, len);
      off.set_branch_length(leaf, len);
      before = rebuilds();
      check(step);
      EXPECT_EQ(rebuilds() - before, 0u) << "step " << step;
    }
  }
  // The seed must actually exercise every path above.
  EXPECT_GT(n_nni, 10);
  EXPECT_GT(n_spr, 10);
  EXPECT_GT(n_reject, 10);
}

}  // namespace
}  // namespace plf::core
