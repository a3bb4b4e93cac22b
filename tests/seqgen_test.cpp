#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <string>

#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/stats.hpp"

namespace plf::seqgen {
namespace {

TEST(RandomTreeTest, YuleProducesValidTrees) {
  Rng rng(1);
  for (std::size_t n : {3u, 5u, 10u, 50u, 100u}) {
    const phylo::Tree t = yule_tree(n, rng);
    EXPECT_EQ(t.n_taxa(), n);
    t.validate();
    EXPECT_GT(t.total_length(), 0.0);
  }
}

TEST(RandomTreeTest, DeterministicPerSeed) {
  Rng a(7), b(7);
  EXPECT_EQ(yule_tree(20, a).to_newick(), yule_tree(20, b).to_newick());
  Rng c(8);
  EXPECT_NE(yule_tree(20, a).to_newick(), yule_tree(20, c).to_newick());
}

TEST(RandomTreeTest, ScaleMultipliesLengths) {
  Rng a(3), b(3);
  const phylo::Tree t1 = yule_tree(10, a, 1.0, 0.1);
  const phylo::Tree t2 = yule_tree(10, b, 1.0, 0.2);
  EXPECT_NEAR(t2.total_length(), 2.0 * t1.total_length(), 1e-9);
}

TEST(RandomTreeTest, AllBranchLengthsPositive) {
  Rng rng(4);
  const phylo::Tree t = yule_tree(30, rng);
  for (int b : t.branch_nodes()) EXPECT_GT(t.branch_length(b), 0.0);
}

TEST(RandomTreeTest, DefaultNames) {
  const auto names = default_taxon_names(3);
  EXPECT_EQ(names[0], "t1");
  EXPECT_EQ(names[2], "t3");
}

TEST(EvolverTest, ColumnsHaveUnambiguousStates) {
  Rng rng(5);
  const phylo::Tree t = yule_tree(6, rng, 1.0, 0.2);
  const phylo::SubstitutionModel model(default_gtr_params());
  const SequenceEvolver ev(t, model);
  for (int i = 0; i < 50; ++i) {
    const auto col = ev.evolve_column(rng);
    ASSERT_EQ(col.size(), 6u);
    for (auto m : col) EXPECT_TRUE(phylo::is_unambiguous(m));
  }
}

TEST(EvolverTest, StationaryFrequenciesRecovered) {
  // With long branches every tip is an (almost) independent draw from pi.
  Rng rng(6);
  const phylo::Tree t = yule_tree(4, rng, 1.0, 5.0);
  phylo::GtrParams params = default_gtr_params();
  const phylo::SubstitutionModel model(params);
  const SequenceEvolver ev(t, model);

  std::array<double, 4> counts{};
  const int n_cols = 20000;
  for (int i = 0; i < n_cols; ++i) {
    const auto col = ev.evolve_column(rng);
    for (auto m : col) ++counts[phylo::mask_to_state(m)];
  }
  const double total = 4.0 * n_cols;
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_NEAR(counts[s] / total, params.pi[s], 0.01) << "state " << s;
  }
}

TEST(EvolverTest, ZeroishBranchesGiveIdenticalSequences) {
  Rng rng(7);
  phylo::Tree t = yule_tree(5, rng, 1.0, 1e-9);
  const phylo::SubstitutionModel model(default_gtr_params());
  const SequenceEvolver ev(t, model);
  for (int i = 0; i < 20; ++i) {
    const auto col = ev.evolve_column(rng);
    for (std::size_t j = 1; j < col.size(); ++j) EXPECT_EQ(col[j], col[0]);
  }
}

TEST(EvolverTest, AlignmentHasRequestedShape) {
  Rng rng(8);
  const phylo::Tree t = yule_tree(7, rng, 1.0, 0.1);
  const phylo::SubstitutionModel model(default_gtr_params());
  const SequenceEvolver ev(t, model);
  const phylo::Alignment aln = ev.evolve(123, rng);
  EXPECT_EQ(aln.n_taxa(), 7u);
  EXPECT_EQ(aln.n_columns(), 123u);
  EXPECT_EQ(aln.name(0), "t1");
}

TEST(EvolverTest, SiteRateVariationShowsInDiversity) {
  // With strong rate heterogeneity (small alpha) some sites are invariant
  // and some saturated; verify both kinds occur.
  Rng rng(9);
  const phylo::Tree t = yule_tree(12, rng, 1.0, 0.4);
  phylo::GtrParams params = default_gtr_params();
  params.gamma_shape = 0.2;
  const phylo::SubstitutionModel model(params);
  const SequenceEvolver ev(t, model);
  int constant = 0, variable = 0;
  for (int i = 0; i < 400; ++i) {
    const auto col = ev.evolve_column(rng);
    bool all_same = true;
    for (std::size_t j = 1; j < col.size(); ++j) all_same &= (col[j] == col[0]);
    (all_same ? constant : variable) += 1;
  }
  EXPECT_GT(constant, 10);
  EXPECT_GT(variable, 10);
}

TEST(DatasetTest, SpecNamesMatchPaperConvention) {
  EXPECT_EQ((DatasetSpec{10, 1000}).name(), "10_1K");
  EXPECT_EQ((DatasetSpec{100, 50000}).name(), "100_50K");
  EXPECT_EQ((DatasetSpec{20, 8543}).name(), "20_8543");
}

TEST(DatasetTest, PaperGridHasSixteenCells) {
  const auto grid = paper_grid();
  ASSERT_EQ(grid.size(), 16u);
  EXPECT_EQ(grid.front().name(), "10_1K");
  EXPECT_EQ(grid.back().name(), "100_50K");
  // Grouped by column count as in the figures.
  EXPECT_EQ(grid[3].name(), "100_1K");
  EXPECT_EQ(grid[4].name(), "10_5K");
}

TEST(DatasetTest, GridDatasetHasExactDistinctPatterns) {
  const Dataset ds = make_grid_dataset(DatasetSpec{10, 300}, 5);
  EXPECT_EQ(ds.patterns.n_patterns(), 300u);
  EXPECT_EQ(ds.patterns.n_taxa(), 10u);
  EXPECT_EQ(ds.patterns.total_weight(), 300u);  // weight-1 extraction
  ds.tree.validate();
  // All patterns genuinely distinct.
  std::set<std::string> keys;
  for (std::size_t p = 0; p < ds.patterns.n_patterns(); ++p) {
    std::string key;
    for (std::size_t t = 0; t < ds.patterns.n_taxa(); ++t) {
      key += static_cast<char>(ds.patterns.at(t, p));
    }
    keys.insert(key);
  }
  EXPECT_EQ(keys.size(), 300u);
}

TEST(DatasetTest, GridDatasetDeterministic) {
  const Dataset a = make_grid_dataset(DatasetSpec{10, 100}, 9);
  const Dataset b = make_grid_dataset(DatasetSpec{10, 100}, 9);
  EXPECT_EQ(a.tree.to_newick(), b.tree.to_newick());
  for (std::size_t p = 0; p < 100; ++p) {
    EXPECT_EQ(a.patterns.at(3, p), b.patterns.at(3, p));
  }
}

TEST(DatasetTest, RealDatasetShape) {
  // Small-column variant for test speed; full 28,740 columns in the bench.
  const Dataset ds = make_real_dataset(42, 3000);
  EXPECT_EQ(ds.patterns.n_taxa(), 20u);
  EXPECT_EQ(ds.patterns.total_weight(), 3000u);
  EXPECT_LT(ds.patterns.n_patterns(), 3000u);  // compression happened
  EXPECT_GT(ds.patterns.n_patterns(), 300u);
  // Some patterns must carry weight > 1.
  bool heavy = false;
  for (auto w : ds.patterns.weights()) heavy |= (w > 1);
  EXPECT_TRUE(heavy);
}

}  // namespace
}  // namespace plf::seqgen
