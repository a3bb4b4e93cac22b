#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "phylo/alignment.hpp"
#include "phylo/dna.hpp"
#include "phylo/model.hpp"
#include "phylo/patterns.hpp"
#include "util/error.hpp"

namespace plf::phylo {
namespace {

TEST(DnaTest, BasicCodes) {
  EXPECT_EQ(char_to_mask('A'), kMaskA);
  EXPECT_EQ(char_to_mask('c'), kMaskC);
  EXPECT_EQ(char_to_mask('G'), kMaskG);
  EXPECT_EQ(char_to_mask('t'), kMaskT);
  EXPECT_EQ(char_to_mask('U'), kMaskT);
}

TEST(DnaTest, AmbiguityCodes) {
  EXPECT_EQ(char_to_mask('R'), kMaskA | kMaskG);
  EXPECT_EQ(char_to_mask('Y'), kMaskC | kMaskT);
  EXPECT_EQ(char_to_mask('N'), kGapMask);
  EXPECT_EQ(char_to_mask('-'), kGapMask);
  EXPECT_EQ(char_to_mask('?'), kGapMask);
  EXPECT_EQ(char_to_mask('Z'), 0);  // invalid
}

TEST(DnaTest, MaskToCharRoundTrip) {
  for (std::size_t m = 1; m < kNumMasks; ++m) {
    const char c = mask_to_char(static_cast<StateMask>(m));
    EXPECT_EQ(char_to_mask(c), m) << "mask=" << m << " char=" << c;
  }
}

TEST(DnaTest, UnambiguousHelpers) {
  EXPECT_TRUE(is_unambiguous(kMaskG));
  EXPECT_FALSE(is_unambiguous(kMaskA | kMaskC));
  EXPECT_EQ(mask_to_state(kMaskA), 0u);
  EXPECT_EQ(mask_to_state(kMaskT), 3u);
  EXPECT_EQ(state_to_mask(2), kMaskG);
}

TEST(DnaTest, TipRowsMatchMaskBits) {
  for (std::size_t m = 1; m < kNumMasks; ++m) {
    const auto& row = tip_row(static_cast<StateMask>(m));
    for (std::size_t s = 0; s < kNumStates; ++s) {
      EXPECT_EQ(row[s], ((m >> s) & 1u) ? 1.0f : 0.0f);
    }
  }
}

TEST(AlignmentTest, ConstructAndAccess) {
  Alignment a({"x", "y"}, {"ACGT", "TGCA"});
  EXPECT_EQ(a.n_taxa(), 2u);
  EXPECT_EQ(a.n_columns(), 4u);
  EXPECT_EQ(a.at(0, 0), kMaskA);
  EXPECT_EQ(a.at(1, 0), kMaskT);
  EXPECT_EQ(a.sequence(1), "TGCA");
  EXPECT_EQ(a.taxon_index("y"), 1u);
  EXPECT_THROW(a.taxon_index("z"), Error);
}

TEST(AlignmentTest, RejectsRaggedAndInvalid) {
  EXPECT_THROW(Alignment({"x", "y"}, {"ACGT", "AC"}), Error);
  EXPECT_THROW(Alignment({"x"}, {"AZGT"}), ParseError);
}

TEST(AlignmentTest, FastaRoundTrip) {
  Alignment a({"tax1", "tax2", "tax3"}, {"ACGTN-", "RYKMWS", "acgtac"});
  std::ostringstream os;
  a.write_fasta(os);
  const Alignment b = Alignment::parse_fasta(os.str());
  EXPECT_EQ(b.n_taxa(), 3u);
  EXPECT_EQ(b.n_columns(), 6u);
  for (std::size_t t = 0; t < 3; ++t)
    for (std::size_t c = 0; c < 6; ++c) EXPECT_EQ(b.at(t, c), a.at(t, c));
}

TEST(AlignmentTest, FastaMultilineSequences) {
  const std::string text = ">s1 description ignored\nACGT\nACGT\n>s2\nTTTT\nCCCC\n";
  const Alignment a = Alignment::parse_fasta(text);
  EXPECT_EQ(a.n_columns(), 8u);
  EXPECT_EQ(a.sequence(0), "ACGTACGT");
  EXPECT_EQ(a.name(0), "s1");
}

TEST(AlignmentTest, FastaErrors) {
  EXPECT_THROW(Alignment::parse_fasta("ACGT\n"), ParseError);
  EXPECT_THROW(Alignment::parse_fasta(""), ParseError);
}

TEST(AlignmentTest, PhylipRoundTrip) {
  Alignment a({"alpha", "beta"}, {"ACGTACGT", "TGCATGCA"});
  std::ostringstream os;
  a.write_phylip(os);
  const Alignment b = Alignment::parse_phylip(os.str());
  EXPECT_EQ(b.n_taxa(), 2u);
  EXPECT_EQ(b.sequence(0), "ACGTACGT");
  EXPECT_EQ(b.name(1), "beta");
}

TEST(AlignmentTest, PhylipErrors) {
  EXPECT_THROW(Alignment::parse_phylip("junk"), ParseError);
  EXPECT_THROW(Alignment::parse_phylip("2 4\nx ACGT\n"), ParseError);
}

TEST(PatternTest, CompressMergesIdenticalColumns) {
  // Columns: ACGT, ACGT, AAAA, ACGT, AAAA -> 2 patterns, weights 3 and 2.
  Alignment a({"w", "x", "y", "z"}, {"AAAAA", "CCACA", "GGAGA", "TTATA"});
  const PatternMatrix pm = PatternMatrix::compress(a);
  EXPECT_EQ(pm.n_patterns(), 2u);
  EXPECT_EQ(pm.total_weight(), 5u);
  EXPECT_EQ(pm.weights()[0], 3u);  // first-occurrence order
  EXPECT_EQ(pm.weights()[1], 2u);
  EXPECT_EQ(pm.at(1, 0), kMaskC);
  EXPECT_EQ(pm.at(1, 1), kMaskA);
}

TEST(PatternTest, AmbiguityDistinguishesPatterns) {
  // 'N' and 'A' in the same row are different patterns.
  Alignment a({"x", "y"}, {"AN", "CC"});
  const PatternMatrix pm = PatternMatrix::compress(a);
  EXPECT_EQ(pm.n_patterns(), 2u);
}

TEST(GtrTest, QRowsSumToZero) {
  const auto p = GtrParams{};
  const auto q = build_gtr_q(p.rates, p.pi);
  for (std::size_t i = 0; i < 4; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 4; ++j) row += q(i, j);
    EXPECT_NEAR(row, 0.0, 1e-14);
  }
}

TEST(GtrTest, QIsNormalized) {
  GtrParams p;
  p.rates = {1.0, 2.9, 0.6, 0.9, 3.2, 1.0};
  p.pi = {0.3, 0.2, 0.25, 0.25};
  const auto q = build_gtr_q(p.rates, p.pi);
  double mu = 0.0;
  for (std::size_t i = 0; i < 4; ++i) mu -= p.pi[i] * q(i, i);
  EXPECT_NEAR(mu, 1.0, 1e-12);
}

TEST(GtrTest, DetailedBalance) {
  GtrParams p;
  p.rates = {0.5, 2.0, 1.5, 0.7, 3.0, 1.0};
  p.pi = {0.1, 0.4, 0.3, 0.2};
  const auto q = build_gtr_q(p.rates, p.pi);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(p.pi[i] * q(i, j), p.pi[j] * q(j, i), 1e-14);
}

TEST(GtrTest, RejectsBadFrequencies) {
  GtrParams p;
  p.pi = {0.5, 0.5, 0.5, 0.5};  // sums to 2
  EXPECT_THROW(build_gtr_q(p.rates, p.pi), Error);
}

TEST(ModelTest, TransitionMatricesStochastic) {
  SubstitutionModel m(GtrParams::hky85(4.0, {0.3, 0.2, 0.3, 0.2}, 0.5));
  const TransitionMatrices tm = m.transition_matrices(0.2);
  EXPECT_EQ(tm.n_categories(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const auto p = tm.matrix(k);
    for (std::size_t i = 0; i < 4; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_GE(p(i, j), 0.0);
        row += p(i, j);
      }
      EXPECT_NEAR(row, 1.0, 1e-5);  // single precision storage
    }
  }
}

TEST(ModelTest, ColMajorIsTranspose) {
  SubstitutionModel m(GtrParams::jc69());
  const TransitionMatrices tm = m.transition_matrices(0.1);
  for (std::size_t k = 0; k < 4; ++k)
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j)
        EXPECT_EQ(tm.row_major()[k * 16 + i * 4 + j],
                  tm.col_major()[k * 16 + j * 4 + i]);
}

TEST(ModelTest, CategoryRatesOrderedMeanOne) {
  SubstitutionModel m(GtrParams::jc69(0.5, 4));
  const auto& r = m.category_rates();
  ASSERT_EQ(r.size(), 4u);
  double mean = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i) {
      EXPECT_GT(r[i], r[i - 1]);
    }
    mean += r[i];
  }
  EXPECT_NEAR(mean / 4.0, 1.0, 1e-9);
}

TEST(ModelTest, LongBranchConvergesToStationary) {
  GtrParams params;
  params.pi = {0.4, 0.3, 0.2, 0.1};
  params.rates = {1.0, 2.0, 1.0, 1.0, 2.0, 1.0};
  SubstitutionModel m(params);
  const auto p = m.transition_matrix(50.0, 2);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(p(i, j), params.pi[j], 1e-6);
}

TEST(ModelTest, HkyKappaIncreasesTransitions) {
  const std::array<double, 4> pi{0.25, 0.25, 0.25, 0.25};
  SubstitutionModel m1(GtrParams::hky85(1.0, pi));
  SubstitutionModel m8(GtrParams::hky85(8.0, pi));
  // A->G is a transition; with larger kappa P(A->G) grows at fixed t.
  EXPECT_GT(m8.transition_matrix(0.1, 1)(0, 2), m1.transition_matrix(0.1, 1)(0, 2));
}

}  // namespace
}  // namespace plf::phylo
