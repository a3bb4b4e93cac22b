#include <gtest/gtest.h>

#include "phylo/nexus.hpp"
#include "util/error.hpp"

namespace plf::phylo {
namespace {

const char* kBasic = R"(#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=3 NCHAR=8;
  FORMAT DATATYPE=DNA MISSING=? GAP=-;
  MATRIX
    human   ACGTACGT
    chimp   ACGTACGA
    gorilla ACG-ACGA
  ;
END;
)";

TEST(NexusTest, ParsesBasicDataBlock) {
  const NexusFile nx = parse_nexus(kBasic);
  ASSERT_TRUE(nx.has_alignment);
  EXPECT_EQ(nx.alignment.n_taxa(), 3u);
  EXPECT_EQ(nx.alignment.n_columns(), 8u);
  EXPECT_EQ(nx.alignment.name(0), "human");
  EXPECT_EQ(nx.alignment.sequence(1), "ACGTACGA");
  EXPECT_EQ(nx.alignment.at(2, 3), kGapMask);
}

TEST(NexusTest, CaseInsensitiveKeywordsAndComments) {
  const char* text = R"(#nexus
[ a file comment
spanning lines ]
begin data;
  dimensions ntax=2 nchar=4;
  format datatype=dna;
  matrix
    a ACGT [inline comment]
    b TGCA
  ;
end;
)";
  const NexusFile nx = parse_nexus(text);
  EXPECT_EQ(nx.alignment.n_taxa(), 2u);
  EXPECT_EQ(nx.alignment.sequence(0), "ACGT");
}

TEST(NexusTest, InterleavedMatrix) {
  const char* text = R"(#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=2 NCHAR=8;
  FORMAT DATATYPE=DNA INTERLEAVE=YES;
  MATRIX
    x ACGT
    y TTTT
    x ACGA
    y CCCC
  ;
END;
)";
  const NexusFile nx = parse_nexus(text);
  EXPECT_EQ(nx.alignment.sequence(0), "ACGTACGA");
  EXPECT_EQ(nx.alignment.sequence(1), "TTTTCCCC");
}

TEST(NexusTest, MalformedTreeStatementSkipped) {
  // TREES blocks are skipped like any unknown block, so a TREE statement
  // that is not valid Newick does not stop the DATA block from parsing.
  const std::string text = std::string(kBasic) + R"(
BEGIN TREES;
  TRANSLATE 1 human, 2 chimp;
  TREE broken = ((1:0.1,2:;
  TREE = ;
END;
)";
  const NexusFile nx = parse_nexus(text);
  ASSERT_TRUE(nx.has_alignment);
  EXPECT_EQ(nx.alignment.n_taxa(), 3u);
  EXPECT_EQ(nx.alignment.sequence(2), "ACG-ACGA");
}

TEST(NexusTest, UnknownBlocksSkipped) {
  const std::string full =
      "#NEXUS\nBEGIN MRBAYES;\n  set autoclose=yes;\n  mcmc ngen=1000;\nEND;\n"
      "BEGIN DATA;\n DIMENSIONS NTAX=2 NCHAR=2;\n FORMAT DATATYPE=DNA;\n"
      " MATRIX\n  a AC\n  b GT\n ;\nEND;\n";
  const NexusFile nx = parse_nexus(full);
  EXPECT_EQ(nx.alignment.n_taxa(), 2u);
}

TEST(NexusTest, Errors) {
  EXPECT_THROW(parse_nexus("BEGIN DATA; END;"), ParseError);  // no #NEXUS
  EXPECT_THROW(parse_nexus("#NEXUS\nBEGIN DATA;\nMATRIX\n a AC\n"),
               ParseError);  // unterminated
  EXPECT_THROW(parse_nexus("#NEXUS\n[unclosed comment"), ParseError);
  // NTAX mismatch.
  EXPECT_THROW(parse_nexus("#NEXUS\nBEGIN DATA;\nDIMENSIONS NTAX=3 NCHAR=2;\n"
                           "MATRIX\n a AC\n b GT\n;\nEND;\n"),
               Error);
  // Protein data unsupported.
  EXPECT_THROW(parse_nexus("#NEXUS\nBEGIN DATA;\nFORMAT DATATYPE=PROTEIN;\n"
                           "MATRIX\n a AC\n;\nEND;\n"),
               ParseError);
}

TEST(NexusTest, DataBeforeTreesBlock) {
  // The DATA block of a file that also carries a TREES block (the layout of
  // data/sample_8taxa.nex) keeps every gap and ambiguity code.
  const char* text = R"(#NEXUS
BEGIN DATA;
  DIMENSIONS NTAX=3 NCHAR=6;
  FORMAT DATATYPE=DNA MISSING=? GAP=-;
  MATRIX
    tax1 ACGTAC
    tax2 AC--AC
    tax3 ANRYAC
  ;
END;

BEGIN TREES;
  TREE sample = (tax1:0.1,tax2:0.2,tax3:0.3);
END;
)";
  const NexusFile nx = parse_nexus(text);
  ASSERT_TRUE(nx.has_alignment);
  const Alignment expected({"tax1", "tax2", "tax3"},
                           {"ACGTAC", "AC--AC", "ANRYAC"});
  ASSERT_EQ(nx.alignment.n_taxa(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(nx.alignment.sequence(t), expected.sequence(t));
  }
}

}  // namespace
}  // namespace plf::phylo
