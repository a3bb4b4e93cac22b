// On-disk I/O paths (the string-based parsers are covered elsewhere):
// Alignment::read_file format sniffing and read_nexus_file, including the
// bundled sample data set data/sample_8taxa.nex.
#include <gtest/gtest.h>

#include <fstream>

#include "phylo/alignment.hpp"
#include "phylo/nexus.hpp"
#include "util/error.hpp"

namespace plf::phylo {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  f << content;
}

TEST(FileIoTest, ReadFileSniffsFasta) {
  const std::string path = temp_path("sniff.fasta");
  write_file(path, "  \n>alpha\nACGT\n>beta\nTGCA\n");
  const Alignment a = Alignment::read_file(path);
  EXPECT_EQ(a.n_taxa(), 2u);
  EXPECT_EQ(a.sequence(0), "ACGT");
}

TEST(FileIoTest, ReadFileSniffsPhylip) {
  const std::string path = temp_path("sniff.phy");
  write_file(path, "2 4\nalpha ACGT\nbeta TGCA\n");
  const Alignment a = Alignment::read_file(path);
  EXPECT_EQ(a.n_taxa(), 2u);
  EXPECT_EQ(a.name(1), "beta");
}

TEST(FileIoTest, ReadFileMissingPathThrows) {
  EXPECT_THROW(Alignment::read_file("/definitely/not/here.fasta"), Error);
  EXPECT_THROW(read_nexus_file("/definitely/not/here.nex"), Error);
}

TEST(FileIoTest, ReadNexusFile) {
  const std::string path = temp_path("read.nex");
  write_file(path,
             "#NEXUS\nBEGIN DATA;\n  DIMENSIONS NTAX=3 NCHAR=5;\n"
             "  MATRIX\n    x ACGTA\n    y AC-TA\n    z ANGTA\n  ;\nEND;\n");
  const NexusFile nx = read_nexus_file(path);
  ASSERT_TRUE(nx.has_alignment);
  EXPECT_EQ(nx.alignment.n_taxa(), 3u);
  EXPECT_EQ(nx.alignment.sequence(1), "AC-TA");
}

TEST(FileIoTest, BundledSampleDataBlock) {
  // The bundled sample also carries a TREES block, which the reader skips.
  const NexusFile nx = read_nexus_file(PLF_SAMPLE_NEXUS);
  ASSERT_TRUE(nx.has_alignment);
  EXPECT_EQ(nx.alignment.n_taxa(), 8u);
  EXPECT_EQ(nx.alignment.n_columns(), 800u);
  EXPECT_EQ(nx.alignment.name(7), "t8");
}

}  // namespace
}  // namespace plf::phylo
