// Tests for the multi-instance runtime (src/exec/): the InstanceScheduler's
// fixed-thread and error contracts; and for PartitionSpec parsing and
// splitting, including the property that engines over the split parts sum
// to the unsplit alignment's likelihood.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "exec/scheduler.hpp"
#include "phylo/partition.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plf::exec {
namespace {

struct Instance {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::Alignment aln;
  phylo::PatternMatrix data;
};

Instance make_instance(std::size_t taxa, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.15);
  phylo::GtrParams params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  phylo::Alignment aln = ev.evolve(cols, rng);
  auto data = phylo::PatternMatrix::compress(aln);
  return Instance{std::move(tree), params, std::move(aln), std::move(data)};
}

TEST(InstanceSchedulerTest, EachIndexRunsOnItsOwnFixedThread) {
  constexpr std::size_t kN = 4;
  InstanceScheduler sched(kN);
  std::vector<std::thread::id> first(kN);
  sched.for_each([&first](std::size_t i) {
    first[i] = std::this_thread::get_id();
  });
  // Index 0 runs on the caller; the others each on a distinct driver.
  EXPECT_EQ(first[0], std::this_thread::get_id());
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = i + 1; j < kN; ++j) EXPECT_NE(first[i], first[j]);
  }
  for (int round = 0; round < 16; ++round) {
    std::vector<std::thread::id> seen(kN);
    sched.for_each([&seen](std::size_t i) {
      seen[i] = std::this_thread::get_id();
    });
    EXPECT_EQ(seen, first) << "round " << round;
  }
}

TEST(InstanceSchedulerTest, SingleInstanceRunsInline) {
  InstanceScheduler sched(1);
  int calls = 0;
  sched.for_each([&calls](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(InstanceSchedulerTest, InlineThrowWaitsForEveryDriver) {
  // The driver calls reference the caller's frame, so an exception from
  // index 0 may reach the caller only after every driver index finished.
  constexpr std::size_t kN = 4;
  InstanceScheduler sched(kN);
  std::atomic<bool> thrown{false};
  std::vector<std::atomic<bool>> finished(kN);
  try {
    sched.for_each([&](std::size_t i) {
      if (i == 0) {
        thrown.store(true);
        throw Error("inline boom");
      }
      // Still running when index 0 throws.
      while (!thrown.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished[i].store(true);
    });
    FAIL() << "for_each swallowed the inline exception";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("inline boom"), std::string::npos);
    for (std::size_t i = 1; i < kN; ++i) {
      EXPECT_TRUE(finished[i].load()) << "driver index " << i;
    }
  }
}

TEST(InstanceSchedulerTest, DriverThrowPropagates) {
  InstanceScheduler sched(3);
  std::atomic<int> ran{0};
  try {
    sched.for_each([&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 2) throw Error("driver boom");
    });
    FAIL() << "for_each swallowed the driver exception";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("driver boom"), std::string::npos);
  }
  EXPECT_EQ(ran.load(), 3);

  // The scheduler stays usable after a failed round.
  ran.store(0);
  sched.for_each([&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(PartitionSpecTest, UniformCoversAndNames) {
  const auto spec = phylo::PartitionSpec::uniform(10, 3);
  ASSERT_EQ(spec.n_parts(), 3u);
  // 10 = 4 + 3 + 3, remainder to the first ranges.
  EXPECT_EQ(spec.range(0).name, "part0");
  EXPECT_EQ(spec.range(0).begin, 0u);
  EXPECT_EQ(spec.range(0).end, 4u);
  EXPECT_EQ(spec.range(1).begin, 4u);
  EXPECT_EQ(spec.range(1).end, 7u);
  EXPECT_EQ(spec.range(2).begin, 7u);
  EXPECT_EQ(spec.range(2).end, 10u);
}

TEST(PartitionSpecTest, ParseInclusiveRanges) {
  const auto spec = phylo::PartitionSpec::parse("genA:0-499,genB:500-799", 800);
  ASSERT_EQ(spec.n_parts(), 2u);
  EXPECT_EQ(spec.range(0).name, "genA");
  EXPECT_EQ(spec.range(0).begin, 0u);
  EXPECT_EQ(spec.range(0).end, 500u);
  EXPECT_EQ(spec.range(1).name, "genB");
  EXPECT_EQ(spec.range(1).end, 800u);
}

TEST(PartitionSpecTest, RejectsGapsOverlapsAndShortCoverage) {
  EXPECT_THROW(phylo::PartitionSpec::parse("a:0-3,b:5-9", 10), Error);
  EXPECT_THROW(phylo::PartitionSpec::parse("a:0-5,b:4-9", 10), Error);
  EXPECT_THROW(phylo::PartitionSpec::parse("a:0-8", 10), Error);
  EXPECT_THROW(phylo::PartitionSpec::uniform(2, 3), Error);
}

TEST(PartitionSpecTest, RejectsMalformedEntries) {
  const auto message = [](const std::string& text) -> std::string {
    try {
      phylo::PartitionSpec::parse(text, 10);
    } catch (const Error& err) {
      return err.what();
    }
    return "accepted";
  };
  // Column numbers are plain decimal digits.
  for (const char* text : {"a:0-4x,b:5-9", "a: 0-9", "a:+0-+9", "a:0x-9",
                           "a:0-4-5,b:6-9",
                           // Its half-open end would wrap to 0.
                           "a:0-18446744073709551615"}) {
    EXPECT_NE(message(text).find("bad column number"), std::string::npos)
        << text << ": " << message(text);
  }
  for (const char* text : {"a:0-9,", ",a:0-9", "a:0-4,,b:5-9", ""}) {
    EXPECT_NE(message(text).find("empty entry"), std::string::npos)
        << "'" << text << "': " << message(text);
  }
}

TEST(PartitionSpecTest, SplitRoundTripsColumns) {
  const Instance inst = make_instance(5, 30, 15);
  const auto spec = phylo::PartitionSpec::uniform(30, 4);
  const auto parts = spec.split(inst.aln);
  ASSERT_EQ(parts.size(), 4u);
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    EXPECT_EQ(parts[p].n_taxa(), inst.aln.n_taxa());
    EXPECT_EQ(parts[p].n_columns(), spec.range(p).n_columns());
    total += parts[p].n_columns();
    for (std::size_t t = 0; t < parts[p].n_taxa(); ++t) {
      EXPECT_EQ(parts[p].sequence(t),
                inst.aln.sequence(t).substr(spec.range(p).begin,
                                            spec.range(p).n_columns()));
    }
  }
  EXPECT_EQ(total, inst.aln.n_columns());
}

TEST(PartitionSpecTest, SplitPartsSumToMonolithicLikelihood) {
  // Per-site lnL terms are independent, so partitioning only changes the
  // floating-point summation grouping — the totals agree to tight tolerance
  // (not bitwise: pattern compression differs per part).
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 240, 16);
  core::PlfEngine mono(inst.data, inst.params, inst.tree, backend);
  double parts_lnl = 0.0;
  for (const phylo::Alignment& part :
       phylo::PartitionSpec::uniform(240, 3).split(inst.aln)) {
    parts_lnl += core::PlfEngine(phylo::PatternMatrix::compress(part),
                                 inst.params, inst.tree, backend)
                     .log_likelihood();
  }
  const double mono_lnl = mono.log_likelihood();
  EXPECT_NEAR(parts_lnl, mono_lnl, 1e-8 * std::abs(mono_lnl));
}

}  // namespace
}  // namespace plf::exec
