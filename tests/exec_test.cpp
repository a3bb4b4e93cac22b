// Tests for the multi-instance runtime (src/exec/): the InstanceScheduler's
// fixed-thread and error contracts, PartitionSpec parsing and splitting, and
// PartitionedEngine's fan-out protocol — including the headline property
// that concurrently evaluated partitions match standalone engines bit-for-bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "exec/partitioned.hpp"
#include "exec/scheduler.hpp"
#include "phylo/partition.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

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

TEST(PartitionedEngineTest, SumOfPartsMatchesMonolithicLikelihood) {
  // Per-site lnL terms are independent, so partitioning only changes the
  // floating-point summation grouping — the totals agree to tight tolerance
  // (not bitwise: pattern compression differs per part).
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 240, 16);
  core::PlfEngine mono(inst.data, inst.params, inst.tree, backend);
  PartitionedEngine parts(inst.aln, phylo::PartitionSpec::uniform(240, 3),
                          {inst.params}, inst.tree, backend);
  const double mono_lnl = mono.log_likelihood();
  EXPECT_NEAR(parts.log_likelihood(), mono_lnl, 1e-8 * std::abs(mono_lnl));
}

TEST(PartitionedEngineTest, ConcurrentPartsMatchStandaloneEngines) {
  // The partitions evaluate concurrently on one shared pool; each must
  // compute exactly what a standalone engine on its columns computes, and
  // the total is their sum in partition order.
  par::ThreadPool pool(4);
  core::ThreadedBackend backend(pool);
  const Instance inst = make_instance(8, 240, 17);
  const auto spec = phylo::PartitionSpec::uniform(240, 3);

  PartitionedEngine pe(inst.aln, spec, {inst.params}, inst.tree, backend);
  std::vector<std::unique_ptr<core::PlfEngine>> alone;
  for (const phylo::Alignment& part : spec.split(inst.aln)) {
    alone.push_back(std::make_unique<core::PlfEngine>(
        phylo::PatternMatrix::compress(part), inst.params, inst.tree,
        backend));
  }
  auto expect_match = [&](const char* where) {
    const double total = pe.log_likelihood();
    double sum = 0.0;
    for (std::size_t i = 0; i < alone.size(); ++i) {
      const double lnl = alone[i]->log_likelihood();
      EXPECT_EQ(pe.part(i).log_likelihood(), lnl) << where << " part " << i;
      sum += lnl;
    }
    EXPECT_EQ(total, sum) << where;
  };
  expect_match("start");
  for (std::size_t i = 0; i < spec.n_parts(); ++i) {
    EXPECT_EQ(pe.part(i).instance_label(), spec.range(i).name);
  }

  // Same move sequence through both: branch moves, an NNI proposal cycle,
  // and a per-partition model change.
  const auto edges = pe.tree().internal_edge_nodes();
  ASSERT_FALSE(edges.empty());
  for (int round = 0; round < 6; ++round) {
    const int leaf = pe.tree().leaf_of(round % 8);
    const double len = 0.05 + 0.02 * round;
    pe.set_branch_length(leaf, len);
    for (auto& e : alone) e->set_branch_length(leaf, len);
    if (round % 2 == 0) {
      const int v = edges[static_cast<std::size_t>(round) % edges.size()];
      pe.begin_proposal();
      pe.apply_nni(v, round % 4 == 0);
      for (auto& e : alone) {
        e->begin_proposal();
        e->apply_nni(v, round % 4 == 0);
      }
      expect_match("proposal");
      pe.reject();
      for (auto& e : alone) e->reject();
    }
    expect_match("round");
  }
  phylo::GtrParams hot = inst.params;
  hot.gamma_shape *= 1.5;
  pe.set_model(1, hot);
  alone[1]->set_model(hot);
  expect_match("model");
}

TEST(PartitionedEngineTest, RejectsThreadConfinedBackends) {
  const Instance inst = make_instance(8, 240, 18);
  cell::CellMachine cell{cell::CellConfig{}};
  EXPECT_THROW(PartitionedEngine(inst.aln, phylo::PartitionSpec::uniform(240, 3),
                                 {inst.params}, inst.tree, cell),
               Error);
  // One partition runs inline on the caller, so any backend serves it.
  PartitionedEngine one(inst.aln, phylo::PartitionSpec::uniform(240, 1),
                        {inst.params}, inst.tree, cell);
  EXPECT_EQ(one.n_parts(), 1u);
}

TEST(PartitionedEngineTest, ModelMoveTouchesOnlyItsPartition) {
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 240, 18);
  PartitionedEngine pe(inst.aln, phylo::PartitionSpec::uniform(240, 3),
                       {inst.params}, inst.tree, backend);
  (void)pe.log_likelihood();
  const double p0 = pe.part(0).log_likelihood();
  const double p2 = pe.part(2).log_likelihood();

  phylo::GtrParams hot = inst.params;
  hot.gamma_shape *= 2.0;
  pe.set_model(1, hot);
  (void)pe.log_likelihood();
  EXPECT_EQ(pe.part(0).log_likelihood(), p0);
  EXPECT_EQ(pe.part(2).log_likelihood(), p2);
  EXPECT_EQ(pe.part(1).model_params().gamma_shape, hot.gamma_shape);
}

TEST(PartitionedEngineTest, ProposalProtocolFansOut) {
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 160, 19);
  PartitionedEngine pe(inst.aln, phylo::PartitionSpec::uniform(160, 2),
                       {inst.params}, inst.tree, backend);
  const double before = pe.log_likelihood();
  const int leaf = pe.tree().leaf_of(0);
  const double len = pe.tree().branch_length(leaf);

  pe.begin_proposal();
  pe.set_branch_length(leaf, len * 3.0);
  EXPECT_NE(pe.log_likelihood(), before);
  pe.reject();
  // Reject is the engines' pointer-flip undo: same bits as before.
  EXPECT_EQ(pe.log_likelihood(), before);

  pe.begin_proposal();
  pe.set_branch_length(leaf, len * 3.0);
  const double moved = pe.log_likelihood();
  pe.accept();
  EXPECT_EQ(pe.log_likelihood(), moved);
  EXPECT_EQ(pe.tree().branch_length(leaf), len * 3.0);
}

TEST(PartitionedEngineTest, CheckpointRoundTripIsBitExact) {
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 240, 20);
  const auto spec = phylo::PartitionSpec::uniform(240, 3);
  std::vector<phylo::GtrParams> per_part(3, inst.params);
  per_part[1].gamma_shape *= 1.7;  // distinct models must round-trip
  PartitionedEngine a(inst.aln, spec, per_part, inst.tree, backend);
  const int leaf = a.tree().leaf_of(2);
  a.set_branch_length(leaf, 0.3);
  const double lnl = a.log_likelihood();

  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    a.save_state(w);
  }
  PartitionedEngine b(inst.aln, spec, {inst.params}, inst.tree, backend);
  std::istringstream is(os.str());
  {
    util::BinaryReader r(is);
    b.restore_state(r);
  }
  EXPECT_EQ(b.log_likelihood(), lnl);
  EXPECT_EQ(b.part(1).model_params().gamma_shape, per_part[1].gamma_shape);
  EXPECT_EQ(b.tree().branch_length(leaf), 0.3);
}

TEST(PartitionedEngineTest, RestoreRejectsDifferentPartitionLayout) {
  core::SerialBackend backend;
  const Instance inst = make_instance(6, 120, 21);
  PartitionedEngine a(inst.aln, phylo::PartitionSpec::uniform(120, 3),
                      {inst.params}, inst.tree, backend);
  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    a.save_state(w);
  }
  PartitionedEngine b(inst.aln, phylo::PartitionSpec::uniform(120, 2),
                      {inst.params}, inst.tree, backend);
  std::istringstream is(os.str());
  util::BinaryReader r(is);
  EXPECT_THROW(b.restore_state(r), Error);
}

TEST(PartitionedEngineTest, RejectsBadParamsCount) {
  core::SerialBackend backend;
  const Instance inst = make_instance(6, 120, 22);
  std::vector<phylo::GtrParams> two(2, inst.params);
  EXPECT_THROW(PartitionedEngine(inst.aln,
                                 phylo::PartitionSpec::uniform(120, 3), two,
                                 inst.tree, backend),
               Error);
}

}  // namespace
}  // namespace plf::exec
