// Checkpoint/restore round-trip property tests (docs/SHARDING.md).
//
// The contract under test is exact resumption: serialize a running
// engine+chain (or a whole coupled run), restore into a freshly constructed
// twin, continue both, and every subsequent log likelihood matches to the
// LAST BIT (0 ULP) — across backends, plan executors, and the budgeted CLV
// arena, whose evicted vectors are rematerialized rather than serialized.
// Anything weaker would make a resumed run a different run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/chain.hpp"
#include "mcmc/coupled.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::mcmc {
namespace {

struct Instance {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
};

Instance make_instance(std::size_t taxa, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.15);
  phylo::GtrParams params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto aln = ev.evolve(cols, rng);
  return Instance{std::move(tree), params, phylo::PatternMatrix::compress(aln)};
}

struct Combo {
  const char* name;
  bool threaded;
  bool per_call;       // run the backend under core::PerCallBackend
  const char* budget;  // nullptr: unlimited
};

constexpr Combo kCombos[] = {
    {"serial/percall/unlimited", false, true, nullptr},
    {"serial/plan/unlimited", false, false, nullptr},
    {"threaded/percall/unlimited", true, true, nullptr},
    {"threaded/plan/unlimited", true, false, nullptr},
    {"serial/percall/0.5", false, true, "0.5"},
    {"serial/plan/0.5", false, false, "0.5"},
    {"threaded/percall/0.5", true, true, "0.5"},
    {"threaded/plan/0.5", true, false, "0.5"},
};

TEST(CheckpointTest, EngineChainRoundTripResumesBitExact) {
  par::ThreadPool pool(4);
  core::ThreadedBackend threaded(pool);
  core::SerialBackend serial;
  const Instance inst = make_instance(10, 300, 91);

  for (const Combo& c : kCombos) {
    SCOPED_TRACE(c.name);
    core::ExecutionBackend& native = c.threaded
                                         ? static_cast<core::ExecutionBackend&>(threaded)
                                         : serial;
    core::PerCallBackend per_call(native);
    core::ExecutionBackend& backend =
        c.per_call ? static_cast<core::ExecutionBackend&>(per_call) : native;
    const core::ClvBudget budget = c.budget == nullptr
                                       ? core::ClvBudget{}
                                       : core::clv_budget_from_string(c.budget);
    const auto make_engine = [&] {
      return std::make_unique<core::PlfEngine>(
          inst.data, inst.params, inst.tree, backend,
          core::KernelVariant::kSimdCol, core::SiteRepeatsMode::kOn, budget);
    };
    McmcOptions mo;
    mo.seed = 33;
    mo.w_pinv = 0.0;
    mo.w_spr = 1.0;  // exercise topology state in the checkpoint

    auto ea = make_engine();
    McmcChain ca(*ea, mo);
    for (int g = 0; g < 40; ++g) ca.step();
    const double lnl_at_checkpoint = ca.ln_likelihood();

    // Checkpoint mid-run (some steps were rejects, so the scaler-resum flag
    // and flipped buffers are in a nontrivial state).
    std::ostringstream os;
    {
      util::BinaryWriter w(os);
      ea->save_state(w);
      ca.save_state(w);
    }

    // Continue the original and record its trajectory.
    std::vector<double> trajectory;
    for (int g = 0; g < 40; ++g) {
      ca.step();
      trajectory.push_back(ca.ln_likelihood());
    }

    // Restore into a freshly constructed twin and replay.
    auto eb = make_engine();
    McmcChain cb(*eb, mo);
    std::istringstream is(os.str());
    {
      util::BinaryReader r(is);
      eb->restore_state(r);
      cb.restore_state(r);
    }
    EXPECT_EQ(cb.ln_likelihood(), lnl_at_checkpoint);
    EXPECT_EQ(cb.generation(), 40u);
    // The restored engine re-evaluates to the checkpointed likelihood
    // without stepping (CLVs, scalers, and the resum flag all round-trip).
    EXPECT_EQ(eb->log_likelihood(), lnl_at_checkpoint);

    for (int g = 0; g < 40; ++g) {
      cb.step();
      ASSERT_EQ(cb.ln_likelihood(), trajectory[static_cast<std::size_t>(g)])
          << "diverged at resumed generation " << g;
    }
    EXPECT_EQ(eb->tree().to_newick(), ea->tree().to_newick());
    EXPECT_EQ(eb->model_params().gamma_shape, ea->model_params().gamma_shape);
  }
}

TEST(CheckpointTest, RestoredEngineEvaluatesCheckpointedLikelihood) {
  // Without any further steps, a restored engine's full re-evaluation must
  // reproduce the exact cached likelihood the checkpoint recorded.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 200, 92);
  core::PlfEngine a(inst.data, inst.params, inst.tree, backend);
  McmcOptions mo;
  mo.seed = 7;
  McmcChain chain(a, mo);
  for (int g = 0; g < 25; ++g) chain.step();
  const double at_checkpoint = a.log_likelihood();

  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    a.save_state(w);
  }
  core::PlfEngine b(inst.data, inst.params, inst.tree, backend);
  std::istringstream is(os.str());
  {
    util::BinaryReader r(is);
    b.restore_state(r);
  }
  EXPECT_EQ(b.log_likelihood(), at_checkpoint);
  // Force a full recompute from the restored CLV/scaler state: a branch
  // wiggle and its exact undo must land back on the same bits.
  const int leaf = b.tree().leaf_of(0);
  const double len = b.tree().branch_length(leaf);
  b.set_branch_length(leaf, len * 2.0);
  (void)b.log_likelihood();
  b.set_branch_length(leaf, len);
  EXPECT_EQ(b.log_likelihood(), at_checkpoint);
}

TEST(CheckpointTest, MoveSavedBeforeItsEvaluationStaysPending) {
  // A checkpoint taken between a move and its evaluation must resume with
  // the move still pending: the restored engine evaluates the moved tree,
  // not the CLVs computed before the move.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 200, 98);
  core::PlfEngine a(inst.data, inst.params, inst.tree, backend);
  (void)a.log_likelihood();
  a.set_branch_length(a.tree().leaf_of(3), 0.77);

  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    a.save_state(w);
  }
  core::PlfEngine b(inst.data, inst.params, inst.tree, backend);
  std::istringstream is(os.str());
  {
    util::BinaryReader r(is);
    b.restore_state(r);
  }
  core::PlfEngine fresh(inst.data, a.model_params(), a.tree(), backend);
  const double expect = fresh.log_likelihood();
  EXPECT_EQ(b.log_likelihood(), expect);
  EXPECT_EQ(a.log_likelihood(), expect);
}

TEST(CheckpointTest, RestoreIntoSameEngineKeepsProposalEpochsMonotone) {
  // Restoring into the engine that wrote the checkpoint leaves its nodes and
  // branches carrying dirty_epoch stamps from before the save. If restore
  // rewound the proposal epoch, the next proposal would reuse a stamped
  // epoch: a branch dirtied outside that proposal would look freshly
  // dirtied inside it, reject() would flip back to its stale buffer and mark
  // it clean, and the engine would report the checkpointed tree's lnL.
  core::SerialBackend backend;
  const Instance inst = make_instance(10, 300, 96);
  core::PlfEngine e(inst.data, inst.params, inst.tree, backend);
  const int leaf = e.tree().leaf_of(0);
  e.begin_proposal();
  e.set_branch_length(leaf, 0.3);
  (void)e.log_likelihood();
  e.accept();

  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    e.save_state(w);
  }
  std::istringstream is(os.str());
  {
    util::BinaryReader r(is);
    e.restore_state(r);
  }

  e.set_branch_length(leaf, 0.05);  // outside any proposal
  e.begin_proposal();
  (void)e.log_likelihood();
  e.reject();
  const double lnl = e.log_likelihood();

  core::SerialBackend fresh_backend;
  core::PlfEngine fresh(inst.data, e.model_params(), e.tree(), fresh_backend);
  EXPECT_EQ(lnl, fresh.log_likelihood());
}

TEST(CheckpointTest, RestoreRejectsMismatchedShape) {
  core::SerialBackend backend;
  const Instance small = make_instance(6, 100, 93);
  const Instance big = make_instance(9, 100, 94);
  core::PlfEngine a(small.data, small.params, small.tree, backend);
  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    a.save_state(w);
  }
  core::PlfEngine b(big.data, big.params, big.tree, backend);
  std::istringstream is(os.str());
  util::BinaryReader r(is);
  EXPECT_THROW(b.restore_state(r), Error);
}

/// A valid engine checkpoint with its format version overwritten by `old`
/// must be refused up front, naming both versions.
void expect_version_refused(std::uint32_t old_version) {
  core::SerialBackend backend;
  const Instance inst = make_instance(6, 100, 97);
  core::PlfEngine a(inst.data, inst.params, inst.tree, backend);
  (void)a.log_likelihood();
  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    a.save_state(w);
  }
  std::string blob = os.str();
  ASSERT_NE(old_version, util::kCheckpointVersion);
  ASSERT_GT(blob.size(), sizeof(std::uint64_t) + sizeof(old_version));
  std::memcpy(blob.data() + sizeof(std::uint64_t), &old_version,
              sizeof(old_version));  // the u32 right after the magic
  std::istringstream is(blob);
  try {
    util::BinaryReader r(is);
    FAIL() << "a version-" << old_version << " stream was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version " + std::to_string(old_version)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("version " +
                        std::to_string(util::kCheckpointVersion)),
              std::string::npos)
        << what;
  }
}

TEST(CheckpointTest, RefusesStreamFromAnotherFormatVersion) {
  // Version 2 streams carried f32 scaler rows and a serialized scaler total.
  expect_version_refused(2);
}

TEST(CheckpointTest, RefusesVersion3Stream) {
  // Version 3 NODE entries always held m dense rows, without a row count.
  expect_version_refused(3);
}

TEST(CheckpointTest, RefusesVersion4Stream) {
  // Version 4 NODE entries held f64 cumulative log-scaler rows, not the i32
  // scale-exponent counts of the exact rescale.
  expect_version_refused(4);
}

/// Checkpoint of an engine under `mode` after a short seeded MCMC run.
std::string checkpoint_after_run(const Instance& inst,
                                 core::ExecutionBackend& backend,
                                 core::SiteRepeatsMode mode) {
  core::PlfEngine e(inst.data, inst.params, inst.tree, backend,
                    core::KernelVariant::kSimdCol, mode);
  McmcOptions mo;
  mo.seed = 12;
  McmcChain chain(e, mo);
  for (int g = 0; g < 30; ++g) chain.step();
  std::ostringstream os;
  util::BinaryWriter w(os);
  e.save_state(w);
  return os.str();
}

TEST(CheckpointTest, RestoreRefusesOutOfRangeRowCount) {
  // The first NODE entry is u8 active, u8 dirty, then the u64 row count of
  // the active buffer: 0 and m + 1 are both corrupt.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 400, 101);
  const std::string blob =
      checkpoint_after_run(inst, backend, core::SiteRepeatsMode::kOn);
  const std::size_t node = blob.find("NODE");
  ASSERT_NE(node, std::string::npos);
  const std::size_t rows_at = node + 4 + 2;
  for (const std::uint64_t bad : {std::uint64_t{0},
                                  std::uint64_t{inst.data.n_patterns() + 1}}) {
    SCOPED_TRACE("row count " + std::to_string(bad));
    std::string patched = blob;
    std::memcpy(patched.data() + rows_at, &bad, sizeof bad);
    core::PlfEngine b(inst.data, inst.params, inst.tree, backend,
                      core::KernelVariant::kSimdCol, core::SiteRepeatsMode::kOn);
    std::istringstream is(patched);
    util::BinaryReader r(is);
    try {
      b.restore_state(r);
      FAIL() << "an out-of-range row count was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("row count out of range"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointTest, RestoreRefusesAnotherSiteRepeatsPolicy) {
  // Stored row layouts follow the site-repeats policy: a compacted
  // checkpoint cannot seed a dense engine, and vice versa.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 400, 102);
  for (const auto& [write, read] :
       {std::pair{core::SiteRepeatsMode::kOn, core::SiteRepeatsMode::kOff},
        std::pair{core::SiteRepeatsMode::kOff, core::SiteRepeatsMode::kOn}}) {
    const std::string blob = checkpoint_after_run(inst, backend, write);
    core::PlfEngine b(inst.data, inst.params, inst.tree, backend,
                      core::KernelVariant::kSimdCol, read);
    std::istringstream is(blob);
    util::BinaryReader r(is);
    EXPECT_THROW(b.restore_state(r), Error);
  }
}

TEST(CheckpointTest, CompactedEngineStoresOnlyLiveRows) {
  // A compacted engine writes one CLV and cumulative-scaler row per repeat
  // class, so its checkpoint is smaller than the dense engine's at the same
  // state, and it still resumes bit for bit.
  core::SerialBackend backend;
  const Instance inst = make_instance(10, 2000, 103);
  const std::string dense =
      checkpoint_after_run(inst, backend, core::SiteRepeatsMode::kOff);
  const std::string compact =
      checkpoint_after_run(inst, backend, core::SiteRepeatsMode::kOn);
  EXPECT_LT(compact.size(), dense.size());

  const auto resume = [&](const std::string& blob,
                          core::SiteRepeatsMode mode) {
    core::PlfEngine e(inst.data, inst.params, inst.tree, backend,
                      core::KernelVariant::kSimdCol, mode);
    McmcOptions mo;
    mo.seed = 12;
    McmcChain chain(e, mo);
    std::istringstream is(blob);
    util::BinaryReader r(is);
    e.restore_state(r);
    std::vector<double> lnl;
    for (int g = 0; g < 20; ++g) {
      chain.step();
      lnl.push_back(chain.ln_likelihood());
    }
    return lnl;
  };
  EXPECT_EQ(resume(compact, core::SiteRepeatsMode::kOn),
            resume(dense, core::SiteRepeatsMode::kOff));
}

TEST(CheckpointTest, SaveDuringOpenProposalThrows) {
  core::SerialBackend backend;
  const Instance inst = make_instance(6, 100, 95);
  core::PlfEngine a(inst.data, inst.params, inst.tree, backend);
  (void)a.log_likelihood();
  a.begin_proposal();
  std::ostringstream os;
  util::BinaryWriter w(os);
  EXPECT_THROW(a.save_state(w), Error);
  a.reject();
}

std::vector<std::unique_ptr<core::PlfEngine>> make_engines(
    const Instance& inst, core::ExecutionBackend& backend, std::size_t n) {
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < n; ++i) {
    engines.push_back(std::make_unique<core::PlfEngine>(
        inst.data, inst.params, inst.tree, backend));
  }
  return engines;
}

TEST(CheckpointTest, CoupledRunResumesBitExact) {
  // Interrupt a 4-chain MC3 run at generation 150 of 300 via an in-memory
  // checkpoint; the resumed half must land on the same final likelihoods,
  // trees, and swap counters as the uninterrupted run.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 150, 96);
  CoupledOptions opts;
  opts.chain.seed = 17;
  opts.swap_every = 5;

  CoupledChains full(make_engines(inst, backend, 4), opts);
  CoupledChains a(make_engines(inst, backend, 4), opts);
  const auto full_result = full.run(300);

  a.run(150);
  std::ostringstream os;
  a.save_checkpoint(os);

  CoupledChains b(make_engines(inst, backend, 4), opts);
  std::istringstream is(os.str());
  b.restore_checkpoint(is);
  EXPECT_EQ(b.generation(), 150u);
  const auto resumed = b.run(300);

  EXPECT_EQ(resumed.cold.final_ln_likelihood,
            full_result.cold.final_ln_likelihood);
  EXPECT_EQ(resumed.cold.final_tree_newick,
            full_result.cold.final_tree_newick);
  EXPECT_EQ(resumed.swaps_proposed, full_result.swaps_proposed);
  EXPECT_EQ(resumed.swaps_accepted, full_result.swaps_accepted);
  ASSERT_EQ(resumed.final_ln_likelihoods.size(),
            full_result.final_ln_likelihoods.size());
  for (std::size_t i = 0; i < resumed.final_ln_likelihoods.size(); ++i) {
    EXPECT_EQ(resumed.final_ln_likelihoods[i],
              full_result.final_ln_likelihoods[i])
        << "heat rank " << i;
  }
}

TEST(CheckpointTest, CoupledCheckpointFileRoundTripAndAtomicRename) {
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 150, 97);
  const std::string path =
      ::testing::TempDir() + "plf_checkpoint_test.ckpt";
  CoupledOptions opts;
  opts.chain.seed = 23;
  opts.swap_every = 5;
  opts.checkpoint_every = 50;
  opts.checkpoint_path = path;

  CoupledChains a(make_engines(inst, backend, 3), opts);
  const auto full_result = a.run(200);
  // The periodic writer went through the tmp+rename protocol: the final
  // checkpoint (generation 200) is in place, the tmp file is not.
  {
    std::ifstream ckpt(path, std::ios::binary);
    EXPECT_TRUE(ckpt.good());
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
  }

  CoupledOptions resume_opts = opts;
  resume_opts.checkpoint_every = 0;  // don't overwrite while verifying
  CoupledChains b(make_engines(inst, backend, 3), resume_opts);
  b.restore_checkpoint_file(path);
  EXPECT_EQ(b.generation(), 200u);
  const auto resumed = b.run(400);

  CoupledOptions straight_opts = resume_opts;
  CoupledChains c(make_engines(inst, backend, 3), straight_opts);
  const auto straight = c.run(400);
  EXPECT_EQ(resumed.cold.final_ln_likelihood,
            straight.cold.final_ln_likelihood);
  EXPECT_EQ(resumed.cold.final_tree_newick, straight.cold.final_tree_newick);
  EXPECT_EQ(resumed.swaps_accepted, straight.swaps_accepted);
  (void)full_result;
  std::remove(path.c_str());
}

TEST(CheckpointTest, CoupledRestoreRejectsWrongChainCount) {
  core::SerialBackend backend;
  const Instance inst = make_instance(6, 100, 98);
  CoupledOptions opts;
  opts.chain.seed = 29;
  CoupledChains a(make_engines(inst, backend, 3), opts);
  a.run(20);
  std::ostringstream os;
  a.save_checkpoint(os);

  CoupledChains b(make_engines(inst, backend, 2), opts);
  std::istringstream is(os.str());
  EXPECT_THROW(b.restore_checkpoint(is), Error);
}

}  // namespace
}  // namespace plf::mcmc
