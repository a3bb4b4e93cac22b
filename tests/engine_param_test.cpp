// Property-style sweep: the engine must agree with the independent
// double-precision reference for EVERY combination of rate-category count,
// kernel variant, and execution backend — the full cross-product the
// backends' partitioning logic has to survive (odd K breaks alignments,
// K=1 removes the Γ loop, simulated backends chunk the pattern range).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "gpu/plf_gpu.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"

namespace plf::core {
namespace {

enum class BackendKind { kSerial, kThreaded, kCell, kGpu };

const char* name_of(BackendKind b) {
  switch (b) {
    case BackendKind::kSerial: return "serial";
    case BackendKind::kThreaded: return "threaded";
    case BackendKind::kCell: return "cell";
    case BackendKind::kGpu: return "gpu";
  }
  return "?";
}

struct BackendHolder {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<ExecutionBackend> backend;

  static BackendHolder make(BackendKind kind) {
    BackendHolder h;
    switch (kind) {
      case BackendKind::kSerial:
        h.backend = std::make_unique<SerialBackend>();
        break;
      case BackendKind::kThreaded:
        h.pool = std::make_unique<par::ThreadPool>(3);
        h.backend = std::make_unique<ThreadedBackend>(*h.pool);
        break;
      case BackendKind::kCell: {
        cell::CellConfig cfg;
        cfg.n_spes = 5;
        h.backend = std::make_unique<cell::CellMachine>(cfg);
        break;
      }
      case BackendKind::kGpu:
        h.backend = std::make_unique<gpu::GpuPlf>(gpu::GpuPlfConfig{});
        break;
    }
    return h;
  }
};

using Param = std::tuple<std::size_t /*K*/, KernelVariant, BackendKind>;

class EngineSweepTest : public ::testing::TestWithParam<Param> {};

TEST_P(EngineSweepTest, MatchesReferenceLikelihood) {
  const std::size_t K = std::get<0>(GetParam());
  const KernelVariant variant = std::get<1>(GetParam());
  const BackendKind kind = std::get<2>(GetParam());

  Rng rng(1000 + K);
  phylo::Tree tree = seqgen::yule_tree(7, rng, 1.0, 0.2);
  phylo::GtrParams params = seqgen::default_gtr_params();
  params.n_rate_categories = K;
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(123, rng));

  BackendHolder h = BackendHolder::make(kind);
  PlfEngine engine(data, params, tree, *h.backend, variant);
  const double got = engine.log_likelihood();
  const double ref = test::reference_log_likelihood(tree, model, data);
  EXPECT_NEAR(got, ref, std::abs(ref) * 2e-4)
      << "K=" << K << " variant=" << to_string(variant) << " backend="
      << name_of(kind);

  // Incremental consistency after a mutation, on every combination.
  engine.set_branch_length(engine.tree().leaf_of(2), 0.33);
  const double incremental = engine.log_likelihood();
  BackendHolder h2 = BackendHolder::make(BackendKind::kSerial);
  PlfEngine fresh(data, params, engine.tree(), *h2.backend, variant);
  EXPECT_NEAR(fresh.log_likelihood(), incremental,
              std::abs(incremental) * 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    FullCross, EngineSweepTest,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 3u, 4u, 6u),
        ::testing::Values(KernelVariant::kScalar, KernelVariant::kSimdCol,
                          KernelVariant::kSimdSite),
        ::testing::Values(BackendKind::kSerial, BackendKind::kThreaded,
                          BackendKind::kCell, BackendKind::kGpu)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string v = to_string(std::get<1>(info.param));
      for (auto& c : v) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return "K" + std::to_string(std::get<0>(info.param)) + "_" + v + "_" +
             name_of(std::get<2>(info.param));
    });

}  // namespace
}  // namespace plf::core
