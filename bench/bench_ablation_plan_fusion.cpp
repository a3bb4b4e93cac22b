// Ablation: the threaded backend's fused plan executor
// (docs/EXECUTION_PLAN.md) vs the per-call structure of PerCallBackend.
//
// Same engine, same plans, same thread pool, same kernels — only the
// executor differs, and results are bit-identical
// (tests/backend_diff_test.cpp), so any wall-time gap is pure dispatch
// overhead: spawn/sync barriers and the extra memory pass the unfused
// CondLikeScaler makes over each CLV block.
// The pattern count matches the paper's real ssu-rRNA alignment (8,543
// distinct patterns, §4) and the tree its 20-taxon scaling study.
//
// Two workloads bracket the MCMC mix:
//   branch move  recompute one leaf-to-root path (the common proposal);
//                every op depends on the previous, so batching wins by
//                halving the barriers (down+scale fused) per node
//   model move   recompute every internal (worst case for per-call:
//                2 regions per op vs 1 region per level)
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "par/thread_pool.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/random_tree.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace plf;

phylo::PatternMatrix make_columns(const std::vector<std::string>& names,
                                  std::size_t m, Rng& rng) {
  const std::size_t n_taxa = names.size();
  std::vector<std::vector<phylo::StateMask>> cols;
  cols.reserve(m);
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<phylo::StateMask> col(n_taxa);
    for (auto& x : col) x = phylo::state_to_mask(rng.below(4));
    cols.push_back(std::move(col));
  }
  return phylo::PatternMatrix::from_patterns(
      names, cols, std::vector<std::uint32_t>(cols.size(), 1));
}

struct RunResult {
  double wall_s = 0.0;
  double plf_s = 0.0;  ///< time inside the backend (the ablated part)
  double mean_level_width = 0.0;
};

RunResult run(const phylo::PatternMatrix& data, const phylo::Tree& tree,
              const phylo::GtrParams& params, core::ExecutionBackend& backend,
              bool full_reval, int iterations) {
  core::PlfEngine engine(data, params, tree, backend,
                         core::KernelVariant::kSimdCol,
                         core::SiteRepeatsMode::kOff);
  engine.log_likelihood();  // warm up: buffers touched, matrices built
  engine.reset_stats();

  const int n_leaves = static_cast<int>(data.n_taxa());
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    if (full_reval) {
      engine.set_model(params);  // dirty everything
    } else {
      engine.set_branch_length(engine.tree().leaf_of(i % n_leaves),
                               0.05 + 0.001 * (i % 7));  // dirty one path
    }
    engine.log_likelihood();
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.plf_s = engine.stats().plf_seconds;
  if (engine.stats().plan_levels > 0) {
    r.mean_level_width = static_cast<double>(engine.stats().plan_ops) /
                         static_cast<double>(engine.stats().plan_levels);
  }
  return r;
}

/// Best-of-`reps`: the minimum is the least scheduler-disturbed run, the
/// right statistic for comparing two fixed workloads on a shared host.
RunResult best_of(const phylo::PatternMatrix& data, const phylo::Tree& tree,
                  const phylo::GtrParams& params,
                  core::ExecutionBackend& backend, bool full_reval,
                  int iterations, int reps) {
  RunResult best;
  for (int i = 0; i < reps; ++i) {
    const RunResult r = run(data, tree, params, backend, full_reval, iterations);
    if (i == 0 || r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kTaxa = 20;
  constexpr std::size_t kColumns = 8543;  // paper §4: distinct rRNA patterns
  const std::size_t workers = argc > 1 ? std::stoul(argv[1]) : 8;
  const int branch_iters = argc > 2 ? std::stoi(argv[2]) : 1000;
  const int model_iters = branch_iters / 8;
  constexpr int kReps = 3;

  Rng rng(2025);
  const phylo::Tree tree = seqgen::yule_tree(kTaxa, rng, 1.0, 0.2);
  auto params = seqgen::default_gtr_params();
  Rng data_rng(9001);
  const auto data = make_columns(tree.taxon_names(), kColumns, data_rng);

  par::ThreadPool pool(workers);
  core::ThreadedBackend backend(pool);
  core::PerCallBackend percall(backend);

  Table t("Plan-fusion ablation: threaded(" + std::to_string(workers) +
          "), simd-col, " + std::to_string(kTaxa) + " taxa, " +
          std::to_string(data.n_patterns()) + " patterns");
  t.header({"workload", "evals", "percall plf s", "plan plf s", "speedup",
            "percall wall s", "plan wall s", "wall speedup",
            "mean level width"});

  double headline = 0.0;  // full-reevaluation wall speedup
  for (const bool full : {false, true}) {
    const int iters = full ? model_iters : branch_iters;
    const RunResult pc =
        best_of(data, tree, params, percall, full, iters, kReps);
    const RunResult pl =
        best_of(data, tree, params, backend, full, iters, kReps);
    const double speedup = pc.plf_s / pl.plf_s;
    if (full) headline = pc.wall_s / pl.wall_s;
    t.row({full ? "model move (all nodes)" : "branch move (one path)",
           std::to_string(iters), Table::num(pc.plf_s, 3),
           Table::num(pl.plf_s, 3), Table::num(speedup, 2) + "x",
           Table::num(pc.wall_s, 3), Table::num(pl.wall_s, 3),
           Table::num(pc.wall_s / pl.wall_s, 2) + "x",
           Table::num(pl.mean_level_width, 2)});
  }
  std::cout << t << "\n";
  std::cout << "Both paths produce bit-identical likelihoods; the gap is\n"
               "dispatch overhead only: per-call opens two parallel regions\n"
               "per node (down/root, then scale) and re-reads the CLV block\n"
               "for the scale pass, while the fused executor runs dense\n"
               "dependency levels as single regions with the rescale done\n"
               "inside each worker's still-hot chunk. The plf columns time\n"
               "exactly the dispatched work; wall adds the per-evaluation\n"
               "costs the executor cannot change (matrix rebuilds, plan\n"
               "builds, scaler totals, root reduction).\n";
  std::cout << "fused plan dispatch speedup (full re-evaluations, wall): "
            << Table::num(headline, 2) << "x\n";
  return 0;
}
