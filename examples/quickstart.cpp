// Quickstart: simulate a small DNA data set, compute its likelihood with the
// fine-grain parallel PLF on several backends, and verify they agree.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "cell/machine.hpp"
#include "gpu/plf_gpu.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "simd/simd.hpp"
#include "util/table.hpp"

int main() {
  using namespace plf;

  std::cout << "== plf quickstart ==\n";
  std::cout << "SIMD backend: " << simd::backend_name() << "\n\n";

  // 1. Simulate data: a 12-taxon tree and 2,000 alignment columns under
  //    GTR+Gamma (our Seq-Gen equivalent), then compress to site patterns.
  Rng rng(2024);
  const phylo::Tree tree = seqgen::yule_tree(12, rng, 1.0, 0.12);
  const phylo::GtrParams params = seqgen::default_gtr_params();
  const phylo::SubstitutionModel model(params);
  const seqgen::SequenceEvolver evolver(tree, model);
  const phylo::Alignment alignment = evolver.evolve(2000, rng);
  const phylo::PatternMatrix patterns = phylo::PatternMatrix::compress(alignment);

  std::cout << "alignment: " << alignment.n_taxa() << " taxa x "
            << alignment.n_columns() << " columns -> " << patterns.n_patterns()
            << " distinct site patterns\n";
  std::cout << "tree: " << tree.to_newick().substr(0, 70) << "...\n\n";

  // 2. Evaluate the phylogenetic likelihood on different execution backends.
  Table table("log-likelihood by backend");
  table.header({"backend", "lnL", "notes"});

  core::SerialBackend serial;
  {
    core::PlfEngine engine(patterns, params, tree, serial,
                           core::KernelVariant::kSimdCol);
    table.row({"serial (SSE col-wise)", Table::num(engine.log_likelihood(), 4),
               "host, approach (ii) kernels"});
  }
  {
    par::ThreadPool pool;  // hardware concurrency
    core::ThreadedBackend threads(pool);
    core::PlfEngine engine(patterns, params, tree, threads,
                           core::KernelVariant::kSimdSite);
    table.row({"threads(" + std::to_string(pool.size()) + ")",
               Table::num(engine.log_likelihood(), 4),
               "parallel-for over patterns, whole-site kernels"});
  }
  {
    cell::CellConfig cfg;
    cfg.n_spes = 6;  // a PS3
    cell::CellMachine machine(cfg);
    core::PlfEngine engine(patterns, params, tree, machine,
                           core::KernelVariant::kSimdCol);
    const double lnl = engine.log_likelihood();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "simulated %.2f ms on 6 SPEs",
                  machine.simulated_seconds() * 1e3);
    table.row({"Cell/BE (PS3 sim)", Table::num(lnl, 4), buf});
  }
  {
    gpu::GpuPlfConfig cfg;  // an 8800GT with the paper's 40x256 launch
    gpu::GpuPlf device(cfg);
    core::PlfEngine engine(patterns, params, tree, device,
                           core::KernelVariant::kScalar);
    const double lnl = engine.log_likelihood();
    char buf[96];
    std::snprintf(buf, sizeof(buf), "simulated %.2f ms (%.0f%% PCIe)",
                  device.simulated_seconds() * 1e3,
                  100.0 * device.stats().pcie_s / device.simulated_seconds());
    table.row({"GPU (8800GT sim)", Table::num(lnl, 4), buf});
  }

  std::cout << table << "\n";
  std::cout << "All backends compute the same likelihood from the same\n"
               "conditional-likelihood kernels; the simulators additionally\n"
               "account the hardware costs the paper analyzes.\n";
  return 0;
}
