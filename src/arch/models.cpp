#include "arch/models.hpp"

#include <algorithm>
#include <cmath>

#include "core/tip_partial.hpp"
#include "phylo/model.hpp"
#include "seqgen/datasets.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plf::arch {

namespace {

double log2ceil(std::size_t n) {
  return n <= 1 ? 0.0 : std::ceil(std::log2(static_cast<double>(n)));
}

/// Shared synthetic kernel operands for the simulator-backed models.
struct SyntheticJob {
  std::size_t m, K;
  phylo::TransitionMatrices tm_l, tm_r, tm_o;
  core::TipPartial tp_o;
  aligned_vector<float> cl_l, cl_r, out;
  aligned_vector<float> ln_scaler;
  aligned_vector<std::int32_t> scaler_count;
  aligned_vector<std::uint32_t> weights;
  // aligned_vector, not std::vector: the Cell DMA rounds mask transfers up
  // to 16 bytes, so the backing allocation must be padded (the aligned
  // allocator rounds every allocation up to 128 bytes).
  aligned_vector<phylo::StateMask> out_mask;

  SyntheticJob(std::size_t m_, std::size_t K_) : m(m_), K(K_) {
    phylo::GtrParams p = seqgen::default_gtr_params();
    p.n_rate_categories = K;
    phylo::SubstitutionModel model(p);
    tm_l = model.transition_matrices(0.1);
    tm_r = model.transition_matrices(0.2);
    tm_o = model.transition_matrices(0.05);
    tp_o = core::TipPartial(tm_o);
    Rng rng(1234);
    cl_l.resize(m * K * 4);
    cl_r.resize(m * K * 4);
    out.resize(m * K * 4);
    for (auto& v : cl_l) v = static_cast<float>(rng.uniform(0.05, 1.0));
    for (auto& v : cl_r) v = static_cast<float>(rng.uniform(0.05, 1.0));
    ln_scaler.assign(m, 0.0f);
    scaler_count.assign(m, -1);
    weights.assign(m, 1);
    out_mask.resize(m);
    for (auto& x : out_mask) x = phylo::state_to_mask(rng.below(4));
  }

  core::DownArgs down_args() {
    core::DownArgs a;
    a.K = K;
    a.left.cl = cl_l.data();
    a.left.p = tm_l.row_major();
    a.left.pt = tm_l.col_major();
    a.right.cl = cl_r.data();
    a.right.p = tm_r.row_major();
    a.right.pt = tm_r.col_major();
    a.out = out.data();
    return a;
  }
  core::RootArgs root_args() {
    core::RootArgs a;
    a.down = down_args();
    a.out_mask = out_mask.data();
    a.out_tp = tp_o.data();
    return a;
  }
  core::ScaleArgs scale_args() {
    return core::ScaleArgs{out.data(), ln_scaler.data(), K};
  }
  core::RootReduceArgs reduce_args() {
    core::RootReduceArgs a;
    a.cl = cl_l.data();
    a.scaler_count = scaler_count.data();
    a.weights = weights.data();
    a.K = K;
    return a;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Multi-core
// ---------------------------------------------------------------------------

MultiCoreModel::MultiCoreModel(const SystemConfig& sys,
                               const MultiCoreParams& params)
    : sys_(&sys), p_(params) {
  PLF_CHECK(sys.family == SystemFamily::kMultiCore ||
                sys.family == SystemFamily::kBaseline,
            "MultiCoreModel needs a multi-core or baseline system");
}

double MultiCoreModel::region_overhead_s(std::size_t n_cores) const {
  if (n_cores <= 1) return 0.0;
  const CacheTopology& t = sys_->topology;
  PLF_CHECK(n_cores <= t.total_cores(), "more cores requested than present");

  // Threads fill dies first, then packages (the natural OS placement).
  const std::size_t dies_used =
      (n_cores + t.cores_per_die - 1) / t.cores_per_die;
  const std::size_t packages_used =
      (dies_used + t.dies_per_package - 1) / t.dies_per_package;
  const std::size_t cores_in_die = std::min(n_cores, t.cores_per_die);
  const std::size_t dies_in_pkg = std::min(dies_used, t.dies_per_package);

  // Tree barrier: stages within the die, across dies, across packages.
  const double die_stage =
      t.die_cache_shared ? p_.t_die_shared_s : p_.t_die_private_s;
  double cost = p_.fork_base_s;
  cost += die_stage * log2ceil(cores_in_die);
  cost += p_.t_pkg_s * log2ceil(dies_in_pkg);
  cost += p_.t_sys_s * log2ceil(packages_used);
  return cost;
}

double MultiCoreModel::plf_section_s(const PlfWorkload& w,
                                     std::size_t n_cores) const {
  PLF_CHECK(n_cores >= 1, "need at least one core");
  const double f = sys_->freq_hz;
  const double mk = static_cast<double>(w.m) * static_cast<double>(w.K);
  // Shared-memory scaling: effective per-core throughput drops as more
  // cores contend, and the contention grows with the number of live
  // conditional-likelihood buffers (i.e. with the taxon count).
  const double traffic =
      1.0 + p_.taxa_traffic_nu * std::log2(static_cast<double>(w.taxa));
  const double eff =
      1.0 / (1.0 + p_.mem_scaling_beta * static_cast<double>(n_cores - 1) *
                       traffic);
  const double cores = static_cast<double>(n_cores);

  auto body = [&](double cycles_ppc) {
    return mk * cycles_ppc / (cores * f * eff);
  };
  const double ov = region_overhead_s(n_cores);

  double total = 0.0;
  total += static_cast<double>(w.plf_calls()) *
           (ov + body(p_.cycles_per_pattern_cat));
  total += static_cast<double>(w.scale_calls) *
           (ov + body(p_.scale_cycles_per_pattern_cat));
  total += static_cast<double>(w.reduce_calls) *
           (ov + body(p_.reduce_cycles_per_pattern_cat));
  return total;
}

double MultiCoreModel::serial_s(const PlfWorkload& w) const {
  const double cycles =
      w.serial_cycles + static_cast<double>(w.tm_builds) * p_.tm_build_cycles;
  return cycles * sys_->serial_slowdown / sys_->freq_hz;
}

// ---------------------------------------------------------------------------
// Cell/BE
// ---------------------------------------------------------------------------

CellModel::CellModel(const SystemConfig& sys, const MultiCoreParams& baseline)
    : sys_(&sys), base_(baseline) {
  PLF_CHECK(sys.family == SystemFamily::kCell, "CellModel needs a Cell system");
}

CellModel::PerCall CellModel::measure(std::size_t m, std::size_t K,
                                      std::size_t n_spes) {
  const auto key = std::make_tuple(m, K, n_spes);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  SyntheticJob job(m, K);
  cell::CellConfig cfg = sys_->cell;
  cfg.n_spes = std::max<std::size_t>(cfg.n_spes, n_spes);
  cell::CellMachine machine(cfg);

  PerCall pc{};
  {
    cell::SpuJob proto;
    proto.K = K;
    proto.down = job.down_args();
    pc.down = machine.offload(cell::SpuCommand::kCondLikeDown, proto, m, n_spes);
  }
  {
    cell::SpuJob proto;
    proto.K = K;
    const core::RootArgs ra = job.root_args();
    proto.down = ra.down;
    proto.out_mask = ra.out_mask;
    proto.out_tp = ra.out_tp;
    pc.root = machine.offload(cell::SpuCommand::kCondLikeRoot, proto, m, n_spes);
  }
  {
    cell::SpuJob proto;
    proto.K = K;
    proto.scale = job.scale_args();
    pc.scale =
        machine.offload(cell::SpuCommand::kCondLikeScaler, proto, m, n_spes);
  }
  {
    cell::SpuJob proto;
    proto.K = K;
    proto.reduce = job.reduce_args();
    double unused = 0.0;
    pc.reduce =
        machine.offload(cell::SpuCommand::kRootReduce, proto, m, n_spes, &unused);
  }
  cache_.emplace(key, pc);
  return pc;
}

double CellModel::plf_section_s(const PlfWorkload& w, std::size_t n_spes) {
  const PerCall pc = measure(w.m, w.K, n_spes);
  return static_cast<double>(w.down_calls) * pc.down +
         static_cast<double>(w.root_calls) * pc.root +
         static_cast<double>(w.scale_calls) * pc.scale +
         static_cast<double>(w.reduce_calls) * pc.reduce;
}

double CellModel::serial_s(const PlfWorkload& w) const {
  const double cycles =
      w.serial_cycles + static_cast<double>(w.tm_builds) * base_.tm_build_cycles;
  return cycles * sys_->serial_slowdown / sys_->freq_hz;
}

// ---------------------------------------------------------------------------
// GPU
// ---------------------------------------------------------------------------

GpuModel::GpuModel(const SystemConfig& sys, const MultiCoreParams& baseline)
    : sys_(&sys), base_(baseline) {
  PLF_CHECK(sys.family == SystemFamily::kGpu, "GpuModel needs a GPU system");
}

GpuModel::PerCall GpuModel::measure(std::size_t m, std::size_t K) {
  const auto key = std::make_pair(m, K);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  SyntheticJob job(m, K);
  gpu::GpuPlf dev(sys_->gpu);
  const auto& ks = core::kernels(core::KernelVariant::kScalar);

  PerCall pc{};
  auto snap = [&](double& kernel, double& pcie, auto&& fn) {
    const double k0 = dev.stats().kernel_s;
    const double p0 = dev.stats().pcie_s;
    fn();
    kernel = dev.stats().kernel_s - k0;
    pcie = dev.stats().pcie_s - p0;
  };
  snap(pc.down_kernel, pc.down_pcie,
       [&] { dev.run_down(ks, job.down_args(), m); });
  const core::RootArgs ra = job.root_args();
  snap(pc.root_kernel, pc.root_pcie, [&] { dev.run_root(ks, ra, m); });
  const core::ScaleArgs sa = job.scale_args();
  snap(pc.scale_kernel, pc.scale_pcie, [&] { dev.run_scale(ks, sa, m); });
  const core::RootReduceArgs rra = job.reduce_args();
  snap(pc.reduce_kernel, pc.reduce_pcie,
       [&] { dev.run_root_reduce(ks, rra, m); });

  cache_.emplace(key, pc);
  return pc;
}

GpuModel::PlfTimes GpuModel::plf_section(const PlfWorkload& w) {
  const PerCall pc = measure(w.m, w.K);
  PlfTimes t;
  t.kernel_s = static_cast<double>(w.down_calls) * pc.down_kernel +
               static_cast<double>(w.root_calls) * pc.root_kernel +
               static_cast<double>(w.scale_calls) * pc.scale_kernel +
               static_cast<double>(w.reduce_calls) * pc.reduce_kernel;
  t.pcie_s = static_cast<double>(w.down_calls) * pc.down_pcie +
             static_cast<double>(w.root_calls) * pc.root_pcie +
             static_cast<double>(w.scale_calls) * pc.scale_pcie +
             static_cast<double>(w.reduce_calls) * pc.reduce_pcie;
  return t;
}

double GpuModel::serial_s(const PlfWorkload& w) const {
  const double cycles =
      w.serial_cycles + static_cast<double>(w.tm_builds) * base_.tm_build_cycles;
  return cycles * sys_->serial_slowdown / sys_->freq_hz;
}

double frequency_scaled(double seconds, const SystemConfig& sys,
                        const SystemConfig& baseline) {
  return seconds * sys.freq_hz / baseline.freq_hz;
}

}  // namespace plf::arch
