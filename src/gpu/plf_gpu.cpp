#include "gpu/plf_gpu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/kernel_contracts.hpp"
#include "core/kernel_entries.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "phylo/dna.hpp"
#include "simd/simd.hpp"
#include "util/error.hpp"

namespace plf::gpu {

namespace {

/// Mirror the cumulative run stats into the global metrics registry. The
/// kernel/PCIe seconds are virtual-clock values, published as gauges (never
/// wall-clock timers); pcie_s is this backend's Fig. 12 "transfer" column.
void publish_gpu_metrics([[maybe_unused]] const GpuRunStats& s,
                         [[maybe_unused]] std::uint64_t h2d_bytes,
                         [[maybe_unused]] std::uint64_t d2h_bytes) {
  PLF_PROF_GAUGE(obs::kGaugeGpuKernelSimSeconds, s.kernel_s);
  PLF_PROF_GAUGE(obs::kGaugeGpuPcieSimSeconds, s.pcie_s);
  PLF_PROF_GAUGE(obs::kGaugeGpuH2dBytes, static_cast<double>(h2d_bytes));
  PLF_PROF_GAUGE(obs::kGaugeGpuD2hBytes, static_cast<double>(d2h_bytes));
  PLF_PROF_GAUGE(obs::kGaugeTransferSimSeconds, s.pcie_s);
  PLF_PROF_GAUGE(obs::kGaugeGpuFusedOps, static_cast<double>(s.plan_fused_ops));
  PLF_PROF_GAUGE(obs::kGaugeGpuPcieBytesSaved,
                 static_cast<double>(s.pcie_bytes_saved));
}

/// Inner product of one transition-matrix row with one rate array, in the
/// arithmetic order of the corresponding host kernel (so results are
/// bit-identical): sequential for entry-parallel (the scalar reference
/// order), pairwise tree for reduction-parallel (the hsum order).
inline float row_dot(const float* row, const float* v, ThreadScheme scheme) {
  if (scheme == ThreadScheme::kEntryParallel) {
    return row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3];
  }
  return (row[0] * v[0] + row[1] * v[1]) + (row[2] * v[2] + row[3] * v[3]);
}

struct DevChild {
  DevPtr cl;      // internal child
  DevPtr mask;    // tip child
  DevPtr tp;      // tip child
  DevPtr pm;      // row-major matrices (internal child)
  bool tip = false;
};

}  // namespace

std::string to_string(ThreadScheme s) {
  return s == ThreadScheme::kEntryParallel ? "entry-parallel (approach ii)"
                                           : "reduction-parallel (approach i)";
}

GpuPlf::GpuPlf(const GpuPlfConfig& config)
    : config_(config),
      mem_(config.device.global_memory_bytes, config.pcie),
      launcher_(config.device) {}

std::string GpuPlf::name() const {
  return config_.device.name + "(" + std::to_string(config_.launch.blocks) +
         "x" + std::to_string(config_.launch.threads_per_block) + ", " +
         to_string(config_.scheme) + ")";
}

KernelProfile GpuPlf::down_profile() const {
  KernelProfile p;
  p.flops_per_elem = 15.0;  // two 4-element inner products + multiply
  p.bytes_per_elem = 36.0;  // 8 cl floats + matrix row (cached) + 1 store
  if (config_.scheme == ThreadScheme::kReductionParallel) {
    // Approach (i): tree reductions need __syncthreads() and conditionals,
    // and the partial-result traffic through shared memory conflicts.
    // Constants calibrated so approach (ii) is ~2.5x faster at the PLF level
    // (the paper's measurement).
    p.syncs_per_elem = 0.25;
    p.divergence_factor = 2.0;
    p.coalescing_ratio = 2.5;
  }
  return p;
}

double GpuPlf::down_like(const core::DownArgs& a, std::size_t m,
                         const core::RootArgs* root,
                         const core::ScaleArgs* fused_scale) {
  // Dense-only backend: the three-level grid partitioning and the coalesced
  // device layout address contiguous pattern blocks; a site-index or
  // child-row indirection would break both, so the engine must fall back
  // (this backend does not override supports_site_repeats).
  PLF_CHECK(a.site_index == nullptr && a.left.row_of == nullptr &&
                a.right.row_of == nullptr,
            "GpuPlf is a dense-only backend: site_index/row_of rejected");
  const std::size_t K = a.K;
  const ThreadScheme scheme = config_.scheme;
  const double t_begin = clock_.now();
  const double pcie_before = mem_.stats().pcie_busy_s;

  // ---- Global partitioning (level (i) of the three-level scheme). ----
  const std::size_t cl_pp = K * 4 * sizeof(float);
  auto child_pp = [&](const core::ChildArgs& ch) {
    return ch.is_tip() ? std::size_t{1} : cl_pp;
  };
  auto child_static = [&](const core::ChildArgs& ch) {
    return ch.is_tip() ? phylo::kNumMasks * K * 4 * sizeof(float)
                       : K * 16 * sizeof(float);
  };
  const std::size_t per_pattern =
      child_pp(a.left) + child_pp(a.right) + cl_pp +
      (root != nullptr ? 1 : 0) +
      (fused_scale != nullptr ? sizeof(float) : 0);  // device scaler row
  std::size_t static_bytes = child_static(a.left) + child_static(a.right);
  if (root != nullptr) {
    static_bytes += phylo::kNumMasks * K * 4 * sizeof(float);
  }
  PLF_CHECK(static_bytes + per_pattern <= mem_.capacity(),
            "device too small for even one pattern");
  const std::size_t part_max =
      std::min(m, (mem_.capacity() - static_bytes) / per_pattern);

  double t = t_begin;
  std::size_t partitions = 0;
  for (std::size_t p0 = 0; p0 < m; p0 += part_max, ++partitions) {
    const std::size_t pm_count = std::min(part_max, m - p0);

    // ---- Stage inputs over PCIe. ----
    DevChild dev[2];
    const core::ChildArgs* hosts[2] = {&a.left, &a.right};
    for (int s = 0; s < 2; ++s) {
      const core::ChildArgs& ch = *hosts[s];
      if (ch.is_tip()) {
        dev[s].tip = true;
        dev[s].mask = mem_.malloc(pm_count);
        dev[s].tp = mem_.malloc(phylo::kNumMasks * K * 4 * sizeof(float));
        t = mem_.h2d(dev[s].mask, 0, ch.mask + p0, pm_count, t);
        t = mem_.h2d(dev[s].tp, 0, ch.tp,
                     phylo::kNumMasks * K * 4 * sizeof(float), t);
      } else {
        dev[s].cl = mem_.malloc(pm_count * cl_pp);
        dev[s].pm = mem_.malloc(K * 16 * sizeof(float));
        t = mem_.h2d(dev[s].cl, 0, ch.cl + p0 * K * 4, pm_count * cl_pp, t);
        t = mem_.h2d(dev[s].pm, 0, ch.p, K * 16 * sizeof(float), t);
      }
    }
    DevPtr dev_out_mask, dev_out_tp;
    if (root != nullptr) {
      dev_out_mask = mem_.malloc(pm_count);
      dev_out_tp = mem_.malloc(phylo::kNumMasks * K * 4 * sizeof(float));
      t = mem_.h2d(dev_out_mask, 0, root->out_mask + p0, pm_count, t);
      t = mem_.h2d(dev_out_tp, 0, root->out_tp,
                   phylo::kNumMasks * K * 4 * sizeof(float), t);
    }
    DevPtr dev_out = mem_.malloc(pm_count * cl_pp);

    // ---- Launch (functional + timed). ----
    const std::size_t n_elems = pm_count * K * 4;
    float* out = mem_.as_floats(dev_out);
    const float* cl[2];
    const std::uint8_t* mask[2];
    const float* tp[2];
    const float* pmat[2];
    for (int s = 0; s < 2; ++s) {
      cl[s] = dev[s].tip ? nullptr : mem_.as_floats(dev[s].cl);
      mask[s] = dev[s].tip ? mem_.bytes(dev[s].mask) : nullptr;
      tp[s] = dev[s].tip ? mem_.as_floats(dev[s].tp) : nullptr;
      pmat[s] = dev[s].tip ? nullptr : mem_.as_floats(dev[s].pm);
    }
    const std::uint8_t* omask =
        root != nullptr ? mem_.bytes(dev_out_mask) : nullptr;
    const float* otp = root != nullptr ? mem_.as_floats(dev_out_tp) : nullptr;

    const std::size_t total_threads = config_.launch.total_threads();
    launcher_.execute(config_.launch, [&](std::size_t b, std::size_t th) {
      // Grid-stride over output elements; one thread per likelihood-vector
      // entry (approach ii) or per cooperative group's result slot
      // (approach i — functionally identical, different arithmetic order).
      for (std::size_t idx = b * config_.launch.threads_per_block + th;
           idx < n_elems; idx += total_threads) {
        const std::size_t c = idx / (K * 4);
        const std::size_t k = (idx / 4) % K;
        const std::size_t i = idx % 4;
        float vals[2];
        for (int s = 0; s < 2; ++s) {
          if (mask[s] != nullptr) {
            vals[s] = tp[s][static_cast<std::size_t>(mask[s][c]) * K * 4 +
                            k * 4 + i];
          } else {
            vals[s] = row_dot(pmat[s] + k * 16 + i * 4, cl[s] + c * K * 4 + k * 4,
                              scheme);
          }
        }
        float v = vals[0] * vals[1];
        if (omask != nullptr) {
          v *= otp[static_cast<std::size_t>(omask[c]) * K * 4 + k * 4 + i];
        }
        out[idx] = v;
      }
    });
    const double kt = launcher_.kernel_time(config_.launch, n_elems,
                                            down_profile());
    t += kt;
    stats_.kernel_s += kt;
    ++stats_.kernel_launches;
    PLF_PROF_COUNT(obs::kCounterGpuKernelLaunches, 1);

    // ---- Fused scale (plan dispatch): rescale the block while it is still
    // device-resident, so the per-call H2D+D2H round trip between the
    // down/root and scale kernels never happens. ----
    DevPtr dev_sc;
    if (fused_scale != nullptr) {
      dev_sc = mem_.malloc(pm_count * sizeof(float));
      t += scale_on_device(out, mem_.as_floats(dev_sc), pm_count, K);
    }

    // ---- Results back to the host. ----
    t = mem_.d2h(a.out + p0 * K * 4, dev_out, 0, pm_count * cl_pp, t);
    if (fused_scale != nullptr) {
      t = mem_.d2h(fused_scale->ln_scaler + p0, dev_sc, 0,
                   pm_count * sizeof(float), t);
      mem_.free(dev_sc);
    }

    for (int s = 0; s < 2; ++s) {
      if (dev[s].tip) {
        mem_.free(dev[s].mask);
        mem_.free(dev[s].tp);
      } else {
        mem_.free(dev[s].cl);
        mem_.free(dev[s].pm);
      }
    }
    if (root != nullptr) {
      mem_.free(dev_out_mask);
      mem_.free(dev_out_tp);
    }
    mem_.free(dev_out);
  }

  stats_.global_partitions += partitions - 1;
  if (fused_scale != nullptr) {
    ++stats_.plan_fused_ops;
    // The per-call path would H2D the whole CLV block into run_scale and D2H
    // it back out again; fusion eliminates both transfers.
    stats_.pcie_bytes_saved += 2 * m * cl_pp;
  }
  ++stats_.plf_invocations;
  stats_.pcie_s += mem_.stats().pcie_busy_s - pcie_before;
  stats_.h2d_bytes = mem_.stats().h2d_bytes;
  stats_.d2h_bytes = mem_.stats().d2h_bytes;
  publish_gpu_metrics(stats_, mem_.stats().h2d_bytes, mem_.stats().d2h_bytes);
  clock_.advance_to(t);
  return t - t_begin;
}

void GpuPlf::run_down(const core::KernelSet& /*ks*/, const core::DownArgs& a,
                      std::size_t m) {
  down_like(a, m, nullptr);
}

void GpuPlf::run_root(const core::KernelSet& /*ks*/, const core::RootArgs& a,
                      std::size_t m) {
  down_like(a.down, m, &a);
}

void GpuPlf::run_scale(const core::KernelSet& /*ks*/, const core::ScaleArgs& a,
                       std::size_t m) {
  const std::size_t K = a.K;
  const double pcie_before = mem_.stats().pcie_busy_s;
  double t = clock_.now();

  const std::size_t cl_bytes = m * K * 4 * sizeof(float);
  DevPtr dev_cl = mem_.malloc(cl_bytes);
  DevPtr dev_sc = mem_.malloc(m * sizeof(float));
  t = mem_.h2d(dev_cl, 0, a.cl, cl_bytes, t);

  t += scale_on_device(mem_.as_floats(dev_cl), mem_.as_floats(dev_sc), m, K);

  t = mem_.d2h(a.cl, dev_cl, 0, cl_bytes, t);
  t = mem_.d2h(a.ln_scaler, dev_sc, 0, m * sizeof(float), t);
  mem_.free(dev_cl);
  mem_.free(dev_sc);

  ++stats_.plf_invocations;
  stats_.pcie_s += mem_.stats().pcie_busy_s - pcie_before;
  publish_gpu_metrics(stats_, mem_.stats().h2d_bytes, mem_.stats().d2h_bytes);
  clock_.advance_to(t);
}

double GpuPlf::scale_on_device(float* cl, float* sc, std::size_t m,
                               std::size_t K) {
  const std::size_t total_threads = config_.launch.total_threads();
  launcher_.execute(config_.launch, [&](std::size_t b, std::size_t th) {
    for (std::size_t c = b * config_.launch.threads_per_block + th; c < m;
         c += total_threads) {
      // The exact rescale (core::ScaleArgs): the same bits as every host
      // kernel.
      sc[c] =
          static_cast<float>(core::detail::scale_row(cl + c * K * 4, K * 4));
    }
  });
  // "The same parallelization approach is used in the three PLFs" (§3.4):
  // the reduction-parallel scheme pays its sync/divergence cost here too.
  KernelProfile prof;
  // Scan + rescale, costed as the paper's per-row log (the timing model
  // reproduces its 8800 GT).
  prof.flops_per_elem = static_cast<double>(K) * 8.0 + 30.0;
  prof.bytes_per_elem = static_cast<double>(K) * 32.0 + 4.0;
  if (config_.scheme == ThreadScheme::kReductionParallel) {
    prof.syncs_per_elem = 0.25;
    prof.divergence_factor = 2.0;
    prof.coalescing_ratio = 2.5;
  }
  const double kt = launcher_.kernel_time(config_.launch, m, prof);
  stats_.kernel_s += kt;
  ++stats_.kernel_launches;
  PLF_PROF_COUNT(obs::kCounterGpuKernelLaunches, 1);
  return kt;
}

double GpuPlf::run_plan(const core::KernelSet& ks, core::PlfPlan& plan) {
  core::detail::check_plan(plan);
  // Level order is all the dependency structure requires; within a level the
  // batch runs in plan order. Each op goes through the fused staged path —
  // one H2D of inputs, down/root + scale kernels back to back on the
  // device-resident block, one D2H of the scaled result and its scaler row —
  // and the host folds the returned scaler row into the op's cumulative
  // row. The device reduction closes the plan.
  for (std::size_t level = 0; level < plan.n_levels(); ++level) {
    PLF_PROF_SCOPE(obs::kTimerPlanLevel);
    for (std::size_t i = plan.level_begin(level); i < plan.level_end(level);
         ++i) {
      const core::PlfOp& op = plan.ops()[i];
      PLF_CHECK(op.repeats == nullptr,
                "GpuPlf is a dense-only backend: compacted op rejected");
      down_like(op.args.down, op.run_m, op.is_root ? &op.args : nullptr,
                &op.scale);
      core::run_cum_step(op.cum, 0, op.run_m);
    }
  }
  PLF_PROF_SCOPE(obs::kTimerRootReduce);
  return run_root_reduce(ks, plan.reduce(), plan.m());
}

double GpuPlf::run_root_reduce(const core::KernelSet& /*ks*/,
                               const core::RootReduceArgs& a, std::size_t m) {
  const std::size_t K = a.K;
  const double pcie_before = mem_.stats().pcie_busy_s;
  double t = clock_.now();

  const std::size_t cl_bytes = m * K * 4 * sizeof(float);
  DevPtr dev_cl = mem_.malloc(cl_bytes);
  DevPtr dev_sc = mem_.malloc(m * sizeof(std::int32_t));
  DevPtr dev_w = mem_.malloc(m * sizeof(std::uint32_t));
  t = mem_.h2d(dev_cl, 0, a.cl, cl_bytes, t);
  t = mem_.h2d(dev_sc, 0, a.scaler_count, m * sizeof(std::int32_t), t);
  t = mem_.h2d(dev_w, 0, a.weights, m * sizeof(std::uint32_t), t);
  DevPtr dev_const;
  const bool has_pinv = a.const_lik != nullptr && a.p_invariant > 0.0f;
  if (has_pinv) {
    dev_const = mem_.malloc(m * sizeof(float));
    t = mem_.h2d(dev_const, 0, a.const_lik, m * sizeof(float), t);
  }

  // One block per contiguous pattern slice; in-block tree reduction, block
  // partials copied back and summed on the host in block order
  // (deterministic for a fixed launch config).
  const float* cl = mem_.as_floats(dev_cl);
  const std::int32_t* sc =
      reinterpret_cast<const std::int32_t*>(mem_.bytes(dev_sc));
  const std::uint32_t* w =
      reinterpret_cast<const std::uint32_t*>(mem_.bytes(dev_w));
  core::RootReduceArgs dev_args = a;  // +I parameters, device const_lik
  dev_args.const_lik = has_pinv ? mem_.as_floats(dev_const) : nullptr;
  const std::size_t blocks = config_.launch.blocks;
  const std::size_t per_block = (m + blocks - 1) / blocks;
  std::vector<double> partials(blocks, 0.0);
  const double inv_k = 1.0 / static_cast<double>(K);
  simd::zero_upper();  // std::log enters through a legacy-SSE glibc wrapper
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * per_block;
    const std::size_t hi = std::min(m, lo + per_block);
    double acc = 0.0;
    for (std::size_t c = lo; c < hi; ++c) {
      const float* v = cl + c * K * 4;
      double site = 0.0;
      for (std::size_t k = 0; k < K; ++k) {
        site += static_cast<double>(a.pi[0]) * v[k * 4 + 0] +
                static_cast<double>(a.pi[1]) * v[k * 4 + 1] +
                static_cast<double>(a.pi[2]) * v[k * 4 + 2] +
                static_cast<double>(a.pi[3]) * v[k * 4 + 3];
      }
      acc += static_cast<double>(w[c]) *
             core::site_log_likelihood(site * inv_k, sc[c], dev_args, c);
    }
    partials[b] = acc;
  }

  KernelProfile prof;
  prof.flops_per_elem = static_cast<double>(K) * 8.0 + 40.0;
  prof.bytes_per_elem = static_cast<double>(K) * 16.0 + 12.0;
  prof.syncs_per_elem = 0.02;  // per-block tree reduction amortized
  if (config_.scheme == ThreadScheme::kReductionParallel) {
    prof.syncs_per_elem = 0.25;
    prof.divergence_factor = 2.0;
    prof.coalescing_ratio = 2.5;
  }
  const double kt = launcher_.kernel_time(config_.launch, m, prof);
  t += kt;
  stats_.kernel_s += kt;
  ++stats_.kernel_launches;
  PLF_PROF_COUNT(obs::kCounterGpuKernelLaunches, 1);

  // Block partials d2h.
  aligned_vector<double> host_partials(blocks);
  DevPtr dev_p = mem_.malloc(blocks * sizeof(double));
  std::memcpy(mem_.bytes(dev_p), partials.data(), blocks * sizeof(double));
  t = mem_.d2h(host_partials.data(), dev_p, 0, blocks * sizeof(double), t);
  mem_.free(dev_p);
  mem_.free(dev_cl);
  mem_.free(dev_sc);
  mem_.free(dev_w);
  if (has_pinv) mem_.free(dev_const);

  double sum = 0.0;
  for (double p : host_partials) sum += p;

  ++stats_.plf_invocations;
  stats_.pcie_s += mem_.stats().pcie_busy_s - pcie_before;
  publish_gpu_metrics(stats_, mem_.stats().h2d_bytes, mem_.stats().d2h_bytes);
  clock_.advance_to(t);
  return sum;
}

CoalescingReport GpuPlf::analyze_cl_loads(ThreadScheme scheme, std::size_t m,
                                          std::size_t K) const {
  CoalescingAnalyzer analyzer;
  const std::uint64_t base = 0;  // cl array assumed segment-aligned
  const std::size_t lanes = kWarpSize;
  const std::size_t steps = std::min<std::size_t>(m * K * 4 / lanes, 64);

  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<std::uint64_t> addrs(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (scheme == ThreadScheme::kEntryParallel) {
        // One thread per likelihood-vector entry: lane l of warp `step`
        // loads element (step*32 + l) — dense, coalesced.
        addrs[l] = base + (step * lanes + l) * sizeof(float);
      } else {
        // Cooperative groups (Fig. 8b): 16 threads per pattern, thread t
        // loads rate-array element t%4 for inner product t/4 — 4-way
        // replicated addresses within 16-float windows.
        const std::size_t pattern = step * 2 + l / 16;
        const std::size_t j = l % 4;
        const std::size_t k = (step % K);
        addrs[l] = base + (pattern * K * 4 + k * 4 + j) * sizeof(float);
      }
    }
    analyzer.record(addrs, sizeof(float));
  }
  return analyzer.report();
}

void GpuPlf::reset_stats() {
  stats_ = GpuRunStats{};
  mem_.reset_stats();
}

}  // namespace plf::gpu
