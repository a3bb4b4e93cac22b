// GPU execution backend for the PLF (the paper's §3.4 CUDA port).
//
// Each PLF invocation is staged exactly like the paper describes: inputs are
// copied to device global memory over PCIe, the kernel is launched over a
// (blocks x threads) grid with three-level partitioning — global partitions
// when the data exceeds device memory, block partitions over the likelihood
// vector, thread partitions within a block — and results are copied back.
// Two thread schemes are implemented:
//
//   kReductionParallel  (approach i, Fig. 8b): a group of threads cooperates
//       on each inner product with tree reductions — many __syncthreads()
//       and conditionals;
//   kEntryParallel      (approach ii, Fig. 8c): one independent thread per
//       likelihood-vector entry, groups of 4 threads spanning one discrete-
//       rate array so accesses coalesce. The paper measured this 2.5x faster
//       at the PLF level and adopted it.
//
// Functional results are identical to the host kernels (entry-parallel
// matches the scalar reference ordering; reduction-parallel matches the
// pairwise/hsum ordering). Time accumulates on a virtual clock split into
// kernel and PCIe components — the decomposition Fig. 12 plots.
#pragma once

#include <string>

#include "core/backend.hpp"
#include "gpu/coalescing.hpp"
#include "gpu/device.hpp"
#include "gpu/device_memory.hpp"
#include "gpu/launch.hpp"
#include "util/clock.hpp"

namespace plf::gpu {

enum class ThreadScheme { kEntryParallel, kReductionParallel };

std::string to_string(ThreadScheme s);

struct GpuPlfConfig {
  DeviceSpec device = DeviceSpec::geforce_8800gt();
  PcieSpec pcie;
  LaunchConfig launch{40, 256};
  ThreadScheme scheme = ThreadScheme::kEntryParallel;
};

struct GpuRunStats {
  std::uint64_t plf_invocations = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t global_partitions = 0;  ///< extra partitions beyond the first
  double kernel_s = 0.0;                ///< simulated device-side time
  double pcie_s = 0.0;                  ///< simulated transfer time
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  // Plan batching (run_plan): ops whose scale stage ran on the CLV block
  // still device-resident from the down/root kernel, and the PCIe traffic
  // that saved versus the per-call path (one H2D + one D2H of the block).
  std::uint64_t plan_fused_ops = 0;
  std::uint64_t pcie_bytes_saved = 0;
};

class GpuPlf final : public core::ExecutionBackend {
 public:
  explicit GpuPlf(const GpuPlfConfig& config);

  std::string name() const override;

  // supports_site_repeats stays false: dense-only (site-index indirection
  // would break the three-level grid partitioning and the coalesced layout),
  // but run_plan fuses each op's scale onto the device-resident down/root
  // output and coalesces the PCIe round trips the per-call path pays between
  // kernels.

  void run_down(const core::KernelSet& ks, const core::DownArgs& a,
                std::size_t m) override;
  void run_root(const core::KernelSet& ks, const core::RootArgs& a,
                std::size_t m) override;
  void run_scale(const core::KernelSet& ks, const core::ScaleArgs& a,
                 std::size_t m) override;
  double run_root_reduce(const core::KernelSet& ks,
                         const core::RootReduceArgs& a, std::size_t m) override;
  double run_plan(const core::KernelSet& ks, core::PlfPlan& plan) override;

  const GpuPlfConfig& config() const { return config_; }
  const GpuRunStats& stats() const { return stats_; }
  void reset_stats();

  /// Total simulated time (kernel + PCIe) so far.
  double simulated_seconds() const { return clock_.now(); }

  /// Replay the conditional-likelihood load addresses of the first warp for
  /// the given scheme and report the coalescing behaviour (the §3.4 layout
  /// argument, testable).
  CoalescingReport analyze_cl_loads(ThreadScheme scheme, std::size_t m,
                                    std::size_t K) const;

 private:
  /// One staged invocation: H2D inputs, down/root kernel, and — when
  /// `fused_scale` is non-null (run_plan) — the scale kernel on the
  /// still-device-resident output before the single D2H, so the per-call
  /// H2D+D2H round trip between the two kernels disappears.
  double down_like(const core::DownArgs& a, std::size_t m,
                   const core::RootArgs* root,
                   const core::ScaleArgs* fused_scale = nullptr);
  /// Device-side rescale of `m` patterns in place (shared by run_scale and
  /// the fused plan path so both orderings are bit-identical). Returns the
  /// simulated kernel time, already accumulated into the stats.
  double scale_on_device(float* cl, float* sc, std::size_t m, std::size_t K);
  KernelProfile down_profile() const;

  GpuPlfConfig config_;
  DeviceMemory mem_;
  KernelLauncher launcher_;
  VirtualClock clock_;
  GpuRunStats stats_;
};

}  // namespace plf::gpu
