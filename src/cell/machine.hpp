// The full Cell/BE system simulator: one PPE coordinating N SPEs.
//
// Implements core::ExecutionBackend, so a PlfEngine can run MrBayes-style
// likelihood evaluations "on the Cell": every PLF invocation is partitioned
// evenly across the SPEs (first-level partitioning, §3.3), triggered through
// the mailboxes, executed by the SPU FSMs with LS chunking + double
// buffering, and completed when the PPE observes every SPE's DMA
// notification (busy-wait, as the paper does).
//
// Results are bit-identical to running the same kernel variant on the host;
// simulated time accumulates on a virtual clock and is reported through
// `simulated_seconds()` / `stats()` for the scalability and breakdown
// benches (Figs. 10 and 12).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cell/spu.hpp"
#include "core/backend.hpp"
#include "util/clock.hpp"

namespace plf::cell {

/// System-level parameters (PS3 vs QS20 differ in SPE count; the PPE slowdown
/// models the in-order PPE's weak scalar performance for Fig. 12).
struct CellConfig {
  std::string name = "CellBE";
  std::size_t n_spes = 6;            ///< PS3 exposes 6; the QS20 blade 16
  SpuSimd simd = SpuSimd::kColumnWise;
  SpuTimings spu;
  DmaTimings dma;
  MailboxTimings mailbox;
  /// PPE busy-wait poll granularity for SPE completion notifications.
  double ppe_poll_s = 0.2e-6;
};

struct CellRunStats {
  std::uint64_t plf_invocations = 0;
  double simulated_plf_s = 0.0;   ///< virtual seconds inside PLF offloads
  double spu_compute_s = 0.0;     ///< summed SPU busy time
  double spu_dma_wait_s = 0.0;    ///< summed SPU stall time
  std::uint64_t mailbox_messages = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t dma_bytes = 0;
};

class CellMachine final : public core::ExecutionBackend {
 public:
  explicit CellMachine(const CellConfig& config);

  std::string name() const override;

  // Dense per-call offloads only (supports_site_repeats stays false): the
  // SPE double-buffered DMA pipeline chunks contiguous pattern blocks (no
  // site-index indirection), and each offload is one mailbox round trip —
  // batching a plan would need a new SPU command protocol, so this backend
  // runs plans through the default per-op loop.

  void run_down(const core::KernelSet& ks, const core::DownArgs& a,
                std::size_t m) override;
  void run_root(const core::KernelSet& ks, const core::RootArgs& a,
                std::size_t m) override;
  void run_scale(const core::KernelSet& ks, const core::ScaleArgs& a,
                 std::size_t m) override;
  double run_root_reduce(const core::KernelSet& ks,
                         const core::RootReduceArgs& a, std::size_t m) override;

  const CellConfig& config() const { return config_; }
  /// Aggregate statistics (includes per-SPE DMA counters).
  CellRunStats stats() const;
  void reset_stats();

  /// Simulated seconds spent in offloaded PLF work so far.
  double simulated_seconds() const { return clock_.now(); }

  /// Run one offload with an explicit SPE count (scalability studies use
  /// n = 1..16 on the same machine). Returns the simulated duration.
  double offload(SpuCommand cmd, const SpuJob& proto, std::size_t m,
                 std::size_t n_spes, double* reduce_out = nullptr);

 private:
  CellConfig config_;
  std::vector<std::unique_ptr<Spu>> spes_;
  VirtualClock clock_;
  CellRunStats stats_;
};

}  // namespace plf::cell
