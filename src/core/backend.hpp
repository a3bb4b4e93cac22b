// Execution backends: how one PLF invocation's outermost pattern loop is
// distributed over parallel resources.
//
// "The basic task consists in scheduling and distributing the required
// likelihood vector data structures and loop iterations to the several
// processing elements" (§3.1). A backend receives one kernel invocation over
// m patterns and decides the partitioning: serially, over a thread pool
// (the general-purpose multi-core scheme, §3.2), over simulated SPEs
// (plf::cell) or over a simulated CUDA grid (plf::gpu).
//
// Backends receive work at two grains:
//
//   run_down/run_root/run_scale/run_root_reduce — one kernel invocation,
//       one synchronization per call (the paper's per-call structure whose
//       spawn/sync overhead drives Fig. 9);
//   run_plan — a whole evaluation's dependency-leveled batch of PlfOps
//       (core/plan.hpp), the engine's only way in. The default
//       implementation loops ops through the per-call entries, so every
//       backend is plan-capable and bit-identical to the per-call structure
//       from day one; fused backends override it to amortize synchronization
//       across a level. PerCallBackend pins any backend to that default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/kernels.hpp"
#include "core/plan.hpp"
#include "par/thread_pool.hpp"

namespace plf::core {

/// What a backend can faithfully execute beyond the baseline per-call
/// contract. The engine consults this instead of per-feature virtuals.
enum class Capabilities : std::uint32_t {
  kNone = 0,
  /// Forwards compacted kernel invocations faithfully — see
  /// DownArgs::site_index and ChildArgs::row_of. Backends that stage data
  /// through simulated hardware paths (Cell DMA chunking, GPU global memory)
  /// run the dense path only; the engine falls back automatically and their
  /// run_* entries reject indexed arguments outright.
  kSiteRepeats = 1u << 0,
  /// run_plan dispatches tip-specialized ops (PlfOpKind::kTipTip/kTipInner)
  /// to the lookup-table kernels instead of the generic entries. The engine
  /// only builds pair tables and sets op kinds for backends advertising this
  /// (docs/KERNELS.md); everyone else executes the always-valid generic
  /// argument block, bit-identically.
  kTipKernels = 1u << 1,
};

constexpr Capabilities operator|(Capabilities a, Capabilities b) {
  return static_cast<Capabilities>(static_cast<std::uint32_t>(a) |
                                   static_cast<std::uint32_t>(b));
}

constexpr Capabilities operator&(Capabilities a, Capabilities b) {
  return static_cast<Capabilities>(static_cast<std::uint32_t>(a) &
                                   static_cast<std::uint32_t>(b));
}

constexpr bool has_capability(Capabilities set, Capabilities cap) {
  return (set & cap) != Capabilities::kNone;
}

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual std::string name() const = 0;

  virtual Capabilities capabilities() const { return Capabilities::kNone; }

  virtual void run_down(const KernelSet& ks, const DownArgs& args,
                        std::size_t m) = 0;
  virtual void run_root(const KernelSet& ks, const RootArgs& args,
                        std::size_t m) = 0;
  virtual void run_scale(const KernelSet& ks, const ScaleArgs& args,
                         std::size_t m) = 0;
  /// Full root reduction (must be deterministic for a fixed configuration).
  virtual double run_root_reduce(const KernelSet& ks,
                                 const RootReduceArgs& args, std::size_t m) = 0;

  /// Execute a finalized dependency-leveled batch (see core/plan.hpp):
  /// every op's fused down/root + scale kernels over its run_m stored rows,
  /// respecting level order. The default walks ops in plan order through
  /// the per-call entries above: two synchronous calls per op, the paper's
  /// per-call structure. Overrides must stay bit-identical to it (per-row
  /// math is partition-invariant; level order keeps the data dependencies).
  virtual void run_plan(const KernelSet& ks, const PlfPlan& plan);
};

/// Everything on the calling thread (the paper's Baseline system).
class SerialBackend final : public ExecutionBackend {
 public:
  std::string name() const override { return "serial"; }
  Capabilities capabilities() const override {
    return Capabilities::kSiteRepeats | Capabilities::kTipKernels;
  }
  void run_down(const KernelSet& ks, const DownArgs& a, std::size_t m) override;
  void run_root(const KernelSet& ks, const RootArgs& a, std::size_t m) override;
  void run_scale(const KernelSet& ks, const ScaleArgs& a, std::size_t m) override;
  double run_root_reduce(const KernelSet& ks, const RootReduceArgs& a,
                         std::size_t m) override;
  /// Ops in plan order through the fused + tip-specialized kernel entries
  /// (one CLV sweep per op instead of two).
  void run_plan(const KernelSet& ks, const PlfPlan& plan) override;
};

/// OpenMP-style parallel-for over the outermost pattern loop (§3.2): one
/// parallel region per PLF invocation with an implicit barrier at the end —
/// the spawn/sync structure whose overhead drives Fig. 9. run_plan lifts
/// that structure to one region per dependency level: all of a level's ops
/// are concatenated into a single iteration space and each worker fuses
/// down/root + scale on its chunk, so a node costs ~1/(2·level width) of the
/// former spawn/sync overhead (docs/EXECUTION_PLAN.md has the arithmetic).
class ThreadedBackend final : public ExecutionBackend {
 public:
  explicit ThreadedBackend(par::ThreadPool& pool) : pool_(pool) {}

  std::string name() const override;
  Capabilities capabilities() const override {
    return Capabilities::kSiteRepeats | Capabilities::kTipKernels;
  }
  void run_down(const KernelSet& ks, const DownArgs& a, std::size_t m) override;
  void run_root(const KernelSet& ks, const RootArgs& a, std::size_t m) override;
  void run_scale(const KernelSet& ks, const ScaleArgs& a, std::size_t m) override;
  double run_root_reduce(const KernelSet& ks, const RootReduceArgs& a,
                         std::size_t m) override;
  void run_plan(const KernelSet& ks, const PlfPlan& plan) override;

  par::ThreadPool& pool() { return pool_; }

 private:
  par::ThreadPool& pool_;
};

/// The paper's per-call structure over any backend: forwards the four
/// per-call entries to `inner` but keeps the base run_plan, so every plan op
/// costs two synchronous calls (down/root, then scale) — on a ThreadedBackend
/// two parallel regions per op, the Fig. 9 spawn/sync overhead. Bit-identical
/// to `inner` by the run_plan contract; the A/B reference for the fusion
/// ablation and the 0-ULP twins. Advertises only inner's kSiteRepeats, so the
/// engine never hands it tip-specialized ops. `inner` must outlive it.
class PerCallBackend final : public ExecutionBackend {
 public:
  explicit PerCallBackend(ExecutionBackend& inner) : inner_(inner) {}

  std::string name() const override;
  Capabilities capabilities() const override {
    return inner_.capabilities() & Capabilities::kSiteRepeats;
  }
  void run_down(const KernelSet& ks, const DownArgs& a, std::size_t m) override;
  void run_root(const KernelSet& ks, const RootArgs& a, std::size_t m) override;
  void run_scale(const KernelSet& ks, const ScaleArgs& a, std::size_t m) override;
  double run_root_reduce(const KernelSet& ks, const RootReduceArgs& a,
                         std::size_t m) override;

 private:
  ExecutionBackend& inner_;
};

}  // namespace plf::core
