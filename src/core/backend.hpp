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
//       closed by the root reduction (core/plan.hpp), the engine's only way
//       in; it returns the log likelihood. The default implementation loops
//       ops through the per-call entries, so every backend is plan-capable
//       and bit-identical to the per-call structure from day one; fused
//       backends override it to amortize synchronization across a level.
//       PerCallBackend pins any backend to that default.
#pragma once

#include <cstddef>
#include <string>

#include "core/kernels.hpp"
#include "core/plan.hpp"
#include "par/thread_pool.hpp"

namespace plf::core {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual std::string name() const = 0;

  /// Whether the backend forwards compacted kernel invocations faithfully —
  /// see DownArgs::site_index and ChildArgs::row_of. Backends that stage data
  /// through simulated hardware paths (Cell DMA chunking, GPU global memory)
  /// run the dense path only; the engine falls back automatically and their
  /// run_* entries reject indexed arguments outright.
  virtual bool supports_site_repeats() const { return false; }

  /// Whether engines on different threads may call this backend at the same
  /// time, as the chains of an MC^3 coupler do (exec::InstanceScheduler). The Cell and GPU simulators model
  /// one device owned by one thread, so they refuse.
  virtual bool supports_concurrent_callers() const { return false; }

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
  /// every op's fused down/root + scale kernels and its cumulative scaler
  /// step over its run_m stored rows, respecting level order, then the
  /// plan's root reduction; returns the log likelihood. The default walks
  /// ops in plan order through the per-call entries above: two synchronous
  /// calls per op and one for the reduction, the paper's per-call
  /// structure. Overrides must stay bit-identical to it (per-row math is
  /// partition-invariant; level order keeps the data dependencies; the
  /// reduction keeps the backend's own partition and combine order).
  virtual double run_plan(const KernelSet& ks, PlfPlan& plan);
};

/// The plan tail's two per-site steps (docs/EXECUTION_PLAN.md, "The plan
/// tail"), one definition each for every run_plan.
///
/// Cumulative scaler rows [begin, end) of one op: call right after the op's
/// scale step over the same rows.
void run_cum_step(const CumArgs& a, std::size_t begin, std::size_t end);
/// Root-reduction partial over sites [begin, end), with the upper vector
/// state cleared first (simd::zero_upper): a block may follow AVX kernels or
/// run on a thread whose caller left it dirty.
double run_reduce_step(const KernelSet& ks, const RootReduceArgs& a,
                       std::size_t begin, std::size_t end);

/// Everything on the calling thread (the paper's Baseline system).
class SerialBackend final : public ExecutionBackend {
 public:
  std::string name() const override { return "serial"; }
  bool supports_site_repeats() const override { return true; }
  bool supports_concurrent_callers() const override { return true; }
  void run_down(const KernelSet& ks, const DownArgs& a, std::size_t m) override;
  void run_root(const KernelSet& ks, const RootArgs& a, std::size_t m) override;
  void run_scale(const KernelSet& ks, const ScaleArgs& a, std::size_t m) override;
  double run_root_reduce(const KernelSet& ks, const RootReduceArgs& a,
                         std::size_t m) override;
  /// Ops in plan order through the fused kernel entries (one CLV sweep per
  /// op instead of two), then the reduction.
  double run_plan(const KernelSet& ks, PlfPlan& plan) override;
};

/// OpenMP-style parallel-for over the outermost pattern loop (§3.2): one
/// parallel region per PLF invocation with an implicit barrier at the end —
/// the spawn/sync structure whose overhead drives Fig. 9. run_plan lifts
/// that structure to one region per run of dense levels (or per level with
/// compacted ops), all through one body: static block b fuses down/root +
/// scale + cumulative scalers of every op in the region over the op's
/// static block b of its rows, and the last region also reduces the root
/// over block b of [0, m), so a dense evaluation is one region in all
/// (docs/EXECUTION_PLAN.md has the arithmetic).
class ThreadedBackend final : public ExecutionBackend {
 public:
  explicit ThreadedBackend(par::ThreadPool& pool) : pool_(pool) {}

  std::string name() const override;
  bool supports_site_repeats() const override { return true; }
  /// The pool runs regions from many submitting threads at once.
  bool supports_concurrent_callers() const override { return true; }
  void run_down(const KernelSet& ks, const DownArgs& a, std::size_t m) override;
  void run_root(const KernelSet& ks, const RootArgs& a, std::size_t m) override;
  void run_scale(const KernelSet& ks, const ScaleArgs& a, std::size_t m) override;
  double run_root_reduce(const KernelSet& ks, const RootReduceArgs& a,
                         std::size_t m) override;
  double run_plan(const KernelSet& ks, PlfPlan& plan) override;

  par::ThreadPool& pool() { return pool_; }

 private:
  /// One region reducing [0, m) over the static blocks into `partials`
  /// (pool().size() slots), combined in block order.
  double reduce_region(const KernelSet& ks, const RootReduceArgs& a,
                       std::size_t m, ReducePartial* partials);

  par::ThreadPool& pool_;
};

/// The paper's per-call structure over any backend: forwards the four
/// per-call entries to `inner` but keeps the base run_plan, so every plan op
/// costs two synchronous calls (down/root, then scale) and the reduction one
/// more — on a ThreadedBackend 2·ops + 1 parallel regions, the Fig. 9
/// spawn/sync overhead. Bit-identical to `inner` by the run_plan contract;
/// the A/B reference for the fusion ablation and the 0-ULP twins. Forwards
/// inner's supports_site_repeats and supports_concurrent_callers unchanged.
/// `inner` must outlive it.
class PerCallBackend final : public ExecutionBackend {
 public:
  explicit PerCallBackend(ExecutionBackend& inner) : inner_(inner) {}

  std::string name() const override;
  bool supports_site_repeats() const override {
    return inner_.supports_site_repeats();
  }
  bool supports_concurrent_callers() const override {
    return inner_.supports_concurrent_callers();
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
