#include "core/backend.hpp"

#include <algorithm>
#include <vector>

#include "core/kernel_contracts.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "simd/simd.hpp"

namespace plf::core {

namespace {

/// One plan op's fused down/root + rescale over [begin, end), then its
/// cumulative scaler step on the same rows. Both fused entries are per-site
/// compositions of the unfused kernels, so regrouping (op, chunk) work
/// through this helper stays bit-identical to the per-call loop — the
/// invariant the backend_diff twins pin down.
inline void run_op_fused(const KernelSet& ks, const PlfOp& op,
                         std::size_t begin, std::size_t end) {
  if (op.is_root) {
    ks.root_scale(op.args, op.scale, begin, end);
  } else {
    ks.down_scale(op.args.down, op.scale, begin, end);
  }
  run_cum_step(op.cum, begin, end);
}

/// Per-block partials combined in block order: the deterministic combine of
/// every threaded reduction.
double sum_partials(const ReducePartial* partials, std::size_t blocks) {
  double sum = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) sum += partials[b].value;
  return sum;
}

}  // namespace

void run_cum_step(const CumArgs& a, std::size_t begin, std::size_t end) {
  detail::check_cum(a, begin, end);
  const float* sc = a.ln_scaler;
  double* out = a.out;
  if (a.left.cum != nullptr && a.right.cum != nullptr) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t c = a.site(i);
      out[i] = static_cast<double>(sc[i]) + a.left.at(c) + a.right.at(c);
    }
  } else if (a.left.cum != nullptr || a.right.cum != nullptr) {
    const CumChild& one = a.left.cum != nullptr ? a.left : a.right;
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = static_cast<double>(sc[i]) + one.at(a.site(i));
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = static_cast<double>(sc[i]);
    }
  }
}

double run_reduce_step(const KernelSet& ks, const RootReduceArgs& a,
                       std::size_t begin, std::size_t end) {
  simd::zero_upper();
  return ks.root_reduce(a, begin, end);
}

double ExecutionBackend::run_plan(const KernelSet& ks, PlfPlan& plan) {
  detail::check_plan(plan);
  // Reference executor: ops in plan (level) order through the per-call
  // entries, the paper's per-call structure, then the per-call reduction.
  // Every fused executor must match it bit for bit — and it keeps the
  // per-kernel plf.* timer attribution, since each call still runs under its
  // own scope on the calling thread. The cumulative scaler step runs on the
  // calling thread, timed with the scaler it extends.
  for (const PlfOp& op : plan.ops()) {
    if (op.is_root) {
      PLF_PROF_SCOPE(obs::kTimerCondLikeRoot);
      run_root(ks, op.args, op.run_m);
    } else {
      PLF_PROF_SCOPE(obs::kTimerCondLikeDown);
      run_down(ks, op.args.down, op.run_m);
    }
    {
      PLF_PROF_SCOPE(obs::kTimerCondLikeScaler);
      run_scale(ks, op.scale, op.run_m);
      run_cum_step(op.cum, 0, op.run_m);
    }
  }
  PLF_PROF_SCOPE(obs::kTimerRootReduce);
  return run_root_reduce(ks, plan.reduce(), plan.m());
}

void SerialBackend::run_down(const KernelSet& ks, const DownArgs& a,
                             std::size_t m) {
  ks.down(a, 0, m);
}
void SerialBackend::run_root(const KernelSet& ks, const RootArgs& a,
                             std::size_t m) {
  ks.root(a, 0, m);
}
void SerialBackend::run_scale(const KernelSet& ks, const ScaleArgs& a,
                              std::size_t m) {
  ks.scale(a, 0, m);
}
double SerialBackend::run_root_reduce(const KernelSet& ks,
                                      const RootReduceArgs& a, std::size_t m) {
  return run_reduce_step(ks, a, 0, m);
}

double SerialBackend::run_plan(const KernelSet& ks, PlfPlan& plan) {
  detail::check_plan(plan);
  // Plan order through the fused entries: one CLV sweep per op (down/root +
  // rescale + cumulative scalers in the same pass). The rescale time lands in
  // the down/root timer — that is the point of fusion; there is no separate
  // scaler pass left.
  for (const PlfOp& op : plan.ops()) {
    if (op.is_root) {
      PLF_PROF_SCOPE(obs::kTimerCondLikeRoot);
      run_op_fused(ks, op, 0, op.run_m);
    } else {
      PLF_PROF_SCOPE(obs::kTimerCondLikeDown);
      run_op_fused(ks, op, 0, op.run_m);
    }
  }
  PLF_PROF_SCOPE(obs::kTimerRootReduce);
  return run_reduce_step(ks, plan.reduce(), 0, plan.m());
}

std::string ThreadedBackend::name() const {
  return "threads(" + std::to_string(pool_.size()) + ")";
}

void ThreadedBackend::run_down(const KernelSet& ks, const DownArgs& a,
                               std::size_t m) {
  pool_.parallel_for(0, m, [&](par::Range r, std::size_t) {
    ks.down(a, r.begin, r.end);
  });
}

void ThreadedBackend::run_root(const KernelSet& ks, const RootArgs& a,
                               std::size_t m) {
  pool_.parallel_for(0, m, [&](par::Range r, std::size_t) {
    ks.root(a, r.begin, r.end);
  });
}

void ThreadedBackend::run_scale(const KernelSet& ks, const ScaleArgs& a,
                                std::size_t m) {
  pool_.parallel_for(0, m, [&](par::Range r, std::size_t) {
    ks.scale(a, r.begin, r.end);
  });
}

double ThreadedBackend::run_root_reduce(const KernelSet& ks,
                                        const RootReduceArgs& a,
                                        std::size_t m) {
  std::vector<ReducePartial> partials(pool_.size());
  return reduce_region(ks, a, m, partials.data());
}

double ThreadedBackend::reduce_region(const KernelSet& ks,
                                      const RootReduceArgs& a, std::size_t m,
                                      ReducePartial* partials) {
  // Deterministic for a fixed thread count: static partitioning with the
  // partial sums combined in block order.
  pool_.parallel_for(
      0, m,
      [&](par::Range r, std::size_t block) {
        partials[block].value = run_reduce_step(ks, a, r.begin, r.end);
      },
      par::Schedule::kStatic);
  return sum_partials(partials, pool_.size());
}

double ThreadedBackend::run_plan(const KernelSet& ks, PlfPlan& plan) {
  detail::check_plan(plan);
  // Two fusion regimes, both exact because every kernel is per-row
  // elementwise: row r of an op's output depends only on one row of each
  // child (and rescaling and the cumulative scaler step are per-row), so for
  // a FIXED chunk partition any regrouping of (op, chunk) work onto workers
  // computes bit-identical results, in any order that keeps each chunk's
  // ops in level order.
  //
  //  - Vertical: a maximal run of levels whose ops are all dense and
  //    full-width executes as ONE parallel region over [0, m): each worker
  //    runs the entire op chain — down/root + scale + cum per op, in plan
  //    order — over its own site chunk. A dense op reads a dense in-run
  //    child at the same site, so no worker ever reads a chunk another
  //    worker wrote and no intra-run barrier is needed at all: a k-node
  //    dirty path costs 1 region instead of per-call's 2k, and a child's
  //    chunk is still cache-hot when the parent op consumes it.
  //  - Horizontal: a level containing repeat-compacted ops cannot cross the
  //    next level without a barrier: a parent reads a compacted child's rows
  //    through its class map (ChildArgs::row_of), which can land in any
  //    worker's chunk, so the region's end-of-level barrier must complete
  //    the child first. Such a level concatenates its ops into one iteration
  //    space (prefix sums over run_m) and fuses down+scale+cum per segment —
  //    1 region per level vs per-call's 2 per op.
  //
  // The root reduction closes the plan. The root is dense and alone on the
  // last level, so the last run is vertical, and its region also reduces
  // each static block right after the root op wrote it: the same blocks and
  // block-order combine as run_root_reduce, hence the same bits, without a
  // region of its own. Only a plan with no ops opens a reduce-only region.
  const std::vector<PlfOp>& ops = plan.ops();
  ReducePartial* partials = plan.reduce_partials(pool_.size());
  bool reduced = false;
  std::vector<std::size_t> offs;
  std::size_t level = 0;
  while (level < plan.n_levels()) {
    // Extend the vertical run [level, vend): dense full-width levels only.
    std::size_t vend = level;
    for (; vend < plan.n_levels(); ++vend) {
      bool dense = true;
      for (std::size_t i = plan.level_begin(vend); i < plan.level_end(vend);
           ++i) {
        if (ops[i].repeats != nullptr || ops[i].run_m != plan.m()) {
          dense = false;
          break;
        }
      }
      if (!dense) break;
    }

    if (vend > level) {
      const std::size_t ob = plan.level_begin(level);
      const std::size_t oe = plan.level_end(vend - 1);
      const bool last = vend == plan.n_levels();
      for (std::size_t l = level; l < vend; ++l) {
        PLF_PROF_COUNT(obs::kCounterPlanLevels, 1);
        PLF_PROF_COUNT(obs::kCounterPlanOps,
                       plan.level_end(l) - plan.level_begin(l));
      }
      // Per-call opens 2 regions per op (+1 for the reduction this run
      // absorbs when it is the last).
      PLF_PROF_COUNT(obs::kCounterPlanRegionsSaved,
                     2 * (oe - ob) - (last ? 0 : 1));
      {
        PLF_PROF_SCOPE(obs::kTimerPlanLevel);
        pool_.parallel_for(
            0, plan.m(),
            [&](par::Range r, std::size_t block) {
              for (std::size_t i = ob; i < oe; ++i) {
                run_op_fused(ks, ops[i], r.begin, r.end);
              }
              if (last) {
                partials[block].value =
                    run_reduce_step(ks, plan.reduce(), r.begin, r.end);
              }
            },
            par::Schedule::kStatic);
      }
      reduced = last;
      level = vend;
      continue;
    }

    // Horizontal: this level holds compacted (or partial-width) ops.
    const std::size_t lb = plan.level_begin(level);
    const std::size_t n_ops = plan.level_end(level) - lb;
    offs.assign(n_ops + 1, 0);
    for (std::size_t i = 0; i < n_ops; ++i) {
      offs[i + 1] = offs[i] + ops[lb + i].run_m;
    }
    const std::size_t total = offs[n_ops];
    PLF_PROF_COUNT(obs::kCounterPlanLevels, 1);
    PLF_PROF_COUNT(obs::kCounterPlanOps, n_ops);
    PLF_PROF_COUNT(obs::kCounterPlanRegionsSaved, 2 * n_ops - 1);
    ++level;
    if (total == 0) continue;

    {
      PLF_PROF_SCOPE(obs::kTimerPlanLevel);
      pool_.parallel_for(0, total, [&](par::Range r, std::size_t) {
        // First op whose [offs[i], offs[i+1]) range contains r.begin.
        std::size_t i =
            static_cast<std::size_t>(
                std::upper_bound(offs.begin(), offs.end(), r.begin) -
                offs.begin()) -
            1;
        for (std::size_t pos = r.begin; pos < r.end; ++i) {
          const PlfOp& op = ops[lb + i];
          const std::size_t seg_end = std::min(r.end, offs[i + 1]);
          const std::size_t b = pos - offs[i];
          const std::size_t e = seg_end - offs[i];
          run_op_fused(ks, op, b, e);
          pos = seg_end;
        }
      });
    }
  }

  if (!reduced) {
    PLF_PROF_SCOPE(obs::kTimerRootReduce);
    return reduce_region(ks, plan.reduce(), plan.m(), partials);
  }
  return sum_partials(partials, pool_.size());
}

std::string PerCallBackend::name() const {
  return "percall(" + inner_.name() + ")";
}

void PerCallBackend::run_down(const KernelSet& ks, const DownArgs& a,
                              std::size_t m) {
  inner_.run_down(ks, a, m);
}
void PerCallBackend::run_root(const KernelSet& ks, const RootArgs& a,
                              std::size_t m) {
  inner_.run_root(ks, a, m);
}
void PerCallBackend::run_scale(const KernelSet& ks, const ScaleArgs& a,
                               std::size_t m) {
  inner_.run_scale(ks, a, m);
}
double PerCallBackend::run_root_reduce(const KernelSet& ks,
                                       const RootReduceArgs& a,
                                       std::size_t m) {
  return inner_.run_root_reduce(ks, a, m);
}

}  // namespace plf::core
