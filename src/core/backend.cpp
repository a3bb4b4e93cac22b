#include "core/backend.hpp"

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
  const float* e = a.exponent;
  std::int32_t* out = a.out;
  if (a.left.cum != nullptr && a.right.cum != nullptr) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t c = a.site(i);
      out[i] = static_cast<std::int32_t>(e[i]) + a.left.at(c) + a.right.at(c);
    }
  } else if (a.left.cum != nullptr || a.right.cum != nullptr) {
    const CumChild& one = a.left.cum != nullptr ? a.left : a.right;
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = static_cast<std::int32_t>(e[i]) + one.at(a.site(i));
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = static_cast<std::int32_t>(e[i]);
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
  // Deterministic for a fixed thread count: static blocks with the partial
  // sums combined in block order.
  pool_.parallel_for(0, m, [&](par::Range r, std::size_t block) {
    partials[block].value = run_reduce_step(ks, a, r.begin, r.end);
  });
  return sum_partials(partials, pool_.size());
}

namespace {

/// Whether every op of `level` is dense and full-width.
bool dense_level(const PlfPlan& plan, std::size_t level) {
  for (std::size_t i = plan.level_begin(level); i < plan.level_end(level);
       ++i) {
    const PlfOp& op = plan.ops()[i];
    if (op.repeats != nullptr || op.run_m != plan.m()) return false;
  }
  return true;
}

}  // namespace

double ThreadedBackend::run_plan(const KernelSet& ks, PlfPlan& plan) {
  detail::check_plan(plan);
  // Every kernel is per-row elementwise: row r of an op's output depends
  // only on one row of each child (rescaling and the cumulative scaler step
  // are per-row too), so ANY fixed partition of each op's rows computes
  // bit-identical results, in any order that keeps each row's ops in level
  // order. Each region runs one body: static block b runs every op of the
  // region over static_block(op.run_m, threads, b), in plan order. A dense
  // op's block is the region's own block b of [0, m).
  //
  // A region is a maximal run of dense full-width levels, or one level that
  // holds a compacted (or partial-width) op:
  //
  //  - A dense op reads a dense in-run child at the same site, which block b
  //    itself wrote, so a run of dense levels needs no barrier inside it: a
  //    k-node dirty path costs 1 region instead of per-call's 2k, and a
  //    child's block is still cache-hot when the parent op consumes it.
  //  - A parent reads a compacted child's rows through its class map
  //    (ChildArgs::row_of), which can land in any block, so a level with a
  //    compacted op ends its region: the barrier completes the child before
  //    the next level starts.
  //
  // The root reduction closes the plan. The last region also reduces block b
  // of [0, m): the root op is dense and on the last level, so block b wrote
  // exactly the root rows it reduces, and no other op writes the root. These
  // are the blocks and the block-order combine of run_root_reduce, hence the
  // same bits, without a region of its own. Only a plan with no ops opens a
  // reduce-only region.
  const std::vector<PlfOp>& ops = plan.ops();
  const std::size_t threads = pool_.size();
  ReducePartial* partials = plan.reduce_partials(threads);
  if (plan.n_levels() == 0) {
    PLF_PROF_SCOPE(obs::kTimerRootReduce);
    return reduce_region(ks, plan.reduce(), plan.m(), partials);
  }
  for (std::size_t level = 0; level < plan.n_levels();) {
    std::size_t lend = level;
    while (lend < plan.n_levels() && dense_level(plan, lend)) ++lend;
    if (lend == level) ++lend;
    const std::size_t ob = plan.level_begin(level);
    const std::size_t oe = plan.level_end(lend - 1);
    const bool last = lend == plan.n_levels();
    PLF_PROF_COUNT(obs::kCounterPlanLevels, lend - level);
    PLF_PROF_COUNT(obs::kCounterPlanOps, oe - ob);
    // Per-call opens 2 regions per op (+1 for the reduction the last region
    // absorbs).
    PLF_PROF_COUNT(obs::kCounterPlanRegionsSaved,
                   2 * (oe - ob) - (last ? 0 : 1));
    {
      PLF_PROF_SCOPE(obs::kTimerPlanLevel);
      pool_.parallel_for(0, plan.m(), [&](par::Range r, std::size_t block) {
        for (std::size_t i = ob; i < oe; ++i) {
          const par::Range rows =
              par::static_block(ops[i].run_m, threads, block);
          if (!rows.empty()) run_op_fused(ks, ops[i], rows.begin, rows.end);
        }
        if (last) {
          partials[block].value =
              run_reduce_step(ks, plan.reduce(), r.begin, r.end);
        }
      });
    }
    level = lend;
  }
  return sum_partials(partials, threads);
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
