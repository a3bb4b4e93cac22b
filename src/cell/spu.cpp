#include "cell/spu.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace plf::cell {

namespace {

/// Patterns per chunk are kept multiples of 16 so the 1-byte tip-mask
/// streams stay 16-byte aligned in both main memory and the LS.
constexpr std::size_t kChunkQuantum = 16;

std::size_t child_pattern_bytes(const core::ChildArgs& ch, std::size_t K) {
  // Internal child: K rate arrays of 4 floats; tip child: one mask byte.
  return ch.is_tip() ? 1 : K * 4 * sizeof(float);
}

std::size_t child_static_bytes(const core::ChildArgs& ch, std::size_t K) {
  // Internal child: both transition-matrix layouts; tip child: the
  // 16-mask partial table.
  return ch.is_tip() ? phylo::kNumMasks * K * 4 * sizeof(float)
                     : 2 * K * 16 * sizeof(float);
}

/// The kernels an SPU runs: the paper's approach (i) or (ii).
const core::KernelSet& spu_kernels(SpuSimd simd) {
  return core::kernels(simd == SpuSimd::kColumnWise
                           ? core::KernelVariant::kSimdCol
                           : core::KernelVariant::kSimdRow);
}

}  // namespace

Spu::Spu(int id, SpuSimd simd, const SpuTimings& timings, const DmaTimings& dma)
    : id_(id), simd_(simd), timings_(timings), ls_(), dma_(dma), inbound_() {
  // The PLF program image occupies a fixed prefix of the LS (§3.3: 90 KB).
  ls_.alloc(kPlfCodeBytes, 16);
}

std::size_t Spu::chunk_patterns(std::size_t bytes_per_pattern,
                                std::size_t static_bytes) const {
  // Fixed slack for the 128-byte alignment of each LS region (at most ~10
  // regions per job; 16 is generous).
  const std::size_t slack = 16 * kLsAlign;
  const std::size_t reserved = static_bytes + slack;
  const std::size_t avail =
      ls_.free_bytes() > reserved ? ls_.free_bytes() - reserved : 0;
  // Double buffering doubles every per-pattern buffer.
  const std::size_t per16 = 2 * bytes_per_pattern * kChunkQuantum;
  if (per16 == 0 || avail < per16) {
    throw HardwareViolation(
        "local store cannot hold even one 16-pattern double-buffered chunk");
  }
  const std::size_t quanta = avail / per16;
  return quanta * kChunkQuantum;
}

SpuRunResult Spu::service(const SpuJob& job, double time) {
  // FSM: read the command from the inbound mailbox (charges read latency),
  // then dispatch. The job payload arrives via problem-state access.
  const auto msg = inbound_.read(time);
  PLF_CHECK(msg.value == static_cast<std::uint32_t>(job.cmd),
            "SPU FSM: mailbox command does not match problem-state job");
  const double t = msg.time;

  switch (job.cmd) {
    case SpuCommand::kCondLikeDown:
      return run_down_like(job, t, /*is_root=*/false);
    case SpuCommand::kCondLikeRoot:
      return run_down_like(job, t, /*is_root=*/true);
    case SpuCommand::kCondLikeScaler:
      return run_scale(job, t);
    case SpuCommand::kRootReduce:
      return run_reduce(job, t);
    case SpuCommand::kConfigure:
    case SpuCommand::kNop:
    case SpuCommand::kTerminate: {
      SpuRunResult r;
      r.finish_time = t;
      return r;
    }
  }
  throw Error("SPU FSM: unknown command");
}

SpuRunResult Spu::run_down_like(const SpuJob& job, double time, bool is_root) {
  const std::size_t K = job.K;
  const std::size_t n = job.end - job.begin;
  SpuRunResult result;
  if (n == 0) {
    result.finish_time = time;
    return result;
  }

  const core::KernelSet& ks = spu_kernels(simd_);

  const std::size_t ls_mark = ls_.mark();

  // ---- Static data: transition matrices / tip tables (one DMA each). ----
  double t = time;
  struct ChildLs {
    LsRegion cl_or_mask[2];  // double-buffered per-chunk stream
    LsRegion matrices;       // rm+cm back to back (internal child)
    LsRegion tip_table;      // tip child
  };
  ChildLs ls_child[2];
  const core::ChildArgs* children[2] = {&job.down.left, &job.down.right};

  std::size_t static_bytes = child_static_bytes(*children[0], K) +
                             child_static_bytes(*children[1], K);
  LsRegion out_tp_region{};
  if (is_root) static_bytes += phylo::kNumMasks * K * 4 * sizeof(float);

  const std::size_t bytes_per_pattern = child_pattern_bytes(*children[0], K) +
                                        child_pattern_bytes(*children[1], K) +
                                        K * 4 * sizeof(float) /* out */ +
                                        (is_root ? 1 : 0) /* outgroup mask */;
  const std::size_t chunk = chunk_patterns(bytes_per_pattern, static_bytes);
  const std::size_t chunk_cl_bytes = chunk * K * 4 * sizeof(float);

  for (int s = 0; s < 2; ++s) {
    const core::ChildArgs& ch = *children[s];
    if (ch.is_tip()) {
      ls_child[s].tip_table =
          ls_.alloc(phylo::kNumMasks * K * 4 * sizeof(float));
      t = dma_.get(ls_, ls_child[s].tip_table, ch.tp,
                   ls_child[s].tip_table.bytes, t);
      for (int b = 0; b < 2; ++b) ls_child[s].cl_or_mask[b] = ls_.alloc(chunk);
    } else {
      ls_child[s].matrices = ls_.alloc(2 * K * 16 * sizeof(float));
      t = dma_.get(ls_, LsRegion{ls_child[s].matrices.offset,
                                 K * 16 * sizeof(float)},
                   ch.p, K * 16 * sizeof(float), t);
      t = dma_.get(ls_,
                   LsRegion{ls_child[s].matrices.offset + K * 16 * sizeof(float),
                            K * 16 * sizeof(float)},
                   ch.pt, K * 16 * sizeof(float), t);
      for (int b = 0; b < 2; ++b) {
        ls_child[s].cl_or_mask[b] = ls_.alloc(chunk_cl_bytes);
      }
    }
  }
  LsRegion out_mask_region[2];
  if (is_root) {
    out_tp_region = ls_.alloc(phylo::kNumMasks * K * 4 * sizeof(float));
    t = dma_.get(ls_, out_tp_region, job.out_tp, out_tp_region.bytes, t);
    for (int b = 0; b < 2; ++b) out_mask_region[b] = ls_.alloc(chunk);
  }
  LsRegion out_region[2];
  for (int b = 0; b < 2; ++b) out_region[b] = ls_.alloc(chunk_cl_bytes);

  // ---- Chunk pipeline with double buffering (Fig. 7). ----
  const double unit =
      unit_cost(simd_ == SpuSimd::kColumnWise ? timings_.cycles_per_unit_col
                                              : timings_.cycles_per_unit_row);

  auto issue_gets = [&](std::size_t off, std::size_t cur, int buf,
                        double issue) {
    double done = issue;
    for (int s = 0; s < 2; ++s) {
      const core::ChildArgs& ch = *children[s];
      if (ch.is_tip()) {
        done = dma_.get(ls_, ls_child[s].cl_or_mask[buf],
                        ch.mask + job.begin + off, round_up(cur, 16), issue);
      } else {
        done = dma_.get(ls_, ls_child[s].cl_or_mask[buf],
                        ch.cl + (job.begin + off) * K * 4,
                        cur * K * 4 * sizeof(float), issue);
      }
    }
    if (is_root) {
      done = dma_.get(ls_, out_mask_region[buf], job.out_mask + job.begin + off,
                      round_up(cur, 16), issue);
    }
    return done;
  };

  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  double get_done = issue_gets(0, std::min(chunk, n), 0, t);
  double compute_done = t;
  double last_put_done = t;

  for (std::size_t i = 0; i < n_chunks; ++i) {
    const std::size_t off = i * chunk;
    const std::size_t cur = std::min(chunk, n - off);
    const int buf = static_cast<int>(i % 2);

    const double compute_start = std::max(get_done, compute_done);
    result.dma_wait_s += compute_start - compute_done;

    // ---- Functional execution on LS-resident buffers. ----
    core::DownArgs la;
    la.K = K;
    core::ChildArgs* outs[2] = {&la.left, &la.right};
    for (int s = 0; s < 2; ++s) {
      const core::ChildArgs& ch = *children[s];
      if (ch.is_tip()) {
        outs[s]->mask = ls_.at(ls_child[s].cl_or_mask[buf]);
        outs[s]->tp = ls_.as_floats(ls_child[s].tip_table);
      } else {
        outs[s]->cl = ls_.as_floats(ls_child[s].cl_or_mask[buf]);
        outs[s]->p = ls_.as_floats(
            LsRegion{ls_child[s].matrices.offset, K * 16 * sizeof(float)});
        outs[s]->pt = ls_.as_floats(
            LsRegion{ls_child[s].matrices.offset + K * 16 * sizeof(float),
                     K * 16 * sizeof(float)});
      }
    }
    la.out = ls_.as_floats(out_region[buf]);
    if (is_root) {
      core::RootArgs ra;
      ra.down = la;
      ra.out_mask = ls_.at(out_mask_region[buf]);
      ra.out_tp = ls_.as_floats(out_tp_region);
      ks.root(ra, 0, cur);
    } else {
      ks.down(la, 0, cur);
    }

    const double cost =
        static_cast<double>(cur) * static_cast<double>(K) * unit +
        timings_.chunk_loop_overhead_cycles / timings_.clock_hz;
    compute_done = compute_start + cost;
    result.compute_s += cost;
    ++result.chunks;

    // Next chunk's operands: with double buffering the DMA was issued when
    // this chunk's compute STARTED (overlap, Fig. 7); without it, only now.
    if (i + 1 < n_chunks) {
      const std::size_t next_off = (i + 1) * chunk;
      get_done = issue_gets(
          next_off, std::min(chunk, n - next_off),
          static_cast<int>((i + 1) % 2),
          timings_.double_buffering ? compute_start : compute_done);
    }

    // Stream the results back.
    last_put_done =
        dma_.put(ls_, out_region[buf], job.down.out + (job.begin + off) * K * 4,
                 cur * K * 4 * sizeof(float), compute_done);
  }

  ls_.release_to(ls_mark);
  result.finish_time = std::max(compute_done, last_put_done);
  return result;
}

SpuRunResult Spu::run_scale(const SpuJob& job, double time) {
  const std::size_t K = job.K;
  const std::size_t n = job.end - job.begin;
  SpuRunResult result;
  if (n == 0) {
    result.finish_time = time;
    return result;
  }
  const core::KernelSet& ks = spu_kernels(simd_);

  const std::size_t ls_mark = ls_.mark();
  // Per pattern: cl (in+out, counted once for space) + scaler float.
  const std::size_t bytes_per_pattern = K * 4 * sizeof(float) + sizeof(float);
  const std::size_t chunk = chunk_patterns(bytes_per_pattern, 0);
  const std::size_t chunk_cl_bytes = chunk * K * 4 * sizeof(float);

  LsRegion cl_region[2] = {ls_.alloc(chunk_cl_bytes), ls_.alloc(chunk_cl_bytes)};
  LsRegion sc_region[2] = {ls_.alloc(chunk * sizeof(float)),
                           ls_.alloc(chunk * sizeof(float))};

  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  double get_done = dma_.get(ls_, cl_region[0], job.scale.cl + job.begin * K * 4,
                             std::min(chunk, n) * K * 4 * sizeof(float), time);
  double compute_done = time;
  double last_put_done = time;

  for (std::size_t i = 0; i < n_chunks; ++i) {
    const std::size_t off = i * chunk;
    const std::size_t cur = std::min(chunk, n - off);
    const int buf = static_cast<int>(i % 2);

    const double compute_start = std::max(get_done, compute_done);
    result.dma_wait_s += compute_start - compute_done;

    core::ScaleArgs sa;
    sa.cl = ls_.as_floats(cl_region[buf]);
    sa.ln_scaler = ls_.as_floats(sc_region[buf]);
    sa.K = K;
    ks.scale(sa, 0, cur);

    const double cost =
        static_cast<double>(cur) * static_cast<double>(K) *
            unit_cost(simd_ == SpuSimd::kColumnWise
                          ? timings_.cycles_per_unit_scale_col
                          : timings_.cycles_per_unit_scale_row) +
        timings_.chunk_loop_overhead_cycles / timings_.clock_hz;
    compute_done = compute_start + cost;
    result.compute_s += cost;
    ++result.chunks;

    if (i + 1 < n_chunks) {
      const std::size_t next_off = (i + 1) * chunk;
      get_done = dma_.get(ls_, cl_region[(i + 1) % 2],
                          job.scale.cl + (job.begin + next_off) * K * 4,
                          std::min(chunk, n - next_off) * K * 4 * sizeof(float),
                          timings_.double_buffering ? compute_start
                                                    : compute_done);
    }

    last_put_done = dma_.put(ls_, cl_region[buf],
                             job.scale.cl + (job.begin + off) * K * 4,
                             cur * K * 4 * sizeof(float), compute_done);
    last_put_done =
        dma_.put(ls_, sc_region[buf], job.scale.ln_scaler + job.begin + off,
                 round_up(cur * sizeof(float), 16), last_put_done);
  }

  ls_.release_to(ls_mark);
  result.finish_time = std::max(compute_done, last_put_done);
  return result;
}

SpuRunResult Spu::run_reduce(const SpuJob& job, double time) {
  const std::size_t K = job.K;
  const std::size_t n = job.end - job.begin;
  SpuRunResult result;
  if (n == 0) {
    result.finish_time = time;
    return result;
  }
  const core::KernelSet& ks = spu_kernels(simd_);

  const bool has_pinv =
      job.reduce.const_lik != nullptr && job.reduce.p_invariant > 0.0f;
  const std::size_t ls_mark = ls_.mark();
  const std::size_t bytes_per_pattern =
      K * 4 * sizeof(float) + sizeof(std::int32_t) + sizeof(std::uint32_t) +
      (has_pinv ? sizeof(float) : 0);
  const std::size_t chunk = chunk_patterns(bytes_per_pattern, 0);

  LsRegion cl_region[2], sc_region[2], w_region[2], const_region[2];
  for (int b = 0; b < 2; ++b) {
    cl_region[b] = ls_.alloc(chunk * K * 4 * sizeof(float));
    sc_region[b] = ls_.alloc(chunk * sizeof(std::int32_t));
    w_region[b] = ls_.alloc(chunk * sizeof(std::uint32_t));
    if (has_pinv) const_region[b] = ls_.alloc(chunk * sizeof(float));
  }

  auto issue_gets = [&](std::size_t off, std::size_t cur, int buf,
                        double issue) {
    double done = dma_.get(ls_, cl_region[buf],
                           job.reduce.cl + (job.begin + off) * K * 4,
                           cur * K * 4 * sizeof(float), issue);
    done = dma_.get(ls_, sc_region[buf],
                    job.reduce.scaler_count + job.begin + off,
                    round_up(cur * sizeof(std::int32_t), 16), issue);
    done = dma_.get(ls_, w_region[buf], job.reduce.weights + job.begin + off,
                    round_up(cur * sizeof(std::uint32_t), 16), issue);
    if (has_pinv) {
      done = dma_.get(ls_, const_region[buf],
                      job.reduce.const_lik + job.begin + off,
                      round_up(cur * sizeof(float), 16), issue);
    }
    return done;
  };

  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  double get_done = issue_gets(0, std::min(chunk, n), 0, time);
  double compute_done = time;
  double partial = 0.0;

  for (std::size_t i = 0; i < n_chunks; ++i) {
    const std::size_t off = i * chunk;
    const std::size_t cur = std::min(chunk, n - off);
    const int buf = static_cast<int>(i % 2);

    const double compute_start = std::max(get_done, compute_done);
    result.dma_wait_s += compute_start - compute_done;

    core::RootReduceArgs ra = job.reduce;
    ra.cl = ls_.as_floats(cl_region[buf]);
    ra.scaler_count =
        reinterpret_cast<const std::int32_t*>(ls_.at(sc_region[buf]));
    ra.weights =
        reinterpret_cast<const std::uint32_t*>(ls_.at(w_region[buf]));
    if (has_pinv) ra.const_lik = ls_.as_floats(const_region[buf]);
    partial += ks.root_reduce(ra, 0, cur);

    const double cost =
        static_cast<double>(cur) * static_cast<double>(K) *
            unit_cost(simd_ == SpuSimd::kColumnWise
                          ? timings_.cycles_per_unit_reduce_col
                          : timings_.cycles_per_unit_reduce_row) +
        timings_.chunk_loop_overhead_cycles / timings_.clock_hz;
    compute_done = compute_start + cost;
    result.compute_s += cost;
    ++result.chunks;

    if (i + 1 < n_chunks) {
      const std::size_t next_off = (i + 1) * chunk;
      get_done = issue_gets(next_off, std::min(chunk, n - next_off),
                            static_cast<int>((i + 1) % 2),
                            timings_.double_buffering ? compute_start
                                                      : compute_done);
    }
  }

  ls_.release_to(ls_mark);
  result.finish_time = compute_done;
  result.reduce_partial = partial;
  return result;
}

}  // namespace plf::cell
