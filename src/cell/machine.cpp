#include "cell/machine.hpp"

#include <algorithm>

#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "util/error.hpp"

namespace plf::cell {

namespace {
/// First-level partition boundaries are multiples of 16 patterns so every
/// SPE block start satisfies the DMA alignment rules (the paper's "dummy
/// elements" trick).
constexpr std::size_t kBlockQuantum = 16;

/// Mirror the cumulative run stats into the global metrics registry. The
/// simulated seconds are virtual-clock values, so they become gauges rather
/// than timers (they must never mix into wall-clock sections); the DMA wait
/// doubles as the backend's Fig. 12 "transfer" column.
void publish_cell_metrics([[maybe_unused]] const CellRunStats& s) {
  PLF_PROF_GAUGE(obs::kGaugeCellSimPlfSeconds, s.simulated_plf_s);
  PLF_PROF_GAUGE(obs::kGaugeCellSpuDmaWaitSeconds, s.spu_dma_wait_s);
  PLF_PROF_GAUGE(obs::kGaugeCellDmaBytes, static_cast<double>(s.dma_bytes));
  PLF_PROF_GAUGE(obs::kGaugeTransferSimSeconds, s.spu_dma_wait_s);
}
}  // namespace

CellMachine::CellMachine(const CellConfig& config) : config_(config) {
  PLF_CHECK(config_.n_spes >= 1, "CellMachine needs at least one SPE");
  for (std::size_t i = 0; i < config_.n_spes; ++i) {
    spes_.push_back(std::make_unique<Spu>(static_cast<int>(i), config_.simd,
                                          config_.spu, config_.dma));
  }
}

std::string CellMachine::name() const {
  return config_.name + "(" + std::to_string(config_.n_spes) + " SPE, " +
         (config_.simd == SpuSimd::kColumnWise ? "col" : "row") + "-SIMD)";
}

double CellMachine::offload(SpuCommand cmd, const SpuJob& proto, std::size_t m,
                            std::size_t n_spes, double* reduce_out) {
  PLF_CHECK(n_spes >= 1 && n_spes <= spes_.size(),
            "offload: SPE count out of range");

  const double start = clock_.now();  // global simulated timeline
  double ppe_t = start;

  // First-level partition: contiguous blocks, quantized to 16 patterns.
  const std::size_t quanta = (m + kBlockQuantum - 1) / kBlockQuantum;
  const std::size_t q_per_spe = quanta / n_spes;
  const std::size_t q_extra = quanta % n_spes;

  double finish = ppe_t;
  double reduce_sum = 0.0;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < n_spes; ++s) {
    const std::size_t my_quanta = q_per_spe + (s < q_extra ? 1 : 0);
    const std::size_t begin = cursor * kBlockQuantum;
    cursor += my_quanta;
    const std::size_t end = std::min(m, cursor * kBlockQuantum);
    if (begin >= end) continue;

    SpuJob job = proto;
    job.cmd = cmd;
    job.begin = begin;
    job.end = end;

    // PPE sends the trigger through the SPE's inbound mailbox (problem-state
    // store); sends are serialized on the PPE.
    Spu& spu = *spes_[s];
    ppe_t = spu.inbound().write(static_cast<std::uint32_t>(cmd), ppe_t);
    ++stats_.mailbox_messages;
    PLF_PROF_COUNT(obs::kCounterCellMailboxMessages, 1);

    const SpuRunResult r = spu.service(job, ppe_t);
    finish = std::max(finish, r.finish_time);
    stats_.spu_compute_s += r.compute_s;
    stats_.spu_dma_wait_s += r.dma_wait_s;
    reduce_sum += r.reduce_partial;
  }

  // The PPE busy-waits on the SPE notifications (DMA-based flags): it
  // observes completion at the first poll boundary after the last SPE done.
  double done = std::max(finish, ppe_t);
  done += config_.ppe_poll_s;

  if (reduce_out != nullptr) *reduce_out = reduce_sum;

  const double duration = done - start;
  clock_.advance_to(done);
  stats_.simulated_plf_s += duration;
  ++stats_.plf_invocations;
  PLF_PROF_COUNT(obs::kCounterCellPlfInvocations, 1);
  publish_cell_metrics(stats());
  return duration;
}

void CellMachine::run_down(const core::KernelSet& /*ks*/,
                           const core::DownArgs& a, std::size_t m) {
  // The SPU program is compiled with the machine's SIMD layout; the caller's
  // kernel variant is not used on the Cell (as on real hardware, where the
  // SPE binary is fixed).
  PLF_CHECK(a.site_index == nullptr && a.left.row_of == nullptr &&
                a.right.row_of == nullptr,
            "CellMachine is a dense-only backend: the SPU LS chunking streams "
            "contiguous pattern blocks and cannot honor site_index or row_of");
  SpuJob proto;
  proto.K = a.K;
  proto.down = a;
  offload(SpuCommand::kCondLikeDown, proto, m, spes_.size());
}

void CellMachine::run_root(const core::KernelSet& /*ks*/,
                           const core::RootArgs& a, std::size_t m) {
  PLF_CHECK(a.down.site_index == nullptr && a.down.left.row_of == nullptr &&
                a.down.right.row_of == nullptr,
            "CellMachine is a dense-only backend (see run_down)");
  SpuJob proto;
  proto.K = a.down.K;
  proto.down = a.down;
  proto.out_mask = a.out_mask;
  proto.out_tp = a.out_tp;
  offload(SpuCommand::kCondLikeRoot, proto, m, spes_.size());
}

void CellMachine::run_scale(const core::KernelSet& /*ks*/,
                            const core::ScaleArgs& a, std::size_t m) {
  SpuJob proto;
  proto.K = a.K;
  proto.scale = a;
  offload(SpuCommand::kCondLikeScaler, proto, m, spes_.size());
}

double CellMachine::run_root_reduce(const core::KernelSet& /*ks*/,
                                    const core::RootReduceArgs& a,
                                    std::size_t m) {
  SpuJob proto;
  proto.K = a.K;
  proto.reduce = a;
  double out = 0.0;
  offload(SpuCommand::kRootReduce, proto, m, spes_.size(), &out);
  return out;
}

CellRunStats CellMachine::stats() const {
  CellRunStats out = stats_;
  for (const auto& s : spes_) {
    out.dma_transfers += s->dma_stats().transfers;
    out.dma_bytes += s->dma_stats().bytes;
  }
  return out;
}

void CellMachine::reset_stats() {
  stats_ = CellRunStats{};
  for (auto& s : spes_) s->reset_dma_stats();
}

}  // namespace plf::cell
