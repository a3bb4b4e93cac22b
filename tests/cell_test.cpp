#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cell/dma.hpp"
#include "cell/local_store.hpp"
#include "cell/machine.hpp"
#include "cell/mailbox.hpp"
#include "cell/spu.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/tip_partial.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace plf::cell {
namespace {

TEST(LocalStoreTest, CapacityMatchesHardware) {
  LocalStore ls;
  EXPECT_EQ(ls.capacity(), 256u * 1024u);
  EXPECT_EQ(ls.allocated(), 0u);
}

TEST(LocalStoreTest, AllocReturnsAlignedRegions) {
  LocalStore ls;
  const LsRegion a = ls.alloc(100);
  const LsRegion b = ls.alloc(100);
  EXPECT_EQ(a.offset % kLsAlign, 0u);
  EXPECT_EQ(b.offset % kLsAlign, 0u);
  EXPECT_GE(b.offset, a.offset + a.bytes);
}

TEST(LocalStoreTest, OverflowThrowsHardwareViolation) {
  LocalStore ls;
  ls.alloc(200 * 1024);
  EXPECT_THROW(ls.alloc(100 * 1024), HardwareViolation);
}

TEST(LocalStoreTest, ReleaseToRestoresStack) {
  LocalStore ls;
  ls.alloc(1024);
  const std::size_t mark = ls.mark();
  ls.alloc(4096);
  EXPECT_GT(ls.allocated(), mark);
  ls.release_to(mark);
  EXPECT_EQ(ls.allocated(), mark);
  EXPECT_THROW(ls.release_to(mark + 1), Error);
}

TEST(LocalStoreTest, RegionBoundsChecked) {
  LocalStore ls;
  EXPECT_THROW(ls.at(LsRegion{256 * 1024 - 16, 32}), Error);
}

TEST(DmaTest, FunctionalCopyBothDirections) {
  LocalStore ls;
  DmaEngine dma;
  const LsRegion r = ls.alloc(1024);
  aligned_vector<float> src(256), dst(256);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<float>(i);
  const double t1 = dma.get(ls, r, src.data(), 1024, 0.0);
  EXPECT_GT(t1, 0.0);
  EXPECT_EQ(std::memcmp(ls.at(LsRegion{r.offset, 1024}), src.data(), 1024), 0);
  const double t2 = dma.put(ls, r, dst.data(), 1024, t1);
  EXPECT_GT(t2, t1);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), 1024), 0);
}

TEST(DmaTest, LargeRequestSplitsInto16KTransfers) {
  LocalStore ls;
  DmaEngine dma;
  const std::size_t bytes = 40 * 1024;  // 16 + 16 + 8
  const LsRegion r = ls.alloc(bytes);
  aligned_vector<std::uint8_t> src(bytes, 0xAB);
  dma.get(ls, r, src.data(), bytes, 0.0);
  EXPECT_EQ(dma.stats().requests, 1u);
  EXPECT_EQ(dma.stats().transfers, 3u);
  EXPECT_EQ(dma.stats().bytes, bytes);
}

TEST(DmaTest, AlignmentViolationsRejected) {
  LocalStore ls;
  DmaEngine dma;
  const LsRegion r = ls.alloc(1024);
  aligned_vector<std::uint8_t> buf(2048);
  // Misaligned effective address.
  EXPECT_THROW(dma.get(ls, r, buf.data() + 3, 64, 0.0), HardwareViolation);
  // Size not a multiple of 16.
  EXPECT_THROW(dma.get(ls, r, buf.data(), 30, 0.0), HardwareViolation);
  // Misaligned LS offset.
  EXPECT_THROW(dma.get(ls, LsRegion{r.offset + 4, 64}, buf.data(), 64, 0.0),
               HardwareViolation);
}

TEST(DmaTest, TimingScalesWithSize) {
  LocalStore ls;
  DmaEngine dma;
  const LsRegion r = ls.alloc(16 * 1024);
  aligned_vector<std::uint8_t> buf(16 * 1024);
  const double small = dma.get(ls, LsRegion{r.offset, 256}, buf.data(), 256, 0.0);
  DmaEngine dma2;
  const double large = dma2.get(ls, r, buf.data(), 16 * 1024, 0.0);
  EXPECT_GT(large, small);
  // Bandwidth model: 16KB at 25.6 GB/s ~ 0.64us + latency.
  EXPECT_NEAR(large, 0.25e-6 + 16384.0 / 25.6e9, 1e-9);
}

TEST(DmaTest, EngineSerializesTransfers) {
  LocalStore ls;
  DmaEngine dma;
  const LsRegion a = ls.alloc(4096);
  const LsRegion b = ls.alloc(4096);
  aligned_vector<std::uint8_t> buf(4096);
  const double t1 = dma.get(ls, a, buf.data(), 4096, 0.0);
  // Issued "at time 0" again, but the engine is busy until t1.
  const double t2 = dma.get(ls, b, buf.data(), 4096, 0.0);
  EXPECT_GE(t2, t1 + 4096.0 / 25.6e9);
}

TEST(MailboxTest, FifoOrderAndLatency) {
  Mailbox mb;
  mb.write(7, 0.0);
  mb.write(9, 1e-6);
  ASSERT_TRUE(mb.has_message());
  const auto r1 = mb.read(0.0);
  EXPECT_EQ(r1.value, 7u);
  EXPECT_GT(r1.time, 0.0);
  const auto r2 = mb.read(r1.time);
  EXPECT_EQ(r2.value, 9u);
  EXPECT_GT(r2.time, 1e-6);
  EXPECT_FALSE(mb.has_message());
}

TEST(MailboxTest, OverflowAtHardwareDepth) {
  Mailbox mb;  // depth 4
  for (int i = 0; i < 4; ++i) mb.write(static_cast<std::uint32_t>(i), 0.0);
  EXPECT_THROW(mb.write(4, 0.0), HardwareViolation);
}

TEST(MailboxTest, ReadWithoutMessageIsError) {
  Mailbox mb;
  EXPECT_THROW(mb.read(0.0), Error);
}

// ---------------------------------------------------------------------------
// SPU-level: functional equivalence with the host kernels.
// ---------------------------------------------------------------------------

struct SpuFixture {
  std::size_t m, K = 4;
  Rng rng{4242};
  phylo::SubstitutionModel model;
  phylo::TransitionMatrices tm_l, tm_r;
  core::TipPartial tp_l;
  aligned_vector<float> cl_l, cl_r, out_host, out_spu;
  phylo::PatternMatrix patterns;

  explicit SpuFixture(std::size_t m_)
      : m(m_),
        model(seqgen::default_gtr_params()),
        patterns(make_patterns(m_)) {
    tm_l = model.transition_matrices(0.1);
    tm_r = model.transition_matrices(0.25);
    tp_l = core::TipPartial(tm_l);
    cl_l = test::random_cl(m, K, rng);
    cl_r = test::random_cl(m, K, rng);
    out_host.assign(m * K * 4, 0.0f);
    out_spu.assign(m * K * 4, 0.0f);
  }

  static phylo::PatternMatrix make_patterns(std::size_t m) {
    Rng r(7);
    std::vector<std::vector<phylo::StateMask>> cols(
        m, std::vector<phylo::StateMask>(3));
    for (auto& col : cols)
      for (auto& x : col) x = phylo::state_to_mask(r.below(4));
    return phylo::PatternMatrix::from_patterns(
        {"a", "b", "c"}, cols, std::vector<std::uint32_t>(m, 1));
  }

  core::DownArgs down_args(bool left_tip, float* out) {
    core::DownArgs a;
    a.K = K;
    if (left_tip) {
      a.left.mask = patterns.row(0);
      a.left.tp = tp_l.data();
    } else {
      a.left.cl = cl_l.data();
    }
    a.left.p = tm_l.row_major();
    a.left.pt = tm_l.col_major();
    a.right.cl = cl_r.data();
    a.right.p = tm_r.row_major();
    a.right.pt = tm_r.col_major();
    a.out = out;
    return a;
  }
};

TEST(SpuTest, DownJobMatchesHostKernelAcrossChunks) {
  // 9000 patterns * 4 rates * 16 B * 3 buffers ~ far beyond one chunk:
  // exercises the two-level partitioning and double buffering.
  SpuFixture fx(9000);
  const auto& ks = core::kernels(core::KernelVariant::kSimdCol);
  ks.down(fx.down_args(false, fx.out_host.data()), 0, fx.m);

  Spu spu(0, SpuSimd::kColumnWise);
  SpuJob job;
  job.cmd = SpuCommand::kCondLikeDown;
  job.K = fx.K;
  job.begin = 0;
  job.end = fx.m;
  job.down = fx.down_args(false, fx.out_spu.data());
  spu.inbound().write(static_cast<std::uint32_t>(job.cmd), 0.0);
  const SpuRunResult r = spu.service(job, 0.0);

  EXPECT_GT(r.chunks, 1u);
  EXPECT_GT(r.finish_time, 0.0);
  for (std::size_t i = 0; i < fx.out_host.size(); ++i) {
    ASSERT_EQ(fx.out_spu[i], fx.out_host[i]) << "at " << i;
  }
}

TEST(SpuTest, TipChildJobMatchesHost) {
  SpuFixture fx(500);
  const auto& ks = core::kernels(core::KernelVariant::kSimdCol);
  ks.down(fx.down_args(true, fx.out_host.data()), 0, fx.m);

  Spu spu(0, SpuSimd::kColumnWise);
  SpuJob job;
  job.cmd = SpuCommand::kCondLikeDown;
  job.K = fx.K;
  job.begin = 0;
  job.end = fx.m;
  job.down = fx.down_args(true, fx.out_spu.data());
  spu.inbound().write(static_cast<std::uint32_t>(job.cmd), 0.0);
  spu.service(job, 0.0);
  for (std::size_t i = 0; i < fx.out_host.size(); ++i) {
    ASSERT_EQ(fx.out_spu[i], fx.out_host[i]);
  }
}

TEST(SpuTest, RowWiseProgramUsesRowKernel) {
  SpuFixture fx(300);
  const auto& ks = core::kernels(core::KernelVariant::kSimdRow);
  ks.down(fx.down_args(false, fx.out_host.data()), 0, fx.m);

  Spu spu(0, SpuSimd::kRowWise);
  SpuJob job;
  job.cmd = SpuCommand::kCondLikeDown;
  job.K = fx.K;
  job.begin = 0;
  job.end = fx.m;
  job.down = fx.down_args(false, fx.out_spu.data());
  spu.inbound().write(static_cast<std::uint32_t>(job.cmd), 0.0);
  spu.service(job, 0.0);
  for (std::size_t i = 0; i < fx.out_host.size(); ++i) {
    ASSERT_EQ(fx.out_spu[i], fx.out_host[i]);
  }
}

TEST(SpuTest, ColumnWiseFasterThanRowWise) {
  // The paper's ablation direction: approach (ii) must beat approach (i).
  SpuFixture fx_col(4000), fx_row(4000);
  SpuJob job;
  job.cmd = SpuCommand::kCondLikeDown;
  job.K = 4;
  job.begin = 0;
  job.end = 4000;

  Spu col(0, SpuSimd::kColumnWise), row(1, SpuSimd::kRowWise);
  job.down = fx_col.down_args(false, fx_col.out_spu.data());
  col.inbound().write(static_cast<std::uint32_t>(job.cmd), 0.0);
  const double t_col = col.service(job, 0.0).finish_time;
  job.down = fx_row.down_args(false, fx_row.out_spu.data());
  row.inbound().write(static_cast<std::uint32_t>(job.cmd), 0.0);
  const double t_row = row.service(job, 0.0).finish_time;
  EXPECT_LT(t_col, t_row);
  EXPECT_NEAR(t_row / t_col, 2.0, 0.5);  // paper: ~2x at the PLF level
}

TEST(SpuTest, ScaleJobMatchesHost) {
  const std::size_t m = 3000, K = 4;
  Rng rng(1);
  aligned_vector<float> cl_host = test::random_cl(m, K, rng, 1e-5f, 0.4f);
  aligned_vector<float> cl_spu = cl_host;
  aligned_vector<float> sc_host(m, 0.0f), sc_spu(m, 0.0f);

  const auto& ks = core::kernels(core::KernelVariant::kSimdCol);
  core::ScaleArgs host_args{cl_host.data(), sc_host.data(), K};
  ks.scale(host_args, 0, m);

  Spu spu(0, SpuSimd::kColumnWise);
  SpuJob job;
  job.cmd = SpuCommand::kCondLikeScaler;
  job.K = K;
  job.begin = 0;
  job.end = m;
  job.scale = core::ScaleArgs{cl_spu.data(), sc_spu.data(), K};
  spu.inbound().write(static_cast<std::uint32_t>(job.cmd), 0.0);
  spu.service(job, 0.0);

  for (std::size_t i = 0; i < cl_host.size(); ++i) {
    ASSERT_EQ(cl_spu[i], cl_host[i]);
  }
  for (std::size_t c = 0; c < m; ++c) ASSERT_EQ(sc_spu[c], sc_host[c]);
}

TEST(SpuTest, ReduceJobMatchesHost) {
  const std::size_t m = 2500, K = 4;
  Rng rng(2);
  aligned_vector<float> cl = test::random_cl(m, K, rng);
  aligned_vector<std::int32_t> scaler(m);
  aligned_vector<std::uint32_t> weights(m);
  for (std::size_t c = 0; c < m; ++c) {
    scaler[c] = -static_cast<std::int32_t>(rng.below(30));
    weights[c] = static_cast<std::uint32_t>(1 + rng.below(5));
  }
  core::RootReduceArgs args;
  args.cl = cl.data();
  args.scaler_count = scaler.data();
  args.weights = weights.data();
  args.K = K;

  const auto& ks = core::kernels(core::KernelVariant::kSimdCol);
  const double host = ks.root_reduce(args, 0, m);

  Spu spu(0, SpuSimd::kColumnWise);
  SpuJob job;
  job.cmd = SpuCommand::kRootReduce;
  job.K = K;
  job.begin = 0;
  job.end = m;
  job.reduce = args;
  spu.inbound().write(static_cast<std::uint32_t>(job.cmd), 0.0);
  const SpuRunResult r = spu.service(job, 0.0);
  EXPECT_NEAR(r.reduce_partial, host, std::abs(host) * 1e-9);
}

TEST(SpuTest, ChunkRespectsLocalStoreCapacity) {
  Spu spu(0, SpuSimd::kColumnWise);
  // Down job with two internal children, K=4: 3*64 B per pattern.
  const std::size_t chunk = spu.chunk_patterns(3 * 64, 2 * 2 * 4 * 16 * 4);
  EXPECT_GT(chunk, 0u);
  EXPECT_EQ(chunk % 16, 0u);
  // 2 * chunk * bytes_per_pattern must fit in the free LS.
  EXPECT_LE(2 * chunk * 3 * 64, kLocalStoreBytes - kPlfCodeBytes);
  // Absurd footprint cannot fit.
  EXPECT_THROW(spu.chunk_patterns(1 << 20, 0), HardwareViolation);
}

TEST(SpuTest, MismatchedMailboxCommandRejected) {
  SpuFixture fx(100);
  Spu spu(0, SpuSimd::kColumnWise);
  SpuJob job;
  job.cmd = SpuCommand::kCondLikeDown;
  job.K = 4;
  job.end = 100;
  job.down = fx.down_args(false, fx.out_spu.data());
  spu.inbound().write(static_cast<std::uint32_t>(SpuCommand::kTerminate), 0.0);
  EXPECT_THROW(spu.service(job, 0.0), Error);
}

// ---------------------------------------------------------------------------
// Machine-level: a full PlfEngine running on the simulated Cell.
// ---------------------------------------------------------------------------

struct EngineInstance {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
};

EngineInstance engine_instance(std::size_t taxa, std::size_t cols,
                               std::uint64_t seed) {
  Rng rng(seed);
  phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.15);
  phylo::GtrParams params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto aln = ev.evolve(cols, rng);
  return EngineInstance{std::move(tree), params,
                        phylo::PatternMatrix::compress(aln)};
}

TEST(CellMachineTest, EngineLikelihoodMatchesSerialHost) {
  auto inst = engine_instance(9, 400, 11);
  core::SerialBackend serial;
  core::PlfEngine ref(inst.data, inst.params, inst.tree, serial,
                      core::KernelVariant::kSimdCol);
  const double expect = ref.log_likelihood();

  CellConfig cfg;
  cfg.n_spes = 6;  // PS3
  CellMachine cell(cfg);
  core::PlfEngine engine(inst.data, inst.params, inst.tree, cell,
                         core::KernelVariant::kSimdCol);
  const double got = engine.log_likelihood();
  // cl arrays are bit-equal; the root reduction's partial-sum order differs,
  // so lnL agrees to double rounding.
  EXPECT_NEAR(got, expect, std::abs(expect) * 1e-12);
  EXPECT_GT(cell.simulated_seconds(), 0.0);
  EXPECT_GT(cell.stats().plf_invocations, 0u);
  EXPECT_GT(cell.stats().dma_bytes, 0u);
  EXPECT_GT(cell.stats().mailbox_messages, 0u);
}

TEST(CellMachineTest, SixteenSpesQs20AlsoCorrect) {
  auto inst = engine_instance(8, 300, 12);
  core::SerialBackend serial;
  core::PlfEngine ref(inst.data, inst.params, inst.tree, serial,
                      core::KernelVariant::kSimdCol);
  CellConfig cfg;
  cfg.n_spes = 16;  // QS20
  cfg.name = "QS20";
  CellMachine cell(cfg);
  core::PlfEngine engine(inst.data, inst.params, inst.tree, cell,
                         core::KernelVariant::kSimdCol);
  EXPECT_NEAR(engine.log_likelihood(), ref.log_likelihood(),
              std::abs(ref.log_likelihood()) * 1e-12);
}

TEST(CellMachineTest, MoreSpesRunFaster) {
  auto inst = engine_instance(10, 2000, 13);
  auto run = [&](std::size_t spes) {
    CellConfig cfg;
    cfg.n_spes = spes;
    CellMachine cell(cfg);
    core::PlfEngine engine(inst.data, inst.params, inst.tree, cell);
    engine.log_likelihood();
    return cell.simulated_seconds();
  };
  const double t1 = run(1);
  const double t4 = run(4);
  const double t16 = run(16);
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t16);
  // ~1-2K patterns is the paper's WORST case (its 1K sets also scale poorly);
  // only modest scaling is expected here. Near-ideal scaling on large data is
  // asserted in LargeOffloadScalesNearIdeal below.
  EXPECT_GT(t1 / t4, 2.5);
  EXPECT_GT(t1 / t16, 4.0);
}

TEST(CellMachineTest, LargeOffloadScalesNearIdeal) {
  // Kernel-level offload over 50K patterns: the regime where the paper
  // reports up to 92% PLF efficiency and stable ~12x at 16 SPEs.
  const std::size_t m = 50000, K = 4;
  Rng rng(77);
  phylo::SubstitutionModel model(seqgen::default_gtr_params());
  auto tm_l = model.transition_matrices(0.1);
  auto tm_r = model.transition_matrices(0.2);
  aligned_vector<float> cl_l = test::random_cl(m, K, rng);
  aligned_vector<float> cl_r = test::random_cl(m, K, rng);
  aligned_vector<float> out(m * K * 4);

  core::DownArgs args;
  args.K = K;
  args.left.cl = cl_l.data();
  args.left.p = tm_l.row_major();
  args.left.pt = tm_l.col_major();
  args.right.cl = cl_r.data();
  args.right.p = tm_r.row_major();
  args.right.pt = tm_r.col_major();
  args.out = out.data();

  CellConfig cfg;
  cfg.n_spes = 16;
  CellMachine cell(cfg);
  SpuJob proto;
  proto.K = K;
  proto.down = args;
  const double t1 = cell.offload(SpuCommand::kCondLikeDown, proto, m, 1);
  const double t16 = cell.offload(SpuCommand::kCondLikeDown, proto, m, 16);
  const double speedup = t1 / t16;
  EXPECT_GT(speedup, 11.0);
  EXPECT_LE(speedup, 16.05);
}

TEST(CellMachineTest, OffloadPartitionCoversAllPatternsOddSizes) {
  // m not a multiple of the 16-pattern quantum or the SPE count.
  auto inst = engine_instance(6, 237, 14);
  ASSERT_NE(inst.data.n_patterns() % 16, 0u);
  core::SerialBackend serial;
  core::PlfEngine ref(inst.data, inst.params, inst.tree, serial,
                      core::KernelVariant::kSimdCol);
  CellConfig cfg;
  cfg.n_spes = 7;
  CellMachine cell(cfg);
  core::PlfEngine engine(inst.data, inst.params, inst.tree, cell,
                         core::KernelVariant::kSimdCol);
  EXPECT_NEAR(engine.log_likelihood(), ref.log_likelihood(),
              std::abs(ref.log_likelihood()) * 1e-12);
}

TEST(CellMachineTest, McmcStyleProposalsOnCell) {
  auto inst = engine_instance(8, 150, 15);
  CellConfig cfg;
  cfg.n_spes = 6;
  CellMachine cell(cfg);
  core::PlfEngine engine(inst.data, inst.params, inst.tree, cell,
                         core::KernelVariant::kSimdCol);
  const double before = engine.log_likelihood();
  engine.begin_proposal();
  engine.set_branch_length(engine.tree().branch_nodes()[1], 0.5);
  engine.log_likelihood();
  engine.reject();
  EXPECT_DOUBLE_EQ(engine.log_likelihood(), before);
}

TEST(CellMachineTest, RowSimdMachineMatchesRowHost) {
  auto inst = engine_instance(7, 120, 16);
  core::SerialBackend serial;
  core::PlfEngine ref(inst.data, inst.params, inst.tree, serial,
                      core::KernelVariant::kSimdRow);
  CellConfig cfg;
  cfg.simd = SpuSimd::kRowWise;
  CellMachine cell(cfg);
  core::PlfEngine engine(inst.data, inst.params, inst.tree, cell,
                         core::KernelVariant::kSimdRow);
  EXPECT_NEAR(engine.log_likelihood(), ref.log_likelihood(),
              std::abs(ref.log_likelihood()) * 1e-12);
}

TEST(CellMachineTest, InvalidSpeCountRejected) {
  CellConfig cfg;
  cfg.n_spes = 4;
  CellMachine cell(cfg);
  SpuJob job;
  EXPECT_THROW(cell.offload(SpuCommand::kNop, job, 100, 5), Error);
  CellConfig zero;
  zero.n_spes = 0;
  EXPECT_THROW(CellMachine{zero}, Error);
}

}  // namespace
}  // namespace plf::cell
