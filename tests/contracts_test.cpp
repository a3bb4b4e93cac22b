// Tests for the contract/invariant layer (util/contracts.hpp).
//
// This TU is compiled with -DPLF_CONTRACTS_CHECKED=1 (see tests/CMakeLists),
// so the PLF_DCHECK/PLF_ASSUME family is active here even in release builds
// and can be exercised with death tests. The *library* objects keep whatever
// contract level the build selected; the kernel-entry integration tests query
// plf::contracts_active() and skip when the library was built unchecked.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"
#include "core/plan.hpp"
#include "obs/flight.hpp"
#include "util/aligned.hpp"
#include "util/contracts.hpp"

namespace plf {
namespace {

using core::DownArgs;
using core::KernelVariant;

TEST(CheckTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(PLF_CHECK(1 + 1 == 2, "arithmetic works"));
  EXPECT_NO_THROW(PLF_CHECK_HW(true, "hardware rule holds"));
}

TEST(CheckTest, FailingCheckThrowsErrorWithContext) {
  try {
    PLF_CHECK(2 + 2 == 5, "math is broken");
    FAIL() << "PLF_CHECK did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math is broken"), std::string::npos) << what;
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("contracts_test.cpp"), std::string::npos) << what;
  }
}

TEST(CheckTest, FailingHwCheckThrowsHardwareViolation) {
  EXPECT_THROW(PLF_CHECK_HW(false, "simulated rule"), HardwareViolation);
}

TEST(CheckTest, AlignedCheckAcceptsAlignedPointer) {
  aligned_vector<float> v(32, 0.0f);
  EXPECT_NO_THROW(PLF_CHECK_ALIGNED(v.data(), 16));
  EXPECT_NO_THROW(PLF_CHECK_ALIGNED(v.data(), kDmaAlignBytes));
}

TEST(CheckTest, AlignedCheckRejectsMisalignedPointer) {
  aligned_vector<std::uint8_t> v(64, 0);
  const std::uint8_t* off = v.data() + 3;
  try {
    PLF_CHECK_ALIGNED(off, 16);
    FAIL() << "PLF_CHECK_ALIGNED did not throw";
  } catch (const HardwareViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("16-byte aligned"), std::string::npos) << what;
    EXPECT_NE(what.find("off"), std::string::npos) << what;
  }
}

TEST(DcheckDeathTest, FailingDcheckAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PLF_DCHECK(false, "dcheck fired"),
               "contract violation: dcheck fired");
}

TEST(DcheckDeathTest, PassingDcheckIsSilent) {
  int evaluations = 0;
  PLF_DCHECK(++evaluations == 1, "must pass");
  EXPECT_EQ(evaluations, 1);  // checked build: condition evaluated once
}

TEST(DcheckDeathTest, MisalignedDcheckAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  aligned_vector<std::uint8_t> v(64, 0);
  const std::uint8_t* off = v.data() + 1;
  EXPECT_DEATH(PLF_DCHECK_ALIGNED(off, 16), "not 16-byte aligned");
}

TEST(AssumeDeathTest, FalseAssumptionAbortsInCheckedBuilds) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PLF_ASSUME(1 == 2), "contract violation");
}

TEST(AssumeDeathTest, TrueAssumptionIsSilent) { PLF_ASSUME(1 == 1); }

// --- flight recorder on the death paths -----------------------------------
//
// The dying child writes the flight JSON to stderr (matched by EXPECT_DEATH)
// and to PLF_FLIGHT_PATH; the parent then parses the file and checks the
// failing thread's last spans survived the crash.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FlightDeathTest, ContractAbortDumpsLastSpans) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      testing::TempDir() + "plf_flight_contract_death.json";
  std::remove(path.c_str());
  ::setenv("PLF_FLIGHT_PATH", path.c_str(), 1);

  EXPECT_DEATH(
      {
        obs::flight_record_span("flight.before.crash", 111, 22);
        obs::flight_record_count("flight.crash.count", 7);
        PLF_DCHECK(false, "flight dump trigger");
      },
      // The contract hook runs before abort and prints the ring to stderr
      // (gtest matches POSIX ERE per line, so anchor on the JSON line).
      "\"name\":\"flight\\.before\\.crash\"");

  const std::string json = read_file(path);
  ::unsetenv("PLF_FLIGHT_PATH");
  ASSERT_FALSE(json.empty()) << "death child did not write " << path;
  EXPECT_NE(json.find("\"schema\":\"plf-flight-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"contract-violation\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"span\",\"name\":\"flight.before.crash\""),
            std::string::npos);
  EXPECT_NE(json.find("\"t_ns\":111,\"dur_ns\":22"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"count\",\"name\":\"flight.crash.count\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightDeathTest, UncaughtCheckThrowDumpsViaTerminateHook) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      testing::TempDir() + "plf_flight_terminate_death.json";
  std::remove(path.c_str());
  ::setenv("PLF_FLIGHT_PATH", path.c_str(), 1);

  EXPECT_DEATH(
      {
        obs::install_flight_handlers();
        obs::flight_record_span("flight.terminate.span", 5, 9);
        // noexcept boundary: the PLF_CHECK throw cannot escape, so the
        // process reaches std::terminate and the installed hook dumps.
        []() noexcept { PLF_CHECK(false, "uncaught escapes to terminate"); }();
      },
      "\"name\":\"flight\\.terminate\\.span\"");

  const std::string json = read_file(path);
  ::unsetenv("PLF_FLIGHT_PATH");
  ASSERT_FALSE(json.empty()) << "death child did not write " << path;
  EXPECT_NE(json.find("\"reason\":\"terminate\""), std::string::npos);
  EXPECT_NE(json.find("flight.terminate.span"), std::string::npos);
  std::remove(path.c_str());
}

/// Minimal valid cond_like_down argument pack over aligned storage.
struct DownFixture {
  static constexpr std::size_t kPatterns = 8;
  static constexpr std::size_t kCats = 4;
  aligned_vector<float> cl_l, cl_r, out, p, pt;

  DownFixture()
      : cl_l(kPatterns * kCats * 4, 0.25f),
        cl_r(kPatterns * kCats * 4, 0.25f),
        out(kPatterns * kCats * 4, 0.0f),
        p(kCats * 16, 0.25f),
        pt(kCats * 16, 0.25f) {}

  DownArgs args() {
    DownArgs a;
    a.left.cl = cl_l.data();
    a.left.p = p.data();
    a.left.pt = pt.data();
    a.right.cl = cl_r.data();
    a.right.p = p.data();
    a.right.pt = pt.data();
    a.out = out.data();
    a.K = kCats;
    return a;
  }
};

TEST(KernelContractTest, ValidArgumentsRunOnEveryVariant) {
  DownFixture f;
  for (auto v : {KernelVariant::kScalar, KernelVariant::kSimdRow,
                 KernelVariant::kSimdCol, KernelVariant::kSimdCol8}) {
    DownArgs a = f.args();
    core::kernels(v).down(a, 0, DownFixture::kPatterns);
    for (float x : f.out) EXPECT_GT(x, 0.0f);
  }
}

TEST(KernelContractDeathTest, MisalignedOutputTripsSimdEntryContract) {
  if (!contracts_active()) {
    GTEST_SKIP() << "library built without checked contracts";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DownFixture f;
  DownArgs a = f.args();
  a.out = f.out.data() + 1;  // off by one float: 4-byte, not 16-byte, aligned
  EXPECT_DEATH(core::kernels(KernelVariant::kSimdCol).down(a, 0, 4),
               "contract violation");
}

TEST(KernelContractDeathTest, ZeroRateCategoriesTripsEntryContract) {
  if (!contracts_active()) {
    GTEST_SKIP() << "library built without checked contracts";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DownFixture f;
  DownArgs a = f.args();
  a.K = 0;
  EXPECT_DEATH(core::kernels(KernelVariant::kScalar).down(a, 0, 4),
               "rate category");
}

TEST(KernelContractDeathTest, AmbiguousChildTripsEntryContract) {
  if (!contracts_active()) {
    GTEST_SKIP() << "library built without checked contracts";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DownFixture f;
  DownArgs a = f.args();
  a.left.cl = nullptr;  // neither internal (cl) nor tip (mask)
  EXPECT_DEATH(core::kernels(KernelVariant::kScalar).down(a, 0, 4),
               "contract violation");
}

TEST(KernelContractTest, SiteIndexedRunTouchesOnlyIndexedSites) {
  DownFixture f;
  DownArgs a = f.args();
  const std::uint32_t idx[4] = {0, 2, 5, 7};
  a.site_index = idx;
  a.n_sites = DownFixture::kPatterns;
  core::kernels(KernelVariant::kScalar).down(a, 0, 4);
  for (std::size_t c = 0; c < DownFixture::kPatterns; ++c) {
    const bool indexed = c == 0 || c == 2 || c == 5 || c == 7;
    for (std::size_t j = 0; j < DownFixture::kCats * 4; ++j) {
      const float x = f.out[c * DownFixture::kCats * 4 + j];
      if (indexed) {
        EXPECT_GT(x, 0.0f) << "site " << c;
      } else {
        EXPECT_EQ(x, 0.0f) << "site " << c;  // skipped: scatter's job
      }
    }
  }
}

TEST(KernelContractTest, OutOfRangeRepeatIndexTripsEntryContract) {
  // The bound check is a PLF_CHECK (always on, throwing): the index vector
  // crosses the repeats-subsystem/kernel trust boundary in every build mode,
  // so a corrupt index must never reach the CLV gathers.
  DownFixture f;
  DownArgs a = f.args();
  const std::uint32_t idx[4] = {0, 1, 2, 99};  // 99 >= n_sites
  a.site_index = idx;
  a.n_sites = DownFixture::kPatterns;
  try {
    core::kernels(KernelVariant::kScalar).down(a, 0, 4);
    FAIL() << "out-of-range site_index did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("repeat index out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(KernelContractDeathTest, NonIncreasingRepeatIndexTripsCheckedContract) {
  if (!contracts_active()) {
    GTEST_SKIP() << "library built without checked contracts";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DownFixture f;
  DownArgs a = f.args();
  const std::uint32_t idx[4] = {0, 3, 2, 7};  // not strictly increasing
  a.site_index = idx;
  a.n_sites = DownFixture::kPatterns;
  EXPECT_DEATH(core::kernels(KernelVariant::kScalar).down(a, 0, 4),
               "strictly increasing");
}

/// Minimal valid tip×tip (cherry) argument pack: all 4-bit state codes in
/// range, pair tables sized for the full 16×16 mask space.
struct TipTipFixture {
  static constexpr std::size_t kPatterns = 8;
  static constexpr std::size_t kCats = 4;
  std::vector<phylo::StateMask> ml, mr;
  aligned_vector<float> pair, pair_scaled, ln, out, scaler;

  TipTipFixture()
      : ml(kPatterns, phylo::StateMask{1}),
        mr(kPatterns, phylo::StateMask{2}),
        pair(phylo::kNumMasks * phylo::kNumMasks * kCats * 4, 0.5f),
        pair_scaled(phylo::kNumMasks * phylo::kNumMasks * kCats * 4, 1.0f),
        ln(phylo::kNumMasks * phylo::kNumMasks, 0.0f),
        out(kPatterns * kCats * 4, 0.0f),
        scaler(kPatterns, 0.0f) {}

  core::TipTipArgs args() {
    core::TipTipArgs a;
    a.left_mask = ml.data();
    a.right_mask = mr.data();
    a.pair = pair.data();
    a.pair_scaled = pair_scaled.data();
    a.pair_ln = ln.data();
    a.out = out.data();
    a.K = kCats;
    a.table_categories = kCats;
    a.n_sites = kPatterns;
    return a;
  }
};

TEST(TipKernelContractTest, ValidTipTipGatherRuns) {
  TipTipFixture f;
  core::TipTipArgs a = f.args();
  core::kernels(KernelVariant::kScalar)
      .down_tt(a, 0, TipTipFixture::kPatterns);
  for (float x : f.out) EXPECT_GT(x, 0.0f);
}

TEST(TipKernelContractTest, PairTableCategoryMismatchThrows) {
  // PLF_CHECK, active in every build mode: a table built for a different K
  // would stride the gather wrong, so it is rejected at the trust boundary
  // rather than silently reading the wrong rows.
  TipTipFixture f;
  core::TipTipArgs a = f.args();
  a.table_categories = 2;
  EXPECT_THROW(core::kernels(KernelVariant::kScalar)
                   .down_tt(a, 0, TipTipFixture::kPatterns),
               Error);
}

TEST(TipKernelContractDeathTest, OutOfRangeTipStateCodeTripsCheckedContract) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  TipTipFixture f;
  // 16 is not a 4-bit ambiguity code; the gather would index a foreign row.
  f.ml[3] = static_cast<phylo::StateMask>(phylo::kNumMasks);
  core::TipTipArgs a = f.args();
  EXPECT_DEATH(core::detail::check_down_tt(a, 0, TipTipFixture::kPatterns),
               "tip-state code out of range");
}

TEST(FusedScaleContractDeathTest, NonAliasingScaleBlockIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DownFixture f;
  DownArgs d = f.args();
  aligned_vector<float> other(DownFixture::kPatterns * DownFixture::kCats * 4);
  aligned_vector<float> scaler(DownFixture::kPatterns, 0.0f);
  core::ScaleArgs s;
  s.cl = other.data();  // some other node's CLV, not this op's down output
  s.ln_scaler = scaler.data();
  s.K = DownFixture::kCats;
  EXPECT_DEATH(core::detail::check_fused_scale(s, d.out, d.K, d.site_index),
               "must alias the down output");
}

TEST(FusedScaleContractDeathTest, FusedEntryRejectsForeignScaleBlock) {
  if (!contracts_active()) {
    GTEST_SKIP() << "library built without checked contracts";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DownFixture f;
  DownArgs d = f.args();
  aligned_vector<float> other(DownFixture::kPatterns * DownFixture::kCats * 4);
  aligned_vector<float> scaler(DownFixture::kPatterns, 0.0f);
  core::ScaleArgs s;
  s.cl = other.data();
  s.ln_scaler = scaler.data();
  s.K = DownFixture::kCats;
  EXPECT_DEATH(core::kernels(KernelVariant::kScalar).down_scale(d, s, 0, 4),
               "contract violation");
}

/// Minimal storage for structurally valid PlfOps (check_plan inspects
/// pointers and counts, never the float contents).
struct PlanFixture {
  static constexpr std::size_t kPatterns = 8;
  aligned_vector<float> out{kPatterns * 4 * 4, 0.0f};
  aligned_vector<float> scaler{kPatterns, 0.0f};

  core::PlfOp op(int node, int left = phylo::kNoNode,
                 int right = phylo::kNoNode) {
    core::PlfOp o;
    o.node = node;
    o.left = left;
    o.right = right;
    o.args.down.out = out.data();
    o.args.down.K = 4;
    o.scale.cl = out.data();
    o.scale.ln_scaler = scaler.data();
    o.scale.K = 4;
    o.run_m = kPatterns;
    return o;
  }
};

// check_plan is header-inline, so this TU's PLF_CONTRACTS_CHECKED=1 gives the
// death paths regardless of how the library objects were built.
TEST(PlanContractTest, ValidLeveledPlanPasses) {
  PlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  plan.add(f.op(1), 0);
  plan.add(f.op(2), 0);
  plan.add(f.op(3, 1, 2), 1);
  plan.finalize();
  EXPECT_NO_THROW(core::detail::check_plan(plan));
}

TEST(PlanContractDeathTest, UnfinalizedPlanIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  plan.add(f.op(1), 0);
  EXPECT_DEATH(core::detail::check_plan(plan), "must be finalized");
}

TEST(PlanContractDeathTest, SameLevelChildIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  plan.add(f.op(1), 0);
  plan.add(f.op(3, 1, phylo::kNoNode), 0);  // child 1 shares level 0
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan), "strictly earlier level");
}

TEST(PlanContractDeathTest, UnfusedScaleAliasIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.op(1);
  op.scale.cl = f.out.data() + 16;  // scales some other node's CLV
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan),
               "must alias the op's down output");
}

TEST(PlanContractDeathTest, OversizedOpIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.op(1);
  op.run_m = PlanFixture::kPatterns + 1;
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan), "exceeds pattern count");
}

TEST(PlanContractDeathTest, TipTipOpWritingForeignOutputIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  TipTipFixture t;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.op(1);
  op.kind = core::PlfOpKind::kTipTip;
  op.tt = t.args();  // t.out != f.out: the gather would bypass the op's CLV
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan),
               "must write the op's down output");
}

TEST(PlanContractDeathTest, TipTipOpWithForeignTableStrideIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  TipTipFixture t;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.op(1);
  op.kind = core::PlfOpKind::kTipTip;
  op.tt = t.args();
  op.tt.out = op.args.down.out;
  op.tt.table_categories = 2;  // stale table from a different model K
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan),
               "pair table built for a different K");
}

TEST(PlanContractDeathTest, NonCanonicalTipInnerOpIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.op(1);
  op.kind = core::PlfOpKind::kTipInner;  // but left has no tip mask
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan), "canonicalized tip-left");
}

TEST(PlanContractDeathTest, SpecializedRootOpIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.op(1);
  op.is_root = true;
  op.kind = core::PlfOpKind::kTipInner;
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan), "generic three-way kernel");
}

// --- budgeted CLV arena contracts ------------------------------------------
//
// check_arena(arena) and check_arena(arena, plan) are header-inline, so this
// TU's PLF_CONTRACTS_CHECKED=1 arms their death paths regardless of how the
// library objects were built; the eviction-order DCHECK inside
// ClvArena::evict_slot_for_test lives in library code and is gated on
// contracts_active(). Each death additionally dumps the flight-recorder JSON
// — a crashed memory-constrained run must leave a parseable trace behind.

TEST(ArenaContractDeathTest, EvictedClvReachingAKernelAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "plf_flight_arena_read.json";
  std::remove(path.c_str());
  ::setenv("PLF_FLIGHT_PATH", path.c_str(), 1);

  EXPECT_DEATH(
      {
        obs::flight_record_span("arena.read.crash", 42, 7);
        core::ClvArena arena;
        constexpr std::size_t kFloats = 16;
        arena.init(4, kFloats, 2 * kFloats * sizeof(float));  // capacity: 2
        float* child = arena.acquire(0);
        float* out = arena.acquire(1);
        core::PlfPlan plan;
        plan.reset(4, 4);
        core::PlfOp op;
        op.node = 1;
        op.args.down.out = out;
        op.args.down.left.cl = child;
        op.run_m = 4;
        plan.add(op, 0);
        // Evict slot 0 so op.left.cl dangles. Not via acquire(2): that frees
        // slot 0 and at once allocates a block of the same size, which an
        // allocator without a quarantine (ThreadSanitizer's) hands back at
        // the same address, making the stale pointer resident again.
        arena.evict_slot_for_test(0);
        core::detail::check_arena(arena, plan);
      },
      "kernel would read an evicted CLV pointer");

  const std::string json = read_file(path);
  ::unsetenv("PLF_FLIGHT_PATH");
  ASSERT_FALSE(json.empty()) << "death child did not write " << path;
  EXPECT_NE(json.find("\"schema\":\"plf-flight-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"contract-violation\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"arena.read.crash\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ArenaContractDeathTest, EvictingAPinnedSlotAborts) {
  if (!contracts_active()) {
    GTEST_SKIP() << "library built without checked contracts";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "plf_flight_arena_pin.json";
  std::remove(path.c_str());
  ::setenv("PLF_FLIGHT_PATH", path.c_str(), 1);

  EXPECT_DEATH(
      {
        obs::flight_record_span("arena.pin.crash", 13, 3);
        core::ClvArena arena;
        constexpr std::size_t kFloats = 16;
        arena.init(4, kFloats, 2 * kFloats * sizeof(float));
        arena.acquire(0);
        arena.pin(0);  // pinned: the current evaluation still reads it
        arena.evict_slot_for_test(0);
      },
      "eviction order must respect pin state");

  const std::string json = read_file(path);
  ::unsetenv("PLF_FLIGHT_PATH");
  ASSERT_FALSE(json.empty()) << "death child did not write " << path;
  EXPECT_NE(json.find("\"reason\":\"contract-violation\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"arena.pin.crash\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ArenaContractTest, ExhaustionThrowsWithActionableMessage) {
  // All-pinned exhaustion is a PLF_CHECK (always on, throwing): it crosses
  // the user-configuration trust boundary in every build mode, and the
  // message must tell the operator what to do about it.
  core::ClvArena arena;
  constexpr std::size_t kFloats = 16;
  arena.init(4, kFloats, 1 * kFloats * sizeof(float));  // capacity: 1
  arena.acquire(0);
  arena.pin(0);
  try {
    arena.acquire(1);
    FAIL() << "acquire past an all-pinned budget did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("clv arena exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("raise --clv-budget"), std::string::npos) << what;
  }
}

TEST(ArenaContractDeathTest, UncaughtExhaustionDumpsViaTerminateHook) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path =
      testing::TempDir() + "plf_flight_arena_exhausted.json";
  std::remove(path.c_str());
  ::setenv("PLF_FLIGHT_PATH", path.c_str(), 1);

  EXPECT_DEATH(
      {
        obs::install_flight_handlers();
        obs::flight_record_span("arena.exhausted.crash", 99, 1);
        core::ClvArena arena;
        constexpr std::size_t kFloats = 16;
        arena.init(4, kFloats, 1 * kFloats * sizeof(float));
        arena.acquire(0);
        arena.pin(0);
        // noexcept boundary (a backend worker, say): the exhaustion throw
        // cannot escape, so the process terminates and the hook dumps.
        [&arena]() noexcept { arena.acquire(1); }();
      },
      "\"name\":\"arena\\.exhausted\\.crash\"");

  const std::string json = read_file(path);
  ::unsetenv("PLF_FLIGHT_PATH");
  ASSERT_FALSE(json.empty()) << "death child did not write " << path;
  EXPECT_NE(json.find("\"schema\":\"plf-flight-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"terminate\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"arena.exhausted.crash\""),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace plf
