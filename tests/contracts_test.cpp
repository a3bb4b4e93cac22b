// Tests for the contract/invariant layer (util/contracts.hpp).
//
// This TU is compiled with -DPLF_CONTRACTS_CHECKED=1 (see tests/CMakeLists),
// so the PLF_DCHECK/PLF_ASSUME family is active here even in release builds
// and can be exercised with death tests. The *library* objects keep whatever
// contract level the build selected; the kernel-entry integration tests query
// plf::contracts_active() and skip when the library was built unchecked.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
                 KernelVariant::kSimdCol, KernelVariant::kSimdSite}) {
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
  // Compacted-storage contract: output row r is computed from site
  // site_index[r], an internal child is read at its own stored row
  // row_of[c], and rows at or past the run length stay untouched.
  DownFixture f;
  constexpr std::size_t kRow = DownFixture::kCats * 4;
  // Left child compacted into 4 rows (sites 2j and 2j+1 share row j), each
  // row distinct; right child dense, each site distinct.
  const std::uint32_t row_of[DownFixture::kPatterns] = {0, 0, 1, 1,
                                                         2, 2, 3, 3};
  for (std::size_t v = 0; v < f.cl_l.size(); ++v) {
    f.cl_l[v] = 0.1f + 0.05f * static_cast<float>(v / kRow);
    f.cl_r[v] = 0.2f + 0.03f * static_cast<float>(v / kRow);
  }
  // Reference: the dense run over the left child expanded to one row per
  // site.
  aligned_vector<float> left_dense(f.cl_l.size());
  for (std::size_t c = 0; c < DownFixture::kPatterns; ++c) {
    std::memcpy(left_dense.data() + c * kRow,
                f.cl_l.data() + row_of[c] * kRow, kRow * sizeof(float));
  }
  aligned_vector<float> ref(f.out.size(), 0.0f);
  DownArgs d = f.args();
  d.left.cl = left_dense.data();
  d.out = ref.data();

  const std::uint32_t idx[4] = {0, 2, 5, 7};
  DownArgs a = f.args();
  a.left.row_of = row_of;
  a.site_index = idx;
  a.n_sites = DownFixture::kPatterns;
  for (auto variant : {KernelVariant::kScalar, KernelVariant::kSimdRow,
                       KernelVariant::kSimdCol, KernelVariant::kSimdSite}) {
    std::fill(f.out.begin(), f.out.end(), 0.0f);
    std::fill(ref.begin(), ref.end(), 0.0f);
    core::kernels(variant).down(d, 0, DownFixture::kPatterns);
    core::kernels(variant).down(a, 0, 4);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(std::memcmp(f.out.data() + r * kRow,
                            ref.data() + idx[r] * kRow, kRow * sizeof(float)),
                0)
          << "row " << r << " variant " << core::to_string(variant);
    }
    for (std::size_t v = 4 * kRow; v < f.out.size(); ++v) {
      EXPECT_EQ(f.out[v], 0.0f) << "row " << v / kRow << " past run_m";
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

TEST(TipKernelContractDeathTest, OutOfRangeTipStateCodeTripsCheckedContract) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  DownFixture f;
  std::vector<phylo::StateMask> masks(DownFixture::kPatterns,
                                      phylo::StateMask{1});
  // 16 is not a 4-bit ambiguity code; the kernel would read a foreign
  // tip-partial row.
  masks[3] = static_cast<phylo::StateMask>(phylo::kNumMasks);
  DownArgs a = f.args();
  a.left.cl = nullptr;
  a.left.mask = masks.data();
  a.left.tp = f.p.data();
  EXPECT_DEATH(core::detail::check_down(a, 0, DownFixture::kPatterns, false),
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
  EXPECT_DEATH(core::detail::check_fused_scale(s, d.out, d.K),
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
  aligned_vector<std::int32_t> cum{kPatterns, 0};

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
    o.cum.out = cum.data();
    o.cum.exponent = scaler.data();
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

TEST(PlanContractDeathTest, CumStepOnAForeignScalerRowIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.op(1);
  aligned_vector<float> other(PlanFixture::kPatterns, 0.0f);
  op.cum.exponent = other.data();  // not the row this op's scale writes
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan),
               "must follow the op's own scale step");
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

/// Repeat classes {0,1}{2,3}{4,5}{6,7} over the fixture's 8 patterns, and an
/// op compacted onto them.
struct CompactedPlanFixture : PlanFixture {
  core::NodeRepeats rep;

  CompactedPlanFixture() {
    rep.n_classes = 4;
    for (std::uint32_t c = 0; c < kPatterns; ++c) {
      rep.class_of_site.push_back(c / 2);
    }
    rep.unique_sites = {0, 2, 4, 6};
  }

  core::PlfOp compacted_op(int node) {
    core::PlfOp o = op(node);
    o.repeats = &rep;
    o.run_m = rep.n_classes;
    o.args.down.site_index = rep.unique_sites.data();
    o.cum.site_index = rep.unique_sites.data();
    return o;
  }
};

TEST(PlanContractTest, ValidCompactedOpPasses) {
  CompactedPlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  plan.add(f.compacted_op(1), 0);
  plan.finalize();
  EXPECT_NO_THROW(core::detail::check_plan(plan));
}

TEST(PlanContractDeathTest, CompactedRootOpIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  CompactedPlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.compacted_op(1);
  op.is_root = true;
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan), "root op must stay dense");
}

TEST(PlanContractDeathTest, CompactedOpOverAllSitesIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  CompactedPlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.compacted_op(1);
  op.run_m = PlanFixture::kPatterns;  // one row per site, not per class
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan), "iterate its class count");
}

TEST(PlanContractDeathTest, CompactedOpWithoutItsRepresentativesIsRejected) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  CompactedPlanFixture f;
  core::PlfPlan plan;
  plan.reset(8, PlanFixture::kPatterns);
  core::PlfOp op = f.compacted_op(1);
  op.args.down.site_index = nullptr;  // rows 0..3 would be sites 0..3
  op.cum.site_index = nullptr;
  plan.add(op, 0);
  plan.finalize();
  EXPECT_DEATH(core::detail::check_plan(plan), "index its representatives");
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
