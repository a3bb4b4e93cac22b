// Property/fuzz battery for the budgeted CLV arena (core/clv_arena.hpp).
//
// Three layers:
//   1. ClvBudget parsing/resolution: fractions vs bytes vs suffixes, and the
//      clamp up to the minimum feasible working set.
//   2. The arena as an eviction state machine: randomized acquire/pin/unpin
//      storms checked against an independent reference model of LRU order,
//      the resident set, and victim selection — after every single op.
//   3. The engine property the tentpole promises: a budgeted engine is
//      BIT-IDENTICAL (0 ULP) to an unbudgeted twin through randomized
//      NNI/SPR/branch/model proposal storms at budgets from 100% down to the
//      minimum feasible, while resident bytes never exceed the budget and
//      tight budgets demonstrably evict (arena.evictions > 0).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/clv_arena.hpp"
#include "core/engine.hpp"
#include "par/thread_pool.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace plf::core {
namespace {

// --- layer 1: budget parsing and resolution ---------------------------------

TEST(ClvBudgetTest, ParsesFractionsBytesAndSuffixes) {
  EXPECT_TRUE(clv_budget_from_string("unlimited").unlimited());

  const ClvBudget half = clv_budget_from_string("0.5");
  EXPECT_EQ(half.kind, ClvBudget::Kind::kFraction);
  EXPECT_DOUBLE_EQ(half.fraction, 0.5);

  // "1" and "1.0" both mean the whole pool, not one byte.
  EXPECT_EQ(clv_budget_from_string("1").kind, ClvBudget::Kind::kFraction);
  EXPECT_DOUBLE_EQ(clv_budget_from_string("1.0").fraction, 1.0);

  const ClvBudget bytes = clv_budget_from_string("1048576");
  EXPECT_EQ(bytes.kind, ClvBudget::Kind::kBytes);
  EXPECT_EQ(bytes.bytes, std::size_t{1048576});

  EXPECT_EQ(clv_budget_from_string("512k").bytes, std::size_t{512} << 10);
  EXPECT_EQ(clv_budget_from_string("64M").bytes, std::size_t{64} << 20);
  EXPECT_EQ(clv_budget_from_string("2g").bytes, std::size_t{2} << 30);
}

TEST(ClvBudgetTest, RejectsMalformedValues) {
  EXPECT_THROW(clv_budget_from_string(""), Error);
  EXPECT_THROW(clv_budget_from_string("lots"), Error);
  EXPECT_THROW(clv_budget_from_string("m"), Error);
  EXPECT_THROW(clv_budget_from_string("0"), Error);
  EXPECT_THROW(clv_budget_from_string("-0.5"), Error);
  EXPECT_THROW(clv_budget_from_string("1.5"), Error);  // fraction > 1
  EXPECT_THROW(clv_budget_from_string("0.5x"), Error);
}

TEST(ClvBudgetTest, ResolveClampsUpToMinimumFeasible) {
  const std::size_t full = 1000;
  const std::size_t min = 500;
  EXPECT_EQ(ClvBudget{}.resolve(full, min), full);  // unlimited

  ClvBudget frac;
  frac.kind = ClvBudget::Kind::kFraction;
  frac.fraction = 0.75;
  EXPECT_EQ(frac.resolve(full, min), std::size_t{750});
  frac.fraction = 0.25;  // below the feasible floor: clamped up
  EXPECT_EQ(frac.resolve(full, min), min);

  ClvBudget b;
  b.kind = ClvBudget::Kind::kBytes;
  b.bytes = 1;
  EXPECT_EQ(b.resolve(full, min), min);
  b.bytes = 900;
  EXPECT_EQ(b.resolve(full, min), std::size_t{900});
}

// --- layer 2: the eviction state machine vs a reference model ---------------

/// Independent model of the arena's documented policy: resident slots in LRU
/// order (front = next victim), eviction takes the first unpinned slot from
/// the front, acquire of a miss evicts before allocating.
struct LruRef {
  std::size_t capacity;
  std::vector<int> order;  // LRU -> MRU
  std::vector<int> pins;   // per-slot pin count
  std::uint64_t hits = 0, misses = 0, evictions = 0;

  explicit LruRef(std::size_t cap, std::size_t n_slots)
      : capacity(cap), pins(n_slots, 0) {}

  bool resident(int slot) const {
    return std::find(order.begin(), order.end(), slot) != order.end();
  }
  void touch(int slot) {
    order.erase(std::find(order.begin(), order.end(), slot));
    order.push_back(slot);
  }
  void acquire(int slot) {
    if (resident(slot)) {
      ++hits;
      touch(slot);
      return;
    }
    ++misses;
    while (order.size() >= capacity) {
      auto victim = std::find_if(order.begin(), order.end(),
                                 [&](int s) { return pins[static_cast<std::size_t>(s)] == 0; });
      ASSERT_NE(victim, order.end()) << "reference model exhausted";
      ++evictions;
      order.erase(victim);
    }
    order.push_back(slot);
  }
};

TEST(ClvArenaLruTest, RandomizedOpsMatchReferenceModel) {
  constexpr std::size_t kSlots = 24;
  constexpr std::size_t kSlotFloats = 32;
  constexpr std::size_t kCapacity = 6;
  const std::size_t slot_bytes = kSlotFloats * sizeof(float);

  for (std::uint64_t seed : {11u, 31u, 77u}) {
    ClvArena arena;
    arena.init(kSlots, kSlotFloats, kCapacity * slot_bytes);
    LruRef ref(kCapacity, kSlots);
    Rng rng(seed);

    std::size_t pinned_slots = 0;
    for (int op = 0; op < 2000; ++op) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
      const std::size_t r = rng.below(100);
      if (r < 70) {
        const int slot = static_cast<int>(rng.below(kSlots));
        arena.acquire(slot);
        ref.acquire(slot);
      } else if (r < 82 && !ref.order.empty() && pinned_slots + 1 < kCapacity) {
        // Pin a resident slot (keep at least one evictable so acquire can
        // always make progress — exhaustion has its own test below).
        const int slot = ref.order[rng.below(ref.order.size())];
        if (ref.pins[static_cast<std::size_t>(slot)] == 0) ++pinned_slots;
        ++ref.pins[static_cast<std::size_t>(slot)];
        arena.pin(slot);
      } else if (r < 92) {
        // Unpin one pinned slot, if any.
        for (std::size_t s = 0; s < kSlots; ++s) {
          if (ref.pins[s] > 0) {
            --ref.pins[s];
            if (ref.pins[s] == 0) --pinned_slots;
            arena.unpin(static_cast<int>(s));
            break;
          }
        }
      } else {
        arena.release_eval_pins();
        std::fill(ref.pins.begin(), ref.pins.end(), 0);
        pinned_slots = 0;
      }

      // (b) resident bytes never exceed the budget; (c) LRU order matches.
      ASSERT_LE(arena.resident_bytes(), arena.budget_bytes());
      ASSERT_EQ(arena.lru_order_for_test(), ref.order);
      ASSERT_EQ(arena.resident_bytes(), ref.order.size() * slot_bytes);
    }

    const ArenaCounters c = arena.counters();
    EXPECT_EQ(c.hits, ref.hits);
    EXPECT_EQ(c.misses, ref.misses);
    EXPECT_EQ(c.evictions, ref.evictions);
  }
}

TEST(ClvArenaLruTest, EvictionSkipsPinnedSlots) {
  ClvArena arena;
  arena.init(4, 8, 2 * 8 * sizeof(float));  // capacity: 2 slots
  arena.acquire(0);
  arena.acquire(1);
  arena.pin(0);  // slot 0 is LRU but pinned: slot 1 must be the victim
  arena.acquire(2);
  EXPECT_TRUE(arena.resident(0));
  EXPECT_FALSE(arena.resident(1));
  EXPECT_TRUE(arena.resident(2));
  EXPECT_EQ(arena.counters().evictions, 1u);
  EXPECT_EQ(arena.lru_order_for_test(), (std::vector<int>{0, 2}));
}

TEST(ClvArenaLruTest, ExhaustionReportsClearMessage) {
  ClvArena arena;
  arena.init(4, 8, 1 * 8 * sizeof(float));  // capacity: 1 slot
  arena.acquire(0);
  arena.pin(0);
  try {
    arena.acquire(1);
    FAIL() << "acquire past an all-pinned budget must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("raise --clv-budget"),
              std::string::npos)
        << e.what();
  }
}

TEST(ClvArenaLruTest, PinLifecycleChecks) {
  ClvArena arena;
  arena.init(4, 8, 4 * 8 * sizeof(float));
  EXPECT_THROW(arena.pin(0), Error);  // not resident yet
  arena.acquire(0);
  EXPECT_THROW(arena.unpin(0), Error);  // never pinned
  arena.pin(0);
  arena.pin(0);  // pins nest
  arena.unpin(0);
  EXPECT_TRUE(arena.pinned(0));
  arena.release_eval_pins();
  EXPECT_FALSE(arena.pinned(0));
}

// --- layer 3: budgeted vs unbudgeted twin engines ---------------------------

struct Dataset {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
};

Dataset make_dataset(std::uint64_t seed, std::size_t n_taxa) {
  Rng rng(seed);
  Dataset d{seqgen::yule_tree(n_taxa, rng, 1.0, 0.1),
            seqgen::default_gtr_params(), {}};
  phylo::SubstitutionModel model(d.params);
  seqgen::SequenceEvolver ev(d.tree, model);
  d.data = phylo::PatternMatrix::compress(ev.evolve(180, rng));
  return d;
}

enum class BackendKind { kSerial, kThreaded };

struct BackendHolder {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<ExecutionBackend> backend;

  static BackendHolder make(BackendKind kind) {
    BackendHolder h;
    if (kind == BackendKind::kThreaded) {
      h.pool = std::make_unique<par::ThreadPool>(4);
      h.backend = std::make_unique<ThreadedBackend>(*h.pool);
    } else {
      h.backend = std::make_unique<SerialBackend>();
    }
    return h;
  }
};

/// Drive a budgeted engine and its unbudgeted twin through the same
/// randomized proposal storm (branch, NNI, SPR, model moves; random
/// accept/reject) and require bit-identical lnL at every evaluation, a
/// respected budget at every step, and — for tight budgets — actual
/// evictions, proving the recompute path ran.
void twin_storm(BackendKind kind, SiteRepeatsMode mode, ClvBudget budget,
                bool expect_evictions, std::uint64_t seed) {
  const Dataset d = make_dataset(seed, 10);
  BackendHolder h_budget = BackendHolder::make(kind);
  BackendHolder h_full = BackendHolder::make(kind);
  PlfEngine budgeted(d.data, d.params, d.tree, *h_budget.backend,
                     KernelVariant::kSimdCol, mode, budget);
  PlfEngine full(d.data, d.params, d.tree, *h_full.backend,
                 KernelVariant::kSimdCol, mode);

  ASSERT_LE(budgeted.arena().budget_bytes(), full.arena().budget_bytes());
  EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());

  Rng rng(seed * 1031 + 7);
  for (int step = 0; step < 25; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    for (PlfEngine* e : {&budgeted, &full}) e->begin_proposal();

    const double u = rng.uniform();
    if (u < 0.40) {
      int node;
      do {
        node = static_cast<int>(rng.below(budgeted.tree().n_nodes()));
      } while (node == budgeted.tree().root());
      const double len = rng.uniform(0.01, 1.2);
      for (PlfEngine* e : {&budgeted, &full}) e->set_branch_length(node, len);
    } else if (u < 0.65) {
      const auto edges = budgeted.tree().internal_edge_nodes();
      ASSERT_FALSE(edges.empty());
      const int v = edges[rng.below(edges.size())];
      const bool swap_left = rng.uniform() < 0.5;
      for (PlfEngine* e : {&budgeted, &full}) e->apply_nni(v, swap_left);
    } else if (u < 0.80) {
      // SPR (never interleaved with other topology moves in one proposal).
      std::vector<int> prunable;
      for (std::size_t id = 0; id < budgeted.tree().n_nodes(); ++id) {
        if (!budgeted.tree().spr_valid_targets(static_cast<int>(id)).empty()) {
          prunable.push_back(static_cast<int>(id));
        }
      }
      ASSERT_FALSE(prunable.empty());
      const int s = prunable[rng.below(prunable.size())];
      const auto targets = budgeted.tree().spr_valid_targets(s);
      const int target = targets[rng.below(targets.size())];
      const double x =
          budgeted.tree().branch_length(target) * rng.uniform(0.2, 0.8);
      for (PlfEngine* e : {&budgeted, &full}) e->apply_spr(s, target, x);
    } else if (u < 0.90) {
      phylo::GtrParams p = budgeted.model_params();
      p.gamma_shape = rng.uniform(0.5, 2.0);
      for (PlfEngine* e : {&budgeted, &full}) e->set_model(p);
    } else {
      // Two evaluated moves in one proposal: flip-epoch overwrite path.
      const int leaf = budgeted.tree().leaf_of(
          static_cast<int>(rng.below(budgeted.data().n_taxa())));
      const double len = rng.uniform(0.01, 1.2);
      for (PlfEngine* e : {&budgeted, &full}) e->set_branch_length(leaf, len);
      EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
      for (PlfEngine* e : {&budgeted, &full}) {
        e->set_branch_length(leaf, len * 0.5);
      }
    }

    // (a) 0-ULP identical to the unbudgeted twin at every evaluation.
    EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
    // (b) the hard budget is respected at every step.
    EXPECT_LE(budgeted.arena().resident_bytes(),
              budgeted.arena().budget_bytes());

    if (rng.uniform() < 0.5) {
      for (PlfEngine* e : {&budgeted, &full}) e->accept();
    } else {
      for (PlfEngine* e : {&budgeted, &full}) e->reject();
    }
    EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
  }

  // A final accepted evaluation guarantees the root CLV is resident before
  // reading it raw: a reject may legitimately restore an evicted buffer
  // (node_cl on it PLF_CHECKs; the next dirty evaluation rematerializes).
  for (PlfEngine* e : {&budgeted, &full}) {
    e->set_branch_length(e->tree().leaf_of(0), 0.42);
  }
  EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
  // Whole root CLVs locked, not just the reduction.
  EXPECT_EQ(std::memcmp(budgeted.node_cl(budgeted.tree().root()),
                        full.node_cl(full.tree().root()),
                        d.data.n_patterns() * 4 * 4 * sizeof(float)),
            0);

  const ArenaCounters c = budgeted.arena().counters();
  if (expect_evictions) {
    EXPECT_GT(c.evictions, 0u) << "tight budget never evicted - storm too weak";
    EXPECT_GT(c.recompute_ops, 0u)
        << "evictions without rematerializations - closure never grew the set";
  }
  EXPECT_EQ(full.arena().counters().evictions, 0u);
}

ClvBudget fraction_budget(double f) {
  ClvBudget b;
  b.kind = ClvBudget::Kind::kFraction;
  b.fraction = f;
  return b;
}

using StormParam = std::tuple<BackendKind, SiteRepeatsMode>;

class ClvArenaStormTest : public ::testing::TestWithParam<StormParam> {};

TEST_P(ClvArenaStormTest, BudgetSweepBitIdenticalToUnbudgetedTwin) {
  const auto [kind, mode] = GetParam();
  // 100% holds everything: no evictions required. 0.75 and 0.5 must evict;
  // 0.5 is exactly the feasibility floor (one buffer per internal node).
  twin_storm(kind, mode, fraction_budget(1.0), false, 101);
  twin_storm(kind, mode, fraction_budget(0.75), true, 211);
  twin_storm(kind, mode, fraction_budget(0.5), true, 307);
}

TEST_P(ClvArenaStormTest, MinimumFeasibleByteBudgetClampsAndMatches) {
  const auto [kind, mode] = GetParam();
  // 1 byte clamps up to the minimum feasible working set — the harshest
  // legal budget, equivalent to fraction 0.5.
  ClvBudget b;
  b.kind = ClvBudget::Kind::kBytes;
  b.bytes = 1;
  twin_storm(kind, mode, b, true, 401);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ClvArenaStormTest,
    ::testing::Combine(
        ::testing::Values(BackendKind::kSerial, BackendKind::kThreaded),
        ::testing::Values(SiteRepeatsMode::kOff, SiteRepeatsMode::kOn)),
    [](const ::testing::TestParamInfo<StormParam>& info) {
      return std::string(std::get<0>(info.param) == BackendKind::kSerial
                             ? "serial"
                             : "threaded") +
             "_repeats_" +
             (std::get<1>(info.param) == SiteRepeatsMode::kOn ? "on" : "off");
    });

TEST(ClvArenaEngineTest, TinyBudgetClampsToOneBufferPerInternalNode) {
  const Dataset d = make_dataset(5, 9);
  SerialBackend backend;
  ClvBudget b;
  b.kind = ClvBudget::Kind::kBytes;
  b.bytes = 1;
  PlfEngine e(d.data, d.params, d.tree, backend, KernelVariant::kSimdCol,
              SiteRepeatsMode::kOff, b);
  std::size_t n_internal = 0;
  for (std::size_t id = 0; id < d.tree.n_nodes(); ++id) {
    if (!d.tree.node(static_cast<int>(id)).is_leaf()) ++n_internal;
  }
  const std::size_t slot_bytes = d.data.n_patterns() * 4 * 4 * sizeof(float);
  EXPECT_EQ(e.arena().budget_bytes(), n_internal * slot_bytes);
  // The floor is workable: a full evaluation completes and stays in budget.
  e.log_likelihood();
  EXPECT_LE(e.arena().resident_bytes(), e.arena().budget_bytes());
}

TEST(ClvArenaEngineTest, UnlimitedBudgetPreallocatesEagerly) {
  const Dataset d = make_dataset(6, 8);
  SerialBackend backend;
  PlfEngine e(d.data, d.params, d.tree, backend);
  std::size_t n_internal = 0;
  for (std::size_t id = 0; id < d.tree.n_nodes(); ++id) {
    if (!d.tree.node(static_cast<int>(id)).is_leaf()) ++n_internal;
  }
  const std::size_t slot_bytes = d.data.n_patterns() * 4 * 4 * sizeof(float);
  // Historical memory behaviour: both buffers resident from construction,
  // so engine.clv_bytes is meaningful before the first evaluation.
  EXPECT_EQ(e.arena().resident_bytes(), 2 * n_internal * slot_bytes);
  EXPECT_EQ(e.arena().counters().evictions, 0u);
  // node_cl is valid (zeroed) before the first evaluation, as before.
  EXPECT_NE(e.node_cl(d.tree.root()), nullptr);
}

TEST(ClvArenaEngineTest, EvictedAncestorIsRematerializedTransparently) {
  const Dataset d = make_dataset(7, 10);
  SerialBackend b1, b2;
  PlfEngine e(d.data, d.params, d.tree, b1, KernelVariant::kSimdCol,
              SiteRepeatsMode::kOff, fraction_budget(1.0));
  PlfEngine twin(d.data, d.params, d.tree, b2, KernelVariant::kSimdCol,
                 SiteRepeatsMode::kOff);
  EXPECT_EQ(e.log_likelihood(), twin.log_likelihood());

  // Evict an internal node OFF the dirty path: the next evaluation only
  // dirties leaf->root, yet must grow its recompute set with the evicted
  // ancestor (it feeds a path node) and reproduce the evicted bits exactly.
  const int leaf = e.tree().leaf_of(0);
  std::vector<char> on_path(e.tree().n_nodes(), 0);
  for (int id = e.tree().node(leaf).parent; id != phylo::kNoNode;
       id = e.tree().node(id).parent) {
    on_path[static_cast<std::size_t>(id)] = 1;
  }
  int off_path = phylo::kNoNode;
  for (std::size_t id = 0; id < e.tree().n_nodes(); ++id) {
    const phylo::TreeNode& n = e.tree().node(static_cast<int>(id));
    if (!n.is_leaf() && on_path[id] == 0) {
      // Only useful if some path node reads it; with a leaf->root dirty path
      // every off-path internal child of a path node qualifies.
      const int parent = n.parent;
      if (parent != phylo::kNoNode && on_path[static_cast<std::size_t>(parent)] != 0) {
        off_path = static_cast<int>(id);
        break;
      }
    }
  }
  ASSERT_NE(off_path, phylo::kNoNode) << "degenerate tree for this test";

  e.evict_node_for_test(off_path);
  EXPECT_FALSE(e.node_resident(off_path));
  const std::uint64_t remats_before = e.arena().counters().recompute_ops;

  for (PlfEngine* eng : {&e, &twin}) eng->set_branch_length(leaf, 0.37);
  EXPECT_EQ(e.log_likelihood(), twin.log_likelihood());
  EXPECT_TRUE(e.node_resident(off_path));
  EXPECT_GT(e.arena().counters().recompute_ops, remats_before);
  // The rematerialized CLV is bit-identical to the never-evicted twin's.
  EXPECT_EQ(std::memcmp(e.node_cl(off_path), twin.node_cl(off_path),
                        d.data.n_patterns() * 4 * 4 * sizeof(float)),
            0);
}

}  // namespace
}  // namespace plf::core
