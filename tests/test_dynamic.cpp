// Tests for sens/dynamic: incremental HNG maintenance under churn.
//
// The contract under test (DESIGN.md §2.7) is *exact*: after every single
// insert()/remove() event the dynamic structure must agree bit for bit with
// a fresh batch `build_hng` over the surviving point set — levels, top
// level, and the symmetrized overlay edge list. The churn tier
// (`ctest -L churn`, run under ASan in CI) replays seed-sharded randomized
// traces and checks that full-rebuild oracle after EVERY prefix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/hng/hng.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

/// The full-rebuild oracle: batch-build over the survivors and demand
/// bit-for-bit agreement on levels, top level, vertex count, and edges.
::testing::AssertionResult matches_oracle(const DynamicHng& dyn) {
  const HngResult batch = build_hng(dyn.points(), dyn.params(), dyn.seed());
  if (dyn.overlay().num_vertices() != batch.geo.size()) {
    return ::testing::AssertionFailure()
           << "overlay has " << dyn.overlay().num_vertices() << " vertices, batch "
           << batch.geo.size();
  }
  if (dyn.top_level() != batch.top_level) {
    return ::testing::AssertionFailure()
           << "top level " << dyn.top_level() << " vs batch " << batch.top_level;
  }
  for (std::uint32_t i = 0; i < dyn.size(); ++i) {
    if (dyn.level(i) != batch.level[i]) {
      return ::testing::AssertionFailure()
             << "level of slot " << i << ": " << dyn.level(i) << " vs batch " << batch.level[i];
    }
  }
  if (dyn.overlay().edge_list() != batch.geo.graph.edge_list()) {
    return ::testing::AssertionFailure()
           << "edge lists diverge (" << dyn.overlay().num_edges() << " vs "
           << batch.geo.graph.num_edges() << " edges)";
  }
  return ::testing::AssertionSuccess();
}

/// One churn event; replayable so the thread-invariance test can run the
/// identical trace at several thread counts.
struct Event {
  bool join;
  Vec2 p;              ///< join only
  std::uint32_t slot;  ///< leave only
};

/// Deterministic mixed trace: joins (a fraction of them byte-duplicate
/// coordinates of a live node) and leaves of uniformly random slots. The
/// generator mirrors the swap-remove slot semantics so duplicate picks and
/// leave slots are always valid.
std::vector<Event> make_trace(std::uint64_t seed, std::size_t events, double p_join) {
  Rng rng = Rng::stream(seed, 0xC4421, 0);
  std::vector<Event> trace;
  trace.reserve(events);
  std::vector<Vec2> model;
  for (std::size_t e = 0; e < events; ++e) {
    if (model.empty() || rng.bernoulli(p_join)) {
      Vec2 p{rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)};
      if (!model.empty() && rng.bernoulli(0.1)) {
        p = model[rng.uniform_index(model.size())];  // duplicate point
      }
      trace.push_back({.join = true, .p = p, .slot = 0});
      model.push_back(p);
    } else {
      const auto slot = static_cast<std::uint32_t>(rng.uniform_index(model.size()));
      trace.push_back({.join = false, .p = {}, .slot = slot});
      model[slot] = model.back();
      model.pop_back();
    }
  }
  return trace;
}

void apply(DynamicHng& dyn, const Event& e) {
  if (e.join) {
    dyn.insert(e.p);
  } else {
    dyn.remove(e.slot);
  }
}

TEST(DynamicHng, RejectsInvalidParams) {
  EXPECT_THROW(DynamicHng({.promote_p = 0.0}, 1), std::invalid_argument);
  EXPECT_THROW(DynamicHng({.promote_p = 1.0}, 1), std::invalid_argument);
  EXPECT_THROW(DynamicHng({.promote_p = 0.5, .k = 0}, 1), std::invalid_argument);
  EXPECT_THROW(DynamicHng({.promote_p = 0.5, .k = 1, .max_level = 1}, 1), std::invalid_argument);
}

TEST(DynamicHng, EmptySingletonAndBackToEmpty) {
  DynamicHng dyn({}, 7);
  EXPECT_EQ(dyn.size(), 0u);
  EXPECT_TRUE(matches_oracle(dyn));

  const std::uint32_t id = dyn.insert({2.0, 3.0});
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(dyn.size(), 1u);
  EXPECT_EQ(dyn.overlay().num_vertices(), 1u);
  EXPECT_EQ(dyn.overlay().num_edges(), 0u);
  EXPECT_EQ(dyn.level(0), dyn.top_level());
  EXPECT_TRUE(matches_oracle(dyn));

  dyn.remove(0);
  EXPECT_EQ(dyn.size(), 0u);
  EXPECT_EQ(dyn.overlay().num_vertices(), 0u);
  EXPECT_TRUE(matches_oracle(dyn));
}

// Coordinates are validated before anything converts them to grid cells
// (a float-to-integer conversion of NaN or inf is undefined behaviour).
TEST(DynamicHng, InsertRejectsNonFiniteCoordinates) {
  DynamicHng dyn({}, 5);
  dyn.insert({1.0, 1.0});
  dyn.insert({2.0, 1.5});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Vec2 bad : {Vec2{nan, 0.0}, Vec2{0.0, nan}, Vec2{inf, 0.0}, Vec2{0.0, -inf}}) {
    EXPECT_THROW(dyn.insert(bad), std::invalid_argument);
  }
  // A rejected insert leaves the structure untouched and usable.
  EXPECT_EQ(dyn.size(), 2u);
  EXPECT_TRUE(matches_oracle(dyn));
  dyn.insert({3.0, 3.0});
  EXPECT_TRUE(matches_oracle(dyn));
}

TEST(DynamicHng, BulkAdoptionRejectsNonFiniteCoordinates) {
  const std::vector<Vec2> pts{{1.0, 1.0}, {2.0, 2.0},
                              {std::numeric_limits<double>::infinity(), 3.0}, {4.0, 4.0}};
  EXPECT_THROW(DynamicHng(pts, {}, 5), std::invalid_argument);
  const std::vector<Vec2> nan_pts{{std::numeric_limits<double>::quiet_NaN(), 0.0}};
  EXPECT_THROW(DynamicHng(nan_pts, {}, 5), std::invalid_argument);
}

TEST(DynamicHng, RemoveInvalidSlotThrows) {
  DynamicHng dyn({}, 3);
  EXPECT_THROW(dyn.remove(0), std::out_of_range);
  dyn.insert({1.0, 1.0});
  EXPECT_THROW(dyn.remove(1), std::out_of_range);
}

// The bulk constructor is insert() in a loop, so one oracle check covers
// ~700 consecutive join events; the event stats must account for the last
// joiner itself.
TEST(DynamicHng, BulkAdoptionMatchesBatchBuild) {
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {18.0, 18.0}}, 2.0, 0xD15);
  const DynamicHng dyn(ps.points, {.promote_p = 0.25, .k = 3}, 0xD15);
  EXPECT_EQ(dyn.size(), ps.size());
  EXPECT_TRUE(matches_oracle(dyn));
  EXPECT_GE(dyn.last_event().relinked, 1u);
}

// Byte-identical coordinates are distinct nodes (distinct slots, distinct
// rng streams); ties resolve by the (distance, index) order everywhere.
TEST(DynamicHng, DuplicatePointsAreDistinctNodes) {
  DynamicHng dyn({.promote_p = 0.4, .k = 2}, 0xD0B);
  for (int rep = 0; rep < 24; ++rep) {
    dyn.insert({1.0, 1.0});
    ASSERT_TRUE(matches_oracle(dyn)) << "after duplicate insert " << rep;
  }
  dyn.insert({4.0, 1.0});
  dyn.insert({1.0, 5.0});
  ASSERT_TRUE(matches_oracle(dyn));
  while (dyn.size() > 20) {
    dyn.remove(0);
    ASSERT_TRUE(matches_oracle(dyn)) << "after removing a duplicate, n=" << dyn.size();
  }
}

// Drain to empty one swap-remove at a time, then repopulate: every slot is
// vacated and revived at least once, and the empty structure must accept a
// fresh life.
TEST(DynamicHng, RemoveUntilEmptyThenReinsert) {
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {6.0, 6.0}}, 2.0, 0xE4A5E);
  ASSERT_GT(ps.size(), 30u);
  DynamicHng dyn(ps.points, {.promote_p = 0.3, .k = 2}, 0xE4A5E);
  Rng rng = Rng::stream(0xE4A5E, 0xDE1, 0);
  while (dyn.size() > 0) {
    dyn.remove(static_cast<std::uint32_t>(rng.uniform_index(dyn.size())));
    ASSERT_TRUE(matches_oracle(dyn)) << "draining, n=" << dyn.size();
  }
  for (const Vec2 p : ps.points) {
    const std::uint32_t id = dyn.insert(p);
    ASSERT_TRUE(matches_oracle(dyn)) << "re-inserting slot " << id;
  }
  EXPECT_EQ(dyn.size(), ps.size());
}

// overlay_generation() numbering is what EpochQueryEngine reports as
// generations advanced per refresh (E19's deltas_applied), so it is pinned
// on a fixed trace: +1 per read that follows at least one edge flip or a
// change in vertex count — a read after flip-free events only, or a second
// read, never advances it. Every read also checks the oracle: a burst
// whose joins and leaves cancel in vertex count must still rebuild.
TEST(DynamicHng, GenerationNumberingPinnedOnFixedTrace) {
  DynamicHng dyn({.promote_p = 0.25, .k = 3}, 0x6E4);
  std::vector<std::uint64_t> seen;
  const auto read = [&] {
    seen.push_back(dyn.overlay_generation());
    EXPECT_TRUE(matches_oracle(dyn)) << "read " << seen.size();
  };
  const auto step = [&](Event ev) {
    if (!ev.join) ev.slot = ev.slot % static_cast<std::uint32_t>(dyn.size());
    apply(dyn, ev);
  };
  // Zero-flip corner: a lone node has no edges, so leaving and rejoining
  // one node flips nothing and ends at the vertex count of the last read.
  read();
  dyn.insert({1.0, 1.0});
  read();
  dyn.remove(0);
  dyn.insert({2.0, 2.0});
  read();
  const std::vector<Event> trace = make_trace(0x6E4, 70, 0.6);
  std::size_t e = 0;
  for (; e < 30; ++e) {  // a read after every event
    step(trace[e]);
    read();
  }
  for (std::size_t burst = 1; e < trace.size(); ++burst) {  // burst reads
    for (std::size_t b = 0; b < burst && e < trace.size(); ++b, ++e) step(trace[e]);
    read();
    read();
  }
  const std::vector<std::uint64_t> expected{
      0,  1,  1,                                                   // zero-flip corner
      2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16,  // a read per event
      17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
      32, 32, 33, 33, 34, 34, 35, 35, 36, 36, 37, 37, 38, 38, 39, 39, 40, 40};  // bursts
  EXPECT_EQ(seen, expected);
}

// The headline property suite: seed-sharded randomized traces, the
// full-rebuild oracle asserted after EVERY event prefix.
class ChurnTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnTraceTest, OracleHoldsAtEveryPrefix) {
  const std::uint64_t seed = GetParam();
  // Warm start so leaves bite immediately; slight join bias so the
  // structure grows through multi-level territory over the trace.
  const PointSet warm = poisson_point_set(Box{{0.0, 0.0}, {8.0, 8.0}}, 1.5, seed);
  DynamicHng dyn(warm.points, {.promote_p = 0.25, .k = 3}, seed);
  ASSERT_TRUE(matches_oracle(dyn));
  const std::vector<Event> trace = make_trace(seed, 500, 0.55);
  for (std::size_t e = 0; e < trace.size(); ++e) {
    // Leave slots were generated against the warm-start-free model; shift
    // into the live range (the model tracks sizes without the warm start).
    Event ev = trace[e];
    if (!ev.join) ev.slot = ev.slot % static_cast<std::uint32_t>(dyn.size());
    apply(dyn, ev);
    ASSERT_TRUE(matches_oracle(dyn)) << "trace seed " << seed << ", event " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTraceTest,
                         ::testing::Values(0xC401u, 0xC402u, 0xC403u, 0xC404u));

// Adversarial every-prefix traces for the spatial repair search: exact
// ties on an integer lattice, heavy duplicates, windows far from the
// origin and on negative coordinates, and one large trace where most
// levels are full (so joins take the radius-bounded path, not the
// everyone-is-under-full one). Each (shape, seed) is its own test.
struct TraceShape {
  const char* name;
  std::size_t warm;    ///< points adopted before the trace
  std::size_t events;  ///< join/leave events, oracle after each
  Vec2 (*draw)(Rng&);  ///< where a fresh join lands
};

const TraceShape kShapes[] = {
    {"Lattice", 60, 300,
     [](Rng& rng) {
       return Vec2{static_cast<double>(rng.uniform_index(13)),
                   static_cast<double>(rng.uniform_index(13))};
     }},
    {"Duplicates", 30, 300,
     [](Rng& rng) {
       const Vec2 pool[] = {{1.0, 1.0}, {1.0, 2.0}, {2.0, 1.0}, {3.0, 3.0}, {0.5, 2.5}};
       return pool[rng.uniform_index(5)];
     }},
    {"OffsetWindow", 60, 300,
     [](Rng& rng) { return Vec2{rng.uniform(1e6, 1e6 + 9.0), rng.uniform(1e6, 1e6 + 9.0)}; }},
    {"NegativeWindow", 60, 300,
     [](Rng& rng) { return Vec2{rng.uniform(-40.0, -31.0), rng.uniform(-4.5, 4.5)}; }},
    {"ThreeThousand", 3000, 120,
     [](Rng& rng) { return Vec2{rng.uniform(0.0, 27.0), rng.uniform(0.0, 27.0)}; }},
};

struct AdversarialCase {
  const TraceShape* shape;
  std::uint64_t seed;
};

/// Names the case in test listings (e.g. Shapes/...OracleHoldsAtEveryPrefix/Lattice_44289).
void PrintTo(const AdversarialCase& c, std::ostream* os) { *os << c.shape->name << '_' << c.seed; }

class AdversarialTraceTest : public ::testing::TestWithParam<AdversarialCase> {};

TEST_P(AdversarialTraceTest, OracleHoldsAtEveryPrefix) {
  const TraceShape& shape = *GetParam().shape;
  const std::uint64_t seed = GetParam().seed;
  Rng rng = Rng::stream(seed, 0xAD5, 0);
  std::vector<Vec2> warm(shape.warm);
  for (Vec2& p : warm) p = shape.draw(rng);
  DynamicHng dyn(warm, {.promote_p = 0.25, .k = 3}, seed);
  ASSERT_TRUE(matches_oracle(dyn));
  for (std::size_t e = 0; e < shape.events; ++e) {
    if (dyn.size() == 0 || rng.bernoulli(0.55)) {
      // A tenth of the joins land exactly on a live node.
      const Vec2 p = dyn.size() > 0 && rng.bernoulli(0.1)
                         ? dyn.points()[rng.uniform_index(dyn.size())]
                         : shape.draw(rng);
      dyn.insert(p);
    } else {
      dyn.remove(static_cast<std::uint32_t>(rng.uniform_index(dyn.size())));
    }
    ASSERT_TRUE(matches_oracle(dyn)) << shape.name << " seed " << seed << ", event " << e;
  }
}

std::vector<AdversarialCase> adversarial_cases() {
  std::vector<AdversarialCase> cases;
  for (const TraceShape& shape : kShapes) {
    for (const std::uint64_t seed : {0xAD01u, 0xAD02u}) cases.push_back({&shape, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, AdversarialTraceTest, ::testing::ValuesIn(adversarial_cases()));

// The complexity guard (counters, not timings): the repair search offers a
// joiner only to nodes within a level's selection reach, so the candidates
// per join must not grow with the deployment. A scan of every live node
// (the search this replaced) would grow them 4x from n = 2000 to 8000.
TEST(DynamicComplexity, RepairCandidatesPerJoinStayLocal) {
  const auto candidates_per_join = [](double n) {
    constexpr std::uint64_t kSeed = 0xC0117;
    const double side = std::sqrt(n / 4.0);
    const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {side, side}}, 4.0, kSeed);
    DynamicHng dyn(ps.points, {.promote_p = 0.25, .k = 3}, kSeed);
    Rng rng = Rng::stream(kSeed, 0x301, 0);
    const std::size_t joins = ps.size() / 20;  // a 5% join wave
    std::size_t candidates = 0;
    for (std::size_t j = 0; j < joins; ++j) {
      dyn.insert({rng.uniform(0.0, side), rng.uniform(0.0, side)});
      candidates += dyn.last_event().repair_candidates;
    }
    return static_cast<double>(candidates) / static_cast<double>(joins);
  };
  const double small = candidates_per_join(2000);
  const double large = candidates_per_join(8000);
  EXPECT_GT(small, 0.0);
  EXPECT_LT(large, 2.0 * small) << "candidates per join: " << small << " at n = 2000, " << large
                                << " at n = 8000";
}

// §2.7 extends the determinism contract to mutations: maintenance is
// serial by design, so replaying one trace at any --threads value must
// produce bit-identical levels and overlays (and still match the oracle,
// which itself runs chunk-parallel at the ambient thread count).
TEST(DynamicThreads, TraceReplayBitIdenticalAcrossThreadCounts) {
  const std::vector<Event> trace = make_trace(0x7A4EAD, 240, 0.6);
  const auto replay = [&trace] {
    DynamicHng dyn({.promote_p = 0.25, .k = 3}, 0x7A4EAD);
    for (const Event& e : trace) {
      Event ev = e;
      if (!ev.join) ev.slot = ev.slot % static_cast<std::uint32_t>(dyn.size());
      apply(dyn, ev);
    }
    return dyn;
  };
  set_thread_count(1);
  const DynamicHng serial = replay();
  EXPECT_TRUE(matches_oracle(serial));
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    const DynamicHng parallel = replay();
    EXPECT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(parallel.overlay().edge_list(), serial.overlay().edge_list());
    for (std::uint32_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel.level(i), serial.level(i)) << "slot " << i << " at " << threads;
    }
    EXPECT_TRUE(matches_oracle(parallel));
  }
  set_thread_count(0);
}

}  // namespace
}  // namespace sens
