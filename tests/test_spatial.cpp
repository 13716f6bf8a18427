// Tests for sens/spatial: the bucket grid's radius scans and k-NN against
// brute-force oracles (bit-for-bit, including (distance, index) tie-breaks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "sens/geograph/udg.hpp"
#include "sens/geometry/box.hpp"
#include "sens/geometry/vec2.hpp"
#include "sens/rng/rng.hpp"
#include "sens/spatial/grid_knn.hpp"

#include "brute_knn.hpp"

namespace sens {
namespace {

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed, double extent = 10.0) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
  return pts;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInfinity = std::numeric_limits<double>::infinity();

std::vector<std::uint32_t> brute_radius(const std::vector<Vec2>& pts, Vec2 q, double r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i)
    if (dist2(pts[i], q) <= r * r) out.push_back(i);
  return out;
}

/// `within_into` into a fresh buffer, sorted for oracle comparison.
std::vector<std::uint32_t> sorted_radius(const GridKnn& index, Vec2 q, double r) {
  std::vector<std::uint32_t> out;
  index.within_into(q, r * r, out);
  std::sort(out.begin(), out.end());
  return out;
}

// --- radius scans on a grid with a caller-given cell side ------------------
// (suite names GridIndex* date from the separate radius grid these scans
// once ran on)

class GridIndexParamTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridIndexParamTest, RadiusQueryMatchesBruteForce) {
  const auto pts = random_points(400, GetParam());
  const GridKnn index(pts, GridKnn::CellSide{1.0});
  Rng rng(GetParam() + 999);
  for (int t = 0; t < 50; ++t) {
    const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
    const double r = rng.uniform(0.1, 1.0);
    EXPECT_EQ(sorted_radius(index, q, r), brute_radius(pts, q, r));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexParamTest, ::testing::Range<std::uint64_t>(1, 9));

TEST(GridIndex, LargerRadiusThanCellStillExact) {
  const auto pts = random_points(300, 42);
  const GridKnn index(pts, GridKnn::CellSide{0.5});
  EXPECT_EQ(sorted_radius(index, {5.0, 5.0}, 3.0), brute_radius(pts, {5.0, 5.0}, 3.0));
}

// The scan widens to every cell the disk reaches, so any radius is
// exhaustive — including one covering the whole grid from a corner.
TEST(GridIndex, RadiusSweepsBeyondCellAreExhaustive) {
  const auto pts = random_points(250, 77);
  const GridKnn index(pts, GridKnn::CellSide{1.0});
  Rng rng(770);
  for (int t = 0; t < 40; ++t) {
    const Vec2 q{rng.uniform(-2.0, 12.0), rng.uniform(-2.0, 12.0)};
    const double r = rng.uniform(1.0, 6.0);  // always > cell side
    EXPECT_EQ(sorted_radius(index, q, r), brute_radius(pts, q, r));
  }
  EXPECT_EQ(sorted_radius(index, {0.0, 0.0}, 20.0).size(), pts.size());
  // A radius whose square overflows to +inf still lists everything.
  EXPECT_EQ(sorted_radius(index, {0.0, 0.0}, 1e300).size(), pts.size());
}

/// The documented visit order of a radius scan, built without the grid:
/// the in-radius points sorted row-major by cell, then by id. The grid box
/// is the points' bounding box and cells are floor((v - lo) / cell),
/// clamped to the grid, as the grid maps them.
std::vector<std::uint32_t> model_scan_order(const std::vector<Vec2>& pts, double cell, Vec2 q,
                                            double r) {
  Vec2 lo = pts[0];
  Vec2 hi = pts[0];
  for (const Vec2 p : pts) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  const auto cells_along = [&](double extent) {
    return std::max(1L, static_cast<long>(std::ceil(std::max(extent, 1e-9) / cell)));
  };
  const long nx = cells_along(hi.x - lo.x);
  const long ny = cells_along(hi.y - lo.y);
  const auto axis = [&](double v, double origin, long cells) {
    return std::clamp(static_cast<long>(std::floor((v - origin) / cell)), 0L, cells - 1);
  };
  const auto cell_of = [&](std::uint32_t j) {
    return axis(pts[j].y, lo.y, ny) * nx + axis(pts[j].x, lo.x, nx);
  };
  std::vector<std::uint32_t> order = brute_radius(pts, q, r);  // ascending ids
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return cell_of(a) < cell_of(b); });
  return order;
}

// Not just the set: the visit order itself is the documented one, for
// random points, for a lattice whose sites all sit on cell borders, and for
// radii spanning several cells.
TEST(GridIndex, VisitOrderIsRowMajorCellsThenAscendingId) {
  std::vector<Vec2> lattice;
  for (int y = 0; y <= 10; ++y) {
    for (int x = 0; x <= 10; ++x) lattice.push_back({x * 1.0, y * 1.0});
  }
  for (const std::vector<Vec2>& pts : {random_points(400, 0x0D3), lattice}) {
    for (const double cell : {1.0, 0.5, 2.5}) {
      const GridKnn index(pts, GridKnn::CellSide{cell});
      Rng rng(0x0D3 + static_cast<std::uint64_t>(cell * 10.0));
      std::vector<std::uint32_t> out;
      for (int t = 0; t < 60; ++t) {
        const Vec2 q = t % 3 == 0 ? pts[rng.uniform_index(pts.size())]
                                  : Vec2{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
        const double r = t % 2 == 0 ? rng.uniform(0.1, 1.0) : rng.uniform(1.0, 4.0);
        out.clear();
        index.within_into(q, r * r, out);
        EXPECT_EQ(out, model_scan_order(pts, cell, q, r)) << "cell " << cell << " t " << t;
      }
      // Radius exactly one lattice step from a lattice site: the four
      // border-straddling neighbors are in, in row-major order.
      out.clear();
      index.within_into({5.0, 5.0}, 1.0, out);
      EXPECT_EQ(out, model_scan_order(pts, cell, {5.0, 5.0}, 1.0));
    }
  }
}

TEST(GridIndex, CountMatchesVisits) {
  const auto pts = random_points(300, 0xC0);
  const GridKnn index(pts, GridKnn::CellSide{1.0});
  Rng rng(0xC1);
  std::vector<std::uint32_t> out;
  for (int t = 0; t < 40; ++t) {
    const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
    const double r = rng.uniform(0.0, 3.0);
    out.clear();
    index.within_into(q, r * r, out);
    EXPECT_EQ(index.count_in_radius(q, r * r), out.size());
  }
  EXPECT_EQ(index.count_in_radius(pts[0], -1.0), 0u);
  EXPECT_THROW((void)index.count_in_radius({kNan, 1.0}, 1.0), std::invalid_argument);
}

TEST(GridIndex, ForEachUntilStopsEarly) {
  const auto pts = random_points(300, 5);
  const GridKnn index(pts, GridKnn::CellSide{1.0});
  int visits = 0;
  const bool hit = index.for_each_in_radius_until({5.0, 5.0}, 16.0, [&](std::uint32_t) {
    ++visits;
    return true;  // stop at the first point
  });
  EXPECT_TRUE(hit);
  EXPECT_EQ(visits, 1);
  const bool none = index.for_each_in_radius_until({5.0, 5.0}, 16.0,
                                                   [](std::uint32_t) { return false; });
  EXPECT_FALSE(none);
}

TEST(GridIndex, InvalidCellSizeThrows) {
  const std::vector<Vec2> pts{{0.0, 0.0}};
  for (const double bad : {0.0, -1.0, kNan, kInfinity, -kInfinity}) {
    EXPECT_THROW(GridKnn(pts, GridKnn::CellSide{bad}), std::invalid_argument) << bad;
    EXPECT_THROW(GridKnn({}, GridKnn::CellSide{bad}), std::invalid_argument) << bad;
  }
}

// A NaN side passes a `side <= 0` check and would reach the cell-count
// conversion; build_udg hands its radius to the grid as the cell side.
TEST(GridKnn, NanCellSideThrowsThroughBuildUdg) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {0.5, 0.0}};
  const Box unit{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_THROW((void)build_udg(pts, unit, kNan), std::invalid_argument);
  EXPECT_THROW((void)build_udg(pts, unit, kInfinity), std::invalid_argument);
  EXPECT_EQ(build_udg(pts, unit, 1.0).graph.num_edges(), 1u);
}

TEST(GridIndex, RejectsNonFinitePointsAndBounds) {
  for (const Vec2 bad : {Vec2{kNan, 0.5}, Vec2{0.5, kInfinity}, Vec2{-kInfinity, -kInfinity}}) {
    const std::vector<Vec2> pts{{0.5, 0.5}, bad};
    EXPECT_THROW(GridKnn(pts, GridKnn::CellSide{0.25}), std::invalid_argument);
  }
  // A bounding box wider than the largest double is rejected too.
  const std::vector<Vec2> wide{{-1e308, 0.0}, {1e308, 0.0}};
  EXPECT_THROW(GridKnn(wide, GridKnn::CellSide{0.25}), std::invalid_argument);
  // Finite points however far apart are indexed and found exactly.
  const std::vector<Vec2> far{{1e300, -1e300}, {0.5, 0.5}};
  const GridKnn index(far, GridKnn::CellSide{0.25});
  EXPECT_EQ(sorted_radius(index, {1e300, -1e300}, 1.0), std::vector<std::uint32_t>{0});
  EXPECT_EQ(sorted_radius(index, {0.5, 0.5}, 1.0), std::vector<std::uint32_t>{1});
}

TEST(GridIndex, NonFiniteQueriesThrowNegativeRadiusVisitsNothing) {
  const auto pts = random_points(100, 0xBAE);
  const GridKnn index(pts, GridKnn::CellSide{1.0});
  std::vector<std::uint32_t> out;
  for (const Vec2 bad : {Vec2{kNan, 1.0}, Vec2{1.0, kNan}, Vec2{kInfinity, 1.0},
                         Vec2{1.0, -kInfinity}}) {
    EXPECT_THROW(index.within_into(bad, 1.0, out), std::invalid_argument);
    EXPECT_THROW(index.for_each_in_radius_until(bad, 1.0, [](std::uint32_t) { return true; }),
                 std::invalid_argument);
    EXPECT_THROW((void)index.count_in_radius(bad, 1.0), std::invalid_argument);
  }
  EXPECT_THROW(index.within_into({5.0, 5.0}, kNan, out), std::invalid_argument);
  EXPECT_EQ(index.count_in_radius(pts[0], -1.0), 0u);
  EXPECT_EQ(index.count_in_radius(pts[0], -kInfinity), 0u);
  index.within_into(pts[0], -1.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(GridIndex, EmptyInput) {
  std::vector<Vec2> pts;
  const GridKnn index(pts, GridKnn::CellSide{1.0});
  EXPECT_TRUE(sorted_radius(index, {0.5, 0.5}, 10.0).empty());
  EXPECT_EQ(index.count_in_radius({0.5, 0.5}, 100.0), 0u);
}

// --- GridKnn: the batched k-NN engine ------------------------------------

class GridKnnParamTest : public ::testing::TestWithParam<std::uint64_t> {};

// GridKnn must agree with brute force bit for bit — same neighbors, same
// order, same (distance, index) tie-breaks — across the streaming (small k)
// and selection (large k) paths.
TEST_P(GridKnnParamTest, MatchesBruteForceOracle) {
  const auto pts = random_points(350, GetParam() * 17 + 3);
  for (const std::size_t k : {1ul, 8ul, 48ul, 49ul, 120ul, 400ul}) {
    const GridKnn grid(pts, k);
    GridKnn::QueryScratch scratch;
    std::vector<std::uint32_t> got;
    Rng rng(GetParam() + 5000);
    for (int t = 0; t < 15; ++t) {
      const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
      grid.nearest_into(q, k, GridKnn::npos, scratch, got);
      EXPECT_EQ(got, brute_knn(pts, q, k)) << "k=" << k;
    }
    // Self-queries with exclusion — the batched builder's workload.
    for (std::uint32_t i = 0; i < 25; ++i) {
      grid.nearest_into(pts[i], k, i, scratch, got);
      EXPECT_EQ(got, brute_knn(pts, pts[i], k, i)) << "k=" << k << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridKnnParamTest, ::testing::Range<std::uint64_t>(1, 7));

TEST(GridKnn, DuplicatePointsAndDegenerateInputs) {
  std::vector<Vec2> same(6, Vec2{3.0, 3.0});
  const GridKnn grid(same, 4);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  grid.nearest_into({3.0, 3.0}, 4, 2, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 3, 4}));
  std::vector<Vec2> none;
  const GridKnn empty(none, 4);
  EXPECT_EQ(empty.nearest_into({0.0, 0.0}, 4, GridKnn::npos, scratch, out), 0u);
  const GridKnn one(std::vector<Vec2>{{1.0, 2.0}}, 1);
  EXPECT_EQ(one.nearest_into({0.0, 0.0}, 0, GridKnn::npos, scratch, out), 0u);
  EXPECT_EQ(one.nearest_into({0.0, 0.0}, 3, GridKnn::npos, scratch, out), 1u);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

// One scratch reused across adversarial queries must match brute force:
// duplicates with an exclusion, k >= n with and without one, zero k, an
// empty set, and k alternating across kStreamingMaxK = 48 (the streaming
// and selection candidate paths share the scratch).
TEST(GridKnn, AdversarialQueriesWithOneScratchMatchBruteForce) {
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out{7, 7};  // stale contents must vanish
  const std::vector<Vec2> dup{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}, {1.0, 1.0}};
  const GridKnn grid(dup, 3);
  grid.nearest_into({1.0, 1.0}, 3, GridKnn::npos, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 2}));
  grid.nearest_into({1.0, 1.0}, 3, 1, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(grid.nearest_into({0.0, 0.0}, 50, GridKnn::npos, scratch, out), 5u);
  EXPECT_EQ(out, brute_knn(dup, {0.0, 0.0}, 50));
  EXPECT_EQ(grid.nearest_into({0.0, 0.0}, 50, 3, scratch, out), 4u);
  EXPECT_EQ(out, brute_knn(dup, {0.0, 0.0}, 50, 3));
  EXPECT_EQ(grid.nearest_into({0.0, 0.0}, 0, GridKnn::npos, scratch, out), 0u);
  EXPECT_TRUE(out.empty());
  const GridKnn empty(std::vector<Vec2>{}, 3);
  EXPECT_EQ(empty.nearest_into({0.0, 0.0}, 3, GridKnn::npos, scratch, out), 0u);
  EXPECT_TRUE(out.empty());

  const auto big = random_points(400, 99);
  const GridKnn bgrid(big, 17);
  Rng rng(424);
  for (int t = 0; t < 20; ++t) {
    const Vec2 q{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    for (const std::size_t k : {3ul, 60ul, 17ul, 200ul}) {
      bgrid.nearest_into(q, k, GridKnn::npos, scratch, out);
      EXPECT_EQ(out, brute_knn(big, q, k)) << "k=" << k;
    }
  }
}

TEST(GridKnn, RejectsNonFinitePoints) {
  for (const Vec2 bad : {Vec2{kNan, 0.0}, Vec2{0.0, kInfinity}, Vec2{-kInfinity, 1.0}}) {
    const std::vector<Vec2> pts{{0.0, 0.0}, bad, {1.0, 1.0}};
    EXPECT_THROW(GridKnn(pts, 2), std::invalid_argument);
  }
}

TEST(GridKnn, SubsetViewRejectsNonFiniteMembersOnly) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {kNan, kNan}, {1.0, 1.0}};
  const std::vector<std::uint32_t> with_bad{0, 1, 2};
  EXPECT_THROW(GridKnn(pts, with_bad, 1), std::invalid_argument);
  // A non-finite point outside the member list is never read.
  const std::vector<std::uint32_t> finite_only{0, 2};
  const GridKnn view(pts, finite_only, 1);
  EXPECT_EQ(view.size(), 2u);
}

// Finite queries however far off the grid stay exact (the cell map clamps
// in floating point before converting), including ones whose squared
// distances overflow to +inf and tie on every point.
TEST(GridKnn, FarOffFiniteQueriesMatchBruteForce) {
  const auto pts = random_points(200, 0xFA4);
  for (const std::size_t k : {std::size_t{3}, std::size_t{60}}) {
    const GridKnn grid(pts, k);
    GridKnn::QueryScratch scratch;
    std::vector<std::uint32_t> got;
    for (const Vec2 q : {Vec2{1e300, -1e300}, Vec2{-1e300, 5.0}, Vec2{5.0, 1e300},
                         Vec2{1e150, 1e150}, Vec2{1e6, -3.0}, Vec2{-40.0, 12.0}}) {
      grid.nearest_into(q, k, GridKnn::npos, scratch, got);
      EXPECT_EQ(got, brute_knn(pts, q, k)) << "k=" << k << " q=(" << q.x << ", " << q.y << ")";
      grid.nearest_into(q, k, 7, scratch, got);
      EXPECT_EQ(got, brute_knn(pts, q, k, 7)) << "k=" << k << " q=(" << q.x << ", " << q.y << ")";
    }
  }
}

TEST(GridKnn, NonFiniteQueriesThrow) {
  const auto pts = random_points(50, 0xBAD);
  const GridKnn grid(pts, 4);
  const GridKnn empty(std::vector<Vec2>{}, 4);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  for (const Vec2 bad : {Vec2{kNan, 1.0}, Vec2{1.0, kNan}, Vec2{kInfinity, 1.0},
                         Vec2{1.0, -kInfinity}}) {
    EXPECT_THROW(grid.nearest_into(bad, 4, GridKnn::npos, scratch, out), std::invalid_argument);
    EXPECT_THROW(grid.nearest_into(bad, 60, GridKnn::npos, scratch, out), std::invalid_argument);
    EXPECT_THROW(empty.nearest_into(bad, 4, GridKnn::npos, scratch, out), std::invalid_argument);
    EXPECT_THROW(grid.within_into(bad, 1.0, out), std::invalid_argument);
  }
  EXPECT_THROW(grid.within_into({5.0, 5.0}, kNan, out), std::invalid_argument);
  // A negative squared radius lists nothing (not even a member at q).
  out.clear();
  grid.within_into(pts[0], -1.0, out);
  grid.within_into(pts[0], -kInfinity, out);
  EXPECT_TRUE(out.empty());
}

// --- GridKnn subset views: one grid per population over one store -------

class GridKnnSubsetParamTest : public ::testing::TestWithParam<std::uint64_t> {};

// Every subset view must agree bit-for-bit with a *fresh* GridKnn built
// over the compacted subset coordinates (local ids mapped back through the
// member list) — same neighbors, same order, same (distance, index)
// tie-breaks. Member lists are ascending, so local-id tie-break order
// equals global-id tie-break order. The views share one store, each is
// tuned for a very different k, and the subsets are nested thinnings —
// the HNG population shape.
TEST_P(GridKnnSubsetParamTest, MatchesFreshGridKnnOracle) {
  const auto pts = random_points(420, GetParam() * 23 + 1);
  // Keep every 2nd/4th/8th point.
  const std::size_t ks[] = {4, 48, 120};
  std::vector<std::vector<std::uint32_t>> member_lists(3);
  std::vector<GridKnn> grids;
  for (std::size_t l = 0; l < 3; ++l) {
    for (std::uint32_t i = 0; i < pts.size(); i += (1u << (l + 1))) {
      member_lists[l].push_back(i);
    }
    grids.emplace_back(pts, member_lists[l], ks[l]);
  }

  GridKnn::QueryScratch scratch;
  GridKnn::QueryScratch oracle_scratch;
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> oracle_local;
  for (std::size_t l = 0; l < 3; ++l) {
    const auto& members = member_lists[l];
    std::vector<Vec2> subset;
    subset.reserve(members.size());
    for (const std::uint32_t m : members) subset.push_back(pts[m]);
    const GridKnn fresh(subset, ks[l]);
    EXPECT_EQ(grids[l].size(), members.size());

    Rng rng(GetParam() + 31 * l);
    for (int t = 0; t < 20; ++t) {
      const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
      // Query both off-tune (k != expected_k) and on-tune to cross the
      // streaming/selection strategy threshold on shared scratches.
      for (const std::size_t k : {std::size_t{1}, ks[l], std::size_t{200}}) {
        grids[l].nearest_into(q, k, GridKnn::npos, scratch, got);
        fresh.nearest_into(q, k, GridKnn::npos, oracle_scratch, oracle_local);
        std::vector<std::uint32_t> want(oracle_local.size());
        for (std::size_t i = 0; i < oracle_local.size(); ++i) want[i] = members[oracle_local[i]];
        EXPECT_EQ(got, want) << "subset " << l << " k " << k;
      }
    }
    // Member self-queries with exclusion — the HNG linking workload.
    for (std::size_t i = 0; i < members.size(); i += 7) {
      const std::uint32_t m = members[i];
      grids[l].nearest_into(pts[m], ks[l], m, scratch, got);
      fresh.nearest_into(pts[m], ks[l], static_cast<std::uint32_t>(i), oracle_scratch,
                         oracle_local);
      std::vector<std::uint32_t> want(oracle_local.size());
      for (std::size_t j = 0; j < oracle_local.size(); ++j) want[j] = members[oracle_local[j]];
      EXPECT_EQ(got, want) << "subset " << l << " member " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridKnnSubsetParamTest, ::testing::Range<std::uint64_t>(1, 7));

TEST(GridKnnSubset, DuplicatePointsTieBreakByGlobalIndex) {
  // Six coincident points; the view indexes the odd-id half. Ties must
  // resolve by ascending *global* id within the membership.
  const std::vector<Vec2> pts(6, Vec2{3.0, 3.0});
  const GridKnn grid(pts, std::vector<std::uint32_t>{1, 3, 5}, 2);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  grid.nearest_into({3.0, 3.0}, 2, GridKnn::npos, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 3}));
  grid.nearest_into({3.0, 3.0}, 2, 3, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 5}));
}

TEST(GridKnnSubset, KAtLeastSubsetSizeAndEmptySubsets) {
  const auto pts = random_points(60, 12);
  const std::vector<std::uint32_t> members{2, 11, 29, 47};
  const GridKnn grid(pts, members, 9);  // expected_k > |members|
  const GridKnn empty(pts, std::vector<std::uint32_t>{}, 3);  // queries must return 0
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  // k >= n collects the whole membership, sorted by (distance, id).
  EXPECT_EQ(grid.nearest_into({5.0, 5.0}, 9, GridKnn::npos, scratch, out), 4u);
  std::vector<std::uint32_t> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, members);
  EXPECT_EQ(grid.nearest_into({5.0, 5.0}, 9, 29, scratch, out), 3u);
  EXPECT_EQ(empty.nearest_into({5.0, 5.0}, 3, GridKnn::npos, scratch, out), 0u);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(GridKnnSubset, RejectsOutOfRangeMembers) {
  const auto pts = random_points(10, 4);
  EXPECT_THROW(GridKnn(pts, std::vector<std::uint32_t>{3, 10}, 1), std::out_of_range);
  EXPECT_THROW(GridKnn(std::span<const Vec2>{}, std::vector<std::uint32_t>{0}, 1),
               std::out_of_range);
}

// --- mutable membership: the churn substrate of sens/dynamic -------------

/// The mutation oracle: a mutated grid must answer every query identically
/// to a *fresh* subset view over its current live member set — spill
/// entries, tombstones, and compactions must all be invisible.
void expect_matches_fresh(const GridKnn& grid, std::span<const Vec2> store,
                          std::size_t expected_k, std::uint64_t seed) {
  const std::vector<std::uint32_t> members = grid.live_members();
  const GridKnn fresh(store, members, expected_k);
  ASSERT_EQ(grid.size(), members.size());
  GridKnn::QueryScratch scratch, fresh_scratch;
  std::vector<std::uint32_t> got, want;
  Rng rng(seed);
  for (int t = 0; t < 10; ++t) {
    const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
    for (const std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{70}}) {
      grid.nearest_into(q, k, GridKnn::npos, scratch, got);
      fresh.nearest_into(q, k, GridKnn::npos, fresh_scratch, want);
      EXPECT_EQ(got, want) << "k=" << k << " t=" << t;
    }
  }
  for (const std::uint32_t m : members) {
    grid.nearest_into(store[m], 4, m, scratch, got);
    fresh.nearest_into(store[m], 4, m, fresh_scratch, want);
    EXPECT_EQ(got, want) << "self-query of member " << m;
  }
}

TEST(GridKnnMutation, RandomChurnMatchesFreshGrid) {
  const auto pts = random_points(260, 77);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < pts.size(); i += 2) members.push_back(i);
  GridKnn grid(pts, members, 4);
  std::vector<std::uint8_t> in(pts.size(), 0);
  for (const std::uint32_t m : members) in[m] = 1;
  Rng rng(0x6A1D);
  for (int op = 0; op < 300; ++op) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_index(pts.size()));
    if (in[id]) {
      grid.erase_member(id, pts[id]);
    } else {
      grid.insert_member(id, pts[id]);
    }
    in[id] ^= 1;
    if (op % 25 == 24) expect_matches_fresh(grid, pts, 4, 0x6A1D + static_cast<unsigned>(op));
  }
  expect_matches_fresh(grid, pts, 4, 0x6A1D);
}

// A level drained to empty must answer nothing (not stale members), then
// accept a full repopulation — the dynamic layer's top-level collapse and
// regrowth path.
TEST(GridKnnMutation, EmptiedThenRepopulated) {
  const auto pts = random_points(50, 9);
  std::vector<std::uint32_t> members{3, 11, 24, 40};
  GridKnn grid(pts, members, 3);
  for (const std::uint32_t m : members) grid.erase_member(m, pts[m]);
  EXPECT_EQ(grid.size(), 0u);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  EXPECT_EQ(grid.nearest_into({5.0, 5.0}, 3, GridKnn::npos, scratch, out), 0u);
  for (std::uint32_t i = 0; i < pts.size(); i += 3) grid.insert_member(i, pts[i]);
  expect_matches_fresh(grid, pts, 3, 0xE2E2);
}

// k >= |membership| must re-saturate exactly as membership shrinks and
// regrows through the spill/tombstone path.
TEST(GridKnnMutation, KAtLeastMembershipResaturates) {
  const auto pts = random_points(30, 5);
  std::vector<std::uint32_t> members{0, 7, 14, 21, 28};
  GridKnn grid(pts, members, 9);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  grid.erase_member(14, pts[14]);
  grid.erase_member(0, pts[0]);
  grid.insert_member(1, pts[1]);
  EXPECT_EQ(grid.nearest_into({5.0, 5.0}, 9, GridKnn::npos, scratch, out), 4u);
  std::vector<std::uint32_t> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{1, 7, 21, 28}));
  expect_matches_fresh(grid, pts, 9, 0x5A7);
}

// Forcing compaction must be observable only through pending(): queries
// before and after are bit-identical to the fresh-grid oracle.
TEST(GridKnnMutation, ForcedCompactionIsInvisible) {
  const auto pts = random_points(120, 31);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < 60; ++i) members.push_back(i);
  GridKnn grid(pts, members, 4);
  for (std::uint32_t i = 0; i < 6; ++i) grid.erase_member(i * 7, pts[i * 7]);
  for (std::uint32_t i = 60; i < 66; ++i) grid.insert_member(i, pts[i]);
  ASSERT_GT(grid.pending(), 0u);
  expect_matches_fresh(grid, pts, 4, 0xC0A);
  grid.compact();
  EXPECT_EQ(grid.pending(), 0u);
  expect_matches_fresh(grid, pts, 4, 0xC0B);
}

TEST(GridKnnMutation, EraseNonMemberThrowsInsertOutOfRangeThrows) {
  const auto pts = random_points(20, 3);
  GridKnn grid(pts, std::vector<std::uint32_t>{1, 2, 3}, 2);
  EXPECT_THROW(grid.erase_member(5, pts[5]), std::invalid_argument);
  grid.erase_member(2, pts[2]);
  EXPECT_THROW(grid.erase_member(2, pts[2]), std::invalid_argument);
  // npos is the tombstone id: neither admitted nor retired.
  EXPECT_THROW(grid.insert_member(GridKnn::npos, pts[0]), std::out_of_range);
  EXPECT_THROW(grid.erase_member(GridKnn::npos, pts[2]), std::out_of_range);
  EXPECT_EQ(grid.live_members(), (std::vector<std::uint32_t>{1, 3}));
}

TEST(GridKnnMutation, InsertNonFiniteMemberThrows) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {kInfinity, 0.0}, {0.0, kNan}};
  GridKnn grid(pts, std::vector<std::uint32_t>{0, 1}, 1);
  EXPECT_THROW(grid.insert_member(2, pts[2]), std::invalid_argument);
  EXPECT_THROW(grid.insert_member(3, pts[3]), std::invalid_argument);
  EXPECT_THROW(grid.erase_member(0, pts[3]), std::invalid_argument);
  EXPECT_EQ(grid.live_members(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(grid.pending(), 0u);
}

// --- fixed-radius queries (the dynamic layer's repair search) --------------

/// Brute-force oracle with the exact test within_into promises.
std::vector<std::uint32_t> brute_within(std::span<const Vec2> pts,
                                        std::span<const std::uint32_t> members, Vec2 q,
                                        double r2) {
  std::vector<std::uint32_t> out;
  for (const std::uint32_t m : members) {
    const double dx = pts[m].x - q.x;
    const double dy = pts[m].y - q.y;
    if (dx * dx + dy * dy <= r2) out.push_back(m);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_within_matches(const GridKnn& grid, std::span<const Vec2> pts, Vec2 q, double r2) {
  std::vector<std::uint32_t> got;
  grid.within_into(q, r2, got);
  std::sort(got.begin(), got.end());
  const std::vector<std::uint32_t> members = grid.live_members();
  EXPECT_EQ(got, brute_within(pts, members, q, r2)) << "q=(" << q.x << ", " << q.y
                                                   << ") r2=" << r2;
}

// Through spill admissions, tombstones and compactions, a radius query
// lists exactly the live members in the closed disk — including members
// at exactly the query radius.
TEST(GridKnnWithin, MatchesBruteForceUnderChurn) {
  const auto pts = random_points(300, 0x3171);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < pts.size(); i += 3) members.push_back(i);
  GridKnn grid(pts, members, 12);
  std::vector<std::uint8_t> in(pts.size(), 0);
  for (const std::uint32_t m : members) in[m] = 1;
  Rng rng(0x3172);
  for (int op = 0; op < 240; ++op) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_index(pts.size()));
    if (in[id]) {
      grid.erase_member(id, pts[id]);
    } else {
      grid.insert_member(id, pts[id]);
    }
    in[id] ^= 1;
    if (op % 20 != 19) continue;
    const Vec2 q{rng.uniform(-2.0, 12.0), rng.uniform(-2.0, 12.0)};
    for (const double r : {0.0, 0.3, 1.1, 4.0, 30.0}) expect_within_matches(grid, pts, q, r * r);
    // Radius exactly at a member: that member must be listed.
    const Vec2 m = pts[id];
    expect_within_matches(grid, pts, q, dist2(m, q));
  }
}

// A half-integer lattice whose grid cells are exactly unit squares (400
// members over a 10 x 10 box, tuned for 4 per cell): integer coordinates
// sit exactly on cell boundaries and integer radii tie with lattice
// distances. Shifted far from the origin and onto negative coordinates,
// the same queries must stay exact.
TEST(GridKnnWithin, LatticeOnCellBoundariesAndOffsetWindows) {
  for (const Vec2 shift : {Vec2{0.0, 0.0}, Vec2{1e6, 1e6}, Vec2{-500.0, -731.0}}) {
    std::vector<Vec2> pts;
    for (int i = 0; i < 20; ++i) {
      for (int j = 0; j < 20; ++j) pts.push_back({shift.x + 0.5 * i, shift.y + 0.5 * j});
    }
    pts.back() = {shift.x + 10.0, shift.y + 10.0};  // box exactly 10 x 10
    const GridKnn grid(pts, 16);
    for (int qi = 0; qi <= 10; qi += 2) {
      for (int qj = 0; qj <= 10; qj += 5) {
        const Vec2 q{shift.x + qi, shift.y + qj};
        for (const double r2 : {0.0, 0.25, 1.0, 2.0, 4.0, 6.25, 9.0}) {
          expect_within_matches(grid, pts, q, r2);
        }
      }
    }
  }
}

TEST(GridKnnWithin, InfiniteAndHugeRadiiListEveryMember) {
  const auto pts = random_points(90, 0x3173);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < pts.size(); i += 2) members.push_back(i);
  GridKnn grid(pts, members, 4);
  grid.insert_member(1, pts[1]);  // one spill entry
  std::vector<std::uint32_t> got;
  grid.within_into({5.0, 5.0}, std::numeric_limits<double>::infinity(), got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, grid.live_members());
  got.clear();
  grid.within_into({-1e200, 1e200}, 1e300, got);  // cell math far off the grid
  EXPECT_EQ(got.size(), 0u);
  const GridKnn empty(pts, std::vector<std::uint32_t>{}, 4);
  got.clear();
  empty.within_into({5.0, 5.0}, 100.0, got);
  EXPECT_TRUE(got.empty());
}

// Several subset views over one growing store: grow the store (with
// reallocation) while admitting its new points, add a view, drain and
// repopulate it, recycle a vacated slot with new coordinates — after all of
// it, every view must match a fresh view built from the current state. This
// is the population grid life cycle of sens/dynamic; the views own their
// coordinates, so the store may move under them.
TEST(GridKnnSubsetMutation, GrowDrainRepopulateMatchesFresh) {
  std::vector<Vec2> store = random_points(40, 21);
  std::vector<std::uint32_t> odd;
  for (std::uint32_t i = 1; i < store.size(); i += 2) odd.push_back(i);
  std::vector<GridKnn> grids;
  grids.emplace_back(store, odd, 3);

  // Store growth + admissions of brand-new ids.
  Rng rng(0x9E4);
  int reallocations = 0;
  for (int i = 0; i < 20; ++i) {
    const Vec2* before = store.data();
    store.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    reallocations += store.data() != before;
    const auto id = static_cast<std::uint32_t>(store.size() - 1);
    if (i % 2 == 0) grids[0].insert_member(id, store[id]);
  }
  EXPECT_GT(reallocations, 0);
  grids.emplace_back(store, std::span<const std::uint32_t>{}, 2);
  for (const std::uint32_t id : {41u, 45u, 49u}) grids[1].insert_member(id, store[id]);

  // Drain the second view to empty, then repopulate it differently.
  for (const std::uint32_t id : {41u, 45u, 49u}) grids[1].erase_member(id, store[id]);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  EXPECT_EQ(grids[1].nearest_into({5.0, 5.0}, 2, GridKnn::npos, scratch, out), 0u);
  for (const std::uint32_t id : {2u, 40u, 58u}) grids[1].insert_member(id, store[id]);

  // Recycle a vacated slot at new coordinates.
  grids[0].erase_member(1, store[1]);
  store[1] = {9.5, 0.25};
  grids[0].insert_member(1, store[1]);

  EXPECT_EQ(store.size(), 60u);
  const std::size_t ks[] = {3, 2};
  for (std::size_t l = 0; l < 2; ++l) expect_matches_fresh(grids[l], store, ks[l], 0x9E5 + l);
  EXPECT_THROW(grids[0].insert_member(GridKnn::npos, store[0]), std::out_of_range);
  EXPECT_THROW(grids[0].erase_member(GridKnn::npos, store[0]), std::out_of_range);
}

// Collinear points: a degenerate (zero-height) bounding box must not break
// the ring bounds.
TEST(GridKnn, CollinearPoints) {
  std::vector<Vec2> pts;
  for (int i = 0; i < 40; ++i) pts.push_back({0.25 * i, 2.0});
  const GridKnn grid(pts, 5);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    grid.nearest_into(pts[i], 5, i, scratch, out);
    EXPECT_EQ(out, brute_knn(pts, pts[i], 5, i));
  }
}


// All three radius scans — the visitor (both signatures), count_in_radius
// and within_into — against brute force while the grid churns, checked
// only at moments when tombstones and spill entries are both live, on a
// tuned grid and on a caller-sided one.
TEST(GridKnnWithin, RadiusScansMatchBruteForceUnderChurn) {
  const auto pts = random_points(400, 0x5CA7);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < pts.size(); i += 2) members.push_back(i);
  GridKnn sided(std::vector<Vec2>{}, GridKnn::CellSide{0.75});
  for (const std::uint32_t m : members) sided.insert_member(m, pts[m]);
  sided.compact();
  std::vector<GridKnn> grids{GridKnn(pts, members, 6), sided};

  Rng rng(0x5CA8);
  for (GridKnn& grid : grids) {
    // Where each id sits: absent, in a bucket, or on the spill; reset to
    // "bucketed" whenever a compaction empties the pending list.
    enum Slot : std::uint8_t { kAbsent, kBucket, kSpill };
    std::vector<Slot> slot(pts.size(), kAbsent);
    for (const std::uint32_t m : members) slot[m] = kBucket;
    std::size_t tombstones = 0;
    int checked = 0;
    for (int op = 0; op < 600; ++op) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_index(pts.size()));
      if (slot[id] == kAbsent) {
        grid.insert_member(id, pts[id]);
        slot[id] = kSpill;
      } else {
        grid.erase_member(id, pts[id]);
        tombstones += slot[id] == kBucket;
        slot[id] = kAbsent;
      }
      if (grid.pending() == 0) {
        for (Slot& sl : slot) sl = sl == kAbsent ? kAbsent : kBucket;
        tombstones = 0;
      }
      const auto spill = static_cast<std::size_t>(std::count(slot.begin(), slot.end(), kSpill));
      ASSERT_EQ(grid.pending(), tombstones + spill) << "op " << op;
      if (tombstones == 0 || spill == 0 || op % 5 != 4) continue;
      ++checked;
      const std::vector<std::uint32_t> live = grid.live_members();
      const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
      for (const double r2 : {0.0, 0.2, 1.0, 4.0, 50.0, dist2(pts[id], q)}) {
        const std::vector<std::uint32_t> want = brute_within(pts, live, q, r2);
        std::vector<std::uint32_t> got;
        grid.within_into(q, r2, got);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "op " << op << " r2 " << r2;
        EXPECT_EQ(grid.count_in_radius(q, r2), want.size()) << "op " << op << " r2 " << r2;
        std::vector<std::uint32_t> visited;
        EXPECT_FALSE(grid.for_each_in_radius_until(q, r2, [&](std::uint32_t j, double d2) {
          EXPECT_EQ(d2, dist2(pts[j], q));
          visited.push_back(j);
          return false;
        }));
        std::sort(visited.begin(), visited.end());
        EXPECT_EQ(visited, want);
      }
    }
    EXPECT_GT(checked, 20);
  }
}

// The grid copies what it indexes: overwriting and freeing the vector it
// was built from changes no answer, for each constructor.
TEST(GridKnn, AnswersSurviveSourceOverwrittenAndFreed) {
  const auto pts = random_points(300, 0xF4EE);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < pts.size(); i += 3) members.push_back(i);
  auto source = std::make_unique<std::vector<Vec2>>(pts);
  const GridKnn tuned(*source, 8);
  const GridKnn sided(*source, GridKnn::CellSide{1.0});
  const GridKnn subset(*source, members, 4);
  std::fill(source->begin(), source->end(), Vec2{-7.0, 3.0});
  source.reset();

  const GridKnn fresh_subset(pts, members, 4);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> want;
  Rng rng(0xF4EF);
  for (int t = 0; t < 30; ++t) {
    const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
    tuned.nearest_into(q, 8, GridKnn::npos, scratch, got);
    EXPECT_EQ(got, brute_knn(pts, q, 8));
    subset.nearest_into(q, 5, GridKnn::npos, scratch, got);
    fresh_subset.nearest_into(q, 5, GridKnn::npos, scratch, want);
    EXPECT_EQ(got, want);
    EXPECT_EQ(sorted_radius(sided, q, 1.5), brute_radius(pts, q, 1.5));
    EXPECT_EQ(sorted_radius(tuned, q, 0.8), brute_radius(pts, q, 0.8));
  }
}

// One far outlier makes the uncapped cell count overflow a long, so the
// ~4n cap must run in floating point before the conversion; queries stay
// exact.
TEST(GridKnn, FarOutlierCellCountIsCappedBeforeConversion) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {1e300, 0.0}, {0.0, 1.0}};
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> got;
  for (const std::size_t k : {1ul, 2ul, 3ul, 60ul}) {
    const GridKnn grid(pts, k);
    for (const Vec2 q : {Vec2{0.0, 0.0}, Vec2{1e300, 0.0}, Vec2{5e299, 1.0}, Vec2{-3.0, 2.0}}) {
      grid.nearest_into(q, k, GridKnn::npos, scratch, got);
      EXPECT_EQ(got, brute_knn(pts, q, k)) << "k=" << k;
    }
    EXPECT_EQ(sorted_radius(grid, {0.0, 0.0}, 1.0), (std::vector<std::uint32_t>{0, 2}));
  }
  const GridKnn sided(pts, GridKnn::CellSide{1.0});
  EXPECT_EQ(sorted_radius(sided, {0.0, 0.5}, 0.5), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(sorted_radius(sided, {1e300, 0.0}, 1.0), std::vector<std::uint32_t>{1});
}

// A bounding box whose width or height overflows to +inf would make the
// cell side infinite and the cell map divide inf by inf. Every constructor
// rejects it, and an admission that would widen a grid that far is rejected
// with the grid unchanged.
TEST(GridKnn, OverflowingBoundingBoxThrows) {
  const std::vector<Vec2> wide{{-1e308, 0.0}, {1e308, 0.0}};
  const std::vector<Vec2> tall{{0.0, -1e308}, {0.0, 1e308}};
  for (const std::vector<Vec2>& pts : {wide, tall}) {
    EXPECT_THROW(GridKnn(pts, 4), std::invalid_argument);
    EXPECT_THROW(GridKnn(pts, GridKnn::CellSide{1.0}), std::invalid_argument);
    EXPECT_THROW(GridKnn(pts, std::vector<std::uint32_t>{0, 1}, 4), std::invalid_argument);
    // Either extreme alone is fine.
    EXPECT_EQ(GridKnn(pts, std::vector<std::uint32_t>{1}, 4).size(), 1u);

    GridKnn grid(pts, std::vector<std::uint32_t>{0}, 4);
    EXPECT_THROW(grid.insert_member(1, pts[1]), std::invalid_argument);
    EXPECT_EQ(grid.live_members(), std::vector<std::uint32_t>{0});
    EXPECT_EQ(grid.pending(), 0u);
    // Once the extreme member is retired and compacted away, the grid is
    // narrow again and the other extreme is admitted.
    grid.insert_member(2, {1.0, 1.0});
    grid.erase_member(0, pts[0]);
    grid.compact();
    grid.insert_member(1, pts[1]);
    EXPECT_EQ(grid.live_members(), (std::vector<std::uint32_t>{1, 2}));
  }
}

}  // namespace
}  // namespace sens
