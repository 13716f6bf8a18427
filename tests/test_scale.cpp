// Scale-tier contracts (DESIGN.md §2.8): the streaming Poisson generator is
// bit-identical to the serial path and really is grid-major; spatial
// relabeling is an exact isomorphism (building on permuted points equals
// permuting the build); and the 32-bit index-width guards throw instead of
// truncating. This is the `scale` ctest label — the guarantees bench_e18
// relies on at n = 10^6.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/geometry/box.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/flat_adjacency.hpp"
#include "sens/rng/rng.hpp"
#include "sens/spatial/reorder.hpp"
#include "sens/support/checked.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

constexpr std::uint64_t kSeed = 0x5CA1E;

void expect_same_points(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-for-bit, not approximately: both paths must draw the exact same
    // doubles from the exact same per-cell streams.
    EXPECT_EQ(a[i].x, b[i].x) << "point " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "point " << i;
  }
}

// --- streaming generation ---------------------------------------------------

TEST(OrderedPoisson, MatchesSerialPathBitForBit) {
  const Box windows[] = {
      {{0.0, 0.0}, {7.0, 5.0}},          // integral bounds
      {{-3.5, -2.25}, {4.75, 1.5}},      // negative, fractional bounds
      {{10.125, 20.0}, {11.0, 20.875}},  // sub-cell window
  };
  for (const Box& window : windows) {
    const PointSet serial = poisson_point_set(window, 4.0, kSeed);
    const PointSet ordered = poisson_point_set_ordered(window, 4.0, kSeed);
    EXPECT_EQ(serial.intensity, ordered.intensity);
    expect_same_points(serial.points, ordered.points);
  }
}

TEST(OrderedPoisson, SerialOrderIsAlreadyGridMajor) {
  // The equality above is only meaningful if "grid-major" is a real
  // invariant of both paths: stable-sorting the serial output by
  // (cell row, cell column) must be a no-op.
  const PointSet serial = poisson_point_set({{0.0, 0.0}, {9.0, 9.0}}, 3.0, kSeed);
  std::vector<Vec2> sorted = serial.points;
  std::stable_sort(sorted.begin(), sorted.end(), [](Vec2 a, Vec2 b) {
    const auto cell = [](Vec2 p) {
      return std::pair<long, long>{static_cast<long>(std::floor(p.y)),
                                   static_cast<long>(std::floor(p.x))};
    };
    return cell(a) < cell(b);
  });
  expect_same_points(serial.points, sorted);
}

TEST(OrderedPoisson, ThreadCountInvariance) {
  const Box window{{0.0, 0.0}, {12.0, 8.0}};
  const unsigned restore = thread_count();
  set_thread_count(1);
  const PointSet one = poisson_point_set_ordered(window, 5.0, kSeed);
  set_thread_count(3);
  const PointSet three = poisson_point_set_ordered(window, 5.0, kSeed);
  set_thread_count(restore);
  expect_same_points(one.points, three.points);
}

TEST(OrderedPoisson, DegenerateInputs) {
  EXPECT_TRUE(poisson_point_set_ordered({{0.0, 0.0}, {8.0, 8.0}}, 0.0, kSeed).points.empty());
  EXPECT_TRUE(poisson_point_set_ordered({{2.0, 2.0}, {2.0, 5.0}}, 4.0, kSeed).points.empty());
  EXPECT_THROW((void)poisson_point_set_ordered({{0.0, 0.0}, {1.0, 1.0}}, -1.0, kSeed),
               std::invalid_argument);
}

// --- relabeling -------------------------------------------------------------

std::vector<std::uint32_t> random_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  Rng rng = Rng::stream(seed, 0x5E0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
  }
  return perm;
}

TEST(Reorder, InvertRoundTrip) {
  const std::vector<std::uint32_t> perm = random_permutation(257, kSeed);
  const std::vector<std::uint32_t> inv = invert_permutation(perm);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[perm[i]], i);
    EXPECT_EQ(perm[inv[i]], i);
  }
  EXPECT_EQ(invert_permutation(inv), perm);  // inversion is an involution
}

TEST(Reorder, InvertRejectsNonPermutations) {
  EXPECT_THROW((void)invert_permutation(std::vector<std::uint32_t>{0, 2}),
               std::invalid_argument);  // out of range
  EXPECT_THROW((void)invert_permutation(std::vector<std::uint32_t>{0, 1, 1}),
               std::invalid_argument);  // duplicate
}

TEST(Reorder, ApplyPointsRoundTrip) {
  const PointSet ps = poisson_point_set({{0.0, 0.0}, {6.0, 6.0}}, 4.0, kSeed);
  const std::vector<std::uint32_t> perm = random_permutation(ps.size(), kSeed);
  const std::vector<std::uint32_t> inv = invert_permutation(perm);
  const PointSet shuffled = apply_permutation(ps, perm);
  EXPECT_EQ(shuffled.intensity, ps.intensity);
  const PointSet back = apply_permutation(shuffled, inv);
  expect_same_points(back.points, ps.points);
  EXPECT_THROW((void)apply_permutation(std::span<const Vec2>(ps.points),
                                       std::vector<std::uint32_t>{0}),
               std::invalid_argument);  // size mismatch
}

TEST(Reorder, HilbertIndexIsInjective) {
  std::set<std::uint64_t> seen;
  for (std::uint32_t x = 0; x < 32; ++x) {
    for (std::uint32_t y = 0; y < 32; ++y) {
      seen.insert(hilbert_index_16(x * 2047, y * 2047));
    }
  }
  EXPECT_EQ(seen.size(), 32u * 32u);
}

TEST(Reorder, SpatialPermutationIsDeterministicPermutation) {
  const PointSet ps = poisson_point_set({{0.0, 0.0}, {8.0, 8.0}}, 4.0, kSeed);
  for (const SpatialOrder order : {SpatialOrder::kHilbert, SpatialOrder::kGridMajor}) {
    const std::vector<std::uint32_t> perm = spatial_order_permutation(ps.points, order);
    (void)invert_permutation(perm);  // throws unless a genuine permutation
    EXPECT_EQ(perm, spatial_order_permutation(ps.points, order));
  }
  EXPECT_TRUE(spatial_order_permutation({}, SpatialOrder::kHilbert).empty());
}

TEST(Reorder, FlatAdjacencyRelabelPreservesListOrder) {
  // Lists are (distance, index)-ordered payloads; relabeling must map the
  // entries without re-sorting them.
  FlatAdjacency adj;
  adj.offsets = {0, 2, 3, 3};
  adj.neighbors = {2, 1, 0, /* vertex 2: empty */};
  const std::vector<std::uint32_t> perm{2, 0, 1};  // new 0 = old 2, ...
  const FlatAdjacency out = apply_permutation(adj, perm);
  // inv = {1, 2, 0}: old list of perm[new], entries mapped through inv.
  EXPECT_EQ(out.offsets, (std::vector<std::uint32_t>{0, 0, 2, 3}));
  EXPECT_EQ(out.neighbors, (std::vector<std::uint32_t>{0, 2, 1}));
}

TEST(Reorder, HilbertBuildMatchesRelabeledBuildOracle) {
  // The layout contract at the heart of E18: building the UDG on permuted
  // points is the *same graph* as permuting the built UDG — bit for bit,
  // edge lists and coordinates. (UDG only: HNG promotion levels are keyed
  // by node id, so relabeling resamples its hierarchy — DESIGN.md §2.8.)
  const Box window{{0.0, 0.0}, {12.0, 12.0}};
  const PointSet ps = poisson_point_set(window, 4.0, kSeed);
  const GeoGraph built = build_udg(ps.points, window, 1.0);

  const std::vector<std::uint32_t> perm =
      spatial_order_permutation(ps.points, SpatialOrder::kHilbert);
  const std::vector<Vec2> permuted = apply_permutation(std::span<const Vec2>(ps.points), perm);
  const GeoGraph rebuilt = build_udg(permuted, window, 1.0);
  const GeoGraph relabeled = apply_permutation(built, perm);

  expect_same_points(rebuilt.points, relabeled.points);
  EXPECT_EQ(rebuilt.graph.edge_list(), relabeled.graph.edge_list());
  EXPECT_EQ(rebuilt.graph.num_edges(), built.graph.num_edges());
}

// --- index-width guards -----------------------------------------------------

TEST(ScaleGuards, CheckedU32Boundary) {
  EXPECT_EQ(checked_u32(0xffffffffull, "test"), 0xffffffffu);
  EXPECT_THROW((void)checked_u32(0x100000000ull, "test"), std::overflow_error);
}

TEST(ScaleGuards, CsrBuilderRejectsHugeVertexCount) {
  CsrGraph::Builder b;
  b.add_edge(0, 1);
  // The guard fires at entry, before any offsets allocation — a 2^32 vertex
  // count must throw, not attempt a 16 GiB resize or wrap silently.
  EXPECT_THROW((void)std::move(b).build(std::size_t{1} << 32), std::overflow_error);
}

TEST(ScaleGuards, FlatAdjacencyBuilderRejectsOffsetOverflow) {
  // Two vertices whose degrees each fit u32 but whose prefix sum does not:
  // the checked prefix must throw before the neighbors resize is attempted.
  EXPECT_THROW((void)build_flat_adjacency(
                   2, [](std::size_t) { return std::size_t{0x80000000}; },
                   [](std::size_t, std::uint32_t*) { FAIL() << "fill must never run"; }),
               std::overflow_error);
  EXPECT_THROW((void)build_flat_adjacency(
                   1, [](std::size_t) { return std::size_t{0x100000000}; },
                   [](std::size_t, std::uint32_t*) { FAIL() << "fill must never run"; }),
               std::overflow_error);
}

}  // namespace
}  // namespace sens
