// Tests for sens/graph: CSR construction (builder, flat-adjacency and
// selection paths), BFS, Dijkstra (scratch reuse, arc weights, batched
// multi-source), components, union-find.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "sens/graph/bfs.hpp"
#include "sens/graph/components.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/graph/flat_adjacency.hpp"
#include "sens/graph/union_find.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

/// Random multigraph edge list (duplicates and self loops included) for
/// adversarial normalization tests.
std::vector<std::pair<std::uint32_t, std::uint32_t>> random_edges(std::size_t n,
                                                                  std::size_t count,
                                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(count);
  for (std::size_t e = 0; e < count; ++e)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<std::uint32_t>(rng.uniform_index(n)));
  return edges;
}

CsrGraph path_graph(std::size_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return CsrGraph::from_edges(n, std::move(edges));
}

/// Costs from `source` through a fresh scratch: the reference row that
/// reused-scratch and batched runs are compared with.
std::vector<double> fresh_costs(const CsrGraph& g, std::uint32_t source,
                                std::span<const double> w) {
  DijkstraScratch scratch;
  std::vector<double> out(g.num_vertices());
  dijkstra_costs_into(g, source, w, scratch, out);
  return out;
}

TEST(Csr, BuildNormalizesEdges) {
  // Duplicates, reversed duplicates and self loops all collapse.
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 3}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Csr, OutOfRangeThrows) {
  EXPECT_THROW((void)CsrGraph::from_edges(2, {{0, 5}}), std::out_of_range);
}

TEST(Csr, NeighborsSortedAndEdgeList) {
  const CsrGraph g = CsrGraph::from_edges(5, {{3, 1}, {3, 0}, {3, 4}, {2, 3}});
  const auto nbrs = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 2.0 * 4.0 / 5.0);
  const auto edges = g.edge_list();
  EXPECT_EQ(edges.size(), 4u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Bfs, DistancesOnPath) {
  const CsrGraph g = path_graph(6);
  const auto dist = bfs_distances(g, 0);
  for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(dist[i], i);
  BfsScratch scratch;
  EXPECT_EQ(bfs_distance(g, 0, 5, scratch), 5u);
  EXPECT_EQ(bfs_distance(g, 2, 2, scratch), 0u);
}

TEST(Bfs, Unreachable) {
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {2, 3}});
  BfsScratch scratch;
  EXPECT_EQ(bfs_distance(g, 0, 3, scratch), kUnreachable);
  EXPECT_EQ(bfs_distances(g, 0)[2], kUnreachable);
  std::vector<std::uint32_t> path{7};
  EXPECT_FALSE(bfs_path_into(g, 0, 3, scratch, path));
  EXPECT_TRUE(path.empty());
}

TEST(Bfs, PathValidAndShortest) {
  // Diamond with a long detour: 0-1-3, 0-2-3, 0-4-5-3.
  const CsrGraph g = CsrGraph::from_edges(6, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}});
  BfsScratch scratch;
  std::vector<std::uint32_t> path;
  ASSERT_TRUE(bfs_path_into(g, 0, 3, scratch, path));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
  for (std::size_t i = 1; i < path.size(); ++i) EXPECT_TRUE(g.has_edge(path[i - 1], path[i]));
}

TEST(Bfs, PathSourceEqualsTarget) {
  const CsrGraph g = path_graph(3);
  BfsScratch scratch;
  std::vector<std::uint32_t> path;
  ASSERT_TRUE(bfs_path_into(g, 1, 1, scratch, path));
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 1u);
}

TEST(Dijkstra, MatchesBfsWithUnitWeights) {
  Rng rng(17);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const std::size_t n = 80;
  for (int e = 0; e < 200; ++e)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<std::uint32_t>(rng.uniform_index(n)));
  const CsrGraph g = CsrGraph::from_edges(n, std::move(edges));
  const auto hops = bfs_distances(g, 0);
  const auto costs = dijkstra_costs(g, 0, [](std::uint32_t, std::uint32_t) { return 1.0; });
  for (std::size_t v = 0; v < n; ++v) {
    if (hops[v] == kUnreachable) {
      EXPECT_EQ(costs[v], kInfCost);
    } else {
      EXPECT_DOUBLE_EQ(costs[v], static_cast<double>(hops[v]));
    }
  }
}

TEST(Dijkstra, WeightedShortcut) {
  // 0-1-2 cheap vs direct 0-2 expensive.
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::vector<double> w = g.arc_weights([](std::uint32_t a, std::uint32_t b) {
    return (a == 0 && b == 2) || (a == 2 && b == 0) ? 10.0 : 1.0;
  });
  DijkstraScratch scratch;
  EXPECT_DOUBLE_EQ(dijkstra_cost(g, 0, 2, w, scratch), 2.0);
  std::vector<std::uint32_t> path;
  EXPECT_TRUE(dijkstra_path_into(g, 0, 2, w, scratch, path));
  EXPECT_EQ(path, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Dijkstra, UnreachableIsInf) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}});
  const std::vector<double> w(g.num_arcs(), 1.0);
  DijkstraScratch scratch;
  EXPECT_EQ(dijkstra_cost(g, 0, 2, w, scratch), kInfCost);
  std::vector<std::uint32_t> path{7};
  EXPECT_FALSE(dijkstra_path_into(g, 0, 2, w, scratch, path));
  EXPECT_TRUE(path.empty());
}

TEST(Csr, BuilderMatchesFromEdges) {
  const auto edges = random_edges(50, 300, 23);  // dups + self loops likely
  CsrGraph::Builder b;
  b.reserve(edges.size());
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  EXPECT_EQ(b.edges_added(), edges.size());
  const CsrGraph built = std::move(b).build(50);
  const CsrGraph reference = CsrGraph::from_edges(50, edges);
  EXPECT_EQ(built.edge_list(), reference.edge_list());
  EXPECT_EQ(built.num_edges(), reference.num_edges());
}

TEST(Csr, BuilderOutOfRangeThrows) {
  CsrGraph::Builder b;
  b.add_edge(0, 7);
  EXPECT_THROW((void)std::move(b).build(3), std::out_of_range);
}

TEST(Csr, FromSymmetricAdjacencyAdoptsAndSorts) {
  // 0-1, 0-2, 1-2 with deliberately unsorted per-vertex lists.
  FlatAdjacency adj;
  adj.offsets = {0, 2, 4, 6};
  adj.neighbors = {2, 1, 2, 0, 1, 0};
  const CsrGraph g = CsrGraph::from_symmetric_adjacency(std::move(adj));
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Csr, FromSymmetricAdjacencyMismatchThrows) {
  FlatAdjacency adj;
  adj.offsets = {0, 2};
  adj.neighbors = {1};
  EXPECT_THROW((void)CsrGraph::from_symmetric_adjacency(std::move(adj)), std::invalid_argument);
}

TEST(Csr, FromSelectionsMatchesFromEdges) {
  // Directed selection lists with self entries and duplicate targets; the
  // union must equal the normalized from_edges graph.
  const std::size_t n = 40;
  Rng rng(7);
  FlatAdjacency sel;
  sel.offsets.assign(n + 1, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::size_t deg = rng.uniform_index(6);
    for (std::size_t d = 0; d < deg; ++d) {
      const auto v = static_cast<std::uint32_t>(rng.uniform_index(n));  // may be u
      sel.neighbors.push_back(v);
      pairs.emplace_back(u, v);
    }
    sel.offsets[u + 1] = static_cast<std::uint32_t>(sel.neighbors.size());
  }
  // Duplicate an existing selection outright.
  if (!sel.neighbors.empty()) {
    const std::uint32_t u = 0;
    if (sel.degree(u) > 0) {
      pairs.emplace_back(u, sel[u][0]);
    }
  }
  const CsrGraph g = CsrGraph::from_selections(std::move(sel));
  const CsrGraph reference = CsrGraph::from_edges(n, std::move(pairs));
  EXPECT_EQ(g.edge_list(), reference.edge_list());
}

TEST(Csr, FromSelectionsOutOfRangeThrows) {
  FlatAdjacency sel;
  sel.offsets = {0, 1, 1};
  sel.neighbors = {5};
  EXPECT_THROW((void)CsrGraph::from_selections(std::move(sel)), std::out_of_range);
}

TEST(Csr, FromSelectionsMismatchThrows) {
  FlatAdjacency sel;
  sel.offsets = {0, 2, 2};  // claims two entries, provides one
  sel.neighbors = {1};
  EXPECT_THROW((void)CsrGraph::from_selections(std::move(sel)), std::invalid_argument);
}

TEST(Csr, HasEdgeScansEitherEndpoint) {
  // Star: hub 0 with high degree vs leaves with degree 1 — both lookup
  // directions must agree whichever endpoint is cheaper to scan.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 1; v < 30; ++v) edges.emplace_back(0, v);
  edges.emplace_back(7, 9);
  const CsrGraph g = CsrGraph::from_edges(30, std::move(edges));
  EXPECT_TRUE(g.has_edge(0, 17));
  EXPECT_TRUE(g.has_edge(17, 0));
  EXPECT_TRUE(g.has_edge(7, 9));
  EXPECT_TRUE(g.has_edge(9, 7));
  EXPECT_FALSE(g.has_edge(7, 8));
  EXPECT_FALSE(g.has_edge(8, 7));
}

TEST(Csr, ArcViewConsistent) {
  const CsrGraph g = CsrGraph::from_edges(5, {{0, 1}, {0, 3}, {1, 3}, {2, 4}});
  EXPECT_EQ(g.num_arcs(), 8u);
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    EXPECT_EQ(g.arc_end(u) - g.arc_begin(u), nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::size_t arc = g.arc_begin(u) + i;
      EXPECT_EQ(g.arc_target(arc), nbrs[i]);
      EXPECT_EQ(g.arc_index(u, nbrs[i]), arc);
    }
  }
}

TEST(Dijkstra, ArcWeightsMatchFunctorPath) {
  // The per-arc weight array and the functor must produce bitwise-equal
  // costs (DESIGN.md §2.4) — the arc array holds the same doubles and the
  // relaxations add the same operands.
  const std::size_t n = 60;
  const CsrGraph g = CsrGraph::from_edges(n, random_edges(n, 150, 31));
  auto weight = [](std::uint32_t u, std::uint32_t v) {
    return 1.0 + 0.25 * static_cast<double>((u * 31 + v * 17) % 13);
  };
  const std::vector<double> arcs = g.arc_weights(weight);
  ASSERT_EQ(arcs.size(), g.num_arcs());
  for (std::uint32_t s = 0; s < n; s += 7) {
    const auto by_fn = dijkstra_costs(g, s, weight);
    const auto by_arcs = fresh_costs(g, s, arcs);
    ASSERT_EQ(by_fn.size(), by_arcs.size());
    EXPECT_EQ(0, std::memcmp(by_fn.data(), by_arcs.data(), by_fn.size() * sizeof(double)));
  }
}

TEST(Dijkstra, ScratchReuseAcrossSourcesOnDisconnectedGraph) {
  // Two components; consecutive sources from different components through
  // one scratch must match fresh runs (the epoch bump must fully
  // invalidate the previous source's state).
  const CsrGraph g = CsrGraph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}});
  const std::vector<double> w(g.num_arcs(), 1.0);
  DijkstraScratch scratch;
  std::vector<double> out(g.num_vertices());
  for (const std::uint32_t s : {0u, 3u, 6u, 0u}) {
    dijkstra_costs_into(g, s, w, scratch, out);
    const auto fresh = fresh_costs(g, s, w);
    for (std::size_t v = 0; v < fresh.size(); ++v) EXPECT_EQ(out[v], fresh[v]);
  }
  // Early-exit and path queries share the same scratch.
  EXPECT_EQ(dijkstra_cost(g, 0, 5, w, scratch), kInfCost);
  EXPECT_DOUBLE_EQ(dijkstra_cost(g, 3, 6, w, scratch), 3.0);
  std::vector<std::uint32_t> path;
  EXPECT_FALSE(dijkstra_path_into(g, 6, 1, w, scratch, path));
  EXPECT_TRUE(path.empty());
  EXPECT_TRUE(dijkstra_path_into(g, 3, 6, w, scratch, path));
  EXPECT_EQ(path, (std::vector<std::uint32_t>{3, 4, 5, 6}));
}

TEST(Dijkstra, ManyMatchesSerialAndBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 200;
  const CsrGraph g = CsrGraph::from_edges(n, random_edges(n, 600, 41));
  const std::vector<double> w = g.arc_weights([](std::uint32_t u, std::uint32_t v) {
    return 0.5 + static_cast<double>((u ^ v) % 7);
  });
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < n; s += 11) sources.push_back(s);

  std::vector<double> serial;
  serial.reserve(sources.size() * n);
  for (const std::uint32_t s : sources) {
    const auto row = fresh_costs(g, s, w);
    serial.insert(serial.end(), row.begin(), row.end());
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    const std::vector<double> batched = dijkstra_many(g, sources, w);
    ASSERT_EQ(batched.size(), serial.size());
    EXPECT_EQ(0, std::memcmp(batched.data(), serial.data(), serial.size() * sizeof(double)));
  }
  set_thread_count(0);
}

TEST(Bfs, ScratchReuseAcrossSourcesOnDisconnectedGraph) {
  const CsrGraph g = CsrGraph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  BfsScratch scratch;
  std::vector<std::uint32_t> out(g.num_vertices());
  for (const std::uint32_t s : {0u, 3u, 5u, 2u}) {
    bfs_distances_into(g, s, scratch, out);
    const auto fresh = bfs_distances(g, s);
    EXPECT_EQ(out, fresh);
  }
  EXPECT_EQ(bfs_distance(g, 0, 4, scratch), kUnreachable);
  EXPECT_EQ(bfs_distance(g, 3, 4, scratch), 1u);
  std::vector<std::uint32_t> path;
  EXPECT_TRUE(bfs_path_into(g, 0, 2, scratch, path));
  EXPECT_EQ(path, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_FALSE(bfs_path_into(g, 2, 3, scratch, path));
  EXPECT_TRUE(path.empty());
}

TEST(Bfs, ManyMatchesSerialAndBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 150;
  const CsrGraph g = CsrGraph::from_edges(n, random_edges(n, 350, 47));
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < n; s += 13) sources.push_back(s);

  std::vector<std::uint32_t> serial;
  serial.reserve(sources.size() * n);
  for (const std::uint32_t s : sources) {
    const auto row = bfs_distances(g, s);
    serial.insert(serial.end(), row.begin(), row.end());
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    const std::vector<std::uint32_t> batched = bfs_many(g, sources);
    ASSERT_EQ(batched.size(), serial.size());
    EXPECT_EQ(batched, serial);
  }
  set_thread_count(0);
}

TEST(Components, LabelsAndLargest) {
  const CsrGraph g = CsrGraph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}, {4, 5}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.largest_size(), 4u);  // {3,4,5,6}
  EXPECT_TRUE(c.in_largest(3));
  EXPECT_FALSE(c.in_largest(0));
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[3]);
  EXPECT_EQ(c.largest_members(), (std::vector<std::uint32_t>{3, 4, 5, 6}));
}

TEST(Components, SingletonsCount) {
  const CsrGraph g = CsrGraph::from_edges(3, {});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count(), 3u);
  EXPECT_EQ(c.largest_size(), 1u);
}

TEST(UnionFindTest, BasicInvariants) {
  UnionFind uf(10);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  EXPECT_EQ(uf.set_size(1), 3u);
  EXPECT_EQ(uf.set_size(9), 1u);
}

// The precomputed reverse-arc permutation (the spanner filters' flat
// mirror lookup): on a pinned-seed random graph, through both the Builder
// and the selection construction paths, every arc round-trips.
TEST(Csr, ReverseArcRoundTripOnPinnedSeed) {
  const std::size_t n = 300;
  const CsrGraph g = CsrGraph::from_edges(n, random_edges(n, 1200, 0x5EB5));
  ASSERT_GT(g.num_edges(), 0u);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t a = g.arc_begin(u); a < g.arc_end(u); ++a) {
      const std::uint32_t v = g.arc_target(a);
      const std::uint32_t rev = g.reverse_arc(a);
      EXPECT_EQ(rev, g.arc_index(v, u));        // the binary search it replaces
      EXPECT_EQ(g.arc_target(rev), u);          // reverse arc points back
      EXPECT_EQ(g.reverse_arc(rev), a);         // involution
    }
  }
  // The selection path funnels through from_symmetric_adjacency; its
  // permutation must satisfy the same contract.
  FlatAdjacency sel;
  sel.offsets = {0, 2, 3, 4, 4};
  sel.neighbors = {1, 2, 3, 0};
  const CsrGraph s = CsrGraph::from_selections(std::move(sel));
  for (std::uint32_t u = 0; u < s.num_vertices(); ++u) {
    for (std::uint32_t a = s.arc_begin(u); a < s.arc_end(u); ++a) {
      EXPECT_EQ(s.reverse_arc(a), s.arc_index(s.arc_target(a), u));
      EXPECT_EQ(s.reverse_arc(s.reverse_arc(a)), a);
    }
  }
}

TEST(UnionFindTest, AgreesWithComponents) {
  Rng rng(5);
  const std::size_t n = 200;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int e = 0; e < 150; ++e)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<std::uint32_t>(rng.uniform_index(n)));
  UnionFind uf(n);
  for (const auto& [u, v] : edges)
    if (u != v) uf.unite(u, v);
  const CsrGraph g = CsrGraph::from_edges(n, std::move(edges));
  const Components c = connected_components(g);
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; b += 17)
      EXPECT_EQ(uf.connected(a, b), c.label[a] == c.label[b]);
}

}  // namespace
}  // namespace sens
