// Tests for sens/serve: the landmark distance oracle, the batched
// QueryEngine (exact, estimated and route serving), and the §2.6 serving
// contract — one shared engine, many concurrent callers, bit-identical
// answers. The ServeConcurrency suite is the TSan-backed `concurrency`
// ctest tier together with ParallelReentrancy in test_support.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/epoch_engine.hpp"
#include "sens/serve/landmark_oracle.hpp"
#include "sens/serve/query_engine.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

/// Deterministic symmetric weight for edge {u, v} — irregular enough that
/// shortest paths are not hop counts.
double edge_weight(std::uint32_t u, std::uint32_t v) {
  const std::uint32_t lo = std::min(u, v);
  const std::uint32_t hi = std::max(u, v);
  return 1.0 + static_cast<double>((lo * 2654435761u + hi * 40503u) % 97) / 97.0;
}

struct TestGraph {
  CsrGraph graph;
  std::vector<double> weights;
};

/// Random sparse graph: a Hamiltonian-ish backbone keeping one big
/// component plus random chords, and `island` extra vertices forming a
/// separate small component (adversarial disconnected pairs).
TestGraph make_graph(std::size_t n, std::size_t chords, std::uint64_t seed,
                     std::size_t island = 0) {
  Rng rng = Rng::stream(seed, 0x57a9, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  for (std::size_t c = 0; c < chords; ++c)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<std::uint32_t>(rng.uniform_index(n)));
  const std::size_t total = n + island;
  for (std::uint32_t i = static_cast<std::uint32_t>(n); i + 1 < total; ++i)
    edges.emplace_back(i, i + 1);
  TestGraph tg;
  tg.graph = CsrGraph::from_edges(total, std::move(edges));
  tg.weights = tg.graph.arc_weights(edge_weight);
  return tg;
}

/// Deterministic query batch over [0, n) vertex ids.
std::vector<Query> make_queries(std::size_t count, std::size_t n, std::uint64_t seed) {
  Rng rng = Rng::stream(seed, 0x57a9, 1);
  std::vector<Query> qs(count);
  for (auto& q : qs) {
    q.src = static_cast<std::uint32_t>(rng.uniform_index(n));
    q.dst = static_cast<std::uint32_t>(rng.uniform_index(n));
  }
  return qs;
}

TEST(ServeSmoke, ExactMatchesDijkstra) {
  const TestGraph tg = make_graph(120, 60, 7);
  const QueryEngine engine(tg.graph, tg.weights);
  const auto qs = make_queries(50, tg.graph.num_vertices(), 7);
  std::vector<double> got(qs.size());
  engine.exact_distances(qs, got);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got[i], dijkstra_cost(tg.graph, qs[i].src, qs[i].dst, tg.weights))
        << "query " << i;
  }
}

TEST(ServeOracle, BoundsBracketExactDistance) {
  const TestGraph tg = make_graph(90, 45, 11);
  const LandmarkOracle oracle =
      LandmarkOracle::build(tg.graph, tg.weights, {.num_landmarks = 8, .seed = 11});
  DijkstraScratch scratch;
  const std::size_t n = tg.graph.num_vertices();
  for (std::uint32_t s = 0; s < n; s += 7) {
    for (std::uint32_t t = 0; t < n; t += 5) {
      const double exact = dijkstra_cost(tg.graph, s, t, tg.weights, scratch);
      const LandmarkOracle::Bounds b = oracle.bounds(s, t);
      // FP tolerance: the label sums/differences and the Dijkstra
      // accumulation round differently.
      const double eps = 1e-9 * (1.0 + std::abs(exact));
      EXPECT_LE(b.lower, exact + eps) << s << "->" << t;
      if (exact < kInfCost) {
        EXPECT_GE(b.upper + eps, exact) << s << "->" << t;
      }
    }
  }
}

TEST(ServeOracle, LandmarksClampedAndDistinct) {
  const TestGraph tg = make_graph(20, 10, 3);
  // k >= n: every vertex becomes a landmark, exactly once.
  const LandmarkOracle oracle =
      LandmarkOracle::build(tg.graph, tg.weights, {.num_landmarks = 500, .seed = 3});
  EXPECT_EQ(oracle.num_landmarks(), tg.graph.num_vertices());
  std::vector<std::uint32_t> ids(oracle.landmarks().begin(), oracle.landmarks().end());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  // With every vertex a landmark, the bracket collapses to the exact
  // distance for every pair (landmark == s gives |0 - d| = d both ways).
  DijkstraScratch scratch;
  for (std::uint32_t s = 0; s < 20; s += 3) {
    for (std::uint32_t t = 0; t < 20; t += 4) {
      const double exact = dijkstra_cost(tg.graph, s, t, tg.weights, scratch);
      const LandmarkOracle::Bounds b = oracle.bounds(s, t);
      const double eps = 1e-9 * (1.0 + std::abs(exact));
      EXPECT_NEAR(b.lower, exact, eps);
      EXPECT_NEAR(b.upper, exact, eps);
    }
  }
}

TEST(ServeOracle, FarthestPointPicksAreDistinctAndDeterministic) {
  const TestGraph tg = make_graph(160, 80, 11);
  const LandmarkOracleParams params{.num_landmarks = 12,
                                    .seed = 11,
                                    .selection = LandmarkSelection::kFarthestPoint};
  const LandmarkOracle a = LandmarkOracle::build(tg.graph, tg.weights, params);
  const LandmarkOracle b = LandmarkOracle::build(tg.graph, tg.weights, params);
  ASSERT_EQ(a.num_landmarks(), 12u);
  EXPECT_TRUE(std::equal(a.landmarks().begin(), a.landmarks().end(), b.landmarks().begin()));
  std::vector<std::uint32_t> ids(a.landmarks().begin(), a.landmarks().end());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  // The max-min pick is thread-count-invariant (it is serial by design).
  set_thread_count(1);
  const LandmarkOracle serial = LandmarkOracle::build(tg.graph, tg.weights, params);
  set_thread_count(8);
  const LandmarkOracle wide = LandmarkOracle::build(tg.graph, tg.weights, params);
  set_thread_count(0);
  EXPECT_TRUE(
      std::equal(serial.landmarks().begin(), serial.landmarks().end(), wide.landmarks().begin()));
}

TEST(ServeOracle, FarthestPointCoversEveryComponentFirst) {
  // 50-vertex backbone plus a 6-vertex island: unreached counts as
  // infinitely far, so the island must receive a pivot by the second pick.
  const TestGraph tg = make_graph(50, 20, 13, /*island=*/6);
  const LandmarkOracle oracle = LandmarkOracle::build(
      tg.graph, tg.weights,
      {.num_landmarks = 2, .seed = 13, .selection = LandmarkSelection::kFarthestPoint});
  ASSERT_EQ(oracle.num_landmarks(), 2u);
  const auto lm = oracle.landmarks();
  const bool first_in_island = lm[0] >= 50;
  const bool second_in_island = lm[1] >= 50;
  EXPECT_NE(first_in_island, second_in_island)
      << "one pivot per component before any component gets two";
}

TEST(ServeOracle, FarthestPointCertificationIsSound) {
  // Spread pivots keep the bracket useful (a healthy certified share on
  // the E17-style workload — which pivot set certifies *more* is workload-
  // and seed-dependent, so no cross-policy comparison here) and, above
  // all, sound: a certified answer never undershoots the exact distance
  // and never overshoots the stretch budget.
  const TestGraph tg = make_graph(400, 240, 21);
  const auto qs = make_queries(300, 400, 21);
  std::vector<double> est(qs.size());
  const QueryEngine farthest(tg.graph, tg.weights,
                             {.num_landmarks = 16,
                              .max_stretch = 1.2,
                              .seed = 21,
                              .selection = LandmarkSelection::kFarthestPoint});
  const ServeStats sf = farthest.estimate_distances(qs, est);
  EXPECT_GT(sf.certified, qs.size() / 20) << "the fast path barely fires";
  std::vector<double> exact(qs.size());
  farthest.exact_distances(qs, exact);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_GE(est[i], exact[i] - 1e-9);
    if (est[i] < kInfCost) {
      EXPECT_LE(est[i], 1.2 * exact[i] + 1e-9);
    }
  }
}

TEST(ServeOracle, ZeroLandmarksNeverCertifiesConnectedPairs) {
  const TestGraph tg = make_graph(30, 15, 5);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 0});
  EXPECT_EQ(engine.oracle().num_landmarks(), 0u);
  const auto qs = make_queries(20, 30, 5);
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  // Everything except s == t must fall back to exact Dijkstra.
  std::vector<double> exact(qs.size());
  engine.exact_distances(qs, exact);
  for (std::size_t i = 0; i < qs.size(); ++i) EXPECT_EQ(est[i], exact[i]);
  std::size_t self = 0;
  for (const Query& q : qs) self += q.src == q.dst ? 1 : 0;
  EXPECT_EQ(stats.certified, self);
  EXPECT_EQ(stats.exact, qs.size() - self);
}

TEST(ServeEstimate, CertifiedWithinStretchAndStatsAddUp) {
  const TestGraph tg = make_graph(200, 120, 17);
  const QueryEngineParams params{.num_landmarks = 12, .max_stretch = 1.2, .seed = 17};
  const QueryEngine engine(tg.graph, tg.weights, params);
  const auto qs = make_queries(300, tg.graph.num_vertices(), 17);
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  EXPECT_EQ(stats.queries, qs.size());
  EXPECT_EQ(stats.certified + stats.exact, stats.queries);
  std::vector<double> exact(qs.size());
  engine.exact_distances(qs, exact);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    // Every answer is exact or a certified overestimate within the budget.
    EXPECT_GE(est[i] + 1e-9 * (1.0 + std::abs(exact[i])), exact[i]) << "query " << i;
    if (exact[i] > 0.0 && exact[i] < kInfCost) {
      EXPECT_LE(est[i], params.max_stretch * exact[i] * (1.0 + 1e-12)) << "query " << i;
    } else {
      EXPECT_EQ(est[i], exact[i]) << "query " << i;  // 0 and inf answered exactly
    }
  }
}

TEST(ServeEstimate, SelfAndDuplicateQueries) {
  const TestGraph tg = make_graph(60, 30, 23);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 6, .seed = 23});
  // Duplicates (including self queries) must produce bit-identical slots.
  const std::vector<Query> qs = {{5, 40}, {5, 40}, {12, 12}, {5, 40}, {12, 12}, {0, 59}, {0, 59}};
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  EXPECT_EQ(stats.queries, qs.size());
  EXPECT_EQ(est[0], est[1]);
  EXPECT_EQ(est[1], est[3]);
  EXPECT_EQ(est[2], 0.0);
  EXPECT_EQ(est[4], 0.0);
  EXPECT_EQ(est[5], est[6]);
}

TEST(ServeEstimate, DisconnectedPairsCertifiedInfinite) {
  // 80-vertex giant + 8-vertex island: cross-component queries must come
  // back infinite, and (with at least one landmark in either component)
  // certified without a fallback Dijkstra.
  const TestGraph tg = make_graph(80, 40, 29, 8);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 88, .seed = 29});
  const std::vector<Query> qs = {{0, 85}, {85, 0}, {79, 80}, {82, 3}};
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  for (std::size_t i = 0; i < qs.size(); ++i) EXPECT_EQ(est[i], kInfCost) << "query " << i;
  EXPECT_EQ(stats.certified, qs.size());
  EXPECT_EQ(stats.exact, 0u);
}

TEST(ServeRoutes, PathsValidAndCostMatchesDistance) {
  const TestGraph tg = make_graph(150, 80, 31, 6);
  const QueryEngine engine(tg.graph, tg.weights);
  auto qs = make_queries(60, tg.graph.num_vertices(), 31);
  qs.push_back({10, 10});     // self: single-vertex path
  qs.push_back({0, 152});     // disconnected: empty path
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> nodes;
  engine.routes(qs, offsets, nodes);
  ASSERT_EQ(offsets.size(), qs.size() + 1);
  EXPECT_EQ(offsets.back(), nodes.size());
  std::vector<double> exact(qs.size());
  engine.exact_distances(qs, exact);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto path = std::span<const std::uint32_t>(nodes).subspan(
        offsets[i], offsets[i + 1] - offsets[i]);
    if (exact[i] >= kInfCost) {
      EXPECT_TRUE(path.empty()) << "query " << i;
      continue;
    }
    ASSERT_FALSE(path.empty()) << "query " << i;
    EXPECT_EQ(path.front(), qs[i].src);
    EXPECT_EQ(path.back(), qs[i].dst);
    double cost = 0.0;
    for (std::size_t j = 1; j < path.size(); ++j) {
      ASSERT_TRUE(tg.graph.has_edge(path[j - 1], path[j])) << "query " << i;
      cost += edge_weight(path[j - 1], path[j]);
    }
    // Same additions in the same order as the Dijkstra relaxation chain.
    EXPECT_EQ(cost, exact[i]) << "query " << i;
  }
}

TEST(ServeHops, MatchesBfs) {
  const TestGraph tg = make_graph(100, 50, 37, 5);
  const QueryEngine engine(tg.graph, tg.weights);
  const auto qs = make_queries(80, tg.graph.num_vertices(), 37);
  std::vector<std::uint32_t> hops(qs.size());
  engine.hop_distances(qs, hops);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(hops[i], bfs_distance(tg.graph, qs[i].src, qs[i].dst)) << "query " << i;
  }
}

TEST(ServeSingleQuery, MatchesBatchBitExact) {
  const TestGraph tg = make_graph(120, 70, 41);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 10, .seed = 41});
  const auto qs = make_queries(100, tg.graph.num_vertices(), 41);
  std::vector<double> batch(qs.size());
  const ServeStats batch_stats = engine.estimate_distances(qs, batch);
  RouteScratch scratch;
  ServeStats single_stats;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(engine.estimate_distance(qs[i], scratch, single_stats), batch[i]) << "query " << i;
  }
  EXPECT_EQ(single_stats.queries, batch_stats.queries);
  EXPECT_EQ(single_stats.certified, batch_stats.certified);
  EXPECT_EQ(single_stats.exact, batch_stats.exact);
}

// --- entry validation: every batched form rejects a bad batch before any
// work, leaving caller buffers untouched ---

/// A valid batch over `n` vertices with one out-of-range id appended.
std::vector<Query> batch_with_bad_id(std::size_t n) {
  std::vector<Query> qs = make_queries(20, n, 59);
  qs.push_back({.src = 0, .dst = static_cast<std::uint32_t>(n)});
  return qs;
}

TEST(ServeValidation, ExactDistancesRejectsBadBatch) {
  const TestGraph tg = make_graph(40, 20, 59);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4});
  const auto bad = batch_with_bad_id(tg.graph.num_vertices());
  std::vector<double> out(bad.size(), -1.0);
  EXPECT_THROW(engine.exact_distances(bad, out), std::out_of_range);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](double d) { return d == -1.0; }));
  const auto good = make_queries(10, tg.graph.num_vertices(), 59);
  std::vector<double> short_out(good.size() - 1);
  EXPECT_THROW(engine.exact_distances(good, short_out), std::invalid_argument);
}

TEST(ServeValidation, EstimateDistancesRejectsBadBatch) {
  const TestGraph tg = make_graph(40, 20, 61);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4});
  const auto bad = batch_with_bad_id(tg.graph.num_vertices());
  std::vector<double> out(bad.size(), -1.0);
  EXPECT_THROW((void)engine.estimate_distances(bad, out), std::out_of_range);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](double d) { return d == -1.0; }));
  const auto good = make_queries(10, tg.graph.num_vertices(), 61);
  std::vector<double> long_out(good.size() + 1);
  EXPECT_THROW((void)engine.estimate_distances(good, long_out), std::invalid_argument);
}

TEST(ServeValidation, HopDistancesRejectsBadBatch) {
  const TestGraph tg = make_graph(40, 20, 67);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4});
  const auto bad = batch_with_bad_id(tg.graph.num_vertices());
  std::vector<std::uint32_t> out(bad.size(), 7u);
  EXPECT_THROW(engine.hop_distances(bad, out), std::out_of_range);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](std::uint32_t h) { return h == 7u; }));
  const auto good = make_queries(10, tg.graph.num_vertices(), 67);
  std::vector<std::uint32_t> short_out(good.size() - 1);
  EXPECT_THROW(engine.hop_distances(good, short_out), std::invalid_argument);
}

TEST(ServeValidation, RoutesRejectsOutOfRangeIds) {
  const TestGraph tg = make_graph(40, 20, 71);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4});
  const auto bad = batch_with_bad_id(tg.graph.num_vertices());
  std::vector<std::uint32_t> offsets{42};
  std::vector<std::uint32_t> nodes{42};
  EXPECT_THROW(engine.routes(bad, offsets, nodes), std::out_of_range);
  EXPECT_EQ(offsets, std::vector<std::uint32_t>{42});
  EXPECT_EQ(nodes, std::vector<std::uint32_t>{42});
}

// The epoch engine answers an out-of-epoch id as kStale by design; only a
// mis-sized output span is an error.
TEST(ServeValidation, EpochServeRejectsMisSizedSpans) {
  const DynamicHng dyn(poisson_point_set(Box{{0.0, 0.0}, {6.0, 6.0}}, 2.0, 73).points,
                       {.promote_p = 0.25, .k = 3}, 73);
  const EpochQueryEngine engine(dyn, {.num_landmarks = 4});
  const auto qs = batch_with_bad_id(dyn.size());
  std::vector<double> out(qs.size());
  std::vector<Verdict> verdicts(qs.size());
  std::vector<double> short_out(qs.size() - 1);
  std::vector<Verdict> short_verdicts(qs.size() - 1);
  EXPECT_THROW((void)engine.serve(qs, short_out, verdicts), std::invalid_argument);
  EXPECT_THROW((void)engine.serve(qs, out, short_verdicts), std::invalid_argument);
  const EpochServeStats stats = engine.serve(qs, out, verdicts);
  EXPECT_EQ(stats.stale, 1u);
  EXPECT_EQ(verdicts.back(), Verdict::kStale);
}

// --- the §2.6 serving contract under real concurrency (TSan tier) ---

TEST(ServeConcurrency, ConcurrentCallersMatchSingleThreadBitExact) {
  const TestGraph tg = make_graph(400, 250, 43, 10);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 12, .seed = 43});
  const auto qs = make_queries(2000, tg.graph.num_vertices(), 43);

  // Reference: one caller, serial worker pool.
  set_thread_count(1);
  std::vector<double> ref_exact(qs.size());
  std::vector<double> ref_est(qs.size());
  engine.exact_distances(qs, ref_exact);
  const ServeStats ref_stats = engine.estimate_distances(qs, ref_est);

  // 4 caller threads share the engine, each slicing a disjoint quarter of
  // the batch, with the pool's helpers active underneath (reentrant runs).
  set_thread_count(4);
  constexpr std::size_t kCallers = 4;
  std::vector<double> got_exact(qs.size());
  std::vector<double> got_est(qs.size());
  std::vector<ServeStats> got_stats(kCallers);
  {
    std::vector<std::thread> callers;
    const std::size_t slice = qs.size() / kCallers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        const std::size_t begin = c * slice;
        const std::size_t count = c + 1 == kCallers ? qs.size() - begin : slice;
        const auto sub = std::span<const Query>(qs).subspan(begin, count);
        engine.exact_distances(sub, std::span<double>(got_exact).subspan(begin, count));
        got_stats[c] =
            engine.estimate_distances(sub, std::span<double>(got_est).subspan(begin, count));
      });
    }
    for (auto& t : callers) t.join();
  }
  set_thread_count(0);

  EXPECT_EQ(0, std::memcmp(ref_exact.data(), got_exact.data(), qs.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(ref_est.data(), got_est.data(), qs.size() * sizeof(double)));
  ServeStats total;
  for (const ServeStats& s : got_stats) total += s;
  EXPECT_EQ(total.queries, ref_stats.queries);
  EXPECT_EQ(total.certified, ref_stats.certified);
  EXPECT_EQ(total.exact, ref_stats.exact);
}

TEST(ServeConcurrency, ConcurrentRouteServingBitExact) {
  const TestGraph tg = make_graph(300, 160, 47, 7);
  const QueryEngine engine(tg.graph, tg.weights);
  const auto qs = make_queries(400, tg.graph.num_vertices(), 47);

  set_thread_count(1);
  std::vector<std::uint32_t> ref_offsets;
  std::vector<std::uint32_t> ref_nodes;
  engine.routes(qs, ref_offsets, ref_nodes);

  // Every caller runs the identical whole batch into its own buffers.
  set_thread_count(4);
  constexpr std::size_t kCallers = 3;
  std::vector<std::vector<std::uint32_t>> offsets(kCallers);
  std::vector<std::vector<std::uint32_t>> nodes(kCallers);
  {
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] { engine.routes(qs, offsets[c], nodes[c]); });
    }
    for (auto& t : callers) t.join();
  }
  set_thread_count(0);
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(offsets[c], ref_offsets) << "caller " << c;
    EXPECT_EQ(nodes[c], ref_nodes) << "caller " << c;
  }
}

TEST(ServeConcurrency, SharedSensRouterBatchMatchesSequential) {
  // A real overlay: the immutable SensRouter is shared by route_batch
  // (leased scratches) and compared with one-at-a-time caller-scratch runs.
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 10, 10, 51);
  const SensRouter router(r.overlay);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 2u);
  Rng pick = Rng::stream(51, 0x5e12e);
  std::vector<std::pair<Site, Site>> pairs(64);
  for (auto& p : pairs) {
    p.first = reps[pick.uniform_index(reps.size())];
    p.second = reps[pick.uniform_index(reps.size())];
  }

  SensRouteScratch scratch;
  std::vector<SensRoute> expected;
  expected.reserve(pairs.size());
  for (const auto& [a, b] : pairs) expected.push_back(router.route(a, b, scratch));

  set_thread_count(4);
  constexpr std::size_t kCallers = 3;
  std::vector<std::vector<SensRoute>> got(kCallers);
  {
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] { got[c] = route_batch(router, pairs); });
    }
    for (auto& t : callers) t.join();
  }
  set_thread_count(0);
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[c][i].success, expected[i].success) << c << "/" << i;
      EXPECT_EQ(got[c][i].node_path, expected[i].node_path) << c << "/" << i;
      EXPECT_EQ(got[c][i].probes, expected[i].probes) << c << "/" << i;
      EXPECT_EQ(got[c][i].euclid_length, expected[i].euclid_length) << c << "/" << i;
      EXPECT_EQ(got[c][i].power2, expected[i].power2) << c << "/" << i;
    }
  }
}

}  // namespace
}  // namespace sens
