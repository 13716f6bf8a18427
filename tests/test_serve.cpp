// Tests for sens/serve: the landmark distance oracle, the batched
// QueryEngine (exact, estimated and verdict serving), and the §2.6 serving
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
  DijkstraScratch scratch;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got[i], dijkstra_cost(tg.graph, qs[i].src, qs[i].dst, tg.weights, scratch))
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

// --- verdict serving on the static engine ---

/// The verdict relations of one served batch: stats count paths (bracket,
/// Dijkstra, stale) while verdicts are per answer.
void expect_verdict_relations(const ServeStats& stats, std::span<const double> out,
                              std::span<const Verdict> verdicts) {
  auto count = [&](Verdict v) {
    return static_cast<std::size_t>(std::count(verdicts.begin(), verdicts.end(), v));
  };
  EXPECT_EQ(stats.queries, verdicts.size());
  EXPECT_EQ(stats.certified + stats.exact + stats.stale, stats.queries);
  EXPECT_EQ(stats.stale, count(Verdict::kStale));
  EXPECT_EQ(stats.disconnected, count(Verdict::kDisconnected));
  EXPECT_LE(count(Verdict::kCertified), stats.certified);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool infinite = verdicts[i] == Verdict::kStale || verdicts[i] == Verdict::kDisconnected;
    EXPECT_EQ(out[i] >= kInfCost, infinite) << "query " << i;
  }
}

TEST(ServeVerdicts, StaticServeMatchesEstimateBitExact) {
  const TestGraph tg = make_graph(200, 120, 83, 8);
  const QueryEngine engine(tg.graph, tg.weights,
                           {.num_landmarks = 10, .max_stretch = 1.2, .seed = 83});
  auto qs = make_queries(300, tg.graph.num_vertices(), 83);
  qs.push_back({.src = 7, .dst = 7});  // exact bracket: counted certified, verdict kExact
  std::vector<double> est(qs.size());
  const ServeStats est_stats = engine.estimate_distances(qs, est);
  std::vector<double> out(qs.size());
  std::vector<Verdict> verdicts(qs.size());
  const ServeStats stats = engine.serve(qs, out, verdicts);
  EXPECT_EQ(0, std::memcmp(est.data(), out.data(), qs.size() * sizeof(double)));
  EXPECT_EQ(stats.certified, est_stats.certified);
  EXPECT_EQ(stats.exact, est_stats.exact);
  EXPECT_EQ(stats.disconnected, est_stats.disconnected);
  EXPECT_EQ(stats.stale, 0u);
  EXPECT_GT(stats.disconnected, 0u) << "the island never met the giant";
  EXPECT_EQ(out.back(), 0.0);
  EXPECT_EQ(verdicts.back(), Verdict::kExact);
  expect_verdict_relations(stats, out, verdicts);
}

TEST(ServeVerdicts, OutOfRangeIdsAreStaleNotThrown) {
  const TestGraph tg = make_graph(60, 30, 89);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 6, .seed = 89});
  const auto n = static_cast<std::uint32_t>(tg.graph.num_vertices());
  std::vector<Query> qs = make_queries(40, n + 4, 89);  // a few ids past the graph
  qs.push_back({.src = n, .dst = n});
  std::vector<double> out(qs.size());
  std::vector<Verdict> verdicts(qs.size());
  ServeStats stats;
  ASSERT_NO_THROW(stats = engine.serve(qs, out, verdicts));
  EXPECT_GT(stats.stale, 1u);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const bool outside = qs[i].src >= n || qs[i].dst >= n;
    EXPECT_EQ(verdicts[i] == Verdict::kStale, outside) << "query " << i;
  }
  expect_verdict_relations(stats, out, verdicts);
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

// A weight array the oracle sweep and every Dijkstra would misread is
// rejected by both constructors before any oracle work.
void expect_weights_rejected(const CsrGraph& g, const std::vector<double>& w) {
  EXPECT_THROW(QueryEngine(g, w, {.num_landmarks = 4}), std::invalid_argument);
  EXPECT_THROW(QueryEngine(g, w, std::vector<std::uint32_t>{0, 1}, 1.1), std::invalid_argument);
}

TEST(ServeValidation, RejectsMisSizedArcWeights) {
  const TestGraph tg = make_graph(40, 20, 67);
  std::vector<double> w = tg.weights;
  w.pop_back();
  expect_weights_rejected(tg.graph, w);
  w.push_back(1.0);
  w.push_back(1.0);
  expect_weights_rejected(tg.graph, w);
}

TEST(ServeValidation, RejectsNegativeArcWeight) {
  const TestGraph tg = make_graph(40, 20, 71);
  std::vector<double> w = tg.weights;
  w[w.size() / 2] = -0.5;
  expect_weights_rejected(tg.graph, w);
}

TEST(ServeValidation, RejectsNanArcWeight) {
  const TestGraph tg = make_graph(40, 20, 79);
  std::vector<double> w = tg.weights;
  w.back() = std::nan("");
  expect_weights_rejected(tg.graph, w);
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
  const ServeStats stats = engine.serve(qs, out, verdicts);
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
