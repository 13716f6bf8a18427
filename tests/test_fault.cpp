// Tests for sens/fault and the epoch serving path (DESIGN.md §2.9): pure
// per-entity fault draws, the full-rebuild oracle over survivors, replay
// bit-identity across thread counts, the degradation audit, and the
// EpochQueryEngine's zero-uncertified-wrong verdict contract under churn.
// The FaultInjector / FaultOracle / FaultThreads / Degradation /
// EpochEngine suites are the `fault` ctest tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/fault/degradation.hpp"
#include "sens/fault/fault_plan.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/components.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/epoch_engine.hpp"
#include "sens/serve/query_engine.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

constexpr std::uint64_t kSeed = 0xfa177e57ULL;

/// Shared workload: a Poisson UDG dense enough to be connected.
GeoGraph make_udg(double side = 14.0, double lambda = 4.0, std::uint64_t seed = kSeed) {
  const Box window{{0.0, 0.0}, {side, side}};
  const PointSet ps = poisson_point_set(window, lambda, seed);
  return build_udg(ps.points, window, 1.0);
}

/// The full-rebuild oracle: filter the original edge list down to the
/// survivors minus the failed links, relabel with the injector's monotone
/// survivor map, rebuild from scratch.
CsrGraph rebuild_over_survivors(const GeoGraph& geo, const FaultInjector& inj,
                                const FaultedGraph& faulted) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const auto& [u, v] : geo.graph.edge_list()) {
    if (faulted.new_id[u] == FaultedGraph::kDead) continue;
    if (faulted.new_id[v] == FaultedGraph::kDead) continue;
    if (inj.link_fails(u, v)) continue;
    edges.emplace_back(faulted.new_id[u], faulted.new_id[v]);
  }
  return CsrGraph::from_edges(faulted.survivor.size(), std::move(edges));
}

TEST(FaultInjector, EmptyPlanKillsNothing) {
  const GeoGraph geo = make_udg(8.0);
  const FaultInjector inj{FaultPlan{}};
  const FaultedGraph faulted = apply_faults(geo, inj);
  EXPECT_EQ(faulted.nodes_failed, 0u);
  EXPECT_EQ(faulted.edges_lost_endpoint, 0u);
  EXPECT_EQ(faulted.edges_lost_link, 0u);
  ASSERT_EQ(faulted.survivor.size(), geo.size());
  EXPECT_EQ(faulted.geo.graph.edge_list(), geo.graph.edge_list());
  for (std::size_t i = 0; i < geo.size(); ++i) {
    EXPECT_EQ(faulted.survivor[i], i);
    EXPECT_EQ(faulted.new_id[i], i);
  }
}

TEST(FaultInjector, DrawsArePureAndSymmetric) {
  FaultPlan plan;
  plan.node_crash = 0.3;
  plan.link_failure = 0.25;
  plan.seed = 77;
  const FaultInjector a{plan};
  const FaultInjector b{plan};
  // Evaluate b in reverse order first: per-entity streams mean the order
  // of draws cannot matter.
  std::vector<bool> reversed(500);
  for (std::uint32_t id = 500; id-- > 0;) reversed[id] = b.node_crashes(id);
  std::size_t crashed = 0;
  for (std::uint32_t id = 0; id < 500; ++id) {
    EXPECT_EQ(a.node_crashes(id), reversed[id]);
    if (a.node_crashes(id)) ++crashed;
  }
  EXPECT_GT(crashed, 100u);  // ~150 expected at p = 0.3
  EXPECT_LT(crashed, 200u);
  for (std::uint32_t u = 0; u < 40; ++u) {
    for (std::uint32_t v = u + 1; v < 40; ++v) {
      EXPECT_EQ(a.link_fails(u, v), a.link_fails(v, u));
    }
  }
}

TEST(FaultInjector, BlackoutKillsExactlyTheContainedNodes) {
  const GeoGraph geo = make_udg(10.0);
  FaultPlan plan;
  plan.blackouts.push_back(Box{{2.0, 2.0}, {6.0, 5.0}});
  plan.blackouts.push_back(Box{{7.5, 7.5}, {9.0, 9.5}});
  const FaultInjector inj{plan};
  const FaultedGraph faulted = apply_faults(geo, inj);
  std::size_t inside = 0;
  for (std::size_t i = 0; i < geo.size(); ++i) {
    const bool dead = faulted.new_id[i] == FaultedGraph::kDead;
    EXPECT_EQ(dead, inj.node_blacked_out(geo.points[i])) << "node " << i;
    if (dead) ++inside;
  }
  EXPECT_GT(inside, 0u);
  EXPECT_EQ(faulted.nodes_failed, inside);
}

TEST(FaultInjector, TotalCrashLeavesNothing) {
  const GeoGraph geo = make_udg(6.0);
  FaultPlan plan;
  plan.node_crash = 1.0;
  const FaultedGraph faulted = apply_faults(geo, FaultInjector{plan});
  EXPECT_EQ(faulted.survivor.size(), 0u);
  EXPECT_EQ(faulted.geo.graph.num_vertices(), 0u);
  EXPECT_EQ(faulted.nodes_failed, geo.size());
  EXPECT_EQ(faulted.edges_lost_endpoint, geo.graph.num_edges());
}

TEST(FaultOracle, MatchesFreshRebuildOverSurvivors) {
  const GeoGraph geo = make_udg();
  for (const double crash : {0.0, 0.1, 0.35}) {
    for (const double link : {0.0, 0.2}) {
      FaultPlan plan;
      plan.node_crash = crash;
      plan.link_failure = link;
      plan.blackouts.push_back(Box{{1.0, 1.0}, {4.0, 4.0}});
      plan.seed = 0xabcdULL + static_cast<std::uint64_t>(crash * 100 + link * 10);
      const FaultInjector inj{plan};
      const FaultedGraph faulted = apply_faults(geo, inj);
      const CsrGraph rebuilt = rebuild_over_survivors(geo, inj, faulted);
      EXPECT_EQ(faulted.geo.graph.edge_list(), rebuilt.edge_list())
          << "crash=" << crash << " link=" << link;
      // Loss accounting is exact: survivors' edges + losses = original edges.
      EXPECT_EQ(faulted.geo.graph.num_edges() + faulted.edges_lost_endpoint +
                    faulted.edges_lost_link,
                geo.graph.num_edges());
      // The relabel is the monotone survivor map.
      for (std::size_t i = 0; i < faulted.survivor.size(); ++i) {
        EXPECT_EQ(faulted.geo.points[i], geo.points[faulted.survivor[i]]);
        EXPECT_EQ(faulted.new_id[faulted.survivor[i]], i);
      }
    }
  }
}

TEST(FaultOracle, UdgCrashEqualsGeometricRebuild) {
  // Node failures only: the induced UDG subgraph on the survivors IS the
  // UDG of the surviving points (the disk predicate is pairwise), so the
  // fault path must agree with the geometric builder edge-for-edge.
  const Box window{{0.0, 0.0}, {12.0, 12.0}};
  const PointSet ps = poisson_point_set(window, 4.0, kSeed);
  const GeoGraph udg = build_udg(ps.points, window, 1.0);
  FaultPlan plan;
  plan.node_crash = 0.3;
  const FaultedGraph faulted = apply_faults(udg, FaultInjector{plan});
  const GeoGraph fresh = build_udg(faulted.geo.points, window, 1.0);
  EXPECT_EQ(faulted.geo.graph.edge_list(), fresh.graph.edge_list());
}

TEST(FaultThreads, ReplayBitIdenticalAcrossThreadCounts) {
  const GeoGraph geo = make_udg();
  FaultPlan plan;
  plan.node_crash = 0.25;
  plan.link_failure = 0.15;
  plan.blackouts.push_back(Box{{3.0, 3.0}, {7.0, 9.0}});
  const FaultInjector inj{plan};

  set_thread_count(1);
  const FaultedGraph base = apply_faults(geo, inj);
  const DegradationParams audit_params{.sample_pairs = 128, .seed = kSeed};
  const Box window{{0.0, 0.0}, {14.0, 14.0}};
  const DegradationReport base_report = audit_degradation(base.geo, window, audit_params);
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    const FaultedGraph got = apply_faults(geo, inj);
    EXPECT_EQ(got.geo.graph.edge_list(), base.geo.graph.edge_list()) << threads << " threads";
    EXPECT_EQ(got.survivor, base.survivor);
    EXPECT_EQ(got.new_id, base.new_id);
    EXPECT_EQ(got.nodes_failed, base.nodes_failed);
    EXPECT_EQ(got.edges_lost_endpoint, base.edges_lost_endpoint);
    EXPECT_EQ(got.edges_lost_link, base.edges_lost_link);
    const DegradationReport report = audit_degradation(got.geo, window, audit_params);
    EXPECT_EQ(report.giant_fraction, base_report.giant_fraction);
    EXPECT_EQ(report.coverage_fraction, base_report.coverage_fraction);
    EXPECT_EQ(report.mean_stretch, base_report.mean_stretch);
    EXPECT_EQ(report.certified_rate, base_report.certified_rate);
    EXPECT_EQ(report.disconnected_rate, base_report.disconnected_rate);
  }
  set_thread_count(0);
}

TEST(Degradation, IntactConnectedGraphBaseline) {
  const GeoGraph geo = make_udg();
  const Box window{{0.0, 0.0}, {14.0, 14.0}};
  const DegradationReport rep =
      audit_degradation(geo, window, DegradationParams{.sample_pairs = 128, .seed = kSeed});
  EXPECT_EQ(rep.nodes, geo.size());
  EXPECT_EQ(rep.edges, geo.graph.num_edges());
  // lambda = 4 per unit cell: the UDG covers the window and is connected up
  // to the odd isolated straggler, so the giant holds essentially all mass
  // and sampled pairs (drawn over ALL nodes) almost never miss.
  EXPECT_GT(rep.giant_fraction, 0.99);
  EXPECT_LE(rep.giant_fraction, 1.0);
  EXPECT_GT(rep.coverage_fraction, 0.9);
  EXPECT_GE(rep.mean_stretch, 1.0);
  EXPECT_GT(rep.stretch_pairs, 0u);
  EXPECT_LT(rep.disconnected_rate, 0.05);
  EXPECT_GT(rep.certified_rate, 0.5);
}

TEST(Degradation, MassFailureDegradesTheCurves) {
  const GeoGraph geo = make_udg();
  const Box window{{0.0, 0.0}, {14.0, 14.0}};
  const DegradationParams p{.sample_pairs = 128, .seed = kSeed};
  const DegradationReport before = audit_degradation(geo, window, p);
  FaultPlan plan;
  plan.node_crash = 0.5;
  const FaultedGraph faulted = apply_faults(geo, FaultInjector{plan});
  const DegradationReport after = audit_degradation(faulted.geo, window, p);
  EXPECT_LT(after.nodes, before.nodes);
  EXPECT_LE(after.coverage_fraction, before.coverage_fraction);
  EXPECT_LT(after.coverage_fraction, 1.0);
  EXPECT_LE(after.giant_fraction, 1.0);
}

TEST(Degradation, EmptyAndTinyGraphs) {
  const Box window{{0.0, 0.0}, {4.0, 4.0}};
  const GeoGraph empty;
  const DegradationReport rep0 = audit_degradation(empty, window, {});
  EXPECT_EQ(rep0.nodes, 0u);
  EXPECT_EQ(rep0.giant_fraction, 0.0);
  GeoGraph one;
  one.points = {Vec2{1.0, 1.0}};
  one.graph = CsrGraph::from_edges(1, {});
  const DegradationReport rep1 = audit_degradation(one, window, {});
  EXPECT_EQ(rep1.giant_fraction, 1.0);
  EXPECT_EQ(rep1.mean_stretch, 0.0);  // no pair to sample
}

// --- epoch serving under churn ---------------------------------------------

/// A DynamicHng over a Poisson workload (the E16/E19 shape).
DynamicHng make_dyn(std::size_t n = 220, std::uint64_t seed = kSeed) {
  const Box window{{0.0, 0.0}, {9.0, 9.0}};
  const PointSet ps = poisson_point_set(window, 4.0, seed);
  std::vector<Vec2> pts(ps.points.begin(),
                        ps.points.begin() + static_cast<std::ptrdiff_t>(
                                                std::min(n, ps.points.size())));
  return DynamicHng(pts, HngParams{.promote_p = 0.25, .k = 3, .max_level = 48}, seed);
}

TEST(EpochEngine, RefreshSnapshotMatchesMaintainerBitForBit) {
  DynamicHng dyn = make_dyn();
  EpochQueryEngine engine(dyn, QueryEngineParams{.num_landmarks = 8, .seed = kSeed});
  EXPECT_EQ(engine.generation(), dyn.overlay_generation());

  Rng rng = Rng::stream(kSeed, 0xc4u);
  for (int round = 0; round < 4; ++round) {
    for (int ev = 0; ev < 15; ++ev) {
      if (dyn.size() > 40 && rng.bernoulli(0.5)) {
        dyn.remove(static_cast<std::uint32_t>(rng.uniform_index(dyn.size())));
      } else {
        dyn.insert(Vec2{rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
      }
    }
    const std::uint64_t before = engine.generation();
    const EpochRefreshStats stats = engine.refresh();
    EXPECT_EQ(stats.deltas_applied, dyn.overlay_generation() - before);
    EXPECT_GT(stats.deltas_applied, 0u);
    EXPECT_EQ(engine.generation(), dyn.overlay_generation());
    // The epoch snapshot is the maintainer's overlay, bit for bit.
    EXPECT_EQ(engine.graph().edge_list(), dyn.overlay().edge_list()) << "round " << round;
    // ... and its weights are the Euclidean lengths over the current points.
    const std::span<const Vec2> pts = dyn.points();
    const std::vector<double> lengths = dyn.overlay().arc_weights(
        [&](std::uint32_t u, std::uint32_t v) { return dist(pts[u], pts[v]); });
    const std::span<const double> w = engine.engine().arc_weights();
    EXPECT_TRUE(std::equal(w.begin(), w.end(), lengths.begin(), lengths.end()))
        << "round " << round;
  }
  // Already current: a refresh is a no-op.
  const EpochRefreshStats idle = engine.refresh();
  EXPECT_EQ(idle.deltas_applied, 0u);
  EXPECT_EQ(idle.generation, dyn.overlay_generation());
}

// A reader that skipped many materializations catches up in one copy,
// however many generations the maintainer advanced in between.
TEST(EpochEngine, RefreshAcrossManyGenerationsCopiesCurrentSnapshot) {
  DynamicHng dyn = make_dyn(120);
  EpochQueryEngine engine(dyn, QueryEngineParams{.num_landmarks = 6, .seed = kSeed});
  const std::uint64_t start = engine.generation();
  Rng rng = Rng::stream(kSeed, 0xc5u);
  for (int ev = 0; ev < 10; ++ev) {
    dyn.insert(Vec2{rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
    (void)dyn.overlay();  // one generation per event
  }
  ASSERT_EQ(dyn.overlay_generation(), start + 10);
  const EpochRefreshStats stats = engine.refresh();
  EXPECT_EQ(stats.deltas_applied, 10u);
  EXPECT_EQ(stats.generation, start + 10);
  EXPECT_EQ(engine.graph().edge_list(), dyn.overlay().edge_list());
}

/// Assert the §2.9 verdict contract of one served batch against exact
/// Dijkstra on the engine's own epoch snapshot.
void expect_verdicts_sound(const EpochQueryEngine& engine, std::span<const Query> queries,
                           std::span<const double> out, std::span<const Verdict> verdicts) {
  const std::size_t n = engine.graph().num_vertices();
  DijkstraScratch scratch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query q = queries[i];
    if (verdicts[i] == Verdict::kStale) {
      EXPECT_TRUE(q.src >= n || q.dst >= n) << "query " << i;
      EXPECT_EQ(out[i], kInfCost);
      continue;
    }
    ASSERT_TRUE(q.src < n && q.dst < n) << "query " << i;
    const double exact =
        dijkstra_cost(engine.graph(), q.src, q.dst, engine.engine().arc_weights(), scratch);
    switch (verdicts[i]) {
      case Verdict::kExact:
        // Bracket-exact answers (landmark == endpoint) may differ from the
        // fallback Dijkstra by summation order, hence NEAR not EQ.
        EXPECT_NEAR(out[i], exact, 1e-9 * (1.0 + exact)) << "query " << i;
        EXPECT_LT(out[i], kInfCost);
        break;
      case Verdict::kCertified:
        EXPECT_GE(out[i], exact - 1e-9) << "query " << i;
        EXPECT_LE(out[i], engine.max_stretch() * exact + 1e-9) << "query " << i;
        break;
      case Verdict::kDisconnected:
        EXPECT_EQ(exact, kInfCost) << "query " << i;
        EXPECT_EQ(out[i], kInfCost);
        break;
      case Verdict::kStale:
        break;
    }
  }
}

TEST(EpochEngine, ZeroUncertifiedWrongAnswersUnderChurn) {
  DynamicHng dyn = make_dyn();
  const std::size_t n_pre = dyn.size();
  EpochQueryEngine engine(
      dyn, QueryEngineParams{.num_landmarks = 8,
                             .max_stretch = 1.25,
                             .seed = kSeed,
                             .selection = LandmarkSelection::kFarthestPoint});
  // Heavy churn: remove a third of the slots (descending, so planned slots
  // stay valid), then refresh.
  Rng rng = Rng::stream(kSeed, 0xc6u);
  for (std::uint32_t slot = static_cast<std::uint32_t>(n_pre); slot-- > 0;) {
    if (slot % 3 == 0) dyn.remove(slot);
  }
  const EpochRefreshStats stats = engine.refresh();
  EXPECT_GT(stats.landmarks_demoted + stats.landmarks_recruited, 0u);

  // Queries drawn over the PRE-churn id space: a third of the ids are now
  // out of range and must come back stale, not resolved to other nodes.
  std::vector<Query> queries(300);
  for (auto& q : queries) {
    q.src = static_cast<std::uint32_t>(rng.uniform_index(n_pre));
    q.dst = static_cast<std::uint32_t>(rng.uniform_index(n_pre));
  }
  std::vector<double> out(queries.size());
  std::vector<Verdict> verdicts(queries.size());
  const ServeStats served = engine.serve(queries, out, verdicts);
  EXPECT_EQ(served.queries, queries.size());
  // Stats count paths, verdicts are per answer.
  auto count = [&](Verdict v) {
    return static_cast<std::size_t>(std::count(verdicts.begin(), verdicts.end(), v));
  };
  EXPECT_EQ(served.certified + served.exact + served.stale, served.queries);
  EXPECT_EQ(served.stale, count(Verdict::kStale));
  EXPECT_EQ(served.disconnected, count(Verdict::kDisconnected));
  EXPECT_GT(served.stale, 0u);
  expect_verdicts_sound(engine, queries, out, verdicts);
}

TEST(EpochEngine, ServeBitIdenticalAcrossThreadCounts) {
  DynamicHng dyn = make_dyn(150);
  EpochQueryEngine engine(dyn, QueryEngineParams{.num_landmarks = 6, .seed = kSeed});
  Rng rng = Rng::stream(kSeed, 0xc7u);
  std::vector<Query> queries(200);
  for (auto& q : queries) {
    q.src = static_cast<std::uint32_t>(rng.uniform_index(dyn.size() + 5));  // a few stale
    q.dst = static_cast<std::uint32_t>(rng.uniform_index(dyn.size() + 5));
  }
  set_thread_count(1);
  std::vector<double> base(queries.size());
  std::vector<Verdict> base_v(queries.size());
  engine.serve(queries, base, base_v);
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    std::vector<double> got(queries.size());
    std::vector<Verdict> got_v(queries.size());
    engine.serve(queries, got, got_v);
    EXPECT_EQ(got, base) << threads << " threads";
    EXPECT_TRUE(std::equal(got_v.begin(), got_v.end(), base_v.begin())) << threads << " threads";
  }
  set_thread_count(0);
}

TEST(EpochEngine, DrainedToEmptyEveryAnswerIsStale) {
  DynamicHng dyn = make_dyn(60);
  EpochQueryEngine engine(dyn, QueryEngineParams{.num_landmarks = 4, .seed = kSeed});
  const std::size_t n_pre = dyn.size();
  while (dyn.size() > 0) dyn.remove(static_cast<std::uint32_t>(dyn.size() - 1));
  const EpochRefreshStats stats = engine.refresh();
  EXPECT_EQ(engine.graph().num_vertices(), 0u);
  EXPECT_EQ(stats.landmarks_recruited, 0u);
  std::vector<Query> queries(20);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = Query{static_cast<std::uint32_t>(i % n_pre),
                       static_cast<std::uint32_t>((i * 7) % n_pre)};
  }
  std::vector<double> out(queries.size());
  std::vector<Verdict> verdicts(queries.size());
  const ServeStats served = engine.serve(queries, out, verdicts);
  EXPECT_EQ(served.stale, queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(verdicts[i], Verdict::kStale);
    EXPECT_EQ(out[i], kInfCost);
  }
}

TEST(EpochEngine, AllDisconnectedBatchIsExplicit) {
  // A blackout that severs the deployment into two far-apart UDG clusters:
  // every cross-cluster query must come back as an infinite distance —
  // explicitly, never as some certified finite guess. The plain
  // QueryEngine certifies the disconnection from the oracle bracket alone
  // ({inf, inf} bounds); a BFS of every pair agrees.
  const GeoGraph geo = make_udg(12.0);
  FaultPlan plan;
  plan.blackouts.push_back(Box{{5.0, -1.0}, {7.0, 13.0}});  // vertical cut
  const FaultedGraph faulted = apply_faults(geo, FaultInjector{plan});
  const Components comps = connected_components(faulted.geo.graph);
  ASSERT_GT(comps.count(), 1u);

  // Queries crossing the two largest components only (landmarks land in
  // them, so the bracket proves every disconnection).
  std::uint32_t second = comps.largest == 0 ? 1 : 0;
  for (std::uint32_t c = 0; c < comps.count(); ++c) {
    if (c != comps.largest && comps.size[c] > comps.size[second]) second = c;
  }
  std::vector<std::uint32_t> left;
  std::vector<std::uint32_t> right;
  for (std::uint32_t v = 0; v < faulted.geo.graph.num_vertices(); ++v) {
    if (comps.label[v] == comps.largest) left.push_back(v);
    if (comps.label[v] == second) right.push_back(v);
  }
  ASSERT_FALSE(left.empty());
  ASSERT_FALSE(right.empty());
  std::vector<Query> queries;
  for (std::size_t i = 0; i < 40; ++i) {
    queries.push_back(Query{left[(i * 13) % left.size()], right[(i * 7) % right.size()]});
  }
  QueryEngine plain(faulted.geo.graph, faulted.geo.length_arc_weights(),
                    QueryEngineParams{.num_landmarks = 6, .seed = kSeed});
  std::vector<double> out(queries.size());
  const ServeStats stats = plain.estimate_distances(queries, out);
  EXPECT_EQ(stats.certified, queries.size());  // disconnection certifies exactly
  EXPECT_EQ(stats.exact, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) EXPECT_EQ(out[i], kInfCost);
  BfsScratch bfs;
  for (const Query& q : queries) {
    EXPECT_EQ(bfs_distance(faulted.geo.graph, q.src, q.dst, bfs), kUnreachable);
  }
}

}  // namespace
}  // namespace sens
