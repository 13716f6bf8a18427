// Workloads `serve` and `route`: read-only traffic over UDG-SENS overlays
// (strict spec, lambda = 25, 130 x 130 tiles: about 3 * 10^5 points and
// 5.5 * 10^4 overlay nodes each). Four independent deployments are built and
// served in rotation, because the cost of a query depends on the holes of
// one deployment's giant component; a run then averages over four of them.
// Query pairs are uniform over the tile representatives in the giant
// component. One caller thread runs a closed loop of fixed-size batches:
//   serve  distance batches through QueryEngine::estimate_distances
//          (16 farthest-point landmarks, stretch budget 1.5);
//   route  packet-route batches through route_batch over a SensRouter.
#include <cmath>
#include <memory>

#include "common.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/query_engine.hpp"

namespace perfbench {

using namespace sens;

namespace {

constexpr std::uint64_t kTag = 0x5E7E;
constexpr double kLambda = 25.0;
constexpr std::size_t kDeployments = 4;
constexpr std::size_t kDistanceBatch = 64;
constexpr std::size_t kRouteBatch = 512;
constexpr std::size_t kCheckedAnswers = 256;  ///< distance answers rechecked by Dijkstra

/// One deployment: the overlay and its giant-component representatives.
struct Deployment {
  std::unique_ptr<UdgSensResult> sens;
  std::vector<Site> giant_sites;
  std::vector<std::uint32_t> giant_nodes;
  [[nodiscard]] const Overlay& overlay() const { return sens->overlay; }
};

struct SetUp {
  std::vector<Deployment> deployments;
  std::vector<double> build_s, ready_s;  ///< wall seconds
  std::vector<double> total_s, total_cpu_s;
};

/// Builds the deployments; `ready(k, overlay)` builds the serving object of
/// deployment k and returns what it took. Set-up runs from seed to ready.
template <typename Ready>
SetUp set_up(const Options& opt, Report& rep, Ready&& ready) {
  const int tiles = opt.small ? 24 : 130;
  SetUp s;
  for (std::size_t k = 0; k < kDeployments; ++k) {
    Deployment d;
    Took build;
    d.sens = timed("core.udg_sens_build", build, [&] {
      return std::make_unique<UdgSensResult>(build_udg_sens(
          UdgTileSpec::strict(), kLambda, tiles, tiles, mix_seed(opt.seed, k)));
    });
    const Took ready_took = ready(k, d.overlay());
    rep.attempts(2);
    d.giant_sites = d.overlay().giant_rep_sites();
    for (const Site site : d.giant_sites) d.giant_nodes.push_back(d.overlay().rep_of(site));
    rep.attempt(d.giant_sites.size() >= 2, "UDG-SENS giant component has fewer than two tiles");
    s.build_s.push_back(build.wall);
    s.ready_s.push_back(ready_took.wall);
    s.total_s.push_back(build.wall + ready_took.wall);
    s.total_cpu_s.push_back(build.cpu + ready_took.cpu);
    s.deployments.push_back(std::move(d));
  }
  return s;
}

double mean_good_frac(const SetUp& s) {
  double sum = 0.0;
  for (const Deployment& d : s.deployments) sum += d.overlay().sites.open_fraction();
  return sum / static_cast<double>(s.deployments.size());
}

/// Unmeasured batches first: pool start-up and first touch of the scratch
/// memory are not what the loop measures.
template <typename Batch>
void warm_up(const Options& opt, Batch&& batch) {
  constexpr std::size_t kWarmUp = 2 * kDeployments;
  for (std::size_t i = 0; i < (opt.small ? 0 : kWarmUp); ++i) (void)batch(i);
}

/// Closed-loop batch measurement. `batch(i)` serves batch i (on deployment
/// i mod 4) and returns what the library call took. Traced runs alternate
/// blocks of untraced and traced batches so the trace overhead can be read
/// off.
struct LoopResult {
  std::vector<double> batch_s, batch_cpu_s;  ///< every measured batch
  double traced_s = 0.0, untraced_s = 0.0;
  std::size_t traced_n = 0, untraced_n = 0;
};

template <typename Batch>
LoopResult closed_loop(const Options& opt, Batch&& batch) {
  constexpr std::size_t kBlock = 4 * kDeployments;
  const Budget budget{opt.seconds, 2 * kBlock, opt.small ? kDeployments : 0u};
  LoopResult r;
  double measured = 0.0;
  for (std::size_t i = 0; budget.more(i, measured); ++i) {
    const bool traced = opt.trace && (i / kBlock) % 2 == 1;
    set_tracing(traced);
    const Took t = batch(i);
    set_tracing(false);
    measured += t.wall;
    r.batch_s.push_back(t.wall);
    r.batch_cpu_s.push_back(t.cpu);
    (traced ? r.traced_s : r.untraced_s) += t.wall;
    ++(traced ? r.traced_n : r.untraced_n);
  }
  return r;
}

double overhead_frac(const LoopResult& r) {
  if (r.traced_n == 0 || r.untraced_n == 0) return 0.0;
  return (r.traced_s / static_cast<double>(r.traced_n)) /
             (r.untraced_s / static_cast<double>(r.untraced_n)) -
         1.0;
}

double loop_seconds(const LoopResult& r) { return r.traced_s + r.untraced_s; }

/// End-to-end metrics of a fixed-size batch loop: processor-time set-up and
/// throughput, the batch size over the median processor time of a batch.
void report_e2e(Report& rep, const SetUp& su, std::size_t batch_size, const LoopResult& loop) {
  rep.metric("setup_s", median(su.total_cpu_s), "s");
  rep.metric("ops_per_cpu_s", static_cast<double>(batch_size) / median(loop.batch_cpu_s), "1/s");
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

double cpu_per_wall(const LoopResult& loop) {
  double cpu = 0.0;
  for (const double c : loop.batch_cpu_s) cpu += c;
  return cpu / loop_seconds(loop);
}

std::string batch_note(const SetUp& su, const LoopResult& loop, std::size_t batch_size) {
  return "set-up " + fmt(median(su.total_s)) + " s wall, " + fmt(median(su.total_cpu_s)) +
         " s processor; batches of " + std::to_string(batch_size) + " (latency " +
         latency_note(loop.batch_s) + ", " + fmt(cpu_per_wall(loop), 3) + " processors busy)";
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  const QueryEngineParams params{.num_landmarks = 16,
                                 .max_stretch = 1.5,
                                 .seed = opt.seed,
                                 .selection = LandmarkSelection::kFarthestPoint};
  std::vector<std::unique_ptr<QueryEngine>> engines(kDeployments);
  set_tracing(opt.trace);
  const SetUp su = set_up(opt, rep, [&](std::size_t k, const Overlay& ov) {
    Took took;
    engines[k] = timed("serve.engine_build", took, [&] {
      return std::make_unique<QueryEngine>(ov.geo.graph, ov.geo.length_arc_weights(), params);
    });
    return took;
  });
  set_tracing(false);
  if (rep.failed() > 0) return;

  Rng draw = Rng::stream(opt.seed, kTag, 1);
  std::vector<Query> queries(kDistanceBatch);
  std::vector<double> out(kDistanceBatch);
  struct Checked {
    std::size_t k;
    Query q;
    double answer;
  };
  std::vector<Checked> checked;
  ServeStats stats;
  const auto batch = [&](std::size_t i) {
    const std::size_t k = i % kDeployments;
    const std::vector<std::uint32_t>& nodes = su.deployments[k].giant_nodes;
    for (Query& q : queries) {
      q.src = nodes[draw.uniform_index(nodes.size())];
      q.dst = nodes[draw.uniform_index(nodes.size())];
    }
    Took took;
    stats += timed("serve.estimate_distances", took,
                   [&] { return engines[k]->estimate_distances(queries, out); });
    rep.attempts(queries.size());
    for (std::size_t j = 0; j < queries.size(); ++j) {
      // Every pair is in the giant component, so every answer is finite.
      if (!std::isfinite(out[j])) rep.fail("giant-pair distance answer is infinite");
      if (checked.size() < kCheckedAnswers) checked.push_back({k, queries[j], out[j]});
    }
    return took;
  };
  warm_up(opt, batch);
  stats = {};
  const Counts c0 = counter_snapshot();
  const sens::PoolStats pool0 = sens::pool_stats();
  const LoopResult loop = closed_loop(opt, batch);
  const sens::PoolStats pool1 = sens::pool_stats();
  const Counts c1 = counter_snapshot();

  // A fixed sample of answers equals exact Dijkstra or is certified within
  // the stretch budget.
  std::vector<std::vector<double>> weights(kDeployments);
  DijkstraScratch scratch;
  for (const Checked& c : checked) {
    const GeoGraph& geo = su.deployments[c.k].overlay().geo;
    if (weights[c.k].empty()) weights[c.k] = geo.length_arc_weights();
    const double d = dijkstra_cost(geo.graph, c.q.src, c.q.dst, weights[c.k], scratch);
    const double tol = 1e-9 * (1.0 + d);
    const bool ok =
        std::isfinite(d) && c.answer >= d - tol && c.answer <= params.max_stretch * d + tol;
    rep.attempt(ok, "distance answer " + fmt(c.answer, 17) + " vs exact " + fmt(d, 17));
  }

  const std::uint64_t pops = counter_delta(c0, c1, "dijkstra_heap_pops");
  const std::uint64_t arcs = counter_delta(c0, c1, "dijkstra_relaxed_arcs");
  const auto nq = static_cast<double>(stats.queries);
  for (const Deployment& d : su.deployments) {
    rep.count("serve.overlay_nodes", d.overlay().geo.size());
    rep.count("serve.overlay_edges", d.overlay().geo.graph.num_edges());
    rep.count("serve.giant_reps", d.giant_nodes.size());
  }
  rep.count("serve.answers", stats.queries);
  rep.count("serve.certified", stats.certified);
  rep.count("serve.exact", stats.exact);
  rep.count("graph.dijkstra_heap_pops", pops);
  rep.count("graph.dijkstra_relaxed_arcs", arcs);

  const double loop_s = loop_seconds(loop);
  rep.note("serve: " + std::to_string(stats.queries) + " distance answers in " +
           batch_note(su, loop, kDistanceBatch) + ": distance_qps " + fmt(nq / loop_s, 6) +
           ", fallback " + fmt(static_cast<double>(stats.exact) / nq));
  if (!opt.trace) {
    report_e2e(rep, su, kDistanceBatch, loop);
    return;
  }
  rep.metric("core.udg_sens_build_s", mean(su.build_s), "s");
  rep.metric("serve.engine_build_s", mean(su.ready_s), "s");
  rep.metric("serve.fallback_frac", static_cast<double>(stats.exact) / nq, "frac");
  rep.metric("graph.dijkstra_pops_per_query", static_cast<double>(pops) / nq, "count");
  rep.metric("graph.dijkstra_arcs_per_query", static_cast<double>(arcs) / nq, "count");
  rep.metric("graph.ns_per_heap_pop", loop_s * 1e9 / static_cast<double>(pops), "ns");
  rep.metric("tiles.good_frac", mean_good_frac(su), "frac");
  rep.metric("support.pool_helper_claims_per_job", claims_per_job(pool0, pool1), "count");
  rep.metric("obs.trace_overhead_frac", overhead_frac(loop), "frac");
  rep.metric("support.cpu_per_wall", cpu_per_wall(loop), "ratio");
}

void run_route(const Options& opt, Report& rep) {
  std::vector<std::unique_ptr<SensRouter>> routers(kDeployments);
  set_tracing(opt.trace);
  const SetUp su = set_up(opt, rep, [&](std::size_t k, const Overlay& ov) {
    Took took;
    routers[k] = timed("core.router_build", took, [&] { return std::make_unique<SensRouter>(ov); });
    return took;
  });
  set_tracing(false);
  if (rep.failed() > 0) return;

  Rng draw = Rng::stream(opt.seed, kTag, 2);
  std::vector<std::pair<Site, Site>> pairs(kRouteBatch);
  std::size_t routes = 0, hops = 0, probes = 0;
  const auto batch = [&](std::size_t i) {
    const std::size_t k = i % kDeployments;
    const Overlay& ov = su.deployments[k].overlay();
    const std::vector<Site>& sites = su.deployments[k].giant_sites;
    for (auto& [a, b] : pairs) {
      a = sites[draw.uniform_index(sites.size())];
      b = sites[draw.uniform_index(sites.size())];
    }
    Took took;
    const std::vector<SensRoute> out =
        timed("core.route_batch", took, [&] { return route_batch(*routers[k], pairs); });
    // Every route succeeds and is a walk in the overlay from the source
    // representative to the target representative.
    rep.attempts(out.size());
    for (std::size_t j = 0; j < out.size(); ++j) {
      const SensRoute& r = out[j];
      bool ok = r.success && !r.node_path.empty() &&
                r.node_path.front() == ov.rep_of(pairs[j].first) &&
                r.node_path.back() == ov.rep_of(pairs[j].second);
      for (std::size_t h = 1; ok && h < r.node_path.size(); ++h) {
        ok = ov.geo.graph.has_edge(r.node_path[h - 1], r.node_path[h]);
      }
      if (!ok) rep.fail("SENS route failed or is not a walk in the overlay");
      ++routes;
      hops += r.node_hops();
      probes += r.probes;
    }
    return took;
  };
  warm_up(opt, batch);
  routes = hops = probes = 0;
  const sens::PoolStats pool0 = sens::pool_stats();
  const LoopResult loop = closed_loop(opt, batch);
  const sens::PoolStats pool1 = sens::pool_stats();

  for (const Deployment& d : su.deployments) rep.count("route.giant_tiles", d.giant_sites.size());
  rep.count("route.routes", routes);
  rep.count("route.node_hops", hops);
  rep.count("route.mesh_probes", probes);

  const double loop_s = loop_seconds(loop);
  const auto nr = static_cast<double>(routes);
  rep.note("route: " + std::to_string(routes) + " routes in " + batch_note(su, loop, kRouteBatch) +
           ": route_qps " + fmt(nr / loop_s, 6) + ", " + fmt(static_cast<double>(hops) / nr) +
           " overlay hops per route");
  if (!opt.trace) {
    report_e2e(rep, su, kRouteBatch, loop);
    return;
  }
  rep.metric("core.udg_sens_build_s", mean(su.build_s), "s");
  rep.metric("core.route_hops_mean", static_cast<double>(hops) / nr, "count");
  rep.metric("perc.mesh_probes_per_route", static_cast<double>(probes) / nr, "count");
  rep.metric("core.ns_per_route_hop", loop_s * 1e9 / static_cast<double>(hops), "ns");
  rep.metric("tiles.good_frac", mean_good_frac(su), "frac");
  rep.metric("support.pool_helper_claims_per_job", claims_per_job(pool0, pool1), "count");
  rep.metric("obs.trace_overhead_frac", overhead_frac(loop), "frac");
  rep.metric("support.cpu_per_wall", cpu_per_wall(loop), "ratio");
}

}  // namespace perfbench
