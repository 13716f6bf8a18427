// Workload `churn`: writes beside reads on one serving layer.
//
// A DynamicHng adopts a Poisson deployment (about 2 * 10^4 points at
// lambda = 4; HNG p = 0.25, k = 3) and an EpochQueryEngine is built over it
// (16 farthest-point landmarks, stretch budget 1.25). Three independent
// deployments are set up and the waves rotate over them, so a run averages
// over three promotion hierarchies instead of one. Each wave then
//   1. crashes 5% of the slots (FaultInjector::node_crashes, a fresh plan
//      seed per wave), removing them in descending slot order,
//   2. rejoins as many uniform points,
//   3. reads the overlay and refreshes the epoch engine,
//   4. serves one distance batch over the current ids.
// Throughput counts replacements (a leave and the join that follows it) per
// second of wave time, all four steps included, so work moved from refresh
// into serving still shows.
#include <cmath>
#include <memory>
#include <numeric>

#include "common.hpp"
#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/fault/fault_plan.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/epoch_engine.hpp"

namespace perfbench {

using namespace sens;

namespace {

constexpr std::uint64_t kTag = 0xC4A9;
constexpr double kLambda = 4.0;
constexpr double kCrashFrac = 0.05;
constexpr std::size_t kDistanceBatch = 64;
constexpr std::size_t kCheckedPerWave = 16;
const HngParams kHng{.promote_p = 0.25, .k = 3, .max_level = 48};

struct Stack {
  std::unique_ptr<DynamicHng> dyn;
  std::unique_ptr<EpochQueryEngine> engine;
};

struct SetUp {
  std::vector<Stack> stacks;
  std::size_t points = 0;  ///< adopted points over all deployments
  std::vector<double> adopt_s, epoch_s, total_s;  ///< wall seconds
  std::vector<double> total_cpu_s;
};

/// Sets up `deployments` stacks on independent Poisson deployments in
/// `window`. Generation is input preparation; set-up time is adoption plus
/// the epoch engine.
SetUp set_up(const Box& window, const EpochEngineParams& params, std::uint64_t seed,
             std::size_t deployments) {
  SetUp s;
  for (std::size_t k = 0; k < deployments; ++k) {
    const std::uint64_t seed_k = mix_seed(seed, k);
    const PointSet ps = poisson_point_set(window, kLambda, seed_k);
    s.points += ps.size();
    Stack st;
    Took adopt, epoch;
    st.dyn = timed("dynamic.adopt", adopt,
                   [&] { return std::make_unique<DynamicHng>(ps.points, kHng, seed_k); });
    st.engine = timed("serve.epoch_build", epoch,
                      [&] { return std::make_unique<EpochQueryEngine>(*st.dyn, params); });
    s.adopt_s.push_back(adopt.wall);
    s.epoch_s.push_back(epoch.wall);
    s.total_s.push_back(adopt.wall + epoch.wall);
    s.total_cpu_s.push_back(adopt.cpu + epoch.cpu);
    s.stacks.push_back(std::move(st));
  }
  return s;
}

/// Everything one or more waves measured.
struct Waves {
  std::vector<double> event_s;    ///< every join/leave event
  std::vector<double> replace_s;  ///< every leave + join pair (i-th crash, i-th join)
  std::vector<double> materialize_s, refresh_s, wave_s;  ///< wall seconds
  std::vector<double> wave_cpu_rate;  ///< replacements per processor second of each wave
  double wave_cpu_s = 0.0;
  double serve_s = 0.0;
  std::size_t events = 0, crashes = 0, relinked = 0, edge_flips = 0;
  std::size_t refresh_deltas = 0, demoted = 0, recruited = 0;
  std::size_t answers = 0, exact = 0, stale = 0, disconnected = 0;
  std::uint64_t pops = 0, arcs = 0, replays = 0, resyncs = 0;
  std::uint64_t knn_queries = 0, knn_cells = 0, knn_candidates = 0;
  std::size_t traced_events = 0, untraced_events = 0;
  double traced_s = 0.0, untraced_s = 0.0;
};

/// One wave (module comment), with its untimed checks.
void wave(Stack& st, const Box& window, std::uint64_t seed, std::size_t w, Waves& out,
          Report& rep) {
  DynamicHng& dyn = *st.dyn;
  EpochQueryEngine& engine = *st.engine;
  Took wave_took;
  auto event_done = [&](const Took& took) {
    out.event_s.push_back(took.wall);
    wave_took += took;
    ++out.events;
    out.relinked += dyn.last_event().relinked;
    out.edge_flips += dyn.last_event().edges_added + dyn.last_event().edges_removed;
  };
  const Counts c0 = counter_snapshot();

  FaultPlan plan;
  plan.node_crash = kCrashFrac;
  plan.seed = mix_seed(seed, 2 * w + 1);
  const FaultInjector inj{plan};
  std::size_t crashed = 0;
  const std::size_t first_event = out.event_s.size();
  for (auto slot = static_cast<std::uint32_t>(dyn.size()); slot-- > 0;) {
    if (!inj.node_crashes(slot)) continue;
    Took took;
    timed("dynamic.remove", took, [&] { dyn.remove(slot); });
    event_done(took);
    ++crashed;
  }
  out.crashes += crashed;
  Rng join = Rng::stream(seed, kTag, 2 * w + 2);
  for (std::size_t j = 0; j < crashed; ++j) {
    const Vec2 p{join.uniform(window.lo.x, window.hi.x), join.uniform(window.lo.y, window.hi.y)};
    Took took;
    timed("dynamic.insert", took, [&] { (void)dyn.insert(p); });
    event_done(took);
  }
  for (std::size_t j = 0; j < crashed; ++j) {
    out.replace_s.push_back(out.event_s[first_event + j] +
                            out.event_s[first_event + crashed + j]);
  }
  const Counts c1 = counter_snapshot();
  out.knn_queries += counter_delta(c0, c1, "grid_knn_queries");
  out.knn_cells += counter_delta(c0, c1, "grid_knn_cells_scanned");
  out.knn_candidates += counter_delta(c0, c1, "grid_knn_candidates");

  Took mat, ref;
  timed("dynamic.materialize", mat, [&] { (void)dyn.overlay(); });
  const EpochRefreshStats rs = timed("serve.refresh", ref, [&] { return engine.refresh(); });
  out.materialize_s.push_back(mat.wall);
  out.refresh_s.push_back(mat.wall + ref.wall);
  out.refresh_deltas += rs.deltas_applied;
  out.demoted += rs.landmarks_demoted;
  out.recruited += rs.landmarks_recruited;
  wave_took += mat;
  wave_took += ref;
  const Counts c2 = counter_snapshot();
  out.replays += counter_delta(c1, c2, "epoch_journal_replays");
  out.resyncs += counter_delta(c1, c2, "epoch_resyncs");

  Rng qdraw = Rng::stream(seed, kTag, 2 * w + 3);
  std::vector<Query> queries(kDistanceBatch);
  for (Query& q : queries) {
    q.src = static_cast<std::uint32_t>(qdraw.uniform_index(dyn.size()));
    q.dst = static_cast<std::uint32_t>(qdraw.uniform_index(dyn.size()));
  }
  std::vector<double> answers(queries.size());
  std::vector<Verdict> verdicts(queries.size());
  Took serve;
  const EpochServeStats ss =
      timed("serve.epoch_serve", serve, [&] { return engine.serve(queries, answers, verdicts); });
  const Counts c3 = counter_snapshot();
  out.pops += counter_delta(c2, c3, "dijkstra_heap_pops");
  out.arcs += counter_delta(c2, c3, "dijkstra_relaxed_arcs");
  out.serve_s += serve.wall;
  wave_took += serve;
  out.answers += ss.queries;
  out.exact += ss.exact;
  out.stale += ss.stale;
  out.disconnected += ss.disconnected;
  out.wave_s.push_back(wave_took.wall);
  out.wave_cpu_s += wave_took.cpu;
  out.wave_cpu_rate.push_back(static_cast<double>(crashed) / wave_took.cpu);

  // Checks (untimed): the epoch snapshot equals the maintainer's overlay;
  // no answer is stale (queries name current ids) or disconnected (an HNG
  // is connected); a sample equals exact Dijkstra on the maintainer's
  // overlay or is certified within the stretch budget.
  const CsrGraph& g = dyn.overlay();
  rep.attempt(engine.graph().edge_list() == g.edge_list(),
              "wave " + std::to_string(w) + ": epoch snapshot differs from the overlay");
  rep.attempts(ss.queries);
  for (std::size_t i = 0; i < ss.stale + ss.disconnected; ++i) {
    rep.fail("wave " + std::to_string(w) + ": stale or disconnected answer");
  }
  const std::span<const Vec2> pts = dyn.points();
  const std::vector<double> wts =
      g.arc_weights([&](std::uint32_t u, std::uint32_t v) { return dist(pts[u], pts[v]); });
  DijkstraScratch scratch;
  for (std::size_t i = 0; i < kCheckedPerWave && i < queries.size(); ++i) {
    const double d = dijkstra_cost(g, queries[i].src, queries[i].dst, wts, scratch);
    const double tol = 1e-9 * (1.0 + d);
    const bool ok = std::isfinite(d) && answers[i] >= d - tol &&
                    answers[i] <= engine.max_stretch() * d + tol;
    rep.attempt(ok, "wave " + std::to_string(w) + ": answer " + fmt(answers[i], 17) +
                        " vs exact " + fmt(d, 17));
  }
  rep.count("churn.digest_edges", g.num_edges());
}

/// Runs waves under `budget`, wave w on stack w mod the stack count; traced
/// runs alternate blocks of untraced and traced waves.
Waves run_waves(std::vector<Stack>& stacks, const Box& window, std::uint64_t seed,
                const Budget& budget, bool trace, std::size_t first_wave, Report& rep) {
  const std::size_t block = stacks.size();
  Waves out;
  double measured = 0.0;
  for (std::size_t i = 0; budget.more(i, measured); ++i) {
    const bool traced = trace && (i / block) % 2 == 1;
    const std::size_t events_before = out.events;
    const std::size_t w = first_wave + i;
    set_tracing(traced);
    wave(stacks[w % stacks.size()], window, seed, w, out, rep);
    set_tracing(false);
    const double s = out.wave_s.back();
    measured += s;
    (traced ? out.traced_s : out.untraced_s) += s;
    (traced ? out.traced_events : out.untraced_events) += out.events - events_before;
  }
  return out;
}

}  // namespace

void run_churn(const Options& opt, Report& rep) {
  const double n_target = opt.small ? 2'000 : 20'000;
  const double side = std::sqrt(n_target / kLambda);
  const Box window{{0.0, 0.0}, {side, side}};
  const EpochEngineParams params{.num_landmarks = 16,
                                 .max_stretch = 1.25,
                                 .seed = opt.seed,
                                 .selection = LandmarkSelection::kFarthestPoint};

  constexpr std::size_t kDeployments = 3;
  set_tracing(opt.trace);
  SetUp su = set_up(window, params, opt.seed, kDeployments);
  set_tracing(false);
  rep.attempts(2 * su.total_s.size());

  // One unmeasured wave per deployment first: first touch of the
  // maintainer's and the engine's per-event memory is not what the waves
  // measure.
  std::size_t waves_run = 0;
  if (!opt.small) {
    const Budget warm{0.0, kDeployments, kDeployments};
    waves_run = run_waves(su.stacks, window, opt.seed, warm, false, 0, rep).wave_s.size();
  }
  const sens::PoolStats pool0 = sens::pool_stats();
  const Budget budget{opt.seconds, 4 * kDeployments, opt.small ? kDeployments : 0u};
  const Waves wv = run_waves(su.stacks, window, opt.seed, budget, opt.trace, waves_run, rep);
  const sens::PoolStats pool1 = sens::pool_stats();
  const double rss = peak_rss_mib();
  rep.attempts(wv.events);

  // Full-rebuild check: each maintained overlay equals a fresh batch build
  // over its surviving points.
  for (std::size_t k = 0; k < kDeployments; ++k) {
    const DynamicHng& dyn = *su.stacks[k].dyn;
    const HngResult fresh = build_hng(dyn.points(), kHng, mix_seed(opt.seed, k));
    rep.attempt(dyn.overlay().edge_list() == fresh.geo.graph.edge_list(),
                "maintained overlay differs from build_hng over the surviving points");
  }

  rep.count("churn.points", su.points);
  rep.count("churn.waves", wv.wave_s.size());
  rep.count("churn.events", wv.events);
  rep.count("churn.crashes", wv.crashes);
  rep.count("dynamic.relinked", wv.relinked);
  rep.count("dynamic.edge_flips", wv.edge_flips);
  rep.count("serve.refresh_deltas", wv.refresh_deltas);
  rep.count("serve.landmarks_demoted", wv.demoted);
  rep.count("serve.landmarks_recruited", wv.recruited);
  rep.count("serve.epoch_journal_replays", wv.replays);
  rep.count("serve.epoch_resyncs", wv.resyncs);
  rep.count("serve.answers", wv.answers);
  rep.count("serve.exact", wv.exact);
  rep.count("graph.dijkstra_heap_pops", wv.pops);
  rep.count("graph.dijkstra_relaxed_arcs", wv.arcs);
  rep.count("spatial.knn_queries", wv.knn_queries);
  rep.count("spatial.knn_cells", wv.knn_cells);
  rep.count("spatial.knn_candidates", wv.knn_candidates);

  const double event_total = std::accumulate(wv.event_s.begin(), wv.event_s.end(), 0.0);
  const auto events = static_cast<double>(wv.events);
  const auto waves = static_cast<double>(wv.wave_s.size());
  rep.note("churn: " + std::to_string(su.points) + " points in " +
           std::to_string(kDeployments) + " deployments, " +
           std::to_string(wv.wave_s.size()) + " waves, " + std::to_string(wv.events) +
           " events: churn_events_per_s " + fmt(events / event_total, 6) + ", refresh_ms " +
           fmt(median(wv.refresh_s) * 1e3) + " (median of " + std::to_string(wv.refresh_s.size()) +
           " waves), distance_qps " + fmt(static_cast<double>(wv.answers) / wv.serve_s, 6) +
           "; wave latency " + latency_note(wv.wave_s) + "; replacement latency " +
           latency_note(wv.replace_s) + "; set-up " + fmt(median(su.total_s)) + " s wall, " +
           fmt(median(su.total_cpu_s)) + " s processor");
  if (!opt.trace) {
    rep.metric("setup_s", median(su.total_cpu_s), "s");
    rep.metric("ops_per_cpu_s", median(wv.wave_cpu_rate), "1/s");
    rep.metric("peak_rss_mib", rss, "MiB");
    return;
  }

  const double adopt_s = mean(su.adopt_s), epoch_s = mean(su.epoch_s);
  // Per event: half a replacement (a leave and a join cost very different
  // amounts, so the median of single events sits between two modes).
  const double event_us = median(wv.replace_s) * 0.5e6;
  const double event_us_mean = mean(wv.event_s) * 1e6;
  const double mat_ms = median(wv.materialize_s) * 1e3;
  const double refresh_ms = median(wv.refresh_s) * 1e3;
  const auto answers = static_cast<double>(wv.answers);
  rep.metric("dynamic.adopt_s", adopt_s, "s");
  rep.metric("serve.epoch_build_s", epoch_s, "s");
  rep.metric("dynamic.event_us_p50", event_us, "us");
  rep.metric("dynamic.event_us_mean", event_us_mean, "us");
  rep.metric("dynamic.relinked_per_event", static_cast<double>(wv.relinked) / events, "count");
  rep.metric("dynamic.edge_flips_per_event", static_cast<double>(wv.edge_flips) / events, "count");
  rep.metric("dynamic.materialize_ms", mat_ms, "ms");
  rep.metric("serve.refresh_ms", refresh_ms, "ms");
  rep.metric("serve.refresh_deltas", static_cast<double>(wv.refresh_deltas) / waves, "count");
  rep.metric("serve.landmarks_demoted", static_cast<double>(wv.demoted) / waves, "count");
  rep.metric("serve.landmarks_recruited", static_cast<double>(wv.recruited) / waves, "count");
  rep.metric("serve.epoch_journal_replays", static_cast<double>(wv.replays) / waves, "count");
  rep.metric("serve.epoch_resyncs", static_cast<double>(wv.resyncs) / waves, "count");
  rep.metric("serve.fallback_frac", static_cast<double>(wv.exact) / answers, "frac");
  rep.metric("graph.dijkstra_pops_per_query", static_cast<double>(wv.pops) / answers, "count");
  rep.metric("graph.dijkstra_arcs_per_query", static_cast<double>(wv.arcs) / answers, "count");
  rep.metric("graph.ns_per_heap_pop", wv.serve_s * 1e9 / static_cast<double>(wv.pops), "ns");
  rep.metric("spatial.knn_candidates_per_query",
             static_cast<double>(wv.knn_candidates) / static_cast<double>(wv.knn_queries),
             "count");
  rep.metric("spatial.knn_cells_per_query",
             static_cast<double>(wv.knn_cells) / static_cast<double>(wv.knn_queries), "count");
  rep.metric("fault.crashes_per_wave", static_cast<double>(wv.crashes) / waves, "count");
  rep.metric("support.pool_helper_claims_per_job", claims_per_job(pool0, pool1), "count");
  rep.metric("support.cpu_per_wall",
             wv.wave_cpu_s / std::accumulate(wv.wave_s.begin(), wv.wave_s.end(), 0.0), "ratio");
  if (wv.traced_events > 0 && wv.untraced_events > 0) {
    rep.metric("obs.trace_overhead_frac",
               (wv.traced_s / static_cast<double>(wv.traced_events)) /
                       (wv.untraced_s / static_cast<double>(wv.untraced_events)) -
                   1.0,
               "frac");
  }

  // Slopes: set-up and three waves once more at a quarter of the size.
  if (opt.small) return;
  const double q_side = side / 2.0;
  const Box q_window{{0.0, 0.0}, {q_side, q_side}};
  SetUp q_su = set_up(q_window, params, opt.seed, 1);
  const Waves q_wv =
      run_waves(q_su.stacks, q_window, opt.seed, Budget{0.0, 3, 3}, false, 0, rep);
  rep.attempts(2 + q_wv.events);
  const auto n_full = static_cast<double>(su.points) / static_cast<double>(kDeployments);
  const auto n_q = static_cast<double>(q_su.points);
  rep.metric("dynamic.adopt_slope", loglog_slope(q_su.adopt_s[0], n_q, adopt_s, n_full), "ratio");
  rep.metric("serve.epoch_build_slope", loglog_slope(q_su.epoch_s[0], n_q, epoch_s, n_full),
             "ratio");
  rep.metric("dynamic.event_us_p50_slope",
             loglog_slope(median(q_wv.replace_s) * 0.5e6, n_q, event_us, n_full), "ratio");
  rep.metric("dynamic.event_us_mean_slope",
             loglog_slope(mean(q_wv.event_s) * 1e6, n_q, event_us_mean, n_full), "ratio");
  rep.metric("dynamic.materialize_ms_slope",
             loglog_slope(median(q_wv.materialize_s) * 1e3, n_q, mat_ms, n_full), "ratio");
  rep.metric("serve.refresh_ms_slope",
             loglog_slope(median(q_wv.refresh_s) * 1e3, n_q, refresh_ms, n_full), "ratio");
}

}  // namespace perfbench
