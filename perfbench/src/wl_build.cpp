// Workload `build`: the paper's set-up path at deployment scale.
//
// One pass generates a Poisson deployment (about 10^6 points at lambda = 4),
// puts it in arrival order, Hilbert-reorders it, builds the UDG over the
// reordered points and the HNG (p = 0.25, k = 3) over the arrival order, then
// builds UDG-SENS (strict spec, lambda = 25, 238 x 238 tiles, about 10^6
// points) and NN-SENS (paper spec, k = 188, 64 x 64 tiles). The first pass of
// the process runs cold and is reported apart; the warm passes are the
// measured ones. The last pass is kept for the output checks.
#include <bit>
#include <cmath>
#include <utility>

#include "common.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/components.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/rng/rng.hpp"
#include "sens/spatial/reorder.hpp"

namespace perfbench {

using namespace sens;

namespace {

constexpr std::uint64_t kTag = 0xB11D;
constexpr double kLambda = 4.0;
const HngParams kHng{.promote_p = 0.25, .k = 3, .max_level = 48};

struct Sizes {
  double n_target;   ///< expected deployment size at lambda = 4
  int udg_tiles;     ///< UDG-SENS tiles per side
  int nn_tiles;      ///< NN-SENS tiles per side
};

constexpr Sizes kFull{1'000'000, 238, 64};
constexpr Sizes kQuarter{250'000, 119, 32};
constexpr Sizes kSmall{20'000, 34, 8};

enum StageId { kGenerate, kReorder, kUdg, kHngBuild, kUdgSens, kNnSens, kStages };
constexpr const char* kStageName[kStages] = {
    "geograph.generate", "spatial.reorder",      "geograph.udg_build",
    "hng.build",         "core.udg_sens_build",  "core.nn_sens_build"};

struct Pass {
  Took t[kStages];
  double points[kStages] = {};  ///< input points of each stage (slope base)
  // Kept for the checks.
  Box window;
  std::vector<Vec2> deploy;
  std::vector<std::uint32_t> perm;
  GeoGraph udg;  ///< over the Hilbert order
  HngResult hng;
  UdgSensResult udg_sens;
  NnSensResult nn_sens;
  std::uint64_t knn_queries = 0, knn_cells = 0, knn_candidates = 0;

  [[nodiscard]] Took total() const {
    Took sum;
    for (const Took& x : t) sum += x;
    return sum;
  }
  [[nodiscard]] double points_built() const {
    return points[kGenerate] + points[kUdgSens] + points[kNnSens];
  }
};

void run_pass(const Sizes& sz, std::uint64_t seed, Pass& p) {
  p = Pass{};
  const double side = std::sqrt(sz.n_target / kLambda);
  p.window = Box{{0.0, 0.0}, {side, side}};
  const Counts before = counter_snapshot();

  PointSet ps = timed(kStageName[kGenerate], p.t[kGenerate],
                      [&] { return poisson_point_set_ordered(p.window, kLambda, seed); });
  // Arrival order (input preparation, not timed): a seeded shuffle of the
  // grid-major store, the id order a deployed network hands over.
  p.deploy = std::move(ps.points);
  const std::size_t n = p.deploy.size();
  Rng shuffle = Rng::stream(seed, kTag, n);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p.deploy[i - 1], p.deploy[shuffle.uniform_index(i)]);
  }
  for (const StageId s : {kGenerate, kReorder, kUdg, kHngBuild}) {
    p.points[s] = static_cast<double>(n);
  }

  const std::vector<Vec2> hilbert = timed(kStageName[kReorder], p.t[kReorder], [&] {
    p.perm = spatial_order_permutation(p.deploy, SpatialOrder::kHilbert);
    return apply_permutation(std::span<const Vec2>(p.deploy), p.perm);
  });
  p.udg = timed(kStageName[kUdg], p.t[kUdg], [&] { return build_udg(hilbert, p.window, 1.0); });
  p.hng = timed(kStageName[kHngBuild], p.t[kHngBuild],
                [&] { return build_hng(p.deploy, kHng, seed); });
  p.udg_sens = timed(kStageName[kUdgSens], p.t[kUdgSens], [&] {
    return build_udg_sens(UdgTileSpec::strict(), 25.0, sz.udg_tiles, sz.udg_tiles, seed);
  });
  p.points[kUdgSens] = static_cast<double>(p.udg_sens.points.size());
  p.nn_sens = timed(kStageName[kNnSens], p.t[kNnSens], [&] {
    return build_nn_sens(NnTileSpec::paper(), sz.nn_tiles, sz.nn_tiles, seed);
  });
  p.points[kNnSens] = static_cast<double>(p.nn_sens.points.size());

  const Counts after = counter_snapshot();
  p.knn_queries = counter_delta(before, after, "grid_knn_queries");
  p.knn_cells = counter_delta(before, after, "grid_knn_cells_scanned");
  p.knn_candidates = counter_delta(before, after, "grid_knn_candidates");
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t x) {
  return h ^ (x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

struct Digest {
  std::uint64_t bfs = 0xB11D, dij = 0xB11D;
};

/// BFS and Dijkstra rows from `sources` (this layout's ids), hashed in
/// deploy-id order through `to_this` (deploy id -> this layout's id; empty
/// for the deploy layout itself), as the E18 layout check does.
Digest layout_digest(const GeoGraph& g, std::span<const std::uint32_t> sources,
                     std::span<const std::uint32_t> to_this) {
  const std::size_t n = g.size();
  const std::vector<std::uint32_t> hops = bfs_many(g.graph, sources);
  const std::vector<double> costs = dijkstra_many(g.graph, sources, g.length_arc_weights());
  Digest d;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t old = 0; old < n; ++old) {
      const std::size_t v = to_this.empty() ? old : to_this[old];
      d.bfs = mix64(d.bfs, hops[s * n + v]);
      d.dij = mix64(d.dij, std::bit_cast<std::uint64_t>(costs[s * n + v]));
    }
  }
  return d;
}

/// The build checks: HNG connected, both SENS overlays complete, and the
/// Hilbert-order UDG equal to the deploy-order UDG up to relabeling.
void check_pass(const Pass& p, std::uint64_t seed, Report& rep) {
  const std::size_t hng_components = connected_components(p.hng.geo.graph).count();
  rep.attempt(hng_components == 1,
              "HNG has " + std::to_string(hng_components) + " components, expected 1");
  rep.attempt(p.udg_sens.overlay.edges_missing == 0 && p.udg_sens.overlay.edges_expected > 0,
              "UDG-SENS overlay misses " + std::to_string(p.udg_sens.overlay.edges_missing) +
                  " claimed edges");
  rep.attempt(p.nn_sens.overlay.edges_missing == 0 && p.nn_sens.overlay.edges_expected > 0,
              "NN-SENS overlay misses " + std::to_string(p.nn_sens.overlay.edges_missing) +
                  " claimed edges");

  const GeoGraph deploy_udg = build_udg(p.deploy, p.window, 1.0);
  const std::vector<std::uint32_t> inv = invert_permutation(p.perm);
  Rng pick = Rng::stream(seed, kTag, 2);
  std::vector<std::uint32_t> src_deploy(4);
  for (auto& s : src_deploy) s = static_cast<std::uint32_t>(pick.uniform_index(p.deploy.size()));
  std::vector<std::uint32_t> src_hilbert(src_deploy.size());
  for (std::size_t i = 0; i < src_deploy.size(); ++i) src_hilbert[i] = inv[src_deploy[i]];
  const Digest a = layout_digest(deploy_udg, src_deploy, {});
  const Digest b = layout_digest(p.udg, src_hilbert, inv);
  rep.attempt(deploy_udg.graph.num_edges() == p.udg.graph.num_edges() && a.bfs == b.bfs &&
                  a.dij == b.dij,
              "Hilbert-order UDG distances differ from the deploy-order UDG");
  rep.count("build.digest_bfs_low32", a.bfs & 0xffffffffu);
  rep.count("build.digest_dijkstra_low32", a.dij & 0xffffffffu);
}

void count_pass(const Pass& p, Report& rep) {
  rep.count("build.points", static_cast<std::uint64_t>(p.points[kGenerate]));
  rep.count("build.udg_edges", p.udg.graph.num_edges());
  rep.count("build.hng_edges", p.hng.geo.graph.num_edges());
  rep.count("build.hng_top_level", p.hng.top_level);
  rep.count("build.udg_sens_nodes", p.udg_sens.overlay.geo.size());
  rep.count("build.udg_sens_edges", p.udg_sens.overlay.geo.graph.num_edges());
  rep.count("build.udg_sens_good_tiles", p.udg_sens.overlay.sites.open_count());
  rep.count("build.nn_sens_nodes", p.nn_sens.overlay.geo.size());
  rep.count("build.nn_sens_edges", p.nn_sens.overlay.geo.graph.num_edges());
  rep.count("spatial.knn_queries", p.knn_queries);
  rep.count("spatial.knn_cells", p.knn_cells);
  rep.count("spatial.knn_candidates", p.knn_candidates);
}

}  // namespace

void run_build(const Options& opt, Report& rep) {
  const Sizes& sz = opt.small ? kSmall : kFull;
  Pass pass;

  // Cold pass: the first construction in the process pays page faults and
  // pool start-up. Reported, not measured.
  run_pass(sz, opt.seed, pass);
  rep.attempts(kStages);
  rep.note("build: cold pass " + fmt(pass.total().wall) + " s over " +
           fmt(pass.points_built(), 7) + " points (not in setup_s)");

  const Budget budget{opt.seconds, opt.trace ? 4u : 3u, opt.small ? 1u : 0u};
  std::vector<double> totals, cpu_totals, traced_totals, untraced_totals;
  std::vector<double> stage_traced[kStages];
  double measured = 0.0;
  const sens::PoolStats pool0 = sens::pool_stats();
  for (std::size_t i = 0; budget.more(i, measured); ++i) {
    const bool traced = opt.trace && i % 2 == 0;
    set_tracing(traced);
    run_pass(sz, opt.seed, pass);
    set_tracing(false);
    rep.attempts(kStages);
    const Took took = pass.total();
    measured += took.wall;
    totals.push_back(took.wall);
    cpu_totals.push_back(took.cpu);
    (traced ? traced_totals : untraced_totals).push_back(took.wall);
    if (traced) {
      for (int s = 0; s < kStages; ++s) stage_traced[s].push_back(pass.t[s].wall);
    }
  }
  const sens::PoolStats pool1 = sens::pool_stats();
  const double rss = peak_rss_mib();

  check_pass(pass, opt.seed, rep);
  count_pass(pass, rep);

  const double points = pass.points_built();
  std::string pass_list;
  for (const double t : totals) pass_list += " " + fmt(t);
  rep.note("build: " + std::to_string(totals.size()) + " warm passes (wall s):" + pass_list +
           "; median " + fmt(median(totals)) + " s wall, " + fmt(median(cpu_totals)) +
           " s processor; " + fmt(points / median(totals), 6) + " points/s");
  if (!opt.trace) {
    rep.metric("setup_s", median(cpu_totals), "s");
    rep.metric("ops_per_cpu_s", points / median(cpu_totals), "1/s");
    rep.metric("peak_rss_mib", rss, "MiB");
    return;
  }

  double full[kStages];
  for (int s = 0; s < kStages; ++s) full[s] = mean(stage_traced[s]);
  rep.metric("geograph.generate_s", full[kGenerate], "s");
  rep.metric("spatial.reorder_s", full[kReorder], "s");
  rep.metric("geograph.udg_build_s", full[kUdg], "s");
  rep.metric("geograph.udg_ns_per_edge",
             full[kUdg] * 1e9 / static_cast<double>(pass.udg.graph.num_edges()), "ns");
  rep.metric("hng.build_s", full[kHngBuild], "s");
  rep.metric("core.udg_sens_build_s", full[kUdgSens], "s");
  rep.metric("core.nn_sens_build_s", full[kNnSens], "s");
  rep.metric("spatial.knn_candidates_per_query",
             static_cast<double>(pass.knn_candidates) / static_cast<double>(pass.knn_queries),
             "count");
  rep.metric("spatial.knn_cells_per_query",
             static_cast<double>(pass.knn_cells) / static_cast<double>(pass.knn_queries), "count");
  rep.metric("tiles.good_frac", pass.udg_sens.overlay.sites.open_fraction(), "frac");
  rep.metric("support.pool_helper_claims_per_job", claims_per_job(pool0, pool1), "count");
  rep.metric("obs.trace_overhead_frac", mean(traced_totals) / mean(untraced_totals) - 1.0,
             "frac");
  rep.metric("support.cpu_per_wall", median(cpu_totals) / median(totals), "ratio");

  // Slopes: every stage once more at a quarter of its size (traced).
  if (!opt.small) {
    double full_points[kStages];
    for (int s = 0; s < kStages; ++s) full_points[s] = pass.points[s];
    set_tracing(true);
    run_pass(kQuarter, opt.seed, pass);
    set_tracing(false);
    rep.attempts(kStages);
    const char* slope_name[kStages] = {"geograph.generate_slope", "spatial.reorder_slope",
                                       "geograph.udg_build_slope", "hng.build_slope",
                                       "core.udg_sens_build_slope", "core.nn_sens_build_slope"};
    for (int s = 0; s < kStages; ++s) {
      rep.metric(slope_name[s],
                 loglog_slope(pass.t[s].wall, pass.points[s], full[s], full_points[s]), "ratio");
    }
  }
}

}  // namespace perfbench
