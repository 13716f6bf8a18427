// E16 — dynamic HNG maintenance under churn vs full rebuilds.
//
// The HNG paper (arXiv:0903.0742) argues the structure is cheap to maintain
// as sensors join and leave: a join links locally, a leave orphans only the
// bounded set of nodes that had selected it. This bench drives a DynamicHng
// through three churn regimes — a balanced trickle, a flash crowd of joins,
// and a flash crowd of leaves — and reports the per-event repair work
// (nodes relinked, overlay edge delta), the structure quality after each
// phase (degree, components, sampled length stretch), and whether the
// incrementally maintained overlay is still *bit-identical* to a fresh
// batch build over the survivors (it must be: DESIGN.md §2.7, the
// `churn` test tier enforces it per event).
//
// Wall-clock — amortized cost per event vs a full rebuild per event — is
// printed as a table but kept out of the --json document, which must stay
// byte-identical across runs and --threads values (the bench-json CI job
// cmp's it). Measured runs are recorded in bench/BENCH_churn.json.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/graph/components.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/stats.hpp"

using namespace sens;
using namespace sens::bench;

namespace {

struct PhaseSpec {
  std::string name;
  std::size_t events;
  double p_join;
};

struct PhaseRun {
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t relinked = 0;
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  double seconds = 0.0;
};

/// Drive one churn phase. Joins drop a uniform point into the window (the
/// stationary regime of the Poisson workload); leaves evict a uniformly
/// random live slot. All draws come from a dedicated (seed, 0xE16, phase)
/// stream, so the trace — and with it the whole json document — is a pure
/// function of (seed, scale).
PhaseRun run_phase(DynamicHng& dyn, const Box& window, const PhaseSpec& spec,
                   std::uint64_t seed, std::size_t phase_index) {
  Rng rng = Rng::stream(seed, 0xE16, phase_index);
  PhaseRun run;
  Timer timer;
  for (std::size_t e = 0; e < spec.events; ++e) {
    if (dyn.size() == 0 || rng.bernoulli(spec.p_join)) {
      dyn.insert({rng.uniform(window.lo.x, window.hi.x), rng.uniform(window.lo.y, window.hi.y)});
      ++run.joins;
    } else {
      dyn.remove(static_cast<std::uint32_t>(rng.uniform_index(dyn.size())));
      ++run.leaves;
    }
    run.relinked += dyn.last_event().relinked;
    run.edges_added += dyn.last_event().edges_added;
    run.edges_removed += dyn.last_event().edges_removed;
  }
  run.seconds = timer.seconds();
  return run;
}

/// Mean length stretch over sampled far pairs (shortest path / straight
/// line), the quality signal that would drift if maintenance ever went
/// stale. Deterministic: pinned pair stream, exact Dijkstra.
double sampled_stretch(std::span<const Vec2> points, const CsrGraph& g, std::uint64_t seed,
                       std::size_t pairs) {
  const std::vector<double> w =
      g.arc_weights([&](std::uint32_t u, std::uint32_t v) { return dist(points[u], points[v]); });
  Rng pick = Rng::stream(seed, 0xE16, 0xFA12);
  DijkstraScratch scratch;
  RunningStats stretch;
  for (std::size_t t = 0; t < pairs * 6 && stretch.count() < pairs; ++t) {
    const auto a = static_cast<std::uint32_t>(pick.uniform_index(points.size()));
    const auto b = static_cast<std::uint32_t>(pick.uniform_index(points.size()));
    const double straight = dist(points[a], points[b]);
    if (a == b || straight < 5.0) continue;
    const double len = dijkstra_cost(g, a, b, w, scratch);
    if (len >= kInfCost) continue;
    stretch.add(len / straight);
  }
  return stretch.mean();
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv);
  env.header("E16 / dynamic HNG maintenance under churn",
             "an HNG absorbs joins and leaves with bounded local repair — per-event "
             "relink work orders of magnitude below a full rebuild, with the overlay "
             "bit-identical to batch construction throughout (arXiv:0903.0742)");

  const Box window{{0.0, 0.0}, {20.0, 20.0}};
  const double lambda = 4.0;
  const HngParams params{.promote_p = 0.25, .k = 3, .max_level = 48};
  const PointSet ps = poisson_point_set(window, lambda, env.seed);

  Timer timer;
  DynamicHng dyn(ps.points, params, env.seed);
  const double adopt_ms = timer.millis();
  timer.reset();
  const HngResult batch = build_hng(ps.points, params, env.seed);
  const double batch_ms = timer.millis();
  const bool adoption_identical =
      dyn.overlay().edge_list() == batch.geo.graph.edge_list();

  const std::vector<PhaseSpec> phases{
      {"trickle (p_join=0.5)", 300 * env.scale, 0.5},
      {"flash-crowd join (p_join=0.9)", 400 * env.scale, 0.9},
      {"flash-crowd leave (p_join=0.1)", 400 * env.scale, 0.1},
  };

  Table work({"phase", "events", "joins", "leaves", "n end", "edges end", "relinked/event",
              "edge delta/event"});
  Table quality({"phase", "components", "mean degree", "max degree", "top level",
                 "length stretch (sampled mean)", "identical to full rebuild"});
  Table clock({"phase", "maintain us/event", "snapshot ms (deferred)", "full rebuild ms",
               "rebuild/event ratio"});
  clock.add_row({"initial bulk adoption (" + Table::fmt_int(static_cast<long long>(ps.size())) +
                     " nodes, vs one batch build)",
                 Table::fmt(adopt_ms * 1e3 / static_cast<double>(ps.size()), 3), "-",
                 Table::fmt(batch_ms, 2), "-"});

  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& spec = phases[i];
    const PhaseRun run = run_phase(dyn, window, spec, env.seed, i + 1);
    const auto events = static_cast<double>(spec.events);

    // First overlay() read after the burst: pays the one rebuild from the
    // maintained selections for the whole phase (timed separately — the
    // honest cost of reading a CSR snapshot under deferred materialization).
    timer.reset();
    (void)dyn.overlay();
    const double snapshot_ms = timer.millis();

    timer.reset();
    const HngResult fresh = build_hng(dyn.points(), params, env.seed);
    const double rebuild_ms = timer.millis();
    const bool identical = dyn.overlay().edge_list() == fresh.geo.graph.edge_list();

    work.add_row({spec.name, Table::fmt_int(static_cast<long long>(spec.events)),
                  Table::fmt_int(static_cast<long long>(run.joins)),
                  Table::fmt_int(static_cast<long long>(run.leaves)),
                  Table::fmt_int(static_cast<long long>(dyn.size())),
                  Table::fmt_int(static_cast<long long>(dyn.overlay().num_edges())),
                  Table::fmt(static_cast<double>(run.relinked) / events, 3),
                  Table::fmt(static_cast<double>(run.edges_added + run.edges_removed) / events,
                             3)});
    quality.add_row(
        {spec.name,
         Table::fmt_int(static_cast<long long>(connected_components(dyn.overlay()).count())),
         Table::fmt(dyn.overlay().mean_degree(), 4),
         Table::fmt_int(static_cast<long long>(dyn.overlay().max_degree())),
         Table::fmt_int(dyn.top_level()),
         Table::fmt(sampled_stretch(dyn.points(), dyn.overlay(), env.seed, 24 * env.scale), 4),
         identical ? "yes" : "NO"});
    const double us_per_event = run.seconds * 1e6 / events;
    clock.add_row({spec.name, Table::fmt(us_per_event, 3), Table::fmt(snapshot_ms, 2),
                   Table::fmt(rebuild_ms, 2), Table::fmt(rebuild_ms * 1e3 / us_per_event, 3)});
  }

  env.emit("per-event repair work (the paper's bounded-local-maintenance claim: a join or "
           "leave relinks a handful of nodes, never the deployment)",
           work);
  env.emit("structure quality at phase end (the maintained overlay must stay bit-identical "
           "to a fresh batch build over the survivors; adoption check: " +
               std::string(adoption_identical ? "identical" : "DIVERGED") + ")",
           quality);

  // Wall-clock is deliberately *not* emitted: the --json document must be
  // byte-identical across runs and --threads values.
  std::cout << "**maintenance cost vs full rebuild (excluded from --json)**\n\n";
  clock.print(std::cout);
  std::cout << "\nnote: the rebuild/event ratio is the speedup of incremental maintenance over\n"
               "rebuilding from scratch at every event; BENCH_churn.json records measured runs.\n\n";
  env.footer();
  return 0;
}
