// A2 — ablation: the NN occupancy cap (<= k/2 points per tile).
//
// The cap is what makes Claim 2.3's k-NN edge argument work (any in-domain
// disk holds <= k points). Removing it raises P(good) toward the
// regions-occupied ceiling but breaks the edge guarantee; this bench
// quantifies both sides: the probability gained and the overlay edges that
// fail to exist in NN(2, k) once over-crowded tiles are declared good.
#include "bench_common.hpp"
#include "sens/core/metrics.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/tiles/good_prob.hpp"

using namespace sens;
using namespace sens::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv);
  env.header("A2 / ablation (NN occupancy cap)",
             "goodness requires <= k/2 points per tile (Section 2.2 condition 1)");

  const std::size_t trials = 5000 * env.scale;
  Table t({"k", "P(good) with cap", "P(good) without cap", "cap cost"});
  const NnGoodCurve curve(0.893, trials, env.seed);
  const double no_cap = curve.occupancy_only().estimate();
  for (const std::size_t k : {150u, 170u, 188u, 213u, 260u}) {
    const double with_cap = curve.probability_at(k).estimate();
    t.add_row({Table::fmt_int(static_cast<long long>(k)), Table::fmt(with_cap, 4),
               Table::fmt(no_cap, 4), Table::fmt(no_cap - with_cap, 4)});
  }
  env.emit("probability side: what the cap costs", t);

  // Guarantee side: declare tiles good ignoring the cap, then realize edges
  // against the true NN(2, 188) selections and count the violations.
  const int tiles = env.scale > 1 ? 14 : 9;
  const NnTileSpec spec = NnTileSpec::paper();
  const NnSensResult capped = build_nn_sens(spec, tiles, tiles, env.seed + 5);

  const NnTileSpec uncapped_spec(0.893, 1u << 20);  // effectively no cap
  NnClassification loose = classify_nn(uncapped_spec, capped.points.points,
                                       capped.classification.window);
  loose.k = spec.k();  // realize edges against the real k = 188 graph
  const Overlay loose_overlay = build_nn_overlay(loose, capped.points.points);

  Table g({"variant", "good tiles", "edges expected", "edges missing", "claim paths realized"});
  const ClaimCheck c_capped = check_adjacent_tile_paths(capped.overlay);
  const ClaimCheck c_loose = check_adjacent_tile_paths(loose_overlay);
  g.add_row({"with cap (paper)", Table::fmt_int(static_cast<long long>(capped.classification.good_count())),
             Table::fmt_int(static_cast<long long>(capped.overlay.edges_expected)),
             Table::fmt_int(static_cast<long long>(capped.overlay.edges_missing)),
             Table::fmt(c_capped.realized_fraction(), 4)});
  g.add_row({"without cap", Table::fmt_int(static_cast<long long>(loose.good_count())),
             Table::fmt_int(static_cast<long long>(loose_overlay.edges_expected)),
             Table::fmt_int(static_cast<long long>(loose_overlay.edges_missing)),
             Table::fmt(c_loose.realized_fraction(), 4)});
  env.emit("guarantee side: edge realization in NN(2, 188)", g);

  env.footer();
  return 0;
}
