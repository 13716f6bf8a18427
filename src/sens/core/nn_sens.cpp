#include "sens/core/nn_sens.hpp"

#include <utility>
#include <vector>

namespace sens {

KnnEdgeOracle::KnnEdgeOracle(std::span<const Vec2> points, std::size_t k)
    : points_(points), index_(points, /*expected_k=*/4), k_(k) {}

bool KnnEdgeOracle::selects(std::uint32_t u, std::uint32_t v) const {
  const Vec2 pu = points_[u];
  const double dx = points_[v].x - pu.x;
  const double dy = points_[v].y - pu.y;
  const double d2v = dx * dx + dy * dy;
  // The index filters by the same arithmetic, so every w with d2 <= d2v
  // is visited. u itself is always visited, so k = 0 stops at the first
  // visit and selects nothing.
  std::size_t ahead = 0;
  const bool k_ahead = index_.for_each_in_radius_until(pu, d2v, [&](std::uint32_t w, double d2) {
    ahead += w != u && (d2 < d2v || (d2 == d2v && w < v));
    return ahead >= k_;
  });
  return !k_ahead;
}

Overlay build_nn_overlay(const NnClassification& cls, std::span<const Vec2> points) {
  Overlay ov;
  ov.window = cls.window;
  ov.tile_side = 10.0 * cls.a;
  ov.sites = cls.site_grid();
  ov.rep_node.assign(cls.window.tile_count(), Overlay::no_node());
  ov.exit_chain.assign(cls.window.tile_count(), {});

  // Overlay node of each point (no_node() until a role first names it).
  std::vector<std::uint32_t> node_of_point(points.size(), Overlay::no_node());
  auto overlay_node = [&](std::uint32_t point_idx) {
    std::uint32_t& node = node_of_point.at(point_idx);
    if (node == Overlay::no_node()) {
      node = static_cast<std::uint32_t>(ov.base_index.size());
      ov.base_index.push_back(point_idx);
    }
    return node;
  };

  const KnnEdgeOracle oracle(points, cls.k);
  CsrGraph::Builder edges;
  auto try_edge = [&](std::uint32_t a, std::uint32_t b) {
    if (a == b) return;
    ++ov.edges_expected;
    if (oracle.has_edge(ov.base_index[a], ov.base_index[b])) {
      edges.add_edge(a, b);
    } else {
      ++ov.edges_missing;
    }
  };

  const SiteGrid& grid = ov.sites;
  for (std::int32_t y = 0; y < grid.height(); ++y) {
    for (std::int32_t x = 0; x < grid.width(); ++x) {
      const Site s{x, y};
      if (!grid.open(s)) continue;
      const std::size_t idx = ov.tile_index(s);
      const NnTileNodes& tn = cls.nodes[idx];
      const std::uint32_t rep = overlay_node(tn.rep);
      ov.rep_node[idx] = rep;
      for (int dir = 0; dir < 4; ++dir) {
        const auto d = static_cast<std::size_t>(dir);
        const std::uint32_t e_relay = overlay_node(tn.e_relay[d]);
        const std::uint32_t c_relay = overlay_node(tn.c_relay[d]);
        ov.exit_chain[idx][d] = {e_relay, c_relay};
        try_edge(rep, e_relay);
        try_edge(e_relay, c_relay);
      }
    }
  }

  for (std::int32_t y = 0; y < grid.height(); ++y) {
    for (std::int32_t x = 0; x < grid.width(); ++x) {
      const Site s{x, y};
      if (!grid.open(s)) continue;
      const std::size_t idx = ov.tile_index(s);
      for (int dir : {0, 2}) {
        const Site n{x + (dir == 0 ? 1 : 0), y + (dir == 2 ? 1 : 0)};
        if (!grid.in_bounds(n) || !grid.open(n)) continue;
        const std::size_t nidx = ov.tile_index(n);
        const std::uint32_t a = ov.exit_chain[idx][static_cast<std::size_t>(dir)].back();
        const std::uint32_t b =
            ov.exit_chain[nidx][static_cast<std::size_t>(opposite_dir(dir))].back();
        try_edge(a, b);
      }
    }
  }

  ov.geo.points.reserve(ov.base_index.size());
  for (const std::uint32_t p : ov.base_index) ov.geo.points.push_back(points[p]);
  ov.geo.graph = std::move(edges).build(ov.base_index.size());
  ov.comps = connected_components(ov.geo.graph);
  return ov;
}

NnSensResult build_nn_sens(const NnTileSpec& spec, int tiles_x, int tiles_y, std::uint64_t seed,
                           double buffer_tiles) {
  NnSensResult result;
  const Tiling tiling(spec.side());
  const TileWindow window{0, 0, tiles_x, tiles_y};
  const Box sample_bounds = window.bounds(tiling).expanded(buffer_tiles * spec.side());
  result.points = poisson_point_set(sample_bounds, 1.0, seed);
  result.classification = classify_nn(spec, result.points.points, window);
  result.overlay = build_nn_overlay(result.classification, result.points.points);
  return result;
}

}  // namespace sens
