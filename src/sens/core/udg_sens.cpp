#include "sens/core/udg_sens.hpp"

#include <utility>
#include <vector>

namespace sens {

Overlay build_udg_overlay(const UdgClassification& cls, std::span<const Vec2> points) {
  Overlay ov;
  ov.window = cls.window;
  ov.tile_side = cls.spec.side;
  ov.sites = cls.site_grid();
  ov.rep_node.assign(cls.window.tile_count(), Overlay::no_node());
  ov.exit_chain.assign(cls.window.tile_count(), {});

  // Dedupe overlay nodes: one point may serve several roles (e.g. relay for
  // two adjacent directions when the lenses overlap).
  std::vector<std::uint32_t> node_of_point(points.size(), Overlay::no_node());
  auto overlay_node = [&](std::uint32_t point_idx) {
    std::uint32_t& node = node_of_point.at(point_idx);
    if (node == Overlay::no_node()) {
      node = static_cast<std::uint32_t>(ov.base_index.size());
      ov.base_index.push_back(point_idx);
    }
    return node;
  };

  CsrGraph::Builder edges;
  const double link2 = cls.spec.link_radius * cls.spec.link_radius;
  auto try_edge = [&](std::uint32_t a, std::uint32_t b) {
    ++ov.edges_expected;
    if (dist2(points[ov.base_index[a]], points[ov.base_index[b]]) <= link2) {
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
      const UdgTileNodes& tn = cls.nodes[idx];
      const std::uint32_t rep = overlay_node(tn.rep);
      ov.rep_node[idx] = rep;
      for (int dir = 0; dir < 4; ++dir) {
        const std::uint32_t relay = overlay_node(tn.relay[static_cast<std::size_t>(dir)]);
        ov.exit_chain[idx][static_cast<std::size_t>(dir)] = {relay};
        if (relay != rep) try_edge(rep, relay);
      }
    }
  }

  // Cross-tile relay handshakes (directions +x and +y to visit each pair once).
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
        if (a != b) try_edge(a, b);
      }
    }
  }

  ov.geo.points.reserve(ov.base_index.size());
  for (const std::uint32_t p : ov.base_index) ov.geo.points.push_back(points[p]);
  ov.geo.graph = std::move(edges).build(ov.base_index.size());
  ov.comps = connected_components(ov.geo.graph);
  return ov;
}

UdgSensResult build_udg_sens(const UdgTileSpec& spec, double lambda, int tiles_x, int tiles_y,
                             std::uint64_t seed) {
  UdgSensResult result;
  const Tiling tiling(spec.side);
  const TileWindow window{0, 0, tiles_x, tiles_y};
  result.points = poisson_point_set(window.bounds(tiling), lambda, seed);
  result.classification = classify_udg(spec, result.points.points, window);
  result.overlay = build_udg_overlay(result.classification, result.points.points);
  return result;
}

}  // namespace sens
