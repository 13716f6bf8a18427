#include "sens/core/nn_sens.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "sens/spatial/grid_knn.hpp"

namespace sens {

namespace {

/// Lazy cache of k-NN selections for the (few) overlay nodes. Queries go
/// through one reused scratch buffer, so only the cached result allocates.
class KnnEdgeOracle {
 public:
  KnnEdgeOracle(std::span<const Vec2> points, std::size_t k) : index_(points, k), k_(k) {}

  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) {
    return selects(u, v) || selects(v, u);
  }

 private:
  [[nodiscard]] bool selects(std::uint32_t from, std::uint32_t to) {
    auto it = cache_.find(from);
    if (it == cache_.end()) {
      index_.nearest_into(index_.points()[from], k_, from, scratch_, found_);
      std::sort(found_.begin(), found_.end());
      it = cache_.emplace(from, found_).first;
    }
    return std::binary_search(it->second.begin(), it->second.end(), to);
  }

  GridKnn index_;
  std::size_t k_;
  GridKnn::QueryScratch scratch_;
  std::vector<std::uint32_t> found_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> cache_;
};

}  // namespace

Overlay build_nn_overlay(const NnClassification& cls, std::span<const Vec2> points) {
  Overlay ov;
  ov.window = cls.window;
  ov.tile_side = 10.0 * cls.a;
  ov.sites = cls.site_grid();
  ov.rep_node.assign(cls.window.tile_count(), Overlay::no_node());
  ov.exit_chain.assign(cls.window.tile_count(), {});

  std::unordered_map<std::uint32_t, std::uint32_t> node_of_point;
  auto overlay_node = [&](std::uint32_t point_idx) {
    auto [it, inserted] = node_of_point.try_emplace(
        point_idx, static_cast<std::uint32_t>(ov.base_index.size()));
    if (inserted) ov.base_index.push_back(point_idx);
    return it->second;
  };

  KnnEdgeOracle oracle(points, cls.k);
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
