#include "sens/geograph/udg.hpp"

#include <stdexcept>

#include "sens/graph/flat_adjacency.hpp"
#include "sens/spatial/grid_knn.hpp"

namespace sens {

GeoGraph build_udg(std::span<const Vec2> points, Box /*bounds*/, double radius) {
  if (radius <= 0.0) throw std::invalid_argument("build_udg: radius <= 0");
  GeoGraph gg;
  gg.points.assign(points.begin(), points.end());

  // Two-pass count-then-write straight into CSR shape (DESIGN.md §2.3/§2.4):
  // pass 1 counts each vertex's in-radius neighbors, pass 2 writes the
  // disjoint adjacency slices — no intermediate edge-pair list, no global
  // sort, and the result is bit-identical at any thread count. The
  // adjacency is symmetric by construction because dist2 is exact-symmetric
  // in its arguments.
  const GridKnn index(points, GridKnn::CellSide{radius});
  const double r2 = radius * radius;
  FlatAdjacency adj = build_flat_adjacency(
      points.size(),
      // The disk around points[i] always holds point i itself.
      [&](std::size_t i) { return index.count_in_radius(points[i], r2) - 1; },
      [&](std::size_t i, std::uint32_t* out) {
        index.for_each_in_radius_until(points[i], r2, [&](std::uint32_t j) {
          if (j != i) *out++ = j;
          return false;
        });
      });
  gg.graph = CsrGraph::from_symmetric_adjacency(std::move(adj));
  return gg;
}

}  // namespace sens
