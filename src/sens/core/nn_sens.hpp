// NN-SENS(2, k) construction (Section 2.2).
//
// Same pipeline as UDG-SENS with two differences:
//   * points are sampled on a window enlarged by a buffer so that k-NN
//     neighborhoods of interior tiles are not distorted by the boundary;
//   * overlay edges must exist in the k-NN graph NN(2, k). Existence is
//     decided per edge (edge {u,v} exists iff v in kNN(u) or u in kNN(v))
//     by `KnnEdgeOracle`'s bounded count, a radius scan of a GridKnn — no
//     k-NN list is built and the full 3M-edge CSR graph is never
//     materialized.
//
// Per Claim 2.3, when adjacent tiles are both good the 5-edge path
// rep - E relay - C relay - C' relay - E' relay - rep' is guaranteed; the
// builder counts any violation (expected zero; verified by tests and E5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sens/core/overlay.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/spatial/grid_knn.hpp"
#include "sens/tiles/classify.hpp"

namespace sens {

/// Edge test of NN(2, k) over `points`, nearest meaning first in the
/// (squared distance, index) order of `GridKnn` (d² = dx*dx + dy*dy with
/// dx = p_w.x - p_u.x). v is among u's k nearest iff fewer than k points
/// w != u precede v in u's order, and every such w lies in the disk of
/// radius |uv| about u — so each test is one radius scan that stops once
/// it has counted k. The scans run on a GridKnn tuned for k = 4 (about one
/// point per cell): the disks an overlay edge test scans are a few tile
/// radii wide, well inside the k-NN radius, so fine cells keep the scanned
/// rows close to the disk. The grid holds its own copy of the coordinates;
/// `selects` reads the endpoints from `points`, which the caller keeps
/// alive and unchanged.
class KnnEdgeOracle {
 public:
  KnnEdgeOracle(std::span<const Vec2> points, std::size_t k);

  /// True iff v is among u's k nearest neighbors (u != v).
  [[nodiscard]] bool selects(std::uint32_t u, std::uint32_t v) const;

  /// True iff {u, v} is an edge of NN(2, k): either selects the other.
  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) const {
    return selects(u, v) || selects(v, u);
  }

 private:
  std::span<const Vec2> points_;
  GridKnn index_;
  std::size_t k_;
};

/// Overlay from an existing classification over the same `points` it was
/// built from. Edge existence is checked against NN(2, cls.k) on `points`.
[[nodiscard]] Overlay build_nn_overlay(const NnClassification& cls, std::span<const Vec2> points);

struct NnSensResult {
  PointSet points;
  NnClassification classification;
  Overlay overlay;
};

/// End-to-end build of NN-SENS on a tiles_x x tiles_y window (unit density;
/// the NN model is scale free). `buffer_tiles` widens the sampling window on
/// every side so interior k-NN neighborhoods are exact.
[[nodiscard]] NnSensResult build_nn_sens(const NnTileSpec& spec, int tiles_x, int tiles_y,
                                         std::uint64_t seed, double buffer_tiles = 1.0);

}  // namespace sens
