// Brute-force k-NN oracle shared by the spatial and geograph tests: sort
// every point by (squared distance, index) and keep the first k. Slow and
// obviously right, so the GridKnn engine and the batched builders built on
// it are checked against the definition, ties included.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sens/geometry/vec2.hpp"

namespace sens {

/// Indices of the k points of `pts` nearest to `q`, excluding index
/// `exclude` (0xffffffff = exclude nothing), sorted by (distance², index).
inline std::vector<std::uint32_t> brute_knn(std::span<const Vec2> pts, Vec2 q, std::size_t k,
                                            std::uint32_t exclude = 0xffffffffu) {
  std::vector<std::uint32_t> order(pts.size());
  std::iota(order.begin(), order.end(), 0u);
  std::erase(order, exclude);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double da = dist2(pts[a], q);
    const double db = dist2(pts[b], q);
    return da != db ? da < db : a < b;
  });
  order.resize(std::min(k, order.size()));
  return order;
}

}  // namespace sens
