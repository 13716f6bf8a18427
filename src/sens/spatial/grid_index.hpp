// Uniform grid over a point set for fixed-radius neighbor queries.
//
// The unit-disk graph builder needs all pairs within distance 1; bucketing
// points into cells of side >= query radius makes that a 3x3 cell scan per
// point. Storage is CSR-style and cell-ordered: `offsets_` delimits each
// cell's bucket, and the bucket slots hold the point ids (`order_`) next to
// their coordinates (`points_`), both in bucket order. Cells of one grid row
// are adjacent in that order, so a query reads each row of its block as one
// contiguous span — no indirection from an id to its coordinates — and
// allocates nothing.
//
// The visitor entry points are templates (header-only hot path): the
// caller's lambda is invoked directly with zero type erasure — no
// `std::function` construction or indirect call per query, which matters
// because `build_udg` issues two queries per point (DESIGN.md §2.3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sens/geometry/box.hpp"
#include "sens/geometry/vec2.hpp"

namespace sens {

class GridIndex {
 public:
  /// Builds an index over `points` with cells of side `cell_size` (must be
  /// > 0). Points outside `bounds` are clamped into the edge cells. Throws
  /// std::invalid_argument if a point or bound coordinate is not finite.
  GridIndex(std::span<const Vec2> points, Box bounds, double cell_size);

  /// Invoke `visit(j)` — or `visit(j, d2)`, if the visitor takes the squared
  /// distance too — for every point j with d2 = dist2(points[j], q) <=
  /// radius². d2 is computed as dx*dx + dy*dy with dx = points[j].x - q.x,
  /// the arithmetic of `GridKnn`. Exhaustive for every radius: the scan
  /// covers ceil(radius / cell_size) rings of cells around q's cell (3x3
  /// when radius <= cell_size, growing quadratically for larger radii).
  /// Visit order is deterministic: row-major over cells, then bucket order
  /// (ascending id) within a cell. A negative radius visits nothing; throws
  /// std::invalid_argument if `q` is not finite or `radius` is NaN.
  template <typename Visitor>
  void for_each_in_radius(Vec2 q, double radius, Visitor&& visit) const {
    for_each_in_radius_until(q, radius, [&](std::uint32_t j, double d2) {
      call_visitor(visit, j, d2);
      return false;
    });
  }

  /// Like `for_each_in_radius`, but the visitor returns true to stop the
  /// scan early. Returns true when a visitor stopped it (i.e. some point
  /// satisfied the visitor), false when the scan ran to completion.
  template <typename Visitor>
  bool for_each_in_radius_until(Vec2 q, double radius, Visitor&& visit) const {
    const Block b = block(q, radius);
    for (long y = b.y_lo; y <= b.y_hi; ++y) {
      const auto [t0, t1] = row_span(y, b);
      for (std::uint32_t t = t0; t < t1; ++t) {
        const double d2 = dist2(points_[t], q);
        if (d2 <= b.r2 && call_visitor(visit, order_[t], d2)) return true;
      }
    }
    return false;
  }

  /// Number of points within `radius` of q — the visit count of
  /// `for_each_in_radius`, tallied without a branch per point. Same
  /// argument checks.
  [[nodiscard]] std::size_t count_in_radius(Vec2 q, double radius) const {
    const Block b = block(q, radius);
    std::size_t count = 0;
    for (long y = b.y_lo; y <= b.y_hi; ++y) {
      const auto [t0, t1] = row_span(y, b);
      for (std::uint32_t t = t0; t < t1; ++t) count += dist2(points_[t], q) <= b.r2;
    }
    return count;
  }

  /// CSR-style collector: write every index within `radius` of q into `out`
  /// (cleared first; capacity is reused — allocation-free once warm).
  /// Returns the number written. Order is the deterministic scan order of
  /// `for_each_in_radius`, NOT sorted.
  std::size_t query_radius_into(Vec2 q, double radius, std::vector<std::uint32_t>& out) const {
    out.clear();
    for_each_in_radius(q, radius, [&](std::uint32_t j) { out.push_back(j); });
    return out.size();
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }

 private:
  /// The cell rows and columns a query scans, and its squared radius. An
  /// empty block (y_lo > y_hi) scans nothing.
  struct Block {
    long x_lo = 0, x_hi = -1, y_lo = 0, y_hi = -1;
    double r2 = 0.0;
  };

  [[nodiscard]] Block block(Vec2 q, double radius) const {
    if (!is_finite(q) || std::isnan(radius)) [[unlikely]] {
      throw std::invalid_argument("GridIndex: query point must be finite and radius not NaN");
    }
    Block b;
    if (radius < 0.0) return b;
    b.r2 = radius * radius;
    // Rings past the far edge add nothing, so reach is capped in floating
    // point before the conversion (a huge or infinite radius stays defined).
    const long reach = static_cast<long>(std::clamp(
        std::ceil(radius / cell_size_), 1.0, static_cast<double>(std::max(nx_, ny_))));
    const long cx = axis_cell(q.x, bounds_.lo.x, nx_);
    const long cy = axis_cell(q.y, bounds_.lo.y, ny_);
    b.y_lo = std::max<long>(cy - reach, 0);
    b.y_hi = std::min<long>(cy + reach, static_cast<long>(ny_) - 1);
    b.x_lo = std::max<long>(cx - reach, 0);
    b.x_hi = std::min<long>(cx + reach, static_cast<long>(nx_) - 1);
    return b;
  }

  /// Bucket slots [first, second) of the block's cells in row y: cells of
  /// one row are adjacent in bucket order, so this is a single span.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> row_span(long y, const Block& b) const {
    const std::size_t row = static_cast<std::size_t>(y) * nx_;
    return {offsets_[row + static_cast<std::size_t>(b.x_lo)],
            offsets_[row + static_cast<std::size_t>(b.x_hi) + 1]};
  }

  /// Calls `visit(j, d2)` or `visit(j)`, whichever the visitor accepts.
  template <typename Visitor>
  static decltype(auto) call_visitor(Visitor& visit, std::uint32_t j, double d2) {
    if constexpr (std::is_invocable_v<Visitor&, std::uint32_t, double>) {
      return visit(j, d2);
    } else {
      return visit(j);
    }
  }

  /// Column/row of coordinate v along an axis of `cells` cells from `lo`,
  /// clamped in floating point first so that any finite v (however far off
  /// the grid) converts safely.
  [[nodiscard]] long axis_cell(double v, double lo, std::size_t cells) const {
    const double c = std::floor((v - lo) / cell_size_);
    if (c <= 0.0) return 0;
    if (c >= static_cast<double>(cells - 1)) return static_cast<long>(cells) - 1;
    return static_cast<long>(c);
  }
  [[nodiscard]] std::size_t cell_of(Vec2 p) const;

  Box bounds_;
  double cell_size_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<std::uint32_t> offsets_;  // nx*ny + 1; cell c owns slots [offsets_[c], offsets_[c+1])
  std::vector<std::uint32_t> order_;    // slot -> point id, ascending within a cell
  std::vector<Vec2> points_;            // slot -> coordinates of point order_[slot]
};

}  // namespace sens
