#include "sens/spatial/grid_index.hpp"

#include <stdexcept>

namespace sens {

GridIndex::GridIndex(std::span<const Vec2> points, Box bounds, double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  if (cell_size_ <= 0.0) throw std::invalid_argument("GridIndex: cell_size <= 0");
  if (!is_finite(bounds_.lo) || !is_finite(bounds_.hi)) {
    throw std::invalid_argument("GridIndex: bounds must be finite");
  }
  nx_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(bounds_.width() / cell_size_)));
  ny_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(bounds_.height() / cell_size_)));

  const std::size_t cells = nx_ * ny_;
  std::vector<std::uint32_t> counts(cells, 0);
  for (const Vec2& p : points) {
    if (!is_finite(p)) throw std::invalid_argument("GridIndex: point coordinates must be finite");
    ++counts[cell_of(p)];
  }

  offsets_.assign(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) offsets_[c + 1] = offsets_[c] + counts[c];

  order_.resize(points.size());
  points_.resize(points.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    const std::uint32_t slot = cursor[cell_of(points[i])]++;
    order_[slot] = i;
    points_[slot] = points[i];
  }
}

std::size_t GridIndex::cell_of(Vec2 p) const {
  const long ix = axis_cell(p.x, bounds_.lo.x, nx_);
  const long iy = axis_cell(p.y, bounds_.lo.y, ny_);
  return static_cast<std::size_t>(iy) * nx_ + static_cast<std::size_t>(ix);
}

}  // namespace sens
