#include "sens/spatial/grid_knn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sens/obs/obs.hpp"

namespace sens {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

#if SENS_OBS_ENABLED
/// Stack-local work tally for one k-NN query, flushed to the obs registry
/// on scope exit. Per-query cell/candidate counts are pure functions of
/// (index contents, query), so registry totals are thread-invariant
/// (DESIGN.md §2.10).
struct ObsTally {
  std::uint64_t cells = 0;
  std::uint64_t candidates = 0;
  ~ObsTally() {
    obs::add(obs::Counter::kGridKnnQueries, 1);
    obs::add(obs::Counter::kGridKnnCellsScanned, cells);
    obs::add(obs::Counter::kGridKnnCandidates, candidates);
  }
};
#endif

void require_finite_query(Vec2 q) {
  if (!is_finite(q)) throw std::invalid_argument("GridKnn: query point must be finite");
}

void require_finite_point(Vec2 p) {
  if (!is_finite(p)) throw std::invalid_argument("GridKnn: point coordinates must be finite");
}

void require_id(std::uint32_t id) {
  if (id == GridKnn::npos) throw std::out_of_range("GridKnn: member id npos is reserved");
}

/// The box spanned by `lo` and `hi` must have a finite width and height:
/// the cell map divides coordinate differences by the cell side.
void require_finite_extent(Vec2 lo, Vec2 hi) {
  if (!std::isfinite(hi.x - lo.x) || !std::isfinite(hi.y - lo.y)) {
    throw std::invalid_argument("GridKnn: bounding box too wide for a double");
  }
}

/// Final prune + sort shared by collect_large's exits: keep the k best
/// under the strict (d2, idx) order, sorted.
void finish_large(std::size_t k, std::vector<GridKnn::QueryScratch::Candidate>& cands) {
  if (cands.size() > k) {
    std::nth_element(cands.begin(), cands.begin() + static_cast<std::ptrdiff_t>(k) - 1,
                     cands.end());
    cands.resize(k);
  }
  std::sort(cands.begin(), cands.end());
}

/// Ids 0..n-1 for the point-list constructors. Ids are std::uint32_t with
/// npos reserved as the tombstone marker, so n must stay below npos
/// (DESIGN.md §2.8).
std::vector<std::uint32_t> all_ids(std::size_t n) {
  if (n >= GridKnn::npos) {
    throw std::overflow_error("GridKnn: point store exceeds the 32-bit id space");
  }
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

}  // namespace

GridKnn::GridKnn(std::span<const Vec2> points, std::size_t expected_k) : expected_k_(expected_k) {
  build(all_ids(points.size()), points);
}

GridKnn::GridKnn(std::span<const Vec2> points, CellSide side) : side_(side.value) {
  if (!std::isfinite(side_) || side_ <= 0.0) {
    throw std::invalid_argument("GridKnn: cell side must be finite and positive");
  }
  build(all_ids(points.size()), points);
}

GridKnn::GridKnn(std::span<const Vec2> points, std::span<const std::uint32_t> members,
                 std::size_t expected_k)
    : expected_k_(expected_k) {
  std::vector<Vec2> coords;
  coords.reserve(members.size());
  for (const std::uint32_t m : members) {
    require_id(m);
    if (m >= points.size()) throw std::out_of_range("GridKnn: member id out of range");
    coords.push_back(points[m]);
  }
  build(members, coords);
}

/// Bucket the points (ids[i] at coords[i]) into a fresh grid over their
/// bounding box: counting sort by cell, so a cell's slots keep the input
/// order. Validates everything before touching the grid, so a throw leaves
/// it as it was.
void GridKnn::build(std::span<const std::uint32_t> ids, std::span<const Vec2> coords) {
  Vec2 lo{0.0, 0.0};
  Vec2 hi{0.0, 0.0};
  if (!coords.empty()) lo = hi = coords[0];
  for (const Vec2 p : coords) {
    require_finite_point(p);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  require_finite_extent(lo, hi);

  offsets_.clear();
  ids_.clear();
  pts_.clear();
  live_ = ids.size();
  dead_ = 0;
  lo_ = extent_lo_ = lo;
  extent_hi_ = hi;
  if (ids.empty()) return;

  const double w = std::max(hi.x - lo.x, 1e-9);
  const double h = std::max(hi.y - lo.y, 1e-9);
  if (side_ > 0.0) {
    cell_ = side_;
  } else {
    const double density = static_cast<double>(ids.size()) / (w * h);
    // Target ~k/4 (streaming) or ~k/16 (selection) points per cell. A box
    // whose area overflows makes the density 0 and this side infinite; one
    // cell over the box is the same grid.
    const double per_cell =
        static_cast<double>(std::max<std::size_t>(expected_k_, 1)) /
        (expected_k_ > kStreamingMaxK ? 16.0 : 4.0);
    cell_ = std::min(std::max(1e-9, std::sqrt(per_cell / density)), std::max(w, h));
  }
  // Cap the grid at ~4n cells, counting in floating point so that a far
  // outlier's cell count is never converted unchecked. The per-axis ceil
  // makes this a doubling loop rather than a closed form: a degenerate
  // aspect ratio (e.g. collinear points) floors one axis at a single cell
  // while the other explodes.
  const double max_cells = 4.0 * static_cast<double>(ids.size()) + 8.0;
  double fx = std::max(1.0, std::ceil(w / cell_));
  double fy = std::max(1.0, std::ceil(h / cell_));
  while (fx * fy > max_cells) {
    cell_ *= 2.0;
    fx = std::max(1.0, std::ceil(w / cell_));
    fy = std::max(1.0, std::ceil(h / cell_));
  }
  nx_ = static_cast<long>(fx);
  ny_ = static_cast<long>(fy);

  const std::size_t cells = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  offsets_.assign(cells + 1, 0);
  for (const Vec2 p : coords) ++offsets_[cell_index(p) + 1];
  for (std::size_t c = 0; c < cells; ++c) offsets_[c + 1] += offsets_[c];
  ids_.resize(ids.size());
  pts_.resize(ids.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t slot = cursor[cell_index(coords[i])]++;
    ids_[slot] = ids[i];
    pts_[slot] = coords[i];
  }
}

std::size_t GridKnn::cell_index(Vec2 p) const {
  const long ix = clamped_cell(p.x, lo_.x, nx_);
  const long iy = clamped_cell(p.y, lo_.y, ny_);
  return static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx_) +
         static_cast<std::size_t>(ix);
}

void GridKnn::insert_member(std::uint32_t id, Vec2 p) {
  require_id(id);
  require_finite_point(p);
  Vec2 lo = p;
  Vec2 hi = p;
  if (!ids_.empty()) {
    lo = {std::min(extent_lo_.x, p.x), std::min(extent_lo_.y, p.y)};
    hi = {std::max(extent_hi_.x, p.x), std::max(extent_hi_.y, p.y)};
  }
  require_finite_extent(lo, hi);
  extent_lo_ = lo;
  extent_hi_ = hi;
  ids_.push_back(id);
  pts_.push_back(p);
  ++live_;
  maybe_compact();
}

void GridKnn::erase_member(std::uint32_t id, Vec2 p) {
  require_id(id);
  require_finite_point(p);
  const auto spill = ids_.begin() + spill_begin();
  if (const auto it = std::find(spill, ids_.end(), id); it != ids_.end()) {
    pts_.erase(pts_.begin() + (it - ids_.begin()));
    ids_.erase(it);
  } else {
    // A member's coordinates are unchanged since bucketing (contract), so
    // its cell is recomputable and the scan is one bucket.
    std::uint32_t t0 = 0;
    std::uint32_t t1 = 0;
    if (!offsets_.empty()) {
      const std::size_t c = cell_index(p);
      t0 = offsets_[c];
      t1 = offsets_[c + 1];
    }
    const auto last = ids_.begin() + t1;
    const auto hit = std::find(ids_.begin() + t0, last, id);
    if (hit == last) throw std::invalid_argument("GridKnn: erase_member of a non-member");
    pts_[static_cast<std::size_t>(hit - ids_.begin())] = {kNan, kNan};
    *hit = npos;
    ++dead_;
  }
  --live_;
  maybe_compact();
}

/// Amortized O(1) per mutation: a rebuild costs O(live) and runs only once
/// the pending (tombstone + spill) count reaches a fraction of the live
/// set, which also bounds the per-query spill scan.
void GridKnn::maybe_compact() {
  const std::size_t pend = pending();
  if (pend >= 8 && pend * 8 >= live_) compact();
}

void GridKnn::compact() {
  std::vector<std::uint32_t> live;
  live.reserve(live_);
  for (std::uint32_t t = 0; t < ids_.size(); ++t) {
    if (ids_[t] != npos) live.push_back(t);
  }
  std::sort(live.begin(), live.end(),
            [&](std::uint32_t a, std::uint32_t b) { return ids_[a] < ids_[b]; });
  std::vector<std::uint32_t> ids(live.size());
  std::vector<Vec2> coords(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ids[i] = ids_[live[i]];
    coords[i] = pts_[live[i]];
  }
  build(ids, coords);
}

std::vector<std::uint32_t> GridKnn::live_members() const {
  std::vector<std::uint32_t> members;
  members.reserve(live_);
  for (const std::uint32_t id : ids_) {
    if (id != npos) members.push_back(id);
  }
  std::sort(members.begin(), members.end());
  return members;
}

/// Streaming path: a sorted bounded candidate array on the stack
/// (k <= kStreamingMaxK). The initial 3x3 block — which resolves almost
/// every query at the tuned cell size — is scanned as contiguous row spans
/// (cells of a row are adjacent in the CSR arrays); outer rings add
/// per-cell lower-bound filtering against the current k-th best. Returns
/// the candidate count.
std::size_t GridKnn::collect_small(Vec2 q, std::size_t k, std::uint32_t exclude,
                                   QueryScratch::Candidate* best) const {
  std::size_t cnt = 0;
  double worst = kInf;
  SENS_OBS(ObsTally obs_tally;)

  auto offer = [&](std::uint32_t t) {
    SENS_OBS(++obs_tally.candidates;)
    const double d2 = dist2_to(t, q);
    if (!(d2 <= worst)) return;
    const std::uint32_t idx = ids_[t];
    if (idx == exclude) return;
    // With a full set, a candidate tying the k-th distance only wins on a
    // smaller index.
    if (cnt == k && d2 == best[k - 1].d2 && idx > best[k - 1].idx) return;
    // Manual shift-insert into the sorted array (measurably faster than
    // std::vector::insert at these sizes).
    std::size_t pos = cnt < k ? cnt : k - 1;
    if (cnt < k) ++cnt;
    while (pos > 0 &&
           (best[pos - 1].d2 > d2 || (best[pos - 1].d2 == d2 && best[pos - 1].idx > idx))) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = {d2, idx};
    if (cnt == k) worst = best[k - 1].d2;
  };

  // Spill entries are unbucketed (possibly outside the grid box), so they
  // are offered exhaustively up front — the ring bound below then only has
  // to be exact about *bucketed* points, which it is by construction.
  for (std::uint32_t t = spill_begin(); t < ids_.size(); ++t) offer(t);
  if (offsets_.empty()) return cnt;

  const long cx = clamped_cell(q.x, lo_.x, nx_);
  const long cy = clamped_cell(q.y, lo_.y, ny_);
  const long max_ring = std::max(std::max(cx, nx_ - 1 - cx), std::max(cy, ny_ - 1 - cy));

  /// One row of cells [xa, xb] at row y: a single contiguous bucket span.
  auto scan_row = [&](long y, long xa, long xb) {
    if (y < 0 || y >= ny_) return;
    xa = std::max(xa, 0L);
    xb = std::min(xb, nx_ - 1);
    if (xa > xb) return;
    SENS_OBS(obs_tally.cells += static_cast<std::uint64_t>(xb - xa + 1);)
    const std::size_t base = static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_);
    const std::uint32_t t0 = offsets_[base + static_cast<std::size_t>(xa)];
    const std::uint32_t t1 = offsets_[base + static_cast<std::size_t>(xb) + 1];
    for (std::uint32_t t = t0; t < t1; ++t) {
      if (ids_[t] != npos) offer(t);
    }
  };

  auto scan_cell = [&](long x, long y) {
    if (x < 0 || x >= nx_ || y < 0 || y >= ny_) return;
    // Lower bound from q to the cell rectangle; a cell that cannot beat the
    // current k-th best (`>` keeps equal-distance ties visible) is skipped.
    const double gx = std::max({0.0, lo_.x + static_cast<double>(x) * cell_ - q.x,
                                q.x - (lo_.x + static_cast<double>(x + 1) * cell_)});
    const double gy = std::max({0.0, lo_.y + static_cast<double>(y) * cell_ - q.y,
                                q.y - (lo_.y + static_cast<double>(y + 1) * cell_)});
    if (gx * gx + gy * gy > worst) return;
    SENS_OBS(++obs_tally.cells;)
    const std::size_t c =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) + static_cast<std::size_t>(x);
    for (std::uint32_t t = offsets_[c]; t < offsets_[c + 1]; ++t) {
      if (ids_[t] != npos) offer(t);
    }
  };

  // Unscanned points lie beyond the scanned square's boundary; a side the
  // square has already pushed past the grid imposes no bound. Stop once the
  // k-th best strictly beats that bound (`<`, so ties at the cutoff
  // distance are still collected from the next ring).
  auto done_after = [&](long r) {
    if (cnt != k) return false;
    const double left = cx - r > 0 ? q.x - (lo_.x + static_cast<double>(cx - r) * cell_) : kInf;
    const double right =
        cx + r < nx_ - 1 ? (lo_.x + static_cast<double>(cx + r + 1) * cell_) - q.x : kInf;
    const double bot = cy - r > 0 ? q.y - (lo_.y + static_cast<double>(cy - r) * cell_) : kInf;
    const double top =
        cy + r < ny_ - 1 ? (lo_.y + static_cast<double>(cy + r + 1) * cell_) - q.y : kInf;
    const double dmin = std::min(std::min(left, right), std::min(bot, top));
    return worst < dmin * dmin;
  };

  // Rings 0 and 1 together: three contiguous row spans.
  const long first = std::min(1L, max_ring);
  for (long y = cy - first; y <= cy + first; ++y) scan_row(y, cx - first, cx + first);
  if (done_after(first)) return cnt;

  for (long r = first + 1; r <= max_ring; ++r) {
    scan_row(cy - r, cx - r, cx + r);
    scan_row(cy + r, cx - r, cx + r);
    for (long y = cy - r + 1; y <= cy + r - 1; ++y) {
      scan_cell(cx - r, y);
      scan_cell(cx + r, y);
    }
    if (done_after(r)) break;
  }
  return cnt;
}

/// Selection path: collect per ring (filtered by the current k-th best once
/// known), prune with nth_element, stop on the same ring bound.
void GridKnn::collect_large(Vec2 q, std::size_t k, std::uint32_t exclude,
                            std::vector<QueryScratch::Candidate>& cands) const {
  double worst = kInf;
  SENS_OBS(ObsTally obs_tally;)

  auto consider = [&](std::uint32_t t) {
    SENS_OBS(++obs_tally.candidates;)
    const std::uint32_t idx = ids_[t];
    if (idx == exclude) return;
    const double d2 = dist2_to(t, q);
    if (!(d2 <= worst)) return;  // not `<`: equal-distance ties stay in play
    cands.push_back({d2, idx});
  };

  // Spill entries first and exhaustively (see collect_small): the ring
  // bound below is then exact because it only has to cover bucketed points.
  for (std::uint32_t t = spill_begin(); t < ids_.size(); ++t) consider(t);
  if (offsets_.empty()) {
    finish_large(k, cands);
    return;
  }

  const long cx = clamped_cell(q.x, lo_.x, nx_);
  const long cy = clamped_cell(q.y, lo_.y, ny_);
  const long max_ring = std::max(std::max(cx, nx_ - 1 - cx), std::max(cy, ny_ - 1 - cy));

  auto scan_cell = [&](long x, long y) {
    if (x < 0 || x >= nx_ || y < 0 || y >= ny_) return;
    const double gx = std::max({0.0, lo_.x + static_cast<double>(x) * cell_ - q.x,
                                q.x - (lo_.x + static_cast<double>(x + 1) * cell_)});
    const double gy = std::max({0.0, lo_.y + static_cast<double>(y) * cell_ - q.y,
                                q.y - (lo_.y + static_cast<double>(y + 1) * cell_)});
    if (gx * gx + gy * gy > worst) return;
    SENS_OBS(++obs_tally.cells;)
    const std::size_t c =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) + static_cast<std::size_t>(x);
    for (std::uint32_t t = offsets_[c]; t < offsets_[c + 1]; ++t) {
      if (ids_[t] != npos) consider(t);
    }
  };

  for (long r = 0; r <= max_ring; ++r) {
    const long x0 = cx - r;
    const long x1 = cx + r;
    const long y0 = cy - r;
    const long y1 = cy + r;
    if (r == 0) {
      scan_cell(cx, cy);
    } else {
      for (long x = x0; x <= x1; ++x) {
        scan_cell(x, y0);
        scan_cell(x, y1);
      }
      for (long y = y0 + 1; y <= y1 - 1; ++y) {
        scan_cell(x0, y);
        scan_cell(x1, y);
      }
    }
    if (cands.size() < k) continue;
    const double left = x0 > 0 ? q.x - (lo_.x + static_cast<double>(x0) * cell_) : kInf;
    const double right =
        x1 < nx_ - 1 ? (lo_.x + static_cast<double>(x1 + 1) * cell_) - q.x : kInf;
    const double bot = y0 > 0 ? q.y - (lo_.y + static_cast<double>(y0) * cell_) : kInf;
    const double top =
        y1 < ny_ - 1 ? (lo_.y + static_cast<double>(y1 + 1) * cell_) - q.y : kInf;
    const double dmin = std::min(std::min(left, right), std::min(bot, top));
    // Prune to the k best so far; the (d2, idx) comparator is a strict
    // total order, so the prefix after nth_element is exactly the k best
    // and everything beyond can be dropped. nth_element also runs when the
    // buffer holds exactly k — `worst` must be the k-th best, not whatever
    // was pushed last.
    std::nth_element(cands.begin(), cands.begin() + static_cast<std::ptrdiff_t>(k) - 1,
                     cands.end());
    if (cands.size() > k) cands.resize(k);
    worst = cands[k - 1].d2;
    if (worst < dmin * dmin) break;
  }
  finish_large(k, cands);
}

std::size_t GridKnn::nearest_into(Vec2 q, std::size_t k, std::uint32_t exclude,
                                  QueryScratch& scratch, std::vector<std::uint32_t>& out) const {
  require_finite_query(q);
  out.clear();
  if (live_ == 0 || k == 0) return 0;
  if (k <= kStreamingMaxK) {
    QueryScratch::Candidate best[kStreamingMaxK];
    const std::size_t cnt = collect_small(q, k, exclude, best);
    out.resize(cnt);
    for (std::size_t i = 0; i < cnt; ++i) out[i] = best[i].idx;
    return cnt;
  }
  auto& cands = scratch.cands;
  cands.clear();
  collect_large(q, k, exclude, cands);
  out.resize(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) out[i] = cands[i].idx;
  return out.size();
}

}  // namespace sens
