// The library's one uniform bucket grid: exact k-nearest-neighbor queries
// by expanding rings, and fixed-radius scans.
//
// The batched k-NN selection workload — every point of a Poisson set asks
// for its k nearest — is better served by a bucket grid than a kd-tree: the
// answer is almost always inside the 3x3 cell neighborhood, so a Chebyshev
// ring expansion touches O(k) candidates with no tree traversal at all.
// The k-NN engine is exact (not approximate): rings expand until the k-th
// best distance provably beats the nearest unscanned cell boundary, and
// ties are broken by (distance, index), so the neighbor lists equal a
// brute-force sort of every point on any input (asserted by
// `GridKnnParamTest.MatchesBruteForceOracle`). `knn_selections_flat` drives
// it chunk-parallel with one scratch per chunk, HNG linking runs one grid
// per population (sens/hng, sens/dynamic), and `build_udg`, the coverage
// emptiness trials and NN-SENS's `KnnEdgeOracle` run radius scans on it
// (DESIGN.md §2.3).
//
// Storage is CSR-style and cell-ordered: `offsets_` delimits each cell's
// bucket, and each bucket slot holds a point id (`ids_`) next to its
// coordinates (`pts_`). Cells of one grid row are adjacent in that order, so
// every scan — a k-NN ring row, a radius block row, a count — reads one
// contiguous span per row, with no indirection from an id to its
// coordinates. The grid owns these copies: the caller's point store may be
// overwritten or freed once the constructor returns.
//
// Geometry: the grid box is the bounding box of the indexed points. The
// cell side is either tuned for an expected query size k (k-NN queries with
// other k stay exact, only ring granularity is off-tune) or given by the
// caller (fixed-radius work: the UDG radius). Either way the cell count is
// capped at about 4n in floating point before any conversion to an
// integer, so a degenerate aspect ratio or a far outlier cannot explode it.
//
// Membership is mutable after construction (`insert_member` /
// `erase_member`, the churn substrate of sens/dynamic): admissions land on
// an unbucketed spill at the tail of the slot arrays that every query scans
// exhaustively — so a point outside the built grid box can never be pruned
// away — and retirements tombstone their bucket slot (id npos, NaN
// coordinates). The k-NN scans skip a tombstone by its id, so the work
// counters count live points only; the radius scans need no test at all,
// since a NaN distance never passes `d2 <= r2`. Once tombstones + spill
// outgrow a fraction of the live set the grid is rebuilt from the live
// members (ascending id). Query results are a pure function of the live
// member set, identical to a freshly built grid over it (asserted by
// `GridKnnMutation.*` / `GridKnnSubsetMutation.*`).
//
// Queries reject a non-finite query point (and a NaN radius) before any
// cell arithmetic, and construction rejects a non-finite coordinate or cell
// side and a bounding box too wide for a double, so every float-to-cell
// conversion sees a finite value.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sens/geometry/vec2.hpp"

namespace sens {

class GridKnn {
 public:
  /// A cell side chosen by the caller instead of tuned for a query size.
  struct CellSide {
    double value;
  };

  /// Index every point, ids = positions in `points`, with the cell side
  /// tuned for queries of ~`expected_k` neighbors (any k stays exact).
  /// Throws std::invalid_argument if a coordinate is not finite or the
  /// bounding box is too wide for a double, and std::overflow_error if
  /// `points` does not fit the 32-bit id space.
  GridKnn(std::span<const Vec2> points, std::size_t expected_k);

  /// As above, with cells of side `side.value` (a radius-r scan then reads
  /// about ceil(r / side) cells each way). Throws std::invalid_argument
  /// unless the side is finite and positive.
  GridKnn(std::span<const Vec2> points, CellSide side);

  /// Subset view: index only the points named in `members` (ids into
  /// `points`), copying their coordinates. Queries return those ids, with
  /// the same (distance, index) tie-break as above — equivalent to a fresh
  /// grid over the compacted subset with ids mapped back (asserted by
  /// `GridKnnSubsetParamTest.MatchesFreshGridKnnOracle`). The geometry is
  /// tuned to the *subset's* bounding box and density. Throws
  /// std::out_of_range if a member id is not below points.size() (or is
  /// npos) and std::invalid_argument if a member's coordinate is not finite
  /// (non-member points are never read).
  GridKnn(std::span<const Vec2> points, std::span<const std::uint32_t> members,
          std::size_t expected_k);

  static constexpr std::uint32_t npos = 0xffffffffu;

  /// Caller-owned scratch; one per thread/chunk, contents opaque.
  struct QueryScratch {
    struct Candidate {
      double d2;
      std::uint32_t idx;
      bool operator<(const Candidate& o) const {
        return d2 != o.d2 ? d2 < o.d2 : idx < o.idx;
      }
    };
    std::vector<Candidate> cands;
  };

  /// Indices of the k points nearest to `q`, excluding index `exclude`
  /// (npos = exclude nothing), sorted by (distance, index), written into
  /// `out` (cleared first; capacity reused). Returns the count written.
  /// Throws std::invalid_argument if `q` is not finite; any finite `q`,
  /// however far off the grid, is exact.
  std::size_t nearest_into(Vec2 q, std::size_t k, std::uint32_t exclude, QueryScratch& scratch,
                           std::vector<std::uint32_t>& out) const;

  // --- fixed-radius scans ---
  // One rule for all three: a live member j is in the disk iff
  // d2 = dx*dx + dy*dy <= r2 with dx = p_j.x - q.x, the arithmetic of the
  // k-NN kernels, so a caller comparing against distances it computed the
  // same way misses no tie. Only the cells that can hold such a point are
  // read (plus the spill); r2 = +inf takes every live member, a negative r2
  // none. Each throws std::invalid_argument if `q` is not finite or r2 is
  // NaN, and none is counted by the k-NN work counters.

  /// Invoke `visit(j)` — or `visit(j, d2)`, if the visitor takes the squared
  /// distance too — for every live member j in the disk; the visitor returns
  /// true to stop the scan. Returns true iff a visitor stopped it. Visit
  /// order is deterministic: cell rows bottom to top, each row's cells left
  /// to right, bucket order within a cell (the build order: ascending id
  /// for the point-list constructors and after a compaction), then the
  /// spill in admission order.
  template <typename Visitor>
  bool for_each_in_radius_until(Vec2 q, double r2, Visitor&& visit) const {
    const Block b = block(q, r2);
    const auto scan = [&](std::uint32_t t0, std::uint32_t t1) {
      for (std::uint32_t t = t0; t < t1; ++t) {
        const double d2 = dist2_to(t, q);
        if (d2 <= r2 && call_visitor(visit, ids_[t], d2)) return true;
      }
      return false;
    };
    for (long y = b.y0; y <= b.y1; ++y) {
      const auto [t0, t1] = row_span(y, b);
      if (scan(t0, t1)) return true;
    }
    return scan(spill_begin(), static_cast<std::uint32_t>(ids_.size()));
  }

  /// Number of live members in the disk — the visit count of
  /// `for_each_in_radius_until` with a visitor that never stops, tallied
  /// without a branch per point.
  [[nodiscard]] std::size_t count_in_radius(Vec2 q, double r2) const {
    const Block b = block(q, r2);
    const auto count = [&](std::uint32_t t0, std::uint32_t t1) {
      std::size_t c = 0;
      for (std::uint32_t t = t0; t < t1; ++t) c += dist2_to(t, q) <= r2;
      return c;
    };
    std::size_t total = count(spill_begin(), static_cast<std::uint32_t>(ids_.size()));
    for (long y = b.y0; y <= b.y1; ++y) {
      const auto [t0, t1] = row_span(y, b);
      total += count(t0, t1);
    }
    return total;
  }

  /// Every live member in the disk, appended to `out` in visit order.
  void within_into(Vec2 q, double r2, std::vector<std::uint32_t>& out) const {
    for_each_in_radius_until(q, r2, [&](std::uint32_t j) {
      out.push_back(j);
      return false;
    });
  }

  /// Number of *live* indexed points (tombstoned members do not count).
  [[nodiscard]] std::size_t size() const { return live_; }

  // --- mutable membership (sens/dynamic) ---

  /// Admit point `id` at `p`. Throws std::out_of_range if id is npos and
  /// std::invalid_argument, leaving the grid unchanged, if `p` is not
  /// finite or would make the indexed points' bounding box too wide for a
  /// double. Admitting an id twice is undefined.
  void insert_member(std::uint32_t id, Vec2 p);

  /// Retire member `id`, admitted at `p`. Throws std::out_of_range if id is
  /// npos and std::invalid_argument if `id` is not a member at `p`.
  void erase_member(std::uint32_t id, Vec2 p);

  /// Rebuild the bucket grid from the live member set now (ascending id) —
  /// called automatically once tombstones + spill outgrow the live count;
  /// public so tests can force the compaction path.
  void compact();

  /// Live member ids, ascending — the rebuild order `compact` uses.
  [[nodiscard]] std::vector<std::uint32_t> live_members() const;

  /// Tombstone + spill count (observability for compaction tests).
  [[nodiscard]] std::size_t pending() const { return dead_ + ids_.size() - spill_begin(); }

 private:
  /// The cell rows and columns a radius scan reads. An empty block
  /// (y0 > y1) reads no bucket.
  struct Block {
    long x0 = 0, x1 = -1, y0 = 0, y1 = -1;
  };

  void build(std::span<const std::uint32_t> ids, std::span<const Vec2> coords);
  [[nodiscard]] std::size_t cell_index(Vec2 p) const;

  /// Column/row of coordinate v along an axis of `cells` cells from `lo`:
  /// floor((v - lo) / cell), clamped in floating point first so that any
  /// finite v (however far off the grid) converts safely. Monotone in v.
  /// Past the clamps c >= 1, where truncation is floor, so no libm floor
  /// call is needed.
  [[nodiscard]] long clamped_cell(double v, double lo, long cells) const {
    const double c = (v - lo) / cell_;
    if (c < 1.0) return 0;
    if (c >= static_cast<double>(cells - 1)) return cells - 1;
    return static_cast<long>(c);
  }

  /// The block of a radius scan. A point passing the d2 test has
  /// |p.x - q.x| <= sqrt(r2) up to a few ulps; the padded radius covers
  /// those and the rounding of q.x -/+ r, so the computed
  /// q.x - r <= p.x <= q.x + r, and the monotone cell map that bucketed p
  /// puts it inside the block. r2 = +inf pads to the whole grid.
  [[nodiscard]] Block block(Vec2 q, double r2) const {
    if (!is_finite(q) || std::isnan(r2)) [[unlikely]] {
      throw std::invalid_argument("GridKnn: query point must be finite and radius not NaN");
    }
    Block b;
    if (r2 < 0.0 || offsets_.empty()) return b;
    const double r = std::sqrt(r2) * (1.0 + 1e-9) + 1e-12 * (std::abs(q.x) + std::abs(q.y));
    b.x0 = clamped_cell(q.x - r, lo_.x, nx_);
    b.x1 = clamped_cell(q.x + r, lo_.x, nx_);
    b.y0 = clamped_cell(q.y - r, lo_.y, ny_);
    b.y1 = clamped_cell(q.y + r, lo_.y, ny_);
    return b;
  }
  void maybe_compact();
  std::size_t collect_small(Vec2 q, std::size_t k, std::uint32_t exclude,
                            QueryScratch::Candidate* best) const;
  void collect_large(Vec2 q, std::size_t k, std::uint32_t exclude,
                     std::vector<QueryScratch::Candidate>& cands) const;

  /// First spill slot: the slots past the last bucket.
  [[nodiscard]] std::uint32_t spill_begin() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  /// Bucket slots [first, second) of the block's cells in row y: cells of
  /// one row are adjacent in bucket order, so this is a single span.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> row_span(long y, const Block& b) const {
    const std::size_t row = static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_);
    return {offsets_[row + static_cast<std::size_t>(b.x0)],
            offsets_[row + static_cast<std::size_t>(b.x1) + 1]};
  }

  [[nodiscard]] double dist2_to(std::uint32_t slot, Vec2 q) const {
    const double dx = pts_[slot].x - q.x;
    const double dy = pts_[slot].y - q.y;
    return dx * dx + dy * dy;
  }

  /// Calls `visit(j, d2)` or `visit(j)`, whichever the visitor accepts.
  template <typename Visitor>
  static bool call_visitor(Visitor& visit, std::uint32_t j, double d2) {
    if constexpr (std::is_invocable_v<Visitor&, std::uint32_t, double>) {
      return visit(j, d2);
    } else {
      return visit(j);
    }
  }

  // Cell-side rule, kept for rebuilds: the caller's side when side_ > 0,
  // else tuned for expected_k_.
  std::size_t expected_k_ = 1;
  double side_ = 0.0;

  Vec2 lo_{0.0, 0.0};  ///< grid origin: the bounding-box corner at the last build
  double cell_ = 1.0;
  long nx_ = 1;
  long ny_ = 1;
  /// Bounding box of every point indexed since the last build (bucketed or
  /// spilled): a rebuild's live set lies inside it, so a rebuild never
  /// meets a box too wide for a double.
  Vec2 extent_lo_{0.0, 0.0};
  Vec2 extent_hi_{0.0, 0.0};
  std::vector<std::uint32_t> offsets_;  ///< nx*ny + 1; cell c owns [offsets_[c], offsets_[c+1])
  std::vector<std::uint32_t> ids_;      ///< slot -> point id (npos = tombstone), then the spill
  std::vector<Vec2> pts_;               ///< slot -> coordinates of ids_[slot] (NaN = tombstone)
  std::size_t live_ = 0;  ///< |ids_| - dead_
  std::size_t dead_ = 0;  ///< tombstones among the bucketed slots

  /// Up to this k the candidate set is a sorted array maintained by
  /// insertion while streaming cells; beyond it, candidates are collected
  /// per ring and selected with nth_element (the O(k) insertion memmove
  /// loses to selection at NN-SENS sizes, k = 188).
  static constexpr std::size_t kStreamingMaxK = 48;
};

}  // namespace sens
