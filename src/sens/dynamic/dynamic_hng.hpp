// Incremental maintenance of a hierarchical neighbor graph under node
// join/leave events (churn) — the dynamic counterpart of `build_hng`.
//
// The HNG paper (arXiv:0903.0742) pitches the structure as incrementally
// maintainable: a joining node draws its promotion chain and links locally,
// a leaving node orphans only the bounded set of nodes that had selected
// it. Because our promotion draws come from dedicated per-node rng streams
// (seed, "HNG", node) — never from one shared sequence — the level of slot
// i depends only on (seed, i), and the incremental structure can agree
// with a fresh batch build *bit for bit*, not just approximately.
//
// Identity discipline: nodes are dense slots [0, size()). `insert` appends
// at slot size(); `remove(i)` swap-removes — the node in the last slot
// moves into slot i and redraws its promotion chain from stream i (the
// paper's rejoin-under-a-new-id event). That keeps the id space dense, so
// the oracle contract (DESIGN.md §2.7) is exact equality with the batch
// builder on the surviving point set after EVERY event:
//
//     overlay() == build_hng(points(), params, seed).geo.graph
//     level(i)  == the batch level vector, element for element
//
// enforced at every prefix of randomized traces by tests/test_dynamic.cpp
// (`churn` ctest label).
//
// Repair sets are bounded, local and exact (DESIGN.md §2.7):
//  * join u at level L: u's own selection is one pyramid query per the
//    batch rule; an existing regular node w of exact level l <= L-1 sees u
//    enter S_{l+1}, and its new k-NN selection follows from its old one
//    without a re-query — admit u iff w is under-full or u beats w's
//    current (distance, index)-worst pick. Only nodes that can pass that
//    test are offered: a fixed-radius search of each exact level's grid,
//    the radius an upper bound on that level's worst selection distance
//    (all of the level while S_{l+1} holds fewer than k others). A
//    top-level rise dissolves the old clique cohort, which relinks by
//    re-query.
//  * leave r: exactly the nodes that selected r (a maintained reverse
//    index) re-query; a top-level drop forms the new top cohort's clique.
// No event scans the live set: cohorts and candidates come from the
// per-exact-level grids, so an event costs in proportion to its repair set.
// The overlay CSR is rebuilt, not patched: the first overlay() read after
// an event that flipped an edge runs CsrGraph::from_selections over the
// maintained selections — the builder build_hng itself uses, so the oracle
// holds by construction. A CSR snapshot costs O(n + m) however small the
// change, so deferring it to the read is what keeps per-event cost bounded
// by the repair set instead of the deployment size. At the churn rates the
// benchmarks read at (about 1% of the nodes per read or more) the rebuild
// is as fast as merging an edge delta into the old CSR, or faster
// (DESIGN.md §2.7). Each rebuild bumps overlay_generation(); readers
// (serve/epoch_engine.hpp) poll it and copy the overlay when it moved.
//
// Event maintenance is serial by design (events are a sequential
// dependence chain); the overlay rebuild is chunk-parallel with disjoint
// writes. Replaying a trace is bit-identical at any --threads value
// (DynamicThreads.*), extending the §2.3–2.5 determinism contract to
// mutations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sens/geometry/vec2.hpp"
#include "sens/graph/csr.hpp"
#include "sens/hng/hng.hpp"
#include "sens/spatial/grid_knn.hpp"
#include "sens/spatial/grid_knn_pyramid.hpp"

namespace sens {

/// Repair counters of one insert()/remove() event.
struct DynamicHngStats {
  std::size_t relinked = 0;       ///< nodes whose selection list changed
  std::size_t edges_added = 0;    ///< overlay edge delta of the event
  std::size_t edges_removed = 0;
  std::size_t repair_candidates = 0;  ///< nodes offered a joiner by the spatial search
  std::size_t recomputes = 0;         ///< selections recomputed from scratch
};

class DynamicHng {
 public:
  /// Empty structure; nodes arrive via insert(). Throws
  /// std::invalid_argument on invalid params (same rules as build_hng).
  DynamicHng(const HngParams& params, std::uint64_t seed);

  /// Bulk adoption: equivalent to (and implemented as) inserting `points`
  /// one by one in order. Throws std::invalid_argument, before adopting
  /// anything, if a coordinate is not finite.
  DynamicHng(std::span<const Vec2> points, const HngParams& params, std::uint64_t seed);

  DynamicHng(DynamicHng&&) noexcept = default;
  DynamicHng& operator=(DynamicHng&&) noexcept = default;
  DynamicHng(const DynamicHng&) = delete;
  DynamicHng& operator=(const DynamicHng&) = delete;

  /// Join: the new node takes slot size(), draws its level from stream
  /// (seed, "HNG", slot), links itself, and repairs the bounded set of
  /// selections it enters. Returns the slot. Throws std::invalid_argument
  /// (leaving the structure unchanged) if a coordinate is not finite.
  std::uint32_t insert(Vec2 p);

  /// Leave: node `i` departs. Unless i was the last slot, the last slot's
  /// point moves into slot i and redraws its chain from stream i. Throws
  /// std::out_of_range on an invalid slot.
  void remove(std::uint32_t i);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] std::span<const Vec2> points() const { return points_; }
  [[nodiscard]] std::uint32_t level(std::uint32_t i) const { return level_[i]; }
  [[nodiscard]] std::uint32_t top_level() const { return top_; }
  [[nodiscard]] const HngParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// The symmetrized overlay — equal to the batch build's graph. Rebuilt
  /// from the selections on the first read after an edge flipped (lazily
  /// cached; like every other member, not safe to call concurrently with
  /// mutations).
  [[nodiscard]] const CsrGraph& overlay() const {
    materialize();
    return overlay_;
  }

  /// The directed selection list of node i (ascending ids): its k nearest
  /// upper-level neighbors, or the rest of the clique for top nodes.
  [[nodiscard]] std::span<const std::uint32_t> selection(std::uint32_t i) const {
    return sel_[i];
  }

  /// Repair counters of the most recent insert()/remove().
  [[nodiscard]] const DynamicHngStats& last_event() const { return last_; }

  /// Generation of the current overlay (materializes first, like
  /// overlay()): 0 for the empty structure, +1 per read that follows at
  /// least one edge flip or a change in vertex count. Equal generations
  /// mean equal overlays.
  [[nodiscard]] std::uint64_t overlay_generation() const {
    materialize();
    return generation_;
  }

 private:
  [[nodiscard]] double dist2(std::uint32_t a, std::uint32_t b) const;
  void touch(std::uint32_t u);
  void mark_recompute(std::uint32_t w);
  void flush_recompute();
  void compute_selection(std::uint32_t u, std::vector<std::uint32_t>& out);
  void set_selection(std::uint32_t u, const std::vector<std::uint32_t>& fresh);
  void maybe_enter(std::uint32_t w, std::uint32_t u);
  [[nodiscard]] double worst_pick2(std::uint32_t w) const;
  void raise_reach(std::uint32_t w);
  void tighten_reach(std::uint32_t l);
  void offer_join(std::uint32_t u);
  GridKnn& exact_level(std::uint32_t l) { return exact_[l - 1]; }
  void level_members(std::uint32_t l, std::vector<std::uint32_t>& out);
  void insert_slot(std::uint32_t id, Vec2 p);
  void remove_slot(std::uint32_t r);
  void begin_event();
  void finalize_event();
  [[nodiscard]] const std::vector<std::uint32_t>& pre_event_selection(std::uint32_t w) const;
  void materialize() const;

  HngParams params_;
  std::uint64_t seed_ = 0;

  // Slot-indexed node state. The arrays stay at event-entry size while an
  // event is in flight (a swap-remove briefly has two dead slots) and are
  // trimmed in remove(); alive_ is the in-event liveness mask.
  std::vector<Vec2> points_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::vector<std::uint32_t>> sel_;        ///< selections, ascending ids
  std::vector<std::vector<std::uint32_t>> selectors_;  ///< reverse index, ascending ids
  std::size_t live_n_ = 0;

  std::vector<std::uint32_t> level_count_;  ///< exact-level histogram [0, max_level]
  std::uint32_t top_ = 0;
  GridKnnPyramid pyramid_;  ///< level index l holds S_{l+2}
  // exact_[l-1] indexes the live nodes of exact level l (subset views over
  // the pyramid's store); reach2_[l-1] is an upper bound on the squared
  // worst-pick distance of every full regular selection at that level.
  // Raised as selections change, reset to the members' exact maximum once
  // reach_age_ (membership changes since the last reset) exceeds half the
  // level's size: a loose bound costs candidates, never correctness.
  std::vector<GridKnn> exact_;
  std::vector<double> reach2_;
  std::vector<std::size_t> reach_age_;
  DynamicHngStats last_;

  // Lazily materialized overlay cache (see overlay()): stale once an event
  // flipped an edge, rebuilt and cleared by the next read.
  mutable CsrGraph overlay_;
  mutable bool overlay_stale_ = false;
  mutable std::uint64_t generation_ = 0;

  // Per-event scratch: first-touch capture of old selections (the edge
  // delta is derived from these), the re-query worklist, and query buffers.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> dirty_old_;
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<std::uint32_t> recompute_;
  std::vector<std::uint8_t> in_recompute_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> touched_;
  std::vector<std::uint32_t> found_;
  std::vector<std::uint32_t> candidates_;
  std::vector<std::uint32_t> fresh_sel_;
  GridKnn::QueryScratch scratch_;
};

}  // namespace sens
