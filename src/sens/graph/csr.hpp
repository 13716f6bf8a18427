// Compressed-sparse-row undirected graph.
//
// All graphs in this project (UDG, kNN, SENS overlays, baselines) are built
// once and then queried many times — even the churning HNG overlay of
// sens/dynamic is rebuilt whole on read, never patched in place — so CSR is
// the natural representation: adjacency of vertex v is the contiguous span
// neighbors(v). Each undirected edge {u, v} is stored as two *arcs* (u -> v
// and v -> u); the arc index is the key the traversal layer uses to attach
// per-edge data — see `arc_weights` and the traversal contract in
// DESIGN.md §2.4.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sens/graph/flat_adjacency.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Incremental edge accumulator: `add_edge` per undirected edge, then
  /// `build(n)` normalizes (self loops dropped, duplicates merged, vertex
  /// ids validated) by counting sort — no global edge sort, no pair
  /// structs, and the offsets/adjacency allocations are exact (n + 1 and
  /// 2m pre-merge). This is what the overlay builders feed directly
  /// instead of an intermediate `vector<pair>` edge list.
  class Builder {
   public:
    void reserve(std::size_t edges) { endpoints_.reserve(2 * edges); }
    void add_edge(std::uint32_t u, std::uint32_t v) {
      endpoints_.push_back(u);
      endpoints_.push_back(v);
    }
    [[nodiscard]] std::size_t edges_added() const { return endpoints_.size() / 2; }
    /// Consume the accumulated edges into a graph over vertices [0, n).
    /// Throws std::out_of_range on a vertex id >= n, and std::overflow_error
    /// when n or the arc count outgrows the 32-bit id space (every
    /// construction entry point checks this — DESIGN.md §2.8).
    [[nodiscard]] CsrGraph build(std::size_t n) &&;

   private:
    std::vector<std::uint32_t> endpoints_;  ///< flat (u, v) pairs
  };

  /// Build from an undirected edge list over vertices [0, n). Each pair
  /// {u, v} is stored in both adjacency lists; self loops are dropped and
  /// duplicate edges are merged. Thin wrapper over `Builder`.
  static CsrGraph from_edges(std::size_t n,
                             std::vector<std::pair<std::uint32_t, std::uint32_t>> edges);

  /// Adopt a symmetric flat adjacency wholesale (zero copies: the two
  /// arrays *are* the CSR storage; each vertex list is sorted in place —
  /// pass `lists_sorted = true` to skip that pass when the producer
  /// already emits sorted lists, e.g. a filtered subsequence of a CSR
  /// adjacency). Precondition: `adj` contains every undirected edge in
  /// both endpoint lists, with no self loops and no duplicates — the shape
  /// the two-pass count-then-write builders produce
  /// (`build_flat_adjacency`). Throws std::invalid_argument when offsets
  /// and neighbors disagree.
  static CsrGraph from_symmetric_adjacency(FlatAdjacency adj, bool lists_sorted = false);

  /// Build the undirected union of directed selection lists (k-NN
  /// selections, Yao cone winners): {u, v} is an edge iff v appears in
  /// sel[u] or u appears in sel[v]. Self entries are dropped and
  /// duplicates merged; `sel` is consumed (its lists are sorted in place).
  /// This is the one HNG overlay builder: `build_hng` and the maintained
  /// `DynamicHng` overlay both go through it.
  static CsrGraph from_selections(FlatAdjacency sel);

  [[nodiscard]] std::size_t num_vertices() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const { return adjacency_.size() / 2; }

  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::uint32_t v) const {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::size_t degree(std::uint32_t v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  // --- arc view (DESIGN.md §2.4) ---
  // The arcs of vertex v are the half-open index range
  // [arc_begin(v), arc_end(v)); arc_target(a) is the head of arc a. Per-arc
  // data (weights, kept-edge masks) lives in plain arrays indexed the same
  // way, so the traversal inner loops are flat array reads.

  [[nodiscard]] std::size_t num_arcs() const { return adjacency_.size(); }
  [[nodiscard]] std::uint32_t arc_begin(std::uint32_t v) const { return offsets_[v]; }
  [[nodiscard]] std::uint32_t arc_end(std::uint32_t v) const { return offsets_[v + 1]; }
  [[nodiscard]] std::uint32_t arc_target(std::size_t arc) const { return adjacency_[arc]; }

  /// Index of the arc u -> v. Precondition: the edge exists.
  [[nodiscard]] std::size_t arc_index(std::uint32_t u, std::uint32_t v) const;

  /// Index of the reverse arc: for arc a = (u -> v), reverse_arc(a) is the
  /// arc (v -> u). Precomputed at build time (one O(m) counting pass), so
  /// mirroring per-arc data onto reverse arcs — the spanner filters' kept
  /// mask — is a flat lookup instead of a per-edge binary search.
  /// Involution: reverse_arc(reverse_arc(a)) == a.
  [[nodiscard]] std::uint32_t reverse_arc(std::size_t arc) const { return reverse_arc_[arc]; }

  /// Materialize `weight(u, v)` for every arc, aligned with the arc index
  /// (computed chunk-parallel; every slot is written exactly once, so the
  /// array is bit-identical at any thread count). Dijkstra's inner loop
  /// over a weight array is a flat read — no callable invocation per
  /// relaxed edge. The array is invalidated by rebuilding the graph, never
  /// by traversals (DESIGN.md §2.4).
  template <typename WeightFn>
  [[nodiscard]] std::vector<double> arc_weights(WeightFn&& weight) const {
    std::vector<double> w(adjacency_.size());
    parallel_for(num_vertices(), [&](std::size_t i) {
      const auto u = static_cast<std::uint32_t>(i);
      for (std::uint32_t a = offsets_[u]; a < offsets_[u + 1]; ++a) {
        w[a] = weight(u, adjacency_[a]);
      }
    });
    return w;
  }

  [[nodiscard]] std::size_t max_degree() const;
  [[nodiscard]] double mean_degree() const;

  /// True if {u, v} is an edge. Binary-searches the adjacency of the
  /// lower-degree endpoint (lists are sorted), so the cost is
  /// O(log min(deg u, deg v)) — hub vertices never pay for their degree.
  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) const;

  /// All undirected edges as (u, v) with u < v, in sorted order
  /// (reserves exactly m).
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list() const;

 private:
  void build_reverse_arcs();

  std::vector<std::uint32_t> offsets_;      // n + 1
  std::vector<std::uint32_t> adjacency_;    // 2 * m, sorted within each vertex
  std::vector<std::uint32_t> reverse_arc_;  // 2 * m, arc -> its reverse arc
};

}  // namespace sens
