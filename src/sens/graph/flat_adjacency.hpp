// Flat CSR-style adjacency: one offsets array + one neighbors array.
//
// Replaces the nested `vector<vector<uint32_t>>` shape for batched query
// results (k-NN selections, radius collections) and is the interchange
// format the graph builders hand to `CsrGraph` (no intermediate pair edge
// lists): two allocations total instead of one per vertex, contiguous
// storage for cache-friendly sweeps, and chunk-parallel builders can write
// disjoint slices without synchronization (DESIGN.md §2.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sens/support/checked.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

struct FlatAdjacency {
  std::vector<std::uint32_t> offsets;    ///< size() + 1 entries, offsets[0] == 0
  std::vector<std::uint32_t> neighbors;  ///< offsets.back() entries

  [[nodiscard]] std::size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }

  [[nodiscard]] std::size_t degree(std::size_t i) const {
    return offsets[i + 1] - offsets[i];
  }

  /// The neighbor list of vertex i as a contiguous span.
  [[nodiscard]] std::span<const std::uint32_t> operator[](std::size_t i) const {
    return {neighbors.data() + offsets[i], neighbors.data() + offsets[i + 1]};
  }
};

/// Two-pass count-then-write builder (DESIGN.md §2.3): `count(i)` returns the
/// number of neighbors of vertex i, `fill(i, out)` writes exactly that many
/// into `out`. Pass 1 counts in parallel, a serial prefix sum fixes every
/// vertex's slice, pass 2 fills the disjoint slices in parallel — no
/// per-chunk buffers, no concatenation memcpy, and both allocations are
/// exact (n + 1 offsets, sum-of-degrees neighbors). Because every slot is
/// written exactly once, indexed by vertex, the result is bit-identical at
/// any thread count. `count` and `fill` must agree and be pure in i.
/// Throws std::overflow_error when a count or the running total outgrows
/// the 32-bit offset space (DESIGN.md §2.8) — before anything is resized.
template <typename Count, typename Fill>
[[nodiscard]] FlatAdjacency build_flat_adjacency(std::size_t n, Count&& count, Fill&& fill) {
  FlatAdjacency adj;
  adj.offsets.assign(n + 1, 0);
  if (n == 0) return adj;
  parallel_for(n, [&](std::size_t i) {
    adj.offsets[i + 1] = checked_u32(count(i), "FlatAdjacency: per-vertex neighbor");
  });
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += adj.offsets[i + 1];
    adj.offsets[i + 1] = checked_u32(total, "FlatAdjacency: neighbor");
  }
  adj.neighbors.resize(adj.offsets[n]);
  parallel_for(n, [&](std::size_t i) { fill(i, adj.neighbors.data() + adj.offsets[i]); });
  return adj;
}

}  // namespace sens
