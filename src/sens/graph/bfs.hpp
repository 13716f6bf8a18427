// Breadth-first search utilities: single-source hop distances, distances to
// a single target (early exit), shortest hop paths, and the batched
// multi-source `bfs_many`. Distances use uint32 with `kUnreachable` as the
// sentinel.
//
// Queries are allocation-free: the caller owns a `BfsScratch` whose
// distance/parent arrays are timestamp-versioned, so consecutive sources
// skip the O(n) clear (DESIGN.md §2.4). Only the whole-row forms
// (`bfs_distances`, `bfs_many`) also come as allocating one-shots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sens/graph/csr.hpp"

namespace sens {

inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Caller-owned working memory for BFS runs. Entries of a vertex are valid
/// only while `stamp[v] == epoch`; `prepare()` is O(1) between sources.
/// Contents are opaque and clobbered by every run; never share one scratch
/// between threads (DESIGN.md §2.4).
struct BfsScratch {
  std::vector<std::uint32_t> dist;    ///< hop count, valid when stamped
  std::vector<std::uint32_t> parent;  ///< predecessor on the discovery tree
  std::vector<std::uint32_t> stamp;   ///< per-vertex epoch mark
  std::vector<std::uint32_t> queue;   ///< frontier, reused across runs
  std::uint32_t epoch = 0;

  void prepare(std::size_t n) {
    if (stamp.size() != n) {
      dist.assign(n, 0);
      parent.assign(n, 0);
      stamp.assign(n, 0);
      epoch = 0;
    }
    if (++epoch == 0) {  // epoch wrapped: hard reset once per 2^32 runs
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
    queue.clear();
  }

  [[nodiscard]] bool reached(std::uint32_t v) const { return stamp[v] == epoch; }
};

/// Hop distances from `source` written into `out` (size n, kUnreachable
/// where disconnected). Allocation-free given a warm scratch.
void bfs_distances_into(const CsrGraph& g, std::uint32_t source, BfsScratch& scratch,
                        std::span<std::uint32_t> out);

/// Hop distance from `source` to every vertex (kUnreachable if none).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const CsrGraph& g, std::uint32_t source);

/// Hop distance from `source` to `target` only, with early exit; returns
/// kUnreachable when disconnected.
[[nodiscard]] std::uint32_t bfs_distance(const CsrGraph& g, std::uint32_t source,
                                         std::uint32_t target, BfsScratch& scratch);

/// Shortest hop path from source to target written into `path` (cleared;
/// empty when disconnected; includes both endpoints). Returns true when
/// the target was reached.
bool bfs_path_into(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                   BfsScratch& scratch, std::vector<std::uint32_t>& path);

/// Batched multi-source hop distances, chunk-parallel over `sources`: row i
/// of `out` (stride n, size sources.size() * n) receives the distances from
/// sources[i]. Rows are computed independently with scratches leased from a
/// per-call pool (no allocation outlives the call), so the output is
/// bit-identical at any thread count (DESIGN.md §2.4, §2.6).
void bfs_many_into(const CsrGraph& g, std::span<const std::uint32_t> sources,
                   std::span<std::uint32_t> out);
[[nodiscard]] std::vector<std::uint32_t> bfs_many(const CsrGraph& g,
                                                  std::span<const std::uint32_t> sources);

}  // namespace sens
