// Dijkstra shortest paths with arbitrary non-negative edge weights.
//
// The power-efficiency experiments (Li-Wan-Wang comparison, E12) need
// shortest paths under Euclidean length and under the radio power metric
// w(u,v) = d(u,v)^beta, beta in [2, 5], over the same CSR graph. Weights
// come in two shapes (DESIGN.md §2.4):
//   * a template functor `w(u, v)` — zero type erasure, inlined into the
//     relaxation loop (never a `std::function` per relaxed edge);
//   * a precomputed per-arc array aligned with the CSR adjacency
//     (`CsrGraph::arc_weights`) — the inner loop is a flat array read,
//     and one array serves every source of a batch.
// Hot-path queries are allocation-free: the caller owns a
// `DijkstraScratch` whose distance/heap arrays are timestamp-versioned, so
// consecutive sources skip the O(n) clear, and the 4-ary indexed heap
// decrease-keys in place instead of enqueueing stale entries. The batched
// `dijkstra_many` chunk-parallelizes over sources; every source's row is
// computed independently, so the output is bit-identical at any thread
// count (§2.4).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "sens/graph/csr.hpp"
#include "sens/obs/obs.hpp"

namespace sens {

inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// Caller-owned working memory for Dijkstra runs. A vertex's entries are
/// valid only while `stamp[v] == epoch`, so `prepare()` is O(1): bumping
/// the epoch invalidates the previous source's state without touching the
/// arrays (a full clear happens only on resize and on the 2^32-epoch
/// wrap). Contents are opaque to callers and clobbered by every run; never
/// share one scratch between threads (DESIGN.md §2.4).
struct DijkstraScratch {
  static constexpr std::uint32_t kSettled = 0xffffffffu;

  std::vector<double> dist;           ///< tentative cost, valid when stamped
  std::vector<std::uint32_t> parent;  ///< predecessor on the best path found
  std::vector<std::uint32_t> pos;     ///< heap position, or kSettled after pop
  std::vector<std::uint32_t> stamp;   ///< per-vertex epoch mark
  std::vector<std::uint32_t> heap;    ///< 4-ary min-heap of vertex ids, keyed by dist
  std::uint32_t epoch = 0;

  /// Start a new run over a graph with n vertices.
  void prepare(std::size_t n) {
    if (stamp.size() != n) {
      dist.assign(n, 0.0);
      parent.assign(n, 0);
      pos.assign(n, 0);
      stamp.assign(n, 0);
      epoch = 0;
    }
    if (++epoch == 0) {  // epoch wrapped: hard reset once per 2^32 runs
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
    heap.clear();
  }

  [[nodiscard]] bool reached(std::uint32_t v) const { return stamp[v] == epoch; }

  void push(std::uint32_t v, double cost, std::uint32_t from) {
    dist[v] = cost;
    parent[v] = from;
    stamp[v] = epoch;
    pos[v] = static_cast<std::uint32_t>(heap.size());
    heap.push_back(v);
    sift_up(static_cast<std::uint32_t>(heap.size()) - 1);
  }

  void decrease(std::uint32_t v, double cost, std::uint32_t from) {
    dist[v] = cost;
    parent[v] = from;
    sift_up(pos[v]);
  }

  std::uint32_t pop_min() {
    const std::uint32_t top = heap.front();
    const std::uint32_t last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      heap[0] = last;
      pos[last] = 0;
      sift_down(0);
    }
    pos[top] = kSettled;
    return top;
  }

 private:
  void sift_up(std::uint32_t i) {
    const std::uint32_t v = heap[i];
    const double key = dist[v];
    while (i > 0) {
      const std::uint32_t p = (i - 1) / 4;
      if (dist[heap[p]] <= key) break;
      heap[i] = heap[p];
      pos[heap[i]] = i;
      i = p;
    }
    heap[i] = v;
    pos[v] = i;
  }

  void sift_down(std::uint32_t i) {
    const auto size = static_cast<std::uint32_t>(heap.size());
    const std::uint32_t v = heap[i];
    const double key = dist[v];
    for (;;) {
      const std::uint32_t first = 4 * i + 1;
      if (first >= size) break;
      std::uint32_t best = first;
      double best_key = dist[heap[first]];
      const std::uint32_t end = first + 4 < size ? first + 4 : size;
      for (std::uint32_t c = first + 1; c < end; ++c) {
        const double ck = dist[heap[c]];
        if (ck < best_key) {
          best = c;
          best_key = ck;
        }
      }
      if (best_key >= key) break;
      heap[i] = heap[best];
      pos[heap[i]] = i;
      i = best;
    }
    heap[i] = v;
    pos[v] = i;
  }
};

namespace detail {

inline constexpr std::uint32_t kNoTarget = 0xffffffffu;

/// Shared engine: settle vertices from `source` until the heap drains or
/// `target` is settled. `w(arc, u, v)` supplies the weight of the arc with
/// index `arc` (a flat array read for the precomputed-weight path).
template <typename ArcWeight>
void dijkstra_run(const CsrGraph& g, std::uint32_t source, ArcWeight&& w, DijkstraScratch& s,
                  std::uint32_t target = kNoTarget) {
  // Work tallies live in plain stack locals and flush to the obs registry
  // once per exit path — the hot loop never touches shared state, and the
  // flush is a call, not a destructor: a non-trivial destructor here makes
  // the compiler thread EH cleanups through the relaxation loop, which
  // costs ~5% wall clock on Dijkstra-bound benches. uint32 tallies cannot
  // overflow (pops <= n, relaxed <= m, both < 2^32 by CSR's arc indexing)
  // and keep register pressure down. Per-source work is a pure function of
  // (graph, source, target), so totals are thread-invariant (§2.10).
  SENS_OBS(std::uint32_t obs_pops = 0; std::uint32_t obs_relaxed = 0;)
  SENS_OBS(const auto obs_flush = [&]() noexcept {
    obs::add(obs::Counter::kDijkstraRuns, 1);
    obs::add(obs::Counter::kDijkstraHeapPops, obs_pops);
    obs::add(obs::Counter::kDijkstraRelaxedArcs, obs_relaxed);
  };)
  s.prepare(g.num_vertices());
  s.push(source, 0.0, source);
  while (!s.heap.empty()) {
    const std::uint32_t u = s.pop_min();
    if (u == target) {
      SENS_OBS(++obs_pops; obs_flush();)
      return;
    }
    const double du = s.dist[u];
    const std::uint32_t begin = g.arc_begin(u);
    const std::uint32_t end = g.arc_end(u);
    SENS_OBS(++obs_pops; obs_relaxed += end - begin;)
    for (std::uint32_t a = begin; a < end; ++a) {
      const std::uint32_t v = g.arc_target(a);
      const double nc = du + w(a, u, v);
      if (!s.reached(v)) {
        s.push(v, nc, u);
      } else if (nc < s.dist[v] && s.pos[v] != DijkstraScratch::kSettled) {
        s.decrease(v, nc, u);
      }
    }
  }
  SENS_OBS(obs_flush();)
}

/// Copy a finished run's costs into a caller buffer (unreached = kInfCost).
void export_costs(const DijkstraScratch& s, std::span<double> out);

template <typename WeightFn>
concept EndpointWeight = std::is_invocable_r_v<double, WeightFn, std::uint32_t, std::uint32_t>;

}  // namespace detail

// --- precomputed per-arc weights (see CsrGraph::arc_weights) ---

/// Costs from `source` to all vertices, written into `out` (size n);
/// unreachable vertices get kInfCost. Allocation-free given a warm scratch.
void dijkstra_costs_into(const CsrGraph& g, std::uint32_t source,
                         std::span<const double> arc_weights, DijkstraScratch& scratch,
                         std::span<double> out);

/// Cost from source to target with early exit; kInfCost when disconnected.
[[nodiscard]] double dijkstra_cost(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                                   std::span<const double> arc_weights, DijkstraScratch& scratch);

/// Min-cost path into `path` (cleared; empty when unreachable; includes
/// both endpoints). Returns true when target was reached.
bool dijkstra_path_into(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                        std::span<const double> arc_weights, DijkstraScratch& scratch,
                        std::vector<std::uint32_t>& path);

/// Batched multi-source costs, chunk-parallel over `sources`: row i of
/// `out` (stride n, size sources.size() * n) receives the costs from
/// sources[i]. Rows are computed independently with scratches leased from a
/// per-call pool (no allocation outlives the call), so the output is
/// bit-identical at any thread count (DESIGN.md §2.4, §2.6).
void dijkstra_many_into(const CsrGraph& g, std::span<const std::uint32_t> sources,
                        std::span<const double> arc_weights, std::span<double> out);
[[nodiscard]] std::vector<double> dijkstra_many(const CsrGraph& g,
                                                std::span<const std::uint32_t> sources,
                                                std::span<const double> arc_weights);

// --- template weight functors (one-off queries) ---

template <detail::EndpointWeight WeightFn>
void dijkstra_costs_into(const CsrGraph& g, std::uint32_t source, WeightFn&& weight,
                         DijkstraScratch& scratch, std::span<double> out) {
  detail::dijkstra_run(
      g, source, [&](std::size_t, std::uint32_t u, std::uint32_t v) { return weight(u, v); },
      scratch);
  detail::export_costs(scratch, out);
}

template <detail::EndpointWeight WeightFn>
[[nodiscard]] std::vector<double> dijkstra_costs(const CsrGraph& g, std::uint32_t source,
                                                 WeightFn&& weight) {
  DijkstraScratch scratch;
  std::vector<double> out(g.num_vertices());
  dijkstra_costs_into(g, source, std::forward<WeightFn>(weight), scratch, out);
  return out;
}

}  // namespace sens
