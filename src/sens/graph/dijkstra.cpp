#include "sens/graph/dijkstra.hpp"

#include <algorithm>

#include "sens/support/parallel.hpp"
#include "sens/support/scratch_pool.hpp"

namespace sens {

namespace detail {

namespace {

/// Arc-array weight: the relaxation loop reads w[arc] — no callable
/// invocation, no endpoint arithmetic.
struct SpanWeight {
  const double* w;
  double operator()(std::size_t arc, std::uint32_t, std::uint32_t) const { return w[arc]; }
};

/// Walk the parent chain of a finished run into `path` (cleared; empty when
/// `target` was not reached; includes both endpoints).
void export_path(const DijkstraScratch& s, std::uint32_t source, std::uint32_t target,
                 std::vector<std::uint32_t>& path) {
  path.clear();
  if (!s.reached(target)) return;
  for (std::uint32_t v = target;; v = s.parent[v]) {
    path.push_back(v);
    if (v == source) break;
  }
  std::reverse(path.begin(), path.end());
}

}  // namespace

void export_costs(const DijkstraScratch& s, std::span<double> out) {
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = s.stamp[v] == s.epoch ? s.dist[v] : kInfCost;
  }
}

}  // namespace detail

void dijkstra_costs_into(const CsrGraph& g, std::uint32_t source,
                         std::span<const double> arc_weights, DijkstraScratch& scratch,
                         std::span<double> out) {
  detail::dijkstra_run(g, source, detail::SpanWeight{arc_weights.data()}, scratch);
  detail::export_costs(scratch, out);
}

double dijkstra_cost(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                     std::span<const double> arc_weights, DijkstraScratch& scratch) {
  detail::dijkstra_run(g, source, detail::SpanWeight{arc_weights.data()}, scratch, target);
  return scratch.reached(target) ? scratch.dist[target] : kInfCost;
}

bool dijkstra_path_into(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                        std::span<const double> arc_weights, DijkstraScratch& scratch,
                        std::vector<std::uint32_t>& path) {
  detail::dijkstra_run(g, source, detail::SpanWeight{arc_weights.data()}, scratch, target);
  detail::export_path(scratch, source, target, path);
  return !path.empty();
}

void dijkstra_many_into(const CsrGraph& g, std::span<const std::uint32_t> sources,
                        std::span<const double> arc_weights, std::span<double> out) {
  const std::size_t n = g.num_vertices();
  // One warm scratch per participant, leased per chunk from a pool that
  // dies with this call — chunks frequently hold a single source, so a
  // per-chunk scratch would pay the O(n) allocation per source, and a
  // thread_local would retain one n-sized allocation per worker thread
  // for the process lifetime. Rows depend only on (graph, weights,
  // source), so scratch reuse keeps the output bit-identical at any
  // thread count (DESIGN.md §2.4, §2.6).
  ScratchPool<DijkstraScratch> scratches;
  parallel_for_chunks(sources.size(), [&](std::size_t begin, std::size_t end) {
    const auto scratch = scratches.acquire();
    for (std::size_t i = begin; i < end; ++i) {
      dijkstra_costs_into(g, sources[i], arc_weights, *scratch, out.subspan(i * n, n));
    }
  });
}

std::vector<double> dijkstra_many(const CsrGraph& g, std::span<const std::uint32_t> sources,
                                  std::span<const double> arc_weights) {
  std::vector<double> out(sources.size() * g.num_vertices());
  dijkstra_many_into(g, sources, arc_weights, out);
  return out;
}

}  // namespace sens
