#include "sens/serve/query_engine.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "sens/obs/obs.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/scratch_pool.hpp"

namespace sens {

namespace {

/// Entry checks of the batched forms, run before any work: every id must
/// name a vertex of `g`, and an output span (when the form has one) must be
/// sized like the batch.
void check_batch(const CsrGraph& g, std::span<const Query> queries, const char* what) {
  const std::size_t n = g.num_vertices();
  for (const Query& q : queries) {
    if (q.src >= n || q.dst >= n) {
      throw std::out_of_range(std::string("QueryEngine::") + what + ": query id out of range");
    }
  }
}

void check_batch(const CsrGraph& g, std::span<const Query> queries, std::size_t out_size,
                 const char* what) {
  if (out_size != queries.size()) {
    throw std::invalid_argument(std::string("QueryEngine::") + what +
                                ": out.size() must equal queries.size()");
  }
  check_batch(g, queries, what);
}

}  // namespace

QueryEngine::QueryEngine(const CsrGraph& g, std::vector<double> arc_weights,
                         const QueryEngineParams& params)
    : g_(&g),
      weights_(std::move(arc_weights)),
      oracle_(LandmarkOracle::build(
          g, weights_,
          LandmarkOracleParams{params.num_landmarks, params.seed, params.selection})),
      max_stretch_(params.max_stretch) {}

void QueryEngine::exact_distances(std::span<const Query> queries, std::span<double> out) const {
  check_batch(*g_, queries, out.size(), "exact_distances");
  ScratchPool<DijkstraScratch> scratches;
  parallel_for_chunks(queries.size(), [&](std::size_t begin, std::size_t end) {
    const auto scratch = scratches.acquire();
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = dijkstra_cost(*g_, queries[i].src, queries[i].dst, weights_, *scratch);
    }
  });
}

double QueryEngine::estimate_distance(Query q, RouteScratch& scratch, ServeStats& stats) const {
  ++stats.queries;
  const LandmarkOracle::Bounds b = oracle_.bounds(q.src, q.dst);
  // The bracket certifies when it is exact (s == t, disconnected pairs:
  // lower == upper, infinities included) or tight enough for the stretch
  // budget. `lower > 0` guards the ratio test against a zero lower bound.
  double answer;
  if (b.lower == b.upper || (b.lower > 0.0 && b.upper <= max_stretch_ * b.lower)) {
    ++stats.certified;
    SENS_OBS(obs::add(obs::Counter::kOracleCertified, 1);)
    answer = b.upper;
  } else {
    ++stats.exact;
    SENS_OBS(obs::add(obs::Counter::kOracleFallback, 1);)
    answer = dijkstra_cost(*g_, q.src, q.dst, weights_, scratch.dijkstra);
  }
  if (answer >= kInfCost) {
    ++stats.disconnected;
    SENS_OBS(obs::add(obs::Counter::kOracleDisconnected, 1);)
  }
  return answer;
}

ServeStats QueryEngine::estimate_distances(std::span<const Query> queries,
                                           std::span<double> out) const {
  check_batch(*g_, queries, out.size(), "estimate_distances");
  const ChunkLayout layout = chunk_layout(queries.size());
  std::vector<ServeStats> partials(layout.count);
  ScratchPool<RouteScratch> scratches;
  parallel_for_chunks(queries.size(), [&](std::size_t begin, std::size_t end) {
    const auto scratch = scratches.acquire();
    ServeStats& stats = partials[layout.index_of(begin)];
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = estimate_distance(queries[i], *scratch, stats);
    }
  });
  ServeStats total;
  for (const ServeStats& p : partials) total += p;  // chunk order (sums commute anyway)
  return total;
}

void QueryEngine::hop_distances(std::span<const Query> queries,
                                std::span<std::uint32_t> out) const {
  check_batch(*g_, queries, out.size(), "hop_distances");
  ScratchPool<BfsScratch> scratches;
  parallel_for_chunks(queries.size(), [&](std::size_t begin, std::size_t end) {
    const auto scratch = scratches.acquire();
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = bfs_distance(*g_, queries[i].src, queries[i].dst, *scratch);
    }
  });
}

void QueryEngine::routes(std::span<const Query> queries, std::vector<std::uint32_t>& offsets,
                         std::vector<std::uint32_t>& nodes) const {
  check_batch(*g_, queries, "routes");
  const std::size_t q = queries.size();
  // Per-chunk node buffers concatenated in chunk order equal one serial
  // left-to-right pass (§2.3): chunk c covers a contiguous query range, and
  // offsets come from per-query lengths, so the layout is caller-thread-
  // and worker-count-invariant.
  const ChunkLayout layout = chunk_layout(q);
  std::vector<std::vector<std::uint32_t>> chunk_nodes(layout.count);
  offsets.assign(q + 1, 0);
  ScratchPool<RouteScratch> scratches;
  parallel_for_chunks(q, [&](std::size_t begin, std::size_t end) {
    const auto scratch = scratches.acquire();
    std::vector<std::uint32_t>& sink = chunk_nodes[layout.index_of(begin)];
    for (std::size_t i = begin; i < end; ++i) {
      dijkstra_path_into(*g_, queries[i].src, queries[i].dst, weights_, scratch->dijkstra,
                         scratch->path);
      offsets[i + 1] = static_cast<std::uint32_t>(scratch->path.size());
      sink.insert(sink.end(), scratch->path.begin(), scratch->path.end());
    }
  });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  nodes.clear();
  nodes.reserve(offsets.back());
  for (const auto& c : chunk_nodes) nodes.insert(nodes.end(), c.begin(), c.end());
}

std::vector<SensRoute> route_batch(const SensRouter& router,
                                   std::span<const std::pair<Site, Site>> pairs) {
  std::vector<SensRoute> out(pairs.size());
  ScratchPool<SensRouteScratch> scratches;
  parallel_for_chunks(pairs.size(), [&](std::size_t begin, std::size_t end) {
    const auto scratch = scratches.acquire();
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = router.route(pairs[i].first, pairs[i].second, *scratch);
    }
  });
  return out;
}

}  // namespace sens
