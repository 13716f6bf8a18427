#include "sens/serve/query_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sens/obs/obs.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/scratch_pool.hpp"

namespace sens {

namespace {

/// Constructor check, run before the oracle sweep reads the weights: one
/// non-negative, non-NaN weight per arc of `g`.
std::vector<double> checked_weights(const CsrGraph& g, std::vector<double> w) {
  if (w.size() != g.num_arcs()) {
    throw std::invalid_argument("QueryEngine: arc_weights.size() must equal g.num_arcs()");
  }
  if (std::any_of(w.begin(), w.end(), [](double x) { return std::isnan(x) || x < 0.0; })) {
    throw std::invalid_argument("QueryEngine: arc weights must be non-negative and not NaN");
  }
  return w;
}

/// Entry checks of the distance forms, run before any work: `out` must be
/// sized like the batch, and every id must name a vertex of `g`.
void check_batch(const CsrGraph& g, std::span<const Query> queries, std::size_t out_size,
                 const char* what) {
  if (out_size != queries.size()) {
    throw std::invalid_argument(std::string("QueryEngine::") + what +
                                ": out.size() must equal queries.size()");
  }
  const std::size_t n = g.num_vertices();
  for (const Query& q : queries) {
    if (q.src >= n || q.dst >= n) {
      throw std::out_of_range(std::string("QueryEngine::") + what + ": query id out of range");
    }
  }
}

}  // namespace

QueryEngine::QueryEngine(const CsrGraph& g, std::vector<double> arc_weights,
                         const QueryEngineParams& params)
    : g_(&g),
      weights_(checked_weights(g, std::move(arc_weights))),
      oracle_(LandmarkOracle::build(
          g, weights_,
          LandmarkOracleParams{params.num_landmarks, params.seed, params.selection})),
      max_stretch_(params.max_stretch) {}

QueryEngine::QueryEngine(const CsrGraph& g, std::vector<double> arc_weights,
                         std::vector<std::uint32_t> landmarks, double max_stretch)
    : g_(&g),
      weights_(checked_weights(g, std::move(arc_weights))),
      oracle_(LandmarkOracle::build_with(g, weights_, std::move(landmarks))),
      max_stretch_(max_stretch) {}

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

Verdict QueryEngine::answer(Query q, DijkstraScratch& scratch, ServeStats& stats,
                            double& out) const {
  ++stats.queries;
  const std::size_t n = g_->num_vertices();
  if (q.src >= n || q.dst >= n) {
    // Slot ids are generation-scoped under churn (swap-remove recycles
    // them); an out-of-range id is answered as stale, never resolved to
    // some other node's distance.
    ++stats.stale;
    out = kInfCost;
    return Verdict::kStale;
  }
  const LandmarkOracle::Bounds b = oracle_.bounds(q.src, q.dst);
  // The bracket certifies when it is exact (s == t, disconnected pairs:
  // lower == upper, infinities included) or tight enough for the stretch
  // budget. `lower > 0` guards the ratio test against a zero lower bound.
  Verdict verdict;
  if (b.lower == b.upper || (b.lower > 0.0 && b.upper <= max_stretch_ * b.lower)) {
    ++stats.certified;
    SENS_OBS(obs::add(obs::Counter::kOracleCertified, 1);)
    out = b.upper;
    verdict = b.lower == b.upper ? Verdict::kExact : Verdict::kCertified;
  } else {
    ++stats.exact;
    SENS_OBS(obs::add(obs::Counter::kOracleFallback, 1);)
    out = dijkstra_cost(*g_, q.src, q.dst, weights_, scratch);
    verdict = Verdict::kExact;
  }
  if (out >= kInfCost) {
    ++stats.disconnected;
    SENS_OBS(obs::add(obs::Counter::kOracleDisconnected, 1);)
    verdict = Verdict::kDisconnected;
  }
  return verdict;
}

ServeStats QueryEngine::run(std::span<const Query> queries, std::span<double> out,
                            std::span<Verdict> verdicts) const {
  const ChunkLayout layout = chunk_layout(queries.size());
  std::vector<ServeStats> partials(layout.count);
  ScratchPool<DijkstraScratch> scratches;
  parallel_for_chunks(queries.size(), [&](std::size_t begin, std::size_t end) {
    const auto scratch = scratches.acquire();
    ServeStats& stats = partials[layout.index_of(begin)];
    for (std::size_t i = begin; i < end; ++i) {
      const Verdict v = answer(queries[i], *scratch, stats, out[i]);
      if (!verdicts.empty()) verdicts[i] = v;
    }
  });
  ServeStats total;
  for (const ServeStats& p : partials) total += p;  // chunk order (sums commute anyway)
  return total;
}

ServeStats QueryEngine::estimate_distances(std::span<const Query> queries,
                                           std::span<double> out) const {
  check_batch(*g_, queries, out.size(), "estimate_distances");
  return run(queries, out, {});
}

ServeStats QueryEngine::serve(std::span<const Query> queries, std::span<double> out,
                              std::span<Verdict> verdicts) const {
  if (out.size() != queries.size() || verdicts.size() != queries.size()) {
    throw std::invalid_argument("QueryEngine::serve: out and verdicts must be sized like queries");
  }
  return run(queries, out, verdicts);
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
