// Routing as a service: concurrent batched s-t query engine (DESIGN.md §2.6).
//
// The experiments up to PR 5 pulled routes one call at a time inside each
// bench loop. This layer is the serving front end over the graph and router
// machinery: a `QueryEngine` is built once per overlay (graph + arc weights
// + landmark oracle) and then answers *batches* of distance and route
// queries into caller-owned buffers. It is immutable after construction —
// every method is const and allocates no shared mutable state — so one
// engine instance serves any number of concurrent caller threads, each
// submitting its own batches (the §2.6 serving contract). Working memory
// comes from per-call `ScratchPool` leases (batch paths) or a caller-owned
// `RouteScratch` (single-query paths); nothing survives the call.
//
// Two distance paths share one output contract:
//   * `exact_distances` — one early-exit Dijkstra per query, chunk-parallel
//     over the batch (the cold path, backed by the §2.4 batched engines);
//   * `estimate_distances` — O(L) landmark bounds per query; answers the
//     upper bound when the bracket certifies the stretch budget
//     (upper <= max_stretch * lower, or the bracket is exact: s == t and
//     disconnected pairs), and falls back to exact Dijkstra otherwise.
// Either way every answer is a pure function of (graph, weights, params,
// query) — bit-identical regardless of `--threads`, of how many caller
// threads share the engine, and of which path produced it being exact or
// certified (a certified answer is reported as such in `ServeStats`).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sens/core/sens_router.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/serve/landmark_oracle.hpp"

namespace sens {

/// One s-t query over the engine's graph.
struct Query {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// Per-batch accounting: how many answers each path produced. Counts are
/// sums over queries, so they are deterministic at any thread count.
struct ServeStats {
  std::size_t queries = 0;
  std::size_t certified = 0;     ///< answered from the oracle bracket alone
  std::size_t exact = 0;         ///< answered by an exact Dijkstra run
  std::size_t disconnected = 0;  ///< answers that came back kInfCost
                                 ///  (overlaps certified/exact: a verdict on
                                 ///  the answer, not a third path)

  ServeStats& operator+=(const ServeStats& o) {
    queries += o.queries;
    certified += o.certified;
    exact += o.exact;
    disconnected += o.disconnected;
    return *this;
  }
};

/// Caller-owned working memory for the single-query forms. Contents are
/// opaque and clobbered by every call; never share one scratch between
/// threads (one scratch per caller thread, §2.6).
struct RouteScratch {
  DijkstraScratch dijkstra;
  BfsScratch bfs;
  std::vector<std::uint32_t> path;
};

struct QueryEngineParams {
  std::size_t num_landmarks = 16;
  /// Certification budget of `estimate_distances`: answer the oracle upper
  /// bound only when upper <= max_stretch * lower (so the reported distance
  /// provably overshoots the true one by at most this factor).
  double max_stretch = 1.1;
  std::uint64_t seed = 0x5eed5eed5eedULL;
  /// Pivot-pick policy, passed through to the oracle
  /// (serve/landmark_oracle.hpp). Farthest-point costs L extra Dijkstra
  /// sweeps at build time and cuts the exact-fallback rate at serve time.
  LandmarkSelection selection = LandmarkSelection::kUniformRandom;
};

class QueryEngine {
 public:
  /// `g` must outlive the engine; `arc_weights` is consumed (aligned with
  /// the arcs of `g`, see CsrGraph::arc_weights). Builds the landmark
  /// oracle eagerly — construction is the only expensive step.
  QueryEngine(const CsrGraph& g, std::vector<double> arc_weights,
              const QueryEngineParams& params = {});

  // --- batched forms: chunk-parallel over the batch, results written to
  // caller-owned buffers, safe to call concurrently on one engine. Each
  // validates the batch before any work: std::out_of_range on a query id
  // >= graph().num_vertices(), std::invalid_argument when out.size() !=
  // queries.size() ---

  /// Exact weighted distance per query into out[i] (kInfCost when
  /// disconnected). out.size() must equal queries.size().
  void exact_distances(std::span<const Query> queries, std::span<double> out) const;

  /// Oracle-first distance per query into out[i]: certified upper bounds
  /// where the bracket allows, exact fallback otherwise (header comment).
  ServeStats estimate_distances(std::span<const Query> queries, std::span<double> out) const;

  /// Exact hop count per query into out[i] (kUnreachable when
  /// disconnected) — the BFS-backed cold path.
  void hop_distances(std::span<const Query> queries, std::span<std::uint32_t> out) const;

  /// Min-cost node paths for a batch, concatenated into caller-owned
  /// buffers: path i occupies nodes[offsets[i] .. offsets[i + 1]) (empty
  /// when disconnected; includes both endpoints otherwise). Both vectors
  /// are overwritten; offsets gets queries.size() + 1 entries.
  void routes(std::span<const Query> queries, std::vector<std::uint32_t>& offsets,
              std::vector<std::uint32_t>& nodes) const;

  // --- single-query forms: the caller brings the scratch (§2.6) ---

  [[nodiscard]] double exact_distance(Query q, RouteScratch& scratch) const {
    return dijkstra_cost(*g_, q.src, q.dst, weights_, scratch.dijkstra);
  }

  /// One oracle-first answer; increments the matching `stats` counters.
  [[nodiscard]] double estimate_distance(Query q, RouteScratch& scratch, ServeStats& stats) const;

  [[nodiscard]] const CsrGraph& graph() const { return *g_; }
  [[nodiscard]] std::span<const double> arc_weights() const { return weights_; }
  [[nodiscard]] const LandmarkOracle& oracle() const { return oracle_; }
  [[nodiscard]] double max_stretch() const { return max_stretch_; }

 private:
  const CsrGraph* g_;
  std::vector<double> weights_;
  LandmarkOracle oracle_;
  double max_stretch_;
};

/// Batched SENS tile routes on a shared router: one `SensRouter::route` per
/// pair, chunk-parallel with leased scratches. The router is immutable, so
/// any number of concurrent `route_batch` calls may share it; result i
/// depends only on (overlay, pairs[i]) and is bit-identical at any thread
/// count (§2.6).
[[nodiscard]] std::vector<SensRoute> route_batch(const SensRouter& router,
                                                 std::span<const std::pair<Site, Site>> pairs);

}  // namespace sens
