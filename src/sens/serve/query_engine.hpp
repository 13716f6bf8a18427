// Routing as a service: concurrent batched s-t query engine (DESIGN.md §2.6).
//
// A `QueryEngine` is built once per overlay (graph + arc weights + landmark
// oracle) and then answers *batches* of distance queries into caller-owned
// buffers. It is immutable after construction — every method is const and
// allocates no shared mutable state — so one engine instance serves any
// number of concurrent caller threads, each submitting its own batches (the
// §2.6 serving contract). Working memory comes from per-call `ScratchPool`
// leases; nothing survives the call.
//
// Two distance paths share one output contract:
//   * `exact_distances` — one early-exit Dijkstra per query, chunk-parallel
//     over the batch (the cold path, backed by the §2.4 batched engines);
//   * `estimate_distances` / `serve` — O(L) landmark bounds per query;
//     answers the upper bound when the bracket certifies the stretch budget
//     (upper <= max_stretch * lower, or the bracket is exact: s == t and
//     disconnected pairs), and falls back to exact Dijkstra otherwise.
// Either way every answer is a pure function of (graph, weights, params,
// query) — bit-identical regardless of `--threads` and of how many caller
// threads share the engine.
//
// `serve` also reports a `Verdict` per answer, and answers an id outside
// the graph as kStale instead of throwing: the epoch engine (§2.9) serves
// slot ids from an older generation through it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sens/core/sens_router.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/serve/landmark_oracle.hpp"

namespace sens {

/// One s-t query over the engine's graph.
struct Query {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// How one served answer was produced.
enum class Verdict : std::uint8_t {
  kExact,         ///< exact distance (exact bracket or Dijkstra fallback)
  kCertified,     ///< oracle upper bound, provably <= max_stretch * d
  kDisconnected,  ///< no path (reported, not guessed)
  kStale,         ///< the query names a vertex the graph does not have
};

/// Per-batch accounting by path: how many answers the bracket and the
/// Dijkstra fallback produced. Counts are sums over queries, so they are
/// deterministic at any thread count; certified + exact + stale == queries.
struct ServeStats {
  std::size_t queries = 0;
  std::size_t certified = 0;     ///< answered from the oracle bracket alone
  std::size_t exact = 0;         ///< answered by an exact Dijkstra run
  std::size_t disconnected = 0;  ///< answers that came back kInfCost
                                 ///  (overlaps certified/exact: a verdict on
                                 ///  the answer, not a third path)
  std::size_t stale = 0;         ///< ids outside the graph (`serve` only)

  ServeStats& operator+=(const ServeStats& o) {
    queries += o.queries;
    certified += o.certified;
    exact += o.exact;
    disconnected += o.disconnected;
    stale += o.stale;
    return *this;
  }
};

struct QueryEngineParams {
  std::size_t num_landmarks = 16;
  /// Certification budget of `estimate_distances`: answer the oracle upper
  /// bound only when upper <= max_stretch * lower (so the reported distance
  /// provably overshoots the true one by at most this factor).
  double max_stretch = 1.1;
  std::uint64_t seed = 0x5eed5eed5eedULL;
  /// Pivot-pick policy, passed through to the oracle
  /// (serve/landmark_oracle.hpp). Farthest-point costs no extra Dijkstra
  /// sweeps at build time (the pick's sweeps are the labels, though they
  /// run serially) and cuts the exact-fallback rate at serve time.
  LandmarkSelection selection = LandmarkSelection::kUniformRandom;
};

class QueryEngine {
 public:
  /// `g` must outlive the engine; `arc_weights` is consumed (aligned with
  /// the arcs of `g`, see CsrGraph::arc_weights). Builds the landmark
  /// oracle eagerly — construction is the only expensive step. Throws
  /// std::invalid_argument, before any oracle work, when `arc_weights` is
  /// not sized g.num_arcs() or holds a negative or NaN weight.
  QueryEngine(const CsrGraph& g, std::vector<double> arc_weights,
              const QueryEngineParams& params = {});

  /// Same, over a caller-chosen pivot set (distinct ids < n; see
  /// LandmarkOracle::build_with) — the epoch engine's refresh path.
  QueryEngine(const CsrGraph& g, std::vector<double> arc_weights,
              std::vector<std::uint32_t> landmarks, double max_stretch);

  // --- batched forms: chunk-parallel over the batch, results written to
  // caller-owned buffers, safe to call concurrently on one engine. Each
  // validates the batch before any work: std::invalid_argument when an
  // output is not sized like `queries`; the distance forms also throw
  // std::out_of_range on a query id >= graph().num_vertices() ---

  /// Exact weighted distance per query into out[i] (kInfCost when
  /// disconnected).
  void exact_distances(std::span<const Query> queries, std::span<double> out) const;

  /// Oracle-first distance per query into out[i]: certified upper bounds
  /// where the bracket allows, exact fallback otherwise (header comment).
  ServeStats estimate_distances(std::span<const Query> queries, std::span<double> out) const;

  /// `estimate_distances` with a verdict per answer into verdicts[i]. An id
  /// outside the graph is answered kInfCost / kStale, not thrown.
  ServeStats serve(std::span<const Query> queries, std::span<double> out,
                   std::span<Verdict> verdicts) const;

  [[nodiscard]] const CsrGraph& graph() const { return *g_; }
  [[nodiscard]] std::span<const double> arc_weights() const { return weights_; }
  [[nodiscard]] const LandmarkOracle& oracle() const { return oracle_; }
  [[nodiscard]] double max_stretch() const { return max_stretch_; }

 private:
  /// The one oracle-first classifier: answers q into `out`, bumps the
  /// matching `stats` fields and obs counters, and returns the verdict.
  Verdict answer(Query q, DijkstraScratch& scratch, ServeStats& stats, double& out) const;

  /// Chunk-parallel `answer` over a batch (verdicts may be empty).
  ServeStats run(std::span<const Query> queries, std::span<double> out,
                 std::span<Verdict> verdicts) const;

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
