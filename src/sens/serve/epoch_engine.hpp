// Generation-tagged serving epochs over a churning topology
// (DESIGN.md §2.9).
//
// The immutable `QueryEngine` (§2.6) assumes its graph never changes. An
// `EpochQueryEngine` owns a snapshot of the `DynamicHng` overlay plus one
// `QueryEngine` over it, and follows the maintainer: `refresh()` polls
// `DynamicHng::overlay_generation()` and, when it moved, copies the
// maintainer's overlay into the snapshot — so the epoch snapshot equals
// the maintainer's overlay bit for bit — then rebuilds the engine over it.
// Between refreshes serving is `QueryEngine::serve`: const, concurrent,
// and a pure function of (epoch snapshot, params, query).
//
// Landmark epochs: pivots survive refreshes. A pivot whose slot vanished
// (id >= the new vertex count) is demoted; a bounded number of seeded
// replacement draws recruit a substitute (stream (seed, kDemote,
// generation, k), so recruitment is replayable). If the retries exhaust,
// the engine simply serves with fewer pivots — a weaker bracket sends
// more queries to the exact-Dijkstra path, never to a wrong answer.
// Labels are re-swept every refresh (one batched `dijkstra_many`), so a
// certified answer always certifies against the *current* epoch — stale
// labels cannot certify by construction.
//
// Ids are generation-scoped under swap-remove, so a query naming a slot
// outside this epoch is answered kStale (query_engine.hpp). The
// zero-uncertified-wrong contract — every served distance is exact,
// certified-within-stretch, or explicitly kDisconnected/kStale — is
// asserted against exact Dijkstra in bench_e19_faults and test_fault.
#pragma once

#include <cstdint>
#include <span>

#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/graph/csr.hpp"
#include "sens/serve/query_engine.hpp"

namespace sens {

// Old names of the params and stats, kept only because perfbench/ spells them.
using EpochEngineParams = QueryEngineParams;
using EpochServeStats = ServeStats;

/// What one refresh() did.
struct EpochRefreshStats {
  std::uint64_t generation = 0;       ///< epoch after the refresh
  std::size_t deltas_applied = 0;     ///< overlay generations advanced since the last refresh
  std::size_t landmarks_demoted = 0;  ///< pivots whose slot vanished
  std::size_t landmarks_recruited = 0;
};

class EpochQueryEngine {
 public:
  /// Snapshot the maintainer's current overlay and build the first epoch.
  /// `dyn` must outlive the engine; mutations of `dyn` and calls into the
  /// engine must not overlap (refresh() is the only coupling point).
  explicit EpochQueryEngine(const DynamicHng& dyn, const QueryEngineParams& params = {});

  EpochQueryEngine(const EpochQueryEngine&) = delete;  // engine_ points into graph_
  EpochQueryEngine& operator=(const EpochQueryEngine&) = delete;

  /// Catch up with the maintainer: copy its current overlay, demote dead
  /// pivots, recruit replacements, rebuild the engine. No-op (beyond the
  /// generation read) when already current.
  EpochRefreshStats refresh();

  /// `QueryEngine::serve` on this epoch; safe to call concurrently with
  /// other serve() calls.
  ServeStats serve(std::span<const Query> queries, std::span<double> out,
                   std::span<Verdict> verdicts) const {
    return engine_.serve(queries, out, verdicts);
  }

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const CsrGraph& graph() const { return graph_; }
  [[nodiscard]] const QueryEngine& engine() const { return engine_; }
  [[nodiscard]] double max_stretch() const { return engine_.max_stretch(); }

 private:
  const DynamicHng* dyn_;
  QueryEngineParams params_;
  std::uint64_t generation_;
  CsrGraph graph_;      ///< own snapshot of the overlay at generation_
  QueryEngine engine_;  ///< over graph_, with Euclidean arc lengths
};

}  // namespace sens
