// Generation-tagged serving epochs over a churning topology
// (DESIGN.md §2.9).
//
// The immutable `QueryEngine` (§2.6) assumes its graph never changes;
// under churn that meant every `DynamicHng` event invalidated outstanding
// engines wholesale. An `EpochQueryEngine` instead follows the
// maintainer: `refresh()` polls `DynamicHng::overlay_generation()` and,
// when it moved, copies the maintainer's overlay into the engine's own
// CSR snapshot — so the epoch snapshot equals the maintainer's overlay bit
// for bit — then re-labels the oracle. Between refreshes the engine is as
// immutable as a `QueryEngine`: serving is const, concurrent, and a pure
// function of (epoch snapshot, params, query).
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
// Every answer carries a `Verdict`:
//   kExact        — exact distance (tight bracket or Dijkstra fallback);
//   kCertified    — oracle upper bound, provably <= max_stretch * d;
//   kDisconnected — no path in this epoch (reported, not guessed);
//   kStale        — the query names a slot that does not exist in this
//                   epoch (ids are generation-scoped under swap-remove;
//                   callers re-resolve and retry against a newer epoch).
// The zero-uncertified-wrong contract — every served distance is exact,
// certified-within-stretch, or explicitly kDisconnected/kStale — is
// asserted against exact Dijkstra on the E19 workload (bench_e19_faults)
// and in tests/test_fault.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/geometry/vec2.hpp"
#include "sens/graph/csr.hpp"
#include "sens/serve/query_engine.hpp"

namespace sens {

/// How one epoch answer was produced (header comment).
enum class Verdict : std::uint8_t {
  kExact = 0,
  kCertified = 1,
  kDisconnected = 2,
  kStale = 3,
};

/// Per-batch verdict accounting; sums over queries, deterministic at any
/// thread count.
struct EpochServeStats {
  std::uint64_t generation = 0;  ///< epoch that produced the answers
  std::size_t queries = 0;
  std::size_t exact = 0;
  std::size_t certified = 0;
  std::size_t disconnected = 0;
  std::size_t stale = 0;
};

struct EpochEngineParams {
  std::size_t num_landmarks = 16;
  double max_stretch = 1.1;  ///< certification budget (query_engine.hpp)
  std::uint64_t seed = 0x5eed5eed5eedULL;
  LandmarkSelection selection = LandmarkSelection::kUniformRandom;
  /// Seeded replacement draws per demoted/missing pivot before the engine
  /// accepts a smaller pivot set.
  std::size_t demote_retries = 8;
};

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
  explicit EpochQueryEngine(const DynamicHng& dyn, const EpochEngineParams& params = {});

  /// Catch up with the maintainer: copy its current overlay and points,
  /// demote dead pivots, recruit replacements, re-sweep labels. No-op
  /// (beyond the generation read) when already current.
  EpochRefreshStats refresh();

  /// Answer a batch with explicit verdicts: distances into out[i],
  /// verdict into verdicts[i] (both sized like queries; throws
  /// std::invalid_argument otherwise, before any work). kDisconnected and
  /// kStale answers report kInfCost — an id outside this epoch is kStale,
  /// not an error. Chunk-parallel, const, safe to call concurrently with
  /// other serve() calls on this engine.
  EpochServeStats serve(std::span<const Query> queries, std::span<double> out,
                        std::span<Verdict> verdicts) const;

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const CsrGraph& graph() const { return graph_; }
  [[nodiscard]] std::span<const Vec2> points() const { return points_; }
  [[nodiscard]] std::span<const double> arc_weights() const { return weights_; }
  [[nodiscard]] const LandmarkOracle& oracle() const { return oracle_; }
  [[nodiscard]] double max_stretch() const { return params_.max_stretch; }

 private:
  const DynamicHng* dyn_;
  EpochEngineParams params_;
  std::uint64_t generation_ = 0;
  CsrGraph graph_;             ///< own snapshot of the overlay at generation_
  std::vector<Vec2> points_;   ///< own copy of the points at generation_
  std::vector<double> weights_;
  std::vector<std::uint32_t> landmarks_;  ///< surviving + recruited pivots
  LandmarkOracle oracle_;
};

}  // namespace sens
