#include "sens/serve/epoch_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "sens/graph/dijkstra.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/scratch_pool.hpp"

namespace sens {

namespace {

/// Rng stream tag of pivot replacement draws (one tag per consumer).
constexpr std::uint64_t kDemoteStream = 0xe90cde40ULL;

}  // namespace

EpochQueryEngine::EpochQueryEngine(const DynamicHng& dyn, const EpochEngineParams& params)
    : dyn_(&dyn), params_(params) {
  generation_ = dyn.overlay_generation();
  graph_ = dyn.overlay();
  points_.assign(dyn.points().begin(), dyn.points().end());
  weights_ = graph_.arc_weights(
      [&](std::uint32_t u, std::uint32_t v) { return dist(points_[u], points_[v]); });
  const LandmarkOracle first = LandmarkOracle::build(
      graph_, weights_,
      LandmarkOracleParams{params_.num_landmarks, params_.seed, params_.selection});
  landmarks_.assign(first.landmarks().begin(), first.landmarks().end());
  oracle_ = first;
}

EpochRefreshStats EpochQueryEngine::refresh() {
  EpochRefreshStats stats;
  const std::uint64_t target = dyn_->overlay_generation();
  if (target == generation_) {
    stats.generation = generation_;
    return stats;
  }
  // One copy however many generations passed: O(n + m), the cost of the
  // materialization that produced the overlay.
  graph_ = dyn_->overlay();
  stats.deltas_applied = static_cast<std::size_t>(target - generation_);
  generation_ = target;
  points_.assign(dyn_->points().begin(), dyn_->points().end());
  weights_ = graph_.arc_weights(
      [&](std::uint32_t u, std::uint32_t v) { return dist(points_[u], points_[v]); });

  // Pivot epoch: survivors keep their slots, dead pivots are demoted and
  // bounded seeded retries recruit distinct replacements. Exhausted
  // retries shrink the pivot set — more exact fallbacks, never a wrong
  // answer.
  const std::size_t n = graph_.num_vertices();
  const std::size_t before = landmarks_.size();
  std::erase_if(landmarks_, [n](std::uint32_t l) { return l >= n; });
  stats.landmarks_demoted = before - landmarks_.size();
  const std::size_t want = std::min(params_.num_landmarks, n);
  if (landmarks_.size() < want) {
    Rng rng = Rng::stream(params_.seed, kDemoteStream, generation_);
    const std::size_t missing = want - landmarks_.size();
    for (std::size_t k = 0; k < missing; ++k) {
      for (std::size_t attempt = 0; attempt < params_.demote_retries; ++attempt) {
        const auto pick = static_cast<std::uint32_t>(rng.uniform_index(n));
        if (std::find(landmarks_.begin(), landmarks_.end(), pick) == landmarks_.end()) {
          landmarks_.push_back(pick);
          ++stats.landmarks_recruited;
          break;
        }
      }
    }
  }
  oracle_ = LandmarkOracle::build_with(graph_, weights_, landmarks_);
  stats.generation = generation_;
  return stats;
}

EpochServeStats EpochQueryEngine::serve(std::span<const Query> queries, std::span<double> out,
                                        std::span<Verdict> verdicts) const {
  if (out.size() != queries.size() || verdicts.size() != queries.size()) {
    throw std::invalid_argument(
        "EpochQueryEngine::serve: out and verdicts must be sized like queries");
  }
  const std::size_t n = graph_.num_vertices();
  const ChunkLayout layout = chunk_layout(queries.size());
  std::vector<EpochServeStats> partials(layout.count);
  ScratchPool<DijkstraScratch> scratches;
  parallel_for_chunks(queries.size(), [&](std::size_t begin, std::size_t end) {
    const auto scratch = scratches.acquire();
    EpochServeStats& stats = partials[layout.index_of(begin)];
    for (std::size_t i = begin; i < end; ++i) {
      const Query q = queries[i];
      ++stats.queries;
      if (q.src >= n || q.dst >= n) {
        // Slot ids are generation-scoped (swap-remove recycles them); an
        // out-of-range id is answered as stale, never resolved to some
        // other node's distance.
        out[i] = kInfCost;
        verdicts[i] = Verdict::kStale;
        ++stats.stale;
        continue;
      }
      const LandmarkOracle::Bounds b = oracle_.bounds(q.src, q.dst);
      if (b.lower == b.upper) {
        // Exact bracket: s == t, or a landmark proves two components.
        out[i] = b.upper;
        if (b.upper >= kInfCost) {
          verdicts[i] = Verdict::kDisconnected;
          ++stats.disconnected;
        } else {
          verdicts[i] = Verdict::kExact;
          ++stats.exact;
        }
        continue;
      }
      if (b.lower > 0.0 && b.upper <= params_.max_stretch * b.lower) {
        out[i] = b.upper;
        verdicts[i] = Verdict::kCertified;
        ++stats.certified;
        continue;
      }
      const double exact = dijkstra_cost(graph_, q.src, q.dst, weights_, *scratch);
      out[i] = exact;
      if (exact >= kInfCost) {
        verdicts[i] = Verdict::kDisconnected;
        ++stats.disconnected;
      } else {
        verdicts[i] = Verdict::kExact;
        ++stats.exact;
      }
    }
  });
  EpochServeStats total;
  total.generation = generation_;
  for (const EpochServeStats& p : partials) {
    total.queries += p.queries;
    total.exact += p.exact;
    total.certified += p.certified;
    total.disconnected += p.disconnected;
    total.stale += p.stale;
  }
  return total;
}

}  // namespace sens
