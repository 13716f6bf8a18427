#include "sens/serve/epoch_engine.hpp"

#include <algorithm>
#include <vector>

#include "sens/geometry/vec2.hpp"
#include "sens/rng/rng.hpp"

namespace sens {

namespace {

/// Rng stream tag of pivot replacement draws (one tag per consumer), and
/// the draws per missing pivot before the engine accepts a smaller set.
constexpr std::uint64_t kDemoteStream = 0xe90cde40ULL;
constexpr std::size_t kDemoteRetries = 8;

/// Euclidean arc lengths of the snapshot over the maintainer's points.
std::vector<double> length_weights(const CsrGraph& g, const DynamicHng& dyn) {
  const std::span<const Vec2> pts = dyn.points();
  return g.arc_weights([&](std::uint32_t u, std::uint32_t v) { return dist(pts[u], pts[v]); });
}

}  // namespace

EpochQueryEngine::EpochQueryEngine(const DynamicHng& dyn, const QueryEngineParams& params)
    : dyn_(&dyn),
      params_(params),
      generation_(dyn.overlay_generation()),
      graph_(dyn.overlay()),
      engine_(graph_, length_weights(graph_, dyn), params) {}

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

  // Pivot epoch: survivors keep their slots, dead pivots are demoted and
  // bounded seeded retries recruit distinct replacements. Exhausted
  // retries shrink the pivot set — more exact fallbacks, never a wrong
  // answer.
  const std::span<const std::uint32_t> old = engine_.oracle().landmarks();
  std::vector<std::uint32_t> landmarks(old.begin(), old.end());
  const std::size_t n = graph_.num_vertices();
  std::erase_if(landmarks, [n](std::uint32_t l) { return l >= n; });
  stats.landmarks_demoted = old.size() - landmarks.size();
  const std::size_t want = std::min(params_.num_landmarks, n);
  if (landmarks.size() < want) {
    Rng rng = Rng::stream(params_.seed, kDemoteStream, generation_);
    const std::size_t missing = want - landmarks.size();
    for (std::size_t k = 0; k < missing; ++k) {
      for (std::size_t attempt = 0; attempt < kDemoteRetries; ++attempt) {
        const auto pick = static_cast<std::uint32_t>(rng.uniform_index(n));
        if (std::find(landmarks.begin(), landmarks.end(), pick) == landmarks.end()) {
          landmarks.push_back(pick);
          ++stats.landmarks_recruited;
          break;
        }
      }
    }
  }
  engine_ = QueryEngine(graph_, length_weights(graph_, *dyn_), std::move(landmarks),
                        params_.max_stretch);
  stats.generation = generation_;
  return stats;
}

}  // namespace sens
