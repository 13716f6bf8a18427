#include "sens/hng/hng.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sens/graph/csr.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/checked.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// Stream tag for the promotion draws ("HNG"); each node's promotion chain
/// is the independent stream (seed, kHngLevelStream, node).
constexpr std::uint64_t kHngLevelStream = 0x484e47;

}  // namespace

void validate_hng_params(const HngParams& params) {
  if (!(params.promote_p > 0.0 && params.promote_p < 1.0)) {
    throw std::invalid_argument("hng: promote_p must be in (0, 1)");
  }
  if (params.k < 1) throw std::invalid_argument("hng: k must be >= 1");
  if (params.max_level < 2) throw std::invalid_argument("hng: max_level must be >= 2");
}

std::uint32_t hng_promotion_level(std::uint64_t seed, std::uint64_t node,
                                  const HngParams& params) {
  Rng rng = Rng::stream(seed, kHngLevelStream, node);
  std::uint32_t level = 1;
  while (level < params.max_level && rng.bernoulli(params.promote_p)) ++level;
  return level;
}

HngSelections build_hng_selections(std::span<const Vec2> points, const HngParams& params,
                                   std::uint64_t seed) {
  validate_hng_params(params);
  const std::size_t n = points.size();
  if (n == 0) return {};

  // Promotion by p-thinning: node u climbs while its own stream keeps
  // drawing heads. Each node reads only its (seed, stream, u) draws, so the
  // level vector is a pure function of (seed, params) — never of the chunk
  // schedule (DESIGN.md §2.5).
  std::vector<std::uint32_t> level(n, 0);
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) level[u] = hng_promotion_level(seed, u, params);
  });
  const std::uint32_t top_level = *std::max_element(level.begin(), level.end());

  // Population lists S_2 ⊇ ... ⊇ S_top (S_1 is the whole input and is
  // never queried): members[l - 2] lists S_l ascending, filled in one pass
  // over the level vector.
  std::vector<std::vector<std::uint32_t>> members(top_level >= 2 ? top_level - 1 : 0);
  {
    // Count-then-fill: a node of level l appears in S_2..S_l, so one
    // histogram over the level vector plus a suffix sum yields every
    // |S_l| exactly — each member list is a single allocation instead of
    // growth-by-doubling (DESIGN.md §2.8).
    std::vector<std::size_t> at_level(top_level + 1, 0);
    for (std::uint32_t u = 0; u < n; ++u) ++at_level[level[u]];
    std::size_t above = 0;
    for (std::uint32_t l = top_level; l >= 2; --l) {
      above += at_level[l];
      members[l - 2].reserve(above);
    }
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t l = 2; l <= level[u]; ++l) members[l - 2].push_back(u);
    }
  }
  std::vector<std::uint32_t> cumulative_size(top_level);
  cumulative_size[0] = static_cast<std::uint32_t>(n);
  for (std::uint32_t l = 2; l <= top_level; ++l) {
    cumulative_size[l - 1] = static_cast<std::uint32_t>(members[l - 2].size());
  }
  HngSelections s{.level = std::move(level),
                  .top_level = top_level,
                  .cumulative_size = std::move(cumulative_size),
                  .grids = {},
                  .selections = {}};
  // One density-tuned grid per linking target, each a subset view holding
  // its members' coordinates.
  s.grids.reserve(members.size());
  for (const std::vector<std::uint32_t>& m : members) {
    s.grids.emplace_back(points, m, std::min(params.k, m.size()));
  }

  // Directed selections: a node of exact level l < top links to its
  // min(k, |S_{l+1}|) nearest neighbors in S_{l+1}; the top-level nodes are
  // mutually interconnected (the paper's top clique — expected O(1) nodes).
  // Degrees are a pure function of the level vector, so the offsets are
  // fixed up front and every node fills its own disjoint slice.
  // S_top is the last member list when the hierarchy has >= 2 levels;
  // otherwise (nobody promoted — astronomically rare beyond tiny n) it is
  // every node.
  std::vector<std::uint32_t> everyone;
  if (top_level < 2) {
    everyone.resize(n);
    std::iota(everyone.begin(), everyone.end(), 0u);
  }
  const std::vector<std::uint32_t>& top = top_level >= 2 ? members[top_level - 2] : everyone;
  FlatAdjacency& sel = s.selections;
  sel.offsets.assign(n + 1, 0);
  std::uint64_t total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t l = s.level[u];
    const std::size_t out_deg =
        l == top_level ? top.size() - 1
                       : std::min(params.k, static_cast<std::size_t>(s.cumulative_size[l]));
    total += out_deg;
    sel.offsets[u + 1] = checked_u32(total, "hng: selection");  // DESIGN.md §2.8
  }
  sel.neighbors.resize(sel.offsets[n]);

  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    GridKnn::QueryScratch scratch;
    std::vector<std::uint32_t> found;
    for (std::size_t u = begin; u < end; ++u) {
      std::uint32_t* slot = sel.neighbors.data() + sel.offsets[u];
      const std::uint32_t l = s.level[u];
      if (l == top_level) {
        for (const std::uint32_t v : top) {
          if (v != u) *slot++ = v;
        }
        continue;
      }
      // S_{l+1} is grids[l - 1].
      s.grids[l - 1].nearest_into(points[u], params.k, static_cast<std::uint32_t>(u), scratch,
                                  found);
      std::copy(found.begin(), found.end(), slot);
    }
  });
  return s;
}

HngResult build_hng(std::span<const Vec2> points, const HngParams& params, std::uint64_t seed) {
  HngSelections s = build_hng_selections(points, params, seed);
  HngResult r;
  r.geo.points.assign(points.begin(), points.end());
  r.level = std::move(s.level);
  r.top_level = s.top_level;
  r.cumulative_size = std::move(s.cumulative_size);
  if (!points.empty()) r.geo.graph = CsrGraph::from_selections(std::move(s.selections));
  return r;
}

}  // namespace sens
