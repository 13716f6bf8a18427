#include "sens/dynamic/dynamic_hng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sens/obs/obs.hpp"

namespace sens {

namespace {

void sorted_insert(std::vector<std::uint32_t>& v, std::uint32_t x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

/// Caller guarantees membership.
void sorted_erase(std::vector<std::uint32_t>& v, std::uint32_t x) {
  v.erase(std::lower_bound(v.begin(), v.end(), x));
}

bool sorted_contains(const std::vector<std::uint32_t>& v, std::uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

void require_finite(Vec2 p) {
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    throw std::invalid_argument("DynamicHng: point coordinates must be finite");
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

DynamicHng::DynamicHng(const HngParams& params, std::uint64_t seed)
    : params_(params),
      seed_(seed),
      level_count_(static_cast<std::size_t>(params.max_level) + 1, 0),
      pyramid_(std::span<const Vec2>{}, std::span<const GridKnnPyramid::LevelSpec>{}) {
  validate_hng_params(params_);
}

DynamicHng::DynamicHng(std::span<const Vec2> points, const HngParams& params, std::uint64_t seed)
    : DynamicHng(params, seed) {
  for (const Vec2 p : points) require_finite(p);
  points_.reserve(points.size());
  for (const Vec2 p : points) insert(p);
}

double DynamicHng::dist2(std::uint32_t a, std::uint32_t b) const {
  const double dx = points_[a].x - points_[b].x;
  const double dy = points_[a].y - points_[b].y;
  return dx * dx + dy * dy;
}

/// First touch of a node in this event: capture its pre-event selection
/// (the edge delta in finalize_event diffs against these).
void DynamicHng::touch(std::uint32_t u) {
  if (dirty_flag_[u]) return;
  dirty_flag_[u] = 1;
  dirty_old_.emplace_back(u, sel_[u]);
}

void DynamicHng::mark_recompute(std::uint32_t w) {
  if (in_recompute_[w]) return;
  in_recompute_[w] = 1;
  recompute_.push_back(w);
}

void DynamicHng::flush_recompute() {
  for (const std::uint32_t w : recompute_) {
    if (alive_[w]) {
      compute_selection(w, fresh_sel_);
      set_selection(w, fresh_sel_);
      ++last_.recomputes;
    }
    in_recompute_[w] = 0;
  }
  recompute_.clear();
}

/// Every live node of exact level l, into `out` (unordered).
void DynamicHng::level_members(std::uint32_t l, std::vector<std::uint32_t>& out) {
  out.clear();
  exact_level(l).within_into(Vec2{}, kInf, out);
}

/// The batch linking rule for one node, against the *current* live
/// structure: clique membership for top nodes (everyone when top < 2, where
/// every node is a top node), otherwise a k-NN query into S_{l+1} — ids
/// ascending.
void DynamicHng::compute_selection(std::uint32_t u, std::vector<std::uint32_t>& out) {
  out.clear();
  const std::uint32_t l = level_[u];
  if (l == top_) {
    level_members(top_, out);
    std::erase(out, u);
    std::sort(out.begin(), out.end());
    return;
  }
  hng_link_node(pyramid_.level(l - 1), points_[u], u, params_.k, scratch_, found_);
  out.assign(found_.begin(), found_.end());
  std::sort(out.begin(), out.end());
}

void DynamicHng::set_selection(std::uint32_t u, const std::vector<std::uint32_t>& fresh) {
  touch(u);
  for (const std::uint32_t x : sel_[u]) sorted_erase(selectors_[x], u);
  sel_[u].assign(fresh.begin(), fresh.end());
  for (const std::uint32_t x : sel_[u]) sorted_insert(selectors_[x], u);
  raise_reach(u);
}

/// Squared distance of w's farthest pick if w holds a full regular
/// selection, else 0. A clique (every top node) or an under-full selection
/// (all of a small S_{l+1}) admits by membership, not by distance, so it
/// must not widen the radius bound.
double DynamicHng::worst_pick2(std::uint32_t w) const {
  if (level_[w] >= top_ || sel_[w].size() < params_.k) return 0.0;
  double worst2 = 0.0;
  for (const std::uint32_t x : sel_[w]) worst2 = std::max(worst2, dist2(w, x));
  return worst2;
}

/// Keep reach2_ covering w's selection after it changed.
void DynamicHng::raise_reach(std::uint32_t w) {
  double& reach2 = reach2_[level_[w] - 1];
  reach2 = std::max(reach2, worst_pick2(w));
}

/// Join repair for a regular node w (exact level l < top, l <= L-1): u just
/// entered its linking target S_{l+1}. The fresh k-NN set follows from the
/// old one with no re-query: if w was under-full its old selection was all
/// of S_{l+1}, so u is admitted; otherwise u displaces w's current worst
/// pick iff it beats it under the exact (distance, index) query order.
void DynamicHng::maybe_enter(std::uint32_t w, std::uint32_t u) {
  auto& s = sel_[w];
  if (s.size() < params_.k) {
    touch(w);
    sorted_insert(s, u);
    sorted_insert(selectors_[u], w);
    raise_reach(w);
    return;
  }
  std::uint32_t worst = s[0];
  double worst_d2 = dist2(w, s[0]);
  for (std::size_t i = 1; i < s.size(); ++i) {
    const double d = dist2(w, s[i]);
    if (d > worst_d2 || (d == worst_d2 && s[i] > worst)) {
      worst_d2 = d;
      worst = s[i];
    }
  }
  // A displacement only lowers w's worst distance, so reach2_ still holds.
  const double du = dist2(w, u);
  if (du < worst_d2 || (du == worst_d2 && u < worst)) {
    touch(w);
    sorted_erase(s, worst);
    sorted_erase(selectors_[worst], w);
    sorted_insert(s, u);
    sorted_insert(selectors_[u], w);
  }
}

/// Reset level l's radius bound to the largest worst pick among its
/// members. Raises alone would keep the widest selection the level ever
/// had (an early node under a still-sparse level above, a since-departed
/// corner node); run once the changes since the last reset exceed half the
/// level (so at least once per doubling), this costs O(k) per change.
/// Mid-event, a node still queued for recompute counts with its old
/// selection; its new one raises the bound when it is set.
void DynamicHng::tighten_reach(std::uint32_t l) {
  level_members(l, candidates_);
  double reach2 = 0.0;
  for (const std::uint32_t w : candidates_) reach2 = std::max(reach2, worst_pick2(w));
  reach2_[l - 1] = reach2;
  reach_age_[l - 1] = 0;
}

/// Join repair set of u (level L >= 2): per exact level l in [1, L-1], the
/// regular nodes maybe_enter() could admit u into. A full node admits u
/// only if d(w, u) is within its worst pick's distance, hence within the
/// level's reach; while S_{l+1} holds fewer than k nodes besides u, every
/// node of the level is under-full and admits u outright.
void DynamicHng::offer_join(std::uint32_t u) {
  const std::uint32_t level = level_[u];
  std::size_t others_above = 0;  // |S_{l+1} \ {u}|
  for (std::uint32_t j = level; j <= top_; ++j) others_above += level_count_[j];
  --others_above;
  for (std::uint32_t l = level - 1; l >= 1; --l) {
    if (2 * reach_age_[l - 1] > exact_level(l).size()) tighten_reach(l);
    const double r2 = others_above < params_.k ? kInf : reach2_[l - 1];
    candidates_.clear();
    exact_level(l).within_into(points_[u], r2, candidates_);
    for (const std::uint32_t w : candidates_) {
      if (in_recompute_[w]) continue;  // dissolving clique: relinks by re-query
      ++last_.repair_candidates;
      maybe_enter(w, u);
    }
    others_above += level_count_[l];
  }
}

/// Bring slot `id` to life at point p: draw its level from stream id, index
/// it, link it, and repair the selections it enters. `id` is either the
/// append slot (== points_.size()) or a dead slot being revived by the
/// swap-remove rename.
void DynamicHng::insert_slot(std::uint32_t id, Vec2 p) {
  if (id == points_.size()) {
    points_.push_back(p);
    level_.push_back(0);
    alive_.push_back(0);
    dirty_flag_.push_back(0);
    in_recompute_.push_back(0);
    sel_.emplace_back();
    selectors_.emplace_back();
  } else {
    points_[id] = p;
  }
  if (id == pyramid_.store_size()) {
    pyramid_.append_point(p);
    // The store may have moved; member coordinates did not (GridKnn::rebind).
    for (GridKnn& g : exact_) g.rebind(pyramid_.points());
  } else {
    pyramid_.set_point(id, p);  // vacated slot: no level indexes it now
  }
  alive_[id] = 1;
  ++live_n_;
  const std::uint32_t level = hng_promotion_level(seed_, id, params_);
  level_[id] = level;
  ++level_count_[level];

  const std::uint32_t old_top = top_;
  const std::uint32_t new_top = std::max(old_top, level);
  // Pyramid level index l holds S_{l+2}: queries need indexes up to
  // new_top - 2 (the top cohort's own linking target S_top).
  while (pyramid_.num_levels() + 1 < new_top) pyramid_.push_level(params_.k);
  for (std::uint32_t l = 2; l <= level; ++l) pyramid_.insert(l - 2, id);
  while (exact_.size() < level) {
    exact_.emplace_back(pyramid_.points(), std::span<const std::uint32_t>{}, params_.k);
    reach2_.push_back(0.0);
    reach_age_.push_back(0);
  }
  exact_level(level).insert_member(id);
  ++reach_age_[level - 1];

  if (live_n_ == 1) {
    top_ = new_top;
    touch(id);  // empty selection, but the event must record the new slot
    return;
  }

  if (new_top > old_top) {
    // The old top cohort loses its clique and relinks as regular nodes.
    level_members(old_top, candidates_);
    for (const std::uint32_t w : candidates_) mark_recompute(w);
    top_ = new_top;
  } else if (level == old_top) {
    // u joins the existing clique; members just gain u (exact — a clique
    // selection is "everyone else up here").
    level_members(old_top, candidates_);
    for (const std::uint32_t w : candidates_) {
      if (w == id) continue;
      touch(w);
      sorted_insert(sel_[w], id);
      sorted_insert(selectors_[id], w);
    }
  }

  // Regular nodes of exact level <= L-1 see u enter their linking target.
  // A level-1 joiner is a member of S_1 only, and linkers select from
  // S_{l+1} with l >= 1, so nobody can select it (p = 3/4 of joins under
  // the default promote_p).
  if (level >= 2) offer_join(id);

  mark_recompute(id);
  flush_recompute();
}

/// Retire slot `r`: unindex it, relink its orphaned selectors, and handle a
/// top-level drop (the survivors of the new highest level form a clique).
void DynamicHng::remove_slot(std::uint32_t r) {
  // Exactly the nodes that selected r must relink (their query target or
  // clique lost a member). A top drop to the everyone-clique is covered
  // too: in that regime every survivor had selected r.
  for (const std::uint32_t w : selectors_[r]) mark_recompute(w);

  alive_[r] = 0;
  --live_n_;
  --level_count_[level_[r]];
  for (std::uint32_t l = 2; l <= level_[r]; ++l) pyramid_.erase(l - 2, r);
  exact_level(level_[r]).erase_member(r);
  ++reach_age_[level_[r] - 1];

  const std::uint32_t old_top = top_;
  std::uint32_t t = old_top;
  while (t > 0 && level_count_[t] == 0) --t;
  top_ = t;

  touch(r);
  for (const std::uint32_t x : sel_[r]) sorted_erase(selectors_[x], r);
  sel_[r].clear();

  if (top_ != old_top && live_n_ > 0) {
    level_members(top_, candidates_);
    for (const std::uint32_t w : candidates_) mark_recompute(w);
  }
  flush_recompute();
}

void DynamicHng::begin_event() {
  dirty_old_.clear();
  last_ = {};
}

/// The selection node w held when the event began: the first-touch capture
/// for dirty nodes, the live list for everyone else (untouched == unchanged).
/// dirty_old_ holds one handful of entries per event, so a linear scan wins
/// over any index.
const std::vector<std::uint32_t>& DynamicHng::pre_event_selection(std::uint32_t w) const {
  if (dirty_flag_[w]) {
    for (const auto& [u, old] : dirty_old_) {
      if (u == w) return old;
    }
  }
  return sel_[w];
}

/// Derive the undirected edge delta of this event from the captured
/// pre-event selections vs the current ones. An edge {a, b} exists iff
/// b in sel(a) or a in sel(b); only pairs incident to a node whose
/// selection changed can have flipped. The counts feed the event stats; a
/// nonzero count marks the overlay stale for the next overlay() read.
void DynamicHng::finalize_event() {
  touched_.clear();
  for (const auto& [w, old] : dirty_old_) {
    for (const std::uint32_t x : old) touched_.emplace_back(std::min(w, x), std::max(w, x));
    for (const std::uint32_t x : sel_[w]) touched_.emplace_back(std::min(w, x), std::max(w, x));
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());

  last_.relinked = dirty_old_.size();
  for (const auto& [a, b] : touched_) {
    // Pre-event liveness is implied: a dead slot's selection is empty and
    // it appears in no live selection, so both containment tests fail.
    const auto& old_a = pre_event_selection(a);
    const auto& old_b = pre_event_selection(b);
    const bool before = sorted_contains(old_a, b) || sorted_contains(old_b, a);
    const bool after = alive_[a] && alive_[b] &&
                       (sorted_contains(sel_[a], b) || sorted_contains(sel_[b], a));
    if (before != after) ++(after ? last_.edges_added : last_.edges_removed);
  }
  if (last_.edges_added + last_.edges_removed > 0) overlay_stale_ = true;
  for (const auto& [w, old] : dirty_old_) dirty_flag_[w] = 0;
  dirty_old_.clear();
  SENS_OBS(obs::add(obs::Counter::kDynamicRepairCandidates, last_.repair_candidates);)
  SENS_OBS(obs::add(obs::Counter::kDynamicRecomputes, last_.recomputes);)
}

/// Bring the overlay cache up to date: rebuild it from the maintained
/// selections with the batch builder's own from_selections, when an edge
/// flipped or the vertex count changed since the last read.
void DynamicHng::materialize() const {
  const std::size_t n = points_.size();
  if (!overlay_stale_ && overlay_.num_vertices() == n) return;
  overlay_ = CsrGraph::from_selections(build_flat_adjacency(
      n, [&](std::size_t i) { return sel_[i].size(); },
      [&](std::size_t i, std::uint32_t* out) { std::copy(sel_[i].begin(), sel_[i].end(), out); }));
  overlay_stale_ = false;
  ++generation_;
}

std::uint32_t DynamicHng::insert(Vec2 p) {
  require_finite(p);
  begin_event();
  const auto id = static_cast<std::uint32_t>(points_.size());
  insert_slot(id, p);
  finalize_event();
  return id;
}

void DynamicHng::remove(std::uint32_t i) {
  if (i >= points_.size()) throw std::out_of_range("DynamicHng: remove of invalid slot");
  begin_event();
  const auto last = static_cast<std::uint32_t>(points_.size() - 1);
  remove_slot(i);
  if (i != last) {
    // Swap-remove: the last slot's point rejoins as slot i, redrawing its
    // promotion chain from stream i — levels stay a pure function of the
    // slot id, which is the whole oracle contract.
    const Vec2 q = points_[last];
    remove_slot(last);
    insert_slot(i, q);
  }
  finalize_event();
  points_.pop_back();
  level_.pop_back();
  alive_.pop_back();
  dirty_flag_.pop_back();
  in_recompute_.pop_back();
  sel_.pop_back();
  selectors_.pop_back();
}

}  // namespace sens
