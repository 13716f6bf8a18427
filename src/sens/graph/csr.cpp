#include "sens/graph/csr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sens/support/checked.hpp"

namespace sens {

namespace {

/// Vertex ids, loop counters and offsets are all std::uint32_t, so a graph
/// must satisfy n < 2^32 and 2m <= 2^32 - 1 (arc indices). Checked at every
/// construction entry point instead of wrapping silently (DESIGN.md §2.8).
void check_index_width(std::size_t n, std::size_t arcs) {
  if (n >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error("CsrGraph: vertex count " + std::to_string(n) +
                              " exceeds the 32-bit id space");
  }
  (void)checked_u32(arcs, "CsrGraph: arc");
}

/// Sort every vertex's adjacency slice in place (chunk-parallel; slices are
/// disjoint, so the result is identical at any thread count).
void sort_vertex_lists(const std::vector<std::uint32_t>& offsets,
                       std::vector<std::uint32_t>& adjacency) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  parallel_for(n, [&](std::size_t v) {
    std::sort(adjacency.begin() + offsets[v], adjacency.begin() + offsets[v + 1]);
  });
}

/// In-place per-vertex dedupe of sorted adjacency lists; rewrites offsets
/// and shrinks adjacency. Serial single pass (write cursor never overtakes
/// the read cursor).
void dedupe_vertex_lists(std::vector<std::uint32_t>& offsets,
                         std::vector<std::uint32_t>& adjacency) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  std::uint32_t write = 0;
  std::uint32_t read_begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t read_end = offsets[v + 1];
    offsets[v] = write;
    for (std::uint32_t a = read_begin; a < read_end; ++a) {
      if (a > read_begin && adjacency[a] == adjacency[a - 1]) continue;
      adjacency[write++] = adjacency[a];
    }
    read_begin = read_end;
  }
  offsets[n] = write;
  adjacency.resize(write);
}

}  // namespace

/// One counting pass over the normalized (sorted, symmetric, loop-free,
/// deduped) adjacency. Scanning sources in ascending order, the arcs into
/// any vertex v arrive in ascending source order — exactly the order of
/// v's sorted neighbor list — so a per-vertex cursor pairs arc (u -> v)
/// with its reverse slot (v -> u) without any search.
void CsrGraph::build_reverse_arcs() {
  reverse_arc_.resize(adjacency_.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(),
                                    offsets_.empty() ? offsets_.begin() : offsets_.end() - 1);
  for (std::uint32_t u = 0; u < num_vertices(); ++u) {
    for (std::uint32_t a = offsets_[u]; a < offsets_[u + 1]; ++a) {
      reverse_arc_[a] = cursor[adjacency_[a]]++;
    }
  }
}

CsrGraph CsrGraph::Builder::build(std::size_t n) && {
  check_index_width(n, endpoints_.size());  // endpoints_.size() == 2m pre-merge
  CsrGraph g;
  g.offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i + 1 < endpoints_.size(); i += 2) {
    const std::uint32_t u = endpoints_[i];
    const std::uint32_t v = endpoints_[i + 1];
    if (u >= n || v >= n) throw std::out_of_range("CsrGraph: vertex id out of range");
    if (u == v) continue;  // self loops dropped
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adjacency_.resize(g.offsets_[n]);  // exact: 2m pre-merge
  std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t i = 0; i + 1 < endpoints_.size(); i += 2) {
    const std::uint32_t u = endpoints_[i];
    const std::uint32_t v = endpoints_[i + 1];
    if (u == v) continue;
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  endpoints_.clear();
  sort_vertex_lists(g.offsets_, g.adjacency_);
  dedupe_vertex_lists(g.offsets_, g.adjacency_);
  g.build_reverse_arcs();
  return g;
}

CsrGraph CsrGraph::from_edges(std::size_t n,
                              std::vector<std::pair<std::uint32_t, std::uint32_t>> edges) {
  Builder b;
  b.reserve(edges.size());
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  edges.clear();
  return std::move(b).build(n);
}

CsrGraph CsrGraph::from_symmetric_adjacency(FlatAdjacency adj, bool lists_sorted) {
  if (!adj.offsets.empty() && adj.offsets.back() != adj.neighbors.size()) {
    throw std::invalid_argument("CsrGraph: offsets and neighbors disagree");
  }
  check_index_width(adj.size(), adj.neighbors.size());
  CsrGraph g;
  g.offsets_ = std::move(adj.offsets);
  g.adjacency_ = std::move(adj.neighbors);
  if (g.offsets_.empty()) g.offsets_.assign(1, 0);
  if (!lists_sorted) sort_vertex_lists(g.offsets_, g.adjacency_);
  g.build_reverse_arcs();
  return g;
}

CsrGraph CsrGraph::from_selections(FlatAdjacency sel) {
  const std::size_t n = sel.size();
  if (!sel.offsets.empty() && sel.offsets.back() != sel.neighbors.size()) {
    throw std::invalid_argument("CsrGraph: offsets and neighbors disagree");
  }
  check_index_width(n, sel.neighbors.size());
  for (const std::uint32_t v : sel.neighbors) {
    if (v >= n) throw std::out_of_range("CsrGraph: vertex id out of range");
  }
  sort_vertex_lists(sel.offsets, sel.neighbors);

  // Reverse selections by counting sort. Filling in ascending source order
  // leaves every reverse list already sorted.
  FlatAdjacency rev;
  rev.offsets.assign(n + 1, 0);
  for (const std::uint32_t v : sel.neighbors) ++rev.offsets[v + 1];
  for (std::size_t v = 0; v < n; ++v) rev.offsets[v + 1] += rev.offsets[v];
  rev.neighbors.resize(sel.neighbors.size());
  {
    std::vector<std::uint32_t> cursor(rev.offsets.begin(), rev.offsets.end() - 1);
    for (std::size_t u = 0; u < n; ++u) {
      for (const std::uint32_t v : sel[u]) {
        rev.neighbors[cursor[v]++] = static_cast<std::uint32_t>(u);
      }
    }
  }

  // Per-vertex sorted-set union of out- and in-selections, dropping self
  // entries and duplicates; `emit` is counted in pass 1 and written in
  // pass 2 of the two-pass builder.
  auto merge = [&](std::size_t i, auto&& emit) {
    const auto u = static_cast<std::uint32_t>(i);
    const auto out = sel[i];
    const auto in = rev[i];
    std::size_t a = 0;
    std::size_t b = 0;
    std::uint32_t last = u;  // sentinel: also drops a leading self entry
    bool has_last = false;
    while (a < out.size() || b < in.size()) {
      std::uint32_t next;
      if (b == in.size() || (a < out.size() && out[a] <= in[b])) {
        next = out[a++];
      } else {
        next = in[b++];
      }
      if (next == u || (has_last && next == last)) continue;
      emit(next);
      last = next;
      has_last = true;
    }
  };
  FlatAdjacency merged = build_flat_adjacency(
      n,
      [&](std::size_t i) {
        std::size_t count = 0;
        merge(i, [&](std::uint32_t) { ++count; });
        return count;
      },
      [&](std::size_t i, std::uint32_t* out) {
        merge(i, [&](std::uint32_t v) { *out++ = v; });
      });
  return from_symmetric_adjacency(std::move(merged), /*lists_sorted=*/true);
}

std::size_t CsrGraph::arc_index(std::uint32_t u, std::uint32_t v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  return offsets_[u] + static_cast<std::size_t>(it - nbrs.begin());
}

std::size_t CsrGraph::max_degree() const {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_vertices(); ++v) best = std::max(best, degree(static_cast<std::uint32_t>(v)));
  return best;
}

double CsrGraph::mean_degree() const {
  const std::size_t n = num_vertices();
  return n == 0 ? 0.0 : 2.0 * static_cast<double>(num_edges()) / static_cast<double>(n);
}

bool CsrGraph::has_edge(std::uint32_t u, std::uint32_t v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> CsrGraph::edge_list() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(num_edges());
  for (std::uint32_t u = 0; u < num_vertices(); ++u)
    for (std::uint32_t v : neighbors(u))
      if (u < v) out.emplace_back(u, v);
  return out;
}

}  // namespace sens
