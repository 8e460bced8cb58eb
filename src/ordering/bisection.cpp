#include "ordering/bisection.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace irrlu::ordering {

namespace {

/// Heavy-edge matching: visits vertices in random order, matching each
/// unmatched vertex to its unmatched neighbor with the heaviest edge.
/// Returns match[v] (== v for unmatched) and the number of coarse vertices.
int heavy_edge_matching(const Graph& g, Rng& rng, std::vector<int>& match) {
  const int n = g.num_vertices();
  match.assign(static_cast<std::size_t>(n), -1);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());
  int coarse = 0;
  for (int v : order) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    int best = -1, bestw = -1;
    for (int k = g.ptr()[static_cast<std::size_t>(v)];
         k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k) {
      const int u = g.adj()[static_cast<std::size_t>(k)];
      if (match[static_cast<std::size_t>(u)] >= 0 || u == v) continue;
      const int w = g.ewgt()[static_cast<std::size_t>(k)];
      if (w > bestw) {
        bestw = w;
        best = u;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;
    }
    ++coarse;
  }
  return coarse;
}

/// Contracts matched pairs into a coarse graph; cmap[v] = coarse vertex.
/// Rows are gathered unsorted (first-touch order), then all sorted at once
/// by one CSR transpose: the coarse graph is symmetric and so are its
/// summed edge weights (both ends sum the same fine edges), so its
/// transpose is the same graph with every row ascending.
Graph coarsen(const Graph& g, const std::vector<int>& match,
              std::vector<int>& cmap, int coarse_n) {
  const int n = g.num_vertices();
  cmap.assign(static_cast<std::size_t>(n), -1);
  int next = 0;
  for (int v = 0; v < n; ++v) {
    if (cmap[static_cast<std::size_t>(v)] >= 0) continue;
    const int u = match[static_cast<std::size_t>(v)];
    cmap[static_cast<std::size_t>(v)] = next;
    cmap[static_cast<std::size_t>(u)] = next;
    ++next;
  }
  IRRLU_CHECK(next == coarse_n);

  const auto cn = static_cast<std::size_t>(coarse_n);
  std::vector<int> ptr(cn + 1, 0), adj, ewgt;
  adj.reserve(g.adj().size());
  ewgt.reserve(g.adj().size());
  std::vector<int> vwgt(cn, 0);
  // slot[cu]: position of cu in adj; it is in the row being gathered iff
  // it is at or past that row's start.
  std::vector<int> slot(cn, -1);
  std::vector<int> tcount(cn, 0);  // row lengths of the transpose

  for (int cv = 0, v = 0; v < n; ++v) {
    if (cmap[static_cast<std::size_t>(v)] != cv) continue;
    // Gather the pair (v, match[v]) into coarse vertex cv.
    const int pair[2] = {v, match[static_cast<std::size_t>(v)]};
    const int row_begin = static_cast<int>(adj.size());
    for (int pi = 0; pi < (pair[0] == pair[1] ? 1 : 2); ++pi) {
      const int x = pair[pi];
      vwgt[static_cast<std::size_t>(cv)] +=
          g.vwgt()[static_cast<std::size_t>(x)];
      for (int k = g.ptr()[static_cast<std::size_t>(x)];
           k < g.ptr()[static_cast<std::size_t>(x) + 1]; ++k) {
        const int cu = cmap[static_cast<std::size_t>(
            g.adj()[static_cast<std::size_t>(k)])];
        if (cu == cv) continue;  // contracted edge
        int& at = slot[static_cast<std::size_t>(cu)];
        if (at < row_begin) {
          at = static_cast<int>(adj.size());
          adj.push_back(cu);
          ewgt.push_back(g.ewgt()[static_cast<std::size_t>(k)]);
          ++tcount[static_cast<std::size_t>(cu)];
        } else {
          ewgt[static_cast<std::size_t>(at)] +=
              g.ewgt()[static_cast<std::size_t>(k)];
        }
      }
    }
    ptr[static_cast<std::size_t>(cv) + 1] = static_cast<int>(adj.size());
    ++cv;
  }

  // Transpose: scanning the rows in order appends each row index to its
  // neighbours' rows in ascending order.
  std::vector<int> tptr(cn + 1, 0);
  for (std::size_t c = 0; c < cn; ++c) tptr[c + 1] = tptr[c] + tcount[c];
  std::vector<int>& cursor = tcount;  // reused as per-row write positions
  std::copy(tptr.begin(), tptr.end() - 1, cursor.begin());
  std::vector<int> tadj(adj.size()), tewgt(adj.size());
  for (int cv = 0; cv < coarse_n; ++cv)
    for (int k = ptr[static_cast<std::size_t>(cv)];
         k < ptr[static_cast<std::size_t>(cv) + 1]; ++k) {
      const int at = cursor[static_cast<std::size_t>(
          adj[static_cast<std::size_t>(k)])]++;
      tadj[static_cast<std::size_t>(at)] = cv;
      tewgt[static_cast<std::size_t>(at)] = ewgt[static_cast<std::size_t>(k)];
    }
  Graph cg = Graph::from_adjacency(coarse_n, std::move(tptr), std::move(tadj));
  cg.set_weights(std::move(vwgt), std::move(tewgt));
  return cg;
}

/// Greedy graph growing: BFS from a random vertex until half the total
/// vertex weight is claimed. Repeats a few times, keeping the best cut.
void initial_partition(const Graph& g, Rng& rng,
                       std::vector<std::uint8_t>& side) {
  const int n = g.num_vertices();
  const int target = g.total_vwgt() / 2;
  std::vector<std::uint8_t> best;
  std::int64_t best_cut = std::numeric_limits<std::int64_t>::max();
  std::vector<int> queue;
  queue.reserve(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n));
  const int tries = std::min(4, n);
  for (int t = 0; t < tries; ++t) {
    side.assign(static_cast<std::size_t>(n), 1);
    int w0 = 0;
    queue.clear();
    std::fill(seen.begin(), seen.end(), 0);
    int start = rng.uniform_int(0, n - 1);
    queue.push_back(start);
    seen[static_cast<std::size_t>(start)] = 1;
    std::size_t head = 0;
    // Lowest unvisited vertex. seen[] only flips from 0 to 1, so this
    // cursor never has to move back.
    int fresh = 0;
    while (w0 < target) {
      if (head == queue.size()) {
        // Disconnected: grow from a fresh unvisited vertex.
        while (fresh < n && seen[static_cast<std::size_t>(fresh)]) ++fresh;
        if (fresh == n) break;
        seen[static_cast<std::size_t>(fresh)] = 1;
        queue.push_back(fresh);
      }
      const int v = queue[head++];
      side[static_cast<std::size_t>(v)] = 0;
      w0 += g.vwgt()[static_cast<std::size_t>(v)];
      for (int k = g.ptr()[static_cast<std::size_t>(v)];
           k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k) {
        const int u = g.adj()[static_cast<std::size_t>(k)];
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = 1;
          queue.push_back(u);
        }
      }
    }
    const std::int64_t cut = edge_cut(g, side);
    if (cut < best_cut) {
      best_cut = cut;
      best = side;
    }
  }
  side = best;
}

/// Buffers of the FM passes, reused across the passes and levels of one
/// bisect() call.
struct FmWork {
  struct Entry {
    std::int64_t gain;
    int v;
  };
  std::vector<std::int64_t> gain;
  std::vector<std::uint8_t> locked;
  std::vector<Entry> heap[2];  ///< lazy max-heaps, one per side
  std::vector<Entry> aside;    ///< entries held out of the current pick
  std::vector<int> moved;
};

/// Heap order: higher gain first, then lower vertex index, which is the
/// vertex an ascending scan for the first maximum gain picks.
bool heap_less(const FmWork::Entry& a, const FmWork::Entry& b) {
  return a.gain < b.gain || (a.gain == b.gain && a.v > b.v);
}

/// One Fiduccia–Mattheyses-style pass: greedily move the best-gain movable
/// vertex (keeping balance), remember the best prefix, roll back the rest.
/// Returns the cut improvement of the pass.
///
/// Each side keeps a lazy max-heap of (gain, vertex) entries. A move pushes
/// a fresh entry for every neighbour whose gain changed; entries of locked
/// vertices or with an outdated gain are dropped when they reach the top,
/// and entries whose vertex would overfill the other side are held out of
/// the current pick only. Moving v changes an unlocked neighbour u's gain
/// by exactly +-2 w(v, u), so gains are updated, never recomputed.
std::int64_t fm_pass(const Graph& g, std::vector<std::uint8_t>& side,
                     double balance, FmWork& ws) {
  const int n = g.num_vertices();
  const std::vector<int>& vwgt = g.vwgt();
  int w[2] = {0, 0};
  int min_vwgt = std::numeric_limits<int>::max();
  for (int v = 0; v < n; ++v) {
    w[side[static_cast<std::size_t>(v)]] += vwgt[static_cast<std::size_t>(v)];
    min_vwgt = std::min(min_vwgt, vwgt[static_cast<std::size_t>(v)]);
  }
  const int total = w[0] + w[1];
  const int max_w = static_cast<int>((0.5 + balance) * total) + 1;

  ws.gain.resize(static_cast<std::size_t>(n));
  ws.locked.assign(static_cast<std::size_t>(n), 0);
  for (auto& h : ws.heap) h.clear();
  for (int v = 0; v < n; ++v) {
    std::int64_t gv = 0;
    const int sv = side[static_cast<std::size_t>(v)];
    for (int k = g.ptr()[static_cast<std::size_t>(v)];
         k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k) {
      const int u = g.adj()[static_cast<std::size_t>(k)];
      const int ew = g.ewgt()[static_cast<std::size_t>(k)];
      gv += side[static_cast<std::size_t>(u)] == sv ? -ew : ew;
    }
    ws.gain[static_cast<std::size_t>(v)] = gv;
    ws.heap[sv].push_back({gv, v});
  }
  for (auto& h : ws.heap) std::make_heap(h.begin(), h.end(), heap_less);

  // Best movable entry of side s, left at the top of heap[s]; nullptr if
  // no vertex of side s can move.
  auto top_movable = [&](int s) -> const FmWork::Entry* {
    if (w[1 - s] + min_vwgt > max_w) return nullptr;  // no vertex fits
    std::vector<FmWork::Entry>& h = ws.heap[s];
    while (!h.empty()) {
      const FmWork::Entry e = h.front();
      const bool stale = ws.locked[static_cast<std::size_t>(e.v)] ||
                         ws.gain[static_cast<std::size_t>(e.v)] != e.gain;
      if (!stale && w[1 - s] + vwgt[static_cast<std::size_t>(e.v)] <= max_w)
        return &h.front();
      std::pop_heap(h.begin(), h.end(), heap_less);
      h.pop_back();
      if (!stale) ws.aside.push_back(e);
    }
    return nullptr;
  };
  auto push = [&](const FmWork::Entry& e) {
    std::vector<FmWork::Entry>& h =
        ws.heap[side[static_cast<std::size_t>(e.v)]];
    h.push_back(e);
    std::push_heap(h.begin(), h.end(), heap_less);
  };

  ws.moved.clear();
  std::int64_t cum = 0, best_cum = 0;
  std::size_t best_prefix = 0;
  const int max_moves = std::min(n, 2000);
  for (int step = 0; step < max_moves; ++step) {
    FmWork::Entry pick{0, -1};
    int sv = -1;  // side the picked vertex leaves
    for (int s = 0; s < 2; ++s) {
      const FmWork::Entry* e = top_movable(s);
      if (e != nullptr && (sv < 0 || heap_less(pick, *e))) {
        pick = *e;
        sv = s;
      }
    }
    if (sv >= 0) {
      std::pop_heap(ws.heap[sv].begin(), ws.heap[sv].end(), heap_less);
      ws.heap[sv].pop_back();
    }
    for (const FmWork::Entry& e : ws.aside) push(e);
    ws.aside.clear();
    if (sv < 0) break;

    const int best = pick.v;
    side[static_cast<std::size_t>(best)] = static_cast<std::uint8_t>(1 - sv);
    w[sv] -= vwgt[static_cast<std::size_t>(best)];
    w[1 - sv] += vwgt[static_cast<std::size_t>(best)];
    ws.locked[static_cast<std::size_t>(best)] = 1;
    ws.moved.push_back(best);
    cum += pick.gain;
    if (cum > best_cum) {
      best_cum = cum;
      best_prefix = ws.moved.size();
    }
    // Neighbours on the side best left gain 2w; the others lose 2w.
    for (int k = g.ptr()[static_cast<std::size_t>(best)];
         k < g.ptr()[static_cast<std::size_t>(best) + 1]; ++k) {
      const int u = g.adj()[static_cast<std::size_t>(k)];
      if (ws.locked[static_cast<std::size_t>(u)]) continue;
      const std::int64_t d =
          2 * static_cast<std::int64_t>(g.ewgt()[static_cast<std::size_t>(k)]);
      std::int64_t& gu = ws.gain[static_cast<std::size_t>(u)];
      gu += side[static_cast<std::size_t>(u)] == sv ? d : -d;
      push({gu, u});
    }
    if (cum < best_cum - 50) break;  // hill got too deep; stop early
  }
  // Roll back moves beyond the best prefix.
  for (std::size_t i = ws.moved.size(); i > best_prefix; --i) {
    const int v = ws.moved[i - 1];
    const int sv = side[static_cast<std::size_t>(v)];
    side[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(1 - sv);
  }
  return best_cum;
}

/// Greedy minimum vertex cover of the cut edges -> vertex separator.
void extract_separator(const Graph& g, std::vector<std::uint8_t>& side,
                       Bisection& out) {
  const int n = g.num_vertices();
  // Count, per vertex, the incident cut edges.
  std::vector<int> cutdeg(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v)
    for (int k = g.ptr()[static_cast<std::size_t>(v)];
         k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k) {
      const int u = g.adj()[static_cast<std::size_t>(k)];
      if (side[static_cast<std::size_t>(u)] !=
          side[static_cast<std::size_t>(v)])
        ++cutdeg[static_cast<std::size_t>(v)];
    }
  // Greedy cover: repeatedly take the vertex covering the most uncovered
  // cut edges. Vertices in the cover become separator (side = 2).
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return cutdeg[static_cast<std::size_t>(a)] >
           cutdeg[static_cast<std::size_t>(b)];
  });
  for (int v : order) {
    if (cutdeg[static_cast<std::size_t>(v)] <= 0) continue;
    bool uncovered = false;
    for (int k = g.ptr()[static_cast<std::size_t>(v)];
         k < g.ptr()[static_cast<std::size_t>(v) + 1] && !uncovered; ++k) {
      const int u = g.adj()[static_cast<std::size_t>(k)];
      uncovered = side[static_cast<std::size_t>(u)] != 2 &&
                  side[static_cast<std::size_t>(u)] !=
                      side[static_cast<std::size_t>(v)];
    }
    if (!uncovered) continue;
    side[static_cast<std::size_t>(v)] = 2;
    ++out.sep_vertices;
  }
}

Bisection bisect_recursive(const Graph& g, Rng& rng,
                           const BisectOptions& opts, FmWork& ws) {
  Bisection out;
  const int n = g.num_vertices();
  if (n <= opts.coarsen_to) {
    initial_partition(g, rng, out.side);
    for (int p = 0; p < opts.fm_passes; ++p)
      if (fm_pass(g, out.side, opts.balance, ws) <= 0) break;
    return out;
  }
  std::vector<int> match;
  const int coarse_n = heavy_edge_matching(g, rng, match);
  if (coarse_n >= n) {  // matching failed to shrink (no edges): direct
    initial_partition(g, rng, out.side);
    return out;
  }
  std::vector<int> cmap;
  const Graph cg = coarsen(g, match, cmap, coarse_n);
  const Bisection coarse_bis = bisect_recursive(cg, rng, opts, ws);
  out.side.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    out.side[static_cast<std::size_t>(v)] =
        coarse_bis.side[static_cast<std::size_t>(
            cmap[static_cast<std::size_t>(v)])];
  for (int p = 0; p < opts.fm_passes; ++p)
    if (fm_pass(g, out.side, opts.balance, ws) <= 0) break;
  return out;
}

}  // namespace

std::int64_t edge_cut(const Graph& g, const std::vector<std::uint8_t>& side) {
  std::int64_t cut = 0;
  for (int v = 0; v < g.num_vertices(); ++v)
    for (int k = g.ptr()[static_cast<std::size_t>(v)];
         k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k) {
      const int u = g.adj()[static_cast<std::size_t>(k)];
      if (u > v && side[static_cast<std::size_t>(u)] != 2 &&
          side[static_cast<std::size_t>(v)] != 2 &&
          side[static_cast<std::size_t>(u)] !=
              side[static_cast<std::size_t>(v)])
        cut += g.ewgt()[static_cast<std::size_t>(k)];
    }
  return cut;
}

Bisection bisect(const Graph& g, const BisectOptions& opts) {
  Rng rng(opts.seed);
  FmWork ws;
  Bisection out = bisect_recursive(g, rng, opts, ws);
  out.edge_cut = edge_cut(g, out.side);
  extract_separator(g, out.side, out);
  return out;
}

}  // namespace irrlu::ordering
