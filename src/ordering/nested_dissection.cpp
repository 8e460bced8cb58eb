#include "ordering/nested_dissection.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <set>

#include "common/host_pool.hpp"

namespace irrlu::ordering {

namespace {

/// A subgraph awaiting dissection: its induced graph (local vertex l is old
/// vertex `vertices[l]`) and its index in the node list.
struct Part {
  Graph graph;
  std::vector<int> vertices;
  int node = -1;
};

/// A separator-tree node before numbering: the old ids it eliminates (a
/// leaf's whole subgraph in minimum-degree order, or an internal node's
/// separator) and its children's indices in the node list (-1 for leaves).
struct Node {
  std::vector<int> order;
  int left = -1, right = -1;
};

/// Dissects one part into `node`. A part of at most leaf_size vertices is
/// a leaf in minimum-degree order; a larger one is bisected, its separator
/// recorded, and its two sides returned in `kids`, each induced from the
/// part's own graph with part-sized scratch (`kids` stays empty for a
/// leaf).
void dissect(const Part& p, const NDOptions& opts, Node& node,
             std::array<Part, 2>& kids) {
  const int sn = static_cast<int>(p.vertices.size());
  auto make_leaf = [&] {
    for (int l : minimum_degree(p.graph))
      node.order.push_back(p.vertices[static_cast<std::size_t>(l)]);
  };
  if (sn <= opts.leaf_size) return make_leaf();

  const Bisection bis = bisect(p.graph, opts.bisect);
  std::array<std::vector<int>, 2> side_of;  // local ids of parts 0 and 1
  std::vector<int> sep;                     // old ids
  for (int l = 0; l < sn; ++l) {
    const std::uint8_t side = bis.side[static_cast<std::size_t>(l)];
    if (side < 2)
      side_of[side].push_back(l);
    else
      sep.push_back(p.vertices[static_cast<std::size_t>(l)]);
  }
  // Degenerate separators (empty part) would recurse forever; fall back to
  // minimum degree for such pathological subgraphs.
  if (side_of[0].empty() || side_of[1].empty()) return make_leaf();
  node.order = std::move(sep);
  std::vector<int> local_of(static_cast<std::size_t>(sn), -1);
  for (std::size_t s = 0; s < 2; ++s) {
    kids[s].graph = p.graph.induced_subgraph(side_of[s], local_of);
    kids[s].vertices.reserve(side_of[s].size());
    for (int l : side_of[s])
      kids[s].vertices.push_back(p.vertices[static_cast<std::size_t>(l)]);
  }
}

/// Numbers the subtree of node `k` in postorder — left subtree, right
/// subtree, then the node — appending each node's vertices to `out.perm`
/// and the node to `out.tree`. Returns the node's id.
int emit(const std::vector<Node>& nodes, int k, Ordering& out) {
  const Node& node = nodes[static_cast<std::size_t>(k)];
  const int lid = node.left >= 0 ? emit(nodes, node.left, out) : -1;
  const int rid = node.right >= 0 ? emit(nodes, node.right, out) : -1;
  SepTreeNode t;
  t.begin = static_cast<int>(out.perm.size());
  out.perm.insert(out.perm.end(), node.order.begin(), node.order.end());
  t.end = static_cast<int>(out.perm.size());
  t.left = lid;
  t.right = rid;
  out.tree.push_back(t);
  const int id = static_cast<int>(out.tree.size()) - 1;
  if (lid >= 0) {
    out.tree[static_cast<std::size_t>(lid)].parent = id;
    out.tree[static_cast<std::size_t>(rid)].parent = id;
  }
  return id;
}

}  // namespace

Ordering nested_dissection(const Graph& g, const NDOptions& opts) {
  const int n = g.num_vertices();
  // Level-synchronous dissection: the parts of one level share no vertex
  // and every bisect() seeds its own Rng, so a level is dissected as one
  // host-pool batch and no part's result depends on the schedule. The
  // postorder walk then numbers the tree exactly as a depth-first
  // recursion would have built it.
  std::vector<Node> nodes(1);
  std::vector<Part> level(1);
  level[0].graph = g;
  level[0].vertices.resize(static_cast<std::size_t>(n));
  std::iota(level[0].vertices.begin(), level[0].vertices.end(), 0);
  level[0].node = 0;
  const int helpers = default_host_threads() - 1;
  while (!level.empty()) {
    std::vector<std::array<Part, 2>> kids(level.size());
    auto task = [&](int t) {
      const auto ut = static_cast<std::size_t>(t);
      dissect(level[ut], opts,
              nodes[static_cast<std::size_t>(level[ut].node)], kids[ut]);
    };
    HostPool::shared().run(static_cast<int>(level.size()), helpers,
                           FunctionRef<void(int)>(task));
    std::vector<Part> next;
    for (std::size_t t = 0; t < level.size(); ++t) {
      if (kids[t][0].vertices.empty()) continue;  // a leaf
      const auto parent = static_cast<std::size_t>(level[t].node);
      for (Part& kid : kids[t]) {
        kid.node = static_cast<int>(nodes.size());
        nodes.emplace_back();
        next.push_back(std::move(kid));
      }
      nodes[parent].left = next[next.size() - 2].node;
      nodes[parent].right = next.back().node;
    }
    level = std::move(next);
  }

  Ordering out;
  out.perm.reserve(static_cast<std::size_t>(n));
  out.tree.reserve(nodes.size());
  out.root = emit(nodes, 0, out);
  IRRLU_CHECK(is_permutation(out.perm, n));
  out.iperm.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.iperm[static_cast<std::size_t>(out.perm[static_cast<std::size_t>(i)])] =
        i;
  return out;
}

std::vector<int> minimum_degree(const Graph& g) {
  const int n = g.num_vertices();
  // Elimination graph as adjacency sets; eliminating v connects its
  // neighborhood into a clique.
  std::vector<std::set<int>> adj(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    for (int k = g.ptr()[static_cast<std::size_t>(v)];
         k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k)
      adj[static_cast<std::size_t>(v)].insert(
          g.adj()[static_cast<std::size_t>(k)]);

  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int step = 0; step < n; ++step) {
    int best = -1;
    std::size_t bestdeg = static_cast<std::size_t>(-1);
    for (int v = 0; v < n; ++v)
      if (!eliminated[static_cast<std::size_t>(v)] &&
          adj[static_cast<std::size_t>(v)].size() < bestdeg) {
        bestdeg = adj[static_cast<std::size_t>(v)].size();
        best = v;
      }
    eliminated[static_cast<std::size_t>(best)] = 1;
    order.push_back(best);
    // Form the clique among best's remaining neighbors.
    std::vector<int> nbrs(adj[static_cast<std::size_t>(best)].begin(),
                          adj[static_cast<std::size_t>(best)].end());
    for (int u : nbrs) adj[static_cast<std::size_t>(u)].erase(best);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        adj[static_cast<std::size_t>(nbrs[i])].insert(nbrs[j]);
        adj[static_cast<std::size_t>(nbrs[j])].insert(nbrs[i]);
      }
    adj[static_cast<std::size_t>(best)].clear();
  }
  return order;
}

std::vector<int> rcm(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);

  auto bfs_order = [&](int start) {
    std::vector<int> queue = {start};
    visited[static_cast<std::size_t>(start)] = 1;
    std::size_t head = 0;
    while (head < queue.size()) {
      const int v = queue[head++];
      order.push_back(v);
      std::vector<int> nb;
      for (int k = g.ptr()[static_cast<std::size_t>(v)];
           k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k) {
        const int u = g.adj()[static_cast<std::size_t>(k)];
        if (!visited[static_cast<std::size_t>(u)]) {
          visited[static_cast<std::size_t>(u)] = 1;
          nb.push_back(u);
        }
      }
      std::sort(nb.begin(), nb.end(),
                [&](int a, int b) { return g.degree(a) < g.degree(b); });
      queue.insert(queue.end(), nb.begin(), nb.end());
    }
  };

  for (int s = 0; s < n; ++s) {
    if (visited[static_cast<std::size_t>(s)]) continue;
    // Pseudo-peripheral start: the minimum-degree vertex of the component.
    int start = s;
    // (simple heuristic: the component is discovered by the BFS itself)
    bfs_order(start);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

bool is_permutation(const std::vector<int>& perm, int n) {
  if (static_cast<int>(perm.size()) != n) return false;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int v : perm) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = 1;
  }
  return true;
}

}  // namespace irrlu::ordering
