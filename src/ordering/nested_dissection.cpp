#include "ordering/nested_dissection.hpp"

#include <algorithm>
#include <numeric>
#include <set>

namespace irrlu::ordering {

namespace {

/// Recursive worker: appends the elimination order of the subgraph induced
/// by `vertices` (old ids) to `out.perm` and builds the separator tree.
/// Returns the id of the tree node covering this subgraph.
int nd_recurse(const Graph& g, const std::vector<int>& vertices,
               std::vector<int>& local_of, const NDOptions& opts,
               Ordering& out) {
  const int sn = static_cast<int>(vertices.size());
  const Graph sub = g.induced_subgraph(vertices, local_of);

  auto make_leaf = [&](const std::vector<int>& order_local) {
    SepTreeNode node;
    node.begin = static_cast<int>(out.perm.size());
    for (int l : order_local)
      out.perm.push_back(vertices[static_cast<std::size_t>(l)]);
    node.end = static_cast<int>(out.perm.size());
    out.tree.push_back(node);
    return static_cast<int>(out.tree.size()) - 1;
  };

  if (sn <= opts.leaf_size) return make_leaf(minimum_degree(sub));

  const Bisection bis = bisect(sub, opts.bisect);
  std::vector<int> part0, part1, sep;
  for (int l = 0; l < sn; ++l) {
    const int v = vertices[static_cast<std::size_t>(l)];
    switch (bis.side[static_cast<std::size_t>(l)]) {
      case 0: part0.push_back(v); break;
      case 1: part1.push_back(v); break;
      default: sep.push_back(v); break;
    }
  }
  // Degenerate separators (empty part) would recurse forever; fall back to
  // minimum degree for such pathological subgraphs.
  if (part0.empty() || part1.empty()) return make_leaf(minimum_degree(sub));
  const int lid = nd_recurse(g, part0, local_of, opts, out);
  const int rid = nd_recurse(g, part1, local_of, opts, out);
  SepTreeNode node;
  node.begin = static_cast<int>(out.perm.size());
  for (int v : sep) out.perm.push_back(v);
  node.end = static_cast<int>(out.perm.size());
  node.left = lid;
  node.right = rid;
  out.tree.push_back(node);
  const int id = static_cast<int>(out.tree.size()) - 1;
  out.tree[static_cast<std::size_t>(lid)].parent = id;
  out.tree[static_cast<std::size_t>(rid)].parent = id;
  return id;
}

}  // namespace

Ordering nested_dissection(const Graph& g, const NDOptions& opts) {
  const int n = g.num_vertices();
  Ordering out;
  out.perm.reserve(static_cast<std::size_t>(n));
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::vector<int> local_of(static_cast<std::size_t>(n), -1);
  out.root = nd_recurse(g, all, local_of, opts, out);
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
