#include "ordering/graph.hpp"

#include <algorithm>
#include <numeric>

namespace irrlu::ordering {

void Graph::finalize_weights() {
  if (vwgt_.empty()) vwgt_.assign(static_cast<std::size_t>(n_), 1);
  if (ewgt_.empty()) ewgt_.assign(adj_.size(), 1);
  total_vwgt_ = std::accumulate(vwgt_.begin(), vwgt_.end(), 0);
}

Graph Graph::from_pattern(int n, const int* row_ptr, const int* col_ind) {
  IRRLU_CHECK(n >= 0);
  const auto un = static_cast<std::size_t>(n);
  // Pass 1: symmetric degrees (i->j and j->i for every off-diagonal entry).
  std::vector<int> ptr(un + 1, 0);
  for (int i = 0; i < n; ++i)
    for (int k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const int j = col_ind[k];
      IRRLU_CHECK(j >= 0 && j < n);
      if (j == i) continue;
      ++ptr[static_cast<std::size_t>(i) + 1];
      ++ptr[static_cast<std::size_t>(j) + 1];
    }
  std::partial_sum(ptr.begin(), ptr.end(), ptr.begin());
  // Pass 2: scatter both directions, rows unsorted and with repeats.
  std::vector<int> cursor(ptr.begin(), ptr.end() - 1);
  std::vector<int> both(static_cast<std::size_t>(ptr.back()));
  for (int i = 0; i < n; ++i)
    for (int k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const int j = col_ind[k];
      if (j == i) continue;
      both[static_cast<std::size_t>(cursor[static_cast<std::size_t>(i)]++)] =
          j;
      both[static_cast<std::size_t>(cursor[static_cast<std::size_t>(j)]++)] =
          i;
    }
  // Sort every row at once with a transpose: the scattered pattern is
  // symmetric, so its transpose is itself, and scanning rows in order
  // appends ascending indices. Then drop adjacent repeats.
  std::copy(ptr.begin(), ptr.end() - 1, cursor.begin());
  std::vector<int> sorted(both.size());
  for (int i = 0; i < n; ++i)
    for (int k = ptr[static_cast<std::size_t>(i)];
         k < ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = both[static_cast<std::size_t>(k)];
      sorted[static_cast<std::size_t>(cursor[static_cast<std::size_t>(j)]++)] =
          i;
    }
  Graph g;
  g.n_ = n;
  g.ptr_.assign(un + 1, 0);
  g.adj_ = std::move(sorted);
  std::size_t out = 0;
  for (std::size_t i = 0; i < un; ++i) {
    int prev = -1;
    for (int k = ptr[i]; k < ptr[i + 1]; ++k) {
      const int j = g.adj_[static_cast<std::size_t>(k)];
      if (j != prev) g.adj_[out++] = prev = j;
    }
    g.ptr_[i + 1] = static_cast<int>(out);
  }
  g.adj_.resize(out);
  g.finalize_weights();
  return g;
}

Graph Graph::from_adjacency(int n, std::vector<int> ptr,
                            std::vector<int> adj) {
  IRRLU_CHECK(static_cast<int>(ptr.size()) == n + 1);
  Graph g;
  g.n_ = n;
  g.ptr_ = std::move(ptr);
  g.adj_ = std::move(adj);
  g.finalize_weights();
  return g;
}

Graph Graph::grid2d(int nx, int ny) {
  const int n = nx * ny;
  std::vector<int> ptr(static_cast<std::size_t>(n) + 1, 0), adj;
  auto id = [&](int x, int y) { return y * nx + x; };
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      const int v = id(x, y);
      if (x > 0) adj.push_back(id(x - 1, y));
      if (x + 1 < nx) adj.push_back(id(x + 1, y));
      if (y > 0) adj.push_back(id(x, y - 1));
      if (y + 1 < ny) adj.push_back(id(x, y + 1));
      ptr[static_cast<std::size_t>(v) + 1] = static_cast<int>(adj.size());
    }
  return from_adjacency(n, std::move(ptr), std::move(adj));
}

Graph Graph::grid3d(int nx, int ny, int nz) {
  const int n = nx * ny * nz;
  std::vector<int> ptr(static_cast<std::size_t>(n) + 1, 0), adj;
  auto id = [&](int x, int y, int z) { return (z * ny + y) * nx + x; };
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) {
        const int v = id(x, y, z);
        if (x > 0) adj.push_back(id(x - 1, y, z));
        if (x + 1 < nx) adj.push_back(id(x + 1, y, z));
        if (y > 0) adj.push_back(id(x, y - 1, z));
        if (y + 1 < ny) adj.push_back(id(x, y + 1, z));
        if (z > 0) adj.push_back(id(x, y, z - 1));
        if (z + 1 < nz) adj.push_back(id(x, y, z + 1));
        ptr[static_cast<std::size_t>(v) + 1] = static_cast<int>(adj.size());
      }
  return from_adjacency(n, std::move(ptr), std::move(adj));
}

void Graph::set_weights(std::vector<int> vwgt, std::vector<int> ewgt) {
  IRRLU_CHECK(static_cast<int>(vwgt.size()) == n_);
  IRRLU_CHECK(ewgt.size() == adj_.size());
  vwgt_ = std::move(vwgt);
  ewgt_ = std::move(ewgt);
  total_vwgt_ = std::accumulate(vwgt_.begin(), vwgt_.end(), 0);
}

Graph Graph::induced_subgraph(const std::vector<int>& vertices,
                              std::vector<int>& local_of) const {
  const int sn = static_cast<int>(vertices.size());
  for (int l = 0; l < sn; ++l)
    local_of[static_cast<std::size_t>(vertices[static_cast<std::size_t>(l)])] =
        l;
  Graph s;
  s.n_ = sn;
  s.ptr_.assign(static_cast<std::size_t>(sn) + 1, 0);
  s.vwgt_.resize(static_cast<std::size_t>(sn));
  for (int l = 0; l < sn; ++l) {
    const int v = vertices[static_cast<std::size_t>(l)];
    s.vwgt_[static_cast<std::size_t>(l)] = vwgt_[static_cast<std::size_t>(v)];
    for (int k = ptr_[static_cast<std::size_t>(v)];
         k < ptr_[static_cast<std::size_t>(v) + 1]; ++k) {
      const int u = adj_[static_cast<std::size_t>(k)];
      if (local_of[static_cast<std::size_t>(u)] >= 0) {
        s.adj_.push_back(local_of[static_cast<std::size_t>(u)]);
        s.ewgt_.push_back(ewgt_[static_cast<std::size_t>(k)]);
      }
    }
    s.ptr_[static_cast<std::size_t>(l) + 1] = static_cast<int>(s.adj_.size());
  }
  for (int v : vertices) local_of[static_cast<std::size_t>(v)] = -1;
  s.total_vwgt_ = std::accumulate(s.vwgt_.begin(), s.vwgt_.end(), 0);
  return s;
}

int Graph::components(std::vector<int>& comp) const {
  comp.assign(static_cast<std::size_t>(n_), -1);
  int nc = 0;
  std::vector<int> stack;
  for (int s = 0; s < n_; ++s) {
    if (comp[static_cast<std::size_t>(s)] >= 0) continue;
    stack.push_back(s);
    comp[static_cast<std::size_t>(s)] = nc;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (int k = ptr_[static_cast<std::size_t>(v)];
           k < ptr_[static_cast<std::size_t>(v) + 1]; ++k) {
        const int u = adj_[static_cast<std::size_t>(k)];
        if (comp[static_cast<std::size_t>(u)] < 0) {
          comp[static_cast<std::size_t>(u)] = nc;
          stack.push_back(u);
        }
      }
    }
    ++nc;
  }
  return nc;
}

}  // namespace irrlu::ordering
