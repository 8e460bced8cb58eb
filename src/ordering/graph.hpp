// Undirected graph in CSR form — the structural view of a sparse matrix
// used by the ordering algorithms. Vertices and edges carry weights so the
// multilevel machinery can coarsen.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace irrlu::ordering {

class Graph {
 public:
  Graph() = default;

  /// Builds a symmetric graph (union of the pattern and its transpose)
  /// from a CSR *pattern*, dropping diagonal entries. Unit weights.
  static Graph from_pattern(int n, const int* row_ptr, const int* col_ind);

  /// Builds a graph from explicit adjacency (must already be symmetric,
  /// no self loops); unit weights.
  static Graph from_adjacency(int n, std::vector<int> ptr,
                              std::vector<int> adj);

  /// Structured 2D / 3D grid graphs (5- and 7-point stencils) for tests
  /// and model problems.
  static Graph grid2d(int nx, int ny);
  static Graph grid3d(int nx, int ny, int nz);

  int num_vertices() const { return n_; }
  std::int64_t num_edges() const {  ///< each undirected edge counted once
    return static_cast<std::int64_t>(adj_.size()) / 2;
  }

  int degree(int v) const { return ptr_[v + 1] - ptr_[v]; }
  const int* neighbors(int v) const { return adj_.data() + ptr_[v]; }

  const std::vector<int>& ptr() const { return ptr_; }
  const std::vector<int>& adj() const { return adj_; }
  const std::vector<int>& vwgt() const { return vwgt_; }
  const std::vector<int>& ewgt() const { return ewgt_; }
  int total_vwgt() const { return total_vwgt_; }

  /// Extracts the vertex-induced subgraph; `local_of` maps old vertex ids
  /// to [0, |vertices|) and must be -1 elsewhere (it is used as scratch and
  /// restored to -1 before returning).
  Graph induced_subgraph(const std::vector<int>& vertices,
                         std::vector<int>& local_of) const;

  // Internal: used by the coarsener.
  void set_weights(std::vector<int> vwgt, std::vector<int> ewgt);

 private:
  int n_ = 0;
  std::vector<int> ptr_, adj_;
  std::vector<int> vwgt_, ewgt_;
  int total_vwgt_ = 0;

  void finalize_weights();
};

}  // namespace irrlu::ordering
