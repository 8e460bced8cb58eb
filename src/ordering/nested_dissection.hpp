// Fill-reducing orderings: multilevel nested dissection (the METIS
// substitute driving the multifrontal solver), an elimination-graph
// minimum-degree ordering (used on small ND leaves and standalone), and
// reverse Cuthill–McKee (bandwidth reduction, used as a comparison
// ordering and in tests).
#pragma once

#include <vector>

#include "ordering/bisection.hpp"
#include "ordering/graph.hpp"

namespace irrlu::ordering {

struct NDOptions {
  int leaf_size = 48;  ///< subgraphs at most this big are leaves
  BisectOptions bisect;
};

/// One node of the separator tree: either a leaf block of contiguously
/// ordered vertices or a separator with two children. Ranges refer to the
/// *new* (permuted) ordering; separators own the highest-numbered range of
/// their subtree. This tree is the skeleton of the multifrontal assembly
/// tree.
struct SepTreeNode {
  int begin = 0, end = 0;  ///< new-order vertex range [begin, end)
  int left = -1, right = -1;  ///< child node ids (-1 for leaves)
  int parent = -1;
};

struct Ordering {
  /// perm[new_index] = old_index (the elimination order).
  std::vector<int> perm;
  /// iperm[old_index] = new_index.
  std::vector<int> iperm;
  /// Separator tree; node `root` covers the whole graph.
  std::vector<SepTreeNode> tree;
  int root = -1;
};

/// Nested dissection: recursively bisects the graph, ordering each part
/// before its separator (separator vertices are eliminated last). The
/// resulting elimination trees have the wide-bottom/heavy-top shape whose
/// front-size distributions the paper's Figure 13 shows. The subgraphs of
/// each dissection level are bisected concurrently on
/// default_host_threads() host threads; the result is the same for any
/// thread count.
Ordering nested_dissection(const Graph& g, const NDOptions& opts = {});

/// Minimum-degree ordering on the elimination graph (simple quotient-free
/// implementation; quadratic worst case, intended for moderate n).
std::vector<int> minimum_degree(const Graph& g);

/// Reverse Cuthill–McKee.
std::vector<int> rcm(const Graph& g);

/// Validates that perm is a permutation of [0, n).
bool is_permutation(const std::vector<int>& perm, int n);

}  // namespace irrlu::ordering
