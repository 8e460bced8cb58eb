// Multilevel graph bisection with vertex-separator extraction — the engine
// of the nested-dissection ordering (the project's METIS substitute).
//
// Pipeline (classic multilevel scheme):
//   1. coarsen by heavy-edge matching until the graph is small,
//   2. initial bipartition by greedy graph growing (BFS region growth),
//   3. uncoarsen, refining with Fiduccia–Mattheyses passes at every level,
//   4. turn the edge separator into a vertex separator by a greedy
//      minimum vertex cover of the cut edges.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ordering/graph.hpp"

namespace irrlu::ordering {

struct BisectOptions {
  double balance = 0.15;     ///< allowed part-weight imbalance fraction
  std::uint64_t seed = 1;    ///< tie-breaking randomness
};

/// Result: side[v] in {0, 1} for the two parts, 2 for separator vertices.
struct Bisection {
  std::vector<std::uint8_t> side;
  int sep_vertices = 0;
  std::int64_t edge_cut = 0;  ///< cut of the bipartition before the cover
};

/// Bisects `g` and extracts a vertex separator. Handles disconnected
/// graphs (components are distributed over the two parts).
Bisection bisect(const Graph& g, const BisectOptions& opts = {});

/// Edge cut of a bipartition (side values 0/1; 2 treated as no side).
std::int64_t edge_cut(const Graph& g, const std::vector<std::uint8_t>& side);

}  // namespace irrlu::ordering
