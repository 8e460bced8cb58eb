// Tests for the ordering substrate: graph construction, multilevel
// bisection + vertex separators, nested dissection, minimum degree, RCM,
// and the MC64-style matching/scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "ordering/bisection.hpp"
#include "ordering/graph.hpp"
#include "ordering/mc64.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/csr.hpp"
#include "fnv1a.hpp"

using namespace irrlu::ordering;
using irrlu::Rng;

namespace {

/// Fill count of a Cholesky-style symbolic elimination in the given order
/// (upper bound proxy used to compare ordering quality).
long symbolic_fill(const Graph& g, const std::vector<int>& perm) {
  const int n = g.num_vertices();
  std::vector<int> pos(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    pos[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
  // Elimination with explicit set adjacency (small graphs only).
  std::vector<std::vector<char>> adj(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int v = 0; v < n; ++v)
    for (int k = g.ptr()[static_cast<std::size_t>(v)];
         k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k)
      adj[static_cast<std::size_t>(v)][static_cast<std::size_t>(
          g.adj()[static_cast<std::size_t>(k)])] = 1;
  long fill = 0;
  for (int step = 0; step < n; ++step) {
    const int v = perm[static_cast<std::size_t>(step)];
    std::vector<int> later;
    for (int u = 0; u < n; ++u)
      if (adj[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] &&
          pos[static_cast<std::size_t>(u)] > step)
        later.push_back(u);
    fill += static_cast<long>(later.size());
    for (std::size_t i = 0; i < later.size(); ++i)
      for (std::size_t j = i + 1; j < later.size(); ++j) {
        adj[static_cast<std::size_t>(later[i])]
           [static_cast<std::size_t>(later[j])] = 1;
        adj[static_cast<std::size_t>(later[j])]
           [static_cast<std::size_t>(later[i])] = 1;
      }
  }
  return fill;
}

}  // namespace

TEST(Graph, FromPatternSymmetrizesAndDropsDiagonal) {
  // Pattern: row 0: (0,0), (0,2); row 1: (1,1); row 2: (2,1).
  std::vector<int> ptr = {0, 2, 3, 4};
  std::vector<int> ind = {0, 2, 1, 1};
  const Graph g = Graph::from_pattern(3, ptr.data(), ind.data());
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);  // {0,2} and {1,2}
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(2), 2);
}

TEST(Graph, FromPatternMatchesReference) {
  // Raw CSR patterns with duplicates, diagonal entries, empty rows and
  // unsymmetric structure, against a per-row sort-and-unique reference
  // of the symmetrized off-diagonal pattern.
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = rng.uniform_int(0, 60);
    std::vector<int> ptr = {0}, ind;
    for (int i = 0; i < n; ++i) {
      const int len = rng.uniform_int(0, 3) == 0 ? 0 : rng.uniform_int(0, 8);
      for (int e = 0; e < len; ++e) {
        const int j =
            rng.uniform_int(0, 3) == 0 ? i : rng.uniform_int(0, n - 1);
        ind.push_back(j);
        if (rng.uniform_int(0, 4) == 0) ind.push_back(j);  // duplicate
      }
      ptr.push_back(static_cast<int>(ind.size()));
    }
    std::vector<std::vector<int>> nbr(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      for (int k = ptr[static_cast<std::size_t>(i)];
           k < ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const int j = ind[static_cast<std::size_t>(k)];
        if (j == i) continue;
        nbr[static_cast<std::size_t>(i)].push_back(j);
        nbr[static_cast<std::size_t>(j)].push_back(i);
      }
    std::vector<int> ref_ptr = {0}, ref_adj;
    for (auto& row : nbr) {
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      ref_adj.insert(ref_adj.end(), row.begin(), row.end());
      ref_ptr.push_back(static_cast<int>(ref_adj.size()));
    }
    const Graph g = Graph::from_pattern(n, ptr.data(), ind.data());
    SCOPED_TRACE(trial);
    EXPECT_EQ(g.num_vertices(), n);
    EXPECT_EQ(g.ptr(), ref_ptr);
    EXPECT_EQ(g.adj(), ref_adj);
    EXPECT_EQ(g.vwgt(), std::vector<int>(static_cast<std::size_t>(n), 1));
    EXPECT_EQ(g.ewgt(), std::vector<int>(ref_adj.size(), 1));
    EXPECT_EQ(g.total_vwgt(), n);
  }
  // Out-of-range columns are rejected.
  const std::vector<int> ptr = {0, 1, 2}, high = {1, 2}, low = {-1, 0};
  EXPECT_THROW(Graph::from_pattern(2, ptr.data(), high.data()), irrlu::Error);
  EXPECT_THROW(Graph::from_pattern(2, ptr.data(), low.data()), irrlu::Error);
}

TEST(Graph, Grid2dStructure) {
  const Graph g = Graph::grid2d(4, 3);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 4 * 2);  // 9 horizontal + 8 vertical
  EXPECT_EQ(g.degree(0), 2);   // corner
  EXPECT_EQ(g.degree(5), 4);   // interior
}

TEST(Graph, Grid3dDegrees) {
  const Graph g = Graph::grid3d(3, 3, 3);
  EXPECT_EQ(g.num_vertices(), 27);
  EXPECT_EQ(g.degree(13), 6);  // center vertex
  EXPECT_EQ(g.degree(0), 3);   // corner
}

TEST(Graph, InducedSubgraph) {
  const Graph g = Graph::grid2d(3, 3);
  std::vector<int> local_of(9, -1);
  const Graph s = g.induced_subgraph({0, 1, 3, 4}, local_of);
  EXPECT_EQ(s.num_vertices(), 4);
  EXPECT_EQ(s.num_edges(), 4);  // the 2x2 sub-square
  // Scratch restored:
  for (int v : local_of) EXPECT_EQ(v, -1);
}

TEST(Bisect, SeparatesGrid) {
  const Graph g = Graph::grid2d(16, 16);
  const Bisection b = bisect(g);
  int c0 = 0, c1 = 0, cs = 0;
  for (auto s : b.side) (s == 0 ? c0 : s == 1 ? c1 : cs)++;
  EXPECT_GT(c0, 50);
  EXPECT_GT(c1, 50);
  EXPECT_GT(cs, 0);
  EXPECT_LT(cs, 64);  // a 16x16 grid has a ~16-vertex separator
  // Separator property: no edge between side 0 and side 1.
  for (int v = 0; v < g.num_vertices(); ++v)
    for (int k = g.ptr()[v]; k < g.ptr()[v + 1]; ++k) {
      const int u = g.adj()[k];
      if (b.side[v] != 2 && b.side[u] != 2) {
        EXPECT_EQ(b.side[v], b.side[u]);
      }
    }
}

TEST(Bisect, HandlesTinyAndEdgelessGraphs) {
  std::vector<int> ptr = {0, 0, 0, 0};
  const Graph g = Graph::from_adjacency(3, ptr, {});
  const Bisection b = bisect(g);
  EXPECT_EQ(b.side.size(), 3u);
  EXPECT_EQ(b.edge_cut, 0);
}

TEST(Bisect, GridSeparatorNearOptimal) {
  // A 32x32 grid's minimal separator is 32; multilevel + FM should land
  // within a small factor.
  const Graph g = Graph::grid2d(32, 32);
  const Bisection b = bisect(g);
  EXPECT_LE(b.sep_vertices, 3 * 32);
}

TEST(NestedDissection, ProducesValidPermutation) {
  const Graph g = Graph::grid3d(6, 6, 6);
  const Ordering o = nested_dissection(g);
  EXPECT_TRUE(is_permutation(o.perm, g.num_vertices()));
  for (int i = 0; i < g.num_vertices(); ++i)
    EXPECT_EQ(o.perm[static_cast<std::size_t>(
                  o.iperm[static_cast<std::size_t>(i)])],
              i);
}

TEST(NestedDissection, BeatsNaturalOrderOnFill) {
  const Graph g = Graph::grid2d(12, 12);
  const Ordering nd = nested_dissection(g);
  std::vector<int> natural(static_cast<std::size_t>(g.num_vertices()));
  std::iota(natural.begin(), natural.end(), 0);
  EXPECT_LT(symbolic_fill(g, nd.perm), symbolic_fill(g, natural));
}

TEST(NestedDissection, DisconnectedGraph) {
  std::vector<int> ptr = {0, 1, 2, 3, 4, 4};
  std::vector<int> adj = {1, 0, 3, 2};
  const Graph g = Graph::from_adjacency(5, ptr, adj);
  const Ordering o = nested_dissection(g);
  EXPECT_TRUE(is_permutation(o.perm, 5));
}

TEST(MinimumDegree, OrdersStarGraphCenterLast) {
  // Star: center 0 connected to 1..5. MD must eliminate leaves first.
  std::vector<int> ptr = {0, 5, 6, 7, 8, 9, 10};
  std::vector<int> adj = {1, 2, 3, 4, 5, 0, 0, 0, 0, 0};
  const Graph g = Graph::from_adjacency(6, ptr, adj);
  const auto order = minimum_degree(g);
  EXPECT_TRUE(is_permutation(order, 6));
  // The hub has maximum degree until only one leaf remains, so it must be
  // among the last two vertices eliminated.
  const auto hub_pos =
      std::find(order.begin(), order.end(), 0) - order.begin();
  EXPECT_GE(hub_pos, 4);
  EXPECT_EQ(symbolic_fill(g, order), 5);  // star elimination is fill-free
}

TEST(MinimumDegree, ReducesFillOnGrid) {
  const Graph g = Graph::grid2d(8, 8);
  const auto md = minimum_degree(g);
  std::vector<int> natural(64);
  std::iota(natural.begin(), natural.end(), 0);
  EXPECT_LE(symbolic_fill(g, md), symbolic_fill(g, natural));
}

TEST(Rcm, ValidAndReducesBandwidth) {
  const Graph g = Graph::grid2d(10, 10);
  const auto order = rcm(g);
  EXPECT_TRUE(is_permutation(order, 100));
  std::vector<int> pos(100);
  for (int i = 0; i < 100; ++i)
    pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  int bw = 0;
  for (int v = 0; v < 100; ++v)
    for (int k = g.ptr()[v]; k < g.ptr()[v + 1]; ++k)
      bw = std::max(bw, std::abs(pos[static_cast<std::size_t>(v)] -
                                 pos[static_cast<std::size_t>(g.adj()[k])]));
  EXPECT_LE(bw, 30);  // natural order of a 10x10 grid has bandwidth 10;
                      // RCM must stay in that ballpark, not n
}

// ------------------------------------------------------------------ MC64

namespace {
// Dense n x n to CSR helper.
struct Csr {
  std::vector<int> ptr, ind;
  std::vector<double> val;
};
Csr dense_to_csr(const std::vector<std::vector<double>>& a) {
  Csr m;
  const int n = static_cast<int>(a.size());
  m.ptr.push_back(0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j)
      if (a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] != 0) {
        m.ind.push_back(j);
        m.val.push_back(
            a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      }
    m.ptr.push_back(static_cast<int>(m.ind.size()));
  }
  return m;
}

double match_product(const std::vector<std::vector<double>>& a,
                     const std::vector<int>& q) {
  double p = 1;
  for (std::size_t i = 0; i < q.size(); ++i)
    p *= std::abs(a[i][static_cast<std::size_t>(q[i])]);
  return p;
}
}  // namespace

TEST(Mc64, FindsMaximumProductMatchingSmall) {
  // Brute-force check on a 4x4.
  std::vector<std::vector<double>> a = {{0.1, 2.0, 0.0, 0.0},
                                        {3.0, 0.2, 0.5, 0.0},
                                        {0.0, 1.0, 0.1, 4.0},
                                        {0.5, 0.0, 2.0, 0.3}};
  const Csr m = dense_to_csr(a);
  const Mc64Result r = mc64_scaling(4, m.ptr.data(), m.ind.data(),
                                    m.val.data());
  ASSERT_TRUE(r.structurally_nonsingular);

  // Brute force over all permutations.
  std::vector<int> p = {0, 1, 2, 3};
  double best = 0;
  do {
    double prod = 1;
    for (int i = 0; i < 4; ++i)
      prod *= std::abs(a[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(p[static_cast<std::size_t>(
                            i)])]);
    best = std::max(best, prod);
  } while (std::next_permutation(p.begin(), p.end()));
  EXPECT_NEAR(match_product(a, r.col_of_row), best, 1e-12);
}

TEST(Mc64, ScalingContract) {
  // After scaling and permutation: |diag| == 1, |off-diag| <= 1.
  Rng rng(11);
  const int n = 30;
  std::vector<std::vector<double>> a(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j)
      if (rng.uniform() < 0.2)
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            rng.uniform(-10, 10) * std::pow(10.0, rng.uniform_int(-4, 4));
    // Ensure structural nonsingularity via a nonzero diagonal.
    a[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] =
        rng.uniform(0.1, 5.0);
  }
  const Csr m = dense_to_csr(a);
  const Mc64Result r = mc64_scaling(n, m.ptr.data(), m.ind.data(),
                                    m.val.data());
  ASSERT_TRUE(r.structurally_nonsingular);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const double v = a[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)];
      if (v == 0) continue;
      const double scaled = r.dr[static_cast<std::size_t>(i)] * std::abs(v) *
                            r.dc[static_cast<std::size_t>(j)];
      EXPECT_LE(scaled, 1.0 + 1e-9);
      if (j == r.col_of_row[static_cast<std::size_t>(i)]) {
        EXPECT_NEAR(scaled, 1.0, 1e-9);
      }
    }
  }
}

TEST(Mc64, PermutationMatrix) {
  // A pure permutation matrix must be matched exactly.
  std::vector<std::vector<double>> a = {{0, 0, 3}, {5, 0, 0}, {0, 2, 0}};
  const Csr m = dense_to_csr(a);
  const Mc64Result r = mc64_scaling(3, m.ptr.data(), m.ind.data(),
                                    m.val.data());
  ASSERT_TRUE(r.structurally_nonsingular);
  EXPECT_EQ(r.col_of_row, (std::vector<int>{2, 0, 1}));
}

TEST(Mc64, StructurallySingularDetected) {
  // Column 1 is entirely zero.
  std::vector<std::vector<double>> a = {{1, 0, 1}, {1, 0, 0}, {1, 0, 1}};
  const Csr m = dense_to_csr(a);
  const Mc64Result r = mc64_scaling(3, m.ptr.data(), m.ind.data(),
                                    m.val.data());
  EXPECT_FALSE(r.structurally_nonsingular);
}

// ------------------------------------------------------------ exactness
//
// The ordering pipeline's output is a contract: the same matrix and
// options give the same graph, matching, scalings, permutation and
// separator tree, so every front, flop count and simulated time
// downstream stays put when the ordering code is made faster. The golden
// digests were recorded with the straightforward implementation (full
// rescans for each FM move, per-vertex sorts in the coarsener and the
// graph build, O(n) resets per MC64 search); every later rewrite must
// reproduce them. Like every seeded result here they assume libstdc++'s
// std::shuffle and distributions.

namespace {

using irrlu::test::Fnv1a;

struct Digests {
  std::uint64_t graph = 0, mc64 = 0, nd = 0;
};

/// Runs the ordering half of SparseDirectSolver::analyze() on `a`: MC64,
/// then the graph of A(:, q) (A itself when the matching fails), then
/// nested dissection under eight option sets. Returns one digest each of
/// the graph's CSR, the MC64 result and the orderings.
Digests digest_pipeline(const irrlu::sparse::CsrMatrix& a) {
  const int n = a.rows();
  const Mc64Result mc =
      mc64_scaling(n, a.ptr().data(), a.ind().data(), a.val().data());
  Fnv1a hm;
  hm.ints(mc.col_of_row);
  hm.doubles(mc.dr);
  hm.doubles(mc.dc);
  hm.word(mc.structurally_nonsingular ? 1 : 0);

  const irrlu::sparse::CsrMatrix aq =
      mc.structurally_nonsingular ? a.permute_columns(mc.col_of_row) : a;
  const Graph g = Graph::from_pattern(n, aq.ptr().data(), aq.ind().data());
  Fnv1a hg;
  hg.word(static_cast<std::uint64_t>(n));
  hg.ints(g.ptr());
  hg.ints(g.adj());
  hg.ints(g.vwgt());
  hg.ints(g.ewgt());

  Fnv1a hn;
  for (int leaf : {16, 48})
    for (std::uint64_t seed : {1u, 7u})
      for (double balance : {0.15, 0.05}) {
        NDOptions o;
        o.leaf_size = leaf;
        o.bisect.seed = seed;
        o.bisect.balance = balance;
        const Ordering ord = nested_dissection(g, o);
        hn.ints(ord.perm);
        hn.ints(ord.iperm);
        hn.word(static_cast<std::uint32_t>(ord.root));
        hn.word(ord.tree.size());
        for (const SepTreeNode& t : ord.tree)
          for (int x : {t.begin, t.end, t.left, t.right, t.parent})
            hn.word(static_cast<std::uint32_t>(x));
      }
  return {hg.value(), hm.value(), hn.value()};
}

irrlu::sparse::CsrMatrix maxwell_matrix(int ntheta, int ncross) {
  const double omega = 16.0;
  const irrlu::fem::HexMesh mesh =
      irrlu::fem::HexMesh::torus(ntheta, ncross, ncross);
  return irrlu::fem::assemble_maxwell(
             mesh, omega, irrlu::fem::paper_maxwell_load(omega, omega / 1.05))
      .a;
}

enum class RandomKind { kSparse, kBanded, kBlocks, kMissingDiagonal };

/// Seeded random matrix of one structural kind, with values spread over
/// six decades so MC64 has real choices to make.
irrlu::sparse::CsrMatrix random_matrix(RandomKind kind, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::tuple<int, int, double>> t;
  auto value = [&] {
    return rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform_int(-3, 3));
  };
  int n = 0;
  switch (kind) {
    case RandomKind::kSparse:  // ~3 random off-diagonal entries per row
      n = 600;
      for (int i = 0; i < n; ++i) {
        t.emplace_back(i, i, value());
        for (int e = 0; e < 3; ++e)
          t.emplace_back(i, rng.uniform_int(0, n - 1), value());
      }
      break;
    case RandomKind::kBanded:  // half-bandwidth 4, ~70% of the band kept
      n = 500;
      for (int i = 0; i < n; ++i)
        for (int j = std::max(0, i - 4); j <= std::min(n - 1, i + 4); ++j)
          if (i == j || rng.uniform() < 0.7) t.emplace_back(i, j, value());
      break;
    case RandomKind::kBlocks:  // 5 disconnected diagonal blocks of 80
      n = 400;
      for (int i = 0; i < n; ++i) {
        const int b0 = i / 80 * 80;
        t.emplace_back(i, i, value());
        for (int e = 0; e < 3; ++e)
          t.emplace_back(i, b0 + rng.uniform_int(0, 79), value());
      }
      break;
    case RandomKind::kMissingDiagonal:  // MC64 must move entries onto it
      n = 400;
      for (int i = 0; i < n; ++i) {
        if (rng.uniform() < 0.3) t.emplace_back(i, i, value());
        for (int e = 0; e < 4; ++e)
          t.emplace_back(i, rng.uniform_int(0, n - 1), value());
      }
      break;
  }
  return irrlu::sparse::CsrMatrix::from_triplets(n, t);
}

/// grid3d's 7-point pattern with random values and a full diagonal.
irrlu::sparse::CsrMatrix grid3d_matrix(int nx, int ny, int nz) {
  const Graph g = Graph::grid3d(nx, ny, nz);
  Rng rng(3);
  std::vector<std::tuple<int, int, double>> t;
  for (int v = 0; v < g.num_vertices(); ++v) {
    t.emplace_back(v, v, rng.uniform(1.0, 8.0));
    for (int k = g.ptr()[static_cast<std::size_t>(v)];
         k < g.ptr()[static_cast<std::size_t>(v) + 1]; ++k)
      t.emplace_back(v, g.adj()[static_cast<std::size_t>(k)],
                     rng.uniform(-2.0, 2.0));
  }
  return irrlu::sparse::CsrMatrix::from_triplets(g.num_vertices(), t);
}

}  // namespace

TEST(OrderingDigest, UnchangedFromParent) {
  struct Case {
    const char* name;
    irrlu::sparse::CsrMatrix a;
    Digests golden;
  };
  const Case cases[] = {
      {"torus 12x6", maxwell_matrix(12, 6),
       {0x88602495a7f6210aull, 0x36c42deff2456a2aull, 0xbb4811adbd1cc2f9ull}},
      {"torus 24x8", maxwell_matrix(24, 8),
       {0x9fd44bb7f54001deull, 0x0820f319800201e0ull, 0xe341e34bc5c36418ull}},
      {"torus 32x8", maxwell_matrix(32, 8),
       {0xc4731402a66661a4ull, 0xde2cdb2fc11a2dafull, 0x401debf83c206704ull}},
      {"tube 768x2", maxwell_matrix(768, 2),
       {0x64eb096b1973b699ull, 0xfd186d4cd885a0eaull, 0xd3812b77888d7e08ull}},
      {"grid3d 12x12x12", grid3d_matrix(12, 12, 12),
       {0x1ef5b9c853f3fd4aull, 0xcdecf39f6a4bbabaull, 0x34dc22c9e8375d6cull}},
      {"random sparse", random_matrix(RandomKind::kSparse, 21),
       {0x47666b509d267d70ull, 0x666501e505955569ull, 0xe59f6bf24ddd8e8dull}},
      {"random banded", random_matrix(RandomKind::kBanded, 22),
       {0xd7667724482f6b4bull, 0xf02d2445a3f64b22ull, 0xfa5f44d5a22776b9ull}},
      {"random blocks", random_matrix(RandomKind::kBlocks, 23),
       {0x41a26010dc9e8ba6ull, 0x39ed1d56567875c0ull, 0xd161201d87606e01ull}},
      {"random missing diagonal",
       random_matrix(RandomKind::kMissingDiagonal, 24),
       {0x7fd0723fe2e0de07ull, 0x272016c12513d3cfull, 0x20731e3f9d43e66cull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Digests d = digest_pipeline(c.a);
    EXPECT_EQ(d.graph, c.golden.graph);
    EXPECT_EQ(d.mc64, c.golden.mc64);
    EXPECT_EQ(d.nd, c.golden.nd);
  }
}
