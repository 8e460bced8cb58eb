// Tests for the sparse direct solver: CSR transforms, symbolic analysis
// invariants, the four factorization engines, and end-to-end solves on
// SPD, indefinite, and unsymmetric systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "gpusim/device.hpp"
#include "ordering/graph.hpp"
#include "ordering/mc64.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/csr.hpp"
#include "sparse/io.hpp"
#include "sparse/multifrontal.hpp"
#include "sparse/solver.hpp"
#include "sparse/symbolic.hpp"
#include "trace/trace.hpp"
#include "fnv1a.hpp"

using namespace irrlu::sparse;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;
namespace fem = irrlu::fem;
namespace ord = irrlu::ordering;
using irrlu::test::Fnv1a;

namespace {

std::vector<double> random_rhs(int n, unsigned seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

/// `pattern` with every value redrawn uniformly in [-1, 1] (unsymmetric,
/// so MC64 has a nontrivial matching to find).
CsrMatrix random_values(const CsrMatrix& pattern, unsigned seed) {
  CsrMatrix a = pattern;
  Rng rng(seed);
  for (auto& v : a.val()) v = rng.uniform(-1, 1);
  return a;
}

template <typename T>
bool same_bits(const T* x, std::size_t nx, const T* y, std::size_t ny) {
  return nx == ny && (nx == 0 || std::memcmp(x, y, nx * sizeof(T)) == 0);
}

bool same_factor_bits(const MultifrontalFactor& x,
                      const MultifrontalFactor& y) {
  return same_bits(x.factor_data(), x.factor_elems(), y.factor_data(),
                   y.factor_elems()) &&
         same_bits(x.factor_data_f32(), x.factor_elems_f32(),
                   y.factor_data_f32(), y.factor_elems_f32());
}

}  // namespace

// ------------------------------------------------------------------- CSR

TEST(Csr, FromTripletsSumsDuplicates) {
  const CsrMatrix a = CsrMatrix::from_triplets(
      2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 0, 5.0}, {0, 1, -1.0}});
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
}

TEST(Csr, MultiplyAndResidual) {
  const CsrMatrix a = laplacian2d(3, 3);
  std::vector<double> x(9, 1.0), y(9);
  a.multiply(x.data(), y.data());
  // Interior row sums of the 5-point Laplacian are 0; corners 2; edges 1.
  EXPECT_DOUBLE_EQ(y[4], 0.0);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_NEAR(a.residual(x.data(), y.data()), 0.0, 1e-15);
}

TEST(Csr, SymmetricPermutationRoundTrip) {
  const CsrMatrix a = laplacian2d(4, 4, 0.7);
  std::vector<int> perm(16);
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937_64 g(3);
  std::shuffle(perm.begin(), perm.end(), g);
  const CsrMatrix p = a.permute_symmetric(perm);
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j)
      EXPECT_DOUBLE_EQ(
          p.at(i, j),
          a.at(perm[static_cast<std::size_t>(i)],
               perm[static_cast<std::size_t>(j)]));
}

TEST(Csr, ColumnPermutationAndScaling) {
  const CsrMatrix a = CsrMatrix::from_triplets(
      2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}, {1, 1, 4.0}});
  const CsrMatrix s = a.scaled({2.0, 0.5}, {1.0, 10.0});
  EXPECT_DOUBLE_EQ(s.at(0, 1), 40.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 1.5);
  const CsrMatrix q = a.permute_columns({1, 0});
  EXPECT_DOUBLE_EQ(q.at(0, 0), 2.0);  // column 0 is old column 1
  EXPECT_DOUBLE_EQ(q.at(1, 1), 3.0);
}

// -------------------------------------------------------------- symbolic

class SymbolicOnGrids : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicOnGrids, StructureInvariants) {
  const int k = GetParam();
  const CsrMatrix a = laplacian2d(k, k);
  const ord::Graph g =
      ord::Graph::from_pattern(a.rows(), a.ptr().data(), a.ind().data());
  ord::NDOptions nd;
  nd.leaf_size = 8;
  const ord::Ordering o = ord::nested_dissection(g, nd);
  const CsrMatrix ap = a.permute_symmetric(o.perm);
  const SymbolicAnalysis sym = SymbolicAnalysis::build(ap, o);

  // Every variable eliminated exactly once.
  int total = 0;
  for (const Front& f : sym.fronts) {
    total += f.s();
    // Update indices strictly above the separator range, sorted.
    for (std::size_t i = 0; i < f.upd.size(); ++i) {
      EXPECT_GE(f.upd[i], f.sep_end);
      if (i > 0) {
        EXPECT_LT(f.upd[i - 1], f.upd[i]);
      }
    }
    // Child update sets contained in parent's index space — checked by
    // construction (local_positions throws), spot-check the maps:
    for (int c : f.children)
      EXPECT_EQ(sym.fronts[static_cast<std::size_t>(c)].parent_map.size(),
                sym.fronts[static_cast<std::size_t>(c)].upd.size());
  }
  EXPECT_EQ(total, a.rows());

  // The root front has no update part.
  EXPECT_EQ(sym.fronts[static_cast<std::size_t>(sym.root)].u(), 0);

  // Levels: the root is level 0 and every level's fronts are disjoint.
  EXPECT_EQ(sym.levels[0].size(), 1u);
  EXPECT_EQ(sym.levels[0][0], sym.root);
}

INSTANTIATE_TEST_SUITE_P(Grids, SymbolicOnGrids, ::testing::Values(4, 9, 16));

TEST(Symbolic, FrontSizesGrowTowardRoot) {
  // The Figure-13 shape: average front size increases toward the root
  // while the batch size decreases.
  const CsrMatrix a = laplacian3d(10, 10, 10);
  const ord::Graph g =
      ord::Graph::from_pattern(a.rows(), a.ptr().data(), a.ind().data());
  ord::NDOptions ndo;
  ndo.leaf_size = 8;
  const ord::Ordering o = ord::nested_dissection(g, ndo);
  const SymbolicAnalysis sym =
      SymbolicAnalysis::build(a.permute_symmetric(o.perm), o);
  // Compare the deepest populated level against the root.
  const auto& deepest = sym.levels.back();
  double avg_deep = 0;
  for (int id : deepest) avg_deep += sym.fronts[static_cast<std::size_t>(id)].dim();
  avg_deep /= static_cast<double>(deepest.size());
  const double root_dim =
      sym.fronts[static_cast<std::size_t>(sym.root)].dim();
  EXPECT_GT(root_dim, avg_deep);
  EXPECT_GT(deepest.size(), sym.levels[0].size());
}

// ----------------------------------------------------- numeric + engines

class EngineParam : public ::testing::TestWithParam<Engine> {};

TEST_P(EngineParam, SolvesSpdSystem) {
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.factor.engine = GetParam();
  opts.nd.leaf_size = 16;
  SparseDirectSolver solver(opts);
  const CsrMatrix a = laplacian2d(13, 11);
  solver.analyze(a);
  solver.factor(dev);
  EXPECT_TRUE(solver.numeric().numerically_ok());
  const auto b = random_rhs(a.rows(), 42);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

TEST_P(EngineParam, SolvesIndefiniteSystem) {
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.factor.engine = GetParam();
  SparseDirectSolver solver(opts);
  // Strong negative shift: indefinite Helmholtz-like operator, the hard
  // case motivating direct solvers in the paper.
  const CsrMatrix a = laplacian3d(6, 6, 6, -3.7);
  solver.analyze(a);
  solver.factor(dev);
  const auto b = random_rhs(a.rows(), 7);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineParam,
                         ::testing::Values(Engine::kBatched, Engine::kLooped,
                                           Engine::kLegacySmallBatch,
                                           Engine::kRightLooking));

TEST(Engines, AgreeWithEachOther) {
  const CsrMatrix a = laplacian2d(10, 10, -1.3);
  const auto b = random_rhs(a.rows(), 99);
  std::vector<std::vector<double>> solutions;
  for (Engine e : {Engine::kBatched, Engine::kLooped,
                   Engine::kLegacySmallBatch, Engine::kRightLooking}) {
    Device dev(DeviceModel::a100());
    SolverOptions opts;
    opts.factor.engine = e;
    opts.max_refine_steps = 0;
    SparseDirectSolver solver(opts);
    solver.analyze(a);
    solver.factor(dev);
    solutions.push_back(solver.solve(b));
  }
  for (std::size_t e = 1; e < solutions.size(); ++e)
    for (std::size_t i = 0; i < solutions[0].size(); ++i)
      EXPECT_NEAR(solutions[e][i], solutions[0][i], 1e-8);
}

TEST(Solver, UnsymmetricMatrixViaMc64) {
  // Unsymmetric and badly scaled: exercises matching + scaling.
  Rng rng(5);
  const int k = 8;
  CsrMatrix base = laplacian2d(k, k);
  std::vector<std::tuple<int, int, double>> t;
  for (int i = 0; i < base.rows(); ++i)
    for (int p = base.ptr()[static_cast<std::size_t>(i)];
         p < base.ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
      const int j = base.ind()[static_cast<std::size_t>(p)];
      double v = base.val()[static_cast<std::size_t>(p)];
      if (i != j) v *= rng.uniform(0.5, 1.5);  // break symmetry (values)
      if (i % 7 == 0) v *= 1e6;                // bad row scaling
      t.emplace_back(i, j, v);
    }
  const CsrMatrix a = CsrMatrix::from_triplets(base.rows(), t);

  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const auto b = random_rhs(a.rows(), 3);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-11);
}

TEST(Solver, IterativeRefinementImproves) {
  const CsrMatrix a = laplacian3d(5, 5, 5, -2.1);
  const auto b = random_rhs(a.rows(), 13);
  double res_no = 0, res_yes = 0;
  for (int refine : {0, 2}) {
    Device dev(DeviceModel::a100());
    SolverOptions opts;
    opts.max_refine_steps = refine;
    SparseDirectSolver solver(opts);
    solver.analyze(a);
    solver.factor(dev);
    const auto x = solver.solve(b);
    (refine == 0 ? res_no : res_yes) = solver.residual(x, b);
  }
  EXPECT_LE(res_yes, res_no * 1.5 + 1e-16);
  EXPECT_LT(res_yes, 1e-13);
}

TEST(Solver, LevelStatsShapeMatchesFig13) {
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  const CsrMatrix a = laplacian3d(8, 8, 8);
  solver.analyze(a);
  const auto stats = solver.level_stats();
  ASSERT_GE(stats.size(), 3u);
  EXPECT_EQ(stats.front().level, 0);
  EXPECT_EQ(stats.front().batch, 1);  // root level: a single big front
  // Deeper levels: more fronts, smaller on average.
  EXPECT_GT(stats.back().batch, stats.front().batch);
  EXPECT_LT(stats.back().avg_dim, stats.front().avg_dim);
}

TEST(Solver, BatchedUsesFewerLaunchesThanLooped) {
  const CsrMatrix a = laplacian2d(24, 24);
  long launches_batched = 0, launches_looped = 0;
  double sync_legacy = 0, sync_batched = 0;
  for (Engine e : {Engine::kBatched, Engine::kLooped,
                   Engine::kLegacySmallBatch}) {
    Device dev(DeviceModel::a100());
    SolverOptions opts;
    opts.nd.leaf_size = 8;  // many small fronts: the batched regime
    opts.factor.engine = e;
    SparseDirectSolver solver(opts);
    solver.analyze(a);
    solver.factor(dev);
    if (e == Engine::kBatched) {
      launches_batched = solver.numeric().launch_count();
      sync_batched = solver.numeric().sync_wait_seconds();
    }
    if (e == Engine::kLooped) launches_looped = solver.numeric().launch_count();
    if (e == Engine::kLegacySmallBatch)
      sync_legacy = solver.numeric().sync_wait_seconds();
  }
  // The paper's core claim: batching removes the per-front launch storm,
  // and the legacy schedule spends much more time in synchronization.
  EXPECT_LT(launches_batched, launches_looped / 4);
  EXPECT_GT(sync_legacy, sync_batched);
}

TEST(Solver, SingularMatrixReported) {
  // A structurally singular matrix: MC64 detects it and the solver falls
  // back; the numeric factorization flags the zero pivot.
  CsrMatrix a = CsrMatrix::from_triplets(
      3, {{0, 0, 1.0}, {1, 1, 0.0}, {1, 0, 0.0}, {2, 2, 2.0}});
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  EXPECT_FALSE(solver.numeric().numerically_ok());
}

TEST(Solver, OneByOneMatrix) {
  const CsrMatrix a = CsrMatrix::from_triplets(1, {{0, 0, 2.0}});
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const auto x = solver.solve(std::vector<double>{6.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
}

TEST(Solver, MemoryReleasedWithFactor) {
  Device dev(DeviceModel::a100());
  const CsrMatrix a = laplacian2d(12, 12);
  {
    SparseDirectSolver solver;
    solver.analyze(a);
    solver.factor(dev);
    EXPECT_GT(dev.bytes_in_use(), 0u);
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(MemoryMode, StackedMatchesUpfrontAndShrinksPeak) {
  // The paper: "if the entire assembly tree does not fit in the device
  // memory, then the factorization is split in multiple traversals of
  // subtrees" — our stacked-levels discipline keeps at most two adjacent
  // levels of working fronts alive.
  const CsrMatrix a = laplacian3d(7, 7, 7, -1.9);
  const auto b = random_rhs(a.rows(), 77);
  std::vector<double> x_up, x_st;
  std::size_t peak_up = 0, peak_st = 0;
  for (auto mode : {MemoryMode::kAllUpfront, MemoryMode::kStackedLevels}) {
    Device dev(DeviceModel::a100());
    SolverOptions opts;
    opts.nd.leaf_size = 8;  // deep tree: the stacked savings are largest
    opts.factor.memory = mode;
    opts.max_refine_steps = 0;
    SparseDirectSolver solver(opts);
    solver.analyze(a);
    solver.factor(dev);
    EXPECT_TRUE(solver.numeric().numerically_ok());
    const auto x = solver.solve(b);
    EXPECT_LT(solver.residual(x, b), 1e-10);
    if (mode == MemoryMode::kAllUpfront) {
      x_up = x;
      peak_up = solver.numeric().peak_device_bytes();
    } else {
      x_st = x;
      peak_st = solver.numeric().peak_device_bytes();
    }
  }
  for (std::size_t i = 0; i < x_up.size(); ++i)
    EXPECT_NEAR(x_st[i], x_up[i], 1e-9);
  EXPECT_LT(peak_st, peak_up);
}

TEST(MemoryMode, BaselineEnginesFallBackToUpfront) {
  // Non-batched engines ignore the stacked request but must stay correct.
  const CsrMatrix a = laplacian2d(9, 9);
  const auto b = random_rhs(a.rows(), 5);
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.factor.engine = Engine::kLooped;
  opts.factor.memory = MemoryMode::kStackedLevels;
  SparseDirectSolver solver(opts);
  solver.analyze(a);
  solver.factor(dev);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

TEST(MemoryMode, FactorBytesMatchSymbolicPrediction) {
  const CsrMatrix a = laplacian2d(14, 14);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  // factor_nnz counts s*(s+u) + u*s entries per front; the compact store
  // holds exactly s*s + 2*s*u doubles per front plus s pivots.
  const auto& sym = solver.symbolic();
  std::size_t expect = 0;
  for (const auto& f : sym.fronts)
    expect += (static_cast<std::size_t>(f.s()) * f.s() +
               2ull * f.s() * f.u()) * sizeof(double) +
              static_cast<std::size_t>(f.s()) * sizeof(int);
  EXPECT_EQ(solver.numeric().factor_bytes(), expect);
}

TEST(DeviceSolve, MatchesHostSolve) {
  const CsrMatrix a = laplacian3d(6, 6, 6, -2.3);
  const auto b = random_rhs(a.rows(), 31);
  std::vector<double> x_host, x_dev;
  for (bool on_device : {false, true}) {
    Device dev(DeviceModel::a100());
    SolverOptions opts;
    opts.solve_on_device = on_device;
    opts.max_refine_steps = 0;
    SparseDirectSolver solver(opts);
    solver.analyze(a);
    solver.factor(dev);
    (on_device ? x_dev : x_host) = solver.solve(b);
    EXPECT_LT(solver.residual(on_device ? x_dev : x_host, b), 1e-11);
    if (on_device) {
      // The batched solve must appear in the device profile.
      EXPECT_GE(dev.profile().count("mf_solve_fwd"), 1u);
      EXPECT_GE(dev.profile().count("mf_solve_bwd"), 1u);
    }
  }
  // Level-order vs postorder accumulation differ only in roundoff.
  for (std::size_t i = 0; i < x_host.size(); ++i)
    EXPECT_NEAR(x_dev[i], x_host[i], 1e-12);
}

TEST(DeviceSolve, LaunchCountScalesWithLevelsNotFronts) {
  const CsrMatrix a = laplacian2d(20, 20);
  Device dev(DeviceModel::a100());
  SolverOptions opts;
  opts.nd.leaf_size = 8;
  SparseDirectSolver solver(opts);
  solver.analyze(a);
  solver.factor(dev);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  const long before = dev.launch_count();
  solver.numeric().solve_many(x, 1);
  const long solve_launches = dev.launch_count() - before;
  const long levels = static_cast<long>(solver.symbolic().levels.size());
  const long fronts = static_cast<long>(solver.symbolic().fronts.size());
  EXPECT_LE(solve_launches, 2 * levels + 2);
  EXPECT_LT(solve_launches, fronts);  // the batching is the point
}

TEST(DeviceSolve, ManyRhsSweepAllocatesOnce) {
  // solve_many stages x in one device allocation and runs one forward and
  // one backward launch per non-empty level at every width; FP32 levels
  // are read in place, so the sweep's schedule does not depend on the
  // factor precision.
  const auto mesh = fem::HexMesh::torus(12, 4, 4);
  const double omega = 16.0;
  const fem::EdgeSystem sys = fem::assemble_maxwell(
      mesh, omega, fem::paper_maxwell_load(omega, omega / 1.05));
  const int n = sys.a.rows();
  using Schedule = std::vector<std::pair<std::string, int>>;
  std::map<int, Schedule> f64_schedule;  // keyed by nrhs
  for (PrecisionPolicy p : {PrecisionPolicy::kF64, PrecisionPolicy::kF32,
                            PrecisionPolicy::kAdaptive}) {
    SCOPED_TRACE(to_string(p));
    SolverOptions opts;
    opts.nd.leaf_size = 16;
    opts.factor.precision = p;
    irrlu::trace::Tracer tracer;  // outlives the device's last free
    Device dev(DeviceModel::a100());
    SparseDirectSolver solver(opts);
    solver.analyze(sys.a);
    solver.factor(dev);
    const MultifrontalFactor& f = solver.numeric();
    ASSERT_EQ(f.has_fp32(), p != PrecisionPolicy::kF64);
    dev.set_tracer(&tracer);
    long levels = 0;
    for (const auto& lvl : solver.symbolic().levels)
      levels += std::any_of(lvl.begin(), lvl.end(), [&](int id) {
        return solver.symbolic().fronts[static_cast<std::size_t>(id)].s() > 0;
      });
    for (int nrhs : {1, 3, 16}) {
      SCOPED_TRACE("nrhs " + std::to_string(nrhs));
      std::vector<double> x(static_cast<std::size_t>(n) * nrhs);
      Rng rng(static_cast<unsigned>(40 + nrhs));
      for (double& v : x) v = rng.uniform(-1, 1);
      const long allocs = dev.alloc_count();
      const std::size_t first = tracer.launches().size();
      f.solve_many(x, nrhs);
      EXPECT_EQ(dev.alloc_count() - allocs, 1);
      Schedule s;
      for (std::size_t i = first; i < tracer.launches().size(); ++i) {
        const auto& l = tracer.launches()[i];
        s.emplace_back(std::string(tracer.kernel_name(l.name_id)), l.blocks);
      }
      EXPECT_EQ(static_cast<long>(s.size()), 2 * levels);
      if (p == PrecisionPolicy::kF64)
        f64_schedule[nrhs] = s;
      else
        EXPECT_EQ(s, f64_schedule[nrhs]);
    }
  }
}

TEST(DeviceSolve, RejectsWrongLengthVector) {
  // Every sweep indexes x by the factor's order, so a vector of another
  // length must be rejected before anything is written.
  const CsrMatrix a = laplacian2d(9, 8);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const MultifrontalFactor& f = solver.numeric();
  for (int len : {a.rows() - 1, a.rows() + 1}) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::vector<double> x(static_cast<std::size_t>(len), 1.0);
    EXPECT_THROW(f.solve(x), irrlu::Error);
    EXPECT_THROW(f.solve_transpose(x), irrlu::Error);
    EXPECT_THROW(f.solve_many(x, 1), irrlu::Error);
  }
}

// --------------------------------------------------------------------- IO

TEST(MatrixMarket, RoundTrip) {
  const CsrMatrix a = laplacian2d(5, 4, -0.3);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const CsrMatrix b = read_matrix_market(ss);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (int i = 0; i < a.rows(); ++i)
    for (int k = a.ptr()[static_cast<std::size_t>(i)];
         k < a.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = a.ind()[static_cast<std::size_t>(k)];
      EXPECT_DOUBLE_EQ(b.at(i, j), a.val()[static_cast<std::size_t>(k)]);
    }
}

TEST(MatrixMarket, SymmetricExpansion) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% a comment line\n"
     << "3 3 4\n"
     << "1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 5.0\n";
  const CsrMatrix a = read_matrix_market(ss);
  EXPECT_EQ(a.nnz(), 5);  // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
}

TEST(MatrixMarket, PatternFile) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern general\n"
     << "2 2 3\n"
     << "1 1\n1 2\n2 2\n";
  const CsrMatrix a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);
}

TEST(MatrixMarket, RejectsMalformed) {
  std::stringstream no_banner("1 1 1\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(no_banner), irrlu::Error);
  std::stringstream rect(
      "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(rect), irrlu::Error);
  std::stringstream trunc(
      "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(trunc), irrlu::Error);
}

TEST(MatrixMarket, SolveImportedSystem) {
  // Full loop: export, re-import, factor, solve.
  const CsrMatrix a0 = laplacian3d(4, 4, 4, -1.1);
  std::stringstream ss;
  write_matrix_market(ss, a0);
  const CsrMatrix a = read_matrix_market(ss);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const auto b = random_rhs(a.rows(), 2);
  const auto x = solver.solve(b);
  EXPECT_LT(solver.residual(x, b), 1e-12);
}

TEST(Solver, FactorizationReusedAcrossManyRightHandSides) {
  // The paper's intro: "the factorization of the operator can be reused
  // multiple times for the solution of different linear systems". Repeated
  // solves must not launch any new factorization kernels.
  const CsrMatrix a = laplacian3d(5, 5, 5, -1.7);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const long launches_after_factor = dev.launch_count();
  for (int rhs = 0; rhs < 5; ++rhs) {
    const auto b = random_rhs(a.rows(), 100 + rhs);
    const auto x = solver.solve(b);
    EXPECT_LT(solver.residual(x, b), 1e-12) << "rhs " << rhs;
  }
  // Host-side solves launch nothing; the factors were reused.
  EXPECT_EQ(dev.launch_count(), launches_after_factor);
}

TEST(Solver, RefactorReusesAnalysis) {
  // Same pattern, new values: the ordering/symbolic phases are reused and
  // the new system solves correctly.
  const CsrMatrix a1 = laplacian2d(10, 10, -0.9);
  CsrMatrix a2 = a1;
  for (auto& v : a2.val()) v *= 1.7;  // same pattern, different operator
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a1);
  solver.factor(dev);
  const auto b = random_rhs(a1.rows(), 55);
  EXPECT_LT(solver.residual(solver.solve(b), b), 1e-12);

  const auto fronts_before = solver.symbolic().fronts.size();
  solver.refactor(dev, a2);
  EXPECT_EQ(solver.symbolic().fronts.size(), fronts_before);
  const auto x2 = solver.solve(b);
  // residual() uses the *current* matrix (a2).
  EXPECT_LT(solver.residual(x2, b), 1e-12);
  // And the solutions differ (it really used the new values).
  const auto x1 = solver.solve(b);
  (void)x1;
  std::vector<double> y(static_cast<std::size_t>(a1.rows()));
  a1.multiply(x2.data(), y.data());
  double diff = 0;
  for (std::size_t i = 0; i < y.size(); ++i)
    diff = std::max(diff, std::abs(y[i] - b[i]));
  EXPECT_GT(diff, 1e-3);  // x2 does NOT solve the old system
}

TEST(Solver, RefactorRejectsMovedEntry) {
  // Same order and nonzero count, one entry moved to another column: the
  // recorded value map would read the wrong entries, so refactor() must
  // refuse it and leave the current factorization in place.
  const CsrMatrix a = laplacian2d(10, 10, -0.9);
  std::vector<int> ind = a.ind();
  ASSERT_EQ(ind[2], 10);  // row 0 holds columns {0, 1, 10}
  ind[2] = 20;
  const CsrMatrix moved(a.rows(), a.ptr(), ind, a.val());
  ASSERT_EQ(moved.nnz(), a.nnz());

  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  const std::vector<double> before(
      solver.numeric().factor_data(),
      solver.numeric().factor_data() + solver.numeric().factor_elems());
  EXPECT_THROW(solver.refactor(dev, moved), irrlu::Error);
  EXPECT_TRUE(same_bits(before.data(), before.size(),
                        solver.numeric().factor_data(),
                        solver.numeric().factor_elems()));
  const auto b = random_rhs(a.rows(), 17);
  EXPECT_LT(solver.residual(solver.solve(b), b), 1e-12);
}

TEST(Solver, AnalyzeTimingsSplitTheAnalyzeWall) {
  // analyze_timings() splits the host wall of the last analyze() into
  // disjoint sub-phases: each is non-negative and together they fit in
  // the wall measured around the call.
  const CsrMatrix a = laplacian2d(16, 16, -0.9);
  SparseDirectSolver solver;
  const auto t0 = std::chrono::steady_clock::now();
  solver.analyze(a);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const AnalyzeTimings& t = solver.analyze_timings();
  for (double s : {t.mc64_s, t.graph_s, t.nd_s, t.permute_s, t.symbolic_s})
    EXPECT_GE(s, 0.0);
  EXPECT_GT(t.nd_s, 0.0);
  EXPECT_LE(t.mc64_s + t.graph_s + t.nd_s + t.permute_s + t.symbolic_s,
            wall);
}

/// Parameter: whether MC64 matching and scaling is on.
class RefactorValueMap : public ::testing::TestWithParam<bool> {};

TEST_P(RefactorValueMap, MatchesReplayedPreparation) {
  // refactor(a1) after analyze(a0) gathers a1's values through the entry
  // map analyze() recorded. Its factors must be bitwise those of the
  // explicit chain a1.scaled(dr, dc).permute_columns(q)
  // .permute_symmetric(perm), with a0's matching and the ordering
  // replayed through the public API.
  const bool mc64 = GetParam();
  const CsrMatrix pattern = laplacian2d(12, 12);
  const CsrMatrix a0 = random_values(pattern, 3);
  const CsrMatrix a1 = random_values(pattern, 4);
  const int n = a0.rows();
  SolverOptions opts;
  opts.use_mc64 = mc64;
  opts.nd.leaf_size = 16;

  Device dev(DeviceModel::a100());
  SparseDirectSolver solver(opts);
  solver.analyze(a0);
  solver.factor(dev);
  solver.refactor(dev, a1);
  ASSERT_EQ(solver.mc64_active(), mc64);

  ord::Mc64Result mc;
  mc.col_of_row.resize(static_cast<std::size_t>(n));
  std::iota(mc.col_of_row.begin(), mc.col_of_row.end(), 0);
  mc.dr.assign(static_cast<std::size_t>(n), 1.0);
  mc.dc.assign(static_cast<std::size_t>(n), 1.0);
  if (mc64) {
    mc = ord::mc64_scaling(n, a0.ptr().data(), a0.ind().data(),
                           a0.val().data());
    std::vector<int> id(static_cast<std::size_t>(n));
    std::iota(id.begin(), id.end(), 0);
    ASSERT_NE(mc.col_of_row, id);  // the column permutation is exercised
    ASSERT_NE(mc.dr, std::vector<double>(mc.dr.size(), 1.0));
  }
  const CsrMatrix aq =
      a1.scaled(mc.dr, mc.dc).permute_columns(mc.col_of_row);
  const ord::Graph g =
      ord::Graph::from_pattern(n, aq.ptr().data(), aq.ind().data());
  const ord::Ordering o = ord::nested_dissection(g, opts.nd);
  const CsrMatrix a_prep = aq.permute_symmetric(o.perm);
  const SymbolicAnalysis sym = SymbolicAnalysis::build(a_prep, o);
  Device ref_dev(DeviceModel::a100());
  const MultifrontalFactor ref(ref_dev, a_prep, sym, opts.factor);
  EXPECT_TRUE(same_factor_bits(solver.numeric(), ref));
}

INSTANTIATE_TEST_SUITE_P(Preparations, RefactorValueMap,
                         ::testing::Values(true, false));

TEST(Hybrid, ThresholdIsGemmScheduleKnobOnly) {
  // The Figure-14 threshold moves only the Schur GEMMs of the larger
  // fronts out of their level batch: factor bits are those of threshold
  // 0, and every kernel but irr_gemm runs the same launches, blocks,
  // flops and bytes. irr_gemm keeps its flops and bytes and only adds
  // launches (one per looped front).
  const double omega = 16.0;
  const fem::HexMesh mesh = fem::HexMesh::torus(8, 4, 4);
  const CsrMatrix a =
      fem::assemble_maxwell(mesh, omega,
                            fem::paper_maxwell_load(omega, omega / 1.05))
          .a;
  struct Config {
    const char* name;
    PrecisionPolicy precision;
    bool interleaved;
  };
  for (const Config& cfg :
       {Config{"fp64", PrecisionPolicy::kF64, false},
        Config{"fp32", PrecisionPolicy::kF32, false},
        Config{"interleaved", PrecisionPolicy::kF64, true}}) {
    SCOPED_TRACE(cfg.name);
    std::unique_ptr<Device> devs[2];
    std::unique_ptr<SparseDirectSolver> solvers[2];
    const int thresholds[2] = {48, 0};
    for (int i = 0; i < 2; ++i) {
      SolverOptions opts;
      opts.nd.leaf_size = 16;
      opts.factor.hybrid_gemm_threshold = thresholds[i];
      opts.factor.precision = cfg.precision;
      opts.factor.interleaved.enabled = cfg.interleaved;
      devs[i] = std::make_unique<Device>(DeviceModel::a100());
      solvers[i] = std::make_unique<SparseDirectSolver>(opts);
      solvers[i]->analyze(a);
      solvers[i]->factor(*devs[i]);
    }
    // The knob must bite: some level batches a front above 48 together
    // with fronts at or below it.
    bool mixed = false;
    for (const auto& lv : solvers[0]->symbolic().levels) {
      int above = 0;
      for (int id : lv)
        above += solvers[0]->symbolic().fronts[static_cast<std::size_t>(id)]
                             .dim() > 48;
      mixed |= above > 0 && above < static_cast<int>(lv.size());
    }
    EXPECT_TRUE(mixed);
    EXPECT_TRUE(same_factor_bits(solvers[0]->numeric(),
                                 solvers[1]->numeric()));
    const auto& looped = devs[0]->profile();
    const auto& batched = devs[1]->profile();
    ASSERT_EQ(looped.size(), batched.size());
    for (const auto& [name, st] : batched) {
      SCOPED_TRACE(name);
      ASSERT_EQ(looped.count(name), 1u);
      const auto& lt = looped.at(name);
      EXPECT_EQ(lt.flops, st.flops);
      EXPECT_EQ(lt.bytes, st.bytes);
      if (name == "irr_gemm") {
        EXPECT_GT(lt.launches, st.launches);
      } else {
        EXPECT_EQ(lt.launches, st.launches);
        EXPECT_EQ(lt.blocks, st.blocks);
      }
    }
  }
}

// ------------------------------------------------ factor schedule goldens
//
// The simulated schedule of a factorization is a contract: every traced
// launch and allocation, the simulated clock, the launch and sync counts
// and the peak bytes stay put when the factor pipeline is restructured.
// The golden digests were recorded before the constructor was split into
// named stages. Factor bits cannot be goldens: the native-ISA and the
// portable micro-kernel builds round differently, and on a matrix that
// pivots, different roundings pick different pivots, which moves the
// row-swap traffic. This matrix is strictly diagonally dominant, so
// partial pivoting never swaps and its schedule is the same on every
// build and at every host-thread count.

namespace {

/// grid3d(nx, ny, nz)'s 7-point pattern with diagonal 8 and off-diagonals
/// -1 + 0.01 * ((i + j) mod 5): symmetric, strictly diagonally dominant.
CsrMatrix pivot_free_matrix(int nx, int ny, int nz) {
  const ord::Graph g = ord::Graph::grid3d(nx, ny, nz);
  std::vector<std::tuple<int, int, double>> t;
  for (int i = 0; i < g.num_vertices(); ++i) {
    t.emplace_back(i, i, 8.0);
    for (int k = g.ptr()[static_cast<std::size_t>(i)];
         k < g.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = g.adj()[static_cast<std::size_t>(k)];
      t.emplace_back(i, j, -1.0 + 0.01 * ((i + j) % 5));
    }
  }
  return CsrMatrix::from_triplets(g.num_vertices(), t);
}

/// The schedule fields of one factorization (no factor bits, no dispatch
/// counters).
void hash_factor(Fnv1a& h, const MultifrontalFactor& f) {
  const FactorReport& r = f.report();
  h.word(static_cast<std::uint64_t>(f.launch_count()));
  h.word(static_cast<std::uint64_t>(f.sync_count()));
  h.real(f.factor_seconds());
  h.word(r.measured_peak_bytes);
  h.word(r.predicted_peak_bytes);
  h.word(static_cast<std::uint64_t>(r.boosted_pivots));
  h.word(static_cast<std::uint64_t>(r.zero_pivot_fronts));
  h.word(static_cast<std::uint64_t>(r.fp32_fronts));
}

/// Every traced launch and allocation event, minus the host wall clock.
void hash_trace(Fnv1a& h, const irrlu::trace::Tracer& tr) {
  for (const auto& l : tr.launches()) {
    h.text(tr.kernel_name(l.name_id));
    h.text(tr.scope_path(l.scope));
    h.word(static_cast<std::uint64_t>(l.blocks));
    h.word(static_cast<std::uint64_t>(l.stream));
    h.word(l.smem_bytes);
    h.real(l.flops);
    h.real(l.bytes);
    h.real(l.sim_start);
    h.real(l.sim_end);
    h.real(l.host_issue);
  }
  for (const auto& m : tr.mem_events()) {
    h.word(m.is_free ? 1 : 0);
    h.text(tr.mem_tag_name(m.tag));
    h.word(m.bytes);
    h.real(m.sim_time);
  }
}

}  // namespace

TEST(FactorSchedule, UnchangedFromParent) {
  const CsrMatrix a = pivot_free_matrix(12, 10, 9);
  struct Config {
    Engine engine;
    MemoryMode memory;
    PrecisionPolicy precision;
    bool interleaved;
    int threshold;
  };
  std::vector<Config> configs;
  for (Engine e : {Engine::kLooped, Engine::kLegacySmallBatch,
                   Engine::kRightLooking})
    configs.push_back(
        {e, MemoryMode::kAllUpfront, PrecisionPolicy::kF64, false, 256});
  for (MemoryMode m : {MemoryMode::kAllUpfront, MemoryMode::kStackedLevels})
    for (PrecisionPolicy p : {PrecisionPolicy::kF64, PrecisionPolicy::kF32,
                              PrecisionPolicy::kAdaptive})
      for (bool ilv : {false, true})
        for (int threshold : {256, 24})
          configs.push_back({Engine::kBatched, m, p, ilv, threshold});
  const std::uint64_t golden[] = {
      // looped, legacy-small-batch, right-looking
      0x6fa9010f2afab459ull, 0x1d6bd11e2a4f23f8ull, 0x4b1d96a56a60b1d5ull,
      // batched all-upfront f64: interleaved off/on x threshold 256/24
      0xe81ddc86aa79c02cull, 0xb6bf9e9ad39ee895ull,
      0xadccd6ad86e0b54dull, 0xf381e4e7b948f52full,
      // batched all-upfront f32: interleaved off/on x threshold 256/24
      0xdee52f5de94520b5ull, 0x58cddb0e344e233eull,
      0x857ccc7a8374a8b3ull, 0xac0b0dcfd3ee07e3ull,
      // batched all-upfront adaptive: interleaved off/on x threshold 256/24
      0xbf6e10e54763af1bull, 0x1b158524028289a8ull,
      0x921e147a5af51d15ull, 0xb1397f8ad28d0a0full,
      // batched stacked-levels f64: interleaved off/on x threshold 256/24
      0x0a2613872249f815ull, 0xba01cb312a537431ull,
      0xcca1c05405f696c0ull, 0x285b9e9bf381d969ull,
      // batched stacked-levels f32: interleaved off/on x threshold 256/24
      0x4fab66b50c431fecull, 0xc9d2a2aa60381856ull,
      0xa9a1de737bd86e77ull, 0x9e8851c5bcf8cd91ull,
      // batched stacked-levels adaptive: interleaved off/on x threshold 256/24
      0x318a41938835625aull, 0x8f68c2c2b2b512fdull,
      0xdb9132ad87aa0abeull, 0xb29f6cf66063132cull,
  };
  ASSERT_EQ(configs.size(), std::size(golden));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    std::ostringstream name;
    name << to_string(c.engine) << " memory=" << static_cast<int>(c.memory)
         << " precision=" << to_string(c.precision)
         << " interleaved=" << c.interleaved << " threshold=" << c.threshold;
    SCOPED_TRACE(name.str());
    SolverOptions opts;
    opts.nd.leaf_size = 16;
    opts.factor.engine = c.engine;
    opts.factor.memory = c.memory;
    opts.factor.precision = c.precision;
    opts.factor.interleaved.enabled = c.interleaved;
    opts.factor.interleaved.max_class_dim = 32;
    opts.factor.hybrid_gemm_threshold = c.threshold;
    irrlu::trace::Tracer tracer;  // outlives the device's last free
    Device dev(DeviceModel::a100());
    dev.set_tracer(&tracer);
    SparseDirectSolver solver(opts);
    solver.analyze(a);
    Fnv1a h;
    solver.factor(dev);
    hash_factor(h, solver.numeric());
    // The interleaved configurations do route fronts.
    EXPECT_EQ(dev.profile().count("ilv_getf2") > 0, c.interleaved);
    solver.refactor(dev, a);  // same pattern
    hash_factor(h, solver.numeric());
    hash_trace(h, tracer);
    EXPECT_EQ(h.value(), golden[i])
        << "config " << i << " digest 0x" << std::hex << h.value();
  }
}

TEST(Solver, MultipleRightHandSides) {
  const CsrMatrix a = laplacian2d(9, 9, -0.8);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(a);
  solver.factor(dev);
  std::vector<std::vector<double>> bs;
  for (int k = 0; k < 4; ++k) bs.push_back(random_rhs(a.rows(), 300 + k));
  const auto reps = solver.solve_report_many(bs);
  ASSERT_EQ(reps.size(), bs.size());
  for (std::size_t k = 0; k < bs.size(); ++k)
    EXPECT_LT(solver.residual(reps[k].x, bs[k]), 1e-12) << "rhs " << k;
}
