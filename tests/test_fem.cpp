// Tests for the FEM substrate: hex meshes (box + torus), Q1 Poisson with
// manufactured-solution convergence, and the Nédélec Maxwell assembly
// (exact-sequence and consistency properties), ending with the full
// paper pipeline: Maxwell -> multifrontal solve -> machine precision.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "fem/element.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "fem/nodal.hpp"
#include "gpusim/device.hpp"
#include "sparse/solver.hpp"
#include "helpers.hpp"

using namespace irrlu::fem;
using irrlu::Rng;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;
using irrlu::sparse::CsrMatrix;
using irrlu::sparse::SparseDirectSolver;
using irrlu::sparse::SolverOptions;
using irrlu::test::csr_entry;

TEST(HexMesh, BoxCounts) {
  const HexMesh m = HexMesh::box(3, 2, 4);
  EXPECT_EQ(m.num_cells(), 24);
  EXPECT_EQ(m.num_vertices(), 4 * 3 * 5);
  // Edges: x: 3*3*5, y: 4*2*5, z: 4*3*4.
  EXPECT_EQ(m.num_edges(), 45 + 40 + 48);
}

TEST(HexMesh, TorusPeriodicityIdentifiesSeam) {
  const HexMesh m = HexMesh::torus(8, 2, 2);
  EXPECT_EQ(m.vertex_id(8, 1, 1), m.vertex_id(0, 1, 1));
  EXPECT_EQ(m.edge_id(1, 8, 0, 1), m.edge_id(1, 0, 0, 1));
  // Vertex count: 8 angular planes (not 9).
  EXPECT_EQ(m.num_vertices(), 8 * 3 * 3);
}

TEST(HexMesh, TorusGeometryLiesOnRing) {
  const HexMesh m = HexMesh::torus(12, 2, 2, 2.0, 0.5);
  for (int i = 0; i <= 12; ++i) {
    const auto c = m.vertex_coord(i % 12, 1, 1);
    const double r = std::sqrt(c[0] * c[0] + c[1] * c[1]);
    EXPECT_NEAR(r, 2.0, 1e-12);  // centerline radius
    EXPECT_NEAR(c[2], 0.0, 1e-12);
  }
}

TEST(HexMesh, CellEdgesDistinctAndShared) {
  const HexMesh m = HexMesh::box(2, 2, 2);
  const auto e0 = m.cell_edges(0, 0, 0);
  std::set<int> s(e0.begin(), e0.end());
  EXPECT_EQ(s.size(), 12u);
  // Neighboring cells share exactly 4 edges across a face.
  const auto e1 = m.cell_edges(1, 0, 0);
  int shared = 0;
  for (int e : e1) shared += s.count(e);
  EXPECT_EQ(shared, 4);
}

TEST(HexMesh, BoundaryEdges) {
  const HexMesh box = HexMesh::box(3, 3, 3);
  int nb = 0;
  for (int e = 0; e < box.num_edges(); ++e) nb += box.edge_on_boundary(e);
  EXPECT_GT(nb, 0);
  EXPECT_LT(nb, box.num_edges());
  // Torus: no boundary in the angular direction — an interior ring edge is
  // interior even at the seam.
  const HexMesh t = HexMesh::torus(6, 2, 2);
  EXPECT_FALSE(t.edge_on_boundary(0, 0, 1, 1));
  EXPECT_TRUE(t.edge_on_boundary(0, 0, 0, 1));
}

TEST(Element, JacobianOfUnitCellIsDiagonal) {
  const HexMesh m = HexMesh::box(2, 2, 2);
  const auto geo = map_hex(m.cell_coords(0, 0, 0), 0.3, 0.6, 0.9);
  EXPECT_NEAR(geo.J[0][0], 0.5, 1e-14);
  EXPECT_NEAR(geo.J[1][1], 0.5, 1e-14);
  EXPECT_NEAR(geo.J[2][2], 0.5, 1e-14);
  EXPECT_NEAR(geo.detJ, 0.125, 1e-14);
}

TEST(Poisson, ManufacturedSolutionConverges) {
  // u = sin(pi x) sin(pi y) sin(pi z), f = 3 pi^2 u, u = 0 on the boundary.
  auto u = [](double x, double y, double z) {
    return std::sin(M_PI * x) * std::sin(M_PI * y) * std::sin(M_PI * z);
  };
  auto f = [&](double x, double y, double z) {
    return 3.0 * M_PI * M_PI * u(x, y, z);
  };
  double prev_err = 0;
  int step = 0;
  for (int n : {4, 8}) {
    const HexMesh mesh = HexMesh::box(n, n, n);
    const NodalSystem sys = assemble_poisson(mesh, 0.0, f);
    Device dev(DeviceModel::a100());
    SparseDirectSolver solver;
    solver.analyze(sys.a);
    solver.factor(dev);
    const auto x = solver.solve(sys.b);
    const double err = nodal_max_error(mesh, sys, x, u);
    if (step > 0) {
      EXPECT_LT(err, 0.4 * prev_err);  // ~O(h^2)
    }
    prev_err = err;
    ++step;
  }
  EXPECT_LT(prev_err, 0.04);
}

TEST(Poisson, DirichletLift) {
  // Exact affine solution u = 1 + 2x reproduced exactly by Q1 elements.
  auto u = [](double x, double, double) { return 1.0 + 2.0 * x; };
  ScalarField g = u;
  const HexMesh mesh = HexMesh::box(3, 3, 3);
  const NodalSystem sys =
      assemble_poisson(mesh, 0.0, [](double, double, double) { return 0.0; },
                       &g);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(sys.a);
  solver.factor(dev);
  const auto x = solver.solve(sys.b);
  EXPECT_LT(nodal_max_error(mesh, sys, x, u), 1e-10);
}

TEST(Maxwell, GradientEnergyMatchesNodalStiffness) {
  // Cross-module identity: for any interior nodal function p, the Nédélec
  // interpolant of grad p (via the discrete gradient) satisfies
  //   (G p)^T M_edge (G p) == p^T K_nodal p  ( = ∫ |grad p_h|^2 ),
  // because the edge space contains gradients of the nodal space exactly.
  for (const HexMesh& mesh :
       {HexMesh::box(4, 4, 4), HexMesh::torus(8, 3, 3)}) {
    const EdgeSystem esys = assemble_maxwell(mesh, 1.0, VectorField{});
    const NodalSystem nsys = assemble_poisson(
        mesh, 0.0, [](double, double, double) { return 0.0; });
    std::vector<int> dof_of_vertex;
    const CsrMatrix g = discrete_gradient(mesh, esys, dof_of_vertex);
    // The two modules must agree on the interior-vertex dof numbering
    // count (both skip boundary vertices).
    Rng rng(8);
    std::vector<double> p(static_cast<std::size_t>(nsys.num_dofs));
    // Map: discrete_gradient numbers vertices in the same lattice order as
    // assemble_poisson, so the dof spaces coincide.
    for (auto& v : p) v = rng.uniform(-1, 1);
    std::vector<double> gp(static_cast<std::size_t>(esys.num_dofs));
    g.multiply(p.data(), gp.data());
    std::vector<double> mgp(gp.size());
    esys.mass.multiply(gp.data(), mgp.data());
    const double e_edge =
        std::inner_product(gp.begin(), gp.end(), mgp.begin(), 0.0);
    std::vector<double> kp(p.size());
    nsys.a.multiply(p.data(), kp.data());
    const double e_nodal =
        std::inner_product(p.begin(), p.end(), kp.begin(), 0.0);
    EXPECT_NEAR(e_edge, e_nodal, 1e-10 * std::abs(e_nodal));
  }
}

TEST(Maxwell, ExactSequenceCurlGradZero) {
  for (const HexMesh& mesh :
       {HexMesh::box(4, 3, 3), HexMesh::torus(8, 3, 3)}) {
    const EdgeSystem sys = assemble_maxwell(mesh, 2.0, VectorField{});
    std::vector<int> dof_of_vertex;
    const CsrMatrix g = discrete_gradient(mesh, sys, dof_of_vertex);
    int nv = 0;
    for (int d : dof_of_vertex) nv = std::max(nv, d + 1);
    ASSERT_GT(nv, 0);
    Rng rng(4);
    std::vector<double> p(static_cast<std::size_t>(nv));
    for (auto& v : p) v = rng.uniform(-1, 1);
    std::vector<double> gp(static_cast<std::size_t>(sys.num_dofs));
    g.multiply(p.data(), gp.data());
    std::vector<double> kgp(gp.size());
    sys.curl.multiply(gp.data(), kgp.data());
    for (double v : kgp) EXPECT_NEAR(v, 0.0, 1e-11);
  }
}

TEST(Maxwell, OperatorIsSymmetricIndefinite) {
  const HexMesh mesh = HexMesh::torus(12, 4, 4);
  const double omega = 8.0;
  const EdgeSystem sys =
      assemble_maxwell(mesh, omega, paper_maxwell_load(omega, omega / 1.05));
  // Symmetry.
  for (int i = 0; i < sys.num_dofs; i += 7)
    for (int k = sys.a.ptr()[static_cast<std::size_t>(i)];
         k < sys.a.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = sys.a.ind()[static_cast<std::size_t>(k)];
      EXPECT_NEAR(csr_entry(sys.a, i, j), csr_entry(sys.a, j, i),
                  1e-12);
    }
  // Indefiniteness witnesses: some unit vector has positive energy (the
  // curl term dominates for oscillatory modes), while any gradient field
  // has energy exactly -omega^2 |grad p|^2_M < 0 (curl grad = 0).
  bool pos_diag = false;
  for (int k = 0; k < sys.num_dofs; ++k)
    if (csr_entry(sys.a, k, k) > 0) pos_diag = true;
  EXPECT_TRUE(pos_diag);

  std::vector<int> dof_of_vertex;
  const CsrMatrix g = discrete_gradient(mesh, sys, dof_of_vertex);
  int nv = 0;
  for (int d : dof_of_vertex) nv = std::max(nv, d + 1);
  Rng rng(17);
  std::vector<double> p(static_cast<std::size_t>(nv));
  for (auto& v : p) v = rng.uniform(-1, 1);
  std::vector<double> gp(static_cast<std::size_t>(sys.num_dofs)),
      agp(static_cast<std::size_t>(sys.num_dofs));
  g.multiply(p.data(), gp.data());
  sys.a.multiply(gp.data(), agp.data());
  EXPECT_LT(std::inner_product(gp.begin(), gp.end(), agp.begin(), 0.0), 0.0);
}

TEST(Maxwell, EndToEndSolveOnTorus) {
  // The paper's §V-B pipeline in miniature: indefinite Maxwell on a torus,
  // factored with the batched multifrontal engine, one refinement step,
  // residual near machine precision.
  const HexMesh mesh = HexMesh::torus(12, 4, 4);
  const double omega = 6.0;
  const EdgeSystem sys =
      assemble_maxwell(mesh, omega, paper_maxwell_load(omega, omega / 1.05));
  ASSERT_GT(sys.num_dofs, 200);
  Device dev(DeviceModel::a100());
  SparseDirectSolver solver;
  solver.analyze(sys.a);
  solver.factor(dev);
  EXPECT_TRUE(solver.numeric().numerically_ok());
  const auto x = solver.solve(sys.b);
  EXPECT_LT(solver.residual(x, sys.b), 1e-12);
}

TEST(Maxwell, AllEnginesAgreeOnMaxwell) {
  const HexMesh mesh = HexMesh::torus(8, 2, 2);
  const double omega = 4.0;
  const EdgeSystem sys =
      assemble_maxwell(mesh, omega, paper_maxwell_load(omega, omega / 1.05));
  std::vector<std::vector<double>> sols;
  using irrlu::sparse::Engine;
  for (Engine e : {Engine::kBatched, Engine::kLooped,
                   Engine::kLegacySmallBatch, Engine::kRightLooking}) {
    Device dev(DeviceModel::a100());
    SolverOptions opts;
    opts.factor.engine = e;
    SparseDirectSolver solver(opts);
    solver.analyze(sys.a);
    solver.factor(dev);
    sols.push_back(solver.solve(sys.b));
  }
  for (std::size_t e = 1; e < sols.size(); ++e)
    for (std::size_t i = 0; i < sols[0].size(); ++i)
      EXPECT_NEAR(sols[e][i], sols[0][i], 1e-7);
}

TEST(HexMesh, EdgeIdDecodeRoundTrip) {
  for (const HexMesh& m : {HexMesh::box(3, 4, 2), HexMesh::torus(6, 2, 3)}) {
    for (int e = 0; e < m.num_edges(); ++e) {
      const auto [d, i, j, k] = m.edge_decode(e);
      EXPECT_EQ(m.edge_id(d, i, j, k), e);
    }
  }
}

TEST(HexMesh, EveryEdgeBelongsToSomeCell) {
  const HexMesh m = HexMesh::torus(5, 2, 2);
  std::vector<char> seen(static_cast<std::size_t>(m.num_edges()), 0);
  for (int ck = 0; ck < m.nz(); ++ck)
    for (int cj = 0; cj < m.ny(); ++cj)
      for (int ci = 0; ci < m.nx(); ++ci)
        for (int e : m.cell_edges(ci, cj, ck))
          seen[static_cast<std::size_t>(e)] = 1;
  for (char s : seen) EXPECT_TRUE(s);
}

TEST(Maxwell, LoadVectorMatchesPaperFormula) {
  const auto f = paper_maxwell_load(16.0, 16.0 / 1.05);
  const double kappa = 16.0 / 1.05;
  const double c = kappa * kappa - 256.0;
  const auto v = f(0.3, 0.7, 0.2);
  EXPECT_NEAR(v[0], c * std::sin(kappa * 0.7), 1e-12);
  EXPECT_NEAR(v[1], c * std::sin(kappa * 0.2), 1e-12);
  EXPECT_NEAR(v[2], c * std::sin(kappa * 0.3), 1e-12);
}

TEST(Maxwell, DofCountMatchesInteriorEdges) {
  const HexMesh mesh = HexMesh::torus(8, 3, 3);
  const EdgeSystem sys = assemble_maxwell(mesh, 4.0, VectorField{});
  int interior = 0;
  for (int e = 0; e < mesh.num_edges(); ++e)
    interior += !mesh.edge_on_boundary(e);
  EXPECT_EQ(sys.num_dofs, interior);
  // Each interior edge dof maps back consistently.
  for (int d = 0; d < sys.num_dofs; ++d)
    EXPECT_EQ(sys.dof_of_edge[static_cast<std::size_t>(
                  sys.edge_of_dof[static_cast<std::size_t>(d)])],
              d);
}
