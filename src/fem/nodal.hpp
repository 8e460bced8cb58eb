// Lowest-order nodal (Q1) finite elements on hex meshes: assembly of
// stiffness + mass operators for Poisson / Helmholtz model problems, with
// Dirichlet elimination. Only the tests use it, as a well-understood
// verification vehicle (manufactured-solution convergence) for the mesh
// and quadrature machinery that the Maxwell assembly shares.
#pragma once

#include <functional>
#include <vector>

#include "fem/mesh.hpp"
#include "sparse/csr.hpp"

namespace irrlu::fem {

using ScalarField = std::function<double(double, double, double)>;

struct NodalSystem {
  sparse::CsrMatrix a;     ///< stiffness - shift * mass, interior dofs
  std::vector<double> b;   ///< load vector (with BC lift applied)
  std::vector<int> dof_of_vertex;  ///< -1 for Dirichlet vertices
  std::vector<int> vertex_of_dof;
  int num_dofs = 0;
};

/// Assembles -div(grad u) - shift * u = f with Dirichlet data g on the
/// boundary (g may be null for homogeneous conditions).
NodalSystem assemble_poisson(const HexMesh& mesh, double shift,
                             const ScalarField& f,
                             const ScalarField* g = nullptr);

/// Q1 interpolation error ||u_h - u||_inf over interior vertices.
double nodal_max_error(const HexMesh& mesh, const NodalSystem& sys,
                       const std::vector<double>& u_h, const ScalarField& u);

}  // namespace irrlu::fem
