// Solving an external system: reads a Matrix Market file (e.g. from the
// SuiteSparse collection), runs the full pipeline, and reports phase
// statistics — or, when no file is given, writes a demo .mtx first and
// then consumes it, so the example is runnable standalone.
//
//   build/examples/import_solve [path/to/matrix.mtx] [--engine batched|
//       looped|legacy|rightlooking] [--device a100|mi100|cpu]
#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "sparse/io.hpp"
#include "sparse/solver.hpp"

using namespace irrlu;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);

  std::string path;
  if (!args.positional().empty()) {
    path = args.positional()[0];
  } else {
    path = "/tmp/irrlu_demo.mtx";
    // An indefinite 3-D Helmholtz-like demo system.
    sparse::write_matrix_market_file(path,
                                     sparse::laplacian3d(9, 9, 9, -2.4));
    std::printf("no input given; wrote a demo system to %s\n", path.c_str());
  }

  const sparse::CsrMatrix a = sparse::read_matrix_market_file(path);
  std::printf("read %s: N = %d, nnz = %lld\n", path.c_str(), a.rows(),
              static_cast<long long>(a.nnz()));

  sparse::SolverOptions opts;
  const std::string engine = args.get_string("engine", "batched");
  opts.factor.engine =
      engine == "looped"
          ? sparse::Engine::kLooped
          : engine == "legacy"
                ? sparse::Engine::kLegacySmallBatch
                : engine == "rightlooking" ? sparse::Engine::kRightLooking
                                           : sparse::Engine::kBatched;
  opts.factor.memory = sparse::MemoryMode::kStackedLevels;

  // The device outlives the solver: the factor's buffers are freed into it.
  const std::string device = args.get_string("device", "a100");
  gpusim::Device dev(device == "mi100"
                         ? gpusim::DeviceModel::mi100()
                         : device == "cpu"
                               ? gpusim::DeviceModel::xeon6140x2()
                               : gpusim::DeviceModel::a100());
  sparse::SparseDirectSolver solver(opts);
  solver.analyze(a);
  solver.factor(dev);

  Rng rng(1);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto x = solver.solve(b);

  std::printf("engine %s on %s: factor %.4f sim-s (%ld launches, peak %.1f"
              " MB), residual %.2e\n",
              sparse::to_string(opts.factor.engine), dev.model().name.c_str(),
              solver.numeric().factor_seconds(),
              solver.numeric().launch_count(),
              solver.numeric().peak_device_bytes() / 1e6,
              solver.residual(x, b));
  return 0;
}
