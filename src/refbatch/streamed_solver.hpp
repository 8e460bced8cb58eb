// Baseline: per-matrix factorizations dispatched into parallel streams —
// the cuSOLVER/rocSOLVER-in-16-streams reference of the paper's Figures 10
// and 11. Each matrix gets its own sequence of kernel launches (sized for
// that matrix alone), round-robined over a configurable number of streams.
// For large batches of small matrices the host-serialized dispatch drowns
// the device in launch overhead; for a handful of huge matrices the
// per-matrix kernels use the whole device and win — both effects the paper
// measures.
#pragma once

#include <vector>

#include "gpusim/device.hpp"
#include "irrblas/irr_kernels.hpp"

namespace irrlu::refbatch {

struct StreamedOptions {
  int num_streams = 16;  ///< the paper's default
};

/// Factors every matrix of the batch independently: matrix i runs as a
/// chain of launches on stream (i mod num_streams). `m_sizes`/`n_sizes`
/// are host-side copies of the dimensions (a per-matrix solver needs them
/// on the host — exactly the asymmetry the irregular-batch interface
/// removes). Device arrays follow the usual conventions.
template <typename T>
void streamed_getrf(gpusim::Device& dev, const std::vector<int>& m_sizes,
                    const std::vector<int>& n_sizes, T* const* dA_array,
                    const int* ldda, int* const* ipiv_array, int* info_array,
                    const StreamedOptions& opts = {});

}  // namespace irrlu::refbatch
