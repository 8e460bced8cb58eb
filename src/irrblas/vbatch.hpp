// VBatch: host-side owner of a non-uniform batch of column-major matrices
// living in (simulated) device memory, together with the device-resident
// pointer and dimension arrays the flat irregular-batch interface consumes.
//
// This is a convenience container: the irr* kernels themselves take the flat
// argument lists of the paper's Figure 3 (pointer arrays + lda vectors +
// local-dimension vectors + offsets) and can be driven from any storage.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/matrix_view.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"

namespace irrlu::batch {

template <typename T>
class VBatch {
 public:
  /// Allocates a batch with per-matrix sizes (m_vec[i] x n_vec[i]); each
  /// matrix is stored with ld == m_vec[i] inside one contiguous device
  /// buffer. Zero-sized matrices are legal.
  VBatch(gpusim::Device& dev, std::vector<int> m_vec, std::vector<int> n_vec)
      : dev_(&dev), m_(std::move(m_vec)), n_(std::move(n_vec)) {
    IRRLU_CHECK(m_.size() == n_.size());
    const int bs = static_cast<int>(m_.size());
    std::size_t total = 0;
    offsets_.resize(m_.size());
    for (int i = 0; i < bs; ++i) {
      IRRLU_CHECK(m_[i] >= 0 && n_[i] >= 0);
      offsets_[i] = total;
      total += static_cast<std::size_t>(m_[i]) * n_[i];
    }
    storage_ = dev.alloc<T>(total);
    ptrs_ = dev.alloc<T*>(m_.size());
    lda_ = dev.alloc<int>(m_.size());
    dm_ = dev.alloc<int>(m_.size());
    dn_ = dev.alloc<int>(m_.size());
    for (int i = 0; i < bs; ++i) {
      ptrs_[i] = storage_.data() + offsets_[i];
      lda_[i] = m_[i] > 0 ? m_[i] : 1;
      dm_[i] = m_[i];
      dn_[i] = n_[i];
    }
  }

  /// Square batch.
  VBatch(gpusim::Device& dev, const std::vector<int>& n_vec)
      : VBatch(dev, n_vec, n_vec) {}

  int batch_size() const { return static_cast<int>(m_.size()); }

  /// Device array of matrix base pointers (the `Aarray` of the interface).
  T* const* ptrs() const { return ptrs_.data(); }
  /// Device array of leading dimensions.
  const int* lda() const { return lda_.data(); }
  /// Device arrays of local dimensions.
  const int* m_vec() const { return dm_.data(); }
  const int* n_vec() const { return dn_.data(); }

  int m_of(int i) const { return m_[i]; }
  int n_of(int i) const { return n_[i]; }

  int max_m() const { return max_of(m_); }
  int max_n() const { return max_of(n_); }
  /// max_i min(m_i, n_i): the factorization depth of the largest workload.
  int max_min_mn() const {
    int r = 0;
    for (std::size_t i = 0; i < m_.size(); ++i)
      r = std::max(r, std::min(m_[i], n_[i]));
    return r;
  }

  /// Host-side view of matrix i (device memory is host-visible in the
  /// simulator; used by tests and verification only).
  MatrixView<T> view(int i) {
    return MatrixView<T>(ptrs_[i], m_[i], n_[i], lda_[i]);
  }
  ConstMatrixView<T> view(int i) const {
    return ConstMatrixView<T>(ptrs_[i], m_[i], n_[i], lda_[i]);
  }

  /// Fills every matrix with uniform random entries.
  void fill_uniform(Rng& rng, T lo = T(-1), T hi = T(1)) {
    for (int i = 0; i < batch_size(); ++i) rng.fill_uniform(view(i), lo, hi);
  }

  /// Copies matrix contents (sizes must match).
  void copy_from(const VBatch& other) {
    IRRLU_CHECK(batch_size() == other.batch_size());
    for (int i = 0; i < batch_size(); ++i) {
      IRRLU_CHECK(m_[i] == other.m_[i] && n_[i] == other.n_[i]);
      auto dst = view(i);
      auto src = other.view(i);
      for (int j = 0; j < dst.cols(); ++j)
        for (int r = 0; r < dst.rows(); ++r) dst(r, j) = src(r, j);
    }
  }

  gpusim::Device& device() const { return *dev_; }

 private:
  static int max_of(const std::vector<int>& v) {
    int r = 0;
    for (int x : v) r = std::max(r, x);
    return r;
  }

  gpusim::Device* dev_;
  std::vector<int> m_, n_;
  std::vector<std::size_t> offsets_;
  gpusim::DeviceBuffer<T> storage_;
  gpusim::DeviceBuffer<T*> ptrs_;
  gpusim::DeviceBuffer<int> lda_, dm_, dn_;
};

/// Per-matrix scalar-factor storage (tau for QR): tau_array[i] points to
/// min(m_i, n_i) elements.
template <typename T>
class TauBatch {
 public:
  TauBatch(gpusim::Device& dev, const std::vector<int>& m_vec,
           const std::vector<int>& n_vec) {
    IRRLU_CHECK(m_vec.size() == n_vec.size());
    std::size_t total = 0;
    std::vector<std::size_t> off(m_vec.size());
    for (std::size_t i = 0; i < m_vec.size(); ++i) {
      off[i] = total;
      total += static_cast<std::size_t>(
          std::max(0, std::min(m_vec[i], n_vec[i])));
    }
    storage_ = dev.alloc<T>(total);
    ptrs_ = dev.alloc<T*>(m_vec.size());
    for (std::size_t i = 0; i < m_vec.size(); ++i)
      ptrs_[i] = storage_.data() + off[i];
  }

  T* const* ptrs() const { return ptrs_.data(); }
  const T* tau_of(int i) const { return ptrs_[i]; }

 private:
  gpusim::DeviceBuffer<T> storage_;
  gpusim::DeviceBuffer<T*> ptrs_;
};

/// Per-matrix pivot storage for a batched LU: ipiv_array[i] points to
/// min(m_i, n_i) ints; info_array[i] receives the LAPACK-style status.
class PivotBatch {
 public:
  PivotBatch(gpusim::Device& dev, const std::vector<int>& m_vec,
             const std::vector<int>& n_vec) {
    IRRLU_CHECK(m_vec.size() == n_vec.size());
    std::size_t total = 0;
    std::vector<std::size_t> off(m_vec.size());
    for (std::size_t i = 0; i < m_vec.size(); ++i) {
      off[i] = total;
      total += static_cast<std::size_t>(
          std::max(0, std::min(m_vec[i], n_vec[i])));
    }
    storage_ = dev.alloc<int>(total);
    ptrs_ = dev.alloc<int*>(m_vec.size());
    info_ = dev.alloc<int>(m_vec.size());
    for (std::size_t i = 0; i < m_vec.size(); ++i) {
      ptrs_[i] = storage_.data() + off[i];
      info_[i] = 0;
    }
    for (std::size_t i = 0; i < total; ++i) storage_[i] = -1;
  }

  int* const* ptrs() const { return ptrs_.data(); }
  int* info() const { return info_.data(); }
  const int* ipiv_of(int i) const { return ptrs_[i]; }

 private:
  gpusim::DeviceBuffer<int> storage_;
  gpusim::DeviceBuffer<int*> ptrs_;
  gpusim::DeviceBuffer<int> info_;
};

}  // namespace irrlu::batch
