// Helpers shared by the test suites: a scoped host-thread count and CSR
// entry lookup.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "sparse/csr.hpp"

namespace irrlu::test {

/// Sets IRRLU_HOST_THREADS, the host-thread count of every Device built
/// and every nested dissection run, for one scope; restores the previous
/// value, or its absence, on exit.
class ScopedHostThreads {
 public:
  explicit ScopedHostThreads(int threads) {
    if (const char* old = std::getenv(kVar)) saved_ = old;
    setenv(kVar, std::to_string(threads).c_str(), 1);
  }
  ~ScopedHostThreads() {
    if (saved_)
      setenv(kVar, saved_->c_str(), 1);
    else
      unsetenv(kVar);
  }
  ScopedHostThreads(const ScopedHostThreads&) = delete;
  ScopedHostThreads& operator=(const ScopedHostThreads&) = delete;

 private:
  static constexpr const char* kVar = "IRRLU_HOST_THREADS";
  std::optional<std::string> saved_;
};

/// Entry (i, j) of a CSR matrix with sorted rows; 0 if not stored.
inline double csr_entry(const sparse::CsrMatrix& a, int i, int j) {
  const auto lo = a.ind().begin() + a.ptr()[static_cast<std::size_t>(i)];
  const auto hi = a.ind().begin() + a.ptr()[static_cast<std::size_t>(i) + 1];
  const auto it = std::lower_bound(lo, hi, j);
  return it != hi && *it == j
             ? a.val()[static_cast<std::size_t>(it - a.ind().begin())]
             : 0.0;
}

}  // namespace irrlu::test
