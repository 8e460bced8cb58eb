// Size-dispatched kernel cache for the interleaved (SoA) batch layout
// (libxsmm idiom): the caller describes an operation by its shape key
// (op, m, n, k, layout, precision), the cache returns a resolved,
// size-specialized kernel handle — built once per key, reused for the
// process lifetime of the cache. DESIGN.md §12.
//
// KernelCache::resolve(key) is a hash lookup that builds the kernel on a
// miss; its hit/miss counters feed the tracer's dispatch.* counters. A
// solver owns one cache, so a same-pattern refactor builds no kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "lapack/microkernel_ilv.hpp"

namespace irrlu::batch {

/// Policy knobs for routing multifrontal leaf/small size classes through
/// the interleaved layout (consumed by the kBatched engine; see
/// DESIGN.md §12). Off by default: the strided path stays the reference
/// and the default simulated output is byte-identical with PR <= 7.
struct InterleavedOptions {
  bool enabled = false;
  /// Largest separator (s) and update (u) extent routed. The default is
  /// the measured crossover against the strided engine: the SoA
  /// microkernels win >= 2.6x at dims <= 12 on the host
  /// (BENCH_blas.json interleaved_* rows) and stay ahead in simulated
  /// device time through 16 once the level-wide descriptor group
  /// amortizes the allocations, while fronts in the 20-32 range cost
  /// more than they save on both clocks (BENCH_factor.json). Raising it
  /// is always *correct* — the engine additionally clamps to 32, above
  /// which the strided path switches to blocked/recursive algorithms
  /// whose operation order the interleaved kernels do not mirror, so the
  /// bitwise-identity contract would break.
  int max_class_dim = 16;
};

enum class MicroOp : std::uint8_t { kGemm, kTrsmLeft, kTrsmRight, kGetf2 };
enum class BatchLayout : std::uint8_t { kStrided, kInterleaved };
enum class MicroPrec : std::uint8_t { kF64, kF32 };

/// MicroPrec of a C++ element type (the typed launch wrappers key their
/// resolutions with this, so double callers keep the pre-existing keys).
template <typename T>
inline constexpr MicroPrec kMicroPrecOf = MicroPrec::kF64;
template <>
inline constexpr MicroPrec kMicroPrecOf<float> = MicroPrec::kF32;

/// Dispatch key: everything that selects a kernel body. `flags` carries
/// the trsm variant (bit 0: effective-lower triangle, bit 1: unit
/// diagonal) and is 0 for gemm/getf2.
struct KernelKey {
  MicroOp op = MicroOp::kGemm;
  int m = 0, n = 0, k = 0;
  BatchLayout layout = BatchLayout::kInterleaved;
  MicroPrec prec = MicroPrec::kF64;
  std::uint32_t flags = 0;

  friend bool operator==(const KernelKey&, const KernelKey&) = default;
};

inline KernelKey gemm_key(int m, int n, int k,
                          MicroPrec prec = MicroPrec::kF64) {
  KernelKey key;
  key.op = MicroOp::kGemm;
  key.m = m;
  key.n = n;
  key.k = k;
  key.prec = prec;
  return key;
}

inline KernelKey trsm_key(bool left, bool lower, bool unit, int m, int n,
                          MicroPrec prec = MicroPrec::kF64) {
  KernelKey key;
  key.op = left ? MicroOp::kTrsmLeft : MicroOp::kTrsmRight;
  key.m = m;
  key.n = n;
  key.flags = (lower ? 1u : 0u) | (unit ? 2u : 0u);
  key.prec = prec;
  return key;
}

inline KernelKey getf2_key(int m, int n,
                          MicroPrec prec = MicroPrec::kF64) {
  KernelKey key;
  key.op = MicroOp::kGetf2;
  key.m = m;
  key.n = n;
  key.prec = prec;
  return key;
}

struct KernelKeyHash {
  std::size_t operator()(const KernelKey& key) const {
    // FNV-1a over the key fields (same idiom as CsrMatrix::pattern_hash).
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(key.op));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.m)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.n)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.k)));
    mix(static_cast<std::uint64_t>(key.layout));
    mix(static_cast<std::uint64_t>(key.prec));
    mix(key.flags);
    return static_cast<std::size_t>(h);
  }
};

/// Kernel registry keyed by KernelKey. Returned pointers are stable for
/// the cache's lifetime (kernels are held by unique_ptr), so launch
/// descriptors may retain them.
class KernelCache {
 public:
  struct Stats {
    long hits = 0;    ///< hash lookups that found a built kernel
    long misses = 0;  ///< lookups that had to build one
  };

  /// Returns the kernel for `key`, building it on first use.
  const la::mk::ilv::Kernel* resolve(const KernelKey& key);

  const Stats& stats() const { return stats_; }
  std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<KernelKey, std::unique_ptr<la::mk::ilv::Kernel>,
                     KernelKeyHash>
      map_;
  Stats stats_;
};

}  // namespace irrlu::batch
