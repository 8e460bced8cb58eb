// Mixed-precision factorization policy (DESIGN.md §14): the storage /
// arithmetic precision of each assembly-tree level, and the policy that
// selects it. Classic LU-IR (the paper's §VI outlook): factor in FP32 to
// halve the bytes every front moves and double the microkernel rate, then
// recover FP64 accuracy through the adaptive refinement loop; fronts near
// the root — where pivot growth compounds and the Schur updates aggregate
// the whole tree — may stay in FP64 under the adaptive policy.
//
// The level -> precision mapping is a pure function shared by the numeric
// driver and the symbolic peak-bytes predictor so the two can never
// disagree about which fronts are single precision.
#pragma once

#include <cstddef>
#include <cstring>

namespace irrlu::sparse {

/// Storage/arithmetic precision of one front (and so of one tree level:
/// every batch group the engines form is within a single level).
enum class Precision { kF64, kF32 };

/// Factorization-wide precision policy.
enum class PrecisionPolicy {
  kF64,       ///< everything double — the reference path, bit-identical
              ///< to the pre-mixed-precision solver
  kF32,       ///< every front single precision (uniform LU-IR)
  kAdaptive,  ///< FP64 on the root path (levels < kAdaptiveRootLevels),
              ///< FP32 on the deeper levels where fronts are small and
              ///< numerous
};

/// kAdaptive: number of levels from the root (level 0) kept in FP64.
inline constexpr int kAdaptiveRootLevels = 2;

const char* to_string(PrecisionPolicy p);

/// Inverse of to_string(PrecisionPolicy) for CLI flags ("f64" | "f32" |
/// "adaptive"); returns false on unknown names, leaving `out` untouched.
inline bool policy_from_string(const char* s, PrecisionPolicy& out) {
  if (std::strcmp(s, "f64") == 0) out = PrecisionPolicy::kF64;
  else if (std::strcmp(s, "f32") == 0) out = PrecisionPolicy::kF32;
  else if (std::strcmp(s, "adaptive") == 0) out = PrecisionPolicy::kAdaptive;
  else return false;
  return true;
}

inline std::size_t elem_bytes(Precision p) {
  return p == Precision::kF32 ? sizeof(float) : sizeof(double);
}

/// The shared level -> precision oracle. `level` is the assembly-tree
/// level (0 = root).
inline Precision level_precision(PrecisionPolicy policy, int level) {
  switch (policy) {
    case PrecisionPolicy::kF64:
      return Precision::kF64;
    case PrecisionPolicy::kF32:
      return Precision::kF32;
    case PrecisionPolicy::kAdaptive:
      return level < kAdaptiveRootLevels ? Precision::kF64
                                         : Precision::kF32;
  }
  return Precision::kF64;
}

}  // namespace irrlu::sparse
