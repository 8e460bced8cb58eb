// Symbolic multifrontal analysis (§III-A): turns the nested-dissection
// separator tree into an assembly tree of *fronts*. Each front owns the
// separator vertices it eliminates (the s x s pivot block F11) plus the
// update variables it touches in ancestor separators (the Schur complement
// dimension u). Fronts at the same tree level are independent and are
// factored as one irregular batch — the paper's core workload.
#pragma once

#include <cstdint>
#include <vector>

#include "ordering/nested_dissection.hpp"
#include "sparse/csr.hpp"
#include "sparse/precision.hpp"

namespace irrlu::sparse {

/// Working-front memory discipline of the numeric factorization (see
/// multifrontal.hpp). Lives here so the symbolic phase can predict the
/// peak footprint of either discipline before any numeric allocation.
enum class MemoryMode {
  kAllUpfront,
  kStackedLevels,  ///< batched engine only; others fall back to upfront
};

const char* to_string(MemoryMode m);

struct Front {
  int sep_begin = 0, sep_end = 0;  ///< eliminated (new-order) range
  std::vector<int> upd;  ///< update variables (new-order indices, sorted)
  std::vector<int> children;  ///< child front ids (any arity)
  int parent = -1;
  int level = 0;  ///< depth from the root (root = level 0, as in Fig. 13)

  int s() const { return sep_end - sep_begin; }
  int u() const { return static_cast<int>(upd.size()); }
  int dim() const { return s() + u(); }

  /// Positions of *this* front's update variables inside the parent's
  /// local index space [0, parent.dim) — the extend-add scatter map.
  std::vector<int> parent_map;
};

struct SymbolicAnalysis {
  std::vector<Front> fronts;  ///< postorder: children precede parents
  int root = -1;  ///< last tree root (-1 only for empty problems)
  /// levels[d] = front ids at depth d (levels[0] = the roots).
  std::vector<std::vector<int>> levels;

  double factor_flops = 0;       ///< dense-front operation count
  std::int64_t factor_nnz = 0;   ///< entries of L+U kept for the solve
  std::int64_t front_elems = 0;  ///< total front storage (elements)
  int max_front_dim = 0;
  std::int64_t pattern_nnz = 0;  ///< nnz of the analyzed matrix pattern

  /// Predicted peak device bytes of the numeric factorization, per level,
  /// from the tree alone (front store + factor store + update stacks +
  /// pivot arrays + assembly triples + batch descriptors + workspaces),
  /// for the batched engine.
  /// Entry [lvl] is the footprint while level lvl is being factored;
  /// kAllUpfront is exact for every engine (the non-batched engines force
  /// that mode), kStackedLevels models the two-adjacent-levels window.
  std::vector<std::size_t> predicted_level_peak_bytes(MemoryMode mode) const;
  /// Maximum of predicted_level_peak_bytes over all levels — the global
  /// predicted peak, comparable to FactorReport::measured_peak_bytes.
  std::size_t predicted_peak_bytes(MemoryMode mode) const;
  /// Precision-aware variants: `level_prec[lvl]` is the element precision
  /// of level lvl's fronts (FP32 levels store and stage at half width).
  /// An empty vector means all-FP64; the all-FP64 result is identical to
  /// the two-argument overloads, byte for byte.
  std::vector<std::size_t> predicted_level_peak_bytes(
      MemoryMode mode, const std::vector<Precision>& level_prec) const;
  std::size_t predicted_peak_bytes(
      MemoryMode mode, const std::vector<Precision>& level_prec) const;

  /// Builds the analysis from the permuted matrix's *pattern* (the matrix
  /// must already be in nested-dissection order) and the separator tree.
  static SymbolicAnalysis build(const CsrMatrix& a_perm,
                                const ordering::Ordering& ord);
};

}  // namespace irrlu::sparse
