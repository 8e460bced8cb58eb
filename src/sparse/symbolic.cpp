#include "sparse/symbolic.hpp"

#include <algorithm>
#include <numeric>

#include "irrblas/irr_kernels.hpp"
#include "lapack/flops.hpp"

namespace irrlu::sparse {

const char* to_string(MemoryMode m) {
  switch (m) {
    case MemoryMode::kAllUpfront: return "all-upfront";
    case MemoryMode::kStackedLevels: return "stacked-levels";
  }
  return "?";
}

namespace {

/// Sorted-union of two index vectors.
std::vector<int> merge_sorted(const std::vector<int>& a,
                              const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Positions of each element of `sub` within the front local index space:
/// front local indices are [0, s) for the separator range and s + k for
/// upd[k].
std::vector<int> local_positions(const Front& f, const std::vector<int>& sub) {
  std::vector<int> pos(sub.size());
  for (std::size_t i = 0; i < sub.size(); ++i) {
    const int g = sub[i];
    if (g >= f.sep_begin && g < f.sep_end) {
      pos[i] = g - f.sep_begin;
    } else {
      const auto it = std::lower_bound(f.upd.begin(), f.upd.end(), g);
      IRRLU_CHECK(it != f.upd.end() && *it == g);
      pos[i] = f.s() + static_cast<int>(it - f.upd.begin());
    }
  }
  return pos;
}

/// Shared finalization: parent maps, levels, and cost statistics. Assumes
/// fronts are in postorder with `children`/`parent` links set.
void finalize(SymbolicAnalysis& sym) {
  // Parent scatter maps (parents come after children in postorder).
  for (auto& f : sym.fronts)
    for (int c : f.children)
      sym.fronts[static_cast<std::size_t>(c)].parent_map =
          local_positions(f, sym.fronts[static_cast<std::size_t>(c)].upd);

  // Levels (depth from the roots) by a reverse sweep.
  int max_level = 0;
  for (std::size_t fi = sym.fronts.size(); fi-- > 0;) {
    Front& f = sym.fronts[fi];
    f.level = f.parent < 0
                  ? 0
                  : sym.fronts[static_cast<std::size_t>(f.parent)].level + 1;
    max_level = std::max(max_level, f.level);
  }
  sym.levels.assign(static_cast<std::size_t>(max_level) + 1, {});
  for (std::size_t fi = 0; fi < sym.fronts.size(); ++fi)
    sym.levels[static_cast<std::size_t>(sym.fronts[fi].level)].push_back(
        static_cast<int>(fi));

  for (const Front& f : sym.fronts) {
    const double s = f.s(), u = f.u();
    sym.factor_flops += irrlu::la::getrf_flops(f.s(), f.s()) +
                        2.0 * s * s * u + 2.0 * u * u * s;
    sym.factor_nnz += static_cast<std::int64_t>(f.s()) * f.dim() +
                      static_cast<std::int64_t>(f.u()) * f.s();
    sym.front_elems +=
        static_cast<std::int64_t>(f.dim()) * static_cast<std::int64_t>(f.dim());
    sym.max_front_dim = std::max(sym.max_front_dim, f.dim());
  }
}

}  // namespace

std::vector<std::size_t> SymbolicAnalysis::predicted_level_peak_bytes(
    MemoryMode mode, const std::vector<Precision>& level_prec) const {
  // Element width of one level's fronts (and its slice of the factor
  // store). Empty policy = uniform FP64, which reproduces the original
  // all-double inventory exactly (size_t arithmetic throughout).
  auto ebytes = [&](int lvl) {
    return level_prec.empty() ||
                   level_prec[static_cast<std::size_t>(lvl)] ==
                       Precision::kF64
               ? sizeof(double)
               : sizeof(float);
  };
  // Mirrors MultifrontalFactor's constructor allocation inventory for the
  // batched engine. Every quantity below is available from the tree
  // alone, so the prediction can steer a traversal plan before any
  // numeric allocation.
  //
  // FrontGroup descriptor footprint per member front: four double* block
  // pointers (F, F12, F21, F22), the per-front pivot pointer, five ints
  // (ld, s, u, info, boost count), and the two robustness scalars
  // (anorm, gmax).
  constexpr std::size_t kFrontDescriptorBytes =
      4 * sizeof(double*) + sizeof(int*) + 5 * sizeof(int) +
      2 * sizeof(double);

  // Tree-wide storage, live for the entire factorization: the compact
  // factor store + pivots, flattened update lists, assembly triples +
  // values (one entry per pattern nonzero), extend-add scatter maps, and
  // the per-stream irrLU workspaces.
  std::size_t fstore_bytes = 0, pivots = 0, upd_total = 0, scat_total = 0;
  for (const Front& f : fronts) {
    const auto s = static_cast<std::size_t>(f.s());
    const auto u = static_cast<std::size_t>(f.u());
    fstore_bytes += (s * s + 2 * s * u) * ebytes(f.level);
    pivots += s;
    upd_total += u;
    if (f.parent >= 0) scat_total += u;
  }
  int max_batch = 1;
  for (const auto& lv : levels)
    max_batch = std::max(max_batch, static_cast<int>(lv.size()));
  const std::size_t base =
      fstore_bytes + pivots * sizeof(int) +
      upd_total * sizeof(int) +
      3 * static_cast<std::size_t>(pattern_nnz) * sizeof(int) +
      static_cast<std::size_t>(pattern_nnz) * sizeof(double) +
      scat_total * sizeof(int) +
      static_cast<std::size_t>(max_batch) * sizeof(int) +
      laswp_workspace_ints(level_prec) * sizeof(int);

  // Per-level working-front bytes and descriptor bytes. Descriptors are
  // built as each level is reached and stay alive to the end, so they
  // accumulate from the deepest level upward.
  const std::size_t nl = levels.size();
  std::vector<std::size_t> front_bytes(nl, 0), desc_bytes(nl, 0);
  for (const Front& f : fronts) {
    const auto lvl = static_cast<std::size_t>(f.level);
    front_bytes[lvl] += static_cast<std::size_t>(f.dim()) *
                        static_cast<std::size_t>(f.dim()) * ebytes(f.level);
    desc_bytes[lvl] += kFrontDescriptorBytes;
  }
  const std::size_t total_front =
      std::accumulate(front_bytes.begin(), front_bytes.end(),
                      std::size_t{0});

  std::vector<std::size_t> out(nl, 0);
  std::size_t desc_cum = 0;
  for (std::size_t lvl = nl; lvl-- > 0;) {
    desc_cum += desc_bytes[lvl];
    if (mode == MemoryMode::kAllUpfront) {
      out[lvl] = base + total_front + desc_cum;
    } else {
      // Stacked discipline: while level lvl is factored, its fronts and
      // (until extend-add completes and the level is released) the child
      // level's fronts are both live.
      out[lvl] = base + front_bytes[lvl] +
                 (lvl + 1 < nl ? front_bytes[lvl + 1] : 0) + desc_cum;
    }
  }
  return out;
}

std::size_t SymbolicAnalysis::laswp_workspace_ints(
    const std::vector<Precision>& level_prec) const {
  // A front group is a subset of one level, so the level's size and
  // widest separator bound the group's need. FP32 groups factor with
  // 2 nb-column panels (DESIGN.md §14), and their U12 swap rehearses the
  // whole separator's pivot chain.
  const int nb = std::max(1, batch::IrrLuOptions{}.nb);
  std::size_t ints = batch::irr_laswp_workspace_size(1, nb);
  for (std::size_t l = 0; l < levels.size(); ++l) {
    int jb = nb;
    if (!level_prec.empty() && level_prec[l] == Precision::kF32) {
      jb = 2 * nb;
      for (int id : levels[l])
        jb = std::max(jb, fronts[static_cast<std::size_t>(id)].s());
    }
    ints = std::max(ints, batch::irr_laswp_workspace_size(
                              static_cast<int>(levels[l].size()), jb));
  }
  return ints;
}

std::size_t SymbolicAnalysis::predicted_peak_bytes(
    MemoryMode mode, const std::vector<Precision>& level_prec) const {
  const std::vector<std::size_t> per_level =
      predicted_level_peak_bytes(mode, level_prec);
  std::size_t peak = 0;
  for (std::size_t b : per_level) peak = std::max(peak, b);
  return peak;
}

SymbolicAnalysis SymbolicAnalysis::build(const CsrMatrix& a_perm,
                                         const ordering::Ordering& ord) {
  SymbolicAnalysis sym;
  const auto& tree = ord.tree;
  sym.fronts.resize(tree.size());
  sym.root = ord.root;
  sym.pattern_nnz = a_perm.nnz();

  // Symmetrized adjacency of the permuted pattern (fronts must cover both
  // (i, j) and (j, i)).
  const ordering::Graph g = ordering::Graph::from_pattern(
      a_perm.rows(), a_perm.ptr().data(), a_perm.ind().data());

  // Postorder guarantee: ordering::nested_dissection pushes children before
  // parents, so a forward sweep visits children first.
  for (std::size_t fi = 0; fi < tree.size(); ++fi) {
    Front& f = sym.fronts[fi];
    f.sep_begin = tree[fi].begin;
    f.sep_end = tree[fi].end;
    if (tree[fi].left >= 0) f.children.push_back(tree[fi].left);
    if (tree[fi].right >= 0) f.children.push_back(tree[fi].right);
    f.parent = tree[fi].parent;

    // Update set: neighbors of the separator beyond it, plus the children's
    // update sets minus what this front eliminates.
    std::vector<int> upd;
    for (int i = f.sep_begin; i < f.sep_end; ++i)
      for (int k = g.ptr()[static_cast<std::size_t>(i)];
           k < g.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
        const int j = g.adj()[static_cast<std::size_t>(k)];
        if (j >= f.sep_end) upd.push_back(j);
      }
    std::sort(upd.begin(), upd.end());
    upd.erase(std::unique(upd.begin(), upd.end()), upd.end());
    for (int child : f.children) {
      const auto& cu = sym.fronts[static_cast<std::size_t>(child)].upd;
      std::vector<int> keep;
      keep.reserve(cu.size());
      for (int j : cu)
        if (j >= f.sep_end) keep.push_back(j);
      upd = merge_sorted(upd, keep);
    }
    f.upd = std::move(upd);
  }
  finalize(sym);
  return sym;
}

}  // namespace irrlu::sparse
