#include "sparse/multifrontal.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>

#include "lapack/blas.hpp"
#include "lapack/flops.hpp"
#include "lapack/lapack.hpp"
#include "trace/trace.hpp"

namespace irrlu::sparse {

const char* to_string(Engine e) {
  switch (e) {
    case Engine::kBatched: return "irr-batched";
    case Engine::kLooped: return "naive-loop";
    case Engine::kLegacySmallBatch: return "legacy-small-batch";
    case Engine::kRightLooking: return "right-looking";
  }
  return "?";
}

const char* to_string(PrecisionPolicy p) {
  switch (p) {
    case PrecisionPolicy::kF64: return "f64";
    case PrecisionPolicy::kF32: return "f32";
    case PrecisionPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

namespace {

/// Calls f with a value of precision p's element type (double or float):
/// the one precision switch every typed factorization stage goes through.
template <typename F>
void with_type(Precision p, F&& f) {
  if (p == Precision::kF32)
    f(float{});
  else
    f(double{});
}

/// The "level=N" trace scope of one assembly-tree level (free without a
/// tracer).
trace::TraceScope level_scope(gpusim::Device& dev, int lvl) {
  return {dev.tracer(),
          dev.tracer() ? "level=" + std::to_string(lvl) : std::string()};
}

/// Trace label bucketing a front group by its largest front dimension —
/// the paper's front-size classes (Fig. 13/14). Groups are formed per
/// level, so the largest member characterizes the batch.
const char* front_class(const std::vector<int>& ids,
                        const SymbolicAnalysis& sym) {
  int dmax = 0;
  for (int id : ids)
    dmax = std::max(dmax, sym.fronts[static_cast<std::size_t>(id)].dim());
  if (dmax < 32) return "fronts<32";
  if (dmax < 128) return "fronts<128";
  if (dmax < 512) return "fronts<512";
  return "fronts>=512";
}

/// Working storage for the square fronts, in either memory discipline.
/// base<T>(f) is valid while f's level is live; each level's buffer is
/// allocated in that level's policy-selected precision (double or float —
/// FP32 levels hold half the bytes, the mixed-precision point).
class FrontStorage {
 public:
  FrontStorage(gpusim::Device& dev, const SymbolicAnalysis& sym,
               MemoryMode mode, const std::vector<Precision>& level_prec)
      : dev_(dev), sym_(sym), mode_(mode), level_prec_(level_prec) {
    const auto nf = sym.fronts.size();
    offset_.resize(nf);
    level_elems_.assign(sym.levels.size(), 0);
    std::vector<std::size_t> level_fill(sym.levels.size(), 0);
    for (std::size_t fi = 0; fi < nf; ++fi) {
      const auto lvl = static_cast<std::size_t>(sym.fronts[fi].level);
      const auto elems = static_cast<std::size_t>(sym.fronts[fi].dim()) *
                         static_cast<std::size_t>(sym.fronts[fi].dim());
      offset_[fi] = level_fill[lvl];
      level_fill[lvl] += elems;
      level_elems_[lvl] += elems;
    }
    buffers_.resize(sym.levels.size());
    buffers_f_.resize(sym.levels.size());
    if (mode_ == MemoryMode::kAllUpfront)
      for (std::size_t lvl = 0; lvl < buffers_.size(); ++lvl) {
        // Upfront allocations carry the same level=N tag the stacked
        // discipline gets from the engine's per-level scopes.
        const trace::TraceScope scope =
            level_scope(dev, static_cast<int>(lvl));
        ensure_level(static_cast<int>(lvl));
      }
  }

  void ensure_level(int lvl) {
    const auto l = static_cast<std::size_t>(lvl);
    if (level_elems_[l] == 0) return;
    if (level_prec_[l] == Precision::kF32) {
      if (buffers_f_[l].data() == nullptr) {
        IRRLU_TRACE_SCOPE(dev_.tracer(), "front-store");
        buffers_f_[l] = dev_.alloc<float>(level_elems_[l]);
      }
    } else if (buffers_[l].data() == nullptr) {
      IRRLU_TRACE_SCOPE(dev_.tracer(), "front-store");
      buffers_[l] = dev_.alloc<double>(level_elems_[l]);
    }
  }

  void release_level(int lvl) {
    if (mode_ == MemoryMode::kStackedLevels) {
      buffers_[static_cast<std::size_t>(lvl)].release();
      buffers_f_[static_cast<std::size_t>(lvl)].release();
    }
  }

  template <typename T>
  T* base(int f) const {
    const auto lvl =
        static_cast<std::size_t>(sym_.fronts[static_cast<std::size_t>(f)]
                                     .level);
    if constexpr (std::is_same_v<T, float>) {
      IRRLU_DEBUG_ASSERT(buffers_f_[lvl].data() != nullptr ||
                         offset_[static_cast<std::size_t>(f)] == 0);
      return buffers_f_[lvl].data() + offset_[static_cast<std::size_t>(f)];
    } else {
      IRRLU_DEBUG_ASSERT(buffers_[lvl].data() != nullptr ||
                         offset_[static_cast<std::size_t>(f)] == 0);
      return buffers_[lvl].data() + offset_[static_cast<std::size_t>(f)];
    }
  }

 private:
  gpusim::Device& dev_;
  const SymbolicAnalysis& sym_;
  MemoryMode mode_;
  std::vector<Precision> level_prec_;     ///< per-level precision
  std::vector<std::size_t> offset_;       ///< within the level buffer
  std::vector<std::size_t> level_elems_;  ///< elements per level
  std::vector<gpusim::DeviceBuffer<double>> buffers_;
  std::vector<gpusim::DeviceBuffer<float>> buffers_f_;
};

/// Per-front pointers to F, F12, F21 and F22 in a group's element type.
template <typename T>
struct FrontPointers {
  gpusim::DeviceBuffer<T*> f, f12, f21, f22;
};

/// Device-resident descriptor arrays for a group of fronts (the per-level
/// setup STRUMPACK performs once per batch; not per computational step).
struct FrontGroup {
  int count = 0;
  int smax = 0, umax = 0;
  /// Figure-14 hybrid: fronts [0, lead) run their Schur GEMM as one batch
  /// (extents lead_smax, lead_umax); each front from `lead` on runs it as
  /// its own batch-1 launch. Every other stage batches all `count` fronts.
  int lead = 0;
  int lead_smax = 0, lead_umax = 0;
  Precision prec = Precision::kF64;
  std::vector<int> ids;
  /// Only the group precision's pointer arrays exist, so the pure-FP64
  /// allocation sequence is that of the single-precision-free code.
  std::variant<FrontPointers<double>, FrontPointers<float>> fronts;
  gpusim::DeviceBuffer<int> ld, svec, uvec;
  gpusim::DeviceBuffer<int*> ipiv;
  gpusim::DeviceBuffer<int> info;
  /// Robustness diagnostics (filled only when pivot_tau > 0): pre-factor
  /// max-magnitude front norm (the boost reference), boosted-pivot count,
  /// and post-factor max magnitude (for the growth estimate). Host-zeroed
  /// here because fronts skipped by a kernel's DCWI early return must read
  /// as "no events", not as uninitialized device memory, and because the
  /// norm and growth panels fold into the extrema by atomic max. The
  /// extrema stay double regardless of the group's factor precision.
  gpusim::DeviceBuffer<double> anorm, gmax;
  gpusim::DeviceBuffer<int> boost;

  FrontGroup(gpusim::Device& dev, const SymbolicAnalysis& sym,
             const std::vector<int>& group_ids, const FrontStorage& storage,
             const std::vector<std::size_t>& ipiv_offset, int* ipiv_storage,
             Precision group_prec, int looped_gemms)
      : prec(group_prec), ids(group_ids) {
    count = static_cast<int>(ids.size());
    lead = count - looped_gemms;
    const auto n = static_cast<std::size_t>(count);
    // Descriptor allocations tagged by the batch's front-size class (under
    // the engine's level=N scope).
    IRRLU_TRACE_SCOPE(dev.tracer(),
                      dev.tracer() ? front_class(ids, sym) : "");
    with_type(prec, [&]<typename T>(T) {
      auto& p = fronts.emplace<FrontPointers<T>>();
      p.f = dev.alloc<T*>(n);
      p.f12 = dev.alloc<T*>(n);
      p.f21 = dev.alloc<T*>(n);
      p.f22 = dev.alloc<T*>(n);
      for (std::size_t k = 0; k < n; ++k) {
        const Front& fr = sym.fronts[static_cast<std::size_t>(ids[k])];
        const std::ptrdiff_t s = fr.s(), d = fr.dim();
        T* base = storage.base<T>(ids[k]);
        p.f[k] = base;
        p.f12[k] = base + s * d;
        p.f21[k] = base + s;
        p.f22[k] = base + s * d + s;
      }
    });
    ld = dev.alloc<int>(n);
    svec = dev.alloc<int>(n);
    uvec = dev.alloc<int>(n);
    ipiv = dev.alloc<int*>(n);
    info = dev.alloc<int>(n);
    anorm = dev.alloc<double>(n);
    gmax = dev.alloc<double>(n);
    boost = dev.alloc<int>(n);
    for (std::size_t k = 0; k < n; ++k) {
      const Front& fr = sym.fronts[static_cast<std::size_t>(ids[k])];
      const int d = fr.dim();
      const int s = fr.s();
      anorm[k] = 0.0;
      gmax[k] = 0.0;
      boost[k] = 0;
      ld[k] = d > 0 ? d : 1;
      svec[k] = s;
      uvec[k] = fr.u();
      ipiv[k] = ipiv_storage + ipiv_offset[static_cast<std::size_t>(ids[k])];
      info[k] = 0;
      smax = std::max(smax, s);
      umax = std::max(umax, fr.u());
      if (static_cast<int>(k) < lead) {
        lead_smax = std::max(lead_smax, s);
        lead_umax = std::max(lead_umax, fr.u());
      }
    }
  }

  template <typename T>
  const FrontPointers<T>& ptr() const {
    return std::get<FrontPointers<T>>(fronts);
  }
};

/// Calls f(c0, c1) for every kColumnPanel-column panel [c0, c1) of
/// `cols` columns (none when cols <= 0). The panelled data-movement
/// stages build their block lists from it on the host and launch exactly
/// those blocks: a large front spreads over many SMs, and no block of the
/// grid sits idle (the model shares a wave's bandwidth among all of its
/// blocks, exiting ones included).
template <typename F>
void for_each_panel(int cols, F&& f) {
  for (int c0 = 0; c0 < cols; c0 += batch::kColumnPanel)
    f(c0, std::min(cols, c0 + batch::kColumnPanel));
}

/// max |F(r, c)| over the rows x cols column-major block at F — the front
/// norm and growth reduction. Four running maxima make the scan
/// throughput-bound instead of latency-bound (~3.5x on one core). The
/// result is bitwise the one-accumulator scan: max is exact and
/// order-free, and a NaN entry never wins std::max against the running
/// value.
template <typename T>
double block_absmax(const T* F, int rows, int cols, int ld) {
  double m[4] = {0, 0, 0, 0};
  for (int c = 0; c < cols; ++c) {
    const T* col = F + static_cast<std::ptrdiff_t>(c) * ld;
    int r = 0;
    for (; r + 4 <= rows; r += 4)
      for (int k = 0; k < 4; ++k)
        m[k] = std::max(m[k], std::abs(static_cast<double>(col[r + k])));
    for (; r < rows; ++r)
      m[0] = std::max(m[0], std::abs(static_cast<double>(col[r])));
  }
  return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

/// out = max(out, v) for v >= 0 (never NaN), safe against the concurrent
/// blocks of one launch: max is exact and order-free, so the panels of a
/// front combine to bitwise the whole-front scan.
void atomic_max(double& out, double v) {
  std::atomic_ref<double> ref(out);
  double cur = ref.load();
  while (v > cur && !ref.compare_exchange_weak(cur, v)) {
  }
}

/// Per-thread staging of the device solve's kernel blocks (the blocks of
/// an independent launch may run on different host threads): an FP32
/// front's widened factor blocks (host_blocks) and the update-row vector.
struct SolveScratch {
  std::vector<double> blocks, tmp;
  double* vec(std::size_t n) {
    if (tmp.size() < n) tmp.resize(n);
    return tmp.data();
  }
};

SolveScratch& solve_scratch() {
  thread_local SolveScratch s;
  return s;
}

/// Mirrors a factorization's diagnostics into the tracer's counters (the
/// summary JSON's "counters" object).
void trace_counters(trace::Tracer& tr, const FactorReport& r) {
  tr.add_counter("factor.boosted_pivots",
                 static_cast<double>(r.boosted_pivots));
  tr.add_counter("factor.zero_pivot_fronts",
                 static_cast<double>(r.zero_pivot_fronts));
  tr.max_counter("factor.pivot_growth_max", r.pivot_growth);
  tr.max_counter("memory.predicted_peak_bytes",
                 static_cast<double>(r.predicted_peak_bytes));
  tr.max_counter("memory.measured_peak_bytes",
                 static_cast<double>(r.measured_peak_bytes));
  // Precision counters only when the policy actually produced FP32
  // fronts, so default-policy traces (and fig10) are unchanged.
  if (r.fp32_fronts > 0) {
    tr.add_counter("factor.fp32_fronts", static_cast<double>(r.fp32_fronts));
    tr.add_counter("factor.fp64_fronts",
                   static_cast<double>(r.fronts - r.fp32_fronts));
    // Per-level precision (value = mantissa width class, 32 or 64;
    // index 0 = root) so the summary JSON records exactly which levels
    // the policy kept double — the counter mirror of
    // FactorReport::level_precision.
    char lvl_name[64];
    for (std::size_t l = 0; l < r.level_precision.size(); ++l) {
      std::snprintf(lvl_name, sizeof lvl_name,
                    "factor.level_precision.L%03zu", l);
      tr.max_counter(lvl_name,
                     r.level_precision[l] == Precision::kF32 ? 32.0 : 64.0);
    }
  }
}

}  // namespace

// ---- the factorization pipeline -----------------------------------------
//
// One factorization's device state and the stages the engine drivers
// compose. The constructor is the setup stage (owner map, assembly
// triples, scatter maps, workspaces); the four named stages are
// assemble, extend_add, factor_group and extract.
// Every stage that touches front values picks its element type through
// with_type(). Member order is allocation order, so destruction frees the
// device buffers in reverse: descriptor groups first, working fronts last.
class MultifrontalFactor::Pipeline {
 public:
  Pipeline(MultifrontalFactor& mf, const CsrMatrix& a, MemoryMode mode,
           const FactorOptions& opts);

  /// Runs the engine's driver over the whole assembly tree.
  void run(Engine engine);

  const std::vector<std::unique_ptr<FrontGroup>>& groups() const {
    return groups_;
  }

 private:
  void run_batched();
  void run_postorder(bool sync_each_front);
  void run_legacy_small_batch();

  void assemble(const std::vector<int>& ids);
  void extend_add(const std::vector<int>& ids);
  void factor_group(const FrontGroup& g);
  void extract(const std::vector<int>& ids);

  FrontGroup& make_group(const std::vector<int>& ids, int looped_gemms = 0);
  template <typename T>
  void front_absmax(const FrontGroup& g, double* out, const char* name);
  Precision prec_of(int front) const { return mf_.front_prec(front); }
  template <typename T>
  T* factor_store() const {
    if constexpr (std::is_same_v<T, float>)
      return mf_.factor_store_f_.data();
    else
      return mf_.factor_store_.data();
  }

  MultifrontalFactor& mf_;
  gpusim::Device& dev_;
  gpusim::Stream& stream_;
  const SymbolicAnalysis& sym_;
  const FactorOptions& opts_;
  /// Front f's assembly triples are [asm_start_[f], asm_start_[f + 1]) of
  /// d_rows_/d_cols_/d_aidx_; its scatter map into the parent starts at
  /// d_scat_[scat_start_[f]].
  std::vector<int> asm_start_, scat_start_;
  FrontStorage storage_;
  gpusim::DeviceBuffer<int> d_rows_, d_cols_, d_aidx_;
  gpusim::DeviceBuffer<double> d_aval_;
  gpusim::DeviceBuffer<int> d_scat_;
  gpusim::DeviceBuffer<int> kmin_ws_, laswp_ws_;
  batch::IrrLuOptions lu_;  ///< default irrLU options on the workspaces
  std::vector<std::unique_ptr<FrontGroup>> groups_;  ///< alive to the end
};

MultifrontalFactor::Pipeline::Pipeline(MultifrontalFactor& mf,
                                       const CsrMatrix& a, MemoryMode mode,
                                       const FactorOptions& opts)
    : mf_(mf),
      dev_(mf.dev_),
      stream_(mf.dev_.stream()),
      sym_(mf.sym_),
      opts_(opts),
      storage_(mf.dev_, mf.sym_, mode, mf.level_prec_) {
  const auto nf = sym_.fronts.size();
  const int n = a.rows();
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  for (std::size_t fi = 0; fi < nf; ++fi)
    for (int g = sym_.fronts[fi].sep_begin; g < sym_.fronts[fi].sep_end; ++g)
      owner[static_cast<std::size_t>(g)] = static_cast<int>(fi);

  // Flattened (front -> entries) assembly triples, CSR-style: asm_start_
  // segments d_rows_/d_cols_/d_aidx_ by owning front. Built in three
  // counted passes with no per-entry search and no per-front growing
  // vectors:
  //  1. count each front's entries (recording the owner per nonzero);
  //  2. scatter the *global* (row, col, value-index) triples into the
  //     segmented arrays through per-front cursors;
  //  3. per front, convert the globals to front-local indices through a
  //     global->local map filled once per front (the `stamp` array makes
  //     membership checkable without a search through fr.upd);
  //  4. per front, order the entries by column panel.
  const std::size_t nnz = a.ind().size();
  std::vector<int> ent_front(nnz);
  asm_start_.assign(nf + 1, 0);
  for (int i = 0; i < n; ++i)
    for (int k = a.ptr()[static_cast<std::size_t>(i)];
         k < a.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = a.ind()[static_cast<std::size_t>(k)];
      const int fo = owner[static_cast<std::size_t>(std::min(i, j))];
      IRRLU_CHECK(fo >= 0);
      ent_front[static_cast<std::size_t>(k)] = fo;
      ++asm_start_[static_cast<std::size_t>(fo) + 1];
    }
  for (std::size_t fi = 0; fi < nf; ++fi) asm_start_[fi + 1] += asm_start_[fi];
  {
    IRRLU_TRACE_SCOPE(dev_.tracer(), "assembly");
    d_rows_ = dev_.alloc<int>(static_cast<std::size_t>(asm_start_[nf]));
    d_cols_ = dev_.alloc<int>(static_cast<std::size_t>(asm_start_[nf]));
    d_aidx_ = dev_.alloc<int>(static_cast<std::size_t>(asm_start_[nf]));
  }
  std::vector<int> cursor(asm_start_.begin(), asm_start_.end() - 1);
  for (int i = 0; i < n; ++i)
    for (int k = a.ptr()[static_cast<std::size_t>(i)];
         k < a.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto o = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(
              ent_front[static_cast<std::size_t>(k)])]++);
      d_rows_[o] = i;
      d_cols_[o] = a.ind()[static_cast<std::size_t>(k)];
      d_aidx_[o] = k;
    }
  std::vector<int> glob2loc(static_cast<std::size_t>(n), -1);
  std::vector<int> stamp(static_cast<std::size_t>(n), -1);
  std::vector<std::size_t> panel_fill;
  std::vector<int> sorted;
  for (std::size_t fi = 0; fi < nf; ++fi) {
    const Front& fr = sym_.fronts[fi];
    const auto f = static_cast<int>(fi);
    for (int g = fr.sep_begin; g < fr.sep_end; ++g) {
      glob2loc[static_cast<std::size_t>(g)] = g - fr.sep_begin;
      stamp[static_cast<std::size_t>(g)] = f;
    }
    for (std::size_t t = 0; t < fr.upd.size(); ++t) {
      const auto g = static_cast<std::size_t>(fr.upd[t]);
      glob2loc[g] = fr.s() + static_cast<int>(t);
      stamp[g] = f;
    }
    const auto o0 = static_cast<std::size_t>(asm_start_[fi]);
    const auto o1 = static_cast<std::size_t>(asm_start_[fi + 1]);
    for (auto o = o0; o < o1; ++o) {
      const auto r = static_cast<std::size_t>(d_rows_[o]);
      const auto c = static_cast<std::size_t>(d_cols_[o]);
      IRRLU_CHECK(stamp[r] == f && stamp[c] == f);
      d_rows_[o] = glob2loc[r];
      d_cols_[o] = glob2loc[c];
    }
    // 4. order the front's entries by column panel (a stable counting
    //    sort), so each assemble block reads one contiguous run; entries
    //    of one element keep their order.
    if (fr.dim() <= batch::kColumnPanel) continue;
    auto panel_of = [&](std::size_t o) {
      return static_cast<std::size_t>(d_cols_[o] / batch::kColumnPanel);
    };
    panel_fill.assign(
        static_cast<std::size_t>(fr.dim() / batch::kColumnPanel) + 2, 0);
    for (auto o = o0; o < o1; ++o) ++panel_fill[panel_of(o) + 1];
    for (std::size_t p = 1; p < panel_fill.size(); ++p)
      panel_fill[p] += panel_fill[p - 1];
    sorted.resize(3 * (o1 - o0));
    for (auto o = o0; o < o1; ++o) {
      int* t = sorted.data() + 3 * panel_fill[panel_of(o)]++;
      t[0] = d_rows_[o];
      t[1] = d_cols_[o];
      t[2] = d_aidx_[o];
    }
    for (auto o = o0; o < o1; ++o) {
      const int* t = sorted.data() + 3 * (o - o0);
      d_rows_[o] = t[0];
      d_cols_[o] = t[1];
      d_aidx_[o] = t[2];
    }
  }
  {
    IRRLU_TRACE_SCOPE(dev_.tracer(), "assembly");
    d_aval_ = dev_.alloc<double>(a.val().size());
  }
  std::copy(a.val().begin(), a.val().end(), d_aval_.data());

  // Scatter maps: each front's upd positions inside its parent.
  scat_start_.assign(nf + 1, 0);
  for (std::size_t fi = 0; fi < nf; ++fi)
    scat_start_[fi + 1] =
        scat_start_[fi] +
        (sym_.fronts[fi].parent >= 0 ? sym_.fronts[fi].u() : 0);
  {
    IRRLU_TRACE_SCOPE(dev_.tracer(), "assembly");
    d_scat_ = dev_.alloc<int>(static_cast<std::size_t>(scat_start_[nf]));
  }
  for (std::size_t fi = 0; fi < nf; ++fi) {
    const Front& fr = sym_.fronts[fi];
    if (fr.parent < 0) continue;
    IRRLU_CHECK(static_cast<int>(fr.parent_map.size()) == fr.u());
    std::copy(fr.parent_map.begin(), fr.parent_map.end(),
              d_scat_.data() + scat_start_[fi]);
  }

  // Factorization workspaces, allocated once: a fully async driver.
  int max_batch = 1;
  for (const auto& lv : sym_.levels)
    max_batch = std::max(max_batch, static_cast<int>(lv.size()));
  {
    IRRLU_TRACE_SCOPE(dev_.tracer(), "workspace");
    kmin_ws_ = dev_.alloc<int>(static_cast<std::size_t>(max_batch));
    laswp_ws_ = dev_.alloc<int>(sym_.laswp_workspace_ints(mf.level_prec_));
  }
  lu_.kmin_workspace = kmin_ws_.data();
  lu_.laswp_workspace = laswp_ws_.data();
}

// ---- engine drivers -------------------------------------------------------

void MultifrontalFactor::Pipeline::run(Engine engine) {
  switch (engine) {
    case Engine::kBatched: return run_batched();
    case Engine::kLooped: return run_postorder(false);
    case Engine::kRightLooking: return run_postorder(true);
    case Engine::kLegacySmallBatch: return run_legacy_small_batch();
  }
}

/// The paper's schedule: each level is one irregular batch, leaves first.
void MultifrontalFactor::Pipeline::run_batched() {
  const int deepest = static_cast<int>(sym_.levels.size()) - 1;
  for (int lvl = deepest; lvl >= 0; --lvl) {
    const auto& ids = sym_.levels[static_cast<std::size_t>(lvl)];
    if (ids.empty()) continue;
    const trace::TraceScope scope = level_scope(dev_, lvl);
    storage_.ensure_level(lvl);
    assemble(ids);
    extend_add(ids);
    // Figure-14 hybrid: fronts above the threshold go last, and only
    // their Schur GEMM leaves the batch (FrontGroup::lead). Which fronts
    // share a batch does not depend on the threshold, so neither do the
    // factor bits.
    std::vector<int> group = ids;
    const auto looped =
        std::stable_partition(group.begin(), group.end(), [&](int id) {
          return opts_.hybrid_gemm_threshold <= 0 ||
                 sym_.fronts[static_cast<std::size_t>(id)].dim() <=
                     opts_.hybrid_gemm_threshold;
        });
    factor_group(make_group(group, static_cast<int>(group.end() - looped)));
    extract(ids);
    if (lvl < deepest) storage_.release_level(lvl + 1);
  }
  storage_.release_level(0);
}

/// Postorder per-front chains with the scatter to the parent right after
/// each front; the right-looking engine also synchronizes per supernode.
void MultifrontalFactor::Pipeline::run_postorder(bool sync_each_front) {
  std::vector<int> all(sym_.fronts.size());
  for (std::size_t fi = 0; fi < all.size(); ++fi) {
    const int id = static_cast<int>(fi);
    all[fi] = id;
    const trace::TraceScope scope = level_scope(dev_, sym_.fronts[fi].level);
    assemble({id});
    extend_add({id});
    factor_group(make_group({id}));
    if (sync_each_front) dev_.synchronize(stream_);
  }
  extract(all);
}

/// STRUMPACK v6.3.1: per level, one batch of the fronts below 32 and a
/// loop over the rest, synchronizing after every batch.
void MultifrontalFactor::Pipeline::run_legacy_small_batch() {
  for (int lvl = static_cast<int>(sym_.levels.size()) - 1; lvl >= 0; --lvl) {
    const auto& ids = sym_.levels[static_cast<std::size_t>(lvl)];
    if (ids.empty()) continue;
    const trace::TraceScope scope = level_scope(dev_, lvl);
    assemble(ids);
    extend_add(ids);
    std::vector<int> tiny, rest;
    for (int id : ids)
      (sym_.fronts[static_cast<std::size_t>(id)].dim() < 32 ? tiny : rest)
          .push_back(id);
    if (!tiny.empty()) {
      factor_group(make_group(tiny));
      dev_.synchronize(stream_);
    }
    for (int id : rest) {
      factor_group(make_group({id}));
      dev_.synchronize(stream_);
    }
    extract(ids);
    dev_.synchronize(stream_);
  }
}

// ---- stages ---------------------------------------------------------------

/// Zeroes the given fronts (their storage must be live) and assembles A's
/// entries into them, one block per column panel of each front. FP32
/// levels assemble the (double) matrix values into float fronts — the
/// first charged demotion of the mixed-precision pipeline. A call's fronts
/// all share one level.
void MultifrontalFactor::Pipeline::assemble(const std::vector<int>& ids) {
  if (ids.empty()) return;
  IRRLU_TRACE_SCOPE(dev_.tracer(), "assemble");
  with_type(prec_of(ids[0]), [&]<typename T>(T) {
    struct Meta {
      T* base;
      int dim, c0, c1, e0, e1;  ///< columns [c0, c1), entries [e0, e1)
    };
    auto metas = std::make_shared<std::vector<Meta>>();
    const int* acols = d_cols_.data();
    for (int id : ids) {
      const auto f = static_cast<std::size_t>(id);
      int e = asm_start_[f];
      for_each_panel(sym_.fronts[f].dim(), [&](int c0, int c1) {
        // The setup stage stored the front's entries in panel order.
        const int e0 = e;
        while (e < asm_start_[f + 1] && acols[e] < c1) ++e;
        metas->push_back(
            {storage_.base<T>(id), sym_.fronts[f].dim(), c0, c1, e0, e});
      });
    }
    const int* arows = d_rows_.data();
    const int* aidx = d_aidx_.data();
    const double* aval = d_aval_.data();
    dev_.launch(stream_,
                {"mf_assemble", static_cast<int>(metas->size()), 0,
                 gpusim::kIndependentBlocks},
                [metas, arows, acols, aidx, aval](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      const std::ptrdiff_t ld = m.dim;
      std::fill(m.base + m.c0 * ld, m.base + m.c1 * ld, T{});
      for (int e = m.e0; e < m.e1; ++e)
        m.base[acols[e] * ld + arows[e]] += static_cast<T>(aval[aidx[e]]);
      // Front traffic in the front's element width; the gather side reads
      // the double-precision value array regardless.
      ctx.record(0.0, static_cast<double>(m.c1 - m.c0) * m.dim * sizeof(T) +
                          3.0 * (m.e1 - m.e0) * sizeof(double));
    });
  });
}

/// Absorbs the children's Schur complements into the given (parent)
/// fronts; child storage must still be live. One block per column panel of
/// a parent that receives updates: it walks the parent's children in
/// order, so every parent entry sums its children's terms in the serial
/// order, and different panels write disjoint columns. Symbolic analysis
/// pins every child of a level-L front to level L+1, so one call has
/// exactly one (parent, child) type pair — a mixed-precision boundary
/// converts inside the accumulate, charged at the actual widths.
void MultifrontalFactor::Pipeline::extend_add(const std::vector<int>& ids) {
  if (ids.empty()) return;
  const auto plvl = static_cast<std::size_t>(
      sym_.fronts[static_cast<std::size_t>(ids[0])].level);
  const auto& lp = mf_.level_prec_;
  const Precision cp = plvl + 1 < lp.size() ? lp[plvl + 1] : lp[plvl];
  with_type(lp[plvl], [&]<typename Tp>(Tp) {
    with_type(cp, [&]<typename Tc>(Tc) {
      struct Child {
        const Tc* f22;
        int u, ldc, map_off;
      };
      struct Block {
        Tp* parent;
        int ldp, c0, c1;
        int k0, k1;  ///< the parent's children in `kids`
      };
      struct Work {
        std::vector<Child> kids;
        std::vector<Block> blocks;
      };
      auto work = std::make_shared<Work>();
      const int* smap = d_scat_.data();
      std::vector<char> hit;
      for (int id : ids) {
        const Front& p = sym_.fronts[static_cast<std::size_t>(id)];
        const auto k0 = static_cast<int>(work->kids.size());
        hit.assign(static_cast<std::size_t>(p.dim()), 0);
        for (int child : p.children) {
          const Front& c = sym_.fronts[static_cast<std::size_t>(child)];
          if (c.u() == 0) continue;
          const int off = scat_start_[static_cast<std::size_t>(child)];
          work->kids.push_back(
              {storage_.base<Tc>(child) +
                   static_cast<std::ptrdiff_t>(c.s()) * c.dim() + c.s(),
               c.u(), c.dim(), off});
          for (int k = 0; k < c.u(); ++k)
            hit[static_cast<std::size_t>(smap[off + k])] = 1;
        }
        const auto k1 = static_cast<int>(work->kids.size());
        // Only the panels some child column lands in.
        for_each_panel(p.dim(), [&](int c0, int c1) {
          if (std::find(hit.begin() + c0, hit.begin() + c1, 1) !=
              hit.begin() + c1)
            work->blocks.push_back({storage_.base<Tp>(id), p.dim(), c0, c1,
                                    k0, k1});
        });
      }
      if (work->kids.empty()) return;
      IRRLU_TRACE_SCOPE(dev_.tracer(), "extend-add");
      dev_.launch(stream_,
                  {"mf_extend_add", static_cast<int>(work->blocks.size()), 0,
                   gpusim::kIndependentBlocks},
                  [work, smap](gpusim::BlockCtx& ctx) {
        const Block& b = work->blocks[static_cast<std::size_t>(ctx.block())];
        double elems = 0;
        for (int k = b.k0; k < b.k1; ++k) {
          const Child& ch = work->kids[static_cast<std::size_t>(k)];
          const int* map = smap + ch.map_off;
          for (int c = 0; c < ch.u; ++c) {
            if (map[c] < b.c0 || map[c] >= b.c1) continue;
            Tp* pc = b.parent + static_cast<std::ptrdiff_t>(map[c]) * b.ldp;
            const Tc* cc = ch.f22 + static_cast<std::ptrdiff_t>(c) * ch.ldc;
            for (int r = 0; r < ch.u; ++r)
              pc[map[r]] += static_cast<Tp>(cc[r]);
            elems += ch.u;
          }
        }
        // Scattered writes: penalized traffic on the parent side (4 parent
        // accesses per element at the parent width, 1 child read at the
        // child width).
        ctx.record(elems, (4.0 * sizeof(Tp) + sizeof(Tc)) * elems);
      });
    });
  });
}

/// Max-magnitude entry of each of g's (dim x dim) fronts, combined into
/// `out` (zeroed by the group) by an exact atomic max over one block per
/// column panel: before factorization the per-front boost reference
/// ||F||_max, after it the numerator of the growth estimate. The extremum
/// stays double for every front precision.
template <typename T>
void MultifrontalFactor::Pipeline::front_absmax(const FrontGroup& g,
                                                double* out,
                                                const char* name) {
  struct Meta {
    const T* f;
    double* out;
    int d, c0, c1;
  };
  auto metas = std::make_shared<std::vector<Meta>>();
  for (int k = 0; k < g.count; ++k) {
    const int id = g.ids[static_cast<std::size_t>(k)];
    const int d = sym_.fronts[static_cast<std::size_t>(id)].dim();
    for_each_panel(d, [&](int c0, int c1) {
      metas->push_back({storage_.base<T>(id), out + k, d, c0, c1});
    });
  }
  dev_.launch(stream_,
              {name, static_cast<int>(metas->size()), 0,
               gpusim::kIndependentBlocks},
              [metas](gpusim::BlockCtx& ctx) {
    const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
    atomic_max(*m.out,
               block_absmax(m.f + static_cast<std::ptrdiff_t>(m.c0) * m.d,
                            m.d, m.c1 - m.c0, m.d));
    ctx.record(0.0, static_cast<double>(m.d) * (m.c1 - m.c0) * sizeof(T));
  });
}

/// Factors one group of fronts as a single irregular batch, in the
/// group's precision: FP32 runs the same pivoting/boost/blocking
/// decisions on float lanes at double flop rate (la::flop_weight) and
/// half the traffic.
void MultifrontalFactor::Pipeline::factor_group(const FrontGroup& g) {
  if (g.count == 0 || g.smax == 0) return;
  IRRLU_TRACE_SCOPE(dev_.tracer(),
                    dev_.tracer() ? front_class(g.ids, sym_) : "");
  with_type(g.prec, [&]<typename T>(T) {
    const FrontPointers<T>& p = g.ptr<T>();
    const int* ld = g.ld.data();
    batch::IrrLuOptions lu = lu_;
    if constexpr (std::is_same_v<T, float>) {
      // FP32 panels run twice as wide (DESIGN.md §14): a 2*nb single-
      // precision panel has the byte footprint — shared-memory, cache-line
      // and laswp-traffic-wise — of the FP64 nb panel, and the doubled
      // width halves the blocked loop's launch count, which is what bounds
      // small-front batches. The preallocated laswp workspace covers the
      // wider panels and the U12 swap below
      // (SymbolicAnalysis::laswp_workspace_ints).
      lu.nb = 2 * lu.nb;
    }
    if (opts_.pivot_tau > 0) {
      front_absmax<T>(g, g.anorm.data(), "mf_front_norm");
      lu.boost.tau = opts_.pivot_tau;
      lu.boost.anorm_vec = g.anorm.data();
      lu.boost.boost_vec = g.boost.data();
    }
    batch::irr_getrf<T>(dev_, stream_, g.smax, g.smax, p.f.data(), ld, 0, 0,
                        g.svec.data(), g.svec.data(), g.ipiv.data(),
                        g.info.data(), g.count, lu);
    if (g.umax > 0) {
      // Pivot application to F12: the FP64 path keeps the strided
      // reference kernel — its cost schedule is pinned by the
      // pre-mixed-precision baseline (fig10 bit/cost-identity). The FP32
      // fronts take the rehearsed staged variant, which compresses the
      // swap chain so each touched row moves once through shared-memory
      // chunks.
      const auto* piv = const_cast<int const* const*>(g.ipiv.data());
      if constexpr (std::is_same_v<T, float>)
        batch::irr_laswp_range_staged<T>(
            dev_, stream_, 0, g.smax, g.umax, p.f12.data(), ld, 0,
            g.svec.data(), g.uvec.data(), piv, g.count, laswp_ws_.data());
      else
        batch::irr_laswp_range<T>(dev_, stream_, 0, g.smax, g.umax,
                                  p.f12.data(), ld, 0, g.svec.data(),
                                  g.uvec.data(), piv, g.count);
      const auto* f = const_cast<T const* const*>(p.f.data());
      batch::irr_trsm<T>(dev_, stream_, la::Side::Left, la::Uplo::Lower,
                         la::Trans::No, la::Diag::Unit, g.smax, g.umax, T(1),
                         f, ld, 0, 0, p.f12.data(), ld, 0, 0, g.svec.data(),
                         g.uvec.data(), g.count);
      batch::irr_trsm<T>(dev_, stream_, la::Side::Right, la::Uplo::Upper,
                         la::Trans::No, la::Diag::NonUnit, g.umax, g.smax,
                         T(1), f, ld, 0, 0, p.f21.data(), ld, 0, 0,
                         g.uvec.data(), g.svec.data(), g.count);
      // Schur update F22 -= F21 F12 of fronts [k, k + count) as one
      // batch. Per-front results do not depend on the batch (irrGEMM tiles
      // every front from its own origin), so splitting it is bitwise free.
      auto schur = [&](int k, int count, int umax, int smax) {
        batch::irr_gemm<T>(
            dev_, stream_, la::Trans::No, la::Trans::No, umax, umax, smax,
            T(-1), const_cast<T const* const*>(p.f21.data() + k), ld + k, 0,
            0, const_cast<T const* const*>(p.f12.data() + k), ld + k, 0, 0,
            T(1), p.f22.data() + k, ld + k, 0, 0, g.uvec.data() + k,
            g.uvec.data() + k, g.svec.data() + k, count);
      };
      schur(0, g.lead, g.lead_umax, g.lead_smax);
      for (int k = g.lead; k < g.count; ++k) {
        const Front& fr = sym_.fronts[static_cast<std::size_t>(
            g.ids[static_cast<std::size_t>(k)])];
        schur(k, 1, fr.u(), fr.s());
      }
    }
    // Post-elimination extremum: gmax / anorm is the per-front growth.
    if (opts_.pivot_tau > 0)
      front_absmax<T>(g, g.gmax.data(), "mf_front_growth");
  });
}

/// Copies the factored blocks of the given fronts into the compact store
/// matching their level's precision, one block per column panel of each
/// front. The postorder engines extract every level in one call, so FP64
/// fronts go first, then FP32 ones.
void MultifrontalFactor::Pipeline::extract(const std::vector<int>& ids) {
  for (Precision prec : {Precision::kF64, Precision::kF32})
    with_type(prec, [&]<typename T>(T) {
      struct Meta {
        const T* base;
        T* out;
        int s, u, c0, c1;
      };
      auto metas = std::make_shared<std::vector<Meta>>();
      for (int id : ids) {
        const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
        if (fr.s() == 0 || prec_of(id) != prec) continue;
        for_each_panel(fr.dim(), [&](int c0, int c1) {
          metas->push_back(
              {storage_.base<T>(id),
               factor_store<T>() +
                   mf_.fstore_offset_[static_cast<std::size_t>(id)],
               fr.s(), fr.u(), c0, c1});
        });
      }
      if (metas->empty()) return;
      IRRLU_TRACE_SCOPE(dev_.tracer(), "extract");
      dev_.launch(stream_,
                  {"mf_extract", static_cast<int>(metas->size()), 0,
                   gpusim::kIndependentBlocks},
                  [metas](gpusim::BlockCtx& ctx) {
        const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
        const std::ptrdiff_t s = m.s, u = m.u, ld = s + u;
        // Store layout: L11\U11 (s x s, ld s), U12 (s x u, ld s), L21
        // (u x s, ld u). Front column c < s holds an L11\U11 column over
        // an L21 column, column c >= s a U12 column over F22.
        double elems = 0;
        for (std::ptrdiff_t c = m.c0; c < m.c1; ++c) {
          const T* col = m.base + c * ld;
          if (c < s) {
            std::copy(col, col + s, m.out + c * s);
            std::copy(col + s, col + ld, m.out + s * s + s * u + c * u);
            elems += static_cast<double>(ld);
          } else {
            std::copy(col, col + s, m.out + s * s + (c - s) * s);
            elems += static_cast<double>(s);
          }
        }
        ctx.record(0.0, 2.0 * elems * sizeof(T));
      });
    });
}

/// `looped_gemms`: trailing fronts of `ids` whose Schur GEMM runs as a
/// dedicated launch (see FrontGroup::lead).
FrontGroup& MultifrontalFactor::Pipeline::make_group(
    const std::vector<int>& ids, int looped_gemms) {
  groups_.push_back(std::make_unique<FrontGroup>(
      dev_, sym_, ids, storage_, mf_.ipiv_offset_, mf_.ipiv_storage_.data(),
      ids.empty() ? Precision::kF64 : prec_of(ids[0]), looped_gemms));
  return *groups_.back();
}

// ---- the constructor: store allocations, one driver call, the report ----

MultifrontalFactor::MultifrontalFactor(gpusim::Device& dev,
                                       const CsrMatrix& a_perm,
                                       const SymbolicAnalysis& sym,
                                       const FactorOptions& opts)
    : dev_(dev), sym_(sym) {
  const auto nf = sym.fronts.size();
  // The stacked discipline relies on the strictly level-by-level gather of
  // the batched engine; baselines fall back to the upfront discipline.
  const MemoryMode mode = opts.engine == Engine::kBatched
                              ? opts.memory
                              : MemoryMode::kAllUpfront;

  // Every allocation and launch of the constructor is attributed under
  // "factor" (trace scopes are free when no tracer is attached), and the
  // measured peak is the windowed high-water mark over the whole
  // constructor — directly comparable to the symbolic prediction.
  IRRLU_TRACE_SCOPE(dev.tracer(), "factor");
  const std::size_t in_use0 = dev.bytes_in_use();
  dev.reset_peak_window();

  // Per-level precision under the requested policy. Every front on a
  // level shares one precision, so each (parent, child) extend-add pair
  // has a single conversion direction.
  level_prec_.resize(sym.levels.size());
  for (std::size_t l = 0; l < sym.levels.size(); ++l)
    level_prec_[l] = level_precision(opts.precision, static_cast<int>(l));

  // Compact factor store: L11\U11 (s x s) + U12 (s x u) + L21 (u x s).
  // FP64 and FP32 fronts index disjoint stores; fstore_offset_[f] points
  // into whichever store matches the front's level precision. The
  // flattened update index lists serve the device-side solve.
  fstore_offset_.resize(nf);
  ipiv_offset_.resize(nf);
  upd_offset_.resize(nf);
  std::size_t felems = 0, felems_f = 0, pivots = 0, upd_total = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const Front& fr = sym.fronts[i];
    const auto s = static_cast<std::size_t>(fr.s());
    const auto elems = s * s + 2 * s * static_cast<std::size_t>(fr.u());
    std::size_t& fill =
        front_prec(static_cast<int>(i)) == Precision::kF32 ? felems_f
                                                           : felems;
    fstore_offset_[i] = fill;
    fill += elems;
    ipiv_offset_[i] = pivots;
    pivots += s;
    upd_offset_[i] = upd_total;
    upd_total += fr.upd.size();
  }
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "factor-store");
    factor_store_ = dev.alloc<double>(felems);
    if (felems_f > 0) factor_store_f_ = dev.alloc<float>(felems_f);
    ipiv_storage_ = dev.alloc<int>(pivots);
  }
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "upd-index");
    upd_storage_ = dev.alloc<int>(upd_total);
  }
  for (std::size_t i = 0; i < nf; ++i)
    std::copy(sym.fronts[i].upd.begin(), sym.fronts[i].upd.end(),
              upd_storage_.data() + upd_offset_[i]);

  const double t0 = dev.host_time();
  const long l0 = dev.launch_count();
  const long s0 = dev.sync_count();
  const double w0 = dev.sync_wait_seconds();

  Pipeline pipe(*this, a_perm, mode, opts);
  pipe.run(opts.engine);

  factor_seconds_ = dev.synchronize_all() - t0;
  launches_ = dev.launch_count() - l0;
  syncs_ = dev.sync_count() - s0;
  sync_wait_ = dev.sync_wait_seconds() - w0;
  peak_bytes_ = dev.window_peak_bytes() - in_use0;

  // Zero-pivot reports land in whichever group factored the front; the
  // same sweep harvests the robustness diagnostics (device buffers are
  // plain host memory in the simulator, valid after synchronize_all).
  report_.fronts = static_cast<int>(nf);
  for (const auto& g : pipe.groups())
    for (std::size_t k = 0; k < g->ids.size(); ++k) {
      if (g->info[k] != 0) {
        ok_ = false;
        ++report_.zero_pivot_fronts;
      }
      report_.boosted_pivots += g->boost[k];
      if (g->anorm[k] > 0 && g->gmax[k] > 0)
        report_.pivot_growth =
            std::max(report_.pivot_growth, g->gmax[k] / g->anorm[k]);
    }
  report_.precision_policy = opts.precision;
  report_.level_precision = level_prec_;
  for (std::size_t fi = 0; fi < nf; ++fi)
    if (front_prec(static_cast<int>(fi)) == Precision::kF32)
      ++report_.fp32_fronts;
  report_.measured_peak_bytes = peak_bytes_;
  report_.predicted_peak_bytes = sym.predicted_peak_bytes(mode, level_prec_);
  n_ = a_perm.rows();
  anorm1_ = a_perm.norm_1();
  if (auto* tr = dev.tracer()) trace_counters(*tr, report_);
}

std::size_t MultifrontalFactor::factor_bytes() const {
  return factor_store_.size() * sizeof(double) +
         factor_store_f_.size() * sizeof(float) +
         ipiv_storage_.size() * sizeof(int);
}

void MultifrontalFactor::solve_many(std::vector<double>& x, int nrhs) const {
  IRRLU_CHECK_MSG(nrhs >= 0, "solve_many(): negative nrhs");
  IRRLU_CHECK_MSG(x.size() == static_cast<std::size_t>(n_) *
                                  static_cast<std::size_t>(nrhs),
                  "solve_many(): x holds " << x.size() << " elements, want n*"
                                           << "nrhs = " << n_ << "*" << nrhs);
  solve_many(x.data(), nrhs);
}

void MultifrontalFactor::solve_many(double* x, int nrhs) const {
  if (nrhs <= 0 || n_ == 0) return;
  // The scope opens before the x staging buffer so the sweep's one
  // allocation is tagged "solve_many" rather than by call site.
  IRRLU_TRACE_SCOPE(dev_.tracer(), "solve_many");
  const int ldx = n_;
  const std::size_t xelems =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(nrhs);
  auto dx = dev_.alloc<double>(xelems);
  std::copy(x, x + xelems, dx.data());
  double* xd = dx.data();
  auto& stream = dev_.stream();

  // One block per front with s > 0, over all nrhs columns. FP32 fronts are
  // read in place: the block widens its factor blocks exactly into
  // per-thread scratch (host_blocks) once for all columns, so every
  // precision policy pays one allocation per call and two launches per
  // non-empty level.
  struct Meta {
    int id;
    const int* piv;
    const int* upd;
    int s, u, sep_begin;
    double elem;  ///< bytes per stored factor element
  };
  auto level_metas = [&](int lvl) {
    auto metas = std::make_shared<std::vector<Meta>>();
    const auto elem = static_cast<double>(
        elem_bytes(level_prec_[static_cast<std::size_t>(lvl)]));
    for (int id : sym_.levels[static_cast<std::size_t>(lvl)]) {
      const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
      if (fr.s() == 0) continue;
      metas->push_back({id, front_ipiv(id),
                        upd_storage_.data() +
                            upd_offset_[static_cast<std::size_t>(id)],
                        fr.s(), fr.u(), fr.sep_begin, elem});
    }
    return metas;
  };
  // One front's work: the triangle and the off-diagonal block read once
  // at their stored width, the x traffic in double per column.
  auto record = [nrhs](gpusim::BlockCtx& ctx, const Meta& m) {
    ctx.record((static_cast<double>(m.s) * m.s + 2.0 * m.s * m.u) * nrhs,
               static_cast<double>(m.s) * (m.s / 2.0 + m.u) * m.elem +
                   (2.0 * m.u + 2.0 * m.s) * sizeof(double) * nrhs);
  };

  // Forward sweep, leaves to root: x_s <- L11^{-1} P x_s;
  // x[upd] -= L21 x_s.
  for (int lvl = static_cast<int>(sym_.levels.size()) - 1; lvl >= 0;
       --lvl) {
    IRRLU_TRACE_SCOPE(dev_.tracer(), "fwd");
    auto metas = level_metas(lvl);
    if (metas->empty()) continue;
    // Serial blocks: fronts of a level share update rows, and the
    // scatter's subtraction order is part of the result.
    dev_.launch(stream, {"mf_solve_fwd", static_cast<int>(metas->size()), 0},
                [this, metas, xd, ldx, nrhs, record](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      SolveScratch& sc = solve_scratch();
      const HostBlocks hb = host_blocks(m.id, sc.blocks);
      double* xs = xd + m.sep_begin;  // contiguous separator range
      for (int c = 0; c < nrhs; ++c) {
        double* xc = xs + static_cast<std::ptrdiff_t>(c) * ldx;
        for (int r = 0; r < m.s; ++r)
          if (m.piv[r] != r) std::swap(xc[r], xc[m.piv[r]]);
      }
      la::trsv(la::Uplo::Lower, la::Trans::No, la::Diag::Unit, m.s, hb.f11,
               m.s, xs, 1, nrhs, ldx);
      if (m.u > 0) {
        // tmp = L21 * x_s (L21 is u x s, leading dimension u), then
        // scatter (atomics on real hardware).
        double* tmp = sc.vec(static_cast<std::size_t>(m.u));
        for (int c = 0; c < nrhs; ++c) {
          double* xc = xd + static_cast<std::ptrdiff_t>(c) * ldx;
          la::gemv(la::Trans::No, m.u, m.s, 1.0, hb.l21, m.u,
                   xc + m.sep_begin, 1, 0.0, tmp, 1);
          for (int k = 0; k < m.u; ++k) xc[m.upd[k]] -= tmp[k];
        }
      }
      record(ctx, m);
    });
  }
  // Backward sweep, root to leaves: x_s <- U11^{-1}(x_s - U12 x[upd]).
  for (std::size_t lvl = 0; lvl < sym_.levels.size(); ++lvl) {
    IRRLU_TRACE_SCOPE(dev_.tracer(), "bwd");
    auto metas = level_metas(static_cast<int>(lvl));
    if (metas->empty()) continue;
    // Independent blocks: each reads ancestor rows (final after the
    // previous level) and writes only its own separator range.
    dev_.launch(stream,
                {"mf_solve_bwd", static_cast<int>(metas->size()), 0,
                 gpusim::kIndependentBlocks},
                [this, metas, xd, ldx, nrhs, record](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      SolveScratch& sc = solve_scratch();
      const HostBlocks hb = host_blocks(m.id, sc.blocks);
      double* xs = xd + m.sep_begin;
      if (m.u > 0) {
        // Gather x[upd], then x_s -= U12 * x_u (U12 is s x u, leading
        // dimension s).
        double* tmp = sc.vec(static_cast<std::size_t>(m.u));
        for (int c = 0; c < nrhs; ++c) {
          double* xc = xd + static_cast<std::ptrdiff_t>(c) * ldx;
          for (int k = 0; k < m.u; ++k) tmp[k] = xc[m.upd[k]];
          la::gemv(la::Trans::No, m.s, m.u, -1.0, hb.u12, m.s, tmp, 1, 1.0,
                   xc + m.sep_begin, 1);
        }
      }
      la::trsv(la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit, m.s,
               hb.f11, m.s, xs, 1, nrhs, ldx);
      record(ctx, m);
    });
  }
  dev_.synchronize(stream);
  std::copy(xd, xd + xelems, x);
}

MultifrontalFactor::HostBlocks MultifrontalFactor::host_blocks(
    int f, std::vector<double>& scratch) const {
  const Front& fr = sym_.fronts[static_cast<std::size_t>(f)];
  const auto s = static_cast<std::size_t>(fr.s());
  const auto u = static_cast<std::size_t>(fr.u());
  if (front_prec(f) != Precision::kF32) return {f11(f), u12(f), l21(f)};
  const std::size_t elems = s * s + 2 * s * u;
  if (scratch.size() < elems) scratch.resize(elems);
  const float* src = f11f(f);
  for (std::size_t i = 0; i < elems; ++i)
    scratch[i] = static_cast<double>(src[i]);
  const double* base = scratch.data();
  return {base, base + s * s, base + s * s + s * u};
}

void MultifrontalFactor::solve(std::vector<double>& x) const {
  IRRLU_CHECK_MSG(x.size() == static_cast<std::size_t>(n_),
                  "solve(): x holds " << x.size() << " elements, want n = "
                                      << n_);
  const auto nf = sym_.fronts.size();
  std::vector<double> xs, xu, fbuf;
  // Forward sweep (children before parents — the fronts are in postorder).
  for (std::size_t fi = 0; fi < nf; ++fi) {
    const Front& fr = sym_.fronts[fi];
    const int s = fr.s(), u = fr.u();
    if (s == 0) continue;
    const HostBlocks hb = host_blocks(static_cast<int>(fi), fbuf);
    const double* F11 = hb.f11;
    const double* L21 = hb.l21;
    xs.assign(static_cast<std::size_t>(s), 0.0);
    for (int r = 0; r < s; ++r)
      xs[static_cast<std::size_t>(r)] =
          x[static_cast<std::size_t>(fr.sep_begin + r)];
    const int* piv = front_ipiv(static_cast<int>(fi));
    for (int r = 0; r < s; ++r)
      if (piv[r] != r)
        std::swap(xs[static_cast<std::size_t>(r)],
                  xs[static_cast<std::size_t>(piv[r])]);
    la::trsv(la::Uplo::Lower, la::Trans::No, la::Diag::Unit, s, F11, s,
             xs.data(), 1);
    for (int k = 0; k < u; ++k) {
      double acc = 0;
      for (int r = 0; r < s; ++r)
        acc += L21[static_cast<std::ptrdiff_t>(r) * u + k] *
               xs[static_cast<std::size_t>(r)];
      x[static_cast<std::size_t>(fr.upd[static_cast<std::size_t>(k)])] -= acc;
    }
    for (int r = 0; r < s; ++r)
      x[static_cast<std::size_t>(fr.sep_begin + r)] =
          xs[static_cast<std::size_t>(r)];
  }
  // Backward sweep.
  for (std::size_t fi = nf; fi-- > 0;) {
    const Front& fr = sym_.fronts[fi];
    const int s = fr.s(), u = fr.u();
    if (s == 0) continue;
    const HostBlocks hb = host_blocks(static_cast<int>(fi), fbuf);
    const double* F11 = hb.f11;
    const double* U12 = hb.u12;
    xs.assign(static_cast<std::size_t>(s), 0.0);
    for (int r = 0; r < s; ++r)
      xs[static_cast<std::size_t>(r)] =
          x[static_cast<std::size_t>(fr.sep_begin + r)];
    if (u > 0) {
      xu.assign(static_cast<std::size_t>(u), 0.0);
      for (int k = 0; k < u; ++k)
        xu[static_cast<std::size_t>(k)] =
            x[static_cast<std::size_t>(fr.upd[static_cast<std::size_t>(k)])];
      la::gemv(la::Trans::No, s, u, -1.0, U12, s, xu.data(), 1, 1.0,
               xs.data(), 1);
    }
    la::trsv(la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit, s, F11, s,
             xs.data(), 1);
    for (int r = 0; r < s; ++r)
      x[static_cast<std::size_t>(fr.sep_begin + r)] =
          xs[static_cast<std::size_t>(r)];
  }
}

void MultifrontalFactor::solve_transpose(std::vector<double>& x) const {
  // solve() applies M = B_0 ... B_{N-1} F_{N-1} ... F_0 where F_i is front
  // i's forward step (pivot, L11 trsv, update-row gemv) and B_i its
  // backward step. The transpose applies F_0^T ... F_{N-1}^T then
  // B_{N-1}^T ... B_0^T, so each sweep runs in the opposite tree order
  // with the transposed triangular blocks.
  IRRLU_CHECK_MSG(x.size() == static_cast<std::size_t>(n_),
                  "solve_transpose(): x holds "
                      << x.size() << " elements, want n = " << n_);
  const auto nf = sym_.fronts.size();
  std::vector<double> xs, xu, fbuf;
  // B_i^T in postorder: xs <- U11^{-T} xs; x[upd] -= U12^T xs.
  for (std::size_t fi = 0; fi < nf; ++fi) {
    const Front& fr = sym_.fronts[fi];
    const int s = fr.s(), u = fr.u();
    if (s == 0) continue;
    const HostBlocks hb = host_blocks(static_cast<int>(fi), fbuf);
    const double* F11 = hb.f11;
    const double* U12 = hb.u12;
    xs.assign(static_cast<std::size_t>(s), 0.0);
    for (int r = 0; r < s; ++r)
      xs[static_cast<std::size_t>(r)] =
          x[static_cast<std::size_t>(fr.sep_begin + r)];
    la::trsv(la::Uplo::Upper, la::Trans::Yes, la::Diag::NonUnit, s, F11, s,
             xs.data(), 1);
    for (int k = 0; k < u; ++k) {
      double acc = 0;
      for (int r = 0; r < s; ++r)
        acc += U12[static_cast<std::ptrdiff_t>(k) * s + r] *
               xs[static_cast<std::size_t>(r)];
      x[static_cast<std::size_t>(fr.upd[static_cast<std::size_t>(k)])] -= acc;
    }
    for (int r = 0; r < s; ++r)
      x[static_cast<std::size_t>(fr.sep_begin + r)] =
          xs[static_cast<std::size_t>(r)];
  }
  // F_i^T in reverse postorder: xs <- P^T L11^{-T} (xs - L21^T x[upd]).
  for (std::size_t fi = nf; fi-- > 0;) {
    const Front& fr = sym_.fronts[fi];
    const int s = fr.s(), u = fr.u();
    if (s == 0) continue;
    const HostBlocks hb = host_blocks(static_cast<int>(fi), fbuf);
    const double* F11 = hb.f11;
    const double* L21 = hb.l21;
    xs.assign(static_cast<std::size_t>(s), 0.0);
    for (int r = 0; r < s; ++r)
      xs[static_cast<std::size_t>(r)] =
          x[static_cast<std::size_t>(fr.sep_begin + r)];
    if (u > 0) {
      xu.assign(static_cast<std::size_t>(u), 0.0);
      for (int k = 0; k < u; ++k)
        xu[static_cast<std::size_t>(k)] =
            x[static_cast<std::size_t>(fr.upd[static_cast<std::size_t>(k)])];
      // xs -= L21^T xu (L21 is u x s, leading dimension u).
      la::gemv(la::Trans::Yes, u, s, -1.0, L21, u, xu.data(), 1, 1.0,
               xs.data(), 1);
    }
    la::trsv(la::Uplo::Lower, la::Trans::Yes, la::Diag::Unit, s, F11, s,
             xs.data(), 1);
    const int* piv = front_ipiv(static_cast<int>(fi));
    for (int r = s; r-- > 0;)
      if (piv[r] != r)
        std::swap(xs[static_cast<std::size_t>(r)],
                  xs[static_cast<std::size_t>(piv[r])]);
    for (int r = 0; r < s; ++r)
      x[static_cast<std::size_t>(fr.sep_begin + r)] =
          xs[static_cast<std::size_t>(r)];
  }
}

double MultifrontalFactor::condest_1() const {
  if (condest_ >= 0) return condest_;
  if (n_ == 0) return condest_ = 0.0;
  const auto nz = static_cast<std::size_t>(n_);
  auto finite = [](const std::vector<double>& v) {
    for (double e : v)
      if (!std::isfinite(e)) return false;
    return true;
  };
  // Hager's algorithm estimating ||A_prep^{-1}||_1: maximize ||A^{-1}x||_1
  // over the unit 1-norm ball by alternating a solve with A and one with
  // A^T (the gradient step), hopping between unit-vector vertices.
  std::vector<double> x(nz, 1.0 / n_), y, z;
  double est = 0;
  int last_j = -1;
  for (int iter = 0; iter < 5; ++iter) {
    y = x;
    solve(y);  // y = A^{-1} x
    if (!finite(y))
      return condest_ = std::numeric_limits<double>::infinity();
    double e = 0;
    for (double v : y) e += std::abs(v);
    if (iter > 0 && e <= est) break;  // estimate stopped improving
    est = e;
    z.assign(nz, 0.0);
    for (std::size_t i = 0; i < nz; ++i) z[i] = y[i] >= 0 ? 1.0 : -1.0;
    solve_transpose(z);  // z = A^{-T} sign(y)
    if (!finite(z))
      return condest_ = std::numeric_limits<double>::infinity();
    int j = 0;
    double zmax = 0, ztx = 0;
    for (std::size_t i = 0; i < nz; ++i) {
      ztx += z[i] * x[i];
      if (std::abs(z[i]) > zmax) {
        zmax = std::abs(z[i]);
        j = static_cast<int>(i);
      }
    }
    if (zmax <= ztx || j == last_j) break;  // at a local maximum
    last_j = j;
    x.assign(nz, 0.0);
    x[static_cast<std::size_t>(j)] = 1.0;
  }
  return condest_ = anorm1_ * est;
}

}  // namespace irrlu::sparse
