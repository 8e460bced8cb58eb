#include "sparse/multifrontal.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "irrblas/interleaved.hpp"
#include "lapack/blas.hpp"
#include "lapack/flops.hpp"
#include "lapack/lapack.hpp"
#include "trace/analysis.hpp"
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

const char* to_string(Precision p) {
  switch (p) {
    case Precision::kF64: return "f64";
    case Precision::kF32: return "f32";
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
        trace::TraceScope level_scope(
            dev.tracer(), dev.tracer() ? "level=" + std::to_string(lvl)
                                       : std::string());
        ensure_level(static_cast<int>(lvl));
      }
  }

  Precision prec(int lvl) const {
    return level_prec_[static_cast<std::size_t>(lvl)];
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
  gpusim::DeviceBuffer<double*> f, f12, f21, f22;
  gpusim::DeviceBuffer<float*> ff, ff12, ff21, ff22;
  gpusim::DeviceBuffer<int> ld, svec, uvec;
  gpusim::DeviceBuffer<int*> ipiv;
  gpusim::DeviceBuffer<int> info;
  /// Robustness diagnostics (filled only when pivot_tau > 0): pre-factor
  /// max-magnitude front norm (the boost reference), boosted-pivot count,
  /// and post-factor max magnitude (for the growth estimate). Host-zeroed
  /// here because fronts skipped by a kernel's DCWI early return must read
  /// as "no events", not as uninitialized device memory. The extrema stay
  /// double regardless of the group's factor precision.
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
    // the engine's level=N scope). Only the active precision's pointer
    // arrays are allocated, so the pure-FP64 allocation sequence is
    // unchanged from the single-precision-free code.
    IRRLU_TRACE_SCOPE(dev.tracer(),
                      dev.tracer() ? front_class(ids, sym) : "");
    if (prec == Precision::kF32) {
      ff = dev.alloc<float*>(n);
      ff12 = dev.alloc<float*>(n);
      ff21 = dev.alloc<float*>(n);
      ff22 = dev.alloc<float*>(n);
    } else {
      f = dev.alloc<double*>(n);
      f12 = dev.alloc<double*>(n);
      f21 = dev.alloc<double*>(n);
      f22 = dev.alloc<double*>(n);
    }
    ld = dev.alloc<int>(n);
    svec = dev.alloc<int>(n);
    uvec = dev.alloc<int>(n);
    ipiv = dev.alloc<int*>(n);
    info = dev.alloc<int>(n);
    anorm = dev.alloc<double>(n);
    gmax = dev.alloc<double>(n);
    boost = dev.alloc<int>(n);
    for (std::size_t k = 0; k < n; ++k) {
      anorm[k] = 0.0;
      gmax[k] = 0.0;
      boost[k] = 0;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const Front& fr = sym.fronts[static_cast<std::size_t>(ids[k])];
      const int d = fr.dim();
      const int s = fr.s();
      if (prec == Precision::kF32) {
        float* base = storage.base<float>(ids[k]);
        ff[k] = base;
        ff12[k] = base + static_cast<std::ptrdiff_t>(s) * d;
        ff21[k] = base + s;
        ff22[k] = base + static_cast<std::ptrdiff_t>(s) * d + s;
      } else {
        double* base = storage.base<double>(ids[k]);
        f[k] = base;
        f12[k] = base + static_cast<std::ptrdiff_t>(s) * d;
        f21[k] = base + s;
        f22[k] = base + static_cast<std::ptrdiff_t>(s) * d + s;
      }
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
};

/// max |F(r, c)| over the d x d column-major block at F — the front norm
/// and growth reduction. Four running maxima make the scan throughput-
/// bound instead of latency-bound (~3.5x on one core). The result is
/// bitwise the one-accumulator scan: max is exact and order-free, and a
/// NaN entry never wins std::max against the running value.
template <typename T>
double block_absmax(const T* F, int d, int ld) {
  double m[4] = {0, 0, 0, 0};
  for (int c = 0; c < d; ++c) {
    const T* col = F + static_cast<std::ptrdiff_t>(c) * ld;
    int r = 0;
    for (; r + 4 <= d; r += 4)
      for (int k = 0; k < 4; ++k)
        m[k] = std::max(m[k], std::abs(static_cast<double>(col[r + k])));
    for (; r < d; ++r)
      m[0] = std::max(m[0], std::abs(static_cast<double>(col[r])));
  }
  return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

/// Per-thread staging for the update-row gemv of the device solve (the
/// blocks of an independent launch may run on different host threads).
double* solve_scratch(std::size_t n) {
  thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Batched promotion of FP32 factor blocks into contiguous FP64 scratch —
/// the charged conversion kernel the mixed-precision solve pays before
/// running the double-precision triangular passes.
struct PromoteMeta {
  const float* src = nullptr;
  double* dst = nullptr;
  std::size_t n = 0;
};

void promote_fp32(gpusim::Device& dev, gpusim::Stream& stream,
                  std::vector<PromoteMeta> metas) {
  if (metas.empty()) return;
  auto shared = std::make_shared<std::vector<PromoteMeta>>(std::move(metas));
  const gpusim::LaunchConfig cfg{"mf_promote",
                                 static_cast<int>(shared->size()), 0,
                                 gpusim::kIndependentBlocks};
  dev.launch(stream, cfg, [shared](gpusim::BlockCtx& ctx) {
    const PromoteMeta& m = (*shared)[static_cast<std::size_t>(ctx.block())];
    for (std::size_t i = 0; i < m.n; ++i)
      m.dst[i] = static_cast<double>(m.src[i]);
    ctx.record(0.0, static_cast<double>(m.n) *
                        (sizeof(float) + sizeof(double)));
  });
}

}  // namespace

std::size_t MultifrontalFactor::factor_bytes() const {
  return factor_store_.size() * sizeof(double) +
         factor_store_f_.size() * sizeof(float) +
         ipiv_storage_.size() * sizeof(int);
}

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
    level_prec_[l] = level_precision(opts.precision, static_cast<int>(l),
                                     opts.adaptive_root_levels);

  // Compact factor store: L11\U11 (s x s) + U12 (s x u) + L21 (u x s).
  // FP64 and FP32 fronts index disjoint stores; fstore_offset_[f] points
  // into whichever store matches the front's level precision.
  fstore_offset_.resize(nf);
  ipiv_offset_.resize(nf);
  std::size_t felems = 0, felems_f = 0, pivots = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    ipiv_offset_[i] = pivots;
    const auto s = static_cast<std::size_t>(sym.fronts[i].s());
    const auto u = static_cast<std::size_t>(sym.fronts[i].u());
    const auto elems = s * s + 2 * s * u;
    if (level_prec_[static_cast<std::size_t>(sym.fronts[i].level)] ==
        Precision::kF32) {
      fstore_offset_[i] = felems_f;
      felems_f += elems;
    } else {
      fstore_offset_[i] = felems;
      felems += elems;
    }
    pivots += s;
  }
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "factor-store");
    factor_store_ = dev.alloc<double>(felems);
    if (felems_f > 0) factor_store_f_ = dev.alloc<float>(felems_f);
    ipiv_storage_ = dev.alloc<int>(pivots);
  }

  // Flattened update index lists (needed by the device-side solve).
  upd_offset_.resize(nf);
  std::size_t upd_total = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    upd_offset_[i] = upd_total;
    upd_total += sym.fronts[i].upd.size();
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
  // Launch-record window of this factorization, for the critical-path
  // rollup below (the trace may already hold earlier work).
  const std::size_t trace_l0 =
      dev.tracer() != nullptr ? dev.tracer()->launches().size() : 0;
  auto& stream = dev.stream();

  FrontStorage storage(dev, sym, mode, level_prec_);

  // ---- one-time setup: owner maps and assembly lists -----------------
  const int n = a_perm.rows();
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  for (std::size_t fi = 0; fi < nf; ++fi)
    for (int g = sym.fronts[fi].sep_begin; g < sym.fronts[fi].sep_end; ++g)
      owner[static_cast<std::size_t>(g)] = static_cast<int>(fi);

  // Flattened (front -> entries) assembly triples, CSR-style: asm_start
  // segments d_rows/d_cols/d_aidx by owning front. Built in three counted
  // passes with no per-entry search and no per-front growing vectors:
  //  1. count each front's entries (recording the owner per nonzero);
  //  2. scatter the *global* (row, col, value-index) triples into the
  //     segmented arrays through per-front cursors;
  //  3. per front, convert the globals to front-local indices through a
  //     global->local map filled once per front (the `stamp` array makes
  //     membership checkable, replacing the old per-entry binary search
  //     through fr.upd).
  const std::size_t nnz = a_perm.ind().size();
  std::vector<int> ent_front(nnz);
  std::vector<int> asm_start(nf + 1, 0);
  for (int i = 0; i < n; ++i)
    for (int k = a_perm.ptr()[static_cast<std::size_t>(i)];
         k < a_perm.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = a_perm.ind()[static_cast<std::size_t>(k)];
      const int fo = owner[static_cast<std::size_t>(std::min(i, j))];
      IRRLU_CHECK(fo >= 0);
      ent_front[static_cast<std::size_t>(k)] = fo;
      ++asm_start[static_cast<std::size_t>(fo) + 1];
    }
  for (std::size_t fi = 0; fi < nf; ++fi) asm_start[fi + 1] += asm_start[fi];
  gpusim::DeviceBuffer<int> d_rows, d_cols, d_aidx;
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "assembly");
    d_rows = dev.alloc<int>(static_cast<std::size_t>(asm_start[nf]));
    d_cols = dev.alloc<int>(static_cast<std::size_t>(asm_start[nf]));
    d_aidx = dev.alloc<int>(static_cast<std::size_t>(asm_start[nf]));
  }
  std::vector<int> cursor(asm_start.begin(), asm_start.end() - 1);
  for (int i = 0; i < n; ++i)
    for (int k = a_perm.ptr()[static_cast<std::size_t>(i)];
         k < a_perm.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto o = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(ent_front[static_cast<std::size_t>(
              k)])]++);
      d_rows[o] = i;
      d_cols[o] = a_perm.ind()[static_cast<std::size_t>(k)];
      d_aidx[o] = k;
    }
  {
    std::vector<int> glob2loc(static_cast<std::size_t>(n), -1);
    std::vector<int> stamp(static_cast<std::size_t>(n), -1);
    for (std::size_t fi = 0; fi < nf; ++fi) {
      const Front& fr = sym.fronts[fi];
      const int s = fr.s();
      for (int g = fr.sep_begin; g < fr.sep_end; ++g) {
        glob2loc[static_cast<std::size_t>(g)] = g - fr.sep_begin;
        stamp[static_cast<std::size_t>(g)] = static_cast<int>(fi);
      }
      for (std::size_t t = 0; t < fr.upd.size(); ++t) {
        const auto g = static_cast<std::size_t>(fr.upd[t]);
        glob2loc[g] = s + static_cast<int>(t);
        stamp[g] = static_cast<int>(fi);
      }
      for (auto o = static_cast<std::size_t>(asm_start[fi]);
           o < static_cast<std::size_t>(asm_start[fi + 1]); ++o) {
        IRRLU_CHECK(stamp[static_cast<std::size_t>(d_rows[o])] ==
                        static_cast<int>(fi) &&
                    stamp[static_cast<std::size_t>(d_cols[o])] ==
                        static_cast<int>(fi));
        d_rows[o] = glob2loc[static_cast<std::size_t>(d_rows[o])];
        d_cols[o] = glob2loc[static_cast<std::size_t>(d_cols[o])];
      }
    }
  }
  gpusim::DeviceBuffer<double> d_aval;
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "assembly");
    d_aval = dev.alloc<double>(a_perm.val().size());
  }
  std::copy(a_perm.val().begin(), a_perm.val().end(), d_aval.data());

  // Scatter maps: this front's upd positions inside the parent.
  std::vector<int> scat_start(nf + 1, 0);
  for (std::size_t fi = 0; fi < nf; ++fi)
    scat_start[fi + 1] =
        scat_start[fi] +
        (sym.fronts[fi].parent >= 0 ? sym.fronts[fi].u() : 0);
  gpusim::DeviceBuffer<int> d_scat;
  {
    IRRLU_TRACE_SCOPE(dev.tracer(), "assembly");
    d_scat = dev.alloc<int>(static_cast<std::size_t>(scat_start[nf]));
  }
  for (std::size_t fi = 0; fi < nf; ++fi) {
    const Front& fr = sym.fronts[fi];
    if (fr.parent < 0) continue;
    IRRLU_CHECK(static_cast<int>(fr.parent_map.size()) == fr.u());
    for (std::size_t e = 0; e < fr.parent_map.size(); ++e)
      d_scat[static_cast<std::size_t>(scat_start[fi]) + e] =
          fr.parent_map[e];
  }
  const int* smap = d_scat.data();

  // ---- reusable per-group kernels --------------------------------------
  // Zero + assemble-from-A the given fronts (their storage must be live).
  // Templated on the level's front element type: FP32 levels assemble the
  // (double) matrix values into float fronts — the first charged
  // demotion of the mixed-precision pipeline. A call's fronts all share
  // one level (kBatched/kLegacy iterate per level; kLooped passes single
  // fronts), so the wrapper picks the type from the first id.
  auto assemble_t = [&]<typename T>(const std::vector<int>& ids) {
    if (ids.empty()) return;
    IRRLU_TRACE_SCOPE(dev.tracer(), "assemble");
    struct Meta {
      T* base;
      int dim, a0, a1;
    };
    auto metas = std::make_shared<std::vector<Meta>>();
    for (int id : ids)
      metas->push_back({storage.base<T>(id),
                        sym.fronts[static_cast<std::size_t>(id)].dim(),
                        asm_start[static_cast<std::size_t>(id)],
                        asm_start[static_cast<std::size_t>(id) + 1]});
    const int* arows = d_rows.data();
    const int* acols = d_cols.data();
    const int* aidx = d_aidx.data();
    const double* aval = d_aval.data();
    dev.launch(stream,
               {"mf_assemble", static_cast<int>(metas->size()), 0,
                gpusim::kIndependentBlocks},
               [metas, arows, acols, aidx, aval](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      const int ld = m.dim > 0 ? m.dim : 1;
      std::fill(m.base, m.base + static_cast<std::size_t>(m.dim) * m.dim,
                T{});
      for (int e = m.a0; e < m.a1; ++e)
        m.base[static_cast<std::ptrdiff_t>(acols[e]) * ld + arows[e]] +=
            static_cast<T>(aval[aidx[e]]);
      // Front traffic in the front's element width; the gather side reads
      // the double-precision value array regardless.
      ctx.record(0.0, static_cast<double>(m.dim) * m.dim * sizeof(T) +
                          3.0 * (m.a1 - m.a0) * sizeof(double));
    });
  };
  auto assemble = [&](const std::vector<int>& ids) {
    if (ids.empty()) return;
    const auto lvl = static_cast<std::size_t>(
        sym.fronts[static_cast<std::size_t>(ids[0])].level);
    if (level_prec_[lvl] == Precision::kF32)
      assemble_t.template operator()<float>(ids);
    else
      assemble_t.template operator()<double>(ids);
  };

  // Extend-add: absorb the children's Schur complements into the given
  // (parent) fronts. Child storage must still be live. Templated on the
  // (parent, child) element types: symbolic analysis pins every child of
  // a level-L front to level L+1, so one call has exactly one type pair —
  // mixed-precision boundaries convert inside the accumulate (the update
  // crosses the precision seam here, charged at the actual widths).
  auto gather_children_t = [&]<typename Tp, typename Tc>(
                               const std::vector<int>& ids) {
    struct Meta {
      const Tc* child;
      Tp* parent;
      int u, ldc, ldp, map_off;
    };
    auto metas = std::make_shared<std::vector<Meta>>();
    // One chain per parent: its children accumulate into the same entries,
    // so they run in order; different parents run concurrently.
    std::vector<int> chains;
    for (int id : ids) {
      const Front& p = sym.fronts[static_cast<std::size_t>(id)];
      const auto chain_start = static_cast<int>(metas->size());
      for (int child : p.children) {
        const Front& c = sym.fronts[static_cast<std::size_t>(child)];
        if (c.u() == 0) continue;
        metas->push_back(
            {storage.base<Tc>(child) +
                 static_cast<std::ptrdiff_t>(c.s()) * c.dim() + c.s(),
             storage.base<Tp>(id), c.u(), c.dim(), p.dim() > 0 ? p.dim() : 1,
             scat_start[static_cast<std::size_t>(child)]});
      }
      if (static_cast<int>(metas->size()) > chain_start)
        chains.push_back(chain_start);
    }
    if (metas->empty()) return;
    IRRLU_TRACE_SCOPE(dev.tracer(), "extend-add");
    dev.launch(stream,
               {"mf_extend_add", static_cast<int>(metas->size()), 0,
                gpusim::kIndependentBlocks, chains},
               [metas, smap](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      const int* map = smap + m.map_off;
      for (int c = 0; c < m.u; ++c)
        for (int r = 0; r < m.u; ++r)
          m.parent[static_cast<std::ptrdiff_t>(map[c]) * m.ldp + map[r]] +=
              static_cast<Tp>(
                  m.child[static_cast<std::ptrdiff_t>(c) * m.ldc + r]);
      // Scattered writes: penalized traffic on the parent side (4 parent
      // accesses per element at the parent width, 1 child read at the
      // child width).
      ctx.record(static_cast<double>(m.u) * m.u,
                 (4.0 * sizeof(Tp) + sizeof(Tc)) * m.u * m.u);
    });
  };
  auto gather_children = [&](const std::vector<int>& ids) {
    if (ids.empty()) return;
    const auto plvl = static_cast<std::size_t>(
        sym.fronts[static_cast<std::size_t>(ids[0])].level);
    const Precision pp = level_prec_[plvl];
    const Precision cp =
        plvl + 1 < level_prec_.size() ? level_prec_[plvl + 1] : pp;
    if (pp == Precision::kF32) {
      if (cp == Precision::kF32)
        gather_children_t.template operator()<float, float>(ids);
      else
        gather_children_t.template operator()<float, double>(ids);
    } else {
      if (cp == Precision::kF32)
        gather_children_t.template operator()<double, float>(ids);
      else
        gather_children_t.template operator()<double, double>(ids);
    }
  };

  // Copy the factored blocks of the given fronts into the compact store —
  // each front into the store matching its level's precision. kLooped
  // extracts all levels in one call, so the wrapper splits by precision
  // (pure-FP64 runs keep every front in the double list, in order).
  auto extract_factors_t = [&]<typename T>(const std::vector<int>& ids,
                                           T* store) {
    if (ids.empty()) return;
    struct Meta {
      const T* base;
      T* out;
      int s, u, ld;
    };
    auto metas = std::make_shared<std::vector<Meta>>();
    for (int id : ids) {
      const Front& fr = sym.fronts[static_cast<std::size_t>(id)];
      if (fr.s() == 0) continue;
      metas->push_back({storage.base<T>(id),
                        store +
                            fstore_offset_[static_cast<std::size_t>(id)],
                        fr.s(), fr.u(), fr.dim()});
    }
    if (metas->empty()) return;
    IRRLU_TRACE_SCOPE(dev.tracer(), "extract");
    dev.launch(stream,
               {"mf_extract", static_cast<int>(metas->size()), 0,
                gpusim::kIndependentBlocks},
               [metas](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      T* out = m.out;
      // L11\U11: s x s, ld s.
      for (int c = 0; c < m.s; ++c)
        for (int r = 0; r < m.s; ++r)
          *out++ = m.base[static_cast<std::ptrdiff_t>(c) * m.ld + r];
      // U12: s x u, ld s.
      for (int c = 0; c < m.u; ++c)
        for (int r = 0; r < m.s; ++r)
          *out++ =
              m.base[static_cast<std::ptrdiff_t>(m.s + c) * m.ld + r];
      // L21: u x s, ld u.
      for (int c = 0; c < m.s; ++c)
        for (int r = 0; r < m.u; ++r)
          *out++ =
              m.base[static_cast<std::ptrdiff_t>(c) * m.ld + m.s + r];
      const double elems =
          static_cast<double>(m.s) * (m.s + 2.0 * m.u);
      ctx.record(0.0, 2.0 * elems * sizeof(T));
    });
  };
  auto extract_factors = [&](const std::vector<int>& ids) {
    if (ids.empty()) return;
    std::vector<int> dids, fids;
    for (int id : ids) {
      const auto lvl = static_cast<std::size_t>(
          sym.fronts[static_cast<std::size_t>(id)].level);
      (level_prec_[lvl] == Precision::kF32 ? fids : dids).push_back(id);
    }
    extract_factors_t.template operator()<double>(dids,
                                                  factor_store_.data());
    extract_factors_t.template operator()<float>(fids,
                                                 factor_store_f_.data());
  };

  // ---- factorization workspaces (allocated once: fully async driver) --
  // One workspace pair per stream, so multi-stream level processing does
  // not race on them.
  const int num_streams =
      opts.engine == Engine::kBatched ? std::max(1, opts.num_streams) : 1;
  int max_batch = 1;
  for (const auto& lv : sym.levels)
    max_batch = std::max(max_batch, static_cast<int>(lv.size()));
  const int nb = std::max(1, opts.lu.nb);
  std::vector<gpusim::DeviceBuffer<int>> kmin_ws, laswp_ws;
  std::vector<batch::IrrLuOptions> lu_opts_of(
      static_cast<std::size_t>(num_streams), opts.lu);
  for (int s = 0; s < num_streams; ++s) {
    IRRLU_TRACE_SCOPE(dev.tracer(), "workspace");
    kmin_ws.push_back(dev.alloc<int>(static_cast<std::size_t>(max_batch)));
    laswp_ws.push_back(
        dev.alloc<int>(batch::irr_laswp_workspace_size(max_batch, nb)));
    lu_opts_of[static_cast<std::size_t>(s)].kmin_workspace =
        kmin_ws.back().data();
    lu_opts_of[static_cast<std::size_t>(s)].laswp_workspace =
        laswp_ws.back().data();
  }
  const batch::IrrLuOptions& lu_opts = lu_opts_of[0];

  // ---- interleaved (SoA) small-front routing (DESIGN.md §12) -----------
  // Single-stream batched engine only: the SoA slabs serialize a level's
  // buckets onto one stream anyway, and the bitwise-identity argument is
  // made against the single-stream strided schedule.
  const bool use_ilv = opts.interleaved.enabled &&
                       opts.engine == Engine::kBatched && num_streams == 1;
  // Cap clamped to 32: above it the strided path switches to blocked
  // panels / recursive TRSM whose operation order the interleaved kernels
  // do not mirror (see InterleavedOptions::max_class_dim).
  const int ilv_cap = std::min(opts.interleaved.max_class_dim, 32);
  IRRLU_CHECK(opts.dispatch_plan == nullptr ||
              opts.dispatch_cache != nullptr);
  batch::KernelCache local_dispatch_cache;  // when the caller passed none
  batch::KernelCache* const kcache = opts.dispatch_cache != nullptr
                                         ? opts.dispatch_cache
                                         : &local_dispatch_cache;
  const batch::Dispatch disp{kcache, opts.dispatch_plan};
  const batch::KernelCache::Stats dstats0 = kcache->stats();

  std::vector<std::unique_ptr<FrontGroup>> groups;  // keep alive

  // Max-magnitude entry of each front's full (dim x dim) block, written to
  // `out` — before factorization it is the per-front boost reference
  // ||F||_max, after it the numerator of the growth estimate. The
  // extremum itself stays double for every front precision (it feeds the
  // boost rule and the growth report).
  auto front_absmax = [&]<typename T>(const FrontGroup& g, T* const* fp,
                                      gpusim::Stream& st, double* out,
                                      const char* name) {
    const int* ldp = g.ld.data();
    const int* sp = g.svec.data();
    const int* up = g.uvec.data();
    dev.launch(st, {name, g.count, 0, gpusim::kIndependentBlocks},
               [=](gpusim::BlockCtx& ctx) {
      const int k = ctx.block();
      const int d = sp[k] + up[k];
      if (d <= 0) return;
      out[k] = block_absmax(fp[k], d, ldp[k]);
      ctx.record(0.0, static_cast<double>(d) * d * sizeof(T));
    });
  };

  // Factors one group of fronts as a single irregular batch on the given
  // stream, in the group's precision: the FP32 instantiations run the
  // same pivoting/boost/blocking decisions on float lanes at double flop
  // rate (la::flop_weight) and half the traffic.
  auto factor_group_t = [&]<typename T>(const FrontGroup& g, T* const* gf,
                                        T* const* gf12, T* const* gf21,
                                        T* const* gf22,
                                        gpusim::Stream& stream,
                                        const batch::IrrLuOptions& lu_opts) {
    batch::IrrLuOptions lu = lu_opts;
    if constexpr (std::is_same_v<T, float>) {
      // FP32 panels run twice as wide (DESIGN.md §14): a 2*nb single-
      // precision panel has the byte footprint — shared-memory, cache-line
      // and laswp-traffic-wise — of the FP64 nb panel, and the doubled
      // width halves the blocked loop's launch count, which is what bounds
      // small-front batches. The preallocated laswp workspace is sized for
      // the FP64 nb; passing null lets irr_getrf draw a matching wider one
      // from the device's per-stream workspace cache.
      lu.nb = 2 * std::max(1, lu.nb);
      lu.laswp_workspace = nullptr;
    }
    if (opts.pivot_tau > 0) {
      front_absmax.template operator()<T>(g, gf, stream, g.anorm.data(),
                                          "mf_front_norm");
      lu.boost.tau = opts.pivot_tau;
      lu.boost.anorm_vec = g.anorm.data();
      lu.boost.boost_vec = g.boost.data();
    }
    batch::irr_getrf<T>(dev, stream, g.smax, g.smax, gf,
                        g.ld.data(), 0, 0, g.svec.data(), g.svec.data(),
                        g.ipiv.data(), g.info.data(), g.count, lu);
    if (g.umax > 0) {
      // Pivot application to F12: the FP64 path keeps the strided
      // reference kernel — its cost schedule is pinned by the
      // pre-mixed-precision baseline (fig10 bit/cost-identity). The FP32
      // fronts are new with DESIGN.md §14 and take the rehearsed staged
      // variant, which compresses the swap chain so each touched row
      // moves once through shared-memory chunks.
      if constexpr (std::is_same_v<T, float>)
        batch::irr_laswp_range_staged<T>(
            dev, stream, 0, g.smax, g.umax, gf12, g.ld.data(), 0,
            g.svec.data(), g.uvec.data(),
            const_cast<int const* const*>(g.ipiv.data()), g.count);
      else
        batch::irr_laswp_range<T>(
            dev, stream, 0, g.smax, g.umax, gf12, g.ld.data(), 0,
            g.svec.data(), g.uvec.data(),
            const_cast<int const* const*>(g.ipiv.data()), g.count);
      batch::irr_trsm<T>(
          dev, stream, la::Side::Left, la::Uplo::Lower, la::Trans::No,
          la::Diag::Unit, g.smax, g.umax, T(1),
          const_cast<T const* const*>(gf), g.ld.data(), 0, 0,
          gf12, g.ld.data(), 0, 0, g.svec.data(), g.uvec.data(),
          g.count);
      batch::irr_trsm<T>(
          dev, stream, la::Side::Right, la::Uplo::Upper, la::Trans::No,
          la::Diag::NonUnit, g.umax, g.smax, T(1),
          const_cast<T const* const*>(gf), g.ld.data(), 0, 0,
          gf21, g.ld.data(), 0, 0, g.uvec.data(), g.svec.data(),
          g.count);
      // Schur update F22 -= F21 F12 of fronts [k, k + count) as one
      // batch. Per-front results do not depend on the batch (irrGEMM tiles
      // every front from its own origin), so splitting it is bitwise free.
      auto schur = [&](int k, int count, int umax, int smax) {
        batch::irr_gemm<T>(
            dev, stream, la::Trans::No, la::Trans::No, umax, umax, smax,
            T(-1), const_cast<T const* const*>(gf21 + k), g.ld.data() + k,
            0, 0, const_cast<T const* const*>(gf12 + k), g.ld.data() + k,
            0, 0, T(1), gf22 + k, g.ld.data() + k, 0, 0, g.uvec.data() + k,
            g.uvec.data() + k, g.svec.data() + k, count);
      };
      schur(0, g.lead, g.lead_umax, g.lead_smax);
      for (int k = g.lead; k < g.count; ++k) {
        const Front& fr = sym.fronts[static_cast<std::size_t>(
            g.ids[static_cast<std::size_t>(k)])];
        schur(k, 1, fr.u(), fr.s());
      }
    }
    // Post-elimination extremum: gmax / anorm is the per-front growth.
    if (opts.pivot_tau > 0)
      front_absmax.template operator()<T>(g, gf, stream, g.gmax.data(),
                                          "mf_front_growth");
  };

  auto factor_group_on = [&](const FrontGroup& g, gpusim::Stream& stream,
                             const batch::IrrLuOptions& lu_opts) {
    if (g.count == 0 || g.smax == 0) return;
    IRRLU_TRACE_SCOPE(dev.tracer(),
                      dev.tracer() ? front_class(g.ids, sym) : "");
    if (g.prec == Precision::kF32)
      factor_group_t.template operator()<float>(
          g, g.ff.data(), g.ff12.data(), g.ff21.data(), g.ff22.data(),
          stream, lu_opts);
    else
      factor_group_t.template operator()<double>(
          g, g.f.data(), g.f12.data(), g.f21.data(), g.f22.data(), stream,
          lu_opts);
  };

  auto factor_group = [&](const FrontGroup& g) {
    factor_group_on(g, stream, lu_opts);
  };

  // `looped_gemms`: trailing fronts of `ids` whose Schur GEMM runs as a
  // dedicated launch (see FrontGroup::lead).
  auto make_group = [&](const std::vector<int>& ids,
                        int looped_gemms = 0) -> FrontGroup& {
    const Precision gp =
        ids.empty()
            ? Precision::kF64
            : level_prec_[static_cast<std::size_t>(
                  sym.fronts[static_cast<std::size_t>(ids[0])].level)];
    groups.push_back(std::make_unique<FrontGroup>(
        dev, sym, ids, storage, ipiv_offset_, ipiv_storage_.data(), gp,
        looped_gemms));
    return *groups.back();
  };

  // Factors one level's routed fronts through the interleaved pipeline:
  // each (s, u) class is packed into an SoA slab of the shared level
  // workspace, then the whole level runs as ONE launch per stage — getf2,
  // row swaps, the two TRSMs, the Schur GEMM — with every kernel
  // vectorizing across the batch index. Per-lane operation sequences
  // replicate the strided kernels exactly, so the unpacked factors are
  // bit-identical to the strided schedule's.
  auto factor_level_ilv_t = [&]<typename T>(
                                const std::map<std::pair<int, int>,
                                               std::vector<int>>& buckets) {
    struct Slab {
      int s = 0, u = 0, d = 0;
      int count = 0;  ///< lanes (fronts) in this class
      int base = 0;   ///< offset of the class within the level group
      batch::IlvViewT<T> view{nullptr, 1, 0};
    };
    std::vector<Slab> slabs;
    std::size_t total = 0;
    int smax_routed = 0;
    std::vector<int> routed_ids;
    for (const auto& [su, bids] : buckets) {
      Slab sl;
      sl.s = su.first;
      sl.u = su.second;
      sl.d = sl.s + sl.u;
      sl.count = static_cast<int>(bids.size());
      sl.base = static_cast<int>(routed_ids.size());
      total += static_cast<std::size_t>(sl.d) * sl.d *
               static_cast<std::size_t>(sl.count);
      smax_routed = std::max(smax_routed, sl.s);
      routed_ids.insert(routed_ids.end(), bids.begin(), bids.end());
      slabs.push_back(sl);
    }
    if (slabs.empty()) return;
    IRRLU_TRACE_SCOPE(dev.tracer(),
                      dev.tracer() ? front_class(routed_ids, sym) : "");
    // ONE descriptor group for the whole level's routed fronts, in bucket
    // order: every class addresses a contiguous subrange at its `base`, so
    // a level pays one set of descriptor allocations instead of one per
    // class (device allocations carry simulated cost; a deep tree has many
    // single-front classes).
    FrontGroup& g = make_group(routed_ids);
    // Distinct workspace slabs per element type, so a mixed-policy tree
    // never aliases float lanes over double ones.
    T* const ws = dev.workspace<T>(
        std::is_same_v<T, float> ? "mf.ilv.packf" : "mf.ilv.pack",
        std::max<std::size_t>(total, 1));
    T* const* const gsrc = [&] {
      if constexpr (std::is_same_v<T, float>)
        return g.ff.data();
      else
        return g.f.data();
    }();
    std::size_t off = 0;
    for (auto& sl : slabs) {
      sl.view = batch::IlvViewT<T>{ws + off, sl.d > 0 ? sl.d : 1, sl.count};
      off += static_cast<std::size_t>(sl.d) * sl.d *
             static_cast<std::size_t>(sl.count);
    }
    // Norm/growth harvest mirrors the strided group guard (count == 0 ||
    // smax == 0 -> no diagnostics), applied to the routed collection.
    const bool norms = opts.pivot_tau > 0 && smax_routed > 0;
    {
      std::vector<batch::IlvPackDescT<T>> descs;
      for (auto& sl : slabs) {
        batch::IlvPackDescT<T> d;
        d.dst = sl.view;
        d.m = sl.d;
        d.n = sl.d;
        d.lanes = sl.count;
        d.src = gsrc + sl.base;
        d.src_ld = g.ld.data() + sl.base;
        d.absmax = norms ? g.anorm.data() + sl.base : nullptr;
        descs.push_back(d);
      }
      batch::ilv_pack<T>(dev, stream, std::move(descs));
    }
    {
      std::vector<batch::IlvOpDesc> descs;
      for (auto& sl : slabs) {
        if (sl.s <= 0) continue;
        batch::IlvOpDesc d;
        d.kern = disp.resolve(
            batch::getf2_key(sl.s, sl.s, batch::kMicroPrecOf<T>));
        d.args.batch = sl.view.batch;
        d.args.c = sl.view.data;
        d.args.ldc = sl.view.ld;
        d.args.ipiv = g.ipiv.data() + sl.base;
        d.args.info = g.info.data() + sl.base;
        d.args.tau = norms ? opts.pivot_tau : 0.0;
        d.args.anorm = norms ? g.anorm.data() + sl.base : nullptr;
        d.args.boost = norms ? g.boost.data() + sl.base : nullptr;
        d.lanes = sl.count;
        d.flops_per_lane = la::getrf_flops(sl.s, sl.s) * la::flop_weight<T>;
        d.bytes_per_lane = 2.0 * sl.s * sl.s * sizeof(T) +
                           static_cast<double>(sl.s) * sizeof(int);
        descs.push_back(d);
      }
      batch::ilv_launch(dev, stream, "ilv_getf2", std::move(descs));
    }
    {
      std::vector<batch::IlvLaswpDescT<T>> descs;
      for (auto& sl : slabs) {
        if (sl.s <= 0 || sl.u <= 0) continue;
        batch::IlvLaswpDescT<T> d;
        d.view = sl.view.subview(0, sl.s);
        d.rows = sl.s;
        d.width = sl.u;
        d.lanes = sl.count;
        d.ipiv = g.ipiv.data() + sl.base;
        descs.push_back(d);
      }
      batch::ilv_laswp<T>(dev, stream, std::move(descs));
    }
    {
      std::vector<batch::IlvOpDesc> descs;
      for (auto& sl : slabs) {
        if (sl.s <= 0 || sl.u <= 0) continue;
        batch::IlvOpDesc d;
        d.kern = disp.resolve(batch::trsm_key(true, true, true, sl.s, sl.u,
                                              batch::kMicroPrecOf<T>));
        d.args.batch = sl.view.batch;
        d.args.alpha = 1.0;
        d.args.a = sl.view.data;
        d.args.lda = sl.view.ld;
        d.args.c = sl.view.sub(0, sl.s);
        d.args.ldc = sl.view.ld;
        d.lanes = sl.count;
        d.flops_per_lane = la::trsm_flops(sl.s, sl.u) * la::flop_weight<T>;
        d.bytes_per_lane = (0.5 * sl.s * sl.s + 2.0 * sl.s * sl.u) *
                           sizeof(T);
        descs.push_back(d);
      }
      batch::ilv_launch(dev, stream, "ilv_trsm_l", std::move(descs));
    }
    {
      std::vector<batch::IlvOpDesc> descs;
      for (auto& sl : slabs) {
        if (sl.s <= 0 || sl.u <= 0) continue;
        batch::IlvOpDesc d;
        d.kern = disp.resolve(batch::trsm_key(false, false, false, sl.u,
                                              sl.s, batch::kMicroPrecOf<T>));
        d.args.batch = sl.view.batch;
        d.args.alpha = 1.0;
        d.args.a = sl.view.data;
        d.args.lda = sl.view.ld;
        d.args.c = sl.view.sub(sl.s, 0);
        d.args.ldc = sl.view.ld;
        d.lanes = sl.count;
        d.flops_per_lane = la::trsm_flops(sl.s, sl.u) * la::flop_weight<T>;
        d.bytes_per_lane = (0.5 * sl.s * sl.s + 2.0 * sl.s * sl.u) *
                           sizeof(T);
        descs.push_back(d);
      }
      batch::ilv_launch(dev, stream, "ilv_trsm_r", std::move(descs));
    }
    {
      std::vector<batch::IlvOpDesc> descs;
      for (auto& sl : slabs) {
        if (sl.s <= 0 || sl.u <= 0) continue;
        batch::IlvOpDesc d;
        d.kern = disp.resolve(
            batch::gemm_key(sl.u, sl.u, sl.s, batch::kMicroPrecOf<T>));
        d.args.batch = sl.view.batch;
        d.args.alpha = -1.0;
        d.args.beta = 1.0;
        d.args.a = sl.view.sub(sl.s, 0);
        d.args.lda = sl.view.ld;
        d.args.b = sl.view.sub(0, sl.s);
        d.args.ldb = sl.view.ld;
        d.args.c = sl.view.sub(sl.s, sl.s);
        d.args.ldc = sl.view.ld;
        d.lanes = sl.count;
        d.flops_per_lane =
            la::gemm_flops(sl.u, sl.u, sl.s) * la::flop_weight<T>;
        d.bytes_per_lane =
            (2.0 * sl.u * sl.s + 2.0 * sl.u * sl.u) * sizeof(T);
        descs.push_back(d);
      }
      batch::ilv_launch(dev, stream, "ilv_schur", std::move(descs));
    }
    {
      std::vector<batch::IlvPackDescT<T>> descs;
      for (auto& sl : slabs) {
        batch::IlvPackDescT<T> d;
        d.dst = sl.view;
        d.m = sl.d;
        d.n = sl.d;
        d.lanes = sl.count;
        d.src = gsrc + sl.base;
        d.src_ld = g.ld.data() + sl.base;
        d.absmax = norms ? g.gmax.data() + sl.base : nullptr;
        descs.push_back(d);
      }
      batch::ilv_unpack<T>(dev, stream, std::move(descs));
    }
  };
  auto factor_level_ilv = [&](const std::map<std::pair<int, int>,
                                             std::vector<int>>& buckets,
                              Precision prec) {
    if (prec == Precision::kF32)
      factor_level_ilv_t.template operator()<float>(buckets);
    else
      factor_level_ilv_t.template operator()<double>(buckets);
  };

  // ---- the schedules ---------------------------------------------------
  switch (opts.engine) {
    case Engine::kBatched: {
      // Figure-14 hybrid: a part's fronts above the threshold go last, and
      // only their Schur GEMM leaves the batch (FrontGroup::lead). Which
      // fronts share a batch does not depend on the threshold, so neither
      // do the factor bits.
      auto factor_part = [&](std::vector<int> part, int s) {
        const auto looped = std::stable_partition(
            part.begin(), part.end(), [&](int id) {
              return opts.hybrid_gemm_threshold <= 0 ||
                     sym.fronts[static_cast<std::size_t>(id)].dim() <=
                         opts.hybrid_gemm_threshold;
            });
        const auto nlooped = static_cast<int>(part.end() - looped);
        factor_group_on(make_group(part, nlooped), dev.stream(s),
                        lu_opts_of[static_cast<std::size_t>(s)]);
      };
      const int deepest = static_cast<int>(sym.levels.size()) - 1;
      for (int lvl = deepest; lvl >= 0; --lvl) {
        const auto& ids = sym.levels[static_cast<std::size_t>(lvl)];
        if (ids.empty()) continue;
        trace::TraceScope level_scope(
            dev.tracer(), dev.tracer() ? "level=" + std::to_string(lvl)
                                       : std::string());
        storage.ensure_level(lvl);
        assemble(ids);
        gather_children(ids);
        // Interleaved routing takes every front whose separator AND update
        // extents fit the SoA classes; std::map keys give a deterministic
        // bucket order, so the dispatch-plan replay of a refactorization
        // sees the same key sequence. The rest run strided.
        std::map<std::pair<int, int>, std::vector<int>> buckets;
        std::vector<int> strided_ids;
        for (int id : ids) {
          const Front& fr = sym.fronts[static_cast<std::size_t>(id)];
          if (use_ilv && fr.s() <= ilv_cap && fr.u() <= ilv_cap)
            buckets[{fr.s(), fr.u()}].push_back(id);
          else
            strided_ids.push_back(id);
        }
        if (num_streams == 1) {
          factor_level_ilv(buckets,
                           level_prec_[static_cast<std::size_t>(lvl)]);
          if (!strided_ids.empty()) factor_part(std::move(strided_ids), 0);
        } else {
          // Multi-stream level processing: the level's independent fronts
          // split round-robin across streams; events fence the assembly
          // before and the extraction after.
          const gpusim::Event ready = dev.record(stream);
          std::vector<std::vector<int>> parts(
              static_cast<std::size_t>(num_streams));
          int turn = 0;
          for (int id : strided_ids)
            parts[static_cast<std::size_t>(turn++ % num_streams)]
                .push_back(id);
          for (int s = 0; s < num_streams; ++s) {
            auto& part = parts[static_cast<std::size_t>(s)];
            if (part.empty()) continue;
            if (s != 0) dev.wait(dev.stream(s), ready);
            factor_part(std::move(part), s);
          }
          for (int s = 1; s < num_streams; ++s)
            dev.wait(stream, dev.record(dev.stream(s)));
        }
        extract_factors(ids);
        if (lvl < deepest) storage.release_level(lvl + 1);
      }
      storage.release_level(0);
      break;
    }
    case Engine::kLooped:
    case Engine::kRightLooking: {
      // Postorder per-front chains; scatter to the parent right after each
      // front (the right-looking engine also synchronizes per supernode).
      for (std::size_t fi = 0; fi < nf; ++fi) {
        const int id = static_cast<int>(fi);
        trace::TraceScope level_scope(
            dev.tracer(),
            dev.tracer() ? "level=" + std::to_string(sym.fronts[fi].level)
                         : std::string());
        assemble({id});
        gather_children({id});
        factor_group(make_group({id}));
        if (opts.engine == Engine::kRightLooking) dev.synchronize(stream);
      }
      std::vector<int> all_ids(nf);
      for (std::size_t fi = 0; fi < nf; ++fi)
        all_ids[fi] = static_cast<int>(fi);
      extract_factors(all_ids);
      break;
    }
    case Engine::kLegacySmallBatch: {
      for (int lvl = static_cast<int>(sym.levels.size()) - 1; lvl >= 0;
           --lvl) {
        const auto& ids = sym.levels[static_cast<std::size_t>(lvl)];
        if (ids.empty()) continue;
        trace::TraceScope level_scope(
            dev.tracer(), dev.tracer() ? "level=" + std::to_string(lvl)
                                       : std::string());
        assemble(ids);
        gather_children(ids);
        std::vector<int> tiny, rest;
        for (int id : ids)
          (sym.fronts[static_cast<std::size_t>(id)].dim() < 32 ? tiny : rest)
              .push_back(id);
        if (!tiny.empty()) {
          factor_group(make_group(tiny));
          dev.synchronize(stream);  // v6.3.1-style per-batch sync
        }
        for (int id : rest) {
          factor_group(make_group({id}));
          dev.synchronize(stream);
        }
        extract_factors(ids);
        dev.synchronize(stream);
      }
      break;
    }
  }

  const double t1 = dev.synchronize_all();
  factor_seconds_ = t1 - t0;
  launches_ = dev.launch_count() - l0;
  syncs_ = dev.sync_count() - s0;
  sync_wait_ = dev.sync_wait_seconds() - w0;
  peak_bytes_ = dev.window_peak_bytes() - in_use0;

  // Zero-pivot reports land in whichever group factored the front; the
  // same sweep harvests the robustness diagnostics (device buffers are
  // plain host memory in the simulator, valid after synchronize_all).
  report_.fronts = static_cast<int>(nf);
  for (const auto& g : groups)
    for (int k = 0; k < g->count; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      if (g->info[ks] != 0) {
        ok_ = false;
        ++report_.zero_pivot_fronts;
      }
      report_.boosted_pivots += g->boost[ks];
      if (g->anorm[ks] > 0 && g->gmax[ks] > 0)
        report_.pivot_growth =
            std::max(report_.pivot_growth, g->gmax[ks] / g->anorm[ks]);
    }
  report_.precision_policy = opts.precision;
  report_.level_precision = level_prec_;
  for (std::size_t fi = 0; fi < nf; ++fi)
    if (level_prec_[static_cast<std::size_t>(sym.fronts[fi].level)] ==
        Precision::kF32)
      ++report_.fp32_fronts;
  report_.measured_peak_bytes = peak_bytes_;
  report_.predicted_peak_bytes = sym.predicted_peak_bytes(mode, level_prec_);
  {
    const batch::KernelCache::Stats& ds = kcache->stats();
    report_.dispatch_hits = ds.hits - dstats0.hits;
    report_.dispatch_misses = ds.misses - dstats0.misses;
    report_.dispatch_plan_hits = ds.plan_hits - dstats0.plan_hits;
  }
  n_ = a_perm.rows();
  anorm1_ = a_perm.norm_1();
  if (auto* tr = dev.tracer()) {
    tr->add_counter("factor.boosted_pivots",
                    static_cast<double>(report_.boosted_pivots));
    tr->add_counter("factor.zero_pivot_fronts",
                    static_cast<double>(report_.zero_pivot_fronts));
    tr->max_counter("factor.pivot_growth_max", report_.pivot_growth);
    tr->max_counter("memory.predicted_peak_bytes",
                    static_cast<double>(report_.predicted_peak_bytes));
    tr->max_counter("memory.measured_peak_bytes",
                    static_cast<double>(report_.measured_peak_bytes));
    // Precision counters only when the policy actually produced FP32
    // fronts, so default-policy traces (and fig10) are unchanged.
    if (report_.fp32_fronts > 0) {
      tr->add_counter("factor.fp32_fronts",
                      static_cast<double>(report_.fp32_fronts));
      tr->add_counter("factor.fp64_fronts",
                      static_cast<double>(report_.fronts -
                                          report_.fp32_fronts));
      // Per-level precision (value = mantissa width class, 32 or 64;
      // index 0 = root) so the summary JSON records exactly which levels
      // the policy kept double — the counter mirror of
      // FactorReport::level_precision.
      char lvl_name[64];
      for (std::size_t l = 0; l < report_.level_precision.size(); ++l) {
        std::snprintf(lvl_name, sizeof lvl_name,
                      "factor.level_precision.L%03zu", l);
        tr->max_counter(lvl_name,
                        report_.level_precision[l] == Precision::kF32
                            ? 32.0
                            : 64.0);
      }
    }
    if (use_ilv) {
      tr->add_counter("dispatch.hits",
                      static_cast<double>(report_.dispatch_hits));
      tr->add_counter("dispatch.misses",
                      static_cast<double>(report_.dispatch_misses));
      tr->add_counter("dispatch.plan_hits",
                      static_cast<double>(report_.dispatch_plan_hits));
      tr->max_counter("dispatch.cached",
                      static_cast<double>(kcache->size()));
    }
    // Top critical-path contributors of this factorization's launch
    // window (what-if replays skipped — they are the exporter's job).
    trace::AnalysisOptions aopts;
    aopts.what_ifs = false;
    aopts.min_launch = trace_l0;
    const trace::Analysis an = trace::analyze_trace(*tr, dev.model(), aopts);
    if (an.valid) {
      for (std::size_t i = 0; i < an.kernels.size() && i < 3; ++i) {
        if (an.kernels[i].seconds <= 0) break;
        report_.critical_path_top.push_back(
            {an.kernels[i].name, an.kernels[i].seconds});
      }
    }
  }
}

void MultifrontalFactor::solve_batched(std::vector<double>& x) const {
  const int n = static_cast<int>(x.size());
  // The scope opens before the x staging buffer so the allocation is
  // tagged "solve" rather than by call site.
  IRRLU_TRACE_SCOPE(dev_.tracer(), "solve");
  auto dx = dev_.alloc<double>(static_cast<std::size_t>(n));
  std::copy(x.begin(), x.end(), dx.data());
  double* xd = dx.data();
  auto& stream = dev_.stream();

  struct Meta {
    const double* f11;
    const double* off;  ///< L21 (forward) or U12 (backward)
    const int* piv;
    const int* upd;
    int s, u, sep_begin;
  };

  // FP32 levels are promoted into per-call double buffers by a charged
  // mf_promote launch before the triangular kernels touch them; FP64
  // levels point straight into the factor store (the pre-precision path).
  std::vector<gpusim::DeviceBuffer<double>> promoted;

  auto level_metas = [&](int lvl, bool forward) {
    auto metas = std::make_shared<std::vector<Meta>>();
    const bool f32 =
        level_prec_[static_cast<std::size_t>(lvl)] == Precision::kF32;
    double* pbase = nullptr;
    if (f32) {
      std::size_t total = 0;
      for (int id : sym_.levels[static_cast<std::size_t>(lvl)]) {
        const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
        if (fr.s() == 0) continue;
        total += static_cast<std::size_t>(fr.s()) * fr.s() +
                 2 * static_cast<std::size_t>(fr.s()) * fr.u();
      }
      promoted.push_back(dev_.alloc<double>(std::max<std::size_t>(total, 1)));
      pbase = promoted.back().data();
      std::vector<PromoteMeta> pm;
      std::size_t off = 0;
      for (int id : sym_.levels[static_cast<std::size_t>(lvl)]) {
        const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
        if (fr.s() == 0) continue;
        const std::size_t elems =
            static_cast<std::size_t>(fr.s()) * fr.s() +
            2 * static_cast<std::size_t>(fr.s()) * fr.u();
        pm.push_back({f11f(id), pbase + off, elems});
        off += elems;
      }
      promote_fp32(dev_, stream, std::move(pm));
    }
    std::size_t poff = 0;
    for (int id : sym_.levels[static_cast<std::size_t>(lvl)]) {
      const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
      if (fr.s() == 0) continue;
      const double* F11;
      const double* OFF;
      if (f32) {
        const auto ss = static_cast<std::size_t>(fr.s()) * fr.s();
        const auto su = static_cast<std::size_t>(fr.s()) * fr.u();
        F11 = pbase + poff;
        OFF = forward ? pbase + poff + ss + su : pbase + poff + ss;
        poff += ss + 2 * su;
      } else {
        F11 = f11(id);
        OFF = forward ? l21(id) : u12(id);
      }
      metas->push_back({F11, OFF, front_ipiv(id),
                        upd_storage_.data() +
                            upd_offset_[static_cast<std::size_t>(id)],
                        fr.s(), fr.u(), fr.sep_begin});
    }
    return metas;
  };

  // Forward sweep, leaves to root: x_s <- L11^{-1} P x_s;
  // x[upd] -= L21 x_s.
  for (int lvl = static_cast<int>(sym_.levels.size()) - 1; lvl >= 0;
       --lvl) {
    IRRLU_TRACE_SCOPE(dev_.tracer(), "fwd");
    auto metas = level_metas(lvl, /*forward=*/true);
    if (metas->empty()) continue;
    // Serial blocks: fronts of a level share update rows, and the
    // scatter's subtraction order is part of the result.
    dev_.launch(stream, {"mf_solve_fwd", static_cast<int>(metas->size()), 0},
                [metas, xd](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      double* xs = xd + m.sep_begin;  // contiguous separator range
      for (int r = 0; r < m.s; ++r)
        if (m.piv[r] != r) std::swap(xs[r], xs[m.piv[r]]);
      la::trsv(la::Uplo::Lower, la::Trans::No, la::Diag::Unit, m.s, m.f11,
               m.s, xs, 1);
      if (m.u > 0) {
        // tmp = L21 * x_s (L21 is u x s, leading dimension u), then
        // scatter (atomics on real hardware).
        double* tmp = solve_scratch(static_cast<std::size_t>(m.u));
        la::gemv(la::Trans::No, m.u, m.s, 1.0, m.off, m.u, xs, 1, 0.0, tmp,
                 1);
        for (int k = 0; k < m.u; ++k) xd[m.upd[k]] -= tmp[k];
      }
      ctx.record(static_cast<double>(m.s) * m.s + 2.0 * m.s * m.u,
                 (static_cast<double>(m.s) * (m.s / 2.0 + m.u) + 2.0 * m.u +
                  2.0 * m.s) *
                     sizeof(double));
    });
  }
  // Backward sweep, root to leaves: x_s <- U11^{-1}(x_s - U12 x[upd]).
  for (std::size_t lvl = 0; lvl < sym_.levels.size(); ++lvl) {
    IRRLU_TRACE_SCOPE(dev_.tracer(), "bwd");
    auto metas = level_metas(static_cast<int>(lvl), /*forward=*/false);
    if (metas->empty()) continue;
    // Independent blocks: each reads ancestor rows (final after the
    // previous level) and writes only its own separator range.
    dev_.launch(stream,
                {"mf_solve_bwd", static_cast<int>(metas->size()), 0,
                 gpusim::kIndependentBlocks},
                [metas, xd](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      double* xs = xd + m.sep_begin;
      if (m.u > 0) {
        // Gather x[upd], then x_s -= U12 * x_u (U12 is s x u, leading
        // dimension s).
        double* tmp = solve_scratch(static_cast<std::size_t>(m.u));
        for (int k = 0; k < m.u; ++k) tmp[k] = xd[m.upd[k]];
        la::gemv(la::Trans::No, m.s, m.u, -1.0, m.off, m.s, tmp, 1, 1.0, xs,
                 1);
      }
      la::trsv(la::Uplo::Upper, la::Trans::No, la::Diag::NonUnit, m.s,
               m.f11, m.s, xs, 1);
      ctx.record(static_cast<double>(m.s) * m.s + 2.0 * m.s * m.u,
                 (static_cast<double>(m.s) * (m.s / 2.0 + m.u) + 2.0 * m.u +
                  2.0 * m.s) *
                     sizeof(double));
    });
  }
  dev_.synchronize(stream);
  std::copy(dx.data(), dx.data() + n, x.begin());
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
  // The scope opens before any staging allocation so every buffer of the
  // interleaved sweep is tagged "solve_many".
  IRRLU_TRACE_SCOPE(dev_.tracer(), "solve_many");
  auto& stream = dev_.stream();
  const int ldx = n_;
  const std::size_t xelems =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(nrhs);
  auto dx = dev_.alloc<double>(xelems);
  std::copy(x, x + xelems, dx.data());
  double* xd = dx.data();

  // Host-side per-front metadata for the gather/scatter kernels (the
  // solve_batched Meta idiom) plus device descriptor arrays for the
  // irrTRSM / irrGEMM calls. Every front of a level stages its dim x nrhs
  // right-hand-side block once; the triangular solve and the
  // separator/update coupling then run over the whole level as ONE
  // irregular batch, so the factor blocks are read once per front per
  // sweep instead of once per RHS.
  struct Meta {
    double* stage;   ///< this front's dim x nrhs staging block (ld = dim)
    const int* upd;  ///< update-row indices (permuted space)
    const int* pg;   ///< pivoted gather order for the separator rows
    int s, u, sep_begin;
  };
  struct LevelBatch {
    int bs = 0;  ///< fronts with s > 0
    int max_s = 0, max_u = 0;
    std::shared_ptr<std::vector<Meta>> metas;
    gpusim::DeviceBuffer<double> stage;
    gpusim::DeviceBuffer<double> promoted;  ///< FP64 view of an FP32 level
    gpusim::DeviceBuffer<int> pgather;  ///< concatenated pivot orders
    gpusim::DeviceBuffer<const double*> f11_p, l21_p, u12_p;
    gpusim::DeviceBuffer<double*> top_p, bot_p;
    gpusim::DeviceBuffer<int> f11_ld, l21_ld, u12_ld, stage_ld, s_vec, u_vec,
        nrhs_vec;
  };

  const int nlevels = static_cast<int>(sym_.levels.size());
  std::vector<LevelBatch> lvls(static_cast<std::size_t>(nlevels));
  for (int lvl = 0; lvl < nlevels; ++lvl) {
    LevelBatch& L = lvls[static_cast<std::size_t>(lvl)];
    std::size_t stage_elems = 0, pg_total = 0;
    for (int id : sym_.levels[static_cast<std::size_t>(lvl)]) {
      const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
      if (fr.s() == 0) continue;
      ++L.bs;
      L.max_s = std::max(L.max_s, fr.s());
      L.max_u = std::max(L.max_u, fr.u());
      stage_elems += static_cast<std::size_t>(fr.dim()) *
                     static_cast<std::size_t>(nrhs);
      pg_total += static_cast<std::size_t>(fr.s());
    }
    if (L.bs == 0) continue;
    const auto bsz = static_cast<std::size_t>(L.bs);
    const bool f32 =
        level_prec_[static_cast<std::size_t>(lvl)] == Precision::kF32;
    double* pbase = nullptr;
    if (f32) {
      // One promotion per level per call: both sweeps read the same
      // FP64 view.
      std::size_t total = 0;
      for (int id : sym_.levels[static_cast<std::size_t>(lvl)]) {
        const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
        if (fr.s() == 0) continue;
        total += static_cast<std::size_t>(fr.s()) * fr.s() +
                 2 * static_cast<std::size_t>(fr.s()) * fr.u();
      }
      L.promoted = dev_.alloc<double>(std::max<std::size_t>(total, 1));
      pbase = L.promoted.data();
      std::vector<PromoteMeta> pm;
      std::size_t off = 0;
      for (int id : sym_.levels[static_cast<std::size_t>(lvl)]) {
        const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
        if (fr.s() == 0) continue;
        const std::size_t elems =
            static_cast<std::size_t>(fr.s()) * fr.s() +
            2 * static_cast<std::size_t>(fr.s()) * fr.u();
        pm.push_back({f11f(id), pbase + off, elems});
        off += elems;
      }
      promote_fp32(dev_, stream, std::move(pm));
    }
    L.stage = dev_.alloc<double>(stage_elems);
    L.pgather = dev_.alloc<int>(pg_total);
    L.f11_p = dev_.alloc<const double*>(bsz);
    L.l21_p = dev_.alloc<const double*>(bsz);
    L.u12_p = dev_.alloc<const double*>(bsz);
    L.top_p = dev_.alloc<double*>(bsz);
    L.bot_p = dev_.alloc<double*>(bsz);
    L.f11_ld = dev_.alloc<int>(bsz);
    L.l21_ld = dev_.alloc<int>(bsz);
    L.u12_ld = dev_.alloc<int>(bsz);
    L.stage_ld = dev_.alloc<int>(bsz);
    L.s_vec = dev_.alloc<int>(bsz);
    L.u_vec = dev_.alloc<int>(bsz);
    L.nrhs_vec = dev_.alloc<int>(bsz);
    L.metas = std::make_shared<std::vector<Meta>>();
    L.metas->reserve(bsz);
    std::size_t so = 0, po = 0;
    std::size_t i = 0;
    for (int id : sym_.levels[static_cast<std::size_t>(lvl)]) {
      const Front& fr = sym_.fronts[static_cast<std::size_t>(id)];
      const int s = fr.s(), u = fr.u(), dim = fr.dim();
      if (s == 0) continue;
      double* st = L.stage.data() + so;
      int* pg = L.pgather.data() + po;
      // The sequential pivot swaps of the scalar solve, applied to an
      // identity index array, yield the gather order that produces the
      // same permuted vector in one pass.
      for (int r = 0; r < s; ++r) pg[r] = r;
      const int* piv = front_ipiv(id);
      for (int r = 0; r < s; ++r)
        if (piv[r] != r) std::swap(pg[r], pg[piv[r]]);
      if (f32) {
        const auto ss = static_cast<std::size_t>(s) * s;
        const auto su = static_cast<std::size_t>(s) * u;
        L.f11_p[i] = pbase;
        L.u12_p[i] = pbase + ss;
        L.l21_p[i] = pbase + ss + su;
        pbase += ss + 2 * su;
      } else {
        L.f11_p[i] = f11(id);
        L.l21_p[i] = l21(id);
        L.u12_p[i] = u12(id);
      }
      L.top_p[i] = st;
      L.bot_p[i] = st + s;
      L.f11_ld[i] = s;
      L.l21_ld[i] = u > 0 ? u : 1;
      L.u12_ld[i] = s;
      L.stage_ld[i] = dim;
      L.s_vec[i] = s;
      L.u_vec[i] = u;
      L.nrhs_vec[i] = nrhs;
      L.metas->push_back(
          {st, upd_storage_.data() + upd_offset_[static_cast<std::size_t>(id)],
           pg, s, u, fr.sep_begin});
      so += static_cast<std::size_t>(dim) * static_cast<std::size_t>(nrhs);
      po += static_cast<std::size_t>(s);
      ++i;
    }
  }

  // Forward sweep, leaves to root: stage <- P x_s; stage <- L11^{-1} stage
  // (irrTRSM over the level); bottom <- L21 * top (irrGEMM); x[upd] -=
  // bottom (scatter; atomics on real hardware, sequential blocks in the
  // simulator — the same contract solve_batched documents).
  for (int lvl = nlevels - 1; lvl >= 0; --lvl) {
    const LevelBatch& L = lvls[static_cast<std::size_t>(lvl)];
    if (L.bs == 0) continue;
    IRRLU_TRACE_SCOPE(dev_.tracer(), "fwd");
    auto metas = L.metas;
    dev_.launch(stream,
                {"mf_many_gather_fwd", L.bs, 0, gpusim::kIndependentBlocks},
                [metas, xd, ldx, nrhs](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      const int dim = m.s + m.u;
      for (int j = 0; j < nrhs; ++j) {
        const double* xc = xd + static_cast<std::ptrdiff_t>(j) * ldx +
                           m.sep_begin;
        double* sc = m.stage + static_cast<std::ptrdiff_t>(j) * dim;
        for (int r = 0; r < m.s; ++r) sc[r] = xc[m.pg[r]];
      }
      ctx.record(0.0, 2.0 * m.s * nrhs * sizeof(double) +
                          static_cast<double>(m.s) * sizeof(int));
    });
    batch::irr_trsm(dev_, stream, la::Side::Left, la::Uplo::Lower,
                    la::Trans::No, la::Diag::Unit, L.max_s, nrhs, 1.0,
                    L.f11_p.data(), L.f11_ld.data(), 0, 0, L.top_p.data(),
                    L.stage_ld.data(), 0, 0, L.s_vec.data(),
                    L.nrhs_vec.data(), L.bs);
    if (L.max_u > 0)
      batch::irr_gemm(dev_, stream, la::Trans::No, la::Trans::No, L.max_u,
                      nrhs, L.max_s, 1.0, L.l21_p.data(), L.l21_ld.data(), 0,
                      0, const_cast<const double* const*>(L.top_p.data()),
                      L.stage_ld.data(), 0, 0, 0.0, L.bot_p.data(),
                      L.stage_ld.data(), 0, 0, L.u_vec.data(),
                      L.nrhs_vec.data(), L.s_vec.data(), L.bs);
    dev_.launch(stream, {"mf_many_scatter_fwd", L.bs, 0},
                [metas, xd, ldx, nrhs](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      const int dim = m.s + m.u;
      for (int j = 0; j < nrhs; ++j) {
        double* xc = xd + static_cast<std::ptrdiff_t>(j) * ldx;
        const double* sc = m.stage + static_cast<std::ptrdiff_t>(j) * dim;
        for (int r = 0; r < m.s; ++r) xc[m.sep_begin + r] = sc[r];
        for (int k = 0; k < m.u; ++k) xc[m.upd[k]] -= sc[m.s + k];
      }
      ctx.record(static_cast<double>(m.u) * nrhs,
                 (2.0 * m.s + 3.0 * m.u) * nrhs * sizeof(double) +
                     static_cast<double>(m.u) * sizeof(int));
    });
  }

  // Backward sweep, root to leaves: top <- x_s, bottom <- x[upd] (gather);
  // top -= U12 * bottom (irrGEMM); top <- U11^{-1} top (irrTRSM); x_s <-
  // top (scatter; separator ranges are disjoint, plain stores).
  for (int lvl = 0; lvl < nlevels; ++lvl) {
    const LevelBatch& L = lvls[static_cast<std::size_t>(lvl)];
    if (L.bs == 0) continue;
    IRRLU_TRACE_SCOPE(dev_.tracer(), "bwd");
    auto metas = L.metas;
    dev_.launch(stream,
                {"mf_many_gather_bwd", L.bs, 0, gpusim::kIndependentBlocks},
                [metas, xd, ldx, nrhs](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      const int dim = m.s + m.u;
      for (int j = 0; j < nrhs; ++j) {
        const double* xc = xd + static_cast<std::ptrdiff_t>(j) * ldx;
        double* sc = m.stage + static_cast<std::ptrdiff_t>(j) * dim;
        for (int r = 0; r < m.s; ++r) sc[r] = xc[m.sep_begin + r];
        for (int k = 0; k < m.u; ++k) sc[m.s + k] = xc[m.upd[k]];
      }
      ctx.record(0.0, 2.0 * (m.s + m.u) * nrhs * sizeof(double) +
                          static_cast<double>(m.u) * sizeof(int));
    });
    if (L.max_u > 0)
      batch::irr_gemm(dev_, stream, la::Trans::No, la::Trans::No, L.max_s,
                      nrhs, L.max_u, -1.0, L.u12_p.data(), L.u12_ld.data(), 0,
                      0, const_cast<const double* const*>(L.bot_p.data()),
                      L.stage_ld.data(), 0, 0, 1.0, L.top_p.data(),
                      L.stage_ld.data(), 0, 0, L.s_vec.data(),
                      L.nrhs_vec.data(), L.u_vec.data(), L.bs);
    batch::irr_trsm(dev_, stream, la::Side::Left, la::Uplo::Upper,
                    la::Trans::No, la::Diag::NonUnit, L.max_s, nrhs, 1.0,
                    L.f11_p.data(), L.f11_ld.data(), 0, 0, L.top_p.data(),
                    L.stage_ld.data(), 0, 0, L.s_vec.data(),
                    L.nrhs_vec.data(), L.bs);
    dev_.launch(stream,
                {"mf_many_scatter_bwd", L.bs, 0, gpusim::kIndependentBlocks},
                [metas, xd, ldx, nrhs](gpusim::BlockCtx& ctx) {
      const Meta& m = (*metas)[static_cast<std::size_t>(ctx.block())];
      const int dim = m.s + m.u;
      for (int j = 0; j < nrhs; ++j) {
        double* xc = xd + static_cast<std::ptrdiff_t>(j) * ldx;
        const double* sc = m.stage + static_cast<std::ptrdiff_t>(j) * dim;
        for (int r = 0; r < m.s; ++r) xc[m.sep_begin + r] = sc[r];
      }
      ctx.record(0.0, 2.0 * m.s * nrhs * sizeof(double));
    });
  }

  dev_.synchronize(stream);
  std::copy(dx.data(), dx.data() + xelems, x);
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
