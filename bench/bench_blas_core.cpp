// Host BLAS core perf trajectory: packed micro-kernel engine vs the
// retained naive reference (la::ref), swept over a Figure-13-style front
// size distribution plus odd padded-ld shapes, in both precisions.
//
// Unlike the fig*/table* drivers this benchmark measures *host wall
// clock*, not simulated device time: the packed engine is a host-side
// optimization and by construction cannot move any simulated number (see
// DESIGN.md, "Host execution performance"). Results go to a
// machine-readable BENCH_blas.json (schema documented in bench_util.hpp)
// so the perf trajectory is tracked PR over PR.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "gpusim/device.hpp"
#include "irrblas/interleaved.hpp"
#include "irrblas/irr_kernels.hpp"
#include "irrblas/vbatch.hpp"
#include "lapack/blas.hpp"
#include "lapack/flops.hpp"
#include "lapack/lapack.hpp"
#include "lapack/microkernel_ilv.hpp"

namespace la = irrlu::la;
namespace batch = irrlu::batch;
using irrlu::Rng;
using irrlu::WallTimer;
using irrlu::gpusim::Device;
using irrlu::gpusim::DeviceModel;

namespace {

const char* tr_name(la::Trans t) { return t == la::Trans::No ? "N" : "T"; }

/// One timed shape class. Fronts in the multifrontal tree (Fig. 13) range
/// from thousands of tiny leaves through mid-tree panels to a handful of
/// large separators near the root; each class is a representative
/// (separator s, update u) pair mapped onto the GEMM Schur update
/// (u x u x s) or the TRSM panel solve (s x u). The odd classes are
/// LIBXSMM wrap-test shapes (SNIPPETS.md snippet 1): extents off every
/// tile multiple with padded leading dimensions, alone and as a batch of
/// independent same-shape calls.
struct ShapeClass {
  std::string name;
  std::string op;  // "gemm" | "trsm"
  la::Trans transa = la::Trans::No, transb = la::Trans::No;
  la::Side side = la::Side::Left;
  la::Uplo uplo = la::Uplo::Lower;
  int m = 0, n = 0, k = 0;  // trsm ignores k
  int ld = 0;               // leading dimension floor (0: tight)
  int batch = 1;            // independent same-shape calls per timed call
  double alpha = -1.0, beta = 1.0;  // gemm scalars
  std::string prec = "f64";         // "f64" | "f32"
  double flops() const {
    return batch * (op == "gemm"
                        ? la::gemm_flops(m, n, k)
                        : la::trsm_flops(side == la::Side::Left ? m : n,
                                         side == la::Side::Left ? n : m));
  }
};

/// Median wall-clock nanoseconds of `body` over enough repetitions to be
/// stable (work-scaled rep count, odd so the median is a real sample).
template <typename F>
double median_ns_for(double flops, int rep_scale, F&& body) {
  int reps = static_cast<int>(2e8 / (flops + 1e3) / rep_scale);
  reps = std::clamp(reps, 5, 201) | 1;
  std::vector<double> ns(static_cast<std::size_t>(reps));
  // Warm up on wall time, not a fixed rep count: the microsecond-scale
  // classes need a few ms of sustained work before the core settles at its
  // steady-state frequency, and a single call lands mid-ramp (~2x high).
  {
    WallTimer warm;
    do body();
    while (warm.seconds() < 5e-3);
  }
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    body();
    ns[static_cast<std::size_t>(r)] = t.seconds() * 1e9;
  }
  std::nth_element(ns.begin(), ns.begin() + reps / 2, ns.end());
  return ns[static_cast<std::size_t>(reps) / 2];
}

struct Result {
  ShapeClass c;
  double engine_ns, naive_ns;
};

template <typename T>
Result run_class_t(const ShapeClass& c, int rep_scale) {
  Rng rng(4242);
  Result res{c, 0, 0};
  const auto fill = [&](std::vector<T>& v) {
    for (auto& x : v) x = static_cast<T>(rng.uniform(-1, 1));
  };
  const auto at = [](std::vector<T>& v, std::size_t stride, int i) {
    return v.data() + stride * static_cast<std::size_t>(i);
  };
  if (c.op == "gemm") {
    const int ar = c.transa == la::Trans::No ? c.m : c.k;
    const int ac = c.transa == la::Trans::No ? c.k : c.m;
    const int br = c.transb == la::Trans::No ? c.k : c.n;
    const int bc = c.transb == la::Trans::No ? c.n : c.k;
    const int lda = std::max(ar, c.ld), ldb = std::max(br, c.ld);
    const int ldc = std::max(c.m, c.ld);
    const std::size_t sa = static_cast<std::size_t>(lda) * ac;
    const std::size_t sb = static_cast<std::size_t>(ldb) * bc;
    const std::size_t sc = static_cast<std::size_t>(ldc) * c.n;
    std::vector<T> a(sa * c.batch), b(sb * c.batch), cc(sc * c.batch, T(0));
    fill(a);
    fill(b);
    const T alpha = static_cast<T>(c.alpha), beta = static_cast<T>(c.beta);
    res.engine_ns = median_ns_for(c.flops(), rep_scale, [&] {
      for (int i = 0; i < c.batch; ++i)
        la::gemm(c.transa, c.transb, c.m, c.n, c.k, alpha, at(a, sa, i), lda,
                 at(b, sb, i), ldb, beta, at(cc, sc, i), ldc);
    });
    res.naive_ns = median_ns_for(c.flops(), rep_scale, [&] {
      for (int i = 0; i < c.batch; ++i)
        la::ref::gemm(c.transa, c.transb, c.m, c.n, c.k, alpha, at(a, sa, i),
                      lda, at(b, sb, i), ldb, beta, at(cc, sc, i), ldc);
    });
  } else {
    const int ta = c.side == la::Side::Left ? c.m : c.n;
    std::vector<T> t(static_cast<std::size_t>(ta) * ta),
        b0(static_cast<std::size_t>(c.m) * c.n);
    fill(t);
    for (int i = 0; i < ta; ++i) t[static_cast<std::size_t>(i) * ta + i] += 4;
    fill(b0);
    std::vector<T> x = b0;
    res.engine_ns = median_ns_for(c.flops(), rep_scale, [&] {
      x = b0;
      la::trsm(c.side, c.uplo, la::Trans::No, la::Diag::NonUnit, c.m, c.n,
               T(1), t.data(), ta, x.data(), c.m);
    });
    res.naive_ns = median_ns_for(c.flops(), rep_scale, [&] {
      x = b0;
      la::ref::trsm(c.side, c.uplo, la::Trans::No, la::Diag::NonUnit, c.m,
                    c.n, T(1), t.data(), ta, x.data(), c.m);
    });
  }
  return res;
}

Result run_class(const ShapeClass& c, int rep_scale) {
  return c.prec == "f32" ? run_class_t<float>(c, rep_scale)
                         : run_class_t<double>(c, rep_scale);
}

/// One interleaved (SoA) leaf class: `batch` same-shape matrices with the
/// batch index innermost (DESIGN.md §12). The contender is the interleaved
/// launch (irr_*_ilv); the baseline is the strided engine path the
/// multifrontal router would otherwise take for the same fronts —
/// irr_getrf / irr_trsm / irr_gemm on the simulated device, whose
/// per-matrix block scheduling is exactly the overhead the SoA layout
/// amortizes (the paper's small-size regime). Same math, same bits
/// (asserted; the ctest suite pins this contract at every size).
struct IlvClass {
  std::string name;
  std::string op;  // "gemm" | "trsm" | "getf2"
  la::Side side = la::Side::Left;
  la::Uplo uplo = la::Uplo::Lower;
  la::Diag diag = la::Diag::NonUnit;
  int m = 0, n = 0, k = 0, batch = 0;
  std::string prec = "f64";  // "f64" | "f32" — element type of both sides
  double flops() const {
    const double per =
        op == "gemm"   ? la::gemm_flops(m, n, k)
        : op == "trsm" ? la::trsm_flops(side == la::Side::Left ? m : n,
                                        side == la::Side::Left ? n : m)
                       : la::getrf_flops(m, n);
    return per * batch;
  }
};

struct IlvResult {
  IlvClass c;
  double ilv_ns, strided_ns;
  bool bits_match = true;
};

/// Packs a uniform strided batch into an interleaved class buffer through
/// the device pack kernel.
template <typename T>
void pack_batch(Device& dev, const batch::VBatch<T>& src,
                batch::InterleavedBatch<T>& dst) {
  batch::IlvPackDescT<T> d;
  d.dst = dst.view();
  d.m = dst.m();
  d.n = dst.n();
  d.lanes = src.batch_size();
  d.src = src.ptrs();
  d.src_ld = src.lda();
  batch::ilv_pack<T>(dev, dev.stream(), {d});
}

/// Lane-by-lane bitwise comparison of an interleaved buffer against the
/// strided batch.
template <typename T>
bool ilv_bits_equal(const batch::VBatch<T>& str,
                    const batch::InterleavedBatch<T>& ilv) {
  for (int i = 0; i < str.batch_size(); ++i) {
    const auto v = str.view(i);
    for (int col = 0; col < ilv.n(); ++col)
      for (int r = 0; r < ilv.m(); ++r)
        if (ilv.at(r, col, i) != v(r, col)) return false;
  }
  return true;
}

template <typename T>
IlvResult run_ilv_class_t(const IlvClass& c, int rep_scale) {
  Rng rng(777u + static_cast<unsigned>(c.m + 64 * c.n));
  IlvResult res{c, 0, 0, true};
  const int bs = c.batch;
  Device dev(DeviceModel::a100());
  auto& stream = dev.stream();
  const auto sizes = [bs](int d) {
    return std::vector<int>(static_cast<std::size_t>(bs), d);
  };

  if (c.op == "gemm") {
    batch::VBatch<T> a(dev, sizes(c.m), sizes(c.k)),
        b(dev, sizes(c.k), sizes(c.n)), cc(dev, sizes(c.m), sizes(c.n));
    a.fill_uniform(rng);
    b.fill_uniform(rng);
    cc.fill_uniform(rng);
    batch::InterleavedBatch<T> ai(dev, c.m, c.k, bs), bi(dev, c.k, c.n, bs),
        ci(dev, c.m, c.n, bs);
    pack_batch(dev, a, ai);
    pack_batch(dev, b, bi);
    pack_batch(dev, cc, ci);
    // beta == 1 accumulates, so restore C every rep to keep the two sides
    // bit-comparable regardless of how many warm-up reps each one ran.
    const std::size_t nc = static_cast<std::size_t>(c.m) * c.n * bs;
    const std::vector<T> ci0(ci.data(), ci.data() + nc);
    batch::VBatch<T> cc0(dev, sizes(c.m), sizes(c.n));
    cc0.copy_from(cc);
    res.ilv_ns = median_ns_for(c.flops(), rep_scale, [&] {
      std::copy(ci0.begin(), ci0.end(), ci.data());
      batch::irr_gemm_ilv<T>(dev, stream, c.m, c.n, c.k, -1.0, ai.view(),
                             bi.view(), 1.0, ci.view(), bs);
    });
    res.strided_ns = median_ns_for(c.flops(), rep_scale, [&] {
      cc.copy_from(cc0);
      batch::irr_gemm<T>(
          dev, stream, la::Trans::No, la::Trans::No, c.m, c.n, c.k, T(-1),
          a.ptrs(), a.lda(), 0, 0, b.ptrs(), b.lda(), 0, 0, T(1), cc.ptrs(),
          cc.lda(), 0, 0, cc.m_vec(), cc.n_vec(), a.n_vec(), bs);
    });
    dev.synchronize_all();
    res.bits_match = ilv_bits_equal(cc, ci);
  } else if (c.op == "trsm") {
    const int tri = c.side == la::Side::Left ? c.m : c.n;
    batch::VBatch<T> t(dev, sizes(tri), sizes(tri)),
        b(dev, sizes(c.m), sizes(c.n));
    t.fill_uniform(rng);
    for (int i = 0; i < bs; ++i) {
      auto v = t.view(i);
      for (int d = 0; d < tri; ++d) v(d, d) += T(4);
    }
    b.fill_uniform(rng);
    batch::InterleavedBatch<T> ti(dev, tri, tri, bs), bi(dev, c.m, c.n, bs);
    pack_batch(dev, t, ti);
    pack_batch(dev, b, bi);
    const std::size_t nb = static_cast<std::size_t>(c.m) * c.n * bs;
    const std::vector<T> bi0(bi.data(), bi.data() + nb);
    batch::VBatch<T> b0(dev, sizes(c.m), sizes(c.n));
    b0.copy_from(b);
    res.ilv_ns = median_ns_for(c.flops(), rep_scale, [&] {
      std::copy(bi0.begin(), bi0.end(), bi.data());
      batch::irr_trsm_ilv<T>(dev, stream, c.side, c.uplo, c.diag, c.m, c.n,
                             1.0, ti.view(), bi.view(), bs);
    });
    res.strided_ns = median_ns_for(c.flops(), rep_scale, [&] {
      b.copy_from(b0);
      batch::irr_trsm<T>(
          dev, stream, c.side, c.uplo, la::Trans::No, c.diag, c.m, c.n, T(1),
          const_cast<T const* const*>(t.ptrs()), t.lda(), 0, 0, b.ptrs(),
          b.lda(), 0, 0, b.m_vec(), b.n_vec(), bs);
    });
    dev.synchronize_all();
    res.bits_match = ilv_bits_equal(b, bi);
  } else {  // getf2
    batch::VBatch<T> a(dev, sizes(c.m), sizes(c.n));
    a.fill_uniform(rng);
    batch::InterleavedBatch<T> ai(dev, c.m, c.n, bs);
    pack_batch(dev, a, ai);
    const std::size_t na = static_cast<std::size_t>(c.m) * c.n * bs;
    const std::vector<T> ai0(ai.data(), ai.data() + na);
    batch::VBatch<T> a0(dev, sizes(c.m), sizes(c.n));
    a0.copy_from(a);
    batch::PivotBatch piv_ilv(dev, sizes(c.m), sizes(c.n)),
        piv_str(dev, sizes(c.m), sizes(c.n));
    res.ilv_ns = median_ns_for(c.flops(), rep_scale, [&] {
      std::copy(ai0.begin(), ai0.end(), ai.data());
      batch::irr_getf2_ilv<T>(dev, stream, ai.view(), c.m, c.n, bs,
                              piv_ilv.ptrs(), piv_ilv.info());
    });
    const batch::IrrLuOptions lu;  // nb = 32 >= leaf dims: fused panel path
    res.strided_ns = median_ns_for(c.flops(), rep_scale, [&] {
      a.copy_from(a0);
      batch::irr_getrf<T>(dev, stream, c.m, c.n, a.ptrs(), a.lda(), 0, 0,
                          a.m_vec(), a.n_vec(), piv_str.ptrs(),
                          piv_str.info(), bs, lu);
    });
    dev.synchronize_all();
    res.bits_match = ilv_bits_equal(a, ai);
    for (int i = 0; i < bs && res.bits_match; ++i) {
      if (piv_str.info()[i] != piv_ilv.info()[i]) res.bits_match = false;
      for (int j = 0; j < std::min(c.m, c.n) && res.bits_match; ++j)
        if (piv_str.ipiv_of(i)[j] != piv_ilv.ipiv_of(i)[j])
          res.bits_match = false;
    }
  }
  return res;
}

IlvResult run_ilv_class(const IlvClass& c, int rep_scale) {
  return c.prec == "f32" ? run_ilv_class_t<float>(c, rep_scale)
                         : run_ilv_class_t<double>(c, rep_scale);
}

}  // namespace

int main(int argc, char** argv) {
  irrlu::CliArgs args(argc, argv);
  const std::string out = args.get_string("out", "BENCH_blas.json");
  // --quick shrinks rep counts for smoke runs; default is still seconds.
  const int rep_scale = args.get_bool("quick") ? 8 : 1;

  // Figure-13-style front distribution: (s, u) representative pairs from
  // leaf to root, GEMM Schur updates u x u x s in all four transpose
  // combinations at the mid size, plus the TRSM panel classes.
  std::vector<ShapeClass> classes;
  const struct { const char* tag; int s, u; } fronts[] = {
      {"leaf", 16, 24}, {"mid", 64, 96}, {"sep", 128, 160}, {"root", 256, 320},
  };
  for (const auto& f : fronts)
    classes.push_back({std::string("gemm_nn_") + f.tag, "gemm", la::Trans::No,
                       la::Trans::No, la::Side::Left, la::Uplo::Lower, f.u,
                       f.u, f.s});
  // LIBXSMM wrap-test shapes (m, n, k, ld, batch, alpha, beta), alone and
  // as a batch.
  const struct { const char* tag; int m, n, k, ld, batch; double alpha, beta; }
      odd[] = {{"24x23x21", 24, 23, 21, 32, 999, -1.0, 0.5},
               {"35x16x20", 35, 16, 20, 35, 1024, 1.0, 0.0}};
  for (const auto& o : odd)
    for (int bs : {1, o.batch}) {
      ShapeClass c{std::string("gemm_odd_") + o.tag, "gemm", la::Trans::No,
                   la::Trans::No, la::Side::Left, la::Uplo::Lower, o.m, o.n,
                   o.k};
      if (bs > 1) c.name += "_batch";
      c.ld = o.ld;
      c.batch = bs;
      c.alpha = o.alpha;
      c.beta = o.beta;
      classes.push_back(c);
    }
  for (la::Trans ta : {la::Trans::No, la::Trans::Yes})
    for (la::Trans tb : {la::Trans::No, la::Trans::Yes}) {
      if (ta == la::Trans::No && tb == la::Trans::No) continue;
      classes.push_back({std::string("gemm_") +
                             (ta == la::Trans::No ? "n" : "t") +
                             (tb == la::Trans::No ? "n" : "t") + "_mid",
                         "gemm", ta, tb, la::Side::Left, la::Uplo::Lower, 96,
                         96, 64});
    }
  for (const auto& f : fronts) {
    classes.push_back({std::string("trsm_ll_") + f.tag, "trsm", la::Trans::No,
                       la::Trans::No, la::Side::Left, la::Uplo::Lower, f.s,
                       f.u, 0});
    classes.push_back({std::string("trsm_ru_") + f.tag, "trsm", la::Trans::No,
                       la::Trans::No, la::Side::Right, la::Uplo::Upper, f.u,
                       f.s, 0});
  }
  // FP32 twin of every strided class: the element type the mixed-precision
  // factor levels run through the same engine (DESIGN.md §14).
  {
    const std::size_t nd = classes.size();
    for (std::size_t i = 0; i < nd; ++i) {
      ShapeClass f = classes[i];
      f.name += "_f32";
      f.prec = "f32";
      classes.push_back(std::move(f));
    }
  }

  irrlu::TextTable table({"class", "shape", "batch", "engine ns",
                          "naive ns", "engine GF/s", "speedup"});
  std::vector<Result> results;
  for (const auto& c : classes) {
    results.push_back(run_class(c, rep_scale));
    const Result& r = results.back();
    char shape[64];
    std::snprintf(shape, sizeof shape, "%dx%dx%d", c.m, c.n, c.k);
    table.add_row(c.name, shape, irrlu::TextTable::fmt(c.batch, 0),
                  irrlu::TextTable::fmt(r.engine_ns, 0),
                  irrlu::TextTable::fmt(r.naive_ns, 0),
                  irrlu::TextTable::fmt(c.flops() / r.engine_ns, 2),
                  irrlu::TextTable::fmt(r.naive_ns / r.engine_ns, 2));
  }
  table.print();

  // Interleaved (SoA) leaf classes at a Figure-13-plausible lane count:
  // one batch-axis-vectorized microkernel sweep vs the strided engine
  // path called per matrix. Lane results are bit-identical by contract
  // (checked here; nonzero exit on violation) — the wall-clock ratio is
  // pure memory-layout effect.
  // Leaf-class shapes sit below the measured host crossover (~12 on the
  // AVX-512 dev box): above it the SoA lane stride (batch * 8 B per row
  // step) defeats the packed engine's contiguous tiles, below it the
  // per-matrix scheduling overhead of the strided engine dominates and
  // the batch-axis vectorization wins — the paper's small-size regime,
  // and the same threshold InterleavedOptions::max_class_dim defaults to.
  const int ilv_batch = 64;
  std::vector<IlvClass> ilv_classes{
      {"interleaved_getf2_leaf", "getf2", la::Side::Left, la::Uplo::Lower,
       la::Diag::NonUnit, 8, 8, 0, ilv_batch},
      {"interleaved_gemm_nn_leaf", "gemm", la::Side::Left, la::Uplo::Lower,
       la::Diag::NonUnit, 8, 8, 4, ilv_batch},
      {"interleaved_trsm_ll_leaf", "trsm", la::Side::Left, la::Uplo::Lower,
       la::Diag::Unit, 8, 12, 0, ilv_batch},
      {"interleaved_trsm_ru_leaf", "trsm", la::Side::Right, la::Uplo::Upper,
       la::Diag::NonUnit, 6, 9, 0, ilv_batch},
  };
  // FP32 twins of the same classes (DESIGN.md §14): the element type the
  // mixed-precision factor levels run in. Same SoA-vs-strided contract —
  // per-lane bits must match between the two float paths; the fp64 : fp32
  // ns ratio row-to-row is the single-precision throughput win the LU-IR
  // policy banks on (half the bytes per lane step, twice the SIMD lanes).
  {
    const std::size_t nd = ilv_classes.size();
    for (std::size_t i = 0; i < nd; ++i) {
      IlvClass f = ilv_classes[i];
      f.name += "_f32";
      f.prec = "f32";
      ilv_classes.push_back(std::move(f));
    }
  }
  bool ok = true;
  irrlu::TextTable ilv_table({"class", "shape", "batch", "prec", "ilv ns",
                              "strided ns", "speedup", "bits"});
  std::vector<IlvResult> ilv_results;
  for (const auto& c : ilv_classes) {
    ilv_results.push_back(run_ilv_class(c, rep_scale));
    const IlvResult& r = ilv_results.back();
    ok = ok && r.bits_match;
    char shape[64];
    std::snprintf(shape, sizeof shape, "%dx%dx%d", c.m, c.n, c.k);
    ilv_table.add_row(c.name, shape, irrlu::TextTable::fmt(c.batch, 0),
                      c.prec, irrlu::TextTable::fmt(r.ilv_ns, 0),
                      irrlu::TextTable::fmt(r.strided_ns, 0),
                      irrlu::TextTable::fmt(r.strided_ns / r.ilv_ns, 2),
                      r.bits_match ? "match" : "MISMATCH");
  }
  std::printf("\n");
  ilv_table.print();

  FILE* f = std::fopen(out.c_str(), "w");
  IRRLU_CHECK_MSG(f != nullptr, "cannot open " << out);
  irrlu::json::Writer w(f);
  w.begin_object();
  w.kv("schema", "irrlu-bench-blas-v1");
  irrlu::bench::write_bench_meta(w);
  w.kv("unit", "ns");
  w.key("classes");
  w.begin_array();
  for (const Result& r : results) {
    const ShapeClass& c = r.c;
    w.begin_object(/*compact=*/true);
    w.kv("name", c.name);
    w.kv("op", c.op);
    w.kv("transa", tr_name(c.transa));
    w.kv("transb", tr_name(c.transb));
    w.kv("side", c.side == la::Side::Left ? "L" : "R");
    w.kv("uplo", c.uplo == la::Uplo::Lower ? "L" : "U");
    w.kv_int("m", c.m);
    w.kv_int("n", c.n);
    w.kv_int("k", c.k);
    w.kv_int("ld", c.ld);
    w.kv("flops", c.flops(), "%.0f");
    w.kv("engine_median_ns", r.engine_ns, "%.0f");
    w.kv("naive_median_ns", r.naive_ns, "%.0f");
    w.kv("engine_gflops", c.flops() / r.engine_ns, "%.3f");
    w.kv("naive_gflops", c.flops() / r.naive_ns, "%.3f");
    w.kv("speedup", r.naive_ns / r.engine_ns, "%.3f");
    w.kv("layout", "strided");
    w.kv_int("batch", c.batch);
    w.kv("prec", c.prec);
    w.end_object();
  }
  for (const IlvResult& r : ilv_results) {
    const IlvClass& c = r.c;
    w.begin_object(/*compact=*/true);
    w.kv("name", c.name);
    w.kv("op", c.op);
    w.kv("transa", "N");
    w.kv("transb", "N");
    w.kv("side", c.side == la::Side::Left ? "L" : "R");
    w.kv("uplo", c.uplo == la::Uplo::Lower ? "L" : "U");
    w.kv_int("m", c.m);
    w.kv_int("n", c.n);
    w.kv_int("k", c.k);
    w.kv("flops", c.flops(), "%.0f");
    w.kv("engine_median_ns", r.ilv_ns, "%.0f");
    w.kv("naive_median_ns", r.strided_ns, "%.0f");
    w.kv("engine_gflops", c.flops() / r.ilv_ns, "%.3f");
    w.kv("naive_gflops", c.flops() / r.strided_ns, "%.3f");
    w.kv("speedup", r.strided_ns / r.ilv_ns, "%.3f");
    w.kv("layout", "interleaved");
    w.kv_int("batch", c.batch);
    w.kv("prec", c.prec);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::fprintf(f, "\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: interleaved lane results diverge from the strided "
                 "engine path\n");
    return 1;
  }
  return 0;
}
