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
#include "lapack/blas.hpp"
#include "lapack/flops.hpp"

namespace la = irrlu::la;
using irrlu::Rng;
using irrlu::WallTimer;

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
    w.kv_int("batch", c.batch);
    w.kv("prec", c.prec);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::fprintf(f, "\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
