#include "irrblas/interleaved.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "lapack/flops.hpp"

namespace irrlu::batch {

// Named rather than anonymous: the launch lambdas of the exported
// ilv_laswp template capture these types, and GCC's -Wsubobject-linkage
// rejects closure members of internal linkage.
namespace detail {

/// block -> (descriptor, lane offset within it) of a fused stage grid.
struct BlockSpan {
  int desc = 0;
  int off = 0;
};

template <typename Desc>
std::shared_ptr<std::vector<BlockSpan>> grid_of(
    const std::vector<Desc>& descs) {
  auto map = std::make_shared<std::vector<BlockSpan>>();
  for (int di = 0; di < static_cast<int>(descs.size()); ++di)
    for (int off = 0; off < descs[static_cast<std::size_t>(di)].lanes;
         off += kIlvLaneChunk)
      map->push_back({di, off});
  return map;
}

}  // namespace detail

using detail::BlockSpan;
using detail::grid_of;

void ilv_launch(gpusim::Device& dev, gpusim::Stream& stream, const char* name,
                std::vector<IlvOpDesc> descs) {
  auto ds = std::make_shared<std::vector<IlvOpDesc>>(std::move(descs));
  auto map = grid_of(*ds);
  if (map->empty()) return;
  const gpusim::LaunchConfig cfg{name, static_cast<int>(map->size()), 0,
                                 gpusim::kIndependentBlocks};
  dev.launch(stream, cfg, [ds, map](gpusim::BlockCtx& ctx) {
    const BlockSpan bs = (*map)[static_cast<std::size_t>(ctx.block())];
    const IlvOpDesc& d = (*ds)[static_cast<std::size_t>(bs.desc)];
    la::mk::ilv::Args a = d.args;
    a.lane0 = d.lane0 + bs.off;
    a.lane1 = std::min(d.lane0 + d.lanes, a.lane0 + kIlvLaneChunk);
    d.kern.fn(d.kern, a);
    const int nl = a.lane1 - a.lane0;
    ctx.record(d.flops_per_lane * nl, d.bytes_per_lane * nl);
  });
}

namespace {

/// The copy behind ilv_pack (kPack: strided -> SoA) and ilv_unpack
/// (SoA -> strided), launched as `name`.
template <bool kPack, typename T>
void ilv_copy(gpusim::Device& dev, gpusim::Stream& stream, const char* name,
              std::vector<IlvPackDescT<T>> descs) {
  auto ds = std::make_shared<std::vector<IlvPackDescT<T>>>(std::move(descs));
  auto map = grid_of(*ds);
  if (map->empty()) return;
  const gpusim::LaunchConfig cfg{name, static_cast<int>(map->size()), 0,
                                 gpusim::kIndependentBlocks};
  dev.launch(stream, cfg, [ds, map](gpusim::BlockCtx& ctx) {
    const BlockSpan bs = (*map)[static_cast<std::size_t>(ctx.block())];
    const IlvPackDescT<T>& d = (*ds)[static_cast<std::size_t>(bs.desc)];
    const int l0 = d.lane0 + bs.off;
    const int l1 = std::min(d.lane0 + d.lanes, l0 + kIlvLaneChunk);
    for (int l = l0; l < l1; ++l) {
      T* s = d.src[l];
      const int lds = d.src_ld[l];
      double mx = 0;
      for (int c = 0; c < d.n; ++c) {
        for (int r = 0; r < d.m; ++r) {
          T& strided = s[static_cast<std::ptrdiff_t>(c) * lds + r];
          T& soa = d.dst.data[(static_cast<std::ptrdiff_t>(c) * d.dst.ld +
                               r) *
                                  d.dst.batch +
                              l];
          const T v = kPack ? strided : soa;
          (kPack ? soa : strided) = v;
          // Same reduction expression and traversal order as the strided
          // mf_front_norm kernel (the max is order-independent anyway).
          mx = std::max(mx, std::abs(static_cast<double>(v)));
        }
      }
      if (d.absmax != nullptr && d.m > 0 && d.n > 0) d.absmax[l] = mx;
    }
    const int nl = l1 - l0;
    const double elems = static_cast<double>(d.m) * d.n;
    ctx.record(d.absmax != nullptr ? elems * nl : 0.0,
               2.0 * elems * sizeof(T) * nl);
  });
}

}  // namespace

template <typename T>
void ilv_pack(gpusim::Device& dev, gpusim::Stream& stream,
              std::vector<IlvPackDescT<T>> descs) {
  ilv_copy<true>(dev, stream, "ilv_pack", std::move(descs));
}

template <typename T>
void ilv_unpack(gpusim::Device& dev, gpusim::Stream& stream,
                std::vector<IlvPackDescT<T>> descs) {
  ilv_copy<false>(dev, stream, "ilv_unpack", std::move(descs));
}

template <typename T>
void ilv_laswp(gpusim::Device& dev, gpusim::Stream& stream,
               std::vector<IlvLaswpDescT<T>> descs) {
  auto ds = std::make_shared<std::vector<IlvLaswpDescT<T>>>(std::move(descs));
  auto map = grid_of(*ds);
  if (map->empty()) return;
  const gpusim::LaunchConfig cfg{"ilv_laswp", static_cast<int>(map->size()),
                                 0, gpusim::kIndependentBlocks};
  dev.launch(stream, cfg, [ds, map](gpusim::BlockCtx& ctx) {
    const BlockSpan bs = (*map)[static_cast<std::size_t>(ctx.block())];
    const IlvLaswpDescT<T>& d = (*ds)[static_cast<std::size_t>(bs.desc)];
    const int l0 = d.lane0 + bs.off;
    const int l1 = std::min(d.lane0 + d.lanes, l0 + kIlvLaneChunk);
    long swaps = 0;
    for (int l = l0; l < l1; ++l) {
      const int* piv = d.ipiv[l];
      for (int r = 0; r < d.rows; ++r) {
        const int p = piv[r];
        if (p == r) continue;
        ++swaps;
        for (int c = 0; c < d.width; ++c) {
          std::swap(d.view.data[(static_cast<std::ptrdiff_t>(c) * d.view.ld +
                                 r) *
                                    d.view.batch +
                                l],
                    d.view.data[(static_cast<std::ptrdiff_t>(c) * d.view.ld +
                                 p) *
                                    d.view.batch +
                                l]);
        }
      }
    }
    // Coalesced swap traffic: 4 accesses per swapped element, no strided
    // row-access penalty (contrast irr_laswp_range's 64 / sizeof(T)
    // factor) — the layout's headline saving.
    ctx.record(0.0,
               static_cast<double>(swaps) * 4.0 * d.width * sizeof(T));
  });
}

namespace {

/// Kernel-body precision of an element type.
template <typename T>
constexpr la::mk::ilv::Prec kPrecOf =
    std::is_same_v<T, float> ? la::mk::ilv::Prec::kF32
                             : la::mk::ilv::Prec::kF64;

}  // namespace

template <typename T>
IlvOpDesc ilv_getf2_op(const IlvViewT<T>& a, int m, int n, int lanes,
                       int* const* ipiv, int* info, double tau,
                       const double* anorm, int* boost) {
  IlvOpDesc d;
  d.kern = la::mk::ilv::make_getf2(m, n, kPrecOf<T>);
  d.args.batch = a.batch;
  d.args.c = a.data;
  d.args.ldc = a.ld;
  d.args.ipiv = ipiv;
  d.args.info = info;
  d.args.tau = tau;
  d.args.anorm = anorm;
  d.args.boost = boost;
  d.lanes = lanes;
  d.flops_per_lane = la::getrf_flops(m, n) * la::flop_weight<T>;
  d.bytes_per_lane = 2.0 * m * n * sizeof(T) +
                     static_cast<double>(std::min(m, n)) * sizeof(int);
  return d;
}

template <typename T>
IlvOpDesc ilv_trsm_op(la::Side side, la::Uplo uplo, la::Diag diag, int m,
                      int n, double alpha, const IlvViewT<T>& t,
                      const IlvViewT<T>& b, int lanes) {
  IRRLU_CHECK(t.batch == b.batch);
  const bool left = side == la::Side::Left;
  const int tri = left ? m : n;
  IlvOpDesc d;
  d.kern = la::mk::ilv::make_trsm(left, uplo == la::Uplo::Lower,
                                  diag == la::Diag::Unit, m, n, kPrecOf<T>);
  d.args.batch = b.batch;
  d.args.alpha = alpha;
  d.args.a = t.data;
  d.args.lda = t.ld;
  d.args.c = b.data;
  d.args.ldc = b.ld;
  d.lanes = lanes;
  d.flops_per_lane =
      la::trsm_flops(tri, left ? n : m) * la::flop_weight<T>;
  d.bytes_per_lane = (0.5 * tri * tri + 2.0 * m * n) * sizeof(T);
  return d;
}

template <typename T>
IlvOpDesc ilv_gemm_op(int m, int n, int k, double alpha, const IlvViewT<T>& a,
                      const IlvViewT<T>& b, double beta, const IlvViewT<T>& c,
                      int lanes) {
  IRRLU_CHECK(a.batch == c.batch && b.batch == c.batch);
  IlvOpDesc d;
  d.kern = la::mk::ilv::make_gemm(m, n, k, kPrecOf<T>);
  d.args.batch = c.batch;
  d.args.alpha = alpha;
  d.args.beta = beta;
  d.args.a = a.data;
  d.args.lda = a.ld;
  d.args.b = b.data;
  d.args.ldb = b.ld;
  d.args.c = c.data;
  d.args.ldc = c.ld;
  d.lanes = lanes;
  d.flops_per_lane = la::gemm_flops(m, n, k) * la::flop_weight<T>;
  d.bytes_per_lane =
      (static_cast<double>(m + n) * k + 2.0 * m * n) * sizeof(T);
  return d;
}

template <typename T>
void irr_getf2_ilv(gpusim::Device& dev, gpusim::Stream& stream,
                   const IlvViewT<T>& a, int m, int n, int lanes,
                   int* const* ipiv, int* info, double tau,
                   const double* anorm, int* boost) {
  if (lanes <= 0) return;
  ilv_launch(dev, stream, "ilv_getf2",
             {ilv_getf2_op(a, m, n, lanes, ipiv, info, tau, anorm, boost)});
}

template <typename T>
void irr_gemm_ilv(gpusim::Device& dev, gpusim::Stream& stream, int m, int n,
                  int k, double alpha, const IlvViewT<T>& a,
                  const IlvViewT<T>& b, double beta, const IlvViewT<T>& c,
                  int lanes) {
  if (lanes <= 0) return;
  ilv_launch(dev, stream, "ilv_gemm",
             {ilv_gemm_op(m, n, k, alpha, a, b, beta, c, lanes)});
}

template <typename T>
void irr_trsm_ilv(gpusim::Device& dev, gpusim::Stream& stream, la::Side side,
                  la::Uplo uplo, la::Diag diag, int m, int n, double alpha,
                  const IlvViewT<T>& t, const IlvViewT<T>& b, int lanes) {
  if (lanes <= 0) return;
  ilv_launch(dev, stream, "ilv_trsm",
             {ilv_trsm_op(side, uplo, diag, m, n, alpha, t, b, lanes)});
}

#define IRRLU_INSTANTIATE_ILV(T)                                             \
  template void ilv_pack<T>(gpusim::Device&, gpusim::Stream&,                \
                            std::vector<IlvPackDescT<T>>);                   \
  template void ilv_unpack<T>(gpusim::Device&, gpusim::Stream&,              \
                              std::vector<IlvPackDescT<T>>);                 \
  template void ilv_laswp<T>(gpusim::Device&, gpusim::Stream&,               \
                             std::vector<IlvLaswpDescT<T>>);                 \
  template IlvOpDesc ilv_getf2_op<T>(const IlvViewT<T>&, int, int, int,      \
                                     int* const*, int*, double,              \
                                     const double*, int*);                   \
  template IlvOpDesc ilv_trsm_op<T>(la::Side, la::Uplo, la::Diag, int, int,  \
                                    double, const IlvViewT<T>&,              \
                                    const IlvViewT<T>&, int);                \
  template IlvOpDesc ilv_gemm_op<T>(int, int, int, double,                   \
                                    const IlvViewT<T>&, const IlvViewT<T>&,  \
                                    double, const IlvViewT<T>&, int);        \
  template void irr_getf2_ilv<T>(gpusim::Device&, gpusim::Stream&,           \
                                 const IlvViewT<T>&, int, int, int,          \
                                 int* const*, int*, double, const double*,   \
                                 int*);                                      \
  template void irr_gemm_ilv<T>(gpusim::Device&, gpusim::Stream&, int, int,  \
                                int, double, const IlvViewT<T>&,             \
                                const IlvViewT<T>&, double,                  \
                                const IlvViewT<T>&, int);                    \
  template void irr_trsm_ilv<T>(gpusim::Device&, gpusim::Stream&, la::Side,  \
                                la::Uplo, la::Diag, int, int, double,        \
                                const IlvViewT<T>&, const IlvViewT<T>&,      \
                                int);

IRRLU_INSTANTIATE_ILV(double)
IRRLU_INSTANTIATE_ILV(float)

#undef IRRLU_INSTANTIATE_ILV

}  // namespace irrlu::batch
