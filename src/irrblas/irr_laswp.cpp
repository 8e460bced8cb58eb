// irrLASWP (paper §IV-F): applying the panel's row interchanges to the
// columns left and right of the panel, whose widths w_l / w_r differ for
// every matrix and are inferred by DCWI.
//
// Two methods are provided (and compared in bench/ablation_laswp):
//  - kLooped: the reference — irrSWAP called in a loop, one kernel launch
//    per pivot row; each swap touches two full rows with strided access.
//  - kRehearsal: the paper's optimization — the pivot sequence is first
//    replayed ("rehearsed") on auxiliary one-column index matrices living
//    in a workspace; this resolves swap chains so that every touched row
//    moves exactly once, through shared-memory column chunks. The method
//    moves rows that end up staying in place too (isolating them is not
//    worth it), so an all-diagonal pivot pattern is the one case where the
//    looped reference wins.
#include <algorithm>
#include <complex>
#include <string>

#include "irrblas/dcwi.hpp"
#include "irrblas/irr_kernels.hpp"
#include "lapack/blas.hpp"

namespace irrlu::batch {

namespace {

// Cache-line waste factor of accessing one row of a column-major matrix.
template <typename T>
constexpr double row_penalty() {
  return 64.0 / sizeof(T);
}

// Shared-memory budget of the rehearsal move kernel's column chunks.
constexpr std::size_t kMoveSmemBytes = 32 << 10;

template <typename T>
void laswp_looped(gpusim::Device& dev, gpusim::Stream& stream, int j, int jb,
                  T* const* dA_array, const int* ldda, const int* m_vec,
                  const int* n_vec, int const* const* ipiv_array,
                  int batch_size) {
  for (int r = j; r < j + jb; ++r) {
    dev.launch(stream,
               {"irr_laswp_swap", batch_size, 0, gpusim::kIndependentBlocks},
               [=](gpusim::BlockCtx& ctx) {
      const int id = ctx.block();
      const LaswpWork w = dcwi_laswp(j, jb, m_vec[id], n_vec[id]);
      if (w.none() || r >= j + w.rows) return;
      const int p = ipiv_array[id][r];
      if (p == r) return;  // pivot on the diagonal: skip entirely
      const int lda = ldda[id];
      T* A = dA_array[id];
      if (w.wl > 0) la::swap(w.wl, A + r, lda, A + p, lda);
      if (w.wr > 0)
        la::swap(w.wr, A + static_cast<std::ptrdiff_t>(w.wr_off) * lda + r,
                 lda, A + static_cast<std::ptrdiff_t>(w.wr_off) * lda + p,
                 lda);
      // Two rows read + two rows written, strided.
      ctx.record(0.0,
                 4.0 * (w.wl + w.wr) * row_penalty<T>() * sizeof(T));
    });
  }
}

/// One matrix's share of a rehearse-and-move: the pivot rows [r0, r1)
/// (empty: the matrix sits the call out) and the two column segments
/// [c[k], c[k] + w[k]) the swaps move (w[k] <= 0: segment skipped).
struct SwapSpan {
  int r0 = 0, r1 = 0;
  int c[2] = {};
  int w[2] = {};
};

/// The paper's rehearsed row swaps, shared by irr_laswp's panels and
/// irr_laswp_range_staged. The move runs `panels` blocks per matrix:
/// `span_of(id, p)` gives matrix id's SwapSpan with the segments block p
/// moves (the rows are the same for every p). jb bounds r1 - r0, and `ws`
/// holds irr_laswp_workspace_size(batch_size, jb) ints.
template <typename T, typename SpanOf>
void rehearse_and_move(gpusim::Device& dev, gpusim::Stream& stream, int jb,
                       T* const* dA_array, const int* ldda,
                       int const* const* ipiv_array, int batch_size, int* ws,
                       int panels, SpanOf span_of) {
  const int stride = 1 + 4 * jb;  // per-matrix workspace ints

  // Phase 1 — rehearse the swaps on auxiliary index columns: build the
  // compact set of touched rows and, for each, the original row that must
  // end up there once all swaps are applied.
  dev.launch(stream,
             {"irr_laswp_rehearse", batch_size, 0, gpusim::kIndependentBlocks},
             [=](gpusim::BlockCtx& ctx) {
    const int id = ctx.block();
    int* w_cnt = ws + static_cast<std::ptrdiff_t>(id) * stride;
    int* list = w_cnt + 1;        // touched (destination) rows
    int* occ = list + 2 * jb;     // original row currently at list[t]
    *w_cnt = 0;
    const SwapSpan s = span_of(id, 0);
    if (s.r1 <= s.r0) return;
    auto find_or_add = [&](int row) {
      for (int t = 0; t < *w_cnt; ++t)
        if (list[t] == row) return t;
      const int t = (*w_cnt)++;
      list[t] = row;
      occ[t] = row;
      return t;
    };
    for (int r = s.r0; r < s.r1; ++r) {
      const int p = ipiv_array[id][r];
      const int tr = find_or_add(r);
      const int tp = find_or_add(p);
      std::swap(occ[tr], occ[tp]);
    }
    ctx.record(0.0, (2.0 * (s.r1 - s.r0) + 2.0 * *w_cnt) * sizeof(int));
  });

  // Phase 2 — move each touched row exactly once, through shared-memory
  // column chunks, over both segments of the block's span.
  const std::size_t move_smem =
      std::min(kMoveSmemBytes, dev.model().shared_mem_per_block);
  const gpusim::LaunchConfig cfg{"irr_laswp_move", batch_size * panels,
                                 move_smem, gpusim::kIndependentBlocks};
  dev.launch(stream, cfg, [=](gpusim::BlockCtx& ctx) {
    const int id = ctx.block() / panels;
    const int* w_cnt = ws + static_cast<std::ptrdiff_t>(id) * stride;
    const int cnt = *w_cnt;
    if (cnt == 0) return;
    const int* list = w_cnt + 1;
    const int* occ = list + 2 * jb;
    const SwapSpan s = span_of(id, ctx.block() % panels);
    const int lda = ldda[id];
    T* A = dA_array[id];

    const int cw =
        std::max<int>(1, static_cast<int>(move_smem / sizeof(T)) / cnt);
    T* chunk = ctx.smem_alloc<T>(static_cast<std::size_t>(cnt) * cw);
    double width = 0;
    for (int k = 0; k < 2; ++k) {
      if (s.w[k] <= 0) continue;
      for (int cc = 0; cc < s.w[k]; cc += cw) {
        const int ec = std::min(cw, s.w[k] - cc);
        T* a = A + static_cast<std::ptrdiff_t>(s.c[k] + cc) * lda;
        for (int t = 0; t < cnt; ++t)
          for (int c = 0; c < ec; ++c)
            chunk[static_cast<std::ptrdiff_t>(c) * cnt + t] =
                a[static_cast<std::ptrdiff_t>(c) * lda + occ[t]];
        for (int t = 0; t < cnt; ++t)
          for (int c = 0; c < ec; ++c)
            a[static_cast<std::ptrdiff_t>(c) * lda + list[t]] =
                chunk[static_cast<std::ptrdiff_t>(c) * cnt + t];
      }
      width += s.w[k];
    }

    // Each touched element read once + written once; the chunked access
    // amortizes roughly half of the strided-row cache waste.
    ctx.record(0.0,
               2.0 * cnt * width * (row_penalty<T>() / 2.0) * sizeof(T));
  });
}

}  // namespace

template <typename T>
void irr_laswp(gpusim::Device& dev, gpusim::Stream& stream, int j, int jb,
               T* const* dA_array, const int* ldda, const int* m_vec,
               const int* n_vec, int const* const* ipiv_array, int batch_size,
               LaswpMethod method, int* workspace) {
  if (batch_size <= 0 || jb <= 0) return;
  if (method == LaswpMethod::kLooped) {
    laswp_looped(dev, stream, j, jb, dA_array, ldda, m_vec, n_vec,
                 ipiv_array, batch_size);
    return;
  }
  int* ws = workspace;
  if (ws == nullptr) {
    // Served from the device's workspace cache: allocation-free after the
    // first call on this stream, no lifetime sync needed (see header).
    ws = dev.workspace<int>("irrlaswp.s" + std::to_string(stream.id()),
                            irr_laswp_workspace_size(batch_size, jb));
  }
  rehearse_and_move(dev, stream, jb, dA_array, ldda, ipiv_array, batch_size,
                    ws, 1, [=](int id, int) {
    // DCWI's widths: columns [0, wl) left of the panel and [wr_off,
    // wr_off + wr) right of it.
    const LaswpWork w = dcwi_laswp(j, jb, m_vec[id], n_vec[id]);
    if (w.none()) return SwapSpan{};
    return SwapSpan{j, j + w.rows, {0, w.wr_off}, {w.wl, w.wr}};
  });
}

template <typename T>
void irr_laswp_range_staged(gpusim::Device& dev, gpusim::Stream& stream,
                            int k0, int k1, int w, T* const* dA_array,
                            const int* ldda, int c0, const int* m_vec,
                            const int* n_vec, int const* const* ipiv_array,
                            int batch_size, int* workspace) {
  if (batch_size <= 0 || k1 <= k0 || w <= 0) return;
  int* ws = workspace;
  if (ws == nullptr) {
    ws = dev.workspace<int>("irrlaswp.range.s" + std::to_string(stream.id()),
                            irr_laswp_workspace_size(batch_size, k1 - k0));
  }
  // The chain [k0, min(k1, m)) over columns [c0, c0 + min(w, n - c0)),
  // moved in kColumnPanel-column panels (DCWI retires the panels beyond a
  // matrix's width).
  const int panels = (w + kColumnPanel - 1) / kColumnPanel;
  rehearse_and_move(dev, stream, k1 - k0, dA_array, ldda, ipiv_array,
                    batch_size, ws, panels, [=](int id, int p) {
    const int rows = std::min(k1, m_vec[id]);
    if (rows <= k0 || n_vec[id] <= c0) return SwapSpan{};
    const int pc = p * kColumnPanel;
    const int width =
        std::min({w, n_vec[id] - c0, pc + kColumnPanel}) - pc;
    return SwapSpan{k0, rows, {c0 + pc, 0}, {width, 0}};
  });
}

#define IRRLU_INSTANTIATE_LASWP(T)                                          \
  template void irr_laswp<T>(gpusim::Device&, gpusim::Stream&, int, int,    \
                             T* const*, const int*, const int*, const int*, \
                             int const* const*, int, LaswpMethod, int*);    \
  template void irr_laswp_range_staged<T>(                                  \
      gpusim::Device&, gpusim::Stream&, int, int, int, T* const*,           \
      const int*, int, const int*, const int*, int const* const*, int,      \
      int*);

IRRLU_INSTANTIATE_LASWP(float)
IRRLU_INSTANTIATE_LASWP(double)
IRRLU_INSTANTIATE_LASWP(std::complex<double>)

#undef IRRLU_INSTANTIATE_LASWP

}  // namespace irrlu::batch
