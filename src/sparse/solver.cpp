#include "sparse/solver.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/timer.hpp"
#include "gpusim/device.hpp"
#include "ordering/graph.hpp"
#include "trace/trace.hpp"

namespace irrlu::sparse {

const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kConverged: return "converged";
    case SolveStatus::kDegraded: return "degraded";
    case SolveStatus::kFailed: return "failed";
  }
  return "?";
}

void SparseDirectSolver::analyze(const CsrMatrix& a) {
  IRRLU_CHECK(a.rows() > 0);
  a_ = a;
  const int n = a.rows();
  analyze_timings_ = {};
  WallTimer timer;

  // The structural-singularity fallback is per-factorization state: it
  // must NOT be written back into opts_, or a later analyze() on a
  // healthy matrix through the same solver object would silently skip
  // MC64 scaling.
  mc64_active_ = false;
  if (opts_.use_mc64) {
    mc64_ = ordering::mc64_scaling(n, a.ptr().data(), a.ind().data(),
                                   a.val().data());
    mc64_active_ = mc64_.structurally_nonsingular;
  }
  if (!mc64_active_) {
    mc64_.col_of_row.resize(static_cast<std::size_t>(n));
    std::iota(mc64_.col_of_row.begin(), mc64_.col_of_row.end(), 0);
    mc64_.dr.assign(static_cast<std::size_t>(n), 1.0);
    mc64_.dc.assign(static_cast<std::size_t>(n), 1.0);
  }
  analyze_timings_.mc64_s = timer.seconds();
  timer.reset();

  // The prepared pattern is permuted once, on a copy of A whose values
  // are the entry indices (exact in double), so each prepared entry names
  // the entry of A it came from; prepare_values() gathers through that.
  std::vector<double> entry(a.val().size());
  std::iota(entry.begin(), entry.end(), 0.0);
  CsrMatrix aq(n, a.ptr(), a.ind(), std::move(entry));
  if (mc64_active_) aq = aq.permute_columns(mc64_.col_of_row);

  const ordering::Graph g =
      ordering::Graph::from_pattern(n, aq.ptr().data(), aq.ind().data());
  analyze_timings_.graph_s = timer.seconds();
  timer.reset();
  ord_ = ordering::nested_dissection(g, opts_.nd);
  analyze_timings_.nd_s = timer.seconds();
  timer.reset();
  a_prep_ = aq.permute_symmetric(ord_.perm);

  std::vector<int> row_of(a.val().size());
  for (int i = 0; i < n; ++i)
    std::fill(row_of.begin() + a.ptr()[static_cast<std::size_t>(i)],
              row_of.begin() + a.ptr()[static_cast<std::size_t>(i) + 1], i);
  prep_map_.resize(a_prep_.val().size());
  for (std::size_t p = 0; p < prep_map_.size(); ++p) {
    const auto src = static_cast<std::size_t>(a_prep_.val()[p]);
    prep_map_[p] = {static_cast<int>(src), row_of[src], a.ind()[src]};
  }
  prepare_values();
  analyze_timings_.permute_s = timer.seconds();
  timer.reset();
  sym_ = SymbolicAnalysis::build(a_prep_, ord_);
  analyze_timings_.symbolic_s = timer.seconds();
  analyzed_ = true;
}

void SparseDirectSolver::build_factor(gpusim::Device& dev) {
  factor_ = std::make_unique<MultifrontalFactor>(dev, a_prep_, sym_,
                                                 opts_.factor);
  // Factor-time escalation: pivot growth of this magnitude already wiped
  // out FP32's relative accuracy, so refinement from the FP32 factors
  // would fail anyway — refactor in FP64 up front instead of paying a
  // doomed solve first. Growth is only measured when pivot_tau > 0.
  if (opts_.fp64_fallback && factor_->has_fp32() &&
      factor_->report().pivot_growth > opts_.growth_refactor_threshold)
    refactor_fp64();
}

void SparseDirectSolver::refactor_fp64() const {
  FactorOptions fo = opts_.factor;
  fo.precision = PrecisionPolicy::kF64;
  gpusim::Device& dev = factor_->device();
  factor_ = std::make_unique<MultifrontalFactor>(dev, a_prep_, sym_, fo);
}

void SparseDirectSolver::factor(gpusim::Device& dev) {
  IRRLU_CHECK_MSG(analyzed_, "factor() requires analyze()");
  build_factor(dev);
}

void SparseDirectSolver::refactor(gpusim::Device& dev,
                                  const CsrMatrix& a_new) {
  IRRLU_CHECK_MSG(analyzed_, "refactor() requires analyze()");
  IRRLU_CHECK_MSG(a_new.same_pattern(a_),
                  "refactor() requires the same sparsity pattern");
  a_.val() = a_new.val();
  prepare_values();
  build_factor(dev);
}

void SparseDirectSolver::prepare_values() {
  // scaled()'s multiplication order, so the values are bitwise those of
  // a_.scaled(dr, dc).permute_columns(q).permute_symmetric(perm).
  const std::vector<double>& v = a_.val();
  std::vector<double>& out = a_prep_.val();
  for (std::size_t p = 0; p < prep_map_.size(); ++p) {
    const PrepEntry& e = prep_map_[p];
    out[p] = mc64_.dr[static_cast<std::size_t>(e.row)] *
             v[static_cast<std::size_t>(e.src)] *
             mc64_.dc[static_cast<std::size_t>(e.col)];
  }
}

void SparseDirectSolver::observe_refine_steps(int steps) const {
  trace::Tracer* tr = factor_->device().tracer();
  if (tr == nullptr) return;
  tr->observe(std::string("solve.refine_steps.") +
                  to_string(factor_->report().precision_policy),
              static_cast<double>(steps));
}

namespace {

/// Fallback arbitration: is `a` a strictly better outcome than `b`?
/// Status rank first (converged > degraded > failed), then backward error
/// (NaN berr only occurs under kFailed, which the rank already handles).
bool report_better(const SolveReport& a, const SolveReport& b) {
  auto rank = [](SolveStatus s) {
    switch (s) {
      case SolveStatus::kConverged: return 2;
      case SolveStatus::kDegraded: return 1;
      case SolveStatus::kFailed: return 0;
    }
    return 0;
  };
  if (rank(a.status) != rank(b.status)) return rank(a.status) > rank(b.status);
  return a.berr < b.berr;
}

}  // namespace

SolveReport SparseDirectSolver::solve_report(
    const std::vector<double>& b) const {
  return std::move(solve_batch({b}, opts_.solve_on_device).front());
}

std::vector<double> SparseDirectSolver::solve(
    const std::vector<double>& b) const {
  SolveReport rep = solve_report(b);
  IRRLU_CHECK_MSG(
      rep.status != SolveStatus::kFailed,
      "solve(): numerically unusable factorization (solution contains "
      "NaN/Inf; numerically_ok()="
          << (factor_ != nullptr && factor_->numerically_ok())
          << ") — use solve_report() for a non-throwing structured result");
  return std::move(rep.x);
}

std::vector<SolveReport> SparseDirectSolver::solve_report_many(
    const std::vector<std::vector<double>>& bs) const {
  return solve_batch(bs, /*on_device=*/true);
}

std::vector<SolveReport> SparseDirectSolver::solve_batch(
    const std::vector<std::vector<double>>& bs, bool on_device) const {
  IRRLU_CHECK_MSG(factor_ != nullptr, "solving requires factor()");
  std::vector<SolveReport> reps = refine_batch(bs, on_device);
  for (const SolveReport& r : reps) observe_refine_steps(r.refine_steps);
  const bool any_short = std::any_of(
      reps.begin(), reps.end(),
      [](const SolveReport& r) { return r.status != SolveStatus::kConverged; });
  if (!any_short || !opts_.fp64_fallback || !factor_->has_fp32()) return reps;
  // Classic LU-IR fallback: the FP32 factorization could not deliver the
  // tolerance — refactor the same prepared matrix in full FP64 and re-run.
  // One refactor covers the whole batch; every request is re-solved
  // against the FP64 factors (the converged ones too — the sweep is
  // batched, so re-running them costs one extra column each), keeping
  // whichever result is better per request (the FP64 one, barring a
  // genuinely unstable matrix that fails either way).
  refactor_fp64();
  std::vector<SolveReport> reps64 = refine_batch(bs, on_device);
  for (std::size_t k = 0; k < reps.size(); ++k) {
    observe_refine_steps(reps64[k].refine_steps);
    if (report_better(reps64[k], reps[k])) reps[k] = std::move(reps64[k]);
    reps[k].refactored_fp64 = true;
  }
  return reps;
}

std::vector<SolveReport> SparseDirectSolver::refine_batch(
    const std::vector<std::vector<double>>& bs, bool on_device) const {
  const int n = a_.rows();
  const int nrhs = static_cast<int>(bs.size());
  std::vector<SolveReport> reps(bs.size());
  if (nrhs == 0) return reps;
  for (const auto& b : bs) IRRLU_CHECK(static_cast<int>(b.size()) == n);
  const auto nz = static_cast<std::size_t>(n);

  // Column-wise transforms around the sweep: w = P (Dr rhs); sweep;
  // x[q[j]] = dc[q[j]] w[j].
  auto scale_in = [&](const double* rhs, double* w) {
    for (int i = 0; i < n; ++i) {
      const int oi = ord_.perm[static_cast<std::size_t>(i)];
      w[i] = mc64_.dr[static_cast<std::size_t>(oi)] * rhs[oi];
    }
  };
  auto scale_out = [&](const double* w, double* x) {
    for (int j = 0; j < n; ++j) {
      const int oj = ord_.perm[static_cast<std::size_t>(j)];
      const int col = mc64_.col_of_row[static_cast<std::size_t>(oj)];
      x[col] = mc64_.dc[static_cast<std::size_t>(col)] * w[j];
    }
  };
  // One triangular sweep over the first `cols` columns of W: the device
  // sweep for all of them at once, or the host sweep column by column.
  std::vector<double> W(nz * static_cast<std::size_t>(nrhs)), w;
  auto sweep = [&](int cols) {
    if (on_device) {
      factor_->solve_many(W.data(), cols);
      return;
    }
    w.resize(nz);
    for (int k = 0; k < cols; ++k) {
      double* col = W.data() + static_cast<std::size_t>(k) * nz;
      std::copy(col, col + nz, w.begin());
      factor_->solve(w);
      std::copy(w.begin(), w.end(), col);
    }
  };

  // Phase latency feed for the tracer's histogram registry (simulated
  // clock; the host sweep advances no simulated time and lands in the
  // underflow bucket).
  trace::Tracer* tr = factor_->device().tracer();
  const double t_solve0 = tr != nullptr ? factor_->device().host_time() : 0;

  // Initial solves for every request: one sweep.
  for (int j = 0; j < nrhs; ++j)
    scale_in(bs[static_cast<std::size_t>(j)].data(),
             W.data() + static_cast<std::size_t>(j) * nz);
  sweep(nrhs);
  const double t_refine0 = tr != nullptr ? factor_->device().host_time() : 0;
  if (tr != nullptr) tr->observe("solve.initial_s", t_refine0 - t_solve0);

  // Adaptive refinement, per request: iterate while the componentwise
  // backward error is above tolerance, keeping the best iterate seen.
  // A request stops on the cap, on divergence (berr did not decrease —
  // roll back to the best iterate), or on stagnation (decrease by less
  // than 2x, Higham's rule: further sweeps would only dither around the
  // attainable accuracy). Requests leave the batch individually, and only
  // the still-active residuals are re-solved.
  struct Active {
    int req;
    std::vector<double> x, best;
    double berr, best_berr;
    int steps = 0;
  };
  std::vector<Active> act;
  const double tol = std::max(opts_.refine_tolerance, 0.0);
  for (int j = 0; j < nrhs; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    std::vector<double> x(nz);
    scale_out(W.data() + ju * nz, x.data());
    const double berr = a_.componentwise_residual(x.data(), bs[ju].data());
    SolveReport& rep = reps[ju];
    rep.berr_history.push_back(berr);
    if (!std::isfinite(berr)) {
      // The factorization produced NaN/Inf (e.g. an un-boosted zero
      // pivot): refinement cannot repair that — a clean structured
      // failure.
      rep.x = std::move(x);
      rep.berr = berr;
      rep.status = SolveStatus::kFailed;
      continue;
    }
    if (berr <= tol || opts_.max_refine_steps <= 0) {
      rep.x = std::move(x);
      rep.berr = berr;
      rep.status =
          berr <= tol ? SolveStatus::kConverged : SolveStatus::kDegraded;
      continue;
    }
    Active a;
    a.req = j;
    a.best = x;
    a.x = std::move(x);
    a.berr = a.best_berr = berr;
    act.push_back(std::move(a));
  }
  const bool refined = !act.empty();

  std::vector<double> r(nz);
  while (!act.empty()) {
    const int na = static_cast<int>(act.size());
    W.resize(nz * static_cast<std::size_t>(na));
    for (int k = 0; k < na; ++k) {
      const Active& a = act[static_cast<std::size_t>(k)];
      const auto& b = bs[static_cast<std::size_t>(a.req)];
      a_.multiply(a.x.data(), r.data());
      for (int i = 0; i < n; ++i)
        r[static_cast<std::size_t>(i)] =
            b[static_cast<std::size_t>(i)] - r[static_cast<std::size_t>(i)];
      scale_in(r.data(), W.data() + static_cast<std::size_t>(k) * nz);
    }
    sweep(na);

    std::vector<Active> next;
    for (int k = 0; k < na; ++k) {
      Active& a = act[static_cast<std::size_t>(k)];
      std::vector<double> dx(nz);
      scale_out(W.data() + static_cast<std::size_t>(k) * nz, dx.data());
      for (std::size_t i = 0; i < nz; ++i) a.x[i] += dx[i];
      ++a.steps;
      const double nb = a_.componentwise_residual(
          a.x.data(), bs[static_cast<std::size_t>(a.req)].data());
      SolveReport& rep = reps[static_cast<std::size_t>(a.req)];
      rep.berr_history.push_back(nb);
      bool stop = false;
      if (!std::isfinite(nb) || nb >= a.berr) {
        stop = true;  // diverged — roll back to the best iterate
      } else {
        const bool stagnated = nb > 0.5 * a.berr;
        a.berr = nb;
        if (nb < a.best_berr) {
          a.best_berr = nb;
          a.best = a.x;
        }
        if (stagnated || a.berr <= tol || a.steps >= opts_.max_refine_steps)
          stop = true;
      }
      if (stop) {
        rep.refine_steps = a.steps;
        rep.x = std::move(a.best);
        rep.berr = a.best_berr;
        rep.status = a.best_berr <= tol ? SolveStatus::kConverged
                                        : SolveStatus::kDegraded;
      } else {
        next.push_back(std::move(a));
      }
    }
    act = std::move(next);
  }

  if (tr != nullptr && refined)
    tr->observe("solve.refine_s", factor_->device().host_time() - t_refine0);
  return reps;
}

double SparseDirectSolver::residual(const std::vector<double>& x,
                                    const std::vector<double>& b) const {
  return a_.residual(x.data(), b.data());
}

double SparseDirectSolver::residual_componentwise(
    const std::vector<double>& x, const std::vector<double>& b) const {
  return a_.componentwise_residual(x.data(), b.data());
}

std::vector<LevelStats> SparseDirectSolver::level_stats() const {
  std::vector<LevelStats> out;
  for (std::size_t lvl = 0; lvl < sym_.levels.size(); ++lvl) {
    const auto& ids = sym_.levels[lvl];
    if (ids.empty()) continue;
    LevelStats st;
    st.level = static_cast<int>(lvl);
    st.batch = static_cast<int>(ids.size());
    st.min_dim = sym_.fronts[static_cast<std::size_t>(ids[0])].dim();
    double sum = 0;
    for (int id : ids) {
      const int d = sym_.fronts[static_cast<std::size_t>(id)].dim();
      st.min_dim = std::min(st.min_dim, d);
      st.max_dim = std::max(st.max_dim, d);
      sum += d;
    }
    st.avg_dim = sum / st.batch;
    out.push_back(st);
  }
  return out;
}

}  // namespace irrlu::sparse
