#include "service/solver_service.hpp"

#include <chrono>
#include <utility>

#include "trace/trace.hpp"

namespace irrlu::service {

const char* to_string(Admission a) {
  switch (a) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kRejectedMemory:
      return "rejected-memory";
  }
  return "unknown";
}

/// One cached per-pattern solver: the symbolic analysis lives inside
/// `solver` (analyze() ran exactly once for this pattern), `vals` are the
/// matrix values the current numeric factor was built from.
struct SolverService::Session {
  std::uint64_t hash = 0;
  sparse::CsrMatrix pattern;  ///< representative matrix (structure only)
  /// Factor precision of this session — part of the cache key: the same
  /// pattern under a different policy is a different session (different
  /// numeric factor, different footprint).
  sparse::PrecisionPolicy policy = sparse::PrecisionPolicy::kF64;
  std::unique_ptr<sparse::SparseDirectSolver> solver;
  std::vector<double> vals;  ///< values of the resident factor
  bool factored = false;
  std::size_t predicted_peak = 0;  ///< symbolic peak of one factorization
  std::uint64_t tick = 0;          ///< LRU stamp
};

SolverService::SolverService(gpusim::Device& dev, const ServiceOptions& opts)
    : dev_(dev), opts_(opts) {
  IRRLU_CHECK_MSG(opts_.max_cached_patterns >= 1,
                  "ServiceOptions::max_cached_patterns must be >= 1");
}

SolverService::~SolverService() = default;

void SolverService::submit(SolveRequest req) {
  IRRLU_CHECK_MSG(static_cast<int>(req.b.size()) == req.a.rows(),
                  "SolveRequest: b has " << req.b.size() << " entries for an "
                                         << req.a.rows() << "-row matrix");
  pending_.push_back(std::move(req));
}

std::vector<SolveResponse> SolverService::solve(
    std::vector<SolveRequest> reqs) {
  for (auto& r : reqs) submit(std::move(r));
  return flush();
}

std::size_t SolverService::resident_factor_bytes() const {
  std::size_t total = 0;
  for (const auto& s : sessions_)
    if (s->factored) total += s->solver->numeric().factor_bytes();
  return total;
}

const sparse::SparseDirectSolver* SolverService::peek(
    const sparse::CsrMatrix& a,
    std::optional<sparse::PrecisionPolicy> precision) const {
  const std::uint64_t h = a.pattern_hash();
  const sparse::PrecisionPolicy pol =
      precision.value_or(opts_.solver.factor.precision);
  for (const auto& s : sessions_)
    if (s->hash == h && s->policy == pol && s->pattern.same_pattern(a))
      return s->solver.get();
  return nullptr;
}

void SolverService::bump(const char* name, double v) {
  if (auto* t = dev_.tracer()) t->add_counter(name, v);
}

void SolverService::account(const std::string& tenant,
                            const SolveResponse& r) {
  TenantStats& t = stats_.tenants[tenant];
  trace::Tracer* tracer = dev_.tracer();
  auto count = [&](long& total, long& own, const char* name) {
    ++total;
    ++own;
    if (tracer != nullptr) {
      tracer->add_counter(std::string("service.") + name, 1);
      tracer->add_counter("service.tenant." + tenant + "." + name, 1);
    }
  };
  count(stats_.requests, t.requests, "requests");
  if (r.admission == Admission::kRejectedMemory)
    count(stats_.rejected, t.rejected, "rejected");
  if (r.symbolic_cache_hit)
    count(stats_.symbolic_hits, t.symbolic_hits, "symbolic_hits");
  if (r.factor_reused)
    count(stats_.factor_reuses, t.factor_reuses, "factor_reuses");
}

SolverService::Session* SolverService::find_session(
    const sparse::CsrMatrix& a, std::uint64_t hash,
    sparse::PrecisionPolicy policy) {
  for (auto& s : sessions_)
    if (s->hash == hash && s->policy == policy && s->pattern.same_pattern(a)) {
      s->tick = ++lru_tick_;
      return s.get();
    }
  return nullptr;
}

bool SolverService::admit(std::size_t incoming_peak, const Session* keep) {
  auto evict_lru = [&]() -> bool {
    std::size_t victim = sessions_.size();
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      if (sessions_[i].get() == keep) continue;
      if (victim == sessions_.size() ||
          sessions_[i]->tick < sessions_[victim]->tick)
        victim = i;
    }
    if (victim == sessions_.size()) return false;
    sessions_.erase(sessions_.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    ++stats_.evictions;
    bump("service.evictions", 1);
    return true;
  };

  // Capacity: make room for one more entry when the incoming pattern is
  // not already cached.
  if (keep == nullptr)
    while (sessions_.size() >= opts_.max_cached_patterns)
      if (!evict_lru()) break;

  if (opts_.memory_budget_bytes == 0) return true;
  if (incoming_peak > opts_.memory_budget_bytes) return false;
  // `resident_factor_bytes()` includes `keep`'s old factor on the
  // refactor path deliberately: SparseDirectSolver::refactor constructs
  // the replacement factor before releasing the old one, so both are live
  // at the transient peak.
  while (resident_factor_bytes() + incoming_peak > opts_.memory_budget_bytes)
    if (!evict_lru()) break;
  return resident_factor_bytes() + incoming_peak <= opts_.memory_budget_bytes;
}

std::vector<SolveResponse> SolverService::flush() {
  std::vector<SolveRequest> reqs = std::move(pending_);
  pending_.clear();
  std::vector<SolveResponse> out(reqs.size());
  if (reqs.empty()) return out;
  IRRLU_TRACE_SCOPE(dev_.tracer(), "service.flush");

  // Group the pending requests by (sparsity pattern, precision policy).
  // Hash first, then an exact same_pattern() confirmation against the
  // group representative, so a hash collision can never merge two
  // structures; different precision policies never share a group even on
  // the same pattern — their factors are different numeric objects.
  auto policy_of = [&](const SolveRequest& r) {
    return r.precision.value_or(opts_.solver.factor.precision);
  };
  struct Group {
    std::uint64_t hash = 0;
    sparse::PrecisionPolicy policy = sparse::PrecisionPolicy::kF64;
    std::vector<std::size_t> idx;  ///< request indices, submission order
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::uint64_t h = reqs[i].a.pattern_hash();
    const sparse::PrecisionPolicy pol = policy_of(reqs[i]);
    out[i].pattern_hash = h;
    Group* g = nullptr;
    for (auto& cand : groups)
      if (cand.hash == h && cand.policy == pol &&
          reqs[cand.idx.front()].a.same_pattern(reqs[i].a)) {
        g = &cand;
        break;
      }
    if (g == nullptr) {
      groups.push_back(Group{h, pol, {}});
      g = &groups.back();
    }
    g->idx.push_back(i);
  }

  for (const auto& g : groups) {
    const SolveRequest& rep = reqs[g.idx.front()];

    // Resolve the group to a session: cached (symbolic hit for every
    // request in the group) or fresh (one analyze run, charged to the
    // group's first request; the rest of the group still counts as hits —
    // they did not pay for an analyze).
    Session* sess = find_session(rep.a, g.hash, g.policy);
    const bool group_cached = sess != nullptr;
    const std::size_t group_head = g.idx.front();
    auto symbolic_hit = [&](std::size_t i) {
      return group_cached || i != group_head;
    };
    auto reject = [&](const std::vector<std::size_t>& idx) {
      for (std::size_t i : idx) {
        out[i].admission = Admission::kRejectedMemory;
        out[i].symbolic_cache_hit = symbolic_hit(i);
        account(reqs[i].tenant, out[i]);
      }
    };
    if (sess == nullptr) {
      auto fresh = std::make_unique<Session>();
      fresh->hash = g.hash;
      fresh->pattern = rep.a;
      fresh->policy = g.policy;
      sparse::SolverOptions so = opts_.solver;
      so.factor.precision = g.policy;
      fresh->solver = std::make_unique<sparse::SparseDirectSolver>(so);
      // Analyze is host-only (no simulated device time), so its latency
      // histogram records wall seconds.
      const auto wall0 = std::chrono::steady_clock::now();
      fresh->solver->analyze(rep.a);  // host-only: safe before admission
      if (auto* t = dev_.tracer())
        t->observe("service.analyze_wall_s",
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall0)
                       .count());
      // Precision-aware peak: FP32 levels store and stage at half width,
      // so admission control budgets the policy's true footprint.
      const auto& sym = fresh->solver->symbolic();
      std::vector<sparse::Precision> lp(sym.levels.size());
      for (std::size_t l = 0; l < lp.size(); ++l)
        lp[l] = sparse::level_precision(g.policy, static_cast<int>(l));
      fresh->predicted_peak =
          sym.predicted_peak_bytes(so.factor.memory, lp);
      ++stats_.analyze_runs;
      bump("service.analyze_runs", 1);
      if (!admit(fresh->predicted_peak, nullptr)) {
        reject(g.idx);
        continue;
      }
      fresh->tick = ++lru_tick_;
      sessions_.push_back(std::move(fresh));
      sess = sessions_.back().get();
    }

    // Within the group, requests with bit-identical values share one
    // factorization; each distinct value set triggers (at most) one
    // factor/refactor in submission order.
    struct ValueRun {
      std::size_t rep;                ///< request index holding the values
      std::vector<std::size_t> idx;
    };
    std::vector<ValueRun> runs;
    for (std::size_t i : g.idx) {
      ValueRun* r = nullptr;
      for (auto& cand : runs)
        if (reqs[cand.rep].a.val() == reqs[i].a.val()) {
          r = &cand;
          break;
        }
      if (r == nullptr) {
        runs.push_back(ValueRun{i, {}});
        r = &runs.back();
      }
      r->idx.push_back(i);
    }

    for (const auto& run : runs) {
      const SolveRequest& vrep = reqs[run.rep];
      // The whole run reused an already-resident factor; otherwise one
      // factorization serves the run and every request after the first
      // rides it for free.
      const bool run_reused = sess->factored && sess->vals == vrep.a.val();
      auto factor_reused = [&](std::size_t i) {
        return run_reused || i != run.idx.front();
      };
      double run_factor_s = 0;  // simulated; billed to the paying request
      if (!run_reused) {
        if (!admit(sess->predicted_peak, sess)) {
          reject(run.idx);
          continue;
        }
        const double tf0 = dev_.host_time();
        if (sess->factored) {
          sess->solver->refactor(dev_, vrep.a);
          ++stats_.refactors;
          bump("service.refactors", 1);
        } else {
          sess->solver->factor(dev_);
          ++stats_.factors;
          bump("service.factors", 1);
        }
        run_factor_s = dev_.host_time() - tf0;
        if (auto* t = dev_.tracer())
          t->observe("service.factor_s", run_factor_s);
        sess->vals = vrep.a.val();
        sess->factored = true;
      }

      // One interleaved many-RHS solve over the whole run.
      std::vector<std::vector<double>> bs;
      bs.reserve(run.idx.size());
      for (std::size_t i : run.idx) bs.push_back(reqs[i].b);
      const double ts0 = dev_.host_time();
      std::vector<sparse::SolveReport> reports =
          sess->solver->solve_report_many(bs);
      const double batch_s = dev_.host_time() - ts0;
      if (auto* t = dev_.tracer()) t->observe("service.solve_s", batch_s);
      ++stats_.batches;
      stats_.batched_rhs += static_cast<long>(bs.size());
      bump("service.batches", 1);
      bump("service.batched_rhs", static_cast<double>(bs.size()));
      for (std::size_t k = 0; k < run.idx.size(); ++k) {
        const std::size_t i = run.idx[k];
        const bool reused = factor_reused(i);
        out[i].report = std::move(reports[k]);
        out[i].symbolic_cache_hit = symbolic_hit(i);
        out[i].factor_reused = reused;
        out[i].batch_width = static_cast<int>(bs.size());
        account(reqs[i].tenant, out[i]);
        // Per-tenant latency: this request's share of simulated device
        // time — the batch it rode, plus the factorization if it was the
        // request that paid for one.
        if (auto* t = dev_.tracer())
          t->observe("service.tenant." + reqs[i].tenant + ".latency_s",
                     batch_s + (reused ? 0.0 : run_factor_s));
      }
      sess->tick = ++lru_tick_;
    }
  }
  return out;
}

}  // namespace irrlu::service
