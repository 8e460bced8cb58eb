// bench_compare: the benchmark regression gate.
//
//   bench_compare <baseline.json> <candidate.json> [--threshold f]
//   bench_compare --self-check <file.json> [--threshold f]
//
// Compares two BENCH_*.json artifacts (bench_util.hpp schemas) metric by
// metric and exits nonzero on a regression. The comparison is structural:
// every numeric leaf of the baseline must exist at the same path in the
// candidate (a vanished metric is a regression — renames must update the
// baseline artifact in the same change). Arrays whose rows all carry a
// string "name" key (the BENCH_blas classes) are matched by name instead
// of index, so a candidate may *add* rows — e.g. new precision twins —
// without tripping the gate, while a vanished row still fails. Leaves
// are classified by key name:
//
//   larger-is-worse   *_ns, *_s (timing medians and totals): candidate
//                     may exceed baseline by at most the per-metric noise
//                     threshold (default 25% — the medians are wall-clock
//                     on shared machines; deterministic *_sim_s columns
//                     use a tight 1e-9 relative tolerance instead).
//                     *launches, *allocs (device launch and allocation
//                     event counts, e.g. BENCH_factor's launches, allocs
//                     and host_allocs, BENCH_service's seq_launches,
//                     batched_launches and batched_allocs): deterministic,
//                     so no increase at all is allowed
//   larger-is-better  *speedup*, *gflops*, *hit_rate*, *ratio*: candidate
//                     may fall short of baseline by at most the threshold
//   info-only         other counts, sizes, booleans, strings: reported
//                     when different, never gated
//
// The "meta" provenance object (git_sha/generated_utc/hostname) is
// skipped entirely — it differs between any two honest artifacts.
//
// --self-check gates the gate itself: <file> vs itself must pass, and
// <file> vs a copy with every gated metric perturbed past its tolerance
// (each launch and allocation count raised by one) must fail. CI runs
// this against the committed artifacts so a silently broken comparator
// cannot wave regressions through.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace {

using irrlu::json::Value;

enum class Metric { kLargerWorse, kLargerBetter, kInfo };

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// Device launch and allocation event counts.
bool is_count(const std::string& key) {
  return ends_with(key, "launches") || ends_with(key, "allocs");
}

Metric classify(const std::string& key) {
  if (contains(key, "speedup") || contains(key, "gflops") ||
      contains(key, "hit_rate") || contains(key, "ratio"))
    return Metric::kLargerBetter;
  if (ends_with(key, "_ns") || ends_with(key, "_s") || is_count(key))
    return Metric::kLargerWorse;
  return Metric::kInfo;
}

/// Relative tolerance of a gated metric. Counts and simulated-seconds
/// columns are deterministic (equal between honest runs of the same
/// build), so noise tolerance does not apply to them.
double tolerance(const std::string& key, double threshold) {
  if (is_count(key)) return 0.0;
  if (ends_with(key, "sim_s")) return 1e-9;
  return threshold;
}

struct Gate {
  double threshold = 0.25;  ///< relative noise allowance for wall metrics
  int compared = 0;
  int infos = 0;
  std::vector<std::string> regressions;

  void check(const std::string& path, const std::string& key, double base,
             double cand) {
    const Metric m = classify(key);
    if (m == Metric::kInfo) {
      if (base != cand) ++infos;
      return;
    }
    ++compared;
    const double tol = tolerance(key, threshold);
    char buf[512];
    if (m == Metric::kLargerWorse) {
      if (cand > base * (1.0 + tol) + 1e-300) {
        std::snprintf(buf, sizeof buf,
                      "%s: %.6g -> %.6g (+%.1f%%, allowed +%.1f%%)",
                      path.c_str(), base, cand, (cand / base - 1.0) * 100,
                      tol * 100);
        regressions.emplace_back(buf);
      }
    } else {
      if (cand < base * (1.0 - tol) - 1e-300) {
        std::snprintf(buf, sizeof buf,
                      "%s: %.6g -> %.6g (-%.1f%%, allowed -%.1f%%)",
                      path.c_str(), base, cand, (1.0 - cand / base) * 100,
                      tol * 100);
        regressions.emplace_back(buf);
      }
    }
  }
};

/// Walks the baseline tree; every numeric leaf must exist in the
/// candidate at the same path and pass its gate. Extra candidate keys
/// are fine (new metrics need no baseline yet).
void compare(const Value& base, const Value& cand, const std::string& path,
             const std::string& key, Gate& g) {
  if (base.type != cand.type) {
    g.regressions.push_back(path + ": type changed");
    return;
  }
  switch (base.type) {
    case Value::Type::kObject:
      for (const auto& [k, v] : base.fields) {
        if (k == "meta") continue;  // provenance: differs by construction
        const Value* cv = cand.find(k);
        if (cv == nullptr) {
          g.regressions.push_back(path + "/" + k + ": missing in candidate");
          continue;
        }
        compare(v, *cv, path + "/" + k, k, g);
      }
      break;
    case Value::Type::kArray: {
      // Arrays of rows with a stable string "name" key match by name:
      // every baseline row must still exist (a vanished row is a
      // regression, same as a vanished metric), while rows new to the
      // candidate need no baseline yet — exactly the object-key rule.
      const auto named = [](const Value& v) {
        for (const Value& item : v.items) {
          if (item.type != Value::Type::kObject) return false;
          const Value* n = item.find("name");
          if (n == nullptr || n->type != Value::Type::kString) return false;
        }
        return !v.items.empty();
      };
      if (named(base) && named(cand)) {
        for (const Value& row : base.items) {
          const std::string name = row.string_or("name", "");
          const Value* match = nullptr;
          for (const Value& c : cand.items)
            if (c.string_or("name", "") == name) {
              match = &c;
              break;
            }
          if (match == nullptr) {
            g.regressions.push_back(path + "[name=" + name +
                                    "]: missing in candidate");
            continue;
          }
          compare(row, *match, path + "[name=" + name + "]", key, g);
        }
        break;
      }
      if (base.items.size() != cand.items.size()) {
        g.regressions.push_back(path + ": array length " +
                                std::to_string(base.items.size()) + " -> " +
                                std::to_string(cand.items.size()));
        return;
      }
      for (std::size_t i = 0; i < base.items.size(); ++i)
        compare(base.items[i], cand.items[i],
                path + "[" + std::to_string(i) + "]", key, g);
      break;
    }
    case Value::Type::kNumber:
      g.check(path, key, base.number, cand.number);
      break;
    default:
      break;  // strings/bools/null: schema markers, not metrics
  }
}

int run_compare(const Value& base, const Value& cand, double threshold,
                bool quiet) {
  Gate g;
  g.threshold = threshold;
  const std::string bs = base.string_or("schema", "");
  const std::string cs = cand.string_or("schema", "");
  if (bs.empty() || bs != cs) {
    if (!quiet)
      std::fprintf(stderr, "bench_compare: schema mismatch: '%s' vs '%s'\n",
                   bs.c_str(), cs.c_str());
    return 2;
  }
  compare(base, cand, "", "", g);
  if (!g.regressions.empty()) {
    if (!quiet) {
      std::fprintf(stderr, "bench_compare: %zu regression(s) [%s]:\n",
                   g.regressions.size(), bs.c_str());
      for (const std::string& r : g.regressions)
        std::fprintf(stderr, "  %s\n", r.c_str());
    }
    return 1;
  }
  if (!quiet)
    std::printf("bench_compare: OK [%s] — %d gated metrics within "
                "threshold, %d info-only differences\n",
                bs.c_str(), g.compared, g.infos);
  return 0;
}

/// Moves every gated metric past its tolerance, in place (only the launch
/// and allocation counts when `counts_only`). Returns the leaves moved.
int perturb(Value& v, const std::string& key, double threshold,
            bool counts_only) {
  int moved = 0;
  switch (v.type) {
    case Value::Type::kObject:
      for (auto& [k, child] : v.fields) {
        if (k == "meta") continue;
        moved += perturb(child, k, threshold, counts_only);
      }
      break;
    case Value::Type::kArray:
      for (Value& item : v.items)
        moved += perturb(item, key, threshold, counts_only);
      break;
    case Value::Type::kNumber: {
      const Metric m = classify(key);
      const double tol = tolerance(key, threshold);
      if (is_count(key)) {
        v.number += 1;
      } else if (counts_only || m == Metric::kInfo) {
        break;
      } else if (m == Metric::kLargerWorse) {
        v.number = v.number * (1.0 + 2 * tol) + 1e-12;
      } else {
        v.number = v.number * (1.0 - std::min(2 * tol, 0.999)) - 1e-12;
      }
      ++moved;
      break;
    }
    default:
      break;
  }
  return moved;
}

int self_check(const Value& doc, double threshold) {
  if (run_compare(doc, doc, threshold, /*quiet=*/true) != 0) {
    std::fprintf(stderr,
                 "bench_compare: self-check FAILED — identical artifacts "
                 "did not pass\n");
    return 1;
  }
  // Every gated metric moved, then the counts alone: an artifact that
  // only gains launches or allocations must fail too.
  for (const bool counts_only : {false, true}) {
    Value worse = doc;
    if (perturb(worse, "", threshold, counts_only) == 0 && counts_only)
      continue;
    if (run_compare(doc, worse, threshold, /*quiet=*/true) == 0) {
      std::fprintf(stderr,
                   "bench_compare: self-check FAILED — perturbed artifact "
                   "(%s) was not flagged\n",
                   counts_only ? "launch/allocation counts" : "all metrics");
      return 1;
    }
  }
  std::printf("bench_compare: self-check OK [%s]\n",
              doc.string_or("schema", "?").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    double threshold = 0.25;
    std::vector<std::string> files;
    bool self = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-check") {
        self = true;
      } else if (arg == "--threshold") {
        IRRLU_CHECK_MSG(i + 1 < argc, "--threshold needs a value");
        threshold = std::atof(argv[++i]);
        IRRLU_CHECK_MSG(threshold > 0, "--threshold must be > 0");
      } else {
        files.push_back(arg);
      }
    }
    if (self) {
      IRRLU_CHECK_MSG(files.size() == 1,
                      "usage: bench_compare --self-check <file.json>");
      return self_check(irrlu::json::parse_file(files[0]), threshold);
    }
    IRRLU_CHECK_MSG(
        files.size() == 2,
        "usage: bench_compare <baseline.json> <candidate.json> "
        "[--threshold f] | bench_compare --self-check <file.json>");
    return run_compare(irrlu::json::parse_file(files[0]),
                       irrlu::json::parse_file(files[1]), threshold,
                       /*quiet=*/false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
}
