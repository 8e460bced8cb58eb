#include "ordering/mc64.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/error.hpp"

namespace irrlu::ordering {

Mc64Result mc64_scaling(int n, const int* ptr, const int* ind,
                        const double* val) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Mc64Result out;
  out.col_of_row.assign(static_cast<std::size_t>(n), -1);
  out.dr.assign(static_cast<std::size_t>(n), 1.0);
  out.dc.assign(static_cast<std::size_t>(n), 1.0);

  // Costs: c_ij = log(rmax_i) - log|a_ij| >= 0.
  std::vector<double> log_rmax(static_cast<std::size_t>(n), -kInf);
  for (int i = 0; i < n; ++i) {
    double m = 0;
    for (int k = ptr[i]; k < ptr[i + 1]; ++k)
      m = std::max(m, std::abs(val[k]));
    if (m > 0) log_rmax[static_cast<std::size_t>(i)] = std::log(m);
  }
  auto cost = [&](int i, int k) {
    const double a = std::abs(val[k]);
    if (a == 0.0) return kInf;
    return log_rmax[static_cast<std::size_t>(i)] - std::log(a);
  };

  std::vector<double> u(static_cast<std::size_t>(n), 0.0);
  std::vector<double> v(static_cast<std::size_t>(n), 0.0);
  std::vector<int> row_of_col(static_cast<std::size_t>(n), -1);

  // Cheap initialization: match rows to their maximum entry if free.
  for (int i = 0; i < n; ++i)
    for (int k = ptr[i]; k < ptr[i + 1]; ++k) {
      if (cost(i, k) == 0.0 && row_of_col[static_cast<std::size_t>(ind[k])] <
                                   0) {
        out.col_of_row[static_cast<std::size_t>(i)] = ind[k];
        row_of_col[static_cast<std::size_t>(ind[k])] = i;
        break;
      }
    }

  // Shortest augmenting path per unmatched row. Costs are needed only from
  // here on, so they are computed once, and only if some row is still
  // unmatched after the cheap pass.
  std::vector<double> cost_of;
  if (std::find(out.col_of_row.begin(), out.col_of_row.end(), -1) !=
      out.col_of_row.end()) {
    cost_of.resize(static_cast<std::size_t>(ptr[n]));
    for (int i = 0; i < n; ++i)
      for (int k = ptr[i]; k < ptr[i + 1]; ++k)
        cost_of[static_cast<std::size_t>(k)] = cost(i, k);
  }
  // Search state. Only the columns a search reaches (`reached`) leave
  // their initial values, so only those are reset before the next search.
  std::vector<double> dist(static_cast<std::size_t>(n), kInf);
  std::vector<int> prev_row(static_cast<std::size_t>(n), -1);
  std::vector<char> in_tree(static_cast<std::size_t>(n), 0);
  std::vector<int> reached, visited_cols;
  using QEntry = std::pair<double, int>;  // (distance, column)

  for (int r0 = 0; r0 < n; ++r0) {
    if (out.col_of_row[static_cast<std::size_t>(r0)] >= 0) continue;
    for (int j : reached) {
      dist[static_cast<std::size_t>(j)] = kInf;
      prev_row[static_cast<std::size_t>(j)] = -1;
      in_tree[static_cast<std::size_t>(j)] = 0;
    }
    reached.clear();
    visited_cols.clear();
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<QEntry>> pq;

    int r = r0;
    double shortest = 0.0;
    int final_col = -1;

    while (true) {
      for (int k = ptr[r]; k < ptr[r + 1]; ++k) {
        const int j = ind[k];
        if (in_tree[static_cast<std::size_t>(j)]) continue;
        const double c = cost_of[static_cast<std::size_t>(k)];
        if (c == kInf) continue;
        const double alt = shortest + c - u[static_cast<std::size_t>(r)] -
                           v[static_cast<std::size_t>(j)];
        if (alt < dist[static_cast<std::size_t>(j)] - 1e-15) {
          if (dist[static_cast<std::size_t>(j)] == kInf) reached.push_back(j);
          dist[static_cast<std::size_t>(j)] = alt;
          prev_row[static_cast<std::size_t>(j)] = r;
          pq.emplace(alt, j);
        }
      }
      int jstar = -1;
      while (!pq.empty()) {
        auto [d, j] = pq.top();
        pq.pop();
        if (in_tree[static_cast<std::size_t>(j)] ||
            d > dist[static_cast<std::size_t>(j)] + 1e-15)
          continue;
        jstar = j;
        break;
      }
      if (jstar < 0) break;  // no augmenting path: structurally singular
      in_tree[static_cast<std::size_t>(jstar)] = 1;
      visited_cols.push_back(jstar);
      shortest = dist[static_cast<std::size_t>(jstar)];
      if (row_of_col[static_cast<std::size_t>(jstar)] < 0) {
        final_col = jstar;
        break;
      }
      r = row_of_col[static_cast<std::size_t>(jstar)];
    }

    if (final_col < 0) {
      out.structurally_nonsingular = false;
      continue;
    }
    // Dual updates (keep reduced costs non-negative).
    u[static_cast<std::size_t>(r0)] += shortest;
    for (int j : visited_cols) {
      if (j == final_col) continue;
      const int rj = row_of_col[static_cast<std::size_t>(j)];
      u[static_cast<std::size_t>(rj)] +=
          shortest - dist[static_cast<std::size_t>(j)];
      v[static_cast<std::size_t>(j)] -=
          shortest - dist[static_cast<std::size_t>(j)];
    }
    // Augment along the predecessor chain.
    int j = final_col;
    while (j >= 0) {
      const int ri = prev_row[static_cast<std::size_t>(j)];
      const int jnext = out.col_of_row[static_cast<std::size_t>(ri)];
      out.col_of_row[static_cast<std::size_t>(ri)] = j;
      row_of_col[static_cast<std::size_t>(j)] = ri;
      j = jnext;
    }
  }

  // Scalings from the duals: Dr_i = e^{u_i} / rmax_i, Dc_j = e^{v_j}.
  for (int i = 0; i < n; ++i) {
    if (log_rmax[static_cast<std::size_t>(i)] == -kInf) continue;  // empty
    out.dr[static_cast<std::size_t>(i)] =
        std::exp(u[static_cast<std::size_t>(i)] -
                 log_rmax[static_cast<std::size_t>(i)]);
  }
  for (int j = 0; j < n; ++j)
    out.dc[static_cast<std::size_t>(j)] =
        std::exp(v[static_cast<std::size_t>(j)]);
  return out;
}

}  // namespace irrlu::ordering
