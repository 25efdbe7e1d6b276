#include "core/fairness.hpp"

#include <algorithm>

#include "util/assertions.hpp"
#include "util/intmath.hpp"

namespace dlb {

void FairnessAuditor::on_step(Step /*t*/, const Graph& g, int d_loops,
                              std::span<const Load> pre,
                              std::span<const Load> flows,
                              std::span<const Load> /*post*/) {
  if (!initialized_) {
    n_ = g.num_nodes();
    d_ = g.degree();
    d_loops_ = d_loops;
    cum_.assign(static_cast<std::size_t>(n_) * d_, 0);
    initialized_ = true;
  }
  const int d_plus = d_ + d_loops_;
  // The auditor's cumulative rows are sized by its first step: reused on
  // another run it must see the same shape, or its reads leave `pre`,
  // `flows` and `cum_`.
  DLB_REQUIRE(g.num_nodes() == n_ && g.degree() == d_ &&
                  d_loops == d_loops_ &&
                  pre.size() == static_cast<std::size_t>(n_) &&
                  flows.size() == static_cast<std::size_t>(n_) * d_plus,
              "FairnessAuditor: step shape differs from its first step "
              "(an auditor audits one run)");

  for (NodeId u = 0; u < n_; ++u) {
    const Load x = pre[static_cast<std::size_t>(u)];
    const Load* row = flows.data() + static_cast<std::size_t>(u) * d_plus;
    const Load floor_share = floor_div(x, d_plus);
    const Load ceil_share = ceil_div(x, d_plus);
    const Load excess = x - d_plus * floor_share;  // e(u) ∈ [0, d⁺)

    Load sent = 0;
    Load ceil_self_loops = 0;
    for (int p = 0; p < d_plus; ++p) {
      const Load f = row[p];
      sent += f;
      if (f < 0) report_.negative_seen = true;
      if (f < floor_share) report_.floor_condition_ok = false;
      if (f != floor_share && f != ceil_share) report_.round_fair = false;
      if (p >= d_ && excess > 0 && f >= ceil_share) ++ceil_self_loops;
    }

    const Load remainder = x - sent;
    if (remainder < 0) report_.negative_seen = true;
    report_.max_remainder =
        std::max(report_.max_remainder, std::abs(remainder));

    // s-self-preference: the step admits any s with
    // min{s, e(u)} <= ceil_self_loops; when ceil_self_loops >= e(u) every
    // s works, otherwise the largest admissible s is ceil_self_loops.
    if (excess > 0 && ceil_self_loops < excess) {
      report_.observed_s = std::min(report_.observed_s, ceil_self_loops);
    }

    // Cumulative imbalance over the original edges (Definition 2.1 (ii)).
    Load* cum_row = cum_.data() + static_cast<std::size_t>(u) * d_;
    for (int p = 0; p < d_; ++p) cum_row[p] += row[p];
    const auto [lo, hi] = std::minmax_element(cum_row, cum_row + d_);
    report_.observed_delta = std::max(report_.observed_delta, *hi - *lo);
  }
  ++report_.steps;
}

}  // namespace dlb
