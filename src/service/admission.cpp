#include "service/admission.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

namespace {

/// Admission-control series (leaked; registered on first use).
struct AdmissionMetrics {
  obs::Gauge& backlog_entries;
  obs::Gauge& backlog_tokens;
};

AdmissionMetrics& admission_metrics() {
  static AdmissionMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::instance();
    return new AdmissionMetrics{
        reg.gauge("dlb_admission_backlog_entries",
                  "Queued (node, amount) admission requests after the last "
                  "prepared round."),
        reg.gauge("dlb_admission_backlog_tokens",
                  "Tokens waiting in the admission backlog after the last "
                  "prepared round."),
    };
  }();
  return *m;
}

}  // namespace

AdmissionQueue::AdmissionQueue(WorkloadProcess& inner, Params params)
    : inner_(&inner), params_(params) {
  DLB_REQUIRE(params_.round_cap >= 1, "AdmissionQueue: cap must be >= 1");
}

std::string AdmissionQueue::name() const {
  return "admit(cap=" + std::to_string(params_.round_cap) + "," +
         inner_->name() + ")";
}

void AdmissionQueue::reset(NodeId n, std::uint64_t seed) {
  inner_->reset(n, seed);
  n_ = n;
  backlog_.clear();
  backlog_tokens_ = 0;
  round_delta_.assign(static_cast<std::size_t>(n), 0);
  affected_.clear();
}

Load AdmissionQueue::admit(NodeId node, Load amount, Load budget) {
  const Load granted = std::min(amount, budget);
  if (granted <= 0) return 0;
  Load& slot = round_delta_[static_cast<std::size_t>(node)];
  if (slot == 0) affected_.push_back(node);
  slot += granted;
  return granted;
}

void AdmissionQueue::prepare(Step t, std::span<const Load> loads) {
  DLB_REQUIRE(n_ > 0, "AdmissionQueue: reset() must run before stepping");
  inner_->prepare(t, loads);

  // Clear only last round's touched entries — O(touched), not O(n).
  for (NodeId u : affected_) round_delta_[static_cast<std::size_t>(u)] = 0;
  affected_.clear();

  // Backlog drains first: oldest admission requests have priority over
  // this round's arrivals. Partial admission leaves the remainder at the
  // front, preserving FIFO order.
  Load budget = params_.round_cap;
  while (budget > 0 && !backlog_.empty()) {
    auto& [node, amount] = backlog_.front();
    const Load granted = admit(node, amount, budget);
    budget -= granted;
    amount -= granted;
    backlog_tokens_ -= granted;
    if (amount == 0) backlog_.pop_front();
  }

  // This round's inner deltas: negatives pass through untouched
  // (consumption is not admission-limited); positives are admitted up to
  // the remaining budget, the excess queued. Ascending node order keeps
  // the backlog sequence deterministic.
  auto take = [&](NodeId u, Load d) {
    if (d == 0) return;
    if (d < 0) {
      Load& slot = round_delta_[static_cast<std::size_t>(u)];
      if (slot == 0) affected_.push_back(u);
      slot += d;
      return;
    }
    const Load granted = admit(u, d, budget);
    budget -= granted;
    if (d > granted) {
      backlog_.emplace_back(u, d - granted);
      backlog_tokens_ += d - granted;
    }
  };
  if (const std::vector<NodeId>* sparse = inner_->affected_nodes()) {
    for (NodeId u : *sparse) {
      require_affected_node(u, static_cast<std::size_t>(n_));
      take(u, inner_->delta(u, t));
    }
  } else {
    // The draws fan out over a lent pool (when the inner process allows
    // it); admission walks their nonzero results serially, in ascending
    // node order at any pool size.
    scan_nonzero_deltas(*inner_, n_, t, ThreadPool::current(), chunk_nonzero_,
                        nullptr);
    for (const auto& block : chunk_nonzero_) {
      for (const auto& [u, d] : block) take(u, d);
    }
  }

  if (obs::metrics_armed()) {
    AdmissionMetrics& m = admission_metrics();
    m.backlog_entries.set(static_cast<std::int64_t>(backlog_.size()));
    m.backlog_tokens.set(backlog_total());
  }
}

Load AdmissionQueue::delta(NodeId u, Step /*t*/) {
  return round_delta_[static_cast<std::size_t>(u)];
}

const std::vector<NodeId>* AdmissionQueue::affected_nodes() const {
  return &affected_;
}

void AdmissionQueue::save_state(StateWriter& w) const {
  inner_->save_state(w);
  w.u64(backlog_.size());
  for (const auto& [node, amount] : backlog_) {
    w.i32(node);
    w.i64(amount);
  }
}

void AdmissionQueue::load_state(StateReader& r) {
  inner_->load_state(r);
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 12) {  // 4 bytes node + 8 bytes amount each
    throw serial_error("admission queue state: truncated backlog");
  }
  std::deque<std::pair<NodeId, Load>> backlog;
  Load tokens = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const NodeId node = r.i32();
    const Load amount = r.i64();
    if (node < 0 || (n_ > 0 && node >= n_)) {
      throw serial_error("admission queue state: backlog node out of range");
    }
    if (amount <= 0) {
      throw serial_error("admission queue state: non-positive backlog entry");
    }
    if (amount > std::numeric_limits<Load>::max() - tokens) {
      throw serial_error("admission queue state: backlog total overflows");
    }
    tokens += amount;
    backlog.emplace_back(node, amount);
  }
  backlog_ = std::move(backlog);
  backlog_tokens_ = tokens;
}

}  // namespace dlb
