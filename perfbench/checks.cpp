#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace stfw::perfbench {

std::vector<double> reference_spmv(const sparse::Csr& a, std::span<const double> x0,
                                   int iterations) {
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  std::vector<double> x(x0.begin(), x0.end());
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t r = 0; r < y.size(); ++r) {
      double acc = 0.0;
      for (auto i = static_cast<std::size_t>(row_ptr[r]);
           i < static_cast<std::size_t>(row_ptr[r + 1]); ++i)
        acc += values[i] * x[static_cast<std::size_t>(col_idx[i])];
      y[r] = acc;
    }
    std::swap(x, y);
  }
  return x;
}

bool check_spmv(std::span<const double> got, std::span<const double> want, double rel_tol,
                std::string& why) {
  if (got.size() != want.size()) {
    why = "spmv: result has " + std::to_string(got.size()) + " entries, expected " +
          std::to_string(want.size());
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(std::fabs(want[i]), 1e-300);
    if (!std::isfinite(got[i]) || std::fabs(got[i] - want[i]) > rel_tol * scale) {
      why = "spmv: entry " + std::to_string(i) + " is " + std::to_string(got[i]) +
            ", reference " + std::to_string(want[i]);
      return false;
    }
  }
  return true;
}

bool check_frontier_delivery(std::span<const InboundMessage> got,
                             std::span<const ExpectedMessage> want, std::string& why) {
  if (got.size() != want.size()) {
    why = "frontier: received " + std::to_string(got.size()) + " messages, expected " +
          std::to_string(want.size());
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].source != want[i].source) {
      why = "frontier: message " + std::to_string(i) + " from rank " +
            std::to_string(got[i].source) + ", expected rank " + std::to_string(want[i].source);
      return false;
    }
    if (got[i].bytes != want[i].bytes) {
      why = "frontier: payload from rank " + std::to_string(got[i].source) + " differs (" +
            std::to_string(got[i].bytes.size()) + " bytes, expected " +
            std::to_string(want[i].bytes.size()) + ")";
      return false;
    }
  }
  return true;
}

bool check_resilient_report(const spmv::ResilientRunReport& report, std::string& why) {
  if (!report.failed_ranks.empty()) {
    why = "resilient: rank " + std::to_string(report.failed_ranks.front()) + " failed";
    return false;
  }
  if (report.degraded_iterations != 0) {
    why = "resilient: " + std::to_string(report.degraded_iterations) + " degraded iterations";
    return false;
  }
  return true;
}

bool check_faults_hit(const fault::FaultCounters& counters, std::string& why) {
  if (counters.duplicates <= 0 || counters.reorders <= 0) {
    why = "resilient: injected " + std::to_string(counters.duplicates) + " duplicates and " +
          std::to_string(counters.reorders) + " reorders; both must be nonzero";
    return false;
  }
  return true;
}

bool check_sim(const core::Vpt& vpt, const sim::CommPattern& pattern, const sim::SimResult& r,
               std::int64_t bl_volume_words, std::string& why) {
  const std::string tag = "sim " + vpt.to_string() + ": ";
  std::int64_t bound = 0;
  for (const int k : vpt.dim_sizes()) bound += k - 1;
  const std::int64_t mmax = r.metrics.max_send_count();
  if (mmax > bound) {
    why = tag + "mmax " + std::to_string(mmax) + " exceeds sum(k_d - 1) = " + std::to_string(bound);
    return false;
  }
  if (vpt.dim() == 1 && mmax != pattern.max_send_count()) {
    why = tag + "BL mmax " + std::to_string(mmax) + " != pattern max send count " +
          std::to_string(pattern.max_send_count());
    return false;
  }
  if (bl_volume_words >= 0 && r.metrics.total_volume_words() < bl_volume_words) {
    why = tag + "volume " + std::to_string(r.metrics.total_volume_words()) + " below BL's " +
          std::to_string(bl_volume_words);
    return false;
  }
  double stage_sum = 0.0;
  for (const double t : r.stage_times_us) stage_sum += t;
  if (static_cast<int>(r.stage_times_us.size()) != vpt.dim() ||
      std::fabs(stage_sum - r.comm_time_us) > 1e-9 * std::max(1.0, r.comm_time_us)) {
    why = tag + "stage times sum to " + std::to_string(stage_sum) + " us over " +
          std::to_string(r.stage_times_us.size()) + " stages, comm_time_us is " +
          std::to_string(r.comm_time_us);
    return false;
  }
  if (r.delivered.empty()) return true;
  // Exactly-once delivery: per destination, the (source, bytes) multiset of
  // delivered submessages equals the pattern's messages to it.
  const auto k = static_cast<std::size_t>(pattern.num_ranks());
  if (r.delivered.size() != k) {
    why = tag + "delivered lists for " + std::to_string(r.delivered.size()) + " ranks";
    return false;
  }
  std::vector<std::vector<std::pair<core::Rank, std::uint32_t>>> want(k);
  for (core::Rank src = 0; src < pattern.num_ranks(); ++src)
    for (const sim::Send& s : pattern.sends(src))
      want[static_cast<std::size_t>(s.dest)].emplace_back(src, s.payload_bytes);
  std::vector<std::pair<core::Rank, std::uint32_t>> got;
  for (std::size_t d = 0; d < k; ++d) {
    got.clear();
    for (const core::Submessage& s : r.delivered[d]) {
      if (s.dest != static_cast<core::Rank>(d)) {
        why = tag + "submessage for rank " + std::to_string(s.dest) + " delivered to rank " +
              std::to_string(d);
        return false;
      }
      got.emplace_back(s.source, s.size_bytes);
    }
    std::sort(got.begin(), got.end());
    std::sort(want[d].begin(), want[d].end());
    if (got != want[d]) {
      why = tag + "rank " + std::to_string(d) + " received " + std::to_string(got.size()) +
            " submessages, expected " + std::to_string(want[d].size()) +
            " (or a source/size differs)";
      return false;
    }
  }
  return true;
}

}  // namespace stfw::perfbench
