// Self-tests of the output checkers: each must accept a correct output and
// reject the same output with one corruption.

#include <cstdio>
#include <string>

#include "checks.hpp"
#include "harness.hpp"
#include "sparse/generators.hpp"

namespace stfw::perfbench {
namespace {

int failures = 0;

void expect(bool accepted, bool should_accept, const char* what, const std::string& why) {
  const bool ok = accepted == should_accept;
  std::printf("selftest: %-58s %s%s%s\n", what, ok ? "ok" : "FAILED",
              accepted ? "" : "  (rejected: ", accepted ? "" : (why + ")").c_str());
  if (!ok) ++failures;
}

void spmv_checker() {
  const sparse::Csr a = sparse::stencil_2d(12, 12);
  std::vector<double> x0(static_cast<std::size_t>(a.num_rows()));
  for (std::size_t i = 0; i < x0.size(); ++i) x0[i] = 0.5 + 0.01 * static_cast<double>(i % 7);
  const std::vector<double> want = reference_spmv(a, x0, 3);
  std::string why;
  // The program's own serial kernel agrees with the reference.
  std::vector<double> x = x0;
  std::vector<double> y(x.size());
  for (int it = 0; it < 3; ++it) {
    a.spmv(x, y);
    std::swap(x, y);
  }
  expect(check_spmv(x, want, 1e-12, why), true, "spmv: Csr::spmv matches the reference", why);
  x[17] *= 1.0 + 1e-9;
  expect(check_spmv(x, want, 1e-12, why), false, "spmv: y entry perturbed by 1e-9 relative", why);
}

void frontier_checker() {
  std::vector<ExpectedMessage> want(3);
  for (int i = 0; i < 3; ++i) {
    want[static_cast<std::size_t>(i)].source = i;
    for (int b = 0; b < 16 + 8 * i; ++b)
      want[static_cast<std::size_t>(i)].bytes.push_back(static_cast<std::byte>(b * 7 + i));
  }
  std::vector<InboundMessage> got;
  for (const auto& w : want) got.push_back({w.source, w.bytes});
  std::string why;
  expect(check_frontier_delivery(got, want, why), true, "frontier: exact delivery", why);

  auto flipped = got;
  flipped[1].bytes[5] ^= std::byte{0x01};
  expect(check_frontier_delivery(flipped, want, why), false, "frontier: one payload byte flipped",
         why);
  auto dropped = got;
  dropped.erase(dropped.begin() + 2);
  expect(check_frontier_delivery(dropped, want, why), false, "frontier: one message dropped",
         why);
  auto duplicated = got;
  duplicated.insert(duplicated.begin() + 1, duplicated[1]);
  expect(check_frontier_delivery(duplicated, want, why), false,
         "frontier: one message duplicated", why);
}

void resilient_checker() {
  spmv::ResilientRunReport report;
  std::string why;
  expect(check_resilient_report(report, why), true, "resilient: healthy report", why);
  report.failed_ranks = {2};
  expect(check_resilient_report(report, why), false, "resilient: a failed rank", why);
  report.failed_ranks.clear();
  report.degraded_iterations = 1;
  expect(check_resilient_report(report, why), false, "resilient: a degraded iteration", why);

  fault::FaultCounters c;
  c.duplicates = 3;
  c.reorders = 2;
  expect(check_faults_hit(c, why), true, "resilient: duplicates and reorders injected", why);
  c.reorders = 0;
  expect(check_faults_hit(c, why), false, "resilient: no reorder injected", why);
}

void sim_checker() {
  // Every rank sends to four others: K = 16 over T_1 and T_2(4, 4).
  constexpr core::Rank k = 16;
  sim::CommPattern pattern(k);
  for (core::Rank r = 0; r < k; ++r)
    for (const core::Rank d : {1, 3, 6, 11}) pattern.add_send(r, (r + d) % k, 8 * (1 + r % 3));
  pattern.finalize();
  sim::SimOptions opts;
  opts.collect_delivered = true;
  const auto machine = netsim::Machine::cray_xc40(k);
  opts.machine = &machine;
  const core::Vpt bl_vpt = core::Vpt::direct(k);
  const core::Vpt vpt = core::Vpt::balanced(k, 2);
  const sim::SimResult bl = sim::simulate_exchange(bl_vpt, pattern, opts);
  const sim::SimResult good = sim::simulate_exchange(vpt, pattern, opts);
  const std::int64_t bl_volume = bl.metrics.total_volume_words();
  std::string why;
  expect(check_sim(bl_vpt, pattern, bl, -1, why), true, "sim: BL result", why);
  expect(check_sim(vpt, pattern, good, bl_volume, why), true, "sim: T_2(4,4) result", why);

  sim::SimResult r = good;
  for (int i = 0; i < 7; ++i) r.metrics.record_send(0, 8);  // 7 more sends > 3 + 3
  expect(check_sim(vpt, pattern, r, bl_volume, why), false, "sim: mmax above sum(k_d - 1)", why);

  r = bl;
  r.metrics.record_send(5, 8);
  expect(check_sim(bl_vpt, pattern, r, -1, why), false, "sim: BL mmax != max_send_count", why);

  r = good;
  r.delivered[4].pop_back();
  expect(check_sim(vpt, pattern, r, bl_volume, why), false, "sim: one submessage lost", why);
  r = good;
  r.delivered[4].push_back(r.delivered[4].front());
  expect(check_sim(vpt, pattern, r, bl_volume, why), false, "sim: one submessage delivered twice",
         why);

  expect(check_sim(vpt, pattern, good, bl_volume + 1000, why), false,
         "sim: STFW volume below BL volume", why);

  r = good;
  r.stage_times_us[0] += 1.0;
  expect(check_sim(vpt, pattern, r, bl_volume, why), false, "sim: stage times off comm_time_us",
         why);
}

}  // namespace

int run_selftests() {
  failures = 0;
  spmv_checker();
  frontier_checker();
  resilient_checker();
  sim_checker();
  return failures;
}

}  // namespace stfw::perfbench
