#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/vpt.hpp"
#include "fault/fault_injector.hpp"
#include "runtime/stfw_communicator.hpp"
#include "sim/bsp_simulator.hpp"
#include "sim/pattern.hpp"
#include "sparse/csr.hpp"
#include "spmv/runner.hpp"

/// \file checks.hpp
/// Output checkers of the benchmark. Each compares a program output with a
/// computation made here, apart from the program, or with a property the
/// method must have; each returns false and says why on a mismatch.

namespace stfw::perfbench {

/// The benchmark's own serial CSR multiply: `iterations` of x <- A x over
/// the raw row_ptr/col_idx/values arrays (not sparse::Csr::spmv).
std::vector<double> reference_spmv(const sparse::Csr& a, std::span<const double> x0,
                                   int iterations);

/// Every entry of `got` within `rel_tol` of `want`, relative per entry.
bool check_spmv(std::span<const double> got, std::span<const double> want, double rel_tol,
                std::string& why);

/// One message a frontier receiver expects: its sender and exact bytes.
struct ExpectedMessage {
  core::Rank source = -1;
  std::vector<std::byte> bytes;
};

/// Exactly-once delivery: `got` (sorted by source) holds one message per
/// expected sender with exactly the expected bytes, and nothing else.
bool check_frontier_delivery(std::span<const InboundMessage> got,
                             std::span<const ExpectedMessage> want, std::string& why);

/// A resilient SpMV run on a fault injector that only duplicates and
/// reorders: no rank failed and no iteration ran degraded.
bool check_resilient_report(const spmv::ResilientRunReport& report, std::string& why);

/// The injected faults were hit: nonzero duplicates and reorders.
bool check_faults_hit(const fault::FaultCounters& counters, std::string& why);

/// One simulated exchange of `pattern` over `vpt`:
///  - mmax <= sum_d (k_d - 1);
///  - BL (a one-dimensional VPT) mmax equals pattern.max_send_count();
///  - STFW volume >= `bl_volume_words` (pass -1 to skip, as for BL itself);
///  - the stage times sum to comm_time_us;
///  - when `r.delivered` is filled, every submessage reached its
///    destination exactly once (compared with the pattern).
bool check_sim(const core::Vpt& vpt, const sim::CommPattern& pattern, const sim::SimResult& r,
               std::int64_t bl_volume_words, std::string& why);

}  // namespace stfw::perfbench
