#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/vpt.hpp"
#include "harness.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "spmv/distributed.hpp"

/// \file problem.hpp
/// The matrix every workload runs on: the synthetic stand-in for the
/// paper's gupta2 (linear programming, dense rows), partitioned by the
/// column-net hypergraph model.

namespace stfw::perfbench {

/// gupta2's Table 1 statistics at `scale` (sparse::scaled_spec), with at
/// least `min_rows` rows; when the spec asks for more than `nnz_cap`
/// nonzeros it is thinned the way the repository's bench harness thins its
/// instances: rows kept, nonzeros and maximum degree scaled down together.
sparse::MatrixSpec gupta2_spec(double scale, std::int32_t min_rows, std::int64_t nnz_cap);

/// The K = 4 runtime workloads' matrix.
sparse::MatrixSpec k4_matrix_spec();
/// The K = 4096 simulator workload's matrix: 4 rows per part, capped at the
/// 600k nonzeros that bench/bench_util.cpp caps its instances to.
sparse::MatrixSpec k4096_matrix_spec();

struct MatrixSetup {
  sparse::Csr matrix;
  std::vector<std::int32_t> parts;
  std::unique_ptr<spmv::SpmvProblem> problem;  // refers to `matrix`
};

/// sparse::generate + partition::partition_rows + the SpmvProblem
/// constructor, each wrapped in its own main-track span. All three draw
/// their randomness from `seed`.
std::unique_ptr<MatrixSetup> build_problem(const sparse::MatrixSpec& spec, std::uint64_t seed,
                                           std::int32_t num_parts, bool build_plans,
                                           Tracer& tracer);

/// Deterministic stream of 64-bit words (splitmix64).
std::uint64_t mix64(std::uint64_t x);

/// x0 with entries in [0.5, 1.5): positive, so iterating x <- A x never
/// cancels and a relative per-entry tolerance is meaningful.
std::vector<double> make_x0(std::int32_t n, std::uint64_t seed);

/// Setup-layer metrics shared by every workload: the median span durations
/// of the three set-up calls and the partition's quality.
void setup_layer_metrics(const Tracer& tracer, const MatrixSetup& m, LayerValues& out);

/// sparse.serial_spmv_ms: median of single-threaded Csr::spmv calls on the
/// workload's matrix, the plain serial baseline of the distributed runs.
double serial_spmv_ms(const sparse::Csr& a);

/// Sum of one rank's LocalExchangeStats over the exchanges of a traced
/// phase.
struct ExchangeTotals {
  std::int64_t exchanges = 0;
  std::int64_t frames = 0;  // stage frames with submessages plus fillers
  std::int64_t plan_hits = 0;
  std::int64_t pool_hits = 0;
  std::int64_t pool_misses = 0;
  double wire_bytes = 0.0;
  double payload_bytes = 0.0;
  std::int64_t retransmits = 0;
  std::int64_t acks_sent = 0;
  std::int64_t duplicates_discarded = 0;

  void add(const LocalExchangeStats& s);
};

/// The runtime-layer metrics shared by the K = 4 workloads, from per-rank
/// totals and per-exchange peer skews: frames, plan and pool hit ratios,
/// wire bytes, and (resilient) retransmits, acks and discarded duplicates.
void exchange_layer_metrics(const std::vector<ExchangeTotals>& per_rank,
                            const std::vector<double>& skew_us, bool resilient,
                            LayerValues& out);

/// Appends, for each exchange index, the latest minus the earliest rank
/// entry time (us); entry_ns is [rank][exchange].
void append_peer_skews(const std::vector<std::vector<std::int64_t>>& entry_ns,
                       std::vector<double>& skew_us);

/// runtime.cluster_run_ms: median wall time of an empty Cluster::run.
double empty_cluster_run_ms(runtime::Cluster& cluster);

/// runtime.plan_us: median per-rank time of the collective
/// StfwCommunicator::plan over the SpMV pattern of `problem`, recorded as
/// spans on the rank tracks.
double plan_us(runtime::Cluster& cluster, const spmv::SpmvProblem& problem, const core::Vpt& vpt,
               Tracer& tracer);

}  // namespace stfw::perfbench
