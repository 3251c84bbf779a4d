#include "problem.hpp"

#include <algorithm>

#include "partition/partitioner.hpp"

namespace stfw::perfbench {

sparse::MatrixSpec gupta2_spec(double scale, std::int32_t min_rows, std::int64_t nnz_cap) {
  sparse::MatrixSpec spec =
      sparse::scaled_spec(sparse::find_paper_matrix("gupta2"), scale, min_rows);
  if (spec.nnz > nnz_cap) {
    const double thin = static_cast<double>(nnz_cap) / static_cast<double>(spec.nnz);
    spec.nnz = nnz_cap;
    spec.max_degree = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(static_cast<double>(spec.max_degree) * thin));
    spec.maxdr = static_cast<double>(spec.max_degree) / spec.rows;
  }
  return spec;
}

sparse::MatrixSpec k4_matrix_spec() { return gupta2_spec(0.4, 0, 1'000'000'000); }

sparse::MatrixSpec k4096_matrix_spec() { return gupta2_spec(0.25, 16384, 600'000); }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::unique_ptr<MatrixSetup> build_problem(const sparse::MatrixSpec& spec, std::uint64_t seed,
                                           std::int32_t num_parts, bool build_plans,
                                           Tracer& tracer) {
  auto m = std::make_unique<MatrixSetup>();
  {
    Tracer::Scope s(tracer, "sparse::generate", Tracer::kMainTrack, 0);
    m->matrix = sparse::generate(spec, mix64(seed ^ 0x6d61747269784aULL));
  }
  {
    Tracer::Scope s(tracer, "partition::partition_rows", Tracer::kMainTrack, 0);
    partition::PartitionOptions opts;
    opts.num_parts = num_parts;
    opts.seed = mix64(seed ^ 0x7061727473ULL);
    m->parts = partition::partition_rows(m->matrix, opts);
  }
  {
    Tracer::Scope s(tracer, "spmv::SpmvProblem", Tracer::kMainTrack, 0);
    m->problem = std::make_unique<spmv::SpmvProblem>(m->matrix, m->parts, num_parts, build_plans);
  }
  return m;
}

std::vector<double> make_x0(std::int32_t n, std::uint64_t seed) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.5 + static_cast<double>(mix64(seed ^ (0x7830ULL << 40) ^ i) >> 11) * 0x1.0p-53;
  return x;
}

void setup_layer_metrics(const Tracer& tracer, const MatrixSetup& m, LayerValues& out) {
  out["sparse.generate_s"] = median(tracer.durations_ms("sparse::generate")) / 1e3;
  out["partition.partition_s"] = median(tracer.durations_ms("partition::partition_rows")) / 1e3;
  out["spmv.problem_build_s"] = median(tracer.durations_ms("spmv::SpmvProblem")) / 1e3;
  out["partition.comm_volume_words"] = static_cast<double>(m.problem->total_comm_volume_words());
  out["partition.nnz_imbalance"] =
      static_cast<double>(m.problem->max_local_nnz()) * m.problem->num_ranks() /
      static_cast<double>(m.matrix.num_nonzeros());
}

double serial_spmv_ms(const sparse::Csr& a) {
  const std::vector<double> x = make_x0(a.num_cols(), 1);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  std::vector<double> ms;
  for (int i = 0; i < 30; ++i) {
    const std::int64_t t0 = now_ns();
    a.spmv(x, y);
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

void ExchangeTotals::add(const LocalExchangeStats& s) {
  exchanges += 1;
  frames += s.messages_sent + s.filler_frames_sent;
  plan_hits += s.plan_hits;
  pool_hits += s.pool_hits;
  pool_misses += s.pool_misses;
  wire_bytes += static_cast<double>(s.wire_bytes_sent);
  payload_bytes += static_cast<double>(s.payload_bytes_sent);
  retransmits += s.retransmits;
  acks_sent += s.acks_sent;
  duplicates_discarded += s.duplicate_frames_discarded + s.duplicate_submessages_discarded;
}

void exchange_layer_metrics(const std::vector<ExchangeTotals>& per_rank,
                            const std::vector<double>& skew_us, bool resilient,
                            LayerValues& out) {
  ExchangeTotals sum;
  for (const ExchangeTotals& t : per_rank) {
    sum.exchanges += t.exchanges;
    sum.frames += t.frames;
    sum.plan_hits += t.plan_hits;
    sum.pool_hits += t.pool_hits;
    sum.pool_misses += t.pool_misses;
    sum.wire_bytes += t.wire_bytes;
    sum.payload_bytes += t.payload_bytes;
    sum.retransmits += t.retransmits;
    sum.acks_sent += t.acks_sent;
    sum.duplicates_discarded += t.duplicates_discarded;
  }
  if (sum.exchanges == 0) return;
  // Collective exchanges: every rank takes part in each one.
  const double collective = static_cast<double>(sum.exchanges) / static_cast<double>(per_rank.size());
  const auto per_exchange = [&](double v) { return v / collective; };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  out["runtime.frames_per_exchange"] = per_exchange(static_cast<double>(sum.frames));
  out["runtime.plan_hit_ratio"] =
      static_cast<double>(sum.plan_hits) / static_cast<double>(sum.exchanges);
  out["runtime.pool_hit_ratio"] = ratio(static_cast<double>(sum.pool_hits),
                                        static_cast<double>(sum.pool_hits + sum.pool_misses));
  out["runtime.wire_bytes_per_exchange"] = per_exchange(sum.wire_bytes);
  out["runtime.peer_skew_us.p50"] = median(skew_us);
  if (resilient) {
    out["runtime.resilient_retransmits_per_exchange"] =
        per_exchange(static_cast<double>(sum.retransmits));
    out["runtime.resilient_acks_per_exchange"] = per_exchange(static_cast<double>(sum.acks_sent));
    out["runtime.resilient_duplicates_discarded_per_exchange"] =
        per_exchange(static_cast<double>(sum.duplicates_discarded));
    out["runtime.resilient_wire_overhead"] = ratio(sum.wire_bytes, sum.payload_bytes);
  } else {
    out["runtime.wire_overhead"] = ratio(sum.wire_bytes, sum.payload_bytes);
  }
}

void append_peer_skews(const std::vector<std::vector<std::int64_t>>& entry_ns,
                       std::vector<double>& skew_us) {
  if (entry_ns.empty()) return;
  for (std::size_t k = 0; k < entry_ns.front().size(); ++k) {
    std::int64_t lo = entry_ns.front()[k];
    std::int64_t hi = lo;
    for (const auto& rank : entry_ns) {
      lo = std::min(lo, rank[k]);
      hi = std::max(hi, rank[k]);
    }
    skew_us.push_back(static_cast<double>(hi - lo) / 1e3);
  }
}

double empty_cluster_run_ms(runtime::Cluster& cluster) {
  std::vector<double> ms;
  for (int i = 0; i < 50; ++i) {
    const std::int64_t t0 = now_ns();
    cluster.run([](runtime::Comm&) {});
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

double plan_us(runtime::Cluster& cluster, const spmv::SpmvProblem& problem, const core::Vpt& vpt,
               Tracer& tracer) {
  for (int i = 0; i < 20; ++i) {
    cluster.run([&](runtime::Comm& comm) {
      const spmv::RankPlan& plan = problem.plan(static_cast<core::Rank>(comm.rank()));
      std::vector<OutboundMessage> sends(plan.sends.size());
      for (std::size_t s = 0; s < plan.sends.size(); ++s) {
        sends[s].dest = plan.sends[s].dest;
        sends[s].bytes.resize(plan.sends[s].x_slots.size() * sizeof(double));
      }
      StfwCommunicator communicator(comm, vpt);
      Tracer::Scope span(tracer, "StfwCommunicator::plan", comm.rank(), 0);
      (void)communicator.plan(sends);
    });
  }
  return median(tracer.durations_ms("StfwCommunicator::plan")) * 1e3;
}

}  // namespace stfw::perfbench
