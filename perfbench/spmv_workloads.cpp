// spmv_gupta2_k4 and resilient_gupta2_k4: the paper's iterative SpMV at
// K = 4 on Vpt::balanced(4, 2), through spmv::run_distributed (frozen-plan
// replay, the plain exchange) and spmv::run_distributed_resilient (the
// framed ack/retransmit protocol under duplicating and reordering faults).

#include <cstring>
#include <memory>

#include "checks.hpp"
#include "core/error.hpp"
#include "fault/fault_injector.hpp"
#include "problem.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"
#include "spmv/runner.hpp"

namespace stfw::perfbench {
namespace {

constexpr int kRanks = 4;
// One recording plus 15 replays of the frozen plan per op: replay dominates,
// and ops stay short enough that one slow wake-up on a shared machine moves
// few of them.
constexpr int kSpmvIterations = 16;
// A few percent of resilient exchanges wait out a 10 ms retransmit timer, so
// fewer iterations keep ops short and a run well above 100 ops.
constexpr int kResilientIterations = 4;
constexpr double kFaultProb = 0.03;
constexpr double kRelTol = 1e-12;

class SpmvWorkload : public Workload {
public:
  SpmvWorkload(std::uint64_t seed, bool traced_run, bool resilient)
      : seed_(seed),
        traced_run_(traced_run),
        resilient_(resilient),
        iterations_(resilient ? kResilientIterations : kSpmvIterations) {}

  void setup(Tracer& tracer) override {
    cluster_.reset();
    injector_.reset();
    m_.reset();  // one problem in memory at a time, so peak RSS is one set-up's
    m_ = build_problem(k4_matrix_spec(), seed_, kRanks, /*build_plans=*/true, tracer);
    x0_ = make_x0(m_->matrix.num_rows(), seed_);
    want_ = reference_spmv(m_->matrix, x0_, iterations_);
    cluster_ = std::make_unique<runtime::Cluster>(kRanks);
    if (resilient_) {
      fault::FaultConfig cfg;
      cfg.seed = mix64(seed_ ^ 0x6661756c74ULL);
      cfg.duplicate_prob = kFaultProb;
      cfg.reorder_prob = kFaultProb;
      injector_ = std::make_shared<fault::FaultInjector>(cfg);
      cluster_->set_fault_injector(injector_);
    }
    // Warm-up op, checked like the timed ones.
    Tracer off(false, kRanks);
    core::require(op(off), "warm-up op failed its check: " + why_);
    faults_at_start_ = injector_ ? injector_->counters() : fault::FaultCounters{};
  }

  void describe(std::FILE* out) const override {
    std::fprintf(out, "config: matrix=gupta2 stand-in rows=%d nnz=%lld K=%d vpt=%s\n",
                 m_->matrix.num_rows(), static_cast<long long>(m_->matrix.num_nonzeros()),
                 kRanks, vpt_.to_string().c_str());
    std::fprintf(out, "config: op=%s iterations=%d overlap=%d check=rel %.0e vs own serial CSR\n",
                 traced_run_ ? "own per-rank loop (exchange + Csr::spmv)"
                 : resilient_ ? "spmv::run_distributed_resilient"
                              : "spmv::run_distributed",
                 iterations_, !resilient_ && !traced_run_ && spmv::overlap_default(), kRelTol);
    if (resilient_) {
      const ResilienceOptions ro;
      std::fprintf(out,
                   "config: faults duplicate=%.2f reorder=%.2f seed=%llu; ResilienceOptions "
                   "defaults retransmit_timeout=%lldms max_attempts=%d stage_deadline=%lldms\n",
                   kFaultProb, kFaultProb,
                   static_cast<unsigned long long>(injector_->config().seed),
                   static_cast<long long>(ro.retransmit_timeout.count()), ro.max_attempts,
                   static_cast<long long>(ro.stage_deadline.count()));
    }
  }

  bool op(Tracer& tracer) override {
    std::vector<double> got;
    if (traced_run_) {
      got = own_loop(tracer);
    } else if (resilient_) {
      spmv::ResilientRunReport report;
      got = spmv::run_distributed_resilient(*cluster_, *m_->problem, vpt_, x0_, iterations_,
                                            &report);
      if (!check_resilient_report(report, why_)) return false;
    } else {
      got = spmv::run_distributed(*cluster_, *m_->problem, vpt_, x0_, iterations_);
    }
    return check_spmv(got, want_, kRelTol, why_);
  }

  bool finish(std::string& why) override {
    if (!why_.empty()) {
      why = why_;
      return false;
    }
    if (!resilient_) return true;
    fault::FaultCounters c = injector_->counters();
    c.duplicates -= faults_at_start_.duplicates;
    c.reorders -= faults_at_start_.reorders;
    return check_faults_hit(c, why);
  }

  void reset_layer_counters() override {
    totals_.assign(kRanks, {});
    skew_us_.clear();
    faults_at_start_ = injector_ ? injector_->counters() : fault::FaultCounters{};
  }

  void layer_metrics(Tracer& tracer, LayerValues& out) override {
    setup_layer_metrics(tracer, *m_, out);
    out["sparse.local_spmv_ms"] = median(tracer.durations_ms("sparse::Csr::spmv (local)"));
    out["sparse.serial_spmv_ms"] = serial_spmv_ms(m_->matrix);
    exchange_layer_metrics(totals_, skew_us_, resilient_, out);
    if (resilient_) {
      out["runtime.resilient_exchange_ms.p50"] =
          median(tracer.durations_ms("StfwCommunicator::exchange_resilient"));
      const fault::FaultCounters c = injector_->counters();
      out["fault.duplicates_injected"] =
          static_cast<double>(c.duplicates - faults_at_start_.duplicates);
      out["fault.reorders_injected"] = static_cast<double>(c.reorders - faults_at_start_.reorders);
    } else {
      out["runtime.exchange_us.p50"] =
          median(tracer.durations_ms("StfwCommunicator::exchange")) * 1e3;
      // The planning pass is collective traffic on the exchange tags, which
      // the resilient workload's fault injector would corrupt.
      out["runtime.plan_us"] = plan_us(*cluster_, *m_->problem, vpt_, tracer);
    }
    out["runtime.cluster_run_ms"] = empty_cluster_run_ms(*cluster_);
  }

private:
  // The traced op: the same RankPlans as spmv::run_distributed (overlap off)
  // or run_distributed_resilient, driven by this loop so the exchange and
  // the local multiply are separate spans.
  std::vector<double> own_loop(Tracer& tracer) {
    const spmv::SpmvProblem& problem = *m_->problem;
    std::vector<double> result(x0_.size(), 0.0);
    const bool tracing = tracer.enabled();
    std::vector<std::vector<std::int64_t>> entry_ns(
        kRanks, std::vector<std::int64_t>(static_cast<std::size_t>(iterations_)));
    std::vector<char> degraded(kRanks, 0);
    Tracer::Scope run_span(tracer, "runtime::Cluster::run", Tracer::kMainTrack, 0);
    cluster_->run([&](runtime::Comm& comm) {
      const int me = comm.rank();
      const spmv::RankPlan& plan = problem.plan(static_cast<core::Rank>(me));
      StfwCommunicator communicator(comm, vpt_);
      const std::size_t num_owned = plan.owned_rows.size();
      std::vector<double> x_local(plan.x_slot_global.size(), 0.0);
      for (std::size_t i = 0; i < num_owned; ++i)
        x_local[i] = x0_[static_cast<std::size_t>(plan.owned_rows[i])];
      std::vector<double> y_local(num_owned, 0.0);
      std::vector<OutboundMessage> sends(plan.sends.size());
      for (std::size_t i = 0; i < plan.sends.size(); ++i) {
        sends[i].dest = plan.sends[i].dest;
        sends[i].bytes.resize(plan.sends[i].x_slots.size() * sizeof(double));
      }
      for (int it = 0; it < iterations_; ++it) {
        for (std::size_t si = 0; si < plan.sends.size(); ++si) {
          const auto& slots = plan.sends[si].x_slots;
          for (std::size_t i = 0; i < slots.size(); ++i)
            std::memcpy(sends[si].bytes.data() + i * sizeof(double),
                        &x_local[static_cast<std::size_t>(slots[i])], sizeof(double));
        }
        std::vector<InboundMessage> received;
        entry_ns[static_cast<std::size_t>(me)][static_cast<std::size_t>(it)] = now_ns();
        if (resilient_) {
          Tracer::Scope s(tracer, "StfwCommunicator::exchange_resilient", me, run_span.id());
          ResilientExchangeResult ex = communicator.exchange_resilient(sends);
          if (ex.degraded) degraded[static_cast<std::size_t>(me)] = 1;
          received = std::move(ex.delivered);
        } else {
          Tracer::Scope s(tracer, "StfwCommunicator::exchange", me, run_span.id());
          received = communicator.exchange(sends);
        }
        if (tracing) totals_[static_cast<std::size_t>(me)].add(communicator.last_stats());
        core::require(received.size() == plan.recvs.size(), "own loop: inbound message count");
        for (std::size_t i = 0; i < received.size(); ++i) {
          const auto& r = plan.recvs[i];
          core::require(received[i].source == r.source &&
                            received[i].bytes.size() == r.ghost_slots.size() * sizeof(double),
                        "own loop: inbound message mismatch");
          for (std::size_t j = 0; j < r.ghost_slots.size(); ++j)
            std::memcpy(&x_local[static_cast<std::size_t>(r.ghost_slots[j])],
                        received[i].bytes.data() + j * sizeof(double), sizeof(double));
        }
        {
          Tracer::Scope s(tracer, "sparse::Csr::spmv (local)", me, run_span.id());
          plan.local.spmv(x_local, y_local);
        }
        if (it + 1 < iterations_) std::copy(y_local.begin(), y_local.end(), x_local.begin());
      }
      for (std::size_t i = 0; i < num_owned; ++i)
        result[static_cast<std::size_t>(plan.owned_rows[i])] = y_local[i];
    });
    if (tracing) append_peer_skews(entry_ns, skew_us_);
    spmv::ResilientRunReport report;
    report.failed_ranks = cluster_->membership().failed();
    for (const char d : degraded) report.degraded_iterations += d;
    if (resilient_ && !check_resilient_report(report, why_)) return {};
    return result;
  }

  std::uint64_t seed_;
  bool traced_run_;
  bool resilient_;
  int iterations_;
  core::Vpt vpt_ = core::Vpt::balanced(kRanks, 2);
  std::unique_ptr<MatrixSetup> m_;
  std::vector<double> x0_;
  std::vector<double> want_;
  std::shared_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<runtime::Cluster> cluster_;
  fault::FaultCounters faults_at_start_;
  std::string why_;
  std::vector<ExchangeTotals> totals_ = std::vector<ExchangeTotals>(kRanks);
  std::vector<double> skew_us_;
};

}  // namespace

std::unique_ptr<Workload> make_spmv_workload(std::uint64_t seed, bool traced_run) {
  return std::make_unique<SpmvWorkload>(seed, traced_run, /*resilient=*/false);
}

std::unique_ptr<Workload> make_resilient_workload(std::uint64_t seed, bool traced_run) {
  return std::make_unique<SpmvWorkload>(seed, traced_run, /*resilient=*/true);
}

}  // namespace stfw::perfbench
