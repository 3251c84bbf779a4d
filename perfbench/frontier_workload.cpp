// frontier_gupta2_k4: many small exchanges whose pattern never repeats.
//
// Each exchange ships the x entries of one active-row set: the next chunk of
// a breadth-first traversal of the matrix graph from a seeded root (a new
// root when the traversal is exhausted), so the set drifts through the
// graph like a BFS frontier. Chunk sizes are drawn so that no rank ever sees
// the same (dest, size) send sequence twice within an op; with a fresh
// StfwCommunicator per op, every exchange misses the plan cache and runs
// Algorithm 1 with plan recording (and LRU eviction once the cache is full).

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>

#include "checks.hpp"
#include "core/error.hpp"
#include "problem.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw::perfbench {
namespace {

constexpr int kRanks = 4;
constexpr int kExchangesPerOp = 64;
constexpr std::int32_t kMinChunk = 24;
constexpr std::int32_t kMaxChunk = 96;

using Signature = std::vector<std::pair<core::Rank, std::size_t>>;

class FrontierWorkload : public Workload {
public:
  explicit FrontierWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    cluster_.reset();
    m_.reset();  // one problem in memory at a time, so peak RSS is one set-up's
    m_ = build_problem(k4_matrix_spec(), seed_, kRanks, /*build_plans=*/true, tracer);
    build_exchanges();
    cluster_ = std::make_unique<runtime::Cluster>(kRanks);
    Tracer off(false, kRanks);
    core::require(op(off), "warm-up op failed its check: " + why_);
  }

  void describe(std::FILE* out) const override {
    std::fprintf(out, "config: matrix=gupta2 stand-in rows=%d nnz=%lld K=%d vpt=%s\n",
                 m_->matrix.num_rows(), static_cast<long long>(m_->matrix.num_nonzeros()),
                 kRanks, vpt_.to_string().c_str());
    std::fprintf(out,
                 "config: op=Cluster::run of %d StfwCommunicator::exchange calls; active set = "
                 "next %d..%d rows of a seeded BFS order; %.1f payload bytes per exchange\n",
                 kExchangesPerOp, kMinChunk, kMaxChunk, payload_bytes_ / kExchangesPerOp);
  }

  bool op(Tracer& tracer) override {
    const bool tracing = tracer.enabled();
    std::vector<std::vector<std::int64_t>> entry_ns(
        kRanks, std::vector<std::int64_t>(kExchangesPerOp));
    std::vector<std::string> why(kRanks);
    Tracer::Scope run_span(tracer, "runtime::Cluster::run", Tracer::kMainTrack, 0);
    cluster_->run([&](runtime::Comm& comm) {
      const int me = comm.rank();
      const auto r = static_cast<std::size_t>(me);
      StfwCommunicator communicator(comm, vpt_);
      for (std::size_t e = 0; e < kExchangesPerOp; ++e) {
        entry_ns[r][e] = now_ns();
        std::vector<InboundMessage> received;
        {
          Tracer::Scope s(tracer, "StfwCommunicator::exchange", me, run_span.id());
          received = communicator.exchange(sends_[e][r]);
        }
        if (tracing) totals_[r].add(communicator.last_stats());
        if (why[r].empty() && !check_frontier_delivery(received, expected_[e][r], why[r]))
          why[r] = "exchange " + std::to_string(e) + " rank " + std::to_string(me) + ": " + why[r];
      }
    });
    if (tracing) append_peer_skews(entry_ns, skew_us_);
    for (const std::string& w : why)
      if (!w.empty()) {
        why_ = w;
        return false;
      }
    return true;
  }

  bool finish(std::string& why) override {
    why = why_;
    return why_.empty();
  }

  void reset_layer_counters() override {
    totals_.assign(kRanks, {});
    skew_us_.clear();
  }

  void layer_metrics(Tracer& tracer, LayerValues& out) override {
    setup_layer_metrics(tracer, *m_, out);
    out["sparse.serial_spmv_ms"] = serial_spmv_ms(m_->matrix);
    exchange_layer_metrics(totals_, skew_us_, /*resilient=*/false, out);
    out["runtime.exchange_us.p50"] =
        median(tracer.durations_ms("StfwCommunicator::exchange")) * 1e3;
    out["runtime.plan_us"] = plan_us(*cluster_, *m_->problem, vpt_, tracer);
    out["runtime.cluster_run_ms"] = empty_cluster_run_ms(*cluster_);
  }

private:
  // Payload word of global x entry g sent by `sender` in exchange e: a pure
  // function of (seed, e, sender, g), recomputed by the receiver.
  std::uint64_t word(std::size_t e, core::Rank sender, std::int32_t g) const {
    return mix64(seed_ ^ mix64((static_cast<std::uint64_t>(e) << 40) ^
                               (static_cast<std::uint64_t>(sender) << 32) ^
                               static_cast<std::uint32_t>(g)));
  }

  // Next BFS-order row from `bfs`, restarting from a fresh seeded root when
  // the traversal has visited everything reachable.
  std::int32_t next_row() {
    const sparse::Csr& a = m_->matrix;
    if (bfs_head_ == bfs_order_.size()) {
      bfs_order_.clear();
      bfs_head_ = 0;
      std::fill(visited_.begin(), visited_.end(), 0);
      const auto root =
          static_cast<std::int32_t>(mix64(rng_++) % static_cast<std::uint64_t>(a.num_rows()));
      visited_[static_cast<std::size_t>(root)] = 1;
      bfs_order_.push_back(root);
    }
    const std::int32_t v = bfs_order_[bfs_head_++];
    for (const std::int32_t u : a.row_cols(v))
      if (!visited_[static_cast<std::size_t>(u)]) {
        visited_[static_cast<std::size_t>(u)] = 1;
        bfs_order_.push_back(u);
      }
    return v;
  }

  void build_exchanges() {
    const auto n = static_cast<std::size_t>(m_->matrix.num_rows());
    visited_.assign(n, 0);
    bfs_order_.clear();
    bfs_head_ = 0;
    rng_ = mix64(seed_ ^ 0x62667321ULL);
    std::vector<char> active(n, 0);
    std::vector<std::set<Signature>> seen(kRanks);
    sends_.assign(kExchangesPerOp, std::vector<std::vector<OutboundMessage>>(kRanks));
    expected_.assign(kExchangesPerOp, std::vector<std::vector<ExpectedMessage>>(kRanks));
    payload_bytes_ = 0.0;
    for (std::size_t e = 0; e < kExchangesPerOp; ++e) {
      std::fill(active.begin(), active.end(), 0);
      const auto chunk = kMinChunk + static_cast<std::int32_t>(
                                         mix64(rng_++) % (kMaxChunk - kMinChunk + 1));
      for (std::int32_t i = 0; i < chunk; ++i) active[static_cast<std::size_t>(next_row())] = 1;
      // Grow the active set one BFS row at a time until every rank's send
      // sequence is new, so no exchange of an op can hit the plan cache.
      for (int grow = 0;; ++grow) {
        core::require(grow < 4096, "frontier: could not draw a fresh pattern");
        if (fill_exchange(e, active, seen)) break;
        active[static_cast<std::size_t>(next_row())] = 1;
      }
    }
  }

  // Builds exchange e's sends and expected deliveries for `active`; returns
  // false (leaving `seen` untouched) when some rank's signature repeats.
  bool fill_exchange(std::size_t e, const std::vector<char>& active,
                     std::vector<std::set<Signature>>& seen) {
    const spmv::SpmvProblem& problem = *m_->problem;
    std::vector<Signature> sigs(kRanks);
    for (core::Rank p = 0; p < kRanks; ++p) {
      const spmv::RankPlan& plan = problem.plan(p);
      auto& out = sends_[e][static_cast<std::size_t>(p)];
      out.clear();
      for (const auto& s : plan.sends) {
        OutboundMessage msg;
        msg.dest = s.dest;
        for (const std::int32_t slot : s.x_slots) {
          const std::int32_t g = plan.x_slot_global[static_cast<std::size_t>(slot)];
          if (!active[static_cast<std::size_t>(g)]) continue;
          const std::uint64_t w = word(e, p, g);
          const auto* b = reinterpret_cast<const std::byte*>(&w);
          msg.bytes.insert(msg.bytes.end(), b, b + sizeof(w));
        }
        if (msg.bytes.empty()) continue;
        sigs[static_cast<std::size_t>(p)].emplace_back(msg.dest, msg.bytes.size());
        out.push_back(std::move(msg));
      }
      if (seen[static_cast<std::size_t>(p)].count(sigs[static_cast<std::size_t>(p)])) return false;
    }
    for (core::Rank p = 0; p < kRanks; ++p) {
      seen[static_cast<std::size_t>(p)].insert(sigs[static_cast<std::size_t>(p)]);
      for (const auto& msg : sends_[e][static_cast<std::size_t>(p)])
        payload_bytes_ += static_cast<double>(msg.bytes.size());
    }
    // What each receiver expects, recomputed from its own ghost slots.
    for (core::Rank q = 0; q < kRanks; ++q) {
      const spmv::RankPlan& plan = problem.plan(q);
      auto& want = expected_[e][static_cast<std::size_t>(q)];
      want.clear();
      for (const auto& r : plan.recvs) {
        ExpectedMessage msg;
        msg.source = r.source;
        for (const std::int32_t slot : r.ghost_slots) {
          const std::int32_t g = plan.x_slot_global[static_cast<std::size_t>(slot)];
          if (!active[static_cast<std::size_t>(g)]) continue;
          const std::uint64_t w = word(e, r.source, g);
          const auto* b = reinterpret_cast<const std::byte*>(&w);
          msg.bytes.insert(msg.bytes.end(), b, b + sizeof(w));
        }
        if (!msg.bytes.empty()) want.push_back(std::move(msg));
      }
    }
    return true;
  }

  std::uint64_t seed_;
  core::Vpt vpt_ = core::Vpt::balanced(kRanks, 2);
  std::unique_ptr<MatrixSetup> m_;
  std::unique_ptr<runtime::Cluster> cluster_;
  // [exchange][rank]
  std::vector<std::vector<std::vector<OutboundMessage>>> sends_;
  std::vector<std::vector<std::vector<ExpectedMessage>>> expected_;
  double payload_bytes_ = 0.0;
  std::vector<char> visited_;
  std::vector<std::int32_t> bfs_order_;
  std::size_t bfs_head_ = 0;
  std::uint64_t rng_ = 0;
  std::string why_;
  std::vector<ExchangeTotals> totals_ = std::vector<ExchangeTotals>(kRanks);
  std::vector<double> skew_us_;
};

}  // namespace

std::unique_ptr<Workload> make_frontier_workload(std::uint64_t seed) {
  return std::make_unique<FrontierWorkload>(seed);
}

}  // namespace stfw::perfbench
