// Differential test of Algorithm 1 against a naive reference router.
//
// The reference keeps every forward buffer in one std::map keyed by
// (rank, dimension, digit) and routes with full coordinate vectors, so it
// shares no routing code with core::StfwRankState beyond Vpt's coordinate
// arithmetic. Both are driven bulk-synchronously over all ranks on seeded
// random patterns (zero-byte and self sends included); every stage outbox
// (neighbor order and submessage order), every delivered list, the
// ExchangeMetrics and the simulated stage times must agree exactly with
// what StfwRankState and sim::simulate_exchange produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/metrics.hpp"
#include "core/rank_state.hpp"
#include "core/vpt.hpp"
#include "core/wire.hpp"
#include "netsim/machine.hpp"
#include "sim/bsp_simulator.hpp"
#include "sim/pattern.hpp"

namespace stfw {
namespace {

using core::Rank;
using core::Submessage;
using core::Vpt;

/// One coalesced stage message as both sides report it.
struct Message {
  Rank to = -1;
  std::vector<Submessage> subs;
  friend bool operator==(const Message&, const Message&) = default;
};

/// Everything one exchange produced, stage by stage.
struct Trace {
  std::vector<std::vector<std::vector<Message>>> outbox;  // [stage][rank]
  std::vector<std::vector<Submessage>> delivered;         // [rank]
};

/// Submessage labels: offset and id both carry the sender-local send index,
/// so a reordering anywhere in the routing shows up as a mismatch.
Submessage seed_sub(Rank src, const sim::Send& s, std::uint32_t index) {
  return Submessage{src, s.dest, index, s.payload_bytes, index};
}

// --- the reference ---------------------------------------------------------

class ReferenceRouter {
public:
  explicit ReferenceRouter(const Vpt& vpt)
      : vpt_(vpt), delivered_(static_cast<std::size_t>(vpt.size())) {}

  /// Park `s` at rank `at` in the buffer of the first dimension after
  /// `after` in which `at` and s.dest differ, or deliver it.
  void route(Rank at, int after, const Submessage& s) {
    const std::vector<int> here = vpt_.coords_of(at);
    const std::vector<int> there = vpt_.coords_of(s.dest);
    for (int d = after + 1; d < vpt_.dim(); ++d) {
      const auto du = static_cast<std::size_t>(d);
      if (here[du] != there[du]) {
        buffers_[{at, d, there[du]}].push_back(s);
        return;
      }
    }
    EXPECT_EQ(s.dest, at) << "reference: nowhere to route";
    delivered_[static_cast<std::size_t>(at)].push_back(s);
  }

  /// Rank r's stage outbox: its dimension-`stage` buffers in digit order.
  std::vector<Message> take_outbox(Rank r, int stage) {
    std::vector<Message> out;
    auto it = buffers_.lower_bound({r, stage, 0});
    while (it != buffers_.end() && std::get<0>(it->first) == r &&
           std::get<1>(it->first) == stage) {
      std::vector<int> c = vpt_.coords_of(r);
      c[static_cast<std::size_t>(stage)] = std::get<2>(it->first);
      out.push_back(Message{vpt_.rank_of(c), std::move(it->second)});
      it = buffers_.erase(it);
    }
    return out;
  }

  /// Payload bytes parked at each rank.
  std::vector<std::uint64_t> parked_bytes() const {
    std::vector<std::uint64_t> b(delivered_.size(), 0);
    for (const auto& [key, subs] : buffers_)
      for (const Submessage& s : subs) b[static_cast<std::size_t>(std::get<0>(key))] += s.size_bytes;
    return b;
  }

  bool empty() const { return buffers_.empty(); }
  std::vector<std::vector<Submessage>>& delivered() { return delivered_; }

private:
  const Vpt& vpt_;
  std::map<std::tuple<Rank, int, int>, std::vector<Submessage>> buffers_;
  std::vector<std::vector<Submessage>> delivered_;
};

/// Reference outcome of one exchange, including the simulator's metrics and
/// cost model recomputed from the reference outboxes.
struct Reference {
  Trace trace;
  core::ExchangeMetrics metrics{1};
  std::vector<double> stage_times_us;
  double comm_time_us = 0.0;
};

Reference run_reference(const Vpt& vpt, const sim::CommPattern& pattern,
                        const netsim::Machine& machine) {
  const Rank K = vpt.size();
  const auto nK = static_cast<std::size_t>(K);
  ReferenceRouter router(vpt);
  Reference ref;
  ref.metrics = core::ExchangeMetrics(K);
  std::vector<std::uint64_t> seed_bytes(nK, 0), transit_peak(nK, 0);
  for (Rank r = 0; r < K; ++r) {
    std::uint32_t index = 0;
    for (const sim::Send& s : pattern.sends(r)) {
      router.route(r, -1, seed_sub(r, s, index++));
      seed_bytes[static_cast<std::size_t>(r)] += s.payload_bytes;
    }
  }
  const auto num_nodes = static_cast<std::size_t>(machine.node_of(K - 1)) + 1;
  for (int stage = 0; stage < vpt.dim(); ++stage) {
    std::vector<std::vector<Message>> outs(nK);
    std::vector<double> send_cost(nK, 0.0), recv_cost(nK, 0.0);
    std::vector<std::uint64_t> node_out(num_nodes, 0), node_in(num_nodes, 0);
    for (Rank r = 0; r < K; ++r) outs[static_cast<std::size_t>(r)] = router.take_outbox(r, stage);
    for (Rank r = 0; r < K; ++r)
      for (const Message& m : outs[static_cast<std::size_t>(r)]) {
        std::uint64_t payload = 0;
        for (const Submessage& s : m.subs) payload += s.size_bytes;
        ref.metrics.record_send(r, payload);
        ref.metrics.record_recv(m.to, payload);
        const std::uint64_t wire = core::wire_size_bytes(m.subs.size(), payload);
        send_cost[static_cast<std::size_t>(r)] += machine.send_cost_us(r, m.to, wire);
        recv_cost[static_cast<std::size_t>(m.to)] += machine.recv_cost_us(wire);
        if (machine.node_of(r) != machine.node_of(m.to)) {
          node_out[static_cast<std::size_t>(machine.node_of(r))] += wire;
          node_in[static_cast<std::size_t>(machine.node_of(m.to))] += wire;
        }
        for (const Submessage& s : m.subs) {
          EXPECT_EQ(vpt.coord(s.dest, stage), vpt.coord(m.to, stage));
          router.route(m.to, stage, s);
        }
      }
    double t = 0.0;
    for (std::size_t r = 0; r < nK; ++r) t = std::max(t, send_cost[r] + recv_cost[r]);
    for (std::size_t n = 0; n < num_nodes; ++n)
      t = std::max(t, static_cast<double>(std::max(node_out[n], node_in[n])) /
                          machine.injection_bytes_per_us());
    ref.stage_times_us.push_back(t);
    ref.comm_time_us += t;
    const std::vector<std::uint64_t> parked = router.parked_bytes();
    for (std::size_t r = 0; r < nK; ++r) transit_peak[r] = std::max(transit_peak[r], parked[r]);
    ref.trace.outbox.push_back(std::move(outs));
  }
  EXPECT_TRUE(router.empty());
  ref.trace.delivered = std::move(router.delivered());
  for (Rank r = 0; r < K; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    std::uint64_t got = 0;
    for (const Submessage& s : ref.trace.delivered[ru]) got += s.size_bytes;
    ref.metrics.record_buffer_bytes(r, seed_bytes[ru] + got + transit_peak[ru]);
  }
  return ref;
}

// --- the routing core under test -------------------------------------------

std::vector<Message> outbox_of(core::StfwRankState& state, int stage) {
  core::StageOutbox out;
  state.make_stage_outbox(stage, out);
  std::vector<Message> msgs;
  for (const core::OutboxRun& run : out.runs) {
    const auto subs = out.subs_of(run);
    std::uint64_t payload = 0;
    for (const Submessage& s : subs) payload += s.size_bytes;
    EXPECT_EQ(run.payload_bytes, payload);
    msgs.push_back(Message{run.to, {subs.begin(), subs.end()}});
  }
  return msgs;
}

Trace run_rank_states(const Vpt& vpt, const sim::CommPattern& pattern) {
  const Rank K = vpt.size();
  std::vector<core::StfwRankState> states;
  for (Rank r = 0; r < K; ++r) states.emplace_back(vpt, r);
  for (Rank r = 0; r < K; ++r) {
    std::uint32_t index = 0;
    for (const sim::Send& s : pattern.sends(r)) {
      const Submessage sub = seed_sub(r, s, index++);
      states[static_cast<std::size_t>(r)].add_send(sub.dest, sub.offset, sub.size_bytes, sub.id);
    }
  }
  Trace trace;
  for (int stage = 0; stage < vpt.dim(); ++stage) {
    std::vector<std::vector<Message>> outs(static_cast<std::size_t>(K));
    for (Rank r = 0; r < K; ++r)
      outs[static_cast<std::size_t>(r)] = outbox_of(states[static_cast<std::size_t>(r)], stage);
    for (Rank r = 0; r < K; ++r)
      for (const Message& m : outs[static_cast<std::size_t>(r)])
        states[static_cast<std::size_t>(m.to)].accept(stage, m.subs);
    trace.outbox.push_back(std::move(outs));
  }
  for (core::StfwRankState& st : states) {
    EXPECT_EQ(st.buffered_payload_bytes(), 0u);
    trace.delivered.push_back(st.delivered());
  }
  return trace;
}

// --- cases ------------------------------------------------------------------

/// Each rank sends to a seeded random set of destinations: roughly
/// `per_rank` sends, about one in eight of them to itself, one in six with
/// an empty payload, and occasional repeats of a destination.
sim::CommPattern random_pattern(Rank K, int per_rank, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Rank> dest(0, K - 1);
  std::uniform_int_distribution<int> count(0, 2 * per_rank);
  std::uniform_int_distribution<std::uint32_t> size(1, 96);
  std::uniform_int_distribution<int> die(0, 47);
  sim::CommPattern p(K);
  for (Rank r = 0; r < K; ++r) {
    const int n = count(rng);
    for (int i = 0; i < n; ++i) {
      const int roll = die(rng);
      const Rank d = roll < 6 ? r : dest(rng);
      p.add_send(r, d, roll >= 40 ? 0u : size(rng));
    }
  }
  p.finalize();
  return p;
}

struct Case {
  std::string name;
  Vpt vpt;
  int per_rank;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const Rank K : {1, 2, 7, 64, 1024})
    out.push_back({"direct" + std::to_string(K), Vpt::direct(K), K >= 1024 ? 6 : 10});
  for (int n = 2; n <= 6; ++n) {
    out.push_back({"balanced64_n" + std::to_string(n), Vpt::balanced(64, n), 12});
    out.push_back({"balanced1024_n" + std::to_string(n), Vpt::balanced(1024, n), 5});
  }
  out.push_back({"mixed_4x2x2", Vpt({4, 2, 2}), 8});
  out.push_back({"mixed_3x5x2", Vpt({3, 5, 2}), 8});
  return out;
}

class RoutingReference : public ::testing::TestWithParam<Case> {};

std::vector<Submessage> unlabeled(std::vector<Submessage> subs) {
  for (Submessage& s : subs) s.offset = s.id = 0;
  return subs;
}

TEST_P(RoutingReference, RankStateMatchesReferenceStageByStage) {
  const Case& c = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto pattern = random_pattern(c.vpt.size(), c.per_rank, seed);
    const auto machine = netsim::Machine::cray_xc40(c.vpt.size());
    const Reference ref = run_reference(c.vpt, pattern, machine);
    const Trace got = run_rank_states(c.vpt, pattern);
    ASSERT_EQ(got.outbox.size(), ref.trace.outbox.size());
    for (std::size_t stage = 0; stage < got.outbox.size(); ++stage)
      for (std::size_t r = 0; r < got.outbox[stage].size(); ++r)
        ASSERT_EQ(got.outbox[stage][r], ref.trace.outbox[stage][r])
            << "seed " << seed << " stage " << stage << " rank " << r;
    ASSERT_EQ(got.delivered, ref.trace.delivered) << "seed " << seed;
  }
}

TEST_P(RoutingReference, SimulatorMatchesReferenceMetricsAndTimes) {
  const Case& c = GetParam();
  for (const std::uint64_t seed : {4u, 5u}) {
    const auto pattern = random_pattern(c.vpt.size(), c.per_rank, seed);
    const auto machine = netsim::Machine::cray_xc40(c.vpt.size());
    const Reference ref = run_reference(c.vpt, pattern, machine);
    sim::SimOptions opts;
    opts.machine = &machine;
    opts.collect_delivered = true;
    const sim::SimResult res = sim::simulate_exchange(c.vpt, pattern, opts);

    EXPECT_EQ(res.metrics.send_counts(), ref.metrics.send_counts()) << "seed " << seed;
    EXPECT_EQ(res.metrics.recv_counts(), ref.metrics.recv_counts()) << "seed " << seed;
    EXPECT_EQ(res.metrics.send_payload_bytes(), ref.metrics.send_payload_bytes());
    EXPECT_EQ(res.metrics.recv_payload_bytes(), ref.metrics.recv_payload_bytes());
    EXPECT_EQ(res.metrics.buffer_bytes(), ref.metrics.buffer_bytes()) << "seed " << seed;
    EXPECT_EQ(res.stage_times_us, ref.stage_times_us) << "seed " << seed;
    EXPECT_EQ(res.comm_time_us, ref.comm_time_us) << "seed " << seed;
    ASSERT_EQ(res.delivered.size(), ref.trace.delivered.size());
    for (std::size_t r = 0; r < res.delivered.size(); ++r)
      EXPECT_EQ(res.delivered[r], unlabeled(ref.trace.delivered[r]))
          << "seed " << seed << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RoutingReference, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& p) {
                           return p.param.name;
                         });

}  // namespace
}  // namespace stfw
