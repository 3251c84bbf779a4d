#include "sim/bsp_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "core/analysis.hpp"
#include "core/error.hpp"
#include "netsim/machine.hpp"
#include "runtime/stfw_communicator.hpp"

namespace stfw::sim {
namespace {

using core::Rank;
using core::Vpt;

CommPattern random_pattern(Rank K, double density, std::uint64_t seed,
                           std::uint32_t payload = 8) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  CommPattern p(K);
  for (Rank i = 0; i < K; ++i)
    for (Rank j = 0; j < K; ++j)
      if (i != j && coin(rng) < density) p.add_send(i, j, payload);
  p.finalize();
  return p;
}

CommPattern alltoall_pattern(Rank K, std::uint32_t payload) {
  CommPattern p(K);
  for (Rank i = 0; i < K; ++i)
    for (Rank j = 0; j < K; ++j)
      if (i != j) p.add_send(i, j, payload);
  p.finalize();
  return p;
}

struct SimCase {
  std::vector<int> dims;
  double density;
};

class SimulatorProperty : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorProperty, DeliversEverySendExactlyOnce) {
  const auto& param = GetParam();
  const Vpt vpt(param.dims);
  const auto pattern = random_pattern(vpt.size(), param.density, 7);
  SimOptions opts;
  opts.collect_delivered = true;
  const SimResult result = simulate_exchange(vpt, pattern, opts);

  std::multiset<std::pair<Rank, Rank>> expected, got;
  for (Rank r = 0; r < vpt.size(); ++r)
    for (const Send& s : pattern.sends(r)) expected.emplace(r, s.dest);
  for (Rank r = 0; r < vpt.size(); ++r)
    for (const core::Submessage& m : result.delivered[static_cast<std::size_t>(r)]) {
      EXPECT_EQ(m.dest, r);
      got.emplace(m.source, m.dest);
    }
  EXPECT_EQ(got, expected);
}

TEST_P(SimulatorProperty, RespectsMaxMessageCountBound) {
  const auto& param = GetParam();
  const Vpt vpt(param.dims);
  const auto pattern = random_pattern(vpt.size(), param.density, 11);
  const SimResult result = simulate_exchange(vpt, pattern);
  EXPECT_LE(result.metrics.max_send_count(), vpt.max_message_count_bound());
}

TEST_P(SimulatorProperty, VolumeEqualsPayloadTimesHammingDistance) {
  // Every original message of B bytes is transmitted exactly
  // hamming(src, dest) times under dimension-order routing.
  const auto& param = GetParam();
  const Vpt vpt(param.dims);
  const auto pattern = random_pattern(vpt.size(), param.density, 13, 24);
  const SimResult result = simulate_exchange(vpt, pattern);
  std::uint64_t expected_bytes = 0;
  for (Rank r = 0; r < vpt.size(); ++r)
    for (const Send& s : pattern.sends(r))
      expected_bytes += static_cast<std::uint64_t>(vpt.hamming(r, s.dest)) * s.payload_bytes;
  EXPECT_EQ(static_cast<std::uint64_t>(result.metrics.total_volume_words()) * 8, expected_bytes);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimulatorProperty,
                         ::testing::Values(SimCase{{16}, 0.3},            // BL
                                           SimCase{{4, 4}, 0.3},
                                           SimCase{{2, 8}, 0.3},
                                           SimCase{{8, 2}, 0.3},
                                           SimCase{{2, 2, 2, 2}, 0.3},
                                           SimCase{{4, 2, 2}, 0.5},
                                           SimCase{{2, 2, 2, 2, 2, 2}, 0.1},
                                           SimCase{{8, 8}, 0.1},
                                           SimCase{{4, 4, 4}, 0.05},
                                           SimCase{{32, 4}, 0.02},
                                           // Non-power-of-two rank counts.
                                           SimCase{{3, 4}, 0.4},
                                           SimCase{{5, 3, 2}, 0.3},
                                           SimCase{{7, 11}, 0.2},
                                           SimCase{{100}, 0.1}));

TEST(Simulator, AllToAllMatchesClosedFormVolume) {
  // Section 4's exact volume formula, verified end-to-end.
  for (int n = 1; n <= 6; ++n) {
    const Vpt vpt = Vpt::balanced(64, n);
    const auto pattern = alltoall_pattern(64, 8);
    const SimResult result = simulate_exchange(vpt, pattern);
    const std::int64_t expected_per_rank = core::analysis::alltoall_volume_units(vpt);
    EXPECT_EQ(result.metrics.total_volume_words(), expected_per_rank * 64) << "n=" << n;
  }
}

TEST(Simulator, AllToAllMaxCountIsTight) {
  for (int n = 1; n <= 6; ++n) {
    const Vpt vpt = Vpt::balanced(64, n);
    const SimResult result = simulate_exchange(vpt, alltoall_pattern(64, 8));
    EXPECT_EQ(result.metrics.max_send_count(), vpt.max_message_count_bound()) << "n=" << n;
    // And every rank sends exactly the bound (the pattern is symmetric).
    for (std::int64_t c : result.metrics.send_counts())
      EXPECT_EQ(c, vpt.max_message_count_bound());
  }
}

TEST(Simulator, AllToAllBufferBoundHolds) {
  // Section 4: at most K - 1 submessages reside at a process between
  // stages, so the transit term of the buffer metric is bounded by
  // s * (K - 1); the full metric adds the original send and receive
  // buffers, each exactly s * (K - 1) in the all-to-all case.
  const Rank K = 64;
  const std::uint32_t s = 16;
  for (int n = 2; n <= 6; ++n) {
    const Vpt vpt = Vpt::balanced(K, n);
    const SimResult result = simulate_exchange(vpt, alltoall_pattern(K, s));
    for (std::uint64_t b : result.metrics.buffer_bytes())
      EXPECT_LE(b, 3ull * s * (K - 1)) << "n=" << n;
  }
  // Direct communication has no transit residency at all.
  const SimResult bl = simulate_exchange(Vpt::direct(K), alltoall_pattern(K, s));
  for (std::uint64_t b : bl.metrics.buffer_bytes()) EXPECT_EQ(b, 2ull * s * (K - 1));
}

TEST(Simulator, BaselineMetricsEqualPatternStatistics) {
  const auto pattern = random_pattern(32, 0.4, 3);
  const SimResult result = simulate_exchange(Vpt::direct(32), pattern);
  EXPECT_EQ(result.metrics.max_send_count(), pattern.max_send_count());
  EXPECT_DOUBLE_EQ(result.metrics.avg_send_count(), pattern.avg_send_count());
  EXPECT_EQ(static_cast<std::uint64_t>(result.metrics.total_volume_words()) * 8,
            pattern.total_payload_bytes());
}

TEST(Simulator, HigherDimensionTradesLatencyForVolume) {
  // The paper's core trade-off on a realistic irregular pattern.
  const Rank K = 128;
  const auto pattern = random_pattern(K, 0.15, 5);
  std::int64_t prev_mmax = pattern.max_send_count() + 1;
  std::int64_t prev_volume = -1;
  for (int n = 1; n <= 7; ++n) {
    const SimResult r = simulate_exchange(Vpt::balanced(K, n), pattern);
    if (n > 1) {
      EXPECT_LT(r.metrics.max_send_count(), pattern.max_send_count()) << "n=" << n;
      EXPECT_GE(r.metrics.total_volume_words(), prev_volume) << "n=" << n;
    }
    EXPECT_LE(r.metrics.max_send_count(), prev_mmax) << "n=" << n;
    prev_mmax = r.metrics.max_send_count();
    prev_volume = r.metrics.total_volume_words();
  }
}

TEST(Simulator, TimingRequiresMachineAndIsPositive) {
  const auto pattern = random_pattern(64, 0.2, 9);
  const SimResult untimed = simulate_exchange(Vpt::balanced(64, 3), pattern);
  EXPECT_EQ(untimed.comm_time_us, 0.0);

  const auto machine = netsim::Machine::blue_gene_q(64);
  SimOptions opts;
  opts.machine = &machine;
  const SimResult timed = simulate_exchange(Vpt::balanced(64, 3), pattern, opts);
  EXPECT_GT(timed.comm_time_us, 0.0);
  EXPECT_EQ(timed.stage_times_us.size(), 3u);
  double sum = 0.0;
  for (double t : timed.stage_times_us) {
    EXPECT_GE(t, 0.0);
    sum += t;
  }
  EXPECT_DOUBLE_EQ(sum, timed.comm_time_us);
}

TEST(Simulator, InjectionBottleneckRaisesHeavyTrafficTimes) {
  // A custom machine with a tiny NIC rate must be slower than an identical
  // machine without the injection term, and only for traffic that actually
  // crosses nodes.
  const Rank K = 64;
  auto topo = std::make_shared<netsim::TorusTopology>(std::vector<int>{4});
  const netsim::Machine no_nic("test", topo, 16, 1.0, 0.5, 1e-4, 0.0, 0.0);
  const netsim::Machine slow_nic("test", topo, 16, 1.0, 0.5, 1e-4, 0.0, /*inject=*/10.0);

  CommPattern cross(K);
  for (Rank r = 0; r < 16; ++r) cross.add_send(r, r + 16, 4096);  // node 0 -> node 1
  cross.finalize();
  SimOptions opts;
  opts.machine = &no_nic;
  const double t_free = simulate_exchange(Vpt::direct(K), cross, opts).comm_time_us;
  opts.machine = &slow_nic;
  const double t_nic = simulate_exchange(Vpt::direct(K), cross, opts).comm_time_us;
  EXPECT_GT(t_nic, 2.0 * t_free);

  // Intra-node traffic is not charged against the NIC.
  CommPattern local(K);
  for (Rank r = 0; r < 16; ++r) local.add_send(r, (r + 1) % 16, 4096);
  local.finalize();
  opts.machine = &slow_nic;
  const double t_local = simulate_exchange(Vpt::direct(K), local, opts).comm_time_us;
  opts.machine = &no_nic;
  const double t_local_free = simulate_exchange(Vpt::direct(K), local, opts).comm_time_us;
  EXPECT_DOUBLE_EQ(t_local, t_local_free);
}

TEST(Simulator, NodeAwareVptKeepsStageOneOnNode) {
  // With contiguous rank->node folding, every stage-1 message of the
  // node-aware topology is intra-node (zero hops).
  const Rank K = 64;
  const auto machine = netsim::Machine::blue_gene_q(K);  // 16 ranks/node
  const Vpt vpt = Vpt::node_aware(K, machine.ranks_per_node());
  EXPECT_EQ(vpt.dim(), 2);
  EXPECT_EQ(vpt.dim_size(0), 16);
  for (Rank r = 0; r < K; ++r)
    for (Rank n : vpt.neighbors(r, 0))
      EXPECT_EQ(machine.node_of(r), machine.node_of(n)) << "rank " << r;
}

TEST(Simulator, LatencyBoundPatternFavorsStfw) {
  // A hub-and-spoke pattern (one rank talks to everyone, tiny messages) is
  // the scenario of the paper's introduction: BL's comm time must exceed a
  // mid-dimension STFW's under every machine model.
  const Rank K = 256;
  CommPattern p(K);
  for (Rank j = 1; j < K; ++j) {
    p.add_send(0, j, 16);
    p.add_send(j, 0, 16);
  }
  p.finalize();
  for (const auto& machine : {netsim::Machine::blue_gene_q(K), netsim::Machine::cray_xc40(K),
                              netsim::Machine::cray_xk7(K)}) {
    SimOptions opts;
    opts.machine = &machine;
    const double bl = simulate_exchange(Vpt::direct(K), p, opts).comm_time_us;
    const double stfw = simulate_exchange(Vpt::balanced(K, 4), p, opts).comm_time_us;
    EXPECT_LT(stfw, bl) << machine.name();
  }
}

TEST(Simulator, RejectsMismatchedSizes) {
  const auto pattern = random_pattern(16, 0.3, 1);
  EXPECT_THROW(simulate_exchange(Vpt::direct(8), pattern), core::Error);
}

TEST(Simulator, RejectsUnfinalizedPattern) {
  CommPattern p(4);
  p.add_send(0, 1, 8);
  EXPECT_THROW(simulate_exchange(Vpt::direct(4), p), core::Error);
}

void expect_same_result(const SimResult& a, const SimResult& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.metrics.send_counts(), b.metrics.send_counts());
  EXPECT_EQ(a.metrics.recv_counts(), b.metrics.recv_counts());
  EXPECT_EQ(a.metrics.send_payload_bytes(), b.metrics.send_payload_bytes());
  EXPECT_EQ(a.metrics.recv_payload_bytes(), b.metrics.recv_payload_bytes());
  EXPECT_EQ(a.metrics.buffer_bytes(), b.metrics.buffer_bytes());
  EXPECT_EQ(a.stage_times_us, b.stage_times_us);
  EXPECT_EQ(a.comm_time_us, b.comm_time_us);
  EXPECT_EQ(a.delivered, b.delivered);
}

TEST(Simulator, ScratchNeverChangesTheResult) {
  // A pooled SimScratch keeps rank states and stage arrays across calls;
  // whatever it held before must not leak into the next result.
  const Vpt vpt({4, 2, 2});
  const Vpt other = Vpt::direct(16);
  const auto pattern = random_pattern(16, 0.4, 31, 24);
  const auto changed = random_pattern(16, 0.7, 32, 40);
  const auto machine = netsim::Machine::cray_xc40(16);
  SimOptions opts;
  opts.machine = &machine;
  opts.collect_delivered = true;
  const SimResult plain = simulate_exchange(vpt, pattern, opts);
  const SimResult changed_plain = simulate_exchange(vpt, changed, opts);

  SimScratch scratch;
  SimOptions pooled = opts;
  pooled.scratch = &scratch;
  expect_same_result(simulate_exchange(vpt, pattern, pooled), plain, "fresh scratch");
  expect_same_result(simulate_exchange(vpt, pattern, pooled), plain, "reused scratch");
  expect_same_result(simulate_exchange(other, pattern, pooled),
                     simulate_exchange(other, pattern, opts), "switched to another VPT");
  expect_same_result(simulate_exchange(vpt, pattern, pooled), plain, "switched back");
  expect_same_result(simulate_exchange(vpt, changed, pooled), changed_plain, "changed pattern");
  expect_same_result(simulate_exchange(vpt, pattern, pooled), plain, "after a changed pattern");
}

TEST(Simulator, MatchesThreadedRuntimeMetrics) {
  // The two substrates share the routing core; their aggregate metrics must
  // agree exactly. (The threaded side is exercised per-rank in
  // test_stfw_communicator; here we pin the cross-substrate invariant.)
  const Vpt vpt({4, 2, 2});
  const auto pattern = random_pattern(vpt.size(), 0.35, 21);
  const SimResult sim = simulate_exchange(vpt, pattern);

  runtime::Cluster cluster(vpt.size());
  std::vector<std::int64_t> sent(static_cast<std::size_t>(vpt.size()));
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(vpt.size()));
  cluster.run([&](runtime::Comm& comm) {
    StfwCommunicator communicator(comm, vpt);
    std::vector<OutboundMessage> sends;
    for (const Send& s : pattern.sends(static_cast<Rank>(comm.rank())))
      sends.push_back(OutboundMessage{s.dest, std::vector<std::byte>(s.payload_bytes)});
    communicator.exchange(sends);
    const auto r = static_cast<std::size_t>(comm.rank());
    sent[r] = communicator.last_stats().messages_sent;
    bytes[r] = communicator.last_stats().payload_bytes_sent;
  });

  for (Rank r = 0; r < vpt.size(); ++r) {
    EXPECT_EQ(sent[static_cast<std::size_t>(r)],
              sim.metrics.send_counts()[static_cast<std::size_t>(r)])
        << "rank " << r;
    EXPECT_EQ(bytes[static_cast<std::size_t>(r)],
              sim.metrics.send_payload_bytes()[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

}  // namespace
}  // namespace stfw::sim
