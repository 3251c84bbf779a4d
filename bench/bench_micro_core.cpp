// Micro-benchmarks (google-benchmark) of the core routing machinery: VPT
// coordinate math, SendSet seeding, stage outbox formation, wire
// serialization, resilient frame encode/decode, and whole-exchange simulator
// throughput.

#include <benchmark/benchmark.h>

#include <random>

#include "core/rank_state.hpp"
#include "core/vpt.hpp"
#include "core/wire.hpp"
#include "sim/bsp_simulator.hpp"

namespace {

using namespace stfw;
using core::Rank;
using core::Vpt;

void BM_VptCoordRoundTrip(benchmark::State& state) {
  const Vpt vpt = Vpt::balanced(4096, static_cast<int>(state.range(0)));
  Rank r = 1;
  for (auto _ : state) {
    const auto c = vpt.coords_of(r);
    benchmark::DoNotOptimize(vpt.rank_of(c));
    r = static_cast<Rank>((static_cast<std::uint32_t>(r) * 2654435761u + 1) %
                          static_cast<std::uint32_t>(vpt.size()));
  }
}
BENCHMARK(BM_VptCoordRoundTrip)->Arg(2)->Arg(6)->Arg(12);

void BM_VptFirstDiffDim(benchmark::State& state) {
  const Vpt vpt = Vpt::balanced(16384, static_cast<int>(state.range(0)));
  Rank a = 7, b = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vpt.first_diff_dim(a, b));
    a = (a + 97) % vpt.size();
    b = (b + 41) % vpt.size();
  }
}
BENCHMARK(BM_VptFirstDiffDim)->Arg(2)->Arg(7)->Arg(14);

void BM_SendSetSeeding(benchmark::State& state) {
  const Vpt vpt = Vpt::balanced(1024, static_cast<int>(state.range(0)));
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<Rank> pick(0, vpt.size() - 1);
  std::vector<Rank> dests(512);
  for (auto& d : dests) d = pick(rng);
  for (auto _ : state) {
    core::StfwRankState s(vpt, 0);
    for (Rank d : dests)
      if (d != 0) s.add_send(d, 0, 64);
    benchmark::DoNotOptimize(s.buffered_payload_bytes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dests.size()));
}
BENCHMARK(BM_SendSetSeeding)->Arg(2)->Arg(5)->Arg(10);

void BM_WireSerializeRoundTrip(benchmark::State& state) {
  core::PayloadArena arena;
  std::vector<core::Submessage> subs;
  const std::vector<std::byte> payload(static_cast<std::size_t>(state.range(0)));
  for (int i = 0; i < 64; ++i)
    subs.push_back(core::Submessage{i, i + 1, arena.add(payload),
                                    static_cast<std::uint32_t>(payload.size())});
  for (auto _ : state) {
    const auto wire = core::serialize(subs, arena);
    core::PayloadArena scratch;
    benchmark::DoNotOptimize(core::deserialize(wire, scratch));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(core::wire_size_bytes(
                              64, 64 * static_cast<std::uint64_t>(state.range(0)))));
}
BENCHMARK(BM_WireSerializeRoundTrip)->Arg(16)->Arg(256)->Arg(4096);

// The resilient exchange's per-byte frame cost: encode (copy + checksum) and
// decode (checksum) of one frame with a body of range(0) bytes.
void BM_FrameEncodeDecode(benchmark::State& state) {
  std::vector<std::byte> body(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::byte>(i * 131);
  core::FrameHeader h;
  h.seq = 7;
  h.sender = 1;
  for (auto _ : state) {
    const auto wire = core::encode_frame(h, body);
    auto decoded = core::decode_frame(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameEncodeDecode)->Arg(64)->Arg(4 << 10)->Arg(150 << 10);

// 16 messages of 64 bytes from every rank to seeded random destinations.
sim::CommPattern random_pattern(Rank K) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Rank> pick(0, K - 1);
  sim::CommPattern pattern(K);
  for (Rank r = 0; r < K; ++r)
    for (int j = 0; j < 16; ++j) pattern.add_send(r, pick(rng), 64);
  pattern.finalize();
  return pattern;
}

Vpt vpt_of(Rank K, int dim) { return dim <= 1 ? Vpt::direct(K) : Vpt::balanced(K, dim); }

void BM_SimulateExchange(benchmark::State& state) {
  const auto K = static_cast<Rank>(state.range(0));
  const sim::CommPattern pattern = random_pattern(K);
  const Vpt vpt = vpt_of(K, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_exchange(vpt, pattern));
  }
  state.SetItemsProcessed(state.iterations() * pattern.total_messages());
}
BENCHMARK(BM_SimulateExchange)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 5})
    ->Args({1024, 10})
    ->Args({8192, 4});

// As above with one SimScratch reused across calls — the path of the sweep
// benches and perfbench's sim workload, which pool one scratch per VPT.
void BM_SimulateExchangePooled(benchmark::State& state) {
  const auto K = static_cast<Rank>(state.range(0));
  const sim::CommPattern pattern = random_pattern(K);
  const Vpt vpt = vpt_of(K, static_cast<int>(state.range(1)));
  sim::SimScratch scratch;
  sim::SimOptions opts;
  opts.scratch = &scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_exchange(vpt, pattern, opts));
  }
  state.SetItemsProcessed(state.iterations() * pattern.total_messages());
}
BENCHMARK(BM_SimulateExchangePooled)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 5})
    ->Args({1024, 10})
    ->Args({4096, 12})
    ->Args({8192, 4});

}  // namespace

BENCHMARK_MAIN();
