#include "validate/exchange_validator.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/error.hpp"
#include "core/message.hpp"
#include "core/rank_state.hpp"
#include "core/vpt.hpp"
#include "core/wire.hpp"

namespace stfw::validate {
namespace {

using core::PayloadArena;
using core::Rank;
using core::Submessage;
using core::ValidationError;
using core::Vpt;

std::vector<std::byte> bytes_of(std::initializer_list<int> vals) {
  std::vector<std::byte> b;
  b.reserve(vals.size());
  for (int v : vals) b.push_back(static_cast<std::byte>(v));
  return b;
}

/// Expects `fn` to throw a ValidationError whose check() is `check`.
template <typename Fn>
void expect_violation(const char* check, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected ValidationError [" << check << "], nothing thrown";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.check(), check) << e.what();
  }
}

/// Drives a complete exchange over all ranks through StfwRankState with one
/// ExchangeValidator per rank hooked exactly as StfwCommunicator hooks it
/// (including the wire round-trip), then runs every rank's finish() against
/// the allgathered summaries. Returns nothing; throws on any violation.
void run_validated_exchange(const Vpt& vpt, double density, std::uint64_t seed,
                            std::size_t payload_len) {
  const Rank K = vpt.size();
  std::vector<core::StfwRankState> states;
  std::vector<ExchangeValidator> validators;
  std::vector<PayloadArena> arenas(static_cast<std::size_t>(K));
  std::vector<std::int64_t> sent_count(static_cast<std::size_t>(K), 0);
  states.reserve(static_cast<std::size_t>(K));
  validators.reserve(static_cast<std::size_t>(K));
  for (Rank r = 0; r < K; ++r) {
    states.emplace_back(vpt, r);
    validators.emplace_back(vpt, r);
  }

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (Rank i = 0; i < K; ++i)
    for (Rank j = 0; j < K; ++j) {
      if (i == j || coin(rng) >= density) continue;
      std::vector<std::byte> payload(payload_len);
      for (std::size_t b = 0; b < payload_len; ++b)
        payload[b] = static_cast<std::byte>((i * 31 + j * 7 + static_cast<Rank>(b)) & 0xff);
      const auto ii = static_cast<std::size_t>(i);
      validators[ii].on_seed(j, payload);
      const std::uint64_t off = arenas[ii].add(payload);
      states[ii].add_send(j, off, static_cast<std::uint32_t>(payload.size()));
    }

  core::StageOutbox outbox;
  for (int stage = 0; stage < vpt.dim(); ++stage) {
    struct Wire {
      Rank from, to;
      std::vector<std::byte> bytes;
    };
    std::vector<Wire> in_flight;
    for (Rank r = 0; r < K; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      outbox.clear();
      states[rr].make_stage_outbox(stage, outbox);
      for (const core::OutboxRun& run : outbox.runs) {
        validators[rr].on_stage_send(stage, run.to, outbox.subs_of(run));
        ++sent_count[rr];
        in_flight.push_back(Wire{r, run.to, core::serialize(outbox.subs_of(run), arenas[rr])});
      }
    }
    for (const Wire& w : in_flight) {
      const auto to = static_cast<std::size_t>(w.to);
      const std::vector<Submessage> subs = core::deserialize(w.bytes, arenas[to]);
      validators[to].on_stage_recv(stage, w.from, subs);
      states[to].accept(stage, subs);
    }
    for (Rank r = 0; r < K; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      validators[rr].on_stage_complete(stage, states[rr].buffered_payload_bytes(),
                                       states[rr].buffered_submessage_count());
    }
  }

  std::vector<std::vector<std::byte>> summaries;
  summaries.reserve(static_cast<std::size_t>(K));
  for (Rank r = 0; r < K; ++r)
    summaries.push_back(validators[static_cast<std::size_t>(r)].summary_blob());
  for (Rank r = 0; r < K; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    validators[rr].finish(states[rr].delivered(), arenas[rr], sent_count[rr], summaries);
  }
}

TEST(ExchangeValidator, CleanExchangesPass) {
  EXPECT_NO_THROW(run_validated_exchange(Vpt({4, 2, 2}), 0.4, 1, 16));
  EXPECT_NO_THROW(run_validated_exchange(Vpt({8}), 0.6, 2, 8));
  EXPECT_NO_THROW(run_validated_exchange(Vpt({2, 2, 2, 2}), 0.3, 3, 0));
  // Uniform complete exchange: exercises the tight buffer/message bounds.
  EXPECT_NO_THROW(run_validated_exchange(Vpt({4, 4}), 1.0, 4, 8));
}

TEST(ExchangeValidator, RejectsNonNeighborStageSend) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 0);
  // Rank 3 differs from rank 0 in both dimensions.
  expect_violation("neighbor-send", [&] { v.on_stage_send(0, /*to=*/3, {}); });
}

TEST(ExchangeValidator, RejectsWrongRoutingDigit) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 0);
  // To rank 1, the dimension-0 neighbor with digit 1. The submessage for
  // rank 2 = (0,1) has dimension-0 digit 0, not 1 — it belongs in the buffer
  // of another neighbor.
  const Submessage subs[] = {{0, 2, 0, 0}};
  expect_violation("routing-digit", [&] { v.on_stage_send(0, /*to=*/1, subs); });
}

TEST(ExchangeValidator, RejectsSelfAddressedSubmessageLeaving) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 0);
  const Submessage subs[] = {{3, 0, 0, 0}};  // addressed to the sender itself
  expect_violation("self-addressed", [&] { v.on_stage_send(0, /*to=*/1, subs); });
}

TEST(ExchangeValidator, RejectsDimensionOrderViolationOnSend) {
  const Vpt vpt({2, 2, 2});
  // Rank 0 sends in stage 1 (to its dimension-1 neighbor 2) a submessage
  // whose destination 3 = (1,1,0) still differs from it in dimension 0 —
  // that hop should have happened in stage 0.
  ExchangeValidator v(vpt, 0);
  const Submessage subs[] = {{0, 3, 0, 0}};
  expect_violation("dimension-order-send", [&] { v.on_stage_send(1, /*to=*/2, subs); });
}

TEST(ExchangeValidator, RejectsDuplicateStageMessage) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 0);
  const Submessage subs[] = {{0, 1, 0, 0}};
  EXPECT_NO_THROW(v.on_stage_send(0, /*to=*/1, subs));
  expect_violation("duplicate-stage-message", [&] { v.on_stage_send(0, /*to=*/1, subs); });
}

TEST(ExchangeValidator, RejectsOutOfOrderStages) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 0);
  const Submessage to2[] = {{0, 2, 0, 0}};
  EXPECT_NO_THROW(v.on_stage_send(1, /*to=*/2, to2));  // dimension-1 neighbor
  const Submessage to1[] = {{0, 1, 0, 0}};
  expect_violation("stage-order", [&] { v.on_stage_send(0, /*to=*/1, to1); });
}

TEST(ExchangeValidator, RejectsNonNeighborReceive) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 0);
  // Rank 2 differs from rank 0 in dimension 1; a stage-0 message from it is
  // misrouted by definition.
  const Submessage s{2, 0, 0, 0};
  expect_violation("neighbor-recv", [&] { v.on_stage_recv(0, 2, {&s, 1}); });
}

TEST(ExchangeValidator, RejectsCorruptedSubmessageHeader) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 0);
  // Wire-legal sender (rank 1, a dimension-0 neighbor) but the submessage
  // header claims final destination 3 = (1,1), whose dimension-0 digit does
  // not match the receiving rank — a corrupted or misrouted header.
  const Submessage s{1, 3, 0, 0};
  expect_violation("dimension-order-recv", [&] { v.on_stage_recv(0, 1, {&s, 1}); });
}

TEST(ExchangeValidator, RejectsSourceInconsistentWithHolder) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 0);
  // Submessage claims source 3 = (1,1); after a stage-0 hop its holder must
  // still match the source in dimension 1, which rank 0 does not.
  const Submessage s{3, 0, 0, 0};
  expect_violation("source-consistency", [&] { v.on_stage_recv(0, 1, {&s, 1}); });
}

/// finish() needs a full set of rank summaries; collects them from the given
/// validators (one per rank, in rank order).
std::vector<std::vector<std::byte>> blobs_of(std::span<ExchangeValidator> vs) {
  std::vector<std::vector<std::byte>> out;
  out.reserve(vs.size());
  for (const ExchangeValidator& v : vs) out.push_back(v.summary_blob());
  return out;
}

TEST(ExchangeValidator, RejectsStatsMismatch) {
  const Vpt vpt({2, 2});
  std::vector<ExchangeValidator> vs;
  for (Rank r = 0; r < 4; ++r) vs.emplace_back(vpt, r);
  PayloadArena arena;
  const auto blobs = blobs_of(vs);
  expect_violation("stats-mismatch", [&] { vs[0].finish({}, arena, 1, blobs); });
}

TEST(ExchangeValidator, RejectsLostMessage) {
  const Vpt vpt({2, 2});
  std::vector<ExchangeValidator> vs;
  for (Rank r = 0; r < 4; ++r) vs.emplace_back(vpt, r);
  // Rank 1 claims it seeded a message for rank 0; rank 0 delivered nothing.
  const auto payload = bytes_of({1, 2, 3, 4});
  vs[1].on_seed(0, payload);
  PayloadArena arena;
  const auto blobs = blobs_of(vs);
  expect_violation("payload-conservation", [&] { vs[0].finish({}, arena, 0, blobs); });
}

TEST(ExchangeValidator, RejectsCorruptedPayloadBits) {
  const Vpt vpt({2, 2});
  std::vector<ExchangeValidator> vs;
  for (Rank r = 0; r < 4; ++r) vs.emplace_back(vpt, r);
  vs[1].on_seed(0, bytes_of({1, 2, 3, 4}));
  // Rank 0 delivers a message of the right source/length whose bytes differ
  // in one bit — the digest comparison must notice.
  PayloadArena arena;
  const auto tampered = bytes_of({1, 2, 3, 5});
  const Submessage delivered{1, 0, arena.add(tampered), 4};
  const auto blobs = blobs_of(vs);
  try {
    vs[0].finish({&delivered, 1}, arena, 0, blobs);
    FAIL() << "expected ValidationError [payload-conservation]";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.check(), "payload-conservation");
    EXPECT_NE(std::string(e.what()).find("corrupted payload bits"), std::string::npos);
  }
}

TEST(ExchangeValidator, AcceptsConservedPayload) {
  const Vpt vpt({2, 2});
  std::vector<ExchangeValidator> vs;
  for (Rank r = 0; r < 4; ++r) vs.emplace_back(vpt, r);
  const auto payload = bytes_of({1, 2, 3, 4});
  vs[1].on_seed(0, payload);
  PayloadArena arena;
  const Submessage delivered{1, 0, arena.add(payload), 4};
  const auto blobs = blobs_of(vs);
  EXPECT_NO_THROW(vs[0].finish({&delivered, 1}, arena, 0, blobs));
}

TEST(ExchangeValidator, RejectsBufferBoundOverrun) {
  const Vpt vpt({2, 2});
  std::vector<ExchangeValidator> vs;
  for (Rank r = 0; r < 4; ++r) vs.emplace_back(vpt, r);
  // Uniform 8-byte payloads, one per ordered pair: the paper's bound says at
  // most K-1 = 3 submessages may ever reside in rank 0's forward buffers.
  const std::vector<std::byte> payload(8, std::byte{0x11});
  for (Rank d = 1; d < 4; ++d) vs[0].on_seed(d, payload);
  vs[0].on_stage_complete(0, 8 * 4, 4);  // inflated residency sample
  PayloadArena arena;
  const auto blobs = blobs_of(vs);
  try {
    vs[0].finish({}, arena, 0, blobs);
    FAIL() << "expected a ValidationError";
  } catch (const ValidationError& e) {
    // Conservation fires first (the seeded messages were never delivered) in
    // a real exchange; here the claims are unmet too, so accept either, but
    // the residency overrun must be reported when conservation is bypassed.
    EXPECT_TRUE(e.check() == "buffer-bound" || e.check() == "payload-conservation")
        << e.check();
  }
  // Isolate the buffer-bound check: no seeds anywhere, inflated sample only.
  std::vector<ExchangeValidator> ws;
  for (Rank r = 0; r < 4; ++r) ws.emplace_back(vpt, r);
  ws[0].on_stage_complete(0, 0, 4);
  const auto wblobs = blobs_of(ws);
  expect_violation("buffer-bound", [&] { ws[0].finish({}, arena, 0, wblobs); });
}

TEST(ExchangeValidator, StructuredDiagnosticsCarryContext) {
  const Vpt vpt({2, 2});
  ExchangeValidator v(vpt, 2);
  const Submessage s{1, 2, 0, 0};
  try {
    // Rank 1 = (1,0) differs from rank 2 = (0,1) in dimension 0, so it can
    // never be the sender of a stage-1 message to rank 2.
    v.on_stage_recv(1, 1, {&s, 1});
    FAIL() << "expected ValidationError";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.check(), "neighbor-recv");
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.stage(), 1);
    // Also catchable as the library's base error type.
    const core::Error& base = e;
    EXPECT_NE(std::string(base.what()).find("neighbor-recv"), std::string::npos);
  }
}

TEST(ExchangeValidator, PayloadDigestIsOrderIndependentButSizeSensitive) {
  const auto a = bytes_of({1, 2});
  const auto b = bytes_of({2, 1});
  EXPECT_NE(payload_digest(a), payload_digest(b));  // FNV-1a is order-sensitive per payload
  // The per-pair combination (sum) is what makes multiset comparison
  // order-independent: a+b == b+a trivially; duplicates do not cancel.
  EXPECT_EQ(payload_digest(a) + payload_digest(b), payload_digest(b) + payload_digest(a));
  EXPECT_NE(payload_digest(a) + payload_digest(a), payload_digest(a));
}

}  // namespace
}  // namespace stfw::validate
