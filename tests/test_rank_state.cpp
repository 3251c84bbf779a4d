#include "core/rank_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/error.hpp"

namespace stfw::core {
namespace {

StageOutbox outbox_of(StfwRankState& state, int stage) {
  StageOutbox out;
  state.make_stage_outbox(stage, out);
  return out;
}

TEST(RankState, SelfSendDeliversImmediately) {
  const Vpt t({4, 4});
  StfwRankState s(t, 5);
  s.add_send(5, 0, 16);
  ASSERT_EQ(s.delivered().size(), 1u);
  EXPECT_EQ(s.delivered()[0].source, 5);
  EXPECT_EQ(s.delivered()[0].dest, 5);
  EXPECT_EQ(s.delivered_payload_bytes(), 16u);
  EXPECT_EQ(s.buffered_payload_bytes(), 0u);
}

TEST(RankState, DirectVptSendsEverythingInStageZero) {
  const Vpt t = Vpt::direct(8);
  StfwRankState s(t, 0);
  for (Rank d = 1; d < 8; ++d) s.add_send(d, 0, 8);
  EXPECT_EQ(s.buffered_payload_bytes(), 7u * 8u);
  auto out = outbox_of(s, 0);
  EXPECT_EQ(out.runs.size(), 7u);  // one message per destination
  for (const auto& m : out.runs) {
    ASSERT_EQ(out.subs_of(m).size(), 1u);
    EXPECT_EQ(out.subs_of(m)[0].source, 0);
    EXPECT_EQ(out.subs_of(m)[0].dest, m.to);
  }
  EXPECT_EQ(s.buffered_payload_bytes(), 0u);
}

TEST(RankState, MessagesToSameNeighborCoalesce) {
  // T_2(4,4), rank 0 = (0,0). Destinations (1,0), (1,1), (1,2), (1,3) all
  // have digit0 = 1, so stage 0 routes them through the single neighbor
  // with digit0 = 1 — one coalesced message with four submessages.
  const Vpt t({4, 4});
  StfwRankState s(t, 0);
  for (int y = 0; y < 4; ++y) {
    const int coords[2] = {1, y};
    s.add_send(t.rank_of(coords), 0, 8);
  }
  auto out = outbox_of(s, 0);
  ASSERT_EQ(out.runs.size(), 1u);
  EXPECT_EQ(out.runs[0].to, 1);  // (1,0)
  EXPECT_EQ(out.subs_of(out.runs[0]).size(), 4u);
  EXPECT_EQ(out.runs[0].payload_bytes, 32u);
}

TEST(RankState, SecondStageSeedsSkipStageZero) {
  // Destination shares digit 0 with the source: first hop is stage 1.
  const Vpt t({4, 4});
  StfwRankState s(t, 0);  // (0,0)
  const int coords[2] = {0, 2};
  s.add_send(t.rank_of(coords), 0, 8);
  EXPECT_TRUE(outbox_of(s, 0).runs.empty());
  auto out = outbox_of(s, 1);
  ASSERT_EQ(out.runs.size(), 1u);
  EXPECT_EQ(out.runs[0].to, t.rank_of(coords));
}

TEST(RankState, PaperFigure4Walkthrough) {
  // Figure 4, T_3(4,4,4): P_a's three destinations all differ from P_a in
  // dimension 1, so stage 1 produces ONE coalesced message M_ad to its
  // dimension-1 neighbor P_d carrying all three submessages; P_d then
  // delivers its own, forwards (P_e, m_ae) in stage 2 and (P_c, m_ac) in
  // stage 3. Digits (0-based, dimension 1 first):
  //   P_a = (0,1,1), P_c = (2,1,3), P_d = (2,1,1), P_e = (2,3,1).
  const Vpt t({4, 4, 4});
  auto rank = [&](int d0, int d1, int d2) {
    const int c[3] = {d0, d1, d2};
    return t.rank_of(c);
  };
  const Rank pa = rank(0, 1, 1);
  const Rank pc = rank(2, 1, 3);
  const Rank pd = rank(2, 1, 1);
  const Rank pe = rank(2, 3, 1);

  StfwRankState a(t, pa);
  a.add_send(pc, 0, 8);
  a.add_send(pd, 0, 8);
  a.add_send(pe, 0, 8);

  auto out0 = outbox_of(a, 0);
  ASSERT_EQ(out0.runs.size(), 1u);  // a single M_ad despite three destinations
  EXPECT_EQ(out0.runs[0].to, pd);
  EXPECT_EQ(out0.subs_of(out0.runs[0]).size(), 3u);
  EXPECT_TRUE(outbox_of(a, 1).runs.empty());
  EXPECT_TRUE(outbox_of(a, 2).runs.empty());

  // P_d receives M_ad in stage 1 and sorts the submessages out.
  StfwRankState d(t, pd);
  StageOutbox sink;
  d.make_stage_outbox(0, sink);
  d.accept(0, out0.subs_of(out0.runs[0]));
  ASSERT_EQ(d.delivered().size(), 1u);  // m_ad is for P_d itself
  EXPECT_EQ(d.delivered()[0].dest, pd);

  auto dout1 = outbox_of(d, 1);  // stage 2: (P_e, m_ae) via dimension 2
  ASSERT_EQ(dout1.runs.size(), 1u);
  EXPECT_EQ(dout1.runs[0].to, rank(2, 3, 1));
  ASSERT_EQ(dout1.subs.size(), 1u);
  EXPECT_EQ(dout1.subs[0].dest, pe);

  auto dout2 = outbox_of(d, 2);  // stage 3: (P_c, m_ac) via dimension 3
  ASSERT_EQ(dout2.runs.size(), 1u);
  EXPECT_EQ(dout2.runs[0].to, pc);
  ASSERT_EQ(dout2.subs.size(), 1u);
  EXPECT_EQ(dout2.subs[0].dest, pc);
}

TEST(RankState, ForwardingMergesStreamsForSameDestination) {
  // Section 3: submessages from *distinct* sources destined for the *same*
  // process meet in the same forward buffer and travel inside one message
  // from then on; submessages from the *same* source to *distinct*
  // destinations go to different buffers and stay in distinct messages.
  const Vpt t({2, 2, 2});
  StfwRankState s(t, 0);  // intermediate process (0,0,0)
  StageOutbox sink;
  s.make_stage_outbox(0, sink);  // enter stage 0 (nothing of our own)
  ASSERT_TRUE(sink.runs.empty());

  const int same_dest_coords[3] = {0, 1, 0};
  const int other_dest_coords[3] = {0, 0, 1};
  const Rank same_dest = t.rank_of(same_dest_coords);
  const Rank other_dest = t.rank_of(other_dest_coords);
  const Submessage subs[3] = {
      {1, same_dest, 0, 8},   // source 1 -> D
      {1, other_dest, 0, 8},  // source 1 -> D' (same source, distinct dest)
      {3, same_dest, 0, 8},   // source 3 -> D (distinct source, same dest)
  };
  s.accept(0, subs);

  auto out1 = outbox_of(s, 1);
  ASSERT_EQ(out1.runs.size(), 1u);
  EXPECT_EQ(out1.runs[0].to, same_dest);
  EXPECT_EQ(out1.subs.size(), 2u);  // both streams merged into one message

  auto out2 = outbox_of(s, 2);
  ASSERT_EQ(out2.runs.size(), 1u);
  EXPECT_EQ(out2.runs[0].to, other_dest);
  EXPECT_EQ(out2.subs.size(), 1u);  // the same-source stream stayed apart
}

TEST(RankState, AcceptScattersIntoLaterStages) {
  const Vpt t({2, 2, 2});
  StfwRankState s(t, 0);  // (0,0,0)
  StageOutbox sink;
  s.make_stage_outbox(0, sink);  // enter stage 0

  const int d1_coords[3] = {0, 1, 0};  // forwarded in stage 1
  const int d2_coords[3] = {0, 0, 1};  // forwarded in stage 2
  const Rank via_stage1 = t.rank_of(d1_coords);
  const Rank via_stage2 = t.rank_of(d2_coords);
  const Submessage subs[3] = {
      {1, via_stage1, 0, 8},
      {1, via_stage2, 0, 8},
      {1, 0, 0, 8},  // for me
  };
  s.accept(0, subs);
  EXPECT_EQ(s.delivered().size(), 1u);
  EXPECT_EQ(s.buffered_payload_bytes(), 16u);

  auto out1 = outbox_of(s, 1);
  ASSERT_EQ(out1.runs.size(), 1u);
  EXPECT_EQ(out1.runs[0].to, via_stage1);
  auto out2 = outbox_of(s, 2);
  ASSERT_EQ(out2.runs.size(), 1u);
  EXPECT_EQ(out2.runs[0].to, via_stage2);
  EXPECT_EQ(s.buffered_payload_bytes(), 0u);
}

TEST(RankState, OutboxGroupsByNeighborInArrivalOrderAndAppends) {
  // T_1(4): interleaved arrivals for neighbors 3 and 1 come out grouped in
  // ascending neighbor order, each group in arrival order, appended after
  // whatever the outbox already holds.
  const Vpt t = Vpt::direct(4);
  StfwRankState s(t, 0);
  s.add_send(3, 10, 1);
  s.add_send(1, 11, 2);
  s.add_send(3, 12, 3);
  s.add_send(1, 13, 4);
  StageOutbox out;
  out.subs.push_back(Submessage{2, 2, 99, 7});  // a previous rank's run
  out.runs.push_back(OutboxRun{2, 0, 1, 7});
  s.make_stage_outbox(0, out);
  ASSERT_EQ(out.runs.size(), 3u);
  EXPECT_EQ(out.runs[1].to, 1);
  EXPECT_EQ(out.runs[1].payload_bytes, 6u);
  EXPECT_EQ(out.runs[2].to, 3);
  EXPECT_EQ(out.runs[2].payload_bytes, 4u);
  std::vector<std::uint64_t> offsets;
  for (const OutboxRun& run : out.runs)
    for (const Submessage& sub : out.subs_of(run)) offsets.push_back(sub.offset);
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{99, 11, 13, 10, 12}));
  EXPECT_EQ(s.buffered_submessage_count(), 0u);
}

TEST(RankState, PeakBufferTracksHighWater) {
  const Vpt t = Vpt::direct(4);
  StfwRankState s(t, 0);
  s.add_send(1, 0, 100);
  s.add_send(2, 0, 50);
  EXPECT_EQ(s.peak_buffered_payload_bytes(), 150u);
  StageOutbox sink;
  s.make_stage_outbox(0, sink);
  EXPECT_EQ(s.buffered_payload_bytes(), 0u);
  EXPECT_EQ(s.peak_buffered_payload_bytes(), 150u);  // high water sticks
}

TEST(RankState, StagesMustRunInOrder) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  StageOutbox sink;
  EXPECT_THROW(s.make_stage_outbox(1, sink), Error);
  s.make_stage_outbox(0, sink);
  EXPECT_THROW(s.make_stage_outbox(0, sink), Error);
  EXPECT_THROW(s.make_stage_outbox(2, sink), Error);
}

TEST(RankState, AcceptRequiresMatchingStage) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  const Submessage sub{1, 0, 0, 8};
  EXPECT_THROW(s.accept(0, std::span<const Submessage>(&sub, 1)), Error);  // before outbox
}

TEST(RankState, AddSendAfterStartIsAnError) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  StageOutbox sink;
  s.make_stage_outbox(0, sink);
  EXPECT_THROW(s.add_send(1, 0, 8), Error);
}

TEST(RankState, ResetAllowsReuse) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  s.add_send(3, 0, 8);
  StageOutbox sink;
  s.make_stage_outbox(0, sink);
  s.make_stage_outbox(1, sink);
  s.reset();
  EXPECT_EQ(s.delivered().size(), 0u);
  EXPECT_EQ(s.peak_buffered_payload_bytes(), 0u);
  s.add_send(1, 0, 8);  // no throw
  sink.clear();
  s.make_stage_outbox(0, sink);
  EXPECT_EQ(sink.runs.size(), 1u);
}

TEST(RankState, RejectsOutOfRangeDestination) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  EXPECT_THROW(s.add_send(4, 0, 8), Error);
  EXPECT_THROW(s.add_send(-1, 0, 8), Error);
}

}  // namespace
}  // namespace stfw::core
