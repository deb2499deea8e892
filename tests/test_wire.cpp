// Wire codec round-trip and golden byte-layout tests (DESIGN.md §10).
//
// Every encodable body type — all ten Paxos messages, the five Raft
// messages, gossip envelopes, and pull digests — is driven through
// encode_body/decode_body and compared field by field, including the edge
// cases the format must survive: empty values, values at the size cap, and
// aggregates carrying every sender in the cluster. The golden tests pin the
// exact byte sequences of representative messages so any accidental layout
// change (field reorder, width change, tag renumber) fails loudly instead of
// silently breaking cross-version interop.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "gossip/gossip_node.hpp"
#include "paxos/message.hpp"
#include "raft/message.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace gossipc {
namespace {

using wire::WireError;

std::span<const std::uint8_t> as_span(const std::vector<std::uint8_t>& v) {
    return std::span<const std::uint8_t>(v.data(), v.size());
}

/// Encodes, decodes, and returns the decoded body, asserting success.
wire::DecodedBody round_trip(const MessageBody& body) {
    const std::vector<std::uint8_t> bytes = wire::encode_body(body);
    EXPECT_FALSE(bytes.empty());
    wire::DecodedBody decoded = wire::decode_body(as_span(bytes));
    EXPECT_TRUE(decoded.ok()) << wire::wire_error_name(decoded.error);
    EXPECT_NE(decoded.body, nullptr);
    return decoded;
}

template <typename T>
const T& decoded_as(const wire::DecodedBody& d, BodyKind kind) {
    EXPECT_EQ(d.body->kind(), kind);
    return static_cast<const T&>(*d.body);
}

Value make_value(std::int32_t client, std::int64_t seq, std::uint32_t size = 1024) {
    Value v;
    v.id = ValueId{client, seq};
    v.size_bytes = size;
    return v;
}

// ---- Paxos round-trips -----------------------------------------------------

TEST(WireCodec, ClientValueRoundTrip) {
    const ClientValueMsg msg(3, make_value(3, 17), 2, 0, true);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<ClientValueMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::ClientValue);
    EXPECT_EQ(m.sender(), 3);
    EXPECT_EQ(m.value(), msg.value());
    EXPECT_EQ(m.attempt(), 2);
    EXPECT_EQ(m.target(), 0);
    EXPECT_TRUE(m.forwarded());
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, ClientValueEmptyValue) {
    const ClientValueMsg msg(0, make_value(0, 1, /*size=*/0));
    const auto d = round_trip(msg);
    const auto& m = decoded_as<ClientValueMsg>(d, BodyKind::Paxos);
    EXPECT_EQ(m.value().size_bytes, 0u);
    EXPECT_EQ(m.target(), -1);
    EXPECT_FALSE(m.forwarded());
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, ClientValueMaxSizeValue) {
    const ClientValueMsg msg(1, make_value(1, 2, wire::kMaxValueBytes));
    const auto d = round_trip(msg);
    const auto& m = decoded_as<ClientValueMsg>(d, BodyKind::Paxos);
    EXPECT_EQ(m.value().size_bytes, wire::kMaxValueBytes);
}

TEST(WireCodec, ValueAboveCapRejected) {
    const ClientValueMsg msg(1, make_value(1, 2, wire::kMaxValueBytes + 1));
    const std::vector<std::uint8_t> bytes = wire::encode_body(msg);
    const auto d = wire::decode_body(as_span(bytes));
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error, WireError::Oversized);
    EXPECT_EQ(d.body, nullptr);
}

// ---- Composite (batched) values (DESIGN.md §14) ----------------------------

Value make_batch(std::int32_t coordinator, std::int64_t seq, std::size_t n) {
    std::vector<Value> components;
    for (std::size_t i = 0; i < n; ++i) {
        components.push_back(make_value(static_cast<std::int32_t>(i),
                                        static_cast<std::int64_t>(100 + i), 512));
    }
    return make_batch_value(ValueId{-(coordinator + 1), seq}, std::move(components));
}

TEST(WireCodec, CompositeValueRoundTrip) {
    const Value batch = make_batch(0, 7, 5);
    const Phase2aMsg msg(0, 3, 1, batch);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase2aMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.value().batch.size(), 5u);
    EXPECT_EQ(m.value(), batch);
    EXPECT_EQ(m.value().digest(), batch.digest());
}

TEST(WireCodec, CompositeValueInDecisionRoundTrip) {
    const Value batch = make_batch(2, 9, 3);
    const DecisionMsg msg(2, 11, batch.id, batch.digest(), batch);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<DecisionMsg>(d, BodyKind::Paxos);
    ASSERT_TRUE(m.full_value().has_value());
    EXPECT_EQ(*m.full_value(), batch);
}

TEST(WireCodec, CompositeValueInPhase1bRoundTrip) {
    std::vector<AcceptedEntry> accepted;
    AcceptedEntry e;
    e.instance = 4;
    e.vround = 2;
    e.value = make_batch(1, 3, 2);
    accepted.push_back(e);
    const Phase1bMsg msg(1, 5, 1, std::move(accepted));
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase1bMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.accepted().size(), 1u);
    EXPECT_EQ(m.accepted()[0].value.batch.size(), 2u);
    EXPECT_EQ(m.accepted()[0].value, make_batch(1, 3, 2));
}

TEST(WireCodec, CompositeBatchCountAboveCapRejected) {
    // Hand-corrupt the encoded count: a frame announcing more components
    // than kMaxBatchEntries must be rejected before any allocation.
    const Phase2aMsg msg(0, 1, 1, make_batch(0, 1, 2));
    std::vector<std::uint8_t> bytes = wire::encode_body(msg);
    // Layout: kind, tag, sender(4), group(4), instance(8), round(4), value
    // triple (16), then the u16 count at offset 2 + 4 + 4 + 8 + 4 + 16 = 38.
    const std::size_t count_off = 38;
    ASSERT_EQ(bytes[count_off], 2);
    bytes[count_off] = 0xff;
    bytes[count_off + 1] = 0xff;  // count = 65535 > kMaxBatchEntries
    const auto d = wire::decode_body(as_span(bytes));
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error, WireError::LimitExceeded);
}

TEST(WireCodec, CompositeTruncatedBatchRejected) {
    const Phase2aMsg msg(0, 1, 1, make_batch(0, 1, 4));
    std::vector<std::uint8_t> bytes = wire::encode_body(msg);
    bytes.resize(bytes.size() - 8);  // chop into the last component
    const auto d = wire::decode_body(as_span(bytes));
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error, WireError::Truncated);
}

TEST(WireCodec, CompositeDigestDistinguishesContent) {
    // Same synthesized id, different components: the digest must differ
    // (all decision agreement is digest-keyed).
    Value a = make_batch(0, 1, 3);
    Value b = make_batch(0, 1, 3);
    b.batch[1].id.seq = 999;
    EXPECT_NE(a.digest(), b.digest());
    // And a composite can never collide with a plain value sharing its id.
    Value plain;
    plain.id = a.id;
    plain.size_bytes = a.size_bytes;
    EXPECT_NE(a.digest(), plain.digest());
}

TEST(WireCodec, Phase1aRoundTrip) {
    const Phase1aMsg msg(4, 7, 123);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase1aMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::Phase1a);
    EXPECT_EQ(m.sender(), 4);
    EXPECT_EQ(m.round(), 7);
    EXPECT_EQ(m.from_instance(), 123);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, Phase1bEmptyRoundTrip) {
    const Phase1bMsg msg(2, 7, 1, {});
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase1bMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::Phase1b);
    EXPECT_EQ(m.sender(), 2);
    EXPECT_EQ(m.round(), 7);
    EXPECT_EQ(m.from_instance(), 1);
    EXPECT_TRUE(m.accepted().empty());
}

TEST(WireCodec, Phase1bWithEntriesRoundTrip) {
    std::vector<AcceptedEntry> accepted;
    for (int i = 0; i < 5; ++i) {
        AcceptedEntry e;
        e.instance = 10 + i;
        e.vround = i;
        e.value = make_value(i, 100 + i, 512 * (i + 1));
        accepted.push_back(e);
    }
    const Phase1bMsg msg(3, 9, 10, accepted);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase1bMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.accepted().size(), accepted.size());
    for (std::size_t i = 0; i < accepted.size(); ++i) {
        EXPECT_EQ(m.accepted()[i].instance, accepted[i].instance);
        EXPECT_EQ(m.accepted()[i].vround, accepted[i].vround);
        EXPECT_EQ(m.accepted()[i].value, accepted[i].value);
    }
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, Phase2aRoundTrip) {
    const Phase2aMsg msg(0, 42, 3, make_value(2, 8), 1);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase2aMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::Phase2a);
    EXPECT_EQ(m.sender(), 0);
    EXPECT_EQ(m.instance(), 42);
    EXPECT_EQ(m.round(), 3);
    EXPECT_EQ(m.value(), msg.value());
    EXPECT_EQ(m.attempt(), 1);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, Phase2bRoundTrip) {
    const Phase2bMsg msg(5, 42, 3, ValueId{2, 8}, 0xfeedfaceULL, 1);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase2bMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::Phase2b);
    EXPECT_EQ(m.sender(), 5);
    EXPECT_EQ(m.instance(), 42);
    EXPECT_EQ(m.round(), 3);
    EXPECT_EQ(m.value_id(), (ValueId{2, 8}));
    EXPECT_EQ(m.value_digest(), 0xfeedfaceULL);
    EXPECT_EQ(m.attempt(), 1);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, Phase2bAggregateAllSendersRoundTrip) {
    // The headline aggregation case: one aggregate carrying acknowledgements
    // from every process of a large cluster.
    constexpr int kCluster = 257;
    std::vector<ProcessId> senders(kCluster);
    std::iota(senders.begin(), senders.end(), 0);
    const Phase2bAggregateMsg msg(9, 42, 3, ValueId{2, 8}, 0xfeedfaceULL, senders, 2);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase2bAggregateMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::Phase2bAggregate);
    EXPECT_EQ(m.sender(), 9);
    EXPECT_EQ(m.instance(), 42);
    EXPECT_EQ(m.round(), 3);
    EXPECT_EQ(m.value_id(), (ValueId{2, 8}));
    EXPECT_EQ(m.value_digest(), 0xfeedfaceULL);
    EXPECT_EQ(m.senders(), senders);
    EXPECT_EQ(m.attempt(), 2);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, Phase2bAggregateEmptyOrRepeatedSendersRejected) {
    // G-AGG-2 holds at the trust boundary: an aggregate must count each
    // acceptor's vote once, so an empty or repeating sender list never
    // decodes into a message (it would otherwise abort an invariant build
    // inside PaxosSemantics::validate). A repeat far past the decoder's
    // stack block must be caught too.
    std::vector<ProcessId> wide(3000);
    std::iota(wide.begin(), wide.end(), 0);
    wide.back() = 5;
    const std::vector<std::vector<ProcessId>> bad = {{}, {4, 4}, {0, 1, 2, 1}, wide};
    for (const std::vector<ProcessId>& senders : bad) {
        const Phase2bAggregateMsg msg(9, 1, 0, ValueId{0, 0}, 0, senders, 0);
        const std::vector<std::uint8_t> bytes = wire::encode_body(msg);
        const auto d = wire::decode_body(as_span(bytes));
        EXPECT_FALSE(d.ok()) << senders.size() << " senders";
        EXPECT_EQ(d.error, WireError::BadField) << senders.size() << " senders";
    }
    // Distinct senders in any order still round-trip, order intact.
    const Phase2bAggregateMsg ok(9, 1, 0, ValueId{0, 0}, 0, {3, 0, 2}, 0);
    const auto d = round_trip(ok);
    EXPECT_EQ(decoded_as<Phase2bAggregateMsg>(d, BodyKind::Paxos).senders(),
              (std::vector<ProcessId>{3, 0, 2}));
}

TEST(WireCodec, DecisionWithoutValueRoundTrip) {
    const DecisionMsg msg(0, 42, ValueId{2, 8}, 0xfeedfaceULL, std::nullopt, 1);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<DecisionMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::Decision);
    EXPECT_EQ(m.sender(), 0);
    EXPECT_EQ(m.instance(), 42);
    EXPECT_EQ(m.value_id(), (ValueId{2, 8}));
    EXPECT_EQ(m.value_digest(), 0xfeedfaceULL);
    EXPECT_FALSE(m.full_value().has_value());
    EXPECT_EQ(m.attempt(), 1);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, DecisionWithValueRoundTrip) {
    const Value full = make_value(2, 8, 2048);
    const DecisionMsg msg(0, 42, full.id, full.digest(), full, 0);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<DecisionMsg>(d, BodyKind::Paxos);
    ASSERT_TRUE(m.full_value().has_value());
    EXPECT_EQ(*m.full_value(), full);
}

TEST(WireCodec, LearnRequestRoundTrip) {
    const LearnRequestMsg msg(6, 42, 3, 1);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<LearnRequestMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::LearnRequest);
    EXPECT_EQ(m.sender(), 6);
    EXPECT_EQ(m.instance(), 42);
    EXPECT_EQ(m.attempt(), 3);
    EXPECT_EQ(m.target(), 1);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, HeartbeatRoundTrip) {
    const HeartbeatMsg msg(7, 0x1122334455667788ULL, 42);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<HeartbeatMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::Heartbeat);
    EXPECT_EQ(m.sender(), 7);
    EXPECT_EQ(m.seq(), 0x1122334455667788ULL);
    EXPECT_EQ(m.frontier(), 42);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, MultiGroupHeartbeatRoundTrip) {
    const HeartbeatMsg msg(7, 11, std::vector<InstanceId>{5, 1, 9, 3});
    const auto d = round_trip(msg);
    const auto& m = decoded_as<HeartbeatMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.frontiers().size(), 4u);
    EXPECT_EQ(m.frontiers(), msg.frontiers());
    EXPECT_EQ(m.frontier_for(0), 5);
    EXPECT_EQ(m.frontier_for(3), 3);
}

TEST(WireCodec, HeartbeatZeroFrontierCountRejected) {
    const HeartbeatMsg msg(7, 11, 42);
    std::vector<std::uint8_t> bytes = wire::encode_body(msg);
    // u16 count at kind(1) + tag(1) + sender(4) + group(4) + seq(8) = 18.
    ASSERT_EQ(bytes[18], 1);
    bytes[18] = 0;
    bytes.resize(18 + 2);  // drop the frontier the count no longer announces
    const auto d = wire::decode_body(as_span(bytes));
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error, WireError::BadField);
}

TEST(WireCodec, GroupTagRoundTrip) {
    // v3: every Paxos body carries its consensus group after the sender.
    Phase2bMsg msg(5, 42, 3, ValueId{2, 8}, 0xfeedfaceULL, 1);
    msg.set_group(7);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<Phase2bMsg>(d, BodyKind::Paxos);
    EXPECT_EQ(m.group(), 7);
    // The group participates in the gossip id, so the same vote for two
    // different groups never dedups against itself.
    Phase2bMsg other(5, 42, 3, ValueId{2, 8}, 0xfeedfaceULL, 1);
    other.set_group(6);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
    EXPECT_NE(m.unique_key(), other.unique_key());
}

TEST(WireCodec, GroupBatchRoundTrip) {
    // Cross-group aggregation (DESIGN.md §15): same-verb messages for
    // different groups packed into one body, unpacked with ids intact.
    std::vector<PaxosMessagePtr> entries;
    for (GroupId g = 0; g < 3; ++g) {
        auto e = std::make_shared<Phase2bMsg>(5, 42, 3, ValueId{2, 8}, 0xfeedfaceULL, 1);
        e->set_group(g);
        entries.push_back(std::move(e));
    }
    const GroupBatchMsg msg(5, PaxosMsgType::Phase2b, entries);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<GroupBatchMsg>(d, BodyKind::Paxos);
    ASSERT_EQ(m.type(), PaxosMsgType::GroupBatch);
    EXPECT_EQ(m.sender(), 5);
    EXPECT_EQ(m.verb(), PaxosMsgType::Phase2b);
    ASSERT_EQ(m.entries().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(m.entries()[i]->group(), static_cast<GroupId>(i));
        // Decoded entries regenerate the originals' gossip ids exactly —
        // the S-AGG losslessness monitors match votes by these keys.
        EXPECT_EQ(m.entries()[i]->unique_key(), entries[i]->unique_key());
    }
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, GroupBatchOfDecisionsRoundTrip) {
    std::vector<PaxosMessagePtr> entries;
    for (GroupId g = 1; g <= 2; ++g) {
        auto e = std::make_shared<DecisionMsg>(0, 42, ValueId{2, 8}, 0xfeedfaceULL,
                                               std::nullopt, 1);
        e->set_group(g);
        entries.push_back(std::move(e));
    }
    const GroupBatchMsg msg(0, PaxosMsgType::Decision, entries);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<GroupBatchMsg>(d, BodyKind::Paxos);
    EXPECT_EQ(m.verb(), PaxosMsgType::Decision);
    ASSERT_EQ(m.entries().size(), 2u);
    EXPECT_EQ(m.entries()[0]->unique_key(), entries[0]->unique_key());
}

TEST(WireCodec, GroupBatchEmptyRoundTrip) {
    const GroupBatchMsg msg(3, PaxosMsgType::Phase2b, {});
    const auto d = round_trip(msg);
    const auto& m = decoded_as<GroupBatchMsg>(d, BodyKind::Paxos);
    EXPECT_TRUE(m.entries().empty());
}

TEST(WireCodec, NestedGroupBatchRejected) {
    // A batch inside a batch is malformed — mirrors the envelope's
    // nested-envelope rejection and bounds decode recursion.
    auto inner = std::make_shared<GroupBatchMsg>(1, PaxosMsgType::Phase2b,
                                                 std::vector<PaxosMessagePtr>{});
    const GroupBatchMsg msg(1, PaxosMsgType::Phase2b,
                            std::vector<PaxosMessagePtr>{inner});
    const std::vector<std::uint8_t> bytes = wire::encode_body(msg);
    const auto d = wire::decode_body(as_span(bytes));
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error, WireError::BadField);
}

TEST(WireCodec, GroupBatchVerbMismatchRejected) {
    // The batch verb claims Phase2b but an entry is a Decision.
    auto e = std::make_shared<DecisionMsg>(0, 42, ValueId{2, 8}, 0xfeedfaceULL,
                                           std::nullopt, 1);
    const GroupBatchMsg msg(0, PaxosMsgType::Phase2b,
                            std::vector<PaxosMessagePtr>{e});
    const std::vector<std::uint8_t> bytes = wire::encode_body(msg);
    const auto d = wire::decode_body(as_span(bytes));
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error, WireError::BadField);
}

TEST(WireCodec, NegativeFieldsRoundTrip) {
    // Sentinel values (-1 ids, negative rounds) must survive the unsigned
    // little-endian encoding.
    const ClientValueMsg msg(-1, make_value(-1, -1), -1, -1, false);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<ClientValueMsg>(d, BodyKind::Paxos);
    EXPECT_EQ(m.sender(), -1);
    EXPECT_EQ(m.value().id.client, -1);
    EXPECT_EQ(m.value().id.seq, -1);
    EXPECT_EQ(m.attempt(), -1);
    EXPECT_EQ(m.target(), -1);
}

// ---- Raft round-trips ------------------------------------------------------

TEST(WireCodec, RaftClientForwardRoundTrip) {
    const ClientForwardMsg msg(3, make_value(3, 17), 2);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<ClientForwardMsg>(d, BodyKind::Raft);
    ASSERT_EQ(m.type(), RaftMsgType::ClientForward);
    EXPECT_EQ(m.sender(), 3);
    EXPECT_EQ(m.value(), msg.value());
    EXPECT_EQ(m.attempt(), 2);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, RaftAppendRoundTrip) {
    const AppendMsg msg(0, 2, 42, make_value(1, 9));
    const auto d = round_trip(msg);
    const auto& m = decoded_as<AppendMsg>(d, BodyKind::Raft);
    ASSERT_EQ(m.type(), RaftMsgType::Append);
    EXPECT_EQ(m.sender(), 0);
    EXPECT_EQ(m.term(), 2);
    EXPECT_EQ(m.index(), 42);
    EXPECT_EQ(m.value(), msg.value());
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, RaftAckRoundTrip) {
    const AckMsg msg(4, 2, 42, 0xabcdef01ULL);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<AckMsg>(d, BodyKind::Raft);
    ASSERT_EQ(m.type(), RaftMsgType::Ack);
    EXPECT_EQ(m.sender(), 4);
    EXPECT_EQ(m.term(), 2);
    EXPECT_EQ(m.index(), 42);
    EXPECT_EQ(m.value_digest(), 0xabcdef01ULL);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, RaftAckAggregateAllSendersRoundTrip) {
    constexpr int kCluster = 64;
    std::vector<ProcessId> senders(kCluster);
    std::iota(senders.begin(), senders.end(), 0);
    const AckAggregateMsg msg(5, 2, 42, 0xabcdef01ULL, senders);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<AckAggregateMsg>(d, BodyKind::Raft);
    ASSERT_EQ(m.type(), RaftMsgType::AckAggregate);
    EXPECT_EQ(m.senders(), senders);
    EXPECT_EQ(m.value_digest(), 0xabcdef01ULL);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

TEST(WireCodec, RaftCommitRoundTrip) {
    const CommitMsg msg(0, 2, 42, 0xabcdef01ULL);
    const auto d = round_trip(msg);
    const auto& m = decoded_as<CommitMsg>(d, BodyKind::Raft);
    ASSERT_EQ(m.type(), RaftMsgType::Commit);
    EXPECT_EQ(m.sender(), 0);
    EXPECT_EQ(m.term(), 2);
    EXPECT_EQ(m.index(), 42);
    EXPECT_EQ(m.value_digest(), 0xabcdef01ULL);
    EXPECT_EQ(m.unique_key(), msg.unique_key());
}

// ---- Envelope / digest round-trips -----------------------------------------

TEST(WireCodec, GossipEnvelopeWithPaxosPayloadRoundTrip) {
    auto payload = std::make_shared<Phase2bMsg>(5, 42, 3, ValueId{2, 8}, 0xfeedfaceULL, 1);
    GossipAppMessage app;
    app.id = payload->unique_key();
    app.origin = 5;
    app.payload = payload;
    app.aggregated = false;
    app.hops = 3;
    const GossipEnvelope env(app);
    const auto d = round_trip(env);
    const auto& e = decoded_as<GossipEnvelope>(d, BodyKind::GossipEnvelope);
    EXPECT_EQ(e.message().id, app.id);
    EXPECT_EQ(e.message().origin, 5);
    EXPECT_EQ(e.message().hops, 3);
    EXPECT_FALSE(e.message().aggregated);
    ASSERT_NE(e.message().payload, nullptr);
    const auto& inner = static_cast<const Phase2bMsg&>(*e.message().payload);
    EXPECT_EQ(inner.instance(), 42);
    // Identity must survive the wire: the decoded payload regenerates the
    // exact gossip id, so duplicate suppression works across real links.
    EXPECT_EQ(inner.unique_key(), app.id);
}

TEST(WireCodec, EnvelopeAggregatedFlagRoundTrip) {
    auto payload =
        std::make_shared<Phase2bAggregateMsg>(9, 42, 3, ValueId{2, 8}, 0xfeedfaceULL,
                                              std::vector<ProcessId>{0, 1, 2, 3, 4}, 0);
    GossipAppMessage app;
    app.id = payload->unique_key();
    app.origin = 9;
    app.payload = payload;
    app.aggregated = true;
    app.hops = 1;
    const GossipEnvelope env(app);
    const auto d = round_trip(env);
    const auto& e = decoded_as<GossipEnvelope>(d, BodyKind::GossipEnvelope);
    EXPECT_TRUE(e.message().aggregated);
    const auto& inner = static_cast<const Phase2bAggregateMsg&>(*e.message().payload);
    EXPECT_EQ(inner.senders().size(), 5u);
}

TEST(WireCodec, EnvelopeWithRaftPayloadRoundTrip) {
    auto payload = std::make_shared<AckMsg>(4, 2, 42, 0xabcdef01ULL);
    GossipAppMessage app;
    app.id = payload->unique_key();
    app.origin = 4;
    app.payload = payload;
    const GossipEnvelope env(app);
    const auto d = round_trip(env);
    const auto& e = decoded_as<GossipEnvelope>(d, BodyKind::GossipEnvelope);
    ASSERT_EQ(e.message().payload->kind(), BodyKind::Raft);
    EXPECT_EQ(static_cast<const AckMsg&>(*e.message().payload).unique_key(), app.id);
}

TEST(WireCodec, PullDigestRoundTrip) {
    const PullDigest digest({0x1ULL, 0xffffffffffffffffULL, 42});
    const auto d = round_trip(digest);
    const auto& m = decoded_as<PullDigest>(d, BodyKind::PullDigest);
    EXPECT_EQ(m.ids(), digest.ids());
}

TEST(WireCodec, PullDigestEmptyRoundTrip) {
    const PullDigest digest({});
    const auto d = round_trip(digest);
    const auto& m = decoded_as<PullDigest>(d, BodyKind::PullDigest);
    EXPECT_TRUE(m.ids().empty());
}

TEST(WireCodec, OtherBodyKindIsUnencodable) {
    struct FakeBody final : MessageBody {
        std::uint32_t wire_size() const override { return 1; }
        std::string describe() const override { return "fake"; }
    };
    EXPECT_TRUE(wire::encode_body(FakeBody{}).empty());
}

TEST(WireCodec, TrailingBytesRejected) {
    const HeartbeatMsg msg(7, 1, 1);
    std::vector<std::uint8_t> bytes = wire::encode_body(msg);
    bytes.push_back(0x00);
    const auto d = wire::decode_body(as_span(bytes));
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error, WireError::TrailingBytes);
}

// ---- Golden byte layouts ---------------------------------------------------
//
// These pin wire version 3 exactly (v3 added the i32 consensus-group tag
// after every Paxos sender and the per-group heartbeat frontier vector;
// v2 added the u16 batch-component count to every encoded value). If one
// of them fails you have changed the wire format: bump wire::kWireVersion
// and update the golden bytes.

TEST(WireGolden, HeartbeatLayout) {
    const HeartbeatMsg msg(7, 0x1122334455667788ULL, 42);
    const std::vector<std::uint8_t> expected = {
        0x03,                                            // kind = Paxos
        0x09,                                            // tag = Heartbeat
        0x07, 0x00, 0x00, 0x00,                          // sender = 7 (i32 LE)
        0x00, 0x00, 0x00, 0x00,                          // group = 0 (i32 LE)
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // seq (u64 LE)
        0x01, 0x00,                                      // frontier count = 1 (u16)
        0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // frontier[0] = 42 (i64 LE)
    };
    EXPECT_EQ(wire::encode_body(msg), expected);
}

TEST(WireGolden, MultiGroupHeartbeatLayout) {
    // A sharded node's heartbeat advertises one learner frontier per group.
    const HeartbeatMsg msg(7, 2, std::vector<InstanceId>{5, 1});
    const std::vector<std::uint8_t> expected = {
        0x03,                                            // kind = Paxos
        0x09,                                            // tag = Heartbeat
        0x07, 0x00, 0x00, 0x00,                          // sender = 7
        0x00, 0x00, 0x00, 0x00,                          // group = 0
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq = 2
        0x02, 0x00,                                      // frontier count = 2
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // frontier[0] = 5
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // frontier[1] = 1
    };
    EXPECT_EQ(wire::encode_body(msg), expected);
}

TEST(WireGolden, Phase2bLayout) {
    const Phase2bMsg msg(2, 5, 1, ValueId{3, 9}, 0xdeadbeefULL, 4);
    const std::vector<std::uint8_t> expected = {
        0x03,                                            // kind = Paxos
        0x05,                                            // tag = Phase2b
        0x02, 0x00, 0x00, 0x00,                          // sender = 2
        0x00, 0x00, 0x00, 0x00,                          // group = 0
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // instance = 5
        0x01, 0x00, 0x00, 0x00,                          // round = 1
        0x03, 0x00, 0x00, 0x00,                          // value_id.client = 3
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // value_id.seq = 9
        0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00,  // digest
        0x04, 0x00, 0x00, 0x00,                          // attempt = 4
    };
    EXPECT_EQ(wire::encode_body(msg), expected);
}

TEST(WireGolden, ClientValueLayout) {
    const ClientValueMsg msg(1, make_value(1, 2, 1024), 0, -1, false);
    const std::vector<std::uint8_t> expected = {
        0x03,                                            // kind = Paxos
        0x01,                                            // tag = ClientValue
        0x01, 0x00, 0x00, 0x00,                          // sender = 1
        0x00, 0x00, 0x00, 0x00,                          // group = 0
        0x01, 0x00, 0x00, 0x00,                          // value.id.client = 1
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // value.id.seq = 2
        0x00, 0x04, 0x00, 0x00,                          // value.size_bytes = 1024
        0x00, 0x00,                                      // batch count = 0 (plain)
        0x00, 0x00, 0x00, 0x00,                          // attempt = 0
        0xff, 0xff, 0xff, 0xff,                          // target = -1
        0x00,                                            // forwarded = false
    };
    EXPECT_EQ(wire::encode_body(msg), expected);
}

TEST(WireGolden, GroupBatchHeaderLayout) {
    // Cross-group batch (DESIGN.md §15): u8 verb tag, u16 entry count, then
    // each entry as a complete nested Paxos body (its own group tag).
    auto entry = std::make_shared<Phase2bMsg>(2, 5, 1, ValueId{3, 9}, 0xdeadbeefULL, 4);
    entry->set_group(6);
    const GroupBatchMsg msg(1, PaxosMsgType::Phase2b, {entry});
    const std::vector<std::uint8_t> bytes = wire::encode_body(msg);
    const std::vector<std::uint8_t> header = {
        0x03,                    // kind = Paxos
        0x0a,                    // tag = GroupBatch
        0x01, 0x00, 0x00, 0x00,  // sender (packer) = 1
        0x00, 0x00, 0x00, 0x00,  // group = 0 (the batch spans groups)
        0x05,                    // verb = Phase2b
        0x01, 0x00,              // entry count = 1
        0x05,                    // entry[0] tag = Phase2b (no kind byte)
        0x02, 0x00, 0x00, 0x00,  // entry[0] sender = 2
        0x06, 0x00, 0x00, 0x00,  // entry[0] group = 6
    };
    ASSERT_GE(bytes.size(), header.size());
    EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + header.size()),
              header);
}

TEST(WireGolden, RaftCommitLayout) {
    const CommitMsg msg(3, 2, 7, 0x0123456789abcdefULL);
    const std::vector<std::uint8_t> expected = {
        0x04,                                            // kind = Raft
        0x05,                                            // tag = Commit
        0x03, 0x00, 0x00, 0x00,                          // sender = 3
        0x02, 0x00, 0x00, 0x00,                          // term = 2
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // index = 7
        0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // digest
    };
    EXPECT_EQ(wire::encode_body(msg), expected);
}

TEST(WireGolden, EnvelopeHeaderLayout) {
    auto payload = std::make_shared<HeartbeatMsg>(7, 1, 1);
    GossipAppMessage app;
    app.id = 0x0807060504030201ULL;
    app.origin = 7;
    app.payload = payload;
    app.aggregated = true;
    app.hops = 2;
    const std::vector<std::uint8_t> bytes = wire::encode_body(GossipEnvelope(app));
    const std::vector<std::uint8_t> header = {
        0x01,                                            // kind = GossipEnvelope
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // id (u64 LE)
        0x07, 0x00, 0x00, 0x00,                          // origin = 7
        0x02, 0x00,                                      // hops = 2 (u16)
        0x01,                                            // flags = aggregated
        0x03,                                            // nested kind = Paxos
        0x09,                                            // nested tag = Heartbeat
    };
    ASSERT_GE(bytes.size(), header.size());
    EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + header.size()),
              header);
}

TEST(WireGolden, PullDigestLayout) {
    const PullDigest digest({0x42ULL});
    const std::vector<std::uint8_t> expected = {
        0x02,                                            // kind = PullDigest
        0x01, 0x00, 0x00, 0x00,                          // count = 1
        0x42, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // id
    };
    EXPECT_EQ(wire::encode_body(digest), expected);
}

// ---- Framing ---------------------------------------------------------------

TEST(WireFrame, GoldenHeaderLayout) {
    const std::vector<std::uint8_t> payload = {0xaa, 0xbb};
    const std::vector<std::uint8_t> expected = {
        0x46, 0x57, 0x43, 0x47,  // magic 0x47435746 LE
        0x03,                    // version
        0x02,                    // type = Body
        0x00, 0x00,              // flags
        0x02, 0x00, 0x00, 0x00,  // length = 2
        0xaa, 0xbb,
    };
    EXPECT_EQ(wire::encode_frame(wire::FrameType::Body, as_span(payload)), expected);
}

TEST(WireFrame, HelloRoundTrip) {
    const wire::Hello hello{5, 8};
    const std::vector<std::uint8_t> bytes = wire::encode_hello_frame(hello);
    wire::FrameType type{};
    std::span<const std::uint8_t> payload;
    ASSERT_EQ(wire::decode_frame(as_span(bytes), type, payload), WireError::None);
    EXPECT_EQ(type, wire::FrameType::Hello);
    wire::Hello out;
    ASSERT_EQ(wire::decode_hello(payload, out), WireError::None);
    EXPECT_EQ(out.sender, 5);
    EXPECT_EQ(out.cluster_size, 8);
}

TEST(WireFrame, HelloRejectsInconsistentIdentity) {
    // A peer claiming an id outside its own cluster size is lying about one
    // of the two; the handshake rejects it rather than index out of range.
    const wire::Hello bad{5, 3};
    const std::vector<std::uint8_t> bytes = wire::encode_hello_frame(bad);
    wire::FrameType type{};
    std::span<const std::uint8_t> payload;
    ASSERT_EQ(wire::decode_frame(as_span(bytes), type, payload), WireError::None);
    wire::Hello out;
    EXPECT_EQ(wire::decode_hello(payload, out), WireError::BadField);
}

TEST(WireFrame, OneShotDecodeStrictLength) {
    const std::vector<std::uint8_t> payload = {0x01, 0x02, 0x03};
    std::vector<std::uint8_t> bytes = wire::encode_frame(wire::FrameType::Body, as_span(payload));
    wire::FrameType type{};
    std::span<const std::uint8_t> out;

    std::vector<std::uint8_t> short_buf(bytes.begin(), bytes.end() - 1);
    EXPECT_EQ(wire::decode_frame(as_span(short_buf), type, out), WireError::Truncated);

    bytes.push_back(0x00);
    EXPECT_EQ(wire::decode_frame(as_span(bytes), type, out), WireError::TrailingBytes);
}

TEST(WireFrame, ParserReassemblesByteAtATime) {
    // A frame must survive maximal TCP fragmentation: feed one byte at a
    // time and require exactly one frame at the end.
    const HeartbeatMsg msg(7, 9, 3);
    const std::vector<std::uint8_t> body = wire::encode_body(msg);
    const std::vector<std::uint8_t> bytes = wire::encode_frame(wire::FrameType::Body, as_span(body));

    wire::FrameParser parser;
    wire::Frame frame;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        parser.feed(std::span<const std::uint8_t>(&bytes[i], 1));
        ASSERT_EQ(parser.next(frame), wire::FrameParser::Result::NeedMore) << "at byte " << i;
    }
    parser.feed(std::span<const std::uint8_t>(&bytes.back(), 1));
    ASSERT_EQ(parser.next(frame), wire::FrameParser::Result::Frame);
    EXPECT_EQ(frame.type, wire::FrameType::Body);
    const auto d = wire::decode_body(frame.payload);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(static_cast<const HeartbeatMsg&>(*d.body).seq(), 9u);
    EXPECT_EQ(parser.next(frame), wire::FrameParser::Result::NeedMore);
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(WireFrame, ParserHandlesCoalescedFrames) {
    // The opposite of fragmentation: many frames arriving in one read.
    std::vector<std::uint8_t> stream;
    constexpr int kFrames = 200;
    for (int i = 0; i < kFrames; ++i) {
        const HeartbeatMsg msg(1, static_cast<std::uint64_t>(i), i);
        const std::vector<std::uint8_t> body = wire::encode_body(msg);
        const std::vector<std::uint8_t> f = wire::encode_frame(wire::FrameType::Body, as_span(body));
        stream.insert(stream.end(), f.begin(), f.end());
    }
    wire::FrameParser parser;
    parser.feed(as_span(stream));
    wire::Frame frame;
    for (int i = 0; i < kFrames; ++i) {
        ASSERT_EQ(parser.next(frame), wire::FrameParser::Result::Frame) << "frame " << i;
        const auto d = wire::decode_body(frame.payload);
        ASSERT_TRUE(d.ok());
        EXPECT_EQ(static_cast<const HeartbeatMsg&>(*d.body).seq(),
                  static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(parser.next(frame), wire::FrameParser::Result::NeedMore);
}

TEST(WireFrame, EmptyPayloadFrame) {
    const std::vector<std::uint8_t> bytes =
        wire::encode_frame(wire::FrameType::Body, std::span<const std::uint8_t>());
    EXPECT_EQ(bytes.size(), wire::kFrameHeaderBytes);
    wire::FrameParser parser;
    parser.feed(as_span(bytes));
    wire::Frame frame;
    ASSERT_EQ(parser.next(frame), wire::FrameParser::Result::Frame);
    EXPECT_TRUE(frame.payload.empty());
}

}  // namespace
}  // namespace gossipc
