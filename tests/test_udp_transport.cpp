// UDP transport suite (DESIGN.md §12), registered under the chaos.udp.
// ctest prefix: an in-process loopback cluster — every node's NodeStack
// shares one Reactor and exchanges datagrams through the deterministic
// lossy-link harness (no real sockets), so the whole thing runs
// byte-reproducibly under ctest and ASan/UBSan.
//
// The headline assertions: a cluster at 20% seeded loss plus duplication
// and reordering still orders every client value with gap-free, identical
// learner logs on all nodes; and a scripted seed-replay produces
// byte-identical fault and delivery logs across two independent runs of the
// same seed. UdpLink unit tests pin the reliability layer itself:
// retransmission repairs reliable bodies under heavy loss, best-effort
// bodies are never mourned, MTU clustering, jumbo handling, datagram
// dedup, and hostile ack fields.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/datagram_faults.hpp"
#include "node_cluster.hpp"
#include "runtime/lossy_link.hpp"
#include "runtime/udp_link.hpp"
#include "wire/datagram.hpp"

namespace gossipc::runtime {
namespace {

/// 20% loss plus duplication and reordering — the acceptance-criteria
/// fault profile.
fault::DatagramFaultSpec twenty_percent_chaos() {
    fault::DatagramFaultSpec spec;
    spec.loss = 0.20;
    spec.duplicate = 0.10;
    spec.reorder_window = SimTime::millis(2);
    return spec;
}

// -- cluster-level tests ------------------------------------------------------

TEST(UdpTransport, DirectClusterAgreesOnCleanLinks) {
    constexpr int kValues = 60;
    NodeCluster cluster({.setup = Setup::Baseline, .n = 3, .seed = 7});
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_settled(kValues)) << "cluster did not converge";
    cluster.expect_agreement(kValues);
    for (int i = 0; i < cluster.size(); ++i) {
        MetricsRegistry reg = cluster.metrics(i);
        EXPECT_EQ(reg.counter("udp.link.decode_errors").value, 0u) << "node " << i;
        EXPECT_GT(reg.counter("udp.link.datagrams_sent").value, 0u) << "node " << i;
    }
}

TEST(UdpTransport, SemanticClusterAgreesOnCleanLinks) {
    constexpr int kValues = 100;
    NodeCluster cluster({.setup = Setup::SemanticGossip, .n = 5, .seed = 7});
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_settled(kValues)) << "cluster did not converge";
    cluster.expect_agreement(kValues);
}

TEST(UdpTransport, SemanticClusterAgreesAtTwentyPercentLoss) {
    constexpr int kValues = 40;
    NodeCluster cluster({.setup = Setup::SemanticGossip, .n = 5, .seed = 11,
                         .faults = twenty_percent_chaos()});
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(90)))
        << "cluster did not converge under 20% loss";
    cluster.expect_agreement(kValues);
    EXPECT_GT(cluster.net().counters().dropped, 0u) << "fault profile never fired";
    EXPECT_GT(cluster.net().counters().duplicated, 0u);
}

TEST(UdpTransport, GossipClusterAgreesAtTwentyPercentLoss) {
    constexpr int kValues = 30;
    NodeCluster cluster({.setup = Setup::Gossip, .n = 5, .seed = 13,
                         .faults = twenty_percent_chaos()});
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(90)))
        << "cluster did not converge under 20% loss";
    cluster.expect_agreement(kValues);
}

TEST(UdpTransport, DirectClusterAgreesAtTwentyPercentLoss) {
    // Direct mode has no gossip redundancy: every loss that matters must be
    // repaired by the link's reliability layer alone.
    constexpr int kValues = 30;
    NodeCluster cluster({.setup = Setup::Baseline, .n = 3, .seed = 17,
                         .faults = twenty_percent_chaos()});
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(90)))
        << "cluster did not converge under 20% loss";
    cluster.expect_agreement(kValues);
    EXPECT_GT(cluster.sum("udp.link.retransmits") + cluster.sum("udp.link.fast_retransmits"),
              0u)
        << "20% loss should have exercised retransmission";
}

// -- seed replay --------------------------------------------------------------

/// Runs a fixed, scripted datagram exchange over a fresh harness and returns
/// (fault log, canonical delivery log). The delivery log is a sorted
/// multiset of delivered datagrams — timing decides *when* a datagram
/// lands, the seed alone decides *which* bytes land and how many times.
std::pair<std::string, std::string> scripted_run(std::uint64_t seed) {
    Reactor reactor;
    LossyDatagramNetwork net(reactor, 2, seed);
    fault::DatagramFaultSpec spec;
    spec.loss = 0.30;
    spec.duplicate = 0.20;
    spec.reorder_window = SimTime::millis(1);
    spec.truncate = 0.20;
    net.set_default_fault(spec);

    std::map<std::string, int> delivered;
    net.endpoint(1).set_receive_handler([&](std::span<const std::uint8_t> datagram) {
        char key[64];
        std::snprintf(key, sizeof key, "len=%zu first=%u", datagram.size(),
                      datagram.empty() ? 0u : datagram.front());
        ++delivered[key];
    });

    for (int i = 0; i < 150; ++i) {
        std::vector<std::uint8_t> bytes(
            static_cast<std::size_t>(20 + (i * 7) % 400),
            static_cast<std::uint8_t>(i));
        EXPECT_TRUE(net.endpoint(0).send(1, bytes)) << "send " << i;
    }
    // Drain: base delay 100us + reorder window 1ms + dup delays; 100ms of
    // wall clock is orders of magnitude past the last deadline.
    reactor.run_until([] { return false; }, SimTime::millis(100));

    std::string event_log;
    for (const auto& [key, count] : delivered) {
        event_log += key;
        event_log += " x";
        event_log += std::to_string(count);
        event_log += '\n';
    }
    return {net.fault_log(), event_log};
}

TEST(UdpTransport, SeedReplayProducesByteIdenticalFaultAndEventLogs) {
    const auto [faults_a, events_a] = scripted_run(2026);
    const auto [faults_b, events_b] = scripted_run(2026);
    EXPECT_FALSE(faults_a.empty()) << "fault profile never fired";
    EXPECT_EQ(faults_a, faults_b) << "fault log is not a pure function of the seed";
    EXPECT_EQ(events_a, events_b) << "delivery multiset is not a pure function of the seed";

    // A different seed draws a different fate stream (with overwhelming
    // probability over 150 datagrams and four fault classes).
    const auto [faults_c, events_c] = scripted_run(2027);
    EXPECT_NE(faults_a, faults_c);
}

// -- UdpLink unit tests -------------------------------------------------------

/// Two links over a lossy harness, bodies recorded per receiver.
struct LinkPair {
    explicit LinkPair(std::uint64_t seed, const fault::DatagramFaultSpec& spec,
                      UdpLink::Params params = fast_link_params())
        : net(reactor, 2, seed),
          a(reactor, 0, 2, net.endpoint(0), params),
          b(reactor, 1, 2, net.endpoint(1), params) {
        net.set_default_fault(spec);
        a.link(1);
        b.link(0);
        b.set_body_handler([this](ProcessId from, std::span<const std::uint8_t> bytes) {
            (void)from;
            received_by_b.emplace_back(bytes.begin(), bytes.end());
        });
        a.set_body_handler([this](ProcessId from, std::span<const std::uint8_t> bytes) {
            (void)from;
            received_by_a.emplace_back(bytes.begin(), bytes.end());
        });
    }

    Reactor reactor;
    LossyDatagramNetwork net;
    UdpLink a;
    UdpLink b;
    std::vector<std::vector<std::uint8_t>> received_by_a;
    std::vector<std::vector<std::uint8_t>> received_by_b;
};

std::vector<std::uint8_t> test_body(int i, std::size_t size = 32) {
    std::vector<std::uint8_t> body(size, static_cast<std::uint8_t>(i));
    body[0] = static_cast<std::uint8_t>(i >> 8);
    return body;
}

TEST(UdpLink, ReliableBodiesSurviveHeavyLoss) {
    constexpr int kBodies = 100;
    fault::DatagramFaultSpec spec;
    spec.loss = 0.5;
    LinkPair pair(31, spec);
    for (int i = 0; i < kBodies; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/true));
    }
    ASSERT_TRUE(pair.reactor.run_until(
        [&] { return pair.received_by_b.size() >= kBodies; }, SimTime::seconds(30)))
        << "reliability layer did not repair 50% loss; got "
        << pair.received_by_b.size();
    // Exactly once: the rel_id dedup absorbs every retransmission overlap.
    EXPECT_EQ(pair.received_by_b.size(), static_cast<std::size_t>(kBodies));
    const auto& c = pair.a.counters();
    EXPECT_GT(c.retransmits + c.fast_retransmits, 0u);
    // Everything reliable was eventually acknowledged.
    ASSERT_TRUE(pair.reactor.run_until([&] { return pair.a.unacked(1) == 0; },
                                       SimTime::seconds(30)));
    EXPECT_EQ(c.reliable_acked, static_cast<std::uint64_t>(kBodies));
}

TEST(UdpLink, BestEffortBodiesAreNotRepaired) {
    constexpr int kBodies = 200;
    fault::DatagramFaultSpec spec;
    spec.loss = 0.5;
    LinkPair pair(33, spec);
    for (int i = 0; i < kBodies; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/false));
    }
    pair.reactor.run_until([] { return false; }, SimTime::millis(300));
    // Losses stay lost (no retransmission machinery ran), and at 50% loss
    // over the deterministic seed some datagrams certainly dropped.
    EXPECT_LT(pair.received_by_b.size(), static_cast<std::size_t>(kBodies));
    EXPECT_GT(pair.received_by_b.size(), 0u);
    const auto& c = pair.a.counters();
    EXPECT_EQ(c.retransmits, 0u);
    EXPECT_EQ(c.fast_retransmits, 0u);
    EXPECT_EQ(pair.a.unacked(1), 0u);
}

TEST(UdpLink, ClustersSmallBodiesIntoFewDatagrams) {
    LinkPair pair(35, fault::DatagramFaultSpec{});
    constexpr int kBodies = 50;  // 50 * (32 + 9) + 24 ≈ 2.1 KB ≈ 2 datagrams
    for (int i = 0; i < kBodies; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/false));
    }
    ASSERT_TRUE(pair.reactor.run_until(
        [&] { return pair.received_by_b.size() >= kBodies; }, SimTime::seconds(10)));
    const auto& c = pair.a.counters();
    EXPECT_EQ(c.bodies_sent, static_cast<std::uint64_t>(kBodies));
    // All 50 queued in one reactor turn, so they cluster tightly under the
    // 1400-byte MTU budget (keepalives/acks ride separately).
    EXPECT_LE(c.datagrams_sent - c.acks_only_sent, 4u);
    EXPECT_EQ(c.jumbo_datagrams, 0u);
}

TEST(UdpLink, JumboBodyTravelsAloneAndOversizeIsRejected) {
    LinkPair pair(37, fault::DatagramFaultSpec{});
    // Bigger than the MTU budget but within the harness's 64 KiB datagram
    // cap: sent as one jumbo datagram.
    ASSERT_TRUE(pair.a.send_body(1, test_body(1, 5000), /*reliable=*/true));
    ASSERT_TRUE(pair.reactor.run_until([&] { return !pair.received_by_b.empty(); },
                                       SimTime::seconds(10)));
    EXPECT_EQ(pair.received_by_b[0].size(), 5000u);
    EXPECT_EQ(pair.a.counters().jumbo_datagrams, 1u);
    // Beyond the channel cap: rejected up front, counted, never queued.
    EXPECT_FALSE(pair.a.send_body(1, test_body(2, 70 * 1024), /*reliable=*/true));
    EXPECT_GT(pair.a.counters().send_failures, 0u);
    EXPECT_GT(pair.a.counters().reliable_dropped, 0u);
}

TEST(UdpLink, DuplicatedDatagramsDeliverBodiesOnce) {
    constexpr int kBodies = 40;
    fault::DatagramFaultSpec spec;
    spec.duplicate = 1.0;  // every datagram arrives twice
    LinkPair pair(39, spec);
    for (int i = 0; i < kBodies; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/false));
    }
    pair.reactor.run_until([] { return false; }, SimTime::millis(200));
    EXPECT_EQ(pair.received_by_b.size(), static_cast<std::size_t>(kBodies));
    EXPECT_GT(pair.b.counters().duplicate_datagrams, 0u);
}

TEST(UdpLink, TruncatedDatagramsAreRejectedCleanly) {
    constexpr int kBodies = 60;
    fault::DatagramFaultSpec spec;
    spec.truncate = 0.5;
    LinkPair pair(41, spec);
    for (int i = 0; i < kBodies; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/true));
    }
    // Truncated copies fail to decode and are dropped whole; retransmission
    // still carries every reliable body across eventually.
    ASSERT_TRUE(pair.reactor.run_until(
        [&] { return pair.received_by_b.size() >= kBodies; }, SimTime::seconds(30)));
    EXPECT_EQ(pair.received_by_b.size(), static_cast<std::size_t>(kBodies));
    EXPECT_GT(pair.b.counters().decode_errors, 0u) << "truncation never fired";
    EXPECT_GT(pair.net.counters().truncated, 0u);
}

TEST(UdpLink, HostileAckFieldsAreHarmless) {
    LinkPair pair(43, fault::DatagramFaultSpec{});
    // Inject datagrams with absurd ack state: far-future cumulative ack,
    // all selective-ack bits set, and an unknown sender id.
    wire::DatagramHeader hostile;
    hostile.sender = 1;
    hostile.seq = 0;
    hostile.ack = 0xffffffffu;
    hostile.ack_bits = 0xffffffffu;
    const auto hostile_bytes = wire::encode_datagram(hostile, {});
    ASSERT_TRUE(pair.net.endpoint(1).send(0, hostile_bytes));

    wire::DatagramHeader impostor = hostile;
    impostor.sender = 99;  // out of range
    const auto impostor_bytes = wire::encode_datagram(impostor, {});
    ASSERT_TRUE(pair.net.endpoint(1).send(0, impostor_bytes));
    pair.reactor.run_until([] { return false; }, SimTime::millis(20));
    EXPECT_GE(pair.a.counters().decode_errors, 1u) << "impostor not rejected";

    // The link still works: reliable traffic flows and is acknowledged.
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/true));
    }
    ASSERT_TRUE(pair.reactor.run_until(
        [&] { return pair.received_by_b.size() >= 20 && pair.a.unacked(1) == 0; },
        SimTime::seconds(10)));
    EXPECT_EQ(pair.received_by_b.size(), 20u);
}

TEST(UdpLink, PeerUpFlipsOnFirstDatagramHeard) {
    LinkPair pair(45, fault::DatagramFaultSpec{});
    // link() in the harness ctor sent introductions both ways already;
    // peer_up flips as soon as they land.
    ASSERT_TRUE(pair.reactor.run_until(
        [&] { return pair.a.peer_up(1) && pair.b.peer_up(0); }, SimTime::seconds(5)));
    EXPECT_FALSE(pair.a.peer_up(0));  // self is never "up"
    EXPECT_FALSE(pair.a.peer_up(99));
}

TEST(UdpLink, ForceReliableRepairsEverything) {
    constexpr int kBodies = 50;
    fault::DatagramFaultSpec spec;
    spec.loss = 0.4;
    UdpLink::Params params = fast_link_params();
    params.force_reliable = true;  // the bench's TCP-like configuration
    LinkPair pair(47, spec, params);
    for (int i = 0; i < kBodies; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/false));
    }
    ASSERT_TRUE(pair.reactor.run_until(
        [&] { return pair.received_by_b.size() >= kBodies; }, SimTime::seconds(30)))
        << "force_reliable did not repair losses";
    EXPECT_EQ(pair.received_by_b.size(), static_cast<std::size_t>(kBodies));
}

// -- Satellite: RTO backoff across partition/heal -----------------------------

// Across a partition the exponential backoff must stop at rto_max (not grow
// unbounded), and after the heal every reliable body must still come through.
TEST(UdpLink, RtoBackoffCapsAtMaxAcrossPartitionAndHeal) {
    UdpLink::Params params = fast_link_params();
    params.rto_initial = SimTime::millis(5);
    params.rto_max = SimTime::millis(40);
    params.rto_sweep = SimTime::millis(2);
    LinkPair pair(83, fault::DatagramFaultSpec{}, params);

    // Total blackout in both directions: bodies sent now can only back off.
    fault::DatagramFaultSpec blackout;
    blackout.loss = 1.0;
    pair.net.set_link_fault(0, 1, blackout);
    pair.net.set_link_fault(1, 0, blackout);
    constexpr int kBodies = 5;
    for (int i = 0; i < kBodies; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/true));
    }
    pair.reactor.run_until([] { return false; }, SimTime::millis(600));
    const UdpLink::PeerStats mid = pair.a.peer_stats(1);
    EXPECT_EQ(mid.unacked, static_cast<std::size_t>(kBodies));
    EXPECT_EQ(mid.max_rto, params.rto_max) << "backoff did not cap at rto_max";

    pair.net.clear_link_fault(0, 1);
    pair.net.clear_link_fault(1, 0);
    ASSERT_TRUE(pair.reactor.run_until(
        [&] { return pair.received_by_b.size() >= kBodies && pair.a.unacked(1) == 0; },
        SimTime::seconds(10)))
        << "bodies did not recover after heal";
    EXPECT_EQ(pair.received_by_b.size(), static_cast<std::size_t>(kBodies));
}

// A long ack-less partition with a tiny seq->rel history must evict the
// fast-retransmit hints (bounded memory) without losing any reliable body:
// the RTO path owns delivery, the history is only an optimization.
TEST(UdpLink, SeqHistoryEvictionKeepsReliableDeliveryIntact) {
    UdpLink::Params params = fast_link_params();
    params.rto_initial = SimTime::millis(5);
    params.rto_max = SimTime::millis(20);
    params.rto_sweep = SimTime::millis(2);
    params.seq_history = 4;
    LinkPair pair(89, fault::DatagramFaultSpec{}, params);

    fault::DatagramFaultSpec blackout;
    blackout.loss = 1.0;
    pair.net.set_link_fault(1, 0, blackout);  // acks never return
    constexpr int kBodies = 12;
    for (int i = 0; i < kBodies; ++i) {
        ASSERT_TRUE(pair.a.send_body(1, test_body(i), /*reliable=*/true));
    }
    pair.reactor.run_until([] { return false; }, SimTime::millis(400));
    EXPECT_GT(pair.a.counters().seq_history_evictions, 0u)
        << "cap never hit despite retransmission pressure";

    pair.net.clear_link_fault(1, 0);
    ASSERT_TRUE(pair.reactor.run_until([&] { return pair.a.unacked(1) == 0; },
                                       SimTime::seconds(10)));
    // Dedup on the receiver must survive the eviction churn: each body once.
    EXPECT_EQ(pair.received_by_b.size(), static_cast<std::size_t>(kBodies));
}

// The retransmission jitter is a pure function of (self, peer, rel_id,
// backoff stage) — byte-identical across link incarnations — and bounded by
// rto_jitter_max; distinct rel_ids must not all share one offset.
TEST(UdpLink, RtoJitterIsDeterministicBoundedAndSpread) {
    const UdpLink::Params params = fast_link_params();
    Reactor reactor;
    LossyDatagramNetwork net(reactor, 2, 7);
    UdpLink first(reactor, 0, 2, net.endpoint(0), params);
    UdpLink second(reactor, 0, 2, net.endpoint(1), params);

    bool varied = false;
    SimTime previous = SimTime::nanos(-1);
    for (std::uint32_t rel = 1; rel <= 64; ++rel) {
        for (const SimTime rto : {params.rto_initial, params.rto_initial * 2}) {
            const SimTime j = first.rto_jitter(1, rel, rto);
            EXPECT_EQ(j, second.rto_jitter(1, rel, rto))
                << "jitter is not a pure function of its inputs";
            EXPECT_GE(j, SimTime::zero());
            EXPECT_LE(j, params.rto_jitter_max);
            if (previous.as_nanos() >= 0 && j != previous) varied = true;
            previous = j;
        }
    }
    EXPECT_TRUE(varied) << "every deadline drew the same jitter";
}

// A recreated sender link (bumped epoch) must be treated as a fresh
// incarnation: its restarted rel_ids deliver instead of being swallowed by
// dedup state from the previous life.
TEST(UdpLink, EpochBumpRestartsIncarnationAndDelivers) {
    UdpLink::Params params = fast_link_params();
    Reactor reactor;
    LossyDatagramNetwork net(reactor, 2, 11);
    UdpLink b(reactor, 1, 2, net.endpoint(1), params);
    std::vector<std::vector<std::uint8_t>> received;
    b.set_body_handler([&](ProcessId, std::span<const std::uint8_t> bytes) {
        received.emplace_back(bytes.begin(), bytes.end());
    });
    b.link(0);

    auto a = std::make_unique<UdpLink>(reactor, 0, 2, net.endpoint(0), params);
    a->link(1);
    ASSERT_TRUE(a->send_body(1, test_body(1), /*reliable=*/true));
    ASSERT_TRUE(reactor.run_until([&] { return received.size() >= 1; },
                                  SimTime::seconds(5)));

    // Same endpoint, next incarnation: rel_id/seq counters restart at 1.
    params.epoch = 1;
    a = std::make_unique<UdpLink>(reactor, 0, 2, net.endpoint(0), params);
    a->link(1);
    ASSERT_TRUE(a->send_body(1, test_body(2), /*reliable=*/true));
    ASSERT_TRUE(reactor.run_until([&] { return received.size() >= 2; },
                                  SimTime::seconds(5)))
        << "fresh incarnation's first body was swallowed as a duplicate";
    EXPECT_EQ(b.counters().epoch_resets, 1u);
    EXPECT_EQ(received[1], test_body(2));
}

}  // namespace
}  // namespace gossipc::runtime
