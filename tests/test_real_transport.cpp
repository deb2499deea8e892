// End-to-end tests of the real-socket runtime (DESIGN.md §10): an
// in-process loopback cluster — every node's NodeStack lives in one test
// process, shares one Reactor, and talks over real TCP sockets on ephemeral
// localhost ports.
//
// This exercises the exact production stack (sockets, framing, codec,
// per-peer queues, gossip dissemination, semantic hooks) without spawning
// processes, so it can run inside ctest on any machine. The multi-process
// variant — separate gossipd daemons plus a SIGKILLed coordinator — lives in
// scripts/cluster_local.sh and runs as the CI real-cluster-smoke job.
//
// Below the cluster tests, an in-memory PeerChannel feeds one RealTransport
// scripted envelopes: the differential test against a simulator GossipNode
// (both substrates run one engine) and the hostile-envelope tests.
//
// All timers run on the real monotonic clock; limits are generous (tens of
// seconds) while actual runs complete in tens of milliseconds.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gossip/gossip_node.hpp"
#include "gossip/hooks.hpp"
#include "net/network.hpp"
#include "node_cluster.hpp"
#include "runtime/real_transport.hpp"
#include "runtime/tcp.hpp"
#include "runtime/udp.hpp"
#include "semantic/paxos_semantics.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "trace/tracer.hpp"
#include "wire/codec.hpp"

namespace gossipc::runtime {
namespace {

TEST(RealTransport, MeshComesUp) {
    NodeCluster cluster({.setup = Setup::Baseline, .n = 3, .tcp = true});
    EXPECT_TRUE(cluster.reactor().run_until([&] { return cluster.all_links_up(); },
                                            SimTime::seconds(10)));
    for (int i = 0; i < cluster.size(); ++i) {
        MetricsRegistry reg = cluster.metrics(i);
        EXPECT_GT(reg.counter("conn.links_up").value, 0u) << "node " << i;
        EXPECT_EQ(reg.counter("conn.protocol_errors").value, 0u) << "node " << i;
        // The stream layer's registry names (gclint's metrics-hygiene rule
        // pins every literal a filler registers).
        std::set<std::string> names;
        for (const auto& sample : reg.snapshot()) names.insert(sample.name);
        for (const char* name :
             {"conn.dials", "conn.accepts", "conn.links_up", "conn.disconnects",
              "conn.frames_sent", "conn.frames_received", "conn.bytes_sent",
              "conn.bytes_received", "conn.send_drops_down", "conn.send_drops_backpressure",
              "conn.protocol_errors"}) {
            EXPECT_TRUE(names.count(name)) << "missing metric " << name;
        }
    }
}

TEST(RealTransport, BaselineClusterAgrees) {
    constexpr int kValues = 60;
    NodeCluster cluster({.setup = Setup::Baseline, .n = 3, .tcp = true});
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_settled(kValues)) << "cluster did not converge";
    cluster.expect_agreement(kValues);
}

TEST(RealTransport, GossipClusterAgrees) {
    constexpr int kValues = 100;
    NodeCluster cluster({.setup = Setup::Gossip, .n = 5, .tcp = true});
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_settled(kValues)) << "cluster did not converge";
    cluster.expect_agreement(kValues);

    // Dissemination really went over the overlay: every node both sent and
    // received envelopes, and nothing failed to decode.
    for (int i = 0; i < cluster.size(); ++i) {
        MetricsRegistry reg = cluster.metrics(i);
        EXPECT_GT(reg.counter("gossip.envelopes_sent").value, 0u) << "node " << i;
        EXPECT_GT(reg.counter("gossip.envelopes_received").value, 0u) << "node " << i;
        EXPECT_EQ(reg.counter("transport.decode_errors").value, 0u) << "node " << i;
    }
}

TEST(RealTransport, SemanticClusterAgrees) {
    constexpr int kValues = 100;
    trace::Tracer tracer;
    NodeCluster cluster({.setup = Setup::SemanticGossip, .n = 5, .tcp = true,
                         .tracer = &tracer});
    cluster.start();
    cluster.submit(kValues);
    ASSERT_TRUE(cluster.run_until_settled(kValues)) << "cluster did not converge";
    cluster.expect_agreement(kValues);

    // The semantic hooks were live on the real wire: with 100 instances'
    // Phase 2b traffic crossing 5 nodes, at least one aggregate must have
    // been built somewhere (and survived the codec round-trip).
    EXPECT_GT(cluster.sum("semantic.aggregates_built"), 0u);
    EXPECT_EQ(cluster.sum("transport.decode_errors"), 0u);

    // The runtime records the simulator's gossip stages.
    std::set<trace::Stage> stages;
    for (const trace::Event& e : tracer.events()) stages.insert(e.stage);
    for (const trace::Stage s :
         {trace::Stage::Receive, trace::Stage::DuplicateDrop, trace::Stage::Deliver,
          trace::Stage::Forward, trace::Stage::FilterDrop, trace::Stage::Aggregate,
          trace::Stage::AggregateBuilt, trace::Stage::Disaggregate}) {
        EXPECT_TRUE(stages.contains(s)) << "no " << trace::stage_name(s) << " event";
    }
}

TEST(RealTransport, SecondWaveAfterQuiescence) {
    // Links and timers must stay healthy after the first burst drains:
    // submit, wait, then submit again and require the same agreement.
    constexpr int kFirst = 30;
    constexpr int kSecond = 30;
    NodeCluster cluster({.setup = Setup::SemanticGossip, .n = 3, .tcp = true});
    cluster.start();
    cluster.submit(kFirst);
    ASSERT_TRUE(cluster.run_until_settled(kFirst));

    // A quiescent beat on the real clock (heartbeats keep flowing).
    cluster.reactor().run_until([] { return false; }, SimTime::millis(50));

    cluster.submit(kSecond);
    ASSERT_TRUE(cluster.run_until_settled(kFirst + kSecond));
    cluster.expect_agreement(kFirst + kSecond);
}

// -- one engine, two substrates ------------------------------------------------

using testutil::make_2b;
using testutil::make_value;
using testutil::wrap;

/// A PeerChannel without sockets: the test feeds received bodies through
/// the installed handler and reads back what the transport queued.
class MemoryChannel final : public PeerChannel {
public:
    MemoryChannel(ProcessId self, int size) : self_(self), size_(size) {}

    ProcessId self() const override { return self_; }
    int size() const override { return size_; }
    void set_body_handler(BodyFn fn) override { handler_ = std::move(fn); }
    void link(ProcessId) override {}
    bool peer_up(ProcessId) const override { return true; }
    bool send_body(ProcessId peer, std::span<const std::uint8_t>, bool) override {
        sent.push_back(peer);
        return true;
    }

    void receive(ProcessId from, const MessageBody& body) {
        const std::vector<std::uint8_t> bytes = wire::encode_body(body);
        handler_(from, bytes);
    }

    std::vector<ProcessId> sent;  ///< destination of every queued body

private:
    ProcessId self_;
    int size_;
    BodyFn handler_;
};

/// What a trace says about one step, minus the clock (the substrates'
/// clocks differ by construction).
using Step = std::tuple<trace::Stage, ProcessId, ProcessId, GossipMsgId, std::uint16_t>;

std::vector<Step> steps(const trace::Tracer& tracer) {
    std::vector<Step> out;
    for (const trace::Event& e : tracer.events()) {
        out.emplace_back(e.stage, e.node, e.peer, e.msg, e.hops);
    }
    return out;
}

struct Arrival {
    ProcessId from;
    std::shared_ptr<const GossipEnvelope> envelope;
};

GossipAppMessage flagged(GossipAppMessage msg) {
    msg.aggregated = true;
    return msg;
}

/// Envelopes arriving at node 0 (peers 1, 2, 3; quorum 3): a Phase 2a and
/// its duplicate, the instance's Decision, Phase 2b votes the filter then
/// rejects for peers that saw the Decision, an aggregate of two votes and
/// a duplicate of one of them, and a flagged Phase 2a no rule can unpack.
std::vector<Arrival> burst() {
    const Value v = make_value(4, 1);
    const GossipAppMessage p2a = wrap(std::make_shared<Phase2aMsg>(4, 1, 1, v));
    const auto envelope = [](GossipAppMessage m) {
        return std::make_shared<const GossipEnvelope>(std::move(m));
    };
    const GossipAppMessage agg = flagged(wrap(std::make_shared<Phase2bAggregateMsg>(
        2, 1, 1, v.id, v.digest(), std::vector<ProcessId>{3, 4}, 0)));
    return {
        {1, envelope(p2a)},
        {2, envelope(p2a)},
        {1, envelope(wrap(std::make_shared<DecisionMsg>(4, 1, v.id, v.digest())))},
        {1, envelope(wrap(make_2b(1, 1, 1, v)))},
        {2, envelope(agg)},
        {3, envelope(wrap(make_2b(3, 1, 1, v)))},
        {3, envelope(flagged(wrap(std::make_shared<Phase2aMsg>(4, 2, 1, v))))},
    };
}

TEST(OneEngine, SimulatorAndRuntimeAgreeOnCountersAndTraceStages) {
    const std::vector<ProcessId> peers{1, 2, 3};
    constexpr int kQuorum = 3;

    // Simulator: GossipNode on a Node, the burst queued as arrivals.
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 5, Network::Params{});
    for (const ProcessId p : peers) net.allow_link(0, p);
    PaxosSemantics sim_hooks(0, kQuorum, PaxosSemantics::Options{});
    GossipNode sim_node(net.node(0), peers, GossipNode::Params{}, sim_hooks);
    trace::Tracer sim_tracer;
    sim_node.set_tracer(&sim_tracer);
    for (const Arrival& a : burst()) net.node(0).arrival(NetMessage{a.from, 0, a.envelope});
    sim.run_until_idle();

    // Runtime: RealTransport over an in-memory channel, the burst encoded,
    // fed as received bytes, then the reactor drains the peer queues.
    Reactor reactor;
    MemoryChannel chan(0, 5);
    PaxosSemantics rt_hooks(0, kQuorum, PaxosSemantics::Options{});
    RealTransport::Params tp;
    tp.mode = RealTransport::Mode::Gossip;
    tp.neighbors = peers;
    RealTransport transport(reactor, chan, tp, rt_hooks);
    trace::Tracer rt_tracer;
    transport.set_tracer(&rt_tracer);
    for (const Arrival& a : burst()) chan.receive(a.from, *a.envelope);
    reactor.run_until([] { return false; }, SimTime::millis(5));

    const GossipNode::Counters& want = sim_node.counters();
    const GossipNode::Counters got = transport.counters();
    EXPECT_TRUE(got == want);
    EXPECT_EQ(got.envelopes_received, 7u);
    EXPECT_EQ(got.duplicates, 2u);
    EXPECT_EQ(got.bad_aggregates, 1u);
    EXPECT_GT(got.filtered, 0u);
    EXPECT_GT(got.aggregated_away, 0u);
    EXPECT_EQ(chan.sent.size(), got.envelopes_sent);
    EXPECT_EQ(steps(rt_tracer), steps(sim_tracer));

    std::set<trace::Stage> stages;
    for (const Step& s : steps(rt_tracer)) stages.insert(std::get<0>(s));
    EXPECT_EQ(stages, (std::set<trace::Stage>{
                          trace::Stage::Receive, trace::Stage::DuplicateDrop,
                          trace::Stage::Deliver, trace::Stage::Forward,
                          trace::Stage::FilterDrop, trace::Stage::Aggregate,
                          trace::Stage::AggregateBuilt, trace::Stage::Disaggregate}));
}

TEST(OneEngine, FlaggedEnvelopesTheHooksCannotUnpackAreDroppedAtReceipt) {
    const Value v = make_value(1, 1);
    // Feeds `bad` (flagged aggregated, but no rule of `hooks` unpacks them)
    // to a Gossip-mode transport. In an invariant build, reaching the
    // delivery path would abort the process.
    const auto run = [&](GossipHooks& hooks, const std::vector<GossipAppMessage>& bad) {
        Reactor reactor;
        MemoryChannel chan(0, 3);
        RealTransport::Params tp;
        tp.mode = RealTransport::Mode::Gossip;
        tp.neighbors = {1, 2};
        RealTransport transport(reactor, chan, tp, hooks);
        int delivered = 0;
        transport.set_deliver([&delivered](const PaxosMessagePtr&, CpuContext&) { ++delivered; });
        for (const GossipAppMessage& m : bad) chan.receive(1, GossipEnvelope{m});
        reactor.run_until([] { return false; }, SimTime::millis(5));
        const RealTransport::Counters c = transport.counters();
        EXPECT_EQ(c.envelopes_received, bad.size());
        EXPECT_EQ(c.bad_aggregates, bad.size());
        EXPECT_EQ(c.delivered, 0u);
        EXPECT_EQ(delivered, 0);
        EXPECT_TRUE(chan.sent.empty());
    };
    // Classic gossip has no aggregation rule at all: any flag is bogus.
    PassThroughHooks pass_through;
    run(pass_through, {flagged(wrap(make_2b(2, 1, 1, v))),
                       flagged(wrap(std::make_shared<Phase2aMsg>(2, 1, 1, v)))});
    // Semantic gossip unpacks aggregates and group batches only.
    PaxosSemantics semantics(0, 2, PaxosSemantics::Options{});
    run(semantics, {flagged(wrap(std::make_shared<Phase2aMsg>(2, 1, 1, v))),
                    flagged(wrap(make_2b(2, 1, 1, v)))});
}

TEST(OneEngine, MalformedAggregatesFromAPeerAreDecodeErrors) {
    // An aggregate whose vote set is empty or counts a sender twice used to
    // decode, reach PaxosSemantics::validate unflagged, and abort an
    // invariant build on G-AGG-2. The codec now rejects it at receipt.
    const Value v = make_value(4, 1);
    Reactor reactor;
    MemoryChannel chan(0, 5);
    PaxosSemantics hooks(0, 3, PaxosSemantics::Options{});
    RealTransport::Params tp;
    tp.mode = RealTransport::Mode::Gossip;
    tp.neighbors = {1, 2, 3};
    RealTransport transport(reactor, chan, tp, hooks);
    int delivered = 0;
    transport.set_deliver([&delivered](const PaxosMessagePtr&, CpuContext&) { ++delivered; });
    for (std::vector<ProcessId> senders : {std::vector<ProcessId>{}, {3, 3}, {1, 2, 1}}) {
        chan.receive(1, GossipEnvelope{wrap(std::make_shared<Phase2bAggregateMsg>(
                            2, 1, 1, v.id, v.digest(), std::move(senders), 0))});
    }
    reactor.run_until([] { return false; }, SimTime::millis(5));
    EXPECT_EQ(transport.counters().decode_errors, 3u);
    EXPECT_EQ(transport.counters().envelopes_received, 0u);
    EXPECT_EQ(delivered, 0);
    EXPECT_TRUE(chan.sent.empty());

    // The transport stays up: a well-formed vote is delivered and forwarded.
    chan.receive(1, GossipEnvelope{wrap(make_2b(1, 1, 1, v))});
    reactor.run_until([] { return false; }, SimTime::millis(5));
    EXPECT_EQ(delivered, 1);
    EXPECT_FALSE(chan.sent.empty());
}

// -- open_udp -----------------------------------------------------------------

TEST(OpenUdp, EphemeralBindsGetDistinctPorts) {
    constexpr int kSockets = 512;
    std::vector<int> fds;
    std::set<std::uint16_t> ports;
    for (int i = 0; i < kSockets; ++i) {
        std::string err;
        const int fd = open_udp("127.0.0.1", 0, &err);
        ASSERT_GE(fd, 0) << err;
        fds.push_back(fd);
        ports.insert(local_port(fd));
    }
    EXPECT_EQ(ports.size(), fds.size());
    for (const int fd : fds) close_fd(fd);
}

TEST(OpenUdp, HeldPortCannotBeBoundTwiceButFreesOnClose) {
    std::string err;
    const int fd = open_udp("127.0.0.1", 0, &err);
    ASSERT_GE(fd, 0) << err;
    const std::uint16_t port = local_port(fd);
    EXPECT_LT(open_udp("127.0.0.1", port, &err), 0) << "a held port was bound twice";
    close_fd(fd);
    // A restart rebinds its own address once the old socket is closed.
    const int again = open_udp("127.0.0.1", port, &err);
    EXPECT_GE(again, 0) << err;
    if (again >= 0) close_fd(again);
}

}  // namespace
}  // namespace gossipc::runtime
