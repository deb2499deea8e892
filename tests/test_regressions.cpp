// Regression tests for protocol bugs found during development — each one
// encodes a scenario that once failed.
#include <gtest/gtest.h>

#include <string>

#include "core/semantic_gossip.hpp"
#include "fault/datagram_faults.hpp"
#include "runtime/chaos_bridge.hpp"
#include "runtime/reactor.hpp"
#include "test_util.hpp"

namespace gossipc {
namespace {

using testutil::make_value;

// Bug 1: the learner's decided-listener only fired if the value payload was
// already cached; when the quorum of Phase 2b outran the Phase 2a (common
// over gossip), the coordinator never saw its proposal decided — leaving it
// retransmitting forever.
TEST(Regression, DecidedListenerFiresWhenPayloadArrivesLate) {
    Learner learner(2);
    std::vector<InstanceId> decided;
    CpuContext ctx{SimTime::zero()};
    learner.set_decided_listener(
        [&](InstanceId i, const Value&, bool, CpuContext&) { decided.push_back(i); });
    const Value v = make_value(0, 1);
    // Quorum of 2b arrives before the 2a carrying the value.
    learner.on_phase2b(Phase2bMsg{0, 1, 1, v.id, v.digest()}, ctx);
    learner.on_phase2b(Phase2bMsg{1, 1, 1, v.id, v.digest()}, ctx);
    EXPECT_TRUE(decided.empty());  // decided, but payload unknown
    EXPECT_TRUE(learner.knows_decision(1));
    learner.on_phase2a(Phase2aMsg{0, 1, 1, v}, ctx);  // payload lands late
    ASSERT_EQ(decided.size(), 1u);
    EXPECT_EQ(decided[0], 1);
    EXPECT_EQ(learner.frontier(), 2);  // and delivery proceeded
}

TEST(Regression, DecidedListenerFiresOnlyOnce) {
    Learner learner(2);
    int fired = 0;
    CpuContext ctx{SimTime::zero()};
    learner.set_decided_listener([&](InstanceId, const Value&, bool, CpuContext&) { ++fired; });
    const Value v = make_value(0, 1);
    learner.on_phase2b(Phase2bMsg{0, 1, 1, v.id, v.digest()}, ctx);
    learner.on_phase2b(Phase2bMsg{1, 1, 1, v.id, v.digest()}, ctx);
    learner.on_phase2a(Phase2aMsg{0, 1, 1, v}, ctx);
    learner.on_phase2a(Phase2aMsg{0, 1, 1, v}, ctx);  // retransmitted 2a
    learner.on_decision(DecisionMsg{0, 1, v.id, v.digest(), v}, ctx);
    EXPECT_EQ(fired, 1);
}

// Bug 2: complete_phase1 skipped reported-but-already-decided instances
// WITHOUT advancing the proposal cursor, so a new coordinator proposed fresh
// values into decided instances; those proposals could never be decided with
// their values and were stuck (retransmitting) forever.
TEST(Regression, NewCoordinatorSkipsDecidedInstances) {
    Simulator sim;
    testutil::FakeTransport transport(sim, 1);
    PaxosConfig pc;
    pc.n = 5;
    pc.id = 1;
    pc.coordinator = 1;
    pc.timeouts_enabled = false;
    Learner learner(pc.quorum());
    Coordinator coordinator(pc, transport, learner);
    CpuContext ctx{SimTime::zero()};

    // The learner already knows instances 1..3 decided (via quorums).
    for (InstanceId i = 1; i <= 3; ++i) {
        const Value v = make_value(7, i);
        learner.on_phase2a(Phase2aMsg{0, i, 1, v}, ctx);
        for (ProcessId s = 0; s < 3; ++s) {
            learner.on_phase2b(Phase2bMsg{s, i, 1, v.id, v.digest()}, ctx);
        }
    }
    coordinator.start(ctx);
    // Acceptors report instances 1..3 as accepted in round 1 (already
    // decided locally) and nothing else.
    std::vector<AcceptedEntry> accepted;
    for (InstanceId i = 1; i <= 3; ++i) accepted.push_back({i, 1, make_value(7, i)});
    coordinator.on_phase1b(Phase1bMsg{0, coordinator.round(), 1, accepted}, ctx);
    coordinator.on_phase1b(Phase1bMsg{2, coordinator.round(), 1, accepted}, ctx);
    coordinator.on_phase1b(Phase1bMsg{3, coordinator.round(), 1, accepted}, ctx);
    ASSERT_TRUE(coordinator.phase1_complete());
    EXPECT_EQ(coordinator.counters().reproposals, 0u);  // all already decided

    // A fresh client value must land beyond the decided prefix.
    coordinator.on_client_value(make_value(9, 1), ctx);
    const auto p2a = transport.sent_of(PaxosMsgType::Phase2a);
    ASSERT_EQ(p2a.size(), 1u);
    EXPECT_GE(static_cast<const Phase2aMsg&>(*p2a[0]).instance(), 4);
}

// Bug 2b: when a proposal loses its instance to a value chosen in a lower
// round, the value must be re-proposed in a fresh instance, not dropped.
TEST(Regression, BeatenProposalIsReproposed) {
    Simulator sim;
    testutil::FakeTransport transport(sim, 0);
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 0;
    pc.timeouts_enabled = false;
    Learner learner(pc.quorum());
    Coordinator coordinator(pc, transport, learner);
    learner.set_decided_listener(
        [&](InstanceId i, const Value& v, bool q, CpuContext& c) {
            coordinator.on_decided(i, v, q, c);
        });
    CpuContext ctx{SimTime::zero()};
    coordinator.start(ctx);
    coordinator.on_phase1b(Phase1bMsg{0, coordinator.round(), 1, {}}, ctx);
    coordinator.on_phase1b(Phase1bMsg{1, coordinator.round(), 1, {}}, ctx);
    const Value mine = make_value(5, 1);
    coordinator.on_client_value(mine, ctx);  // proposed at instance 1

    // Instance 1 turns out decided with a different value (older round).
    const Value other = make_value(6, 1);
    learner.on_phase2a(Phase2aMsg{2, 1, 0, other}, ctx);
    learner.on_decision(DecisionMsg{2, 1, other.id, other.digest()}, ctx);

    // Our value must have been re-proposed at instance 2.
    const auto p2a = transport.sent_of(PaxosMsgType::Phase2a);
    ASSERT_EQ(p2a.size(), 2u);
    const auto& m = static_cast<const Phase2aMsg&>(*p2a[1]);
    EXPECT_EQ(m.instance(), 2);
    EXPECT_EQ(m.value(), mine);
}

// Bug 3: acceptor state must NOT be garbage-collected below the local
// delivery frontier — a later Phase 1 has to see those accepted values or a
// new coordinator can write different values into decided instances. Guard
// the invariant at the system level: after a full run, every acceptor still
// reports its accepted values from instance 1 on.
TEST(Regression, AcceptedStateRetainedForPhase1) {
    ExperimentConfig cfg;
    cfg.setup = Setup::Gossip;
    cfg.n = 7;
    cfg.total_rate = 26.0;
    cfg.warmup = SimTime::seconds(0.25);
    cfg.measure = SimTime::seconds(1);
    cfg.drain = SimTime::seconds(1.5);
    Deployment d(cfg);
    d.run();
    const auto frontier = d.process(1).learner().frontier();
    ASSERT_GT(frontier, 5);
    const auto report = d.process(1).acceptor().on_phase1a(999, 1);
    ASSERT_TRUE(report.promised);
    // Every decided instance is still covered by accepted state.
    std::set<InstanceId> reported;
    for (const auto& e : report.accepted) reported.insert(e.instance);
    for (InstanceId i = 1; i < frontier; ++i) {
        EXPECT_TRUE(reported.contains(i)) << "instance " << i << " GC'd too early";
    }
}

// Chaos seed-replay corpus: byte-exact pins of generated schedules and an
// injected-fault log. These strings ARE the replay contract — archived chaos
// runs are reproduced from (seed, profile), so a change that alters them
// silently invalidates every pinned seed. Deliberate generator changes must
// update the corpus (and accept that old seeds no longer replay).
TEST(Regression, ChaosCorpusLightProfileSeed1) {
    const Graph overlay = make_connected_overlay(7, 42);
    const auto s = generate_chaos(7, 0, ChaosProfile::light(), 1, &overlay);
    EXPECT_EQ(s.describe(),
              "268346351 crash p4 preserve\n"
              "516939933 restart p4\n"
              "663965334 churn-drop 4-6\n"
              "811552381 partition {6}\n"
              "1018163822 churn-add 4-6\n"
              "1065652768 link-fault 0->6 loss=0.139436 delay_ns=184601 dup=0.0628049"
              " reorder_ns=491612\n"
              "1225669766 heal\n"
              "1333708675 link-fault-end 0->6\n"
              "1456495703 churn-add 3-1\n"
              "1987368994 churn-drop 3-1\n");
}

TEST(Regression, ChaosCorpusModerateProfileSeed2NoOverlay) {
    const auto s = generate_chaos(7, 0, ChaosProfile::moderate(), 2, nullptr);
    EXPECT_EQ(s.describe(),
              "306956950 link-fault 0->6 loss=0.385706 delay_ns=13122451 dup=0.1892"
              " reorder_ns=1430969\n"
              "533915043 crash p4 preserve\n"
              "715766989 link-fault 0->4 loss=0.248772 delay_ns=8100275 dup=0.209013"
              " reorder_ns=3505052\n"
              "777484571 restart p4\n"
              "861498261 partition {1,2,6}\n"
              "1098409671 link-fault-end 0->4\n"
              "1190694498 link-fault-end 0->6\n"
              "1377631109 heal\n"
              "1425573231 link-fault 5->0 loss=0.126239 delay_ns=321830 dup=0.0801682"
              " reorder_ns=3740916\n"
              "1671101057 crash p3 preserve\n"
              "1864883261 link-fault-end 5->0\n"
              "2094832810 restart p3\n");
}

// The heavy-failover profile pins the permanent coordinator crash at the
// configured fraction of the horizon (here 750ms, no restart) and must
// never RNG-redirect a randomly drawn crash onto the coordinator.
TEST(Regression, ChaosCorpusHeavyFailoverProfileSeed7) {
    const auto s = generate_chaos(7, 0, ChaosProfile::heavy_failover(), 7, nullptr);
    EXPECT_EQ(s.describe(),
              "321213166 partition {3}\n"
              "357821707 link-fault 0->4 loss=0.039594 delay_ns=8279863 dup=0.289288"
              " reorder_ns=4087949\n"
              "469722493 crash p5 wipe\n"
              "650749399 restart p5\n"
              "744357172 link-fault 0->3 loss=0.303353 delay_ns=17834699 dup=0.275408"
              " reorder_ns=4400415\n"
              "750000000 crash p0 preserve\n"
              "802103713 crash p1 wipe\n"
              "1017806467 link-fault 0->4 loss=0.543506 delay_ns=12876424 dup=0.206731"
              " reorder_ns=6522274\n"
              "1068666338 heal\n"
              "1120332734 restart p1\n"
              "1122954782 link-fault-end 0->4\n"
              "1136295287 link-fault 0->6 loss=0.192585 delay_ns=28311525 dup=0.402059"
              " reorder_ns=2245854\n"
              "1439082456 crash p6 preserve\n"
              "1439225057 link-fault 4->0 loss=0.363423 delay_ns=9786251 dup=0.125252"
              " reorder_ns=5059612\n"
              "1569077820 partition {5}\n"
              "1576805216 link-fault-end 0->3\n"
              "1646118895 link-fault 0->2 loss=0.248162 delay_ns=8708626 dup=0.309825"
              " reorder_ns=2555223\n"
              "1669103021 link-fault-end 0->6\n"
              "1744891925 restart p6\n"
              "1790161396 crash p1 preserve\n"
              "1902252436 link-fault-end 0->4\n"
              "1975144894 link-fault-end 0->2\n"
              "2161064015 restart p1\n"
              "2183727618 heal\n"
              "2207374266 link-fault-end 4->0\n");
}

TEST(Regression, ChaosCorpusInjectedFaultLogIsPinned) {
    ExperimentConfig cfg;
    cfg.setup = Setup::Baseline;
    cfg.n = 5;
    cfg.faults.crash(SimTime::millis(10), 2, /*wipe_state=*/true);
    cfg.faults.restart(SimTime::millis(20), 2);
    cfg.faults.restart(SimTime::millis(25), 3);  // never crashed -> skip
    cfg.faults.partition(SimTime::millis(30), {1});
    cfg.faults.heal(SimTime::millis(40));
    cfg.faults.churn_drop(SimTime::millis(45), 0, 1);  // no overlay -> skip
    Deployment d(cfg);
    d.start_processes();
    d.simulator().run_until(SimTime::millis(50));
    EXPECT_EQ(d.fault_injector()->rendered_log(),
              "10000000 crash p2 wipe\n"
              "20000000 restart p2\n"
              "25000000 restart p3 [skipped: not crashed]\n"
              "30000000 partition {1}\n"
              "40000000 heal\n"
              "45000000 churn-drop 0-1 [skipped: no overlay]\n");
}

// Chaos corpus for both substrates: the injected-fault log of the
// acceptance sweep's failover cell (13 processes, heavy_failover, seed 101).
// One FaultInjector decides every line on either substrate. Lines are
// stamped with scheduled — not wall-clock — time and every skip decision is
// a pure function of the schedule and overlay, so the runtime bridge's log
// is byte-identical no matter how the real reactor's clock jitters, and a
// simulator Deployment fed the same schedule renders the same string. Stub
// hooks stand in for the socket stack: the log does not depend on what the
// hooks do, only on their presence.
TEST(Regression, RuntimeChaosBridgeHeavyFailoverLogSeed101) {
    Graph overlay = make_connected_overlay(13, 42);
    const auto schedule =
        generate_chaos(13, 0, ChaosProfile::heavy_failover(), 101, &overlay);
    runtime::Reactor reactor;
    runtime::ChaosBridge::Hooks hooks;
    hooks.crash_node = [](ProcessId) {};
    hooks.restart_node = [](ProcessId, bool) {};
    hooks.set_link = [](ProcessId, ProcessId, const fault::DatagramFaultSpec&) {};
    hooks.clear_link = [](ProcessId, ProcessId) {};
    hooks.overlay = &overlay;
    hooks.drop_edge = [](ProcessId, ProcessId) {};
    hooks.add_edge = [](ProcessId, ProcessId) {};
    runtime::ChaosBridge bridge(reactor, 13, schedule, std::move(hooks));
    bridge.arm();
    // The reactor is a real poll(2) loop: this replays the full 2.25s chaos
    // window in wall time.
    ASSERT_TRUE(reactor.run_until([&] { return bridge.done(); }, SimTime::seconds(10)));
    EXPECT_EQ(
        bridge.rendered_log(),
        "276017468 crash p10 preserve\n"
        "455060853 churn-add 10-3 [skipped: edge present]\n"
        "624292204 restart p10\n"
        "688386035 partition {2}\n"
        "723246100 link-fault 3->10 loss=0.344157 delay_ns=48132071 dup=0.164365"
        " reorder_ns=2659554\n"
        "750000000 crash p0 preserve\n"
        "752341103 crash p3 wipe\n"
        "771586070 link-fault 5->1 loss=0.127676 delay_ns=46771387 dup=0.0556903"
        " reorder_ns=3809206\n"
        "853506343 link-fault 8->10 loss=0.237741 delay_ns=53939245 dup=0.26079"
        " reorder_ns=90930\n"
        "865600507 link-fault 0->6 loss=0.1572 delay_ns=1720501 dup=0.34539"
        " reorder_ns=3832460\n"
        "870963769 link-fault 0->9 loss=0.464641 delay_ns=42651949 dup=0.089446"
        " reorder_ns=233299\n"
        "897774358 heal\n"
        "1012239495 link-fault 12->11 loss=0.586401 delay_ns=13851323 dup=0.344049"
        " reorder_ns=2906935\n"
        "1024965037 churn-drop 10-3\n"
        "1054222312 link-fault-end 8->10\n"
        "1100835519 churn-add 5-10\n"
        "1165265712 link-fault-end 3->10\n"
        "1199207619 churn-drop 0-11\n"
        "1232287361 restart p3\n"
        "1250237594 link-fault-end 5->1\n"
        "1290189220 churn-add 7-9\n"
        "1321154557 churn-drop 0-5\n"
        "1377909505 crash p12 wipe\n"
        "1389076940 churn-drop 9-12\n"
        "1462484874 link-fault-end 0->6\n"
        "1534965331 partition {9}\n"
        "1622101113 churn-add 0-5\n"
        "1631429977 link-fault-end 0->9\n"
        "1661150994 churn-drop 5-10\n"
        "1698927436 restart p12\n"
        "1731007362 churn-add 0-11\n"
        "1855365770 crash p7 preserve\n"
        "1865670231 churn-drop 7-9\n"
        "1887623774 link-fault-end 12->11\n"
        "1893351455 heal\n"
        "1939445214 churn-drop 2-8\n"
        "1947577853 churn-add 0-4\n"
        "1974100479 churn-add 9-12\n"
        "2016736543 restart p7\n"
        "2250000000 churn-add 2-8\n"
        "2250000000 churn-drop 0-4\n");

    // The simulator, on its own copy of the default overlay (seed 42).
    ExperimentConfig cfg;
    cfg.setup = Setup::Gossip;
    cfg.n = 13;
    cfg.failover = true;
    cfg.faults = schedule;
    Deployment d(cfg);
    d.start_processes();
    d.simulator().run_until(SimTime::millis(2300));
    ASSERT_TRUE(d.fault_injector()->done());
    EXPECT_EQ(d.fault_injector()->rendered_log(), bridge.rendered_log());
}

// UDP datagram-fate corpus: the same replay contract for the lossy-link
// harness (DESIGN.md §12). A datagram's fate is a pure function of
// (seed, from, to, per-link seq) — LossyDatagramNetwork::fault_log() lines
// are exactly these describe() strings, so pinning the model pins every
// archived chaos.udp seed. Deliberate fate-model changes must update this
// corpus and accept that old seeds no longer replay.
TEST(Regression, UdpDatagramFateCorpusSeed99) {
    fault::DatagramFaultSpec spec;
    spec.loss = 0.25;
    spec.duplicate = 0.15;
    spec.reorder_window = SimTime::millis(1);
    spec.truncate = 0.20;
    const fault::DatagramFaultModel model(99);

    std::string out;
    const int links[3][2] = {{0, 1}, {1, 0}, {0, 2}};
    for (const auto& link : links) {
        for (std::uint64_t seq = 1; seq <= 8; ++seq) {
            const auto fate = model.decide(spec, link[0], link[1], seq);
            const std::string line =
                fault::DatagramFaultModel::describe(link[0], link[1], seq, fate);
            if (!line.empty()) {
                out += line;
                out += '\n';
            }
        }
    }
    EXPECT_EQ(out,
              "0->1 seq=1 drop\n"
              "0->1 seq=2 delay_ns=935641 dup_delay_ns=862870\n"
              "0->1 seq=3 drop\n"
              "0->1 seq=4 delay_ns=907791 dup_delay_ns=150876\n"
              "0->1 seq=5 delay_ns=96297 dup_delay_ns=355882\n"
              "0->1 seq=6 delay_ns=464602\n"
              "0->1 seq=7 delay_ns=732274\n"
              "0->1 seq=8 delay_ns=962238\n"
              "1->0 seq=1 delay_ns=354763\n"
              "1->0 seq=2 delay_ns=860115 trunc_keep=0.708014\n"
              "1->0 seq=3 delay_ns=952554\n"
              "1->0 seq=4 delay_ns=348362\n"
              "1->0 seq=5 drop\n"
              "1->0 seq=6 drop\n"
              "1->0 seq=7 delay_ns=85424\n"
              "1->0 seq=8 drop\n"
              "0->2 seq=1 drop\n"
              "0->2 seq=2 delay_ns=875700\n"
              "0->2 seq=3 delay_ns=582436\n"
              "0->2 seq=4 delay_ns=455465\n"
              "0->2 seq=5 drop\n"
              "0->2 seq=6 delay_ns=23851\n"
              "0->2 seq=7 delay_ns=36692 trunc_keep=0.691527\n"
              "0->2 seq=8 drop\n");

    // Fates are stateless: querying out of order, or from a fresh model with
    // the same seed, reproduces the exact same line.
    const fault::DatagramFaultModel replay(99);
    EXPECT_EQ(fault::DatagramFaultModel::describe(0, 1, 3, replay.decide(spec, 0, 1, 3)),
              "0->1 seq=3 drop");

    // A disabled spec never harms a datagram, whatever the seed says.
    const auto clean = replay.decide(fault::DatagramFaultSpec{}, 0, 1, 3);
    EXPECT_TRUE(clean.clean());
}

}  // namespace
}  // namespace gossipc
