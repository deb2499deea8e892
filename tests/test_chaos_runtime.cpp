// Runtime chaos bridge suite (DESIGN.md §13), registered under the
// chaos.runtime. ctest prefix: every FaultSchedule the simulator can replay
// is replayed here against the *real* runtime stack — one NodeStack per node
// (GatedTransport facade over UdpLink + RealTransport), datagrams through the
// deterministic lossy-link harness, faults driven from the reactor's timer
// queue by ChaosBridge.
//
// The headline assertions mirror the simulator chaos suite's: a seeded
// light/moderate/heavy/heavy-failover sweep across all three setups must
// keep P-AGR-1 (gap-free, identical learner logs on every live node) over
// real datagrams, the permanent-coordinator-crash profile must leave zero
// live-client values permanently unordered, and replaying the same
// (profile, seed) must produce a byte-identical injected-fault log. On top
// of that: crash-gap re-baseline over real datagrams (suspect -> restore on
// a plain restart, takeover + relearn on a wiped coordinator restart), a
// crash/restart-only schedule over the real TCP loopback stack, and the
// metrics-registry names the runtime fault-pressure report publishes.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/datagram_faults.hpp"
#include "fault/fault_schedule.hpp"
#include "node_cluster.hpp"
#include "runtime/runtime_metrics.hpp"
#include "stats/registry.hpp"

namespace gossipc::runtime {
namespace {

const char* setup_label(Setup s) {
    switch (s) {
        case Setup::Baseline: return "baseline";
        case Setup::Gossip: return "gossip";
        case Setup::SemanticGossip: return "semantic";
    }
    return "?";
}

ChaosProfile profile_by_name(const std::string& name) {
    if (name == "light") return ChaosProfile::light();
    if (name == "moderate") return ChaosProfile::moderate();
    if (name == "heavy") return ChaosProfile::heavy();
    if (name == "heavy_failover") return ChaosProfile::heavy_failover();
    ADD_FAILURE() << "unknown profile " << name;
    return ChaosProfile::moderate();
}

// -- the seeded sweep ---------------------------------------------------------

struct SweepEnv {
    Setup setup;
    const char* profile;
};

struct SweepOutcome {
    std::string fault_log;
    std::uint64_t applied = 0;
};

/// One full chaos run: submissions staggered through the fault window,
/// agreement asserted over every live node once the schedule resolves.
SweepOutcome run_sweep_once(const SweepEnv& env, std::uint64_t seed, int total) {
    const ChaosProfile profile = profile_by_name(env.profile);
    // heavy_failover loses the coordinator's storage for good on top of the
    // heavy wipe slots; 13 processes (the simulator's failover corpus size)
    // keeps total storage loss below a quorum — the envelope any consensus
    // protocol needs. The other profiles run the small cluster.
    const int n = profile.permanent_coordinator_crash ? 13 : 5;
    NodeCluster cluster({.setup = env.setup, .n = n, .seed = seed, .failover = true,
                         .schedule = NodeCluster::chaos_schedule(n, env.setup, profile, seed)});
    cluster.start();
    // heavy_failover kills process 0 for good: only live clients submit.
    const int first_owner = profile.permanent_coordinator_crash ? 1 : 0;
    cluster.submit(total, profile.start + profile.horizon, first_owner);
    const bool settled = cluster.run_until_settled(total);
    if (!settled) cluster.dump_state();
    EXPECT_TRUE(settled) << setup_label(env.setup) << "/" << env.profile
                         << " did not settle; fault log so far:\n"
                         << cluster.bridge().rendered_log();
    cluster.expect_agreement(total);
    if (profile.permanent_coordinator_crash) {
        EXPECT_FALSE(cluster.stack(0).up()) << "coordinator restarted unexpectedly";
        EXPECT_TRUE(cluster.saw_failover_event(FailoverEvent::Suspect, 0));
        EXPECT_GE(cluster.total_takeovers(), 1u);
    }
    SweepOutcome out;
    out.fault_log = cluster.bridge().rendered_log();
    out.applied = cluster.bridge().counters().applied;
    return out;
}

class RuntimeChaosSweep : public ::testing::TestWithParam<SweepEnv> {};

// The acceptance sweep: each (setup, profile) cell runs twice with the same
// seed over the real UDP stack; both runs must keep agreement and produce
// byte-identical injected-fault logs.
TEST_P(RuntimeChaosSweep, AgreesAndReplaysByteIdentically) {
    const SweepEnv env = GetParam();
    constexpr int kValues = 24;
    constexpr std::uint64_t kSeed = 101;
    const SweepOutcome a = run_sweep_once(env, kSeed, kValues);
    EXPECT_GT(a.applied, 0u) << "schedule never fired";
    EXPECT_FALSE(a.fault_log.empty());
    const SweepOutcome b = run_sweep_once(env, kSeed, kValues);
    EXPECT_EQ(a.fault_log, b.fault_log)
        << "injected-fault log is not a pure function of (profile, seed)";
}

std::vector<SweepEnv> sweep_envs() {
    std::vector<SweepEnv> envs;
    for (const Setup setup : {Setup::Baseline, Setup::Gossip, Setup::SemanticGossip}) {
        for (const char* profile :
             {"light", "moderate", "heavy", "heavy_failover"}) {
            envs.push_back(SweepEnv{setup, profile});
        }
    }
    return envs;
}

INSTANTIATE_TEST_SUITE_P(Profiles, RuntimeChaosSweep, ::testing::ValuesIn(sweep_envs()),
                         [](const ::testing::TestParamInfo<SweepEnv>& info) {
                             return std::string(setup_label(info.param.setup)) + "_" +
                                    info.param.profile;
                         });

// -- crash-gap re-baseline over real datagrams --------------------------------

// A follower crashes for well past suspect_after and restarts without a
// wipe. Observers must suspect it while it is down and restore it on the
// first datagram after restart; the restarted node's own detector must
// re-baseline across the gap (its sweep chain ticked into the void while
// crashed) instead of spuriously suspecting the whole cluster, so no
// takeover ever fires.
TEST(RuntimeChaosCrashGap, RestartWithoutWipeIsSuspectedThenRestored) {
    constexpr int kValues = 20;
    FaultSchedule schedule;
    schedule.crash(SimTime::millis(600), 2);
    schedule.restart(SimTime::millis(1800), 2);
    NodeCluster cluster({.setup = Setup::Baseline, .n = 5, .seed = 7, .failover = true,
                         .schedule = std::move(schedule)});
    cluster.start();
    cluster.submit(kValues, SimTime::millis(2200));
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(60)))
        << "cluster did not settle";
    cluster.expect_agreement(kValues);

    EXPECT_TRUE(cluster.saw_failover_event(FailoverEvent::Suspect, 2));
    EXPECT_TRUE(cluster.saw_failover_event(FailoverEvent::Restore, 2));
    EXPECT_EQ(cluster.total_takeovers(), 0u) << "follower crash must not move rounds";
    // The re-baseline: node 2 swallowed ~1.2s of sweep ticks while crashed,
    // far past suspect_after, yet on restart it suspects nobody.
    EXPECT_EQ(cluster.process(2).failure_detector()->counters().suspicions, 0u);
    for (int i = 0; i < cluster.size(); ++i) {
        EXPECT_EQ(cluster.process(i).believed_coordinator(), 0) << "node " << i;
    }
}

// The coordinator crashes losing durable state and restarts later. While it
// is down rank-based succession moves coordination to process 1 over real
// datagrams (UdpLink heard-based presence feeds the detector); the wiped
// restart rejoins as a blank replica, relearns every decision through gap
// repair, and must not fire its own spurious suspicions on the way back.
TEST(RuntimeChaosCrashGap, WipedCoordinatorRestartTakesOverAndRelearns) {
    constexpr int kValues = 20;
    FaultSchedule schedule;
    schedule.crash(SimTime::millis(600), 0, /*wipe_state=*/true);
    schedule.restart(SimTime::millis(2400), 0);
    NodeCluster cluster({.setup = Setup::Gossip, .n = 5, .seed = 9, .failover = true,
                         .schedule = std::move(schedule)});
    cluster.start();
    cluster.submit(kValues, SimTime::millis(2800), /*first_owner=*/1);
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(60)))
        << "cluster did not settle";
    cluster.expect_agreement(kValues);

    EXPECT_TRUE(cluster.saw_failover_event(FailoverEvent::Suspect, 0));
    EXPECT_GE(cluster.total_takeovers(), 1u) << "succession never fired";
    // The wiped node relearned the full decision log (checked by
    // expect_agreement) without suspecting anyone across its crash gap.
    EXPECT_EQ(cluster.process(0).failure_detector()->counters().suspicions, 0u);
    EXPECT_EQ(cluster.bridge().counters().wipes, 1u);
}

// -- TCP loopback lane --------------------------------------------------------

// A crash/restart-only schedule (the fates TCP can express) over real
// loopback sockets: a follower bounce plus a coordinator bounce must leave
// the full decision log intact on every node, and the bridge's log must
// match the schedule's own rendering line for line (nothing skipped).
TEST(RuntimeChaosTcp, CrashRestartScheduleKeepsAgreementOverTcp) {
    constexpr int kValues = 20;
    FaultSchedule schedule;
    schedule.crash(SimTime::millis(400), 2);
    schedule.restart(SimTime::millis(1200), 2);
    schedule.crash(SimTime::millis(1600), 0);
    schedule.restart(SimTime::millis(2600), 0);
    const std::string expected_log = schedule.describe();
    NodeCluster cluster({.setup = Setup::Gossip, .n = 5, .tcp = true, .failover = true,
                         .schedule = std::move(schedule)});
    cluster.start();
    cluster.submit(kValues, SimTime::millis(3000));
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(60)))
        << "tcp lane did not settle";
    cluster.expect_agreement(kValues);
    EXPECT_EQ(cluster.bridge().counters().applied, 4u);
    EXPECT_EQ(cluster.bridge().counters().skipped, 0u);
    EXPECT_EQ(cluster.bridge().rendered_log(), expected_log);
}

// -- runtime fault-pressure metrics -------------------------------------------

// The unified registry names the runtime publishes (gclint's metrics-hygiene
// rule requires every registered literal to be pinned by a test). A lossy
// three-node exchange with a failure detector populates every family a UDP
// node reports, plus the harness's and the bridge's counters.
TEST(RuntimeMetrics, FaultPressureLandsInUnifiedRegistry) {
    constexpr int kValues = 10;
    fault::DatagramFaultSpec spec;
    spec.loss = 0.20;
    spec.duplicate = 0.10;
    // No schedule: this test is about the report.
    NodeCluster cluster({.setup = Setup::Baseline, .n = 3, .seed = 5, .faults = spec,
                         .failover = true});
    cluster.start();
    cluster.submit(kValues, SimTime::millis(200));
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(60)));

    MetricsRegistry reg = cluster.metrics(0);
    fill_metrics(reg, cluster.net());
    fill_metrics(reg, cluster.bridge().counters());

    std::set<std::string> names;
    for (const auto& sample : reg.snapshot()) names.insert(sample.name);
    const std::vector<std::string> expected = {
        "udp.link.datagrams_sent",
        "udp.link.datagrams_received",
        "udp.link.bytes_sent",
        "udp.link.bytes_received",
        "udp.link.bodies_sent",
        "udp.link.bodies_received",
        "udp.link.acks_only_sent",
        "udp.link.jumbo_datagrams",
        "udp.link.retransmits",
        "udp.link.fast_retransmits",
        "udp.link.reliable_acked",
        "udp.link.reliable_dropped",
        "udp.link.duplicate_datagrams",
        "udp.link.stale_datagrams",
        "udp.link.duplicate_reliables",
        "udp.link.decode_errors",
        "udp.link.send_failures",
        "udp.link.epoch_resets",
        "udp.link.seq_history_evictions",
        "udp.peer.1.heard",
        "udp.peer.1.unacked",
        "udp.peer.1.max_rto_ms",
        "lossynet.sent",
        "lossynet.delivered",
        "lossynet.dropped",
        "lossynet.duplicated",
        "lossynet.reordered",
        "lossynet.truncated",
        // The simulator's names for the detector's counters.
        "failover.heartbeats_sent",
        "failover.heartbeats_suppressed",
        "failover.suspicions",
        "failover.restores",
        "detector.suspect.1.now",
        // The node's protocol state and runtime-only layers.
        "learner.frontier",
        "learner.delivered",
        "paxos.messages_handled",
        "failover.takeovers",
        "gossip.envelopes_received",
        "transport.decode_errors",
        "transport.bad_aggregates",
        "gate.dropped_sends",
        "gate.dropped_tasks",
        "gate.attaches",
        "chaos.applied",
        "chaos.skipped",
        "chaos.crashes",
        "chaos.restarts",
        "chaos.wipes",
        "chaos.partitions",
        "chaos.heals",
        "chaos.link_faults",
        "chaos.link_fault_ends",
        "chaos.edges_dropped",
        "chaos.edges_added",
    };
    for (const std::string& name : expected) {
        EXPECT_TRUE(names.count(name)) << "missing metric " << name;
    }
    // The lossy profile actually exercised the counters being reported.
    EXPECT_GT(reg.counter("lossynet.dropped").value, 0u);
    EXPECT_GT(reg.counter("udp.link.datagrams_sent").value, 0u);
    EXPECT_EQ(reg.counter("learner.frontier").value, static_cast<std::uint64_t>(kValues) + 1);
    EXPECT_EQ(reg.counter("gate.attaches").value, 1u);
}

}  // namespace
}  // namespace gossipc::runtime
