// Runtime chaos bridge suite (DESIGN.md §13), registered under the
// chaos.runtime. ctest prefix: every FaultSchedule the simulator can replay
// is replayed here against the *real* runtime stack — GatedTransport facades
// over UdpLink + RealTransport, datagrams through the deterministic
// lossy-link harness, faults driven from the reactor's timer queue by
// ChaosBridge.
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
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "detect/failure_detector.hpp"
#include "fault/chaos.hpp"
#include "fault/datagram_faults.hpp"
#include "fault/fault_schedule.hpp"
#include "gossip/hooks.hpp"
#include "overlay/random_overlay.hpp"
#include "paxos/process.hpp"
#include "runtime/chaos_bridge.hpp"
#include "runtime/conn_manager.hpp"
#include "runtime/gated_transport.hpp"
#include "runtime/lossy_link.hpp"
#include "runtime/real_transport.hpp"
#include "runtime/runtime_metrics.hpp"
#include "runtime/tcp.hpp"
#include "runtime/udp_link.hpp"
#include "semantic/paxos_semantics.hpp"
#include "stats/registry.hpp"

namespace gossipc::runtime {
namespace {

enum class Setup { Baseline, Gossip, Semantic };

const char* setup_name(Setup s) {
    switch (s) {
        case Setup::Baseline: return "baseline";
        case Setup::Gossip: return "gossip";
        case Setup::Semantic: return "semantic";
    }
    return "?";
}

/// Fast link parameters (mirroring the chaos.udp. suite) plus the node's
/// current link incarnation, bumped on every restart.
UdpLink::Params chaos_link_params(std::uint8_t epoch) {
    UdpLink::Params p;
    p.ack_delay = SimTime::millis(2);
    p.rto_initial = SimTime::millis(15);
    p.rto_sweep = SimTime::millis(5);
    p.keepalive = SimTime::millis(50);
    p.epoch = epoch;
    return p;
}

struct FailoverRecord {
    FailoverEvent event;
    ProcessId subject;
};

/// One cluster member. The GatedTransport facade and the PaxosProcess are
/// stable for the whole run; the socket stack underneath (UdpLink +
/// RealTransport) is destroyed on crash and rebuilt on restart with a
/// bumped link epoch, exactly what a real process restart does.
struct ChaosNode {
    std::unique_ptr<GatedTransport> gate;
    PassThroughHooks pass_through;
    std::unique_ptr<PaxosSemantics> semantics;
    std::unique_ptr<UdpLink> link;                ///< UDP lane
    std::unique_ptr<ConnectionManager> conns;     ///< TCP lane
    std::unique_ptr<RealTransport> transport;
    std::unique_ptr<PaxosProcess> proc;
    std::vector<FailoverRecord> failover_events;
    std::uint8_t epoch = 0;
    bool down = false;
};

/// In-process real-runtime cluster driven by a ChaosBridge: the runtime twin
/// of the simulator's Deployment + FaultInjector.
class RuntimeChaosCluster {
public:
    RuntimeChaosCluster(int n, Setup setup, std::uint64_t seed, FaultSchedule schedule)
        : n_(n),
          setup_(setup),
          net_(reactor_, n, seed),
          overlay_(make_connected_overlay(n, kOverlaySeed)) {
        for (int i = 0; i < n; ++i) {
            auto node = std::make_unique<ChaosNode>();
            node->gate = std::make_unique<GatedTransport>(reactor_, i);

            PaxosConfig pc;
            pc.n = n;
            pc.id = i;
            pc.coordinator = 0;
            pc.failover_enabled = true;
            pc.heartbeat_piggyback = setup != Setup::Semantic;
            pc.seed = seed;

            if (setup == Setup::Semantic) {
                node->semantics = std::make_unique<PaxosSemantics>(
                    i, pc.quorum(), PaxosSemantics::Options{});
            }
            node->proc = std::make_unique<PaxosProcess>(pc, *node->gate);
            ChaosNode* raw = node.get();
            node->proc->set_failover_listener(
                [raw](FailoverEvent ev, ProcessId subject, Round, CpuContext&) {
                    raw->failover_events.push_back(FailoverRecord{ev, subject});
                });
            nodes_.push_back(std::move(node));
        }
        for (int i = 0; i < n; ++i) build_stack(i);

        ChaosBridge::Hooks hooks;
        hooks.crash_node = [this](ProcessId p) { crash(p); };
        hooks.restart_node = [this](ProcessId p, bool wiped) { restart(p, wiped); };
        hooks.set_link = [this](ProcessId from, ProcessId to,
                                const fault::DatagramFaultSpec& spec) {
            net_.set_link_fault(from, to, spec);
        };
        hooks.clear_link = [this](ProcessId from, ProcessId to) {
            net_.clear_link_fault(from, to);
        };
        if (setup != Setup::Baseline) {
            hooks.overlay = &overlay_;
            hooks.drop_edge = [this](ProcessId a, ProcessId b) {
                if (!nodes_[static_cast<std::size_t>(a)]->down)
                    nodes_[static_cast<std::size_t>(a)]->transport->remove_peer(b);
                if (!nodes_[static_cast<std::size_t>(b)]->down)
                    nodes_[static_cast<std::size_t>(b)]->transport->remove_peer(a);
            };
            hooks.add_edge = [this](ProcessId a, ProcessId b) {
                if (!nodes_[static_cast<std::size_t>(a)]->down)
                    nodes_[static_cast<std::size_t>(a)]->transport->add_peer(b);
                if (!nodes_[static_cast<std::size_t>(b)]->down)
                    nodes_[static_cast<std::size_t>(b)]->transport->add_peer(a);
            };
        }
        bridge_ = std::make_unique<ChaosBridge>(reactor_, n, std::move(schedule),
                                                std::move(hooks));
    }

    /// Generates the schedule from (profile, seed) against the same overlay
    /// the cluster runs on — the exact replay key the simulator uses.
    RuntimeChaosCluster(int n, Setup setup, std::uint64_t seed,
                        const ChaosProfile& profile)
        : RuntimeChaosCluster(n, setup, seed,
                              generate_chaos(n, 0, profile, seed,
                                             setup == Setup::Baseline
                                                 ? nullptr
                                                 : &initial_overlay(n))) {}

    void start() {
        bridge_->arm();
        for (auto& node : nodes_) node->proc->post_start();
    }

    /// Staggers `total` submissions across the chaos window (values decided
    /// entirely before the first fault would not test much). Owners cycle
    /// over [first_owner, n); a submission aimed at a crashed owner retries
    /// until the owner is back — the client role.
    void submit(int total, SimTime window, int first_owner = 0) {
        const int owners = n_ - first_owner;
        for (int v = 0; v < total; ++v) {
            const int owner = first_owner + v % owners;
            Value value;
            value.id = ValueId{owner, next_seq_[static_cast<std::size_t>(owner)]++};
            owned_[owner].push_back(value);
            const SimTime at = SimTime::nanos(window.as_nanos() * v / total);
            reactor_.schedule_after(at, [this, owner, value] { try_submit(owner, value); });
        }
    }

    /// Runs until the whole schedule fired and every live node has learned
    /// `total` decisions.
    bool run_until_settled(int total, SimTime limit = SimTime::seconds(120)) {
        return reactor_.run_until(
            [this, total] {
                if (!bridge_->done()) return false;
                for (const auto& node : nodes_) {
                    if (node->down) continue;
                    if (node->proc->learner().frontier() <
                        static_cast<InstanceId>(total) + 1) {
                        return false;
                    }
                }
                return true;
            },
            limit);
    }

    /// Diagnostic dump for settle-timeout triage: who is stuck and why.
    void dump_state() const {
        for (int id = 0; id < n_; ++id) {
            const auto& node = *nodes_[static_cast<std::size_t>(id)];
            const auto& proc = *node.proc;
            std::fprintf(stderr,
                         "node %d down=%d frontier=%llu highest_seen=%llu believed=%d "
                         "is_coord=%d takeovers=%llu lreq_sent=%llu lreq_answered=%llu "
                         "handled=%llu\n",
                         id, node.down ? 1 : 0,
                         static_cast<unsigned long long>(proc.learner().frontier()),
                         static_cast<unsigned long long>(proc.learner().highest_seen()),
                         static_cast<int>(proc.believed_coordinator()),
                         proc.is_coordinator() ? 1 : 0,
                         static_cast<unsigned long long>(proc.counters().takeovers),
                         static_cast<unsigned long long>(proc.counters().learn_requests_sent),
                         static_cast<unsigned long long>(proc.counters().learn_requests_answered),
                         static_cast<unsigned long long>(proc.counters().messages_handled));
            const InstanceId f = proc.learner().frontier();
            std::fprintf(stderr,
                         "  at frontier %llu: knows_decision=%d value_missing=%d "
                         "value_retx=%llu\n",
                         static_cast<unsigned long long>(f),
                         proc.learner().knows_decision(f) ? 1 : 0,
                         proc.learner().value_missing(f) ? 1 : 0,
                         static_cast<unsigned long long>(proc.counters().value_retransmissions));
            if (const auto* coord = proc.coordinator()) {
                std::fprintf(stderr,
                             "  coord active=%d proposals=%llu reproposals=%llu dups=%llu\n",
                             coord->active() ? 1 : 0,
                             static_cast<unsigned long long>(coord->counters().proposals),
                             static_cast<unsigned long long>(coord->counters().reproposals),
                             static_cast<unsigned long long>(coord->counters().duplicate_values));
            }
            if (const auto* det = proc.failure_detector()) {
                std::string suspects;
                for (int p = 0; p < n_; ++p) {
                    if (det->suspects(static_cast<ProcessId>(p))) {
                        suspects += ' ';
                        suspects += std::to_string(p);
                    }
                }
                std::fprintf(stderr, "  suspects:%s\n", suspects.c_str());
            }
            if (node.link) {
                for (int p = 0; p < n_; ++p) {
                    if (p == id) continue;
                    const auto st = node.link->peer_stats(static_cast<ProcessId>(p));
                    std::fprintf(stderr,
                                 "  peer %d linked=%d heard=%d unacked=%zu pending=%zu\n", p,
                                 st.linked ? 1 : 0, st.heard ? 1 : 0, st.unacked,
                                 st.pending);
                }
            }
        }
        // Trace every submitted value that no live learner has decided: which
        // coordinator's dedup set swallowed it, and where it sits now.
        std::set<ValueId> decided;
        for (const auto& node : nodes_) {
            if (node->down) continue;
            const auto& learner = node->proc->learner();
            for (InstanceId i = 1; i <= learner.highest_seen(); ++i) {
                if (const auto v = learner.decided_value(i)) decided.insert(v->id);
            }
        }
        for (const auto& [owner, values] : owned_) {
            for (const Value& v : values) {
                if (decided.count(v.id)) continue;
                std::fprintf(stderr, "missing value owner=%d seq=%lld:", owner,
                             static_cast<long long>(v.id.seq));
                for (int id = 0; id < n_; ++id) {
                    const auto& node = *nodes_[static_cast<std::size_t>(id)];
                    if (const auto* coord = node.proc->coordinator()) {
                        std::fprintf(stderr, " n%d[seen=%d pend=%zu inflight=%zu p1=%d]",
                                     id, coord->value_seen(v.id) ? 1 : 0,
                                     coord->pending_values(),
                                     coord->undecided_proposals(),
                                     coord->phase1_complete() ? 1 : 0);
                    }
                }
                std::fprintf(stderr, "\n");
            }
        }
        // Per-instance decision table across live nodes — divergence here is
        // a safety violation, not a liveness stall.
        InstanceId max_seen = 0;
        for (const auto& node : nodes_) {
            if (!node->down) max_seen = std::max(max_seen, node->proc->learner().highest_seen());
        }
        for (InstanceId i = 1; i <= max_seen; ++i) {
            std::fprintf(stderr, "inst %llu:", static_cast<unsigned long long>(i));
            for (int id = 0; id < n_; ++id) {
                const auto& node = *nodes_[static_cast<std::size_t>(id)];
                if (node.down) { std::fprintf(stderr, " n%d=down", id); continue; }
                if (const auto v = node.proc->learner().decided_value(i)) {
                    std::fprintf(stderr, " n%d=%d.%lld", id, v->id.client,
                                 static_cast<long long>(v->id.seq));
                } else {
                    std::fprintf(stderr, " n%d=-", id);
                }
            }
            std::fprintf(stderr, "\n");
        }
        std::fprintf(stderr, "overlay edges:");
        for (int a = 0; a < n_; ++a) {
            for (ProcessId b : overlay_.neighbors(static_cast<ProcessId>(a))) {
                if (static_cast<int>(b) > a) std::fprintf(stderr, " %d-%d", a, b);
            }
        }
        std::fprintf(stderr, "\n");
    }

    /// P-AGR-1 over the live nodes' learners: exactly `total` decisions,
    /// gap-free from instance 1, identical everywhere, every value decided
    /// in exactly one instance.
    void expect_agreement(int total) {
        std::map<InstanceId, ValueId> reference;
        for (int id = 0; id < n_; ++id) {
            const auto& node = *nodes_[static_cast<std::size_t>(id)];
            if (node.down) continue;
            auto& learner = node.proc->learner();
            ASSERT_EQ(learner.frontier(), static_cast<InstanceId>(total) + 1)
                << setup_name(setup_) << ": node " << id << " frontier";
            for (InstanceId i = 1; i < learner.frontier(); ++i) {
                const auto v = learner.decided_value(i);
                ASSERT_TRUE(v.has_value()) << "gap at node " << id << " instance " << i;
                const auto [it, inserted] = reference.emplace(i, v->id);
                ASSERT_EQ(it->second, v->id)
                    << setup_name(setup_) << ": divergent decision at instance " << i
                    << " node " << id;
            }
        }
        std::set<ValueId> values;
        for (const auto& [inst, vid] : reference) {
            ASSERT_TRUE(values.insert(vid).second) << "value decided in two instances";
        }
    }

    bool saw_failover_event(FailoverEvent ev, ProcessId subject) const {
        for (const auto& node : nodes_) {
            for (const FailoverRecord& r : node->failover_events) {
                if (r.event == ev && r.subject == subject) return true;
            }
        }
        return false;
    }

    std::uint64_t total_takeovers() const {
        std::uint64_t total = 0;
        for (const auto& node : nodes_) total += node->proc->counters().takeovers;
        return total;
    }

    Reactor& reactor() { return reactor_; }
    LossyDatagramNetwork& net() { return net_; }
    ChaosBridge& bridge() { return *bridge_; }
    ChaosNode& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
    int size() const { return n_; }

private:
    static constexpr std::uint64_t kOverlaySeed = 42;

    /// The pristine overlay a schedule is generated against; the member
    /// overlay_ then evolves under churn during the run.
    static const Graph& initial_overlay(int n) {
        static std::map<int, Graph> cache;
        auto it = cache.find(n);
        if (it == cache.end()) {
            it = cache.emplace(n, make_connected_overlay(n, kOverlaySeed)).first;
        }
        return it->second;
    }

    void build_stack(int i) {
        auto& nd = *nodes_[static_cast<std::size_t>(i)];
        nd.link = std::make_unique<UdpLink>(reactor_, i, n_, net_.endpoint(i),
                                            chaos_link_params(nd.epoch));
        RealTransport::Params tp;
        if (setup_ == Setup::Baseline) {
            tp.mode = RealTransport::Mode::Direct;
        } else {
            tp.mode = RealTransport::Mode::Gossip;
            tp.neighbors = overlay_.neighbors(i);
        }
        GossipHooks* hooks = &nd.pass_through;
        if (nd.semantics) hooks = nd.semantics.get();
        nd.transport = std::make_unique<RealTransport>(reactor_, *nd.link,
                                                       std::move(tp), *hooks);
        nd.gate->attach(nd.transport.get());
    }

    void crash(ProcessId p) {
        auto& nd = *nodes_[static_cast<std::size_t>(p)];
        nd.down = true;
        nd.gate->detach();
        nd.transport.reset();
        nd.link.reset();
    }

    void restart(ProcessId p, bool wiped) {
        auto& nd = *nodes_[static_cast<std::size_t>(p)];
        nd.down = false;
        ++nd.epoch;  // fresh link incarnation: peers reset seq/rel_id dedup
        build_stack(p);
        if (wiped) {
            nd.proc->wipe_state();
            // The durable client re-offers everything this process ever
            // accepted; the coordinator's value dedup absorbs re-proposals
            // of already-decided values (exactly like simulator clients).
            for (const Value& v : owned_[p]) nd.proc->post_submit(v);
        }
    }

    void try_submit(int owner, const Value& value) {
        auto& nd = *nodes_[static_cast<std::size_t>(owner)];
        if (nd.down) {
            reactor_.schedule_after(SimTime::millis(100), [this, owner, value] {
                try_submit(owner, value);
            });
            return;
        }
        nd.proc->post_submit(value);
    }

    int n_;
    Setup setup_;
    Reactor reactor_;
    LossyDatagramNetwork net_;
    Graph overlay_;
    std::vector<std::unique_ptr<ChaosNode>> nodes_;
    std::unique_ptr<ChaosBridge> bridge_;
    std::vector<std::int64_t> next_seq_ = std::vector<std::int64_t>(
        static_cast<std::size_t>(n_), 0);
    std::map<int, std::vector<Value>> owned_;
};

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
    RuntimeChaosCluster cluster(n, env.setup, seed, profile);
    cluster.start();
    // heavy_failover kills process 0 for good: only live clients submit.
    const int first_owner = profile.permanent_coordinator_crash ? 1 : 0;
    cluster.submit(total, profile.start + profile.horizon, first_owner);
    const bool settled = cluster.run_until_settled(total);
    if (!settled) cluster.dump_state();
    EXPECT_TRUE(settled) << setup_name(env.setup) << "/" << env.profile
                         << " did not settle; fault log so far:\n"
                         << cluster.bridge().rendered_log();
    cluster.expect_agreement(total);
    if (profile.permanent_coordinator_crash) {
        EXPECT_TRUE(cluster.node(0).down) << "coordinator restarted unexpectedly";
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
    for (const Setup setup : {Setup::Baseline, Setup::Gossip, Setup::Semantic}) {
        for (const char* profile :
             {"light", "moderate", "heavy", "heavy_failover"}) {
            envs.push_back(SweepEnv{setup, profile});
        }
    }
    return envs;
}

INSTANTIATE_TEST_SUITE_P(Profiles, RuntimeChaosSweep, ::testing::ValuesIn(sweep_envs()),
                         [](const ::testing::TestParamInfo<SweepEnv>& info) {
                             return std::string(setup_name(info.param.setup)) + "_" +
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
    RuntimeChaosCluster cluster(5, Setup::Baseline, /*seed=*/7, std::move(schedule));
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
    EXPECT_EQ(cluster.node(2).proc->failure_detector()->counters().suspicions, 0u);
    for (int i = 0; i < cluster.size(); ++i) {
        EXPECT_EQ(cluster.node(i).proc->believed_coordinator(), 0) << "node " << i;
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
    RuntimeChaosCluster cluster(5, Setup::Gossip, /*seed=*/9, std::move(schedule));
    cluster.start();
    cluster.submit(kValues, SimTime::millis(2800), /*first_owner=*/1);
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(60)))
        << "cluster did not settle";
    cluster.expect_agreement(kValues);

    EXPECT_TRUE(cluster.saw_failover_event(FailoverEvent::Suspect, 0));
    EXPECT_GE(cluster.total_takeovers(), 1u) << "succession never fired";
    // The wiped node relearned the full decision log (checked by
    // expect_agreement) without suspecting anyone across its crash gap.
    EXPECT_EQ(cluster.node(0).proc->failure_detector()->counters().suspicions, 0u);
    EXPECT_EQ(cluster.bridge().counters().wipes, 1u);
}

// -- TCP loopback lane --------------------------------------------------------

/// The TCP twin of RuntimeChaosCluster for schedules with no link-level
/// fates: GatedTransport facades over ConnectionManager + RealTransport on
/// real loopback sockets. A crash closes the node's listener and every
/// connection; a restart re-binds the same port and the mesh re-forms
/// through the peers' redial loops.
class TcpChaosCluster {
public:
    TcpChaosCluster(int n, Setup setup, FaultSchedule schedule)
        : n_(n), setup_(setup), overlay_(make_connected_overlay(n, 42)) {
        std::vector<int> listen_fds;
        for (int i = 0; i < n; ++i) {
            std::string err;
            const int fd = listen_tcp("127.0.0.1", 0, &err);
            EXPECT_GE(fd, 0) << err;
            listen_fds.push_back(fd);
            cluster_.push_back(PeerAddress{"127.0.0.1", local_port(fd)});
        }
        for (int i = 0; i < n; ++i) {
            auto node = std::make_unique<ChaosNode>();
            node->gate = std::make_unique<GatedTransport>(reactor_, i);

            PaxosConfig pc;
            pc.n = n;
            pc.id = i;
            pc.coordinator = 0;
            pc.failover_enabled = true;
            pc.heartbeat_piggyback = setup != Setup::Semantic;

            if (setup == Setup::Semantic) {
                node->semantics = std::make_unique<PaxosSemantics>(
                    i, pc.quorum(), PaxosSemantics::Options{});
            }
            node->proc = std::make_unique<PaxosProcess>(pc, *node->gate);
            nodes_.push_back(std::move(node));
            build_stack(i, listen_fds[static_cast<std::size_t>(i)]);
        }

        ChaosBridge::Hooks hooks;
        hooks.crash_node = [this](ProcessId p) { crash(p); };
        hooks.restart_node = [this](ProcessId p, bool wiped) { restart(p, wiped); };
        // No set_link/clear_link/overlay: the stream lane cannot express
        // datagram fates — the bridge logs those events as skipped, exactly
        // like a hook-less FaultInjector.
        bridge_ = std::make_unique<ChaosBridge>(reactor_, n, std::move(schedule),
                                                std::move(hooks));
    }

    void start() {
        const bool mesh_up = reactor_.run_until([this] { return mesh_connected(); },
                                                SimTime::seconds(10));
        ASSERT_TRUE(mesh_up) << "connection mesh did not come up";
        bridge_->arm();
        for (auto& node : nodes_) node->proc->post_start();
    }

    void submit(int total, SimTime window) {
        for (int v = 0; v < total; ++v) {
            const int owner = v % n_;
            Value value;
            value.id = ValueId{owner, next_seq_[static_cast<std::size_t>(owner)]++};
            const SimTime at = SimTime::nanos(window.as_nanos() * v / total);
            reactor_.schedule_after(at, [this, owner, value] { try_submit(owner, value); });
        }
    }

    bool run_until_settled(int total, SimTime limit = SimTime::seconds(60)) {
        return reactor_.run_until(
            [this, total] {
                if (!bridge_->done()) return false;
                for (const auto& node : nodes_) {
                    if (node->down) continue;
                    if (node->proc->learner().frontier() <
                        static_cast<InstanceId>(total) + 1) {
                        return false;
                    }
                }
                return true;
            },
            limit);
    }

    void expect_agreement(int total) {
        std::map<InstanceId, ValueId> reference;
        for (int id = 0; id < n_; ++id) {
            const auto& node = *nodes_[static_cast<std::size_t>(id)];
            if (node.down) continue;
            auto& learner = node.proc->learner();
            ASSERT_EQ(learner.frontier(), static_cast<InstanceId>(total) + 1)
                << "tcp node " << id << " frontier";
            for (InstanceId i = 1; i < learner.frontier(); ++i) {
                const auto v = learner.decided_value(i);
                ASSERT_TRUE(v.has_value()) << "gap at node " << id << " instance " << i;
                const auto [it, inserted] = reference.emplace(i, v->id);
                ASSERT_EQ(it->second, v->id) << "divergence at instance " << i;
            }
        }
    }

    ChaosBridge& bridge() { return *bridge_; }
    ChaosNode& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }

private:
    /// TCP-specific stack builder: re-binds the node's fixed port (the
    /// crash closed it) and rebuilds ConnectionManager + RealTransport.
    void build_stack(int i, int listen_fd) {
        auto& nd = *nodes_[static_cast<std::size_t>(i)];
        if (listen_fd < 0) {
            std::string err;
            listen_fd = listen_tcp("127.0.0.1",
                                   cluster_[static_cast<std::size_t>(i)].port, &err);
            ASSERT_GE(listen_fd, 0) << "re-bind " << err;
        }
        nd.conns = std::make_unique<ConnectionManager>(reactor_, i, cluster_, listen_fd,
                                                       ConnectionManager::Params{});
        RealTransport::Params tp;
        if (setup_ == Setup::Baseline) {
            tp.mode = RealTransport::Mode::Direct;
        } else {
            tp.mode = RealTransport::Mode::Gossip;
            tp.neighbors = overlay_.neighbors(i);
        }
        GossipHooks* hooks = &nd.pass_through;
        if (nd.semantics) hooks = nd.semantics.get();
        nd.transport = std::make_unique<RealTransport>(reactor_, *nd.conns,
                                                       std::move(tp), *hooks);
        nd.gate->attach(nd.transport.get());
    }

    void crash(ProcessId p) {
        auto& nd = *nodes_[static_cast<std::size_t>(p)];
        nd.down = true;
        nd.gate->detach();
        nd.transport.reset();
        nd.conns.reset();  // closes the listener and every connection
    }

    void restart(ProcessId p, bool wiped) {
        auto& nd = *nodes_[static_cast<std::size_t>(p)];
        nd.down = false;
        build_stack(p, -1);
        if (wiped) nd.proc->wipe_state();
    }

    bool mesh_connected() const {
        for (int i = 0; i < n_; ++i) {
            const auto& nd = *nodes_[static_cast<std::size_t>(i)];
            if (setup_ == Setup::Baseline) {
                for (ProcessId p = 0; p < n_; ++p) {
                    if (p != i && !nd.conns->peer_up(p)) return false;
                }
            } else {
                for (const ProcessId p : overlay_.neighbors(i)) {
                    if (!nd.conns->peer_up(p)) return false;
                }
            }
        }
        return true;
    }

    void try_submit(int owner, const Value& value) {
        auto& nd = *nodes_[static_cast<std::size_t>(owner)];
        if (nd.down) {
            reactor_.schedule_after(SimTime::millis(100), [this, owner, value] {
                try_submit(owner, value);
            });
            return;
        }
        nd.proc->post_submit(value);
    }

    int n_;
    Setup setup_;
    Reactor reactor_;
    std::vector<PeerAddress> cluster_;
    Graph overlay_;
    std::vector<std::unique_ptr<ChaosNode>> nodes_;
    std::unique_ptr<ChaosBridge> bridge_;
    std::vector<std::int64_t> next_seq_ = std::vector<std::int64_t>(
        static_cast<std::size_t>(n_), 0);
};

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
    TcpChaosCluster cluster(5, Setup::Gossip, std::move(schedule));
    cluster.start();
    cluster.submit(kValues, SimTime::millis(3000));
    ASSERT_TRUE(cluster.run_until_settled(kValues)) << "tcp lane did not settle";
    cluster.expect_agreement(kValues);
    EXPECT_EQ(cluster.bridge().counters().applied, 4u);
    EXPECT_EQ(cluster.bridge().counters().skipped, 0u);
    EXPECT_EQ(cluster.bridge().rendered_log(), expected_log);
}

// -- runtime fault-pressure metrics -------------------------------------------

// The unified registry names the runtime publishes (gclint's metrics-hygiene
// rule requires every registered literal to be pinned by a test). A lossy
// two-node exchange plus a failure detector populate every family.
TEST(RuntimeMetrics, FaultPressureLandsInUnifiedRegistry) {
    constexpr int kValues = 10;
    FaultSchedule schedule;  // no faults: this test is about the report
    RuntimeChaosCluster cluster(3, Setup::Baseline, /*seed=*/5, std::move(schedule));
    fault::DatagramFaultSpec spec;
    spec.loss = 0.20;
    spec.duplicate = 0.10;
    cluster.net().set_default_fault(spec);
    cluster.start();
    cluster.submit(kValues, SimTime::millis(200));
    ASSERT_TRUE(cluster.run_until_settled(kValues, SimTime::seconds(60)));

    MetricsRegistry reg;
    fill_udp_link_metrics(reg, *cluster.node(0).link);
    fill_lossy_network_metrics(reg, cluster.net());
    fill_detector_metrics(reg, *cluster.node(0).proc->failure_detector(), 3);

    std::set<std::string> names;
    for (const auto& sample : reg.snapshot()) names.insert(sample.name);
    const std::vector<std::string> expected = {
        "udp.link.datagrams_sent",
        "udp.link.datagrams_received",
        "udp.link.bodies_sent",
        "udp.link.bodies_received",
        "udp.link.acks_only_sent",
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
        "detector.heartbeats_sent",
        "detector.heartbeats_suppressed",
        "detector.suspicions",
        "detector.restores",
        "detector.suspect.1.now",
    };
    for (const std::string& name : expected) {
        EXPECT_TRUE(names.count(name)) << "missing metric " << name;
    }
    // The lossy profile actually exercised the counters being reported.
    EXPECT_GT(reg.counter("lossynet.dropped").value, 0u);
    EXPECT_GT(reg.counter("udp.link.datagrams_sent").value, 0u);
}

}  // namespace
}  // namespace gossipc::runtime
