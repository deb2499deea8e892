// In-process runtime cluster for the socket-runtime suites (DESIGN.md §10,
// §12, §13): n runtime::NodeStacks share one Reactor and talk over real
// loopback TCP on ephemeral ports, or through the deterministic lossy
// datagram harness (no sockets; byte-reproducible under ASan/UBSan).
//
// Every cluster carries a ChaosBridge, idle unless given a FaultSchedule:
// crashes and restarts go to the stacks, link faults to the harness (the
// TCP lane cannot express them, so the bridge logs them as skipped), and
// overlay churn to the stacks' neighbor sets. Agreement is read from the
// learners, so it holds across wiped restarts that re-deliver from
// instance 1.
//
// All timers run on the real monotonic clock; limits are generous (tens of
// seconds) while clean runs complete in tens of milliseconds.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/datagram_faults.hpp"
#include "fault/fault_schedule.hpp"
#include "overlay/random_overlay.hpp"
#include "runtime/chaos_bridge.hpp"
#include "runtime/lossy_link.hpp"
#include "runtime/node_stack.hpp"
#include "runtime/tcp.hpp"

namespace gossipc::runtime {

/// Fast link timers, so lossy runs converge in milliseconds of wall clock
/// rather than protocol-scale seconds.
inline UdpLink::Params fast_link_params() {
    UdpLink::Params p;
    p.ack_delay = SimTime::millis(2);
    p.rto_initial = SimTime::millis(15);
    p.rto_sweep = SimTime::millis(5);
    p.keepalive = SimTime::millis(50);
    return p;
}

class NodeCluster {
public:
    static constexpr std::uint64_t kOverlaySeed = 42;

    struct Options {
        Setup setup = Setup::SemanticGossip;
        int n = 5;
        bool tcp = false;
        /// Lossy-harness fault seed and the protocol's jitter seed.
        std::uint64_t seed = 1;
        /// Default fault on every harness link (UDP lane).
        fault::DatagramFaultSpec faults{};
        bool failover = false;
        FaultSchedule schedule{};
        trace::Tracer* tracer = nullptr;
    };

    explicit NodeCluster(Options opt)
        : opt_(std::move(opt)),
          net_(reactor_, opt_.n, opt_.seed),
          overlay_(make_connected_overlay(opt_.n, kOverlaySeed)) {
        const int n = opt_.n;
        net_.set_default_fault(opt_.faults);
        // Ephemeral ports: bind every listener on port 0 first, read the
        // ports back, then hand the complete address list to every stack.
        std::vector<int> listen_fds;
        std::vector<PeerAddress> cluster;
        for (int i = 0; opt_.tcp && i < n; ++i) {
            std::string err;
            const int fd = listen_tcp("127.0.0.1", 0, &err);
            EXPECT_GE(fd, 0) << err;
            listen_fds.push_back(fd);
            cluster.push_back(PeerAddress{"127.0.0.1", local_port(fd)});
        }
        for (int i = 0; i < n; ++i) {
            NodeStack::Params sp;
            sp.setup = opt_.setup;
            sp.paxos.n = n;
            sp.paxos.id = i;
            sp.paxos.coordinator = 0;
            sp.paxos.failover_enabled = opt_.failover;
            sp.paxos.seed = opt_.seed;
            sp.neighbors = overlay_.neighbors(i);
            sp.link = fast_link_params();
            NodeStack::Channel channel;
            if (opt_.tcp) {
                channel.cluster = cluster;
                channel.bound_fd = listen_fds[static_cast<std::size_t>(i)];
            } else {
                channel.kind = NodeStack::Channel::Kind::Endpoint;
                channel.endpoint = &net_.endpoint(i);
            }
            stacks_.push_back(std::make_unique<NodeStack>(reactor_, std::move(sp),
                                                          std::move(channel), opt_.tracer));
            stacks_.back()->shard().process(0).set_failover_listener(
                [this](FailoverEvent ev, ProcessId subject, Round, CpuContext&) {
                    failover_events_.emplace_back(ev, subject);
                });
        }

        ChaosBridge::Hooks hooks;
        hooks.crash_node = [this](ProcessId p) { stack(p).crash(); };
        hooks.restart_node = [this](ProcessId p, bool wiped) {
            try {
                stack(p).restart(wiped);
            } catch (const std::runtime_error& e) {
                ADD_FAILURE() << "restart of node " << p << ": " << e.what();
            }
        };
        if (!opt_.tcp) {
            hooks.set_link = [this](ProcessId from, ProcessId to,
                                    const fault::DatagramFaultSpec& spec) {
                net_.set_link_fault(from, to, spec);
            };
            hooks.clear_link = [this](ProcessId from, ProcessId to) {
                net_.clear_link_fault(from, to);
            };
        }
        if (opt_.setup != Setup::Baseline) {
            hooks.overlay = &overlay_;
            hooks.drop_edge = [this](ProcessId a, ProcessId b) {
                stack(a).remove_peer(b);
                stack(b).remove_peer(a);
            };
            hooks.add_edge = [this](ProcessId a, ProcessId b) {
                stack(a).add_peer(b);
                stack(b).add_peer(a);
            };
        }
        bridge_ = std::make_unique<ChaosBridge>(reactor_, n, std::move(opt_.schedule),
                                                std::move(hooks));
    }
    NodeCluster(const NodeCluster&) = delete;
    NodeCluster& operator=(const NodeCluster&) = delete;

    /// The schedule `profile` generates for `seed` against the pristine
    /// overlay every cluster starts from: the simulator's replay key.
    static FaultSchedule chaos_schedule(int n, Setup setup, const ChaosProfile& profile,
                                        std::uint64_t seed) {
        const Graph overlay = make_connected_overlay(n, kOverlaySeed);
        return generate_chaos(n, 0, profile, seed,
                              setup == Setup::Baseline ? nullptr : &overlay);
    }

    /// Waits for the TCP mesh (UDP needs no handshake), arms the fault
    /// schedule and starts every node's protocol.
    void start() {
        if (opt_.tcp) {
            const bool mesh_up = reactor_.run_until([this] { return all_links_up(); },
                                                    SimTime::seconds(10));
            ASSERT_TRUE(mesh_up) << "connection mesh did not come up";
        }
        bridge_->arm();
        for (auto& s : stacks_) s->shard().post_start();
    }

    /// Submits `total` values round-robin across all nodes, now. Sequence
    /// numbers persist across calls so repeated waves never reuse a ValueId.
    void submit(int total) {
        for (int v = 0; v < total; ++v) {
            const int owner = v % size();
            stack(owner).submit(next_value(owner));
        }
    }

    /// Staggers `total` submissions across `window`. Owners cycle over
    /// [first_owner, n); a submission aimed at a crashed owner retries until
    /// the owner is back, as a client would.
    void submit(int total, SimTime window, int first_owner = 0) {
        const int owners = size() - first_owner;
        for (int v = 0; v < total; ++v) {
            const int owner = first_owner + v % owners;
            const Value value = next_value(owner);
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
                for (const auto& s : stacks_) {
                    if (s->up() && s->shard().process(0).learner().frontier() <
                                       static_cast<InstanceId>(total) + 1) {
                        return false;
                    }
                }
                return true;
            },
            limit);
    }

    /// P-AGR-1 over the live nodes' learners: exactly `total` decisions,
    /// gap-free from instance 1, identical everywhere, every value decided
    /// in exactly one instance.
    void expect_agreement(int total) const {
        std::map<InstanceId, ValueId> reference;
        for (int id = 0; id < size(); ++id) {
            if (!stack(id).up()) continue;
            const Learner& learner = process(id).learner();
            ASSERT_EQ(learner.frontier(), static_cast<InstanceId>(total) + 1)
                << setup_name(opt_.setup) << ": node " << id << " frontier";
            for (InstanceId i = 1; i < learner.frontier(); ++i) {
                const auto v = learner.decided_value(i);
                ASSERT_TRUE(v.has_value()) << "gap at node " << id << " instance " << i;
                const auto [it, inserted] = reference.emplace(i, v->id);
                ASSERT_EQ(it->second, v->id)
                    << setup_name(opt_.setup) << ": divergent decision at instance " << i
                    << " node " << id;
            }
        }
        std::set<ValueId> values;
        for (const auto& [inst, vid] : reference) {
            ASSERT_TRUE(values.insert(vid).second) << "value decided in two instances";
        }
    }

    bool all_links_up() const {
        return std::all_of(stacks_.begin(), stacks_.end(),
                           [](const auto& s) { return s->links_up(); });
    }

    bool saw_failover_event(FailoverEvent ev, ProcessId subject) const {
        return std::find(failover_events_.begin(), failover_events_.end(),
                         std::make_pair(ev, subject)) != failover_events_.end();
    }

    std::uint64_t total_takeovers() const {
        std::uint64_t total = 0;
        for (int id = 0; id < size(); ++id) total += process(id).counters().takeovers;
        return total;
    }

    /// Node i's counters under their registry names.
    MetricsRegistry metrics(int i) const {
        MetricsRegistry reg;
        stack(i).fill_metrics(reg);
        return reg;
    }

    /// Sum of one counter over every node.
    std::uint64_t sum(const std::string& name) const {
        std::uint64_t total = 0;
        for (int i = 0; i < size(); ++i) total += metrics(i).counter(name).value;
        return total;
    }

    /// Diagnostic dump for settle-timeout triage: who is stuck and why.
    void dump_state() const {
        for (int id = 0; id < size(); ++id) {
            const PaxosProcess& proc = process(id);
            const auto& c = proc.counters();
            std::fprintf(stderr,
                         "node %d down=%d frontier=%llu highest_seen=%llu believed=%d "
                         "is_coord=%d takeovers=%llu lreq_sent=%llu lreq_answered=%llu "
                         "handled=%llu\n",
                         id, stack(id).up() ? 0 : 1,
                         static_cast<unsigned long long>(proc.learner().frontier()),
                         static_cast<unsigned long long>(proc.learner().highest_seen()),
                         static_cast<int>(proc.believed_coordinator()),
                         proc.is_coordinator() ? 1 : 0,
                         static_cast<unsigned long long>(c.takeovers),
                         static_cast<unsigned long long>(c.learn_requests_sent),
                         static_cast<unsigned long long>(c.learn_requests_answered),
                         static_cast<unsigned long long>(c.messages_handled));
            const InstanceId f = proc.learner().frontier();
            std::fprintf(stderr,
                         "  at frontier %llu: knows_decision=%d value_missing=%d "
                         "value_retx=%llu\n",
                         static_cast<unsigned long long>(f),
                         proc.learner().knows_decision(f) ? 1 : 0,
                         proc.learner().value_missing(f) ? 1 : 0,
                         static_cast<unsigned long long>(c.value_retransmissions));
            if (const auto* coord = proc.coordinator()) {
                std::fprintf(stderr,
                             "  coord active=%d proposals=%llu reproposals=%llu dups=%llu\n",
                             coord->active() ? 1 : 0,
                             static_cast<unsigned long long>(coord->counters().proposals),
                             static_cast<unsigned long long>(coord->counters().reproposals),
                             static_cast<unsigned long long>(
                                 coord->counters().duplicate_values));
            }
            if (const auto* det = proc.failure_detector()) {
                std::string suspects;
                for (ProcessId p = 0; p < size(); ++p) {
                    if (det->suspects(p)) suspects += ' ' + std::to_string(p);
                }
                std::fprintf(stderr, "  suspects:%s\n", suspects.c_str());
            }
            // Link health: the udp.peer.* gauges of the live incarnation.
            for (const MetricsRegistry::Sample& m : metrics(id).snapshot()) {
                if (m.name.rfind("udp.peer.", 0) == 0) {
                    std::fprintf(stderr, "  %s %g\n", m.name.c_str(), m.value);
                }
            }
        }
        // Trace every submitted value that no live learner has decided: which
        // coordinator's dedup set swallowed it, and where it sits now.
        std::set<ValueId> decided;
        for (int id = 0; id < size(); ++id) {
            if (!stack(id).up()) continue;
            const Learner& learner = process(id).learner();
            for (InstanceId i = 1; i <= learner.highest_seen(); ++i) {
                if (const auto v = learner.decided_value(i)) decided.insert(v->id);
            }
        }
        for (const ValueId& v : issued_) {
            if (decided.count(v)) continue;
            std::fprintf(stderr, "missing value owner=%d seq=%lld:", v.client,
                         static_cast<long long>(v.seq));
            for (int id = 0; id < size(); ++id) {
                if (const auto* coord = process(id).coordinator()) {
                    std::fprintf(stderr, " n%d[seen=%d pend=%zu inflight=%zu p1=%d]", id,
                                 coord->value_seen(v) ? 1 : 0, coord->pending_values(),
                                 coord->undecided_proposals(),
                                 coord->phase1_complete() ? 1 : 0);
                }
            }
            std::fprintf(stderr, "\n");
        }
        // Per-instance decision table across live nodes — divergence here is
        // a safety violation, not a liveness stall.
        InstanceId max_seen = 0;
        for (int id = 0; id < size(); ++id) {
            if (stack(id).up()) {
                max_seen = std::max(max_seen, process(id).learner().highest_seen());
            }
        }
        for (InstanceId i = 1; i <= max_seen; ++i) {
            std::fprintf(stderr, "inst %llu:", static_cast<unsigned long long>(i));
            for (int id = 0; id < size(); ++id) {
                if (!stack(id).up()) {
                    std::fprintf(stderr, " n%d=down", id);
                } else if (const auto v = process(id).learner().decided_value(i)) {
                    std::fprintf(stderr, " n%d=%d.%lld", id, v->id.client,
                                 static_cast<long long>(v->id.seq));
                } else {
                    std::fprintf(stderr, " n%d=-", id);
                }
            }
            std::fprintf(stderr, "\n");
        }
        std::fprintf(stderr, "overlay edges:");
        for (ProcessId a = 0; a < size(); ++a) {
            for (const ProcessId b : overlay_.neighbors(a)) {
                if (b > a) std::fprintf(stderr, " %d-%d", a, b);
            }
        }
        std::fprintf(stderr, "\n");
    }

    Reactor& reactor() { return reactor_; }
    LossyDatagramNetwork& net() { return net_; }
    ChaosBridge& bridge() { return *bridge_; }
    NodeStack& stack(int i) { return *stacks_.at(static_cast<std::size_t>(i)); }
    const NodeStack& stack(int i) const { return *stacks_.at(static_cast<std::size_t>(i)); }
    /// Node i's consensus process (every suite runs one group).
    const PaxosProcess& process(int i) const { return stack(i).shard().process(0); }
    int size() const { return opt_.n; }

private:
    Value next_value(int owner) {
        Value value;
        value.id = ValueId{owner, next_seq_[owner]++};
        issued_.push_back(value.id);
        return value;
    }

    void try_submit(int owner, const Value& value) {
        if (!stack(owner).up()) {
            reactor_.schedule_after(SimTime::millis(100), [this, owner, value] {
                try_submit(owner, value);
            });
            return;
        }
        stack(owner).submit(value);
    }

    Options opt_;
    Reactor reactor_;
    LossyDatagramNetwork net_;
    /// Starts as the pristine overlay; the bridge's churn mutates it.
    Graph overlay_;
    std::vector<std::unique_ptr<NodeStack>> stacks_;
    std::unique_ptr<ChaosBridge> bridge_;
    std::vector<std::pair<FailoverEvent, ProcessId>> failover_events_;
    std::map<int, std::int64_t> next_seq_;
    std::vector<ValueId> issued_;
};

}  // namespace gossipc::runtime
