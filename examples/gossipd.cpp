// gossipd — one gossip-consensus node as a real OS process (DESIGN.md §10).
//
// Runs the unmodified protocol stack (PaxosProcess + FailureDetector) over
// the real-socket runtime: the wire codec, the poll reactor, and — behind a
// RealTransport — either the TCP connection manager or the UDP link layer
// (--transport udp: clustered datagrams with reliable-unordered repair for
// flagged control traffic, DESIGN.md §12). An n-node cluster is n of these
// processes; scripts/cluster_local.sh launches one on localhost.
//
// Examples:
//   gossipd --id 0 --cluster 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//           --setup semantic --failover --submit 100 --expect 300
//   gossipd --id 1 --config cluster.txt --decision-log node1.log
//
// Every node writes the decisions it delivers (in instance order, gap-free
// by construction) to --decision-log as "instance client seq" lines; nodes
// of one run must produce identical logs. Exit status is 0 once --expect
// decisions were delivered (or on a clean signal with no --expect), 1 when
// the run ends short of the expectation.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/datagram_faults.hpp"
#include "group/shard.hpp"
#include "overlay/random_overlay.hpp"
#include "paxos/message.hpp"
#include "paxos/process.hpp"
#include "runtime/chaos_bridge.hpp"
#include "runtime/gated_transport.hpp"
#include "runtime/real_transport.hpp"
#include "runtime/tcp.hpp"
#include "runtime/udp.hpp"
#include "runtime/udp_link.hpp"
#include "semantic/paxos_semantics.hpp"
#include "trace/tracer.hpp"
#include "wire/codec.hpp"

namespace {

using namespace gossipc;
using namespace gossipc::runtime;

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
    if (error) std::fprintf(stderr, "gossipd: %s\n", error);
    std::fprintf(stderr,
        "usage: %s --id <int> (--cluster <h:p,h:p,...> | --config <file>) [options]\n"
        "  --id <int>             this process's index into the cluster list\n"
        "  --cluster <list>       comma-separated host:port, one per process\n"
        "  --config <file>        same, one host:port per line (# comments)\n"
        "  --setup baseline|gossip|semantic   (default semantic)\n"
        "  --groups <int>         independent consensus groups sharing this\n"
        "                         node's gossip substrate (default 1;\n"
        "                         DESIGN.md Sec. 15). With >1 the decision\n"
        "                         log gains a leading group column and\n"
        "                         --expect counts decisions across groups\n"
        "  --transport tcp|udp    socket layer (default tcp); udp clusters\n"
        "                         envelopes into datagrams and retransmits\n"
        "                         only reliable-flagged control traffic\n"
        "  --degree <k>           gossip overlay out-connections (0 = paper default)\n"
        "  --overlay-seed <u64>   overlay construction seed (default 42); must\n"
        "                         match across the cluster (same seed -> same graph)\n"
        "  --seed <u64>           protocol jitter seed (default 1)\n"
        "  --failover             failure detector + coordinator failover\n"
        "  --heartbeat <s>        heartbeat interval (default 0.1)\n"
        "  --suspect-after <s>    suspicion timeout (default 0.45)\n"
        "  --submit <n>           client values submitted by this node (default 0)\n"
        "  --rate <per-s>         this node's submission rate (default 200)\n"
        "  --value-size <bytes>   modelled value size (default 1024)\n"
        "  --expect <n>           exit 0 once this many decisions are delivered\n"
        "  --run-for <s>          hard runtime limit (default 30)\n"
        "  --linger <s>           keep forwarding after --expect is met (default 2)\n"
        "  --decision-log <file>  \"instance client seq\" per delivered decision\n"
        "  --metrics <file>       counter snapshot on shutdown (- = stderr)\n"
        "  --trace <file>         message-lifecycle trace, JSONL\n"
        "  --chaos <profile>      replay a fault schedule against this node:\n"
        "                         light|moderate|heavy|heavy_failover. Every\n"
        "                         node derives the same schedule and applies\n"
        "                         the events that touch it (crash/restart of\n"
        "                         its own stack; with --transport udp also\n"
        "                         loss/dup/reorder/truncation on its outgoing\n"
        "                         links). Implies the chaos window precedes\n"
        "                         --run-for; pair with --failover for the\n"
        "                         heavy_failover profile.\n"
        "  --chaos-seed <u64>     schedule seed (default 1); must match\n"
        "                         across the cluster (same seed -> same\n"
        "                         schedule -> identical fault logs)\n"
        "  --chaos-log <file>     write the injected-fault log on shutdown\n",
        argv0);
    std::exit(2);
}

struct Options {
    ProcessId id = -1;
    std::vector<PeerAddress> cluster;
    RealTransport::Mode mode = RealTransport::Mode::Gossip;
    bool udp = false;
    bool semantic = true;
    int groups = 1;
    int degree = 0;
    std::uint64_t overlay_seed = 42;
    std::uint64_t seed = 1;
    bool failover = false;
    double heartbeat_s = 0.1;
    double suspect_after_s = 0.45;
    long submit = 0;
    double rate = 200.0;
    std::uint32_t value_size = 1024;
    long expect = 0;
    double run_for_s = 30.0;
    double linger_s = 2.0;
    std::string decision_log;
    std::string metrics_path;
    std::string trace_path;
    std::string chaos;  ///< profile name; empty = no chaos
    std::uint64_t chaos_seed = 1;
    std::string chaos_log;
};

ChaosProfile chaos_profile_by_name(const std::string& name, const char* argv0) {
    if (name == "light") return ChaosProfile::light();
    if (name == "moderate") return ChaosProfile::moderate();
    if (name == "heavy") return ChaosProfile::heavy();
    if (name == "heavy_failover") return ChaosProfile::heavy_failover();
    usage(argv0, "bad --chaos (want light|moderate|heavy|heavy_failover)");
}

bool parse_addr(const std::string& spec, PeerAddress& out) {
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
    const long port = std::strtol(spec.c_str() + colon + 1, nullptr, 10);
    if (port <= 0 || port > 65535) return false;
    out.host = spec.substr(0, colon);
    out.port = static_cast<std::uint16_t>(port);
    return true;
}

std::vector<PeerAddress> parse_cluster_list(const std::string& list, const char* argv0) {
    std::vector<PeerAddress> cluster;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string spec =
            list.substr(start, comma == std::string::npos ? comma : comma - start);
        PeerAddress addr;
        if (!parse_addr(spec, addr)) usage(argv0, "bad --cluster entry (want host:port)");
        cluster.push_back(std::move(addr));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return cluster;
}

std::vector<PeerAddress> parse_cluster_file(const std::string& path, const char* argv0) {
    std::ifstream in(path);
    if (!in) usage(argv0, "cannot open --config file");
    std::vector<PeerAddress> cluster;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#') continue;
        const std::size_t last = line.find_last_not_of(" \t\r");
        PeerAddress addr;
        if (!parse_addr(line.substr(first, last - first + 1), addr)) {
            usage(argv0, "bad --config line (want host:port)");
        }
        cluster.push_back(std::move(addr));
    }
    return cluster;
}

Options parse_options(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--id") {
            opt.id = static_cast<ProcessId>(std::atoi(next()));
        } else if (arg == "--cluster") {
            opt.cluster = parse_cluster_list(next(), argv[0]);
        } else if (arg == "--config") {
            opt.cluster = parse_cluster_file(next(), argv[0]);
        } else if (arg == "--setup") {
            const std::string v = next();
            if (v == "baseline") {
                opt.mode = RealTransport::Mode::Direct;
                opt.semantic = false;
            } else if (v == "gossip") {
                opt.mode = RealTransport::Mode::Gossip;
                opt.semantic = false;
            } else if (v == "semantic") {
                opt.mode = RealTransport::Mode::Gossip;
                opt.semantic = true;
            } else {
                usage(argv[0], "bad --setup (want baseline|gossip|semantic)");
            }
        } else if (arg == "--groups") {
            opt.groups = std::atoi(next());
        } else if (arg == "--transport") {
            const std::string v = next();
            if (v == "tcp") {
                opt.udp = false;
            } else if (v == "udp") {
                opt.udp = true;
            } else {
                usage(argv[0], "bad --transport (want tcp|udp)");
            }
        } else if (arg == "--degree") {
            opt.degree = std::atoi(next());
        } else if (arg == "--overlay-seed") {
            opt.overlay_seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--failover") {
            opt.failover = true;
        } else if (arg == "--heartbeat") {
            opt.heartbeat_s = std::atof(next());
        } else if (arg == "--suspect-after") {
            opt.suspect_after_s = std::atof(next());
        } else if (arg == "--submit") {
            opt.submit = std::atol(next());
        } else if (arg == "--rate") {
            opt.rate = std::atof(next());
        } else if (arg == "--value-size") {
            opt.value_size = static_cast<std::uint32_t>(std::atoi(next()));
        } else if (arg == "--expect") {
            opt.expect = std::atol(next());
        } else if (arg == "--run-for") {
            opt.run_for_s = std::atof(next());
        } else if (arg == "--linger") {
            opt.linger_s = std::atof(next());
        } else if (arg == "--decision-log") {
            opt.decision_log = next();
        } else if (arg == "--metrics") {
            opt.metrics_path = next();
        } else if (arg == "--trace") {
            opt.trace_path = next();
        } else if (arg == "--chaos") {
            opt.chaos = next();
            (void)chaos_profile_by_name(opt.chaos, argv[0]);  // validate now
        } else if (arg == "--chaos-seed") {
            opt.chaos_seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--chaos-log") {
            opt.chaos_log = next();
        } else {
            usage(argv[0], ("unknown flag " + arg).c_str());
        }
    }
    const int n = static_cast<int>(opt.cluster.size());
    if (n < 3) usage(argv[0], "need a cluster of at least 3 (--cluster/--config)");
    if (opt.id < 0 || opt.id >= n) usage(argv[0], "--id out of range for the cluster");
    if (opt.groups < 1 || opt.groups > static_cast<int>(wire::kMaxGroupFrontiers)) {
        usage(argv[0], "--groups must be in [1, 1024]");
    }
    if (opt.heartbeat_s <= 0) usage(argv[0], "--heartbeat must be positive");
    if (opt.suspect_after_s <= 0) usage(argv[0], "--suspect-after must be positive");
    if (opt.rate <= 0) usage(argv[0], "--rate must be positive");
    if (opt.submit < 0 || opt.expect < 0) usage(argv[0], "counts must be non-negative");
    if (opt.degree < 0 || opt.degree >= n) usage(argv[0], "--degree out of range");
    if (opt.run_for_s <= 0) usage(argv[0], "--run-for must be positive");
    if (opt.value_size == 0) usage(argv[0], "--value-size must be positive");
    return opt;
}

// Applies the chaos schedule's link-fault lanes at this node's socket
// boundary. Each directed link from->to is enforced exactly once, by the
// sending process, with the same pure (seed, from, to, seq) fate model the
// in-process lossy harness uses — so a datagram lost between two gossipd
// processes on loopback was lost because the schedule said so, not because
// the kernel happened to drop it. The wrapper sits between UdpLink and the
// real UdpChannel; the channel is swapped out across crash/restart (the
// socket is torn down and rebound), so it is held by pointer and delayed
// deliveries check it at fire time.
class ChaosDatagramChannel final : public DatagramChannel {
public:
    ChaosDatagramChannel(Reactor& reactor, ProcessId self, std::uint64_t seed)
        : reactor_(reactor), self_(self), model_(seed) {}

    void set_inner(DatagramChannel* inner) { inner_ = inner; }
    void set_fault(ProcessId to, const fault::DatagramFaultSpec& spec) {
        specs_[to] = spec;
    }
    void clear_fault(ProcessId to) { specs_.erase(to); }

    bool send(ProcessId to, std::span<const std::uint8_t> datagram) override {
        if (inner_ == nullptr) return false;
        const auto it = specs_.find(to);
        if (it == specs_.end() || !it->second.active()) {
            return inner_->send(to, datagram);
        }
        const auto fate = model_.decide(it->second, self_, to, seq_[to]++);
        if (fate.drop) return true;  // consumed by the wire, like real loss
        std::vector<std::uint8_t> bytes(datagram.begin(), datagram.end());
        if (fate.truncated) {
            bytes.resize(static_cast<std::size_t>(
                static_cast<double>(bytes.size()) * fate.keep_frac));
        }
        const SimTime base = it->second.extra_delay;
        if (fate.duplicate) deliver(to, bytes, base + fate.duplicate_delay);
        deliver(to, std::move(bytes), base + fate.delay);
        return true;
    }
    void set_receive_handler(RecvFn fn) override {
        recv_fn_ = std::move(fn);
        if (inner_ != nullptr) inner_->set_receive_handler(recv_fn_);
    }
    std::size_t max_datagram_bytes() const override {
        return inner_ != nullptr ? inner_->max_datagram_bytes() : 0;
    }

private:
    void deliver(ProcessId to, std::vector<std::uint8_t> bytes, SimTime delay) {
        if (delay == SimTime::zero()) {
            inner_->send(to, std::span<const std::uint8_t>(bytes));
            return;
        }
        reactor_.schedule_after(delay, [this, to, bytes = std::move(bytes)] {
            if (inner_ != nullptr) {
                inner_->send(to, std::span<const std::uint8_t>(bytes));
            }
        });
    }

    Reactor& reactor_;
    ProcessId self_;
    fault::DatagramFaultModel model_;
    DatagramChannel* inner_ = nullptr;
    RecvFn recv_fn_;
    std::map<ProcessId, fault::DatagramFaultSpec> specs_;
    std::map<ProcessId, std::uint64_t> seq_;
};

void dump_metrics(std::FILE* out, const Options& opt, const RealTransport* transport,
                  const ConnectionManager* conns, const UdpLink* udp,
                  const group::GroupShard& shard, const PaxosSemantics* semantics,
                  const GatedTransport* gate, const ChaosBridge* bridge) {
    const auto put = [out](const char* key, std::uint64_t v) {
        std::fprintf(out, "%s %llu\n", key, static_cast<unsigned long long>(v));
    };
    std::fprintf(out, "node %d\n", opt.id);
    // Learner and protocol counters are summed across the node's groups; the
    // single-group dump is unchanged. With --groups > 1 each group's learner
    // also gets its own pair of lines for per-shard inspection.
    PaxosProcess::Counters pc;
    std::uint64_t frontier_sum = 0, delivered_sum = 0;
    for (GroupId g = 0; g < shard.num_groups(); ++g) {
        const PaxosProcess& proc = shard.process(g);
        frontier_sum += static_cast<std::uint64_t>(proc.learner().frontier());
        delivered_sum += proc.learner().delivered_count();
        const auto& c = proc.counters();
        pc.values_submitted += c.values_submitted;
        pc.messages_handled += c.messages_handled;
        pc.takeovers += c.takeovers;
        pc.step_downs += c.step_downs;
        if (shard.num_groups() > 1) {
            std::fprintf(out, "learner.g%d.frontier %llu\n", g,
                         static_cast<unsigned long long>(proc.learner().frontier()));
            std::fprintf(out, "learner.g%d.delivered %llu\n", g,
                         static_cast<unsigned long long>(
                             proc.learner().delivered_count()));
        }
    }
    put("learner.frontier", frontier_sum);
    put("learner.delivered", delivered_sum);
    put("paxos.values_submitted", pc.values_submitted);
    put("paxos.messages_handled", pc.messages_handled);
    put("paxos.takeovers", pc.takeovers);
    put("paxos.step_downs", pc.step_downs);
    if (shard.num_groups() > 1) {
        const auto& dc = shard.dispatcher().counters();
        put("group.routed", dc.routed);
        put("group.heartbeats_fanned", dc.heartbeats_fanned);
        put("group.unroutable", dc.unroutable);
    }
    if (transport) {  // null when the run ended with the node crashed
        const RealTransport::Counters tc = transport->counters();
        put("transport.broadcasts", tc.broadcasts);
        put("transport.envelopes_received", tc.envelopes_received);
        put("transport.messages_received", tc.messages_received);
        put("transport.duplicates", tc.duplicates);
        put("transport.delivered", tc.delivered);
        put("transport.filtered", tc.filtered);
        put("transport.aggregated_away", tc.aggregated_away);
        put("transport.envelopes_sent", tc.envelopes_sent);
        put("transport.send_queue_drops", tc.send_queue_drops);
        put("transport.bad_aggregates", tc.bad_aggregates);
        put("transport.decode_errors", tc.decode_errors);
    }
    if (conns) {
        const auto& cc = conns->counters();
        put("conn.dials", cc.dials);
        put("conn.accepts", cc.accepts);
        put("conn.links_up", cc.links_up);
        put("conn.disconnects", cc.disconnects);
        put("conn.frames_sent", cc.frames_sent);
        put("conn.frames_received", cc.frames_received);
        put("conn.bytes_sent", cc.bytes_sent);
        put("conn.bytes_received", cc.bytes_received);
        put("conn.send_drops_down", cc.send_drops_down);
        put("conn.send_drops_backpressure", cc.send_drops_backpressure);
        put("conn.protocol_errors", cc.protocol_errors);
    }
    if (udp) {
        const auto& uc = udp->counters();
        put("udp.datagrams_sent", uc.datagrams_sent);
        put("udp.datagrams_received", uc.datagrams_received);
        put("udp.bytes_sent", uc.bytes_sent);
        put("udp.bytes_received", uc.bytes_received);
        put("udp.bodies_sent", uc.bodies_sent);
        put("udp.bodies_received", uc.bodies_received);
        put("udp.acks_only_sent", uc.acks_only_sent);
        put("udp.jumbo_datagrams", uc.jumbo_datagrams);
        put("udp.retransmits", uc.retransmits);
        put("udp.fast_retransmits", uc.fast_retransmits);
        put("udp.reliable_acked", uc.reliable_acked);
        put("udp.reliable_dropped", uc.reliable_dropped);
        put("udp.duplicate_datagrams", uc.duplicate_datagrams);
        put("udp.stale_datagrams", uc.stale_datagrams);
        put("udp.duplicate_reliables", uc.duplicate_reliables);
        put("udp.decode_errors", uc.decode_errors);
        put("udp.send_failures", uc.send_failures);
    }
    if (semantics) {
        const auto& ss = semantics->stats();
        put("semantic.filtered_phase2b", ss.filtered_phase2b);
        put("semantic.aggregates_built", ss.aggregates_built);
        put("semantic.messages_merged", ss.messages_merged);
        put("semantic.disaggregations", ss.disaggregations);
        put("semantic.cross_group_batches", ss.cross_group_batches);
        put("semantic.cross_group_merged", ss.cross_group_merged);
    }
    if (bridge) {
        const auto& gc = gate->counters();
        put("gate.dropped_sends", gc.dropped_sends);
        put("gate.dropped_tasks", gc.dropped_tasks);
        put("gate.attaches", gc.attaches);
        const auto& bc = bridge->counters();
        put("chaos.applied", bc.applied);
        put("chaos.skipped", bc.skipped);
        put("chaos.crashes", bc.crashes);
        put("chaos.restarts", bc.restarts);
        put("chaos.wipes", bc.wipes);
        put("chaos.partitions", bc.partitions);
        put("chaos.heals", bc.heals);
        put("chaos.link_faults", bc.link_faults);
        put("chaos.link_fault_ends", bc.link_fault_ends);
        put("chaos.edges_dropped", bc.edges_dropped);
        put("chaos.edges_added", bc.edges_added);
    }
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    const int n = static_cast<int>(opt.cluster.size());

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);

    Reactor reactor;

    PaxosConfig pc;
    pc.n = n;
    pc.id = opt.id;
    pc.coordinator = 0;
    pc.seed = opt.seed;
    pc.failover_enabled = opt.failover;
    pc.heartbeat_interval = SimTime::seconds(opt.heartbeat_s);
    pc.suspect_after = SimTime::seconds(opt.suspect_after_s);
    // As in the simulator deployment: semantic filtering drops redundant
    // Phase 2b en route, so explicit heartbeats are always sent there.
    pc.heartbeat_piggyback = !opt.semantic;

    std::unique_ptr<PaxosSemantics> semantics;
    PassThroughHooks pass_through;
    GossipHooks* hooks = &pass_through;
    if (opt.semantic) {
        semantics = std::make_unique<PaxosSemantics>(opt.id, pc.quorum(),
                                                     PaxosSemantics::Options{});
        hooks = semantics.get();
    }

    // Deterministic in (n, degree, seed): every node derives the same
    // overlay and connects to its own neighbors. Kept as a live object
    // because chaos churn mutates it over the run.
    std::unique_ptr<Graph> overlay;
    std::vector<ProcessId> linked_peers;
    if (opt.mode == RealTransport::Mode::Gossip) {
        overlay = std::make_unique<Graph>(
            opt.degree > 0 ? make_random_overlay(n, opt.degree, opt.overlay_seed)
                           : make_connected_overlay(n, opt.overlay_seed));
        linked_peers = overlay->neighbors(opt.id);
    } else {
        for (ProcessId p = 0; p < n; ++p) {
            if (p != opt.id) linked_peers.push_back(p);
        }
    }

    // The socket stack is short-lived when chaos is on (a crash tears it
    // down, a restart rebinds and rebuilds it); PaxosProcess binds to the
    // stable GatedTransport facade for its whole lifetime. Without chaos the
    // facade stays attached forever and is pure pass-through.
    const PeerAddress& self_addr = opt.cluster[static_cast<std::size_t>(opt.id)];
    std::unique_ptr<ConnectionManager> conns;
    std::unique_ptr<UdpChannel> udp_channel;
    std::unique_ptr<ChaosDatagramChannel> chaos_channel;
    std::unique_ptr<UdpLink> udp_link;
    std::unique_ptr<RealTransport> transport;
    PeerChannel* chan = nullptr;
    std::uint8_t link_epoch = 0;
    GatedTransport gate(reactor, opt.id);
    if (!opt.chaos.empty() && opt.udp) {
        chaos_channel = std::make_unique<ChaosDatagramChannel>(reactor, opt.id,
                                                               opt.chaos_seed);
    }
    // Created before the first stack so every transport, including one a
    // chaos restart rebuilds, records its gossip stages.
    std::unique_ptr<trace::Tracer> tracer;
    if (!opt.trace_path.empty()) {
        tracer = std::make_unique<trace::Tracer>();
        tracer->set_payload_probe(paxos_payload_info);
    }

    const auto build_stack = [&]() -> bool {
        std::string err;
        if (opt.udp) {
            const int fd = open_udp(self_addr.host, self_addr.port, &err);
            if (fd < 0) {
                std::fprintf(stderr, "gossipd: udp bind on %s:%u failed: %s\n",
                             self_addr.host.c_str(), self_addr.port, err.c_str());
                return false;
            }
            udp_channel = std::make_unique<UdpChannel>(reactor, fd, opt.cluster);
            DatagramChannel* dchan = udp_channel.get();
            if (chaos_channel) {
                chaos_channel->set_inner(udp_channel.get());
                dchan = chaos_channel.get();
            }
            UdpLink::Params lp;
            lp.epoch = link_epoch;
            udp_link = std::make_unique<UdpLink>(reactor, opt.id, n, *dchan, lp);
            chan = udp_link.get();
        } else {
            const int listen_fd = listen_tcp(self_addr.host, self_addr.port, &err);
            if (listen_fd < 0) {
                std::fprintf(stderr, "gossipd: listen on %s:%u failed: %s\n",
                             self_addr.host.c_str(), self_addr.port, err.c_str());
                return false;
            }
            conns = std::make_unique<ConnectionManager>(reactor, opt.id, opt.cluster,
                                                        listen_fd,
                                                        ConnectionManager::Params{});
            chan = conns.get();
        }
        RealTransport::Params tp;
        tp.mode = opt.mode;
        if (overlay) tp.neighbors = overlay->neighbors(opt.id);
        transport = std::make_unique<RealTransport>(reactor, *chan, std::move(tp),
                                                    *hooks);
        transport->set_tracer(tracer.get());
        gate.attach(transport.get());
        return true;
    };
    if (!build_stack()) return 1;

    // The node's consensus stack: one PaxosProcess per group behind a
    // dispatcher on the gated substrate (DESIGN.md §15). --groups 1 is the
    // degenerate shard — one facade, behaviorally the single-group stack.
    group::GroupShard shard(pc, gate, opt.groups);

    // Chaos bridge: every node derives the identical schedule from
    // (n, profile, chaos-seed, overlay) — the same trick as the overlay
    // itself — and applies the events that touch it: crash/restart of its
    // own stack, outgoing-link faults (UDP only; each directed link is
    // enforced once, at the sender), and overlay churn. The rendered fault
    // log is byte-identical across all nodes of a run.
    std::vector<Value> submitted_values;  ///< re-offered after a wiped restart
    std::unique_ptr<ChaosBridge> bridge;
    if (!opt.chaos.empty()) {
        const ChaosProfile profile = chaos_profile_by_name(opt.chaos, argv[0]);
        FaultSchedule schedule = generate_chaos(n, pc.coordinator, profile,
                                                opt.chaos_seed, overlay.get(), opt.groups);
        ChaosBridge::Hooks ch;
        ch.crash_node = [&](ProcessId p) {
            if (p != opt.id) return;
            gate.detach();
            transport.reset();
            udp_link.reset();
            if (chaos_channel) chaos_channel->set_inner(nullptr);
            udp_channel.reset();
            conns.reset();
            chan = nullptr;
        };
        ch.restart_node = [&](ProcessId p, bool wiped) {
            if (p != opt.id) return;
            ++link_epoch;  // fresh link incarnation: peers reset dedup state
            if (!build_stack()) {
                g_signal = 1;  // rebind failed: shut down instead of limping
                return;
            }
            if (wiped) {
                for (GroupId g = 0; g < opt.groups; ++g) {
                    shard.process(g).wipe_state();
                }
                // The durable client re-offers everything this node ever
                // submitted; coordinator value dedup absorbs re-proposals
                // of already-decided values.
                for (const Value& v : submitted_values) shard.post_submit(v);
            }
        };
        if (chaos_channel) {
            ch.set_link = [&](ProcessId from, ProcessId to,
                              const fault::DatagramFaultSpec& spec) {
                if (from == opt.id) chaos_channel->set_fault(to, spec);
            };
            ch.clear_link = [&](ProcessId from, ProcessId to) {
                if (from == opt.id) chaos_channel->clear_fault(to);
            };
        }
        if (overlay) {
            ch.overlay = overlay.get();
            ch.drop_edge = [&](ProcessId a, ProcessId b) {
                if (!transport) return;
                if (a == opt.id) transport->remove_peer(b);
                if (b == opt.id) transport->remove_peer(a);
            };
            ch.add_edge = [&](ProcessId a, ProcessId b) {
                if (!transport) return;
                if (a == opt.id) transport->add_peer(b);
                if (b == opt.id) transport->add_peer(a);
            };
        }
        bridge = std::make_unique<ChaosBridge>(reactor, n, std::move(schedule),
                                               std::move(ch));
    }

    if (tracer) {
        for (GroupId g = 0; g < opt.groups; ++g) {
            shard.process(g).set_tracer(tracer.get());
        }
    }

    std::ofstream decision_log;
    if (!opt.decision_log.empty()) {
        decision_log.open(opt.decision_log, std::ios::trunc);
        if (!decision_log) {
            std::fprintf(stderr, "gossipd: cannot open decision log %s\n",
                         opt.decision_log.c_str());
            return 1;
        }
    }
    long delivered = 0;
    // Per-group delivered frontier, maintained from the listener's instance
    // numbers. Frontier-based, not count-based: each group's deliveries are
    // in instance order and gap-free, so the frontiers' sum counts distinct
    // learned decisions. A chaos wipe re-delivers from instance 1 — counting
    // those duplicates would declare the expectation met while the tail is
    // still unlearned.
    std::vector<InstanceId> group_frontier(static_cast<std::size_t>(opt.groups), 0);
    long decided_distinct = 0;
    SimTime expect_met_at = SimTime::max();
    for (GroupId g = 0; g < opt.groups; ++g) {
        shard.process(g).set_delivery_listener(
            [&, g](InstanceId instance, const Value& value, CpuContext& ctx) {
                ++delivered;
                if (decision_log.is_open()) {
                    // Leading group column only under sharding: single-group
                    // logs stay byte-compatible with existing tooling.
                    if (opt.groups > 1) decision_log << g << ' ';
                    decision_log << instance << ' ' << value.id.client << ' '
                                 << value.id.seq << '\n';
                }
                InstanceId& f = group_frontier[static_cast<std::size_t>(g)];
                if (instance > f) {
                    decided_distinct += static_cast<long>(instance - f);
                    f = instance;
                    if (opt.expect > 0 && decided_distinct >= opt.expect &&
                        expect_met_at == SimTime::max()) {
                        expect_met_at = ctx.now();
                    }
                }
            });
    }

    // Start the protocol once the connection mesh is up (or after a grace
    // period if some peer never appears): the coordinator's initial Phase 1a
    // would otherwise leave before any TCP link exists and its retry waits
    // out a full retransmission timeout. Messages lost to stragglers after
    // the start are covered by retransmission as usual.
    long submitted = 0;
    bool started = false;
    Reactor::TimerId submit_timer = 0;
    const SimTime start_grace_deadline = reactor.now() + SimTime::seconds(3.0);
    const auto start_protocol = [&] {
        started = true;
        // Arm the fault schedule relative to protocol start: the profile's
        // quiet window then follows mesh establishment on every node.
        if (bridge) bridge->arm();
        shard.post_start();
        // Client submissions, paced at --rate.
        if (opt.submit > 0) {
            const auto interval = SimTime::seconds(1.0 / opt.rate);
            submit_timer = reactor.schedule_every(interval, [&] {
                if (submitted >= opt.submit) {
                    reactor.cancel_timer(submit_timer);
                    return;
                }
                // A crashed node's client defers, exactly like the harness
                // retrying a submission aimed at a down owner.
                if (bridge && bridge->crashed(opt.id)) return;
                Value v;
                v.id = ValueId{opt.id, submitted++};
                v.size_bytes = opt.value_size;
                if (bridge) submitted_values.push_back(v);
                shard.post_submit(v);
            });
        }
    };
    Reactor::TimerId mesh_poll = reactor.schedule_every(SimTime::millis(5), [&] {
        if (started) {
            reactor.cancel_timer(mesh_poll);
            return;
        }
        bool all_up = true;
        for (const ProcessId p : linked_peers) all_up = all_up && chan->peer_up(p);
        if (all_up || reactor.now() >= start_grace_deadline) {
            reactor.cancel_timer(mesh_poll);
            start_protocol();
        }
    });

    const SimTime deadline = reactor.now() + SimTime::seconds(opt.run_for_s);
    const SimTime linger = SimTime::seconds(opt.linger_s);
    reactor.set_interrupt_check([&] {
        if (g_signal) return true;
        if (reactor.now() >= deadline) return true;
        // After the expectation is met, linger so peers still catching up can
        // pull the tail of the sequence through this node.
        return expect_met_at < SimTime::max() && reactor.now() >= expect_met_at + linger;
    });
    reactor.run();

    if (decision_log.is_open()) decision_log.close();
    if (tracer) {
        std::ofstream trace_out(opt.trace_path, std::ios::trunc);
        if (trace_out) tracer->export_jsonl(trace_out);
    }
    if (!opt.metrics_path.empty()) {
        std::FILE* out = opt.metrics_path == "-"
                             ? stderr
                             : std::fopen(opt.metrics_path.c_str(), "w");
        if (out) {
            dump_metrics(out, opt, transport.get(), conns.get(), udp_link.get(), shard,
                         semantics.get(), &gate, bridge.get());
            if (out != stderr) std::fclose(out);
        }
    }
    if (bridge && !opt.chaos_log.empty()) {
        std::ofstream chaos_out(opt.chaos_log, std::ios::trunc);
        if (chaos_out) chaos_out << bridge->rendered_log();
    }

    const bool ok = opt.expect == 0 || expect_met_at < SimTime::max();
    std::fprintf(stderr, "gossipd: node %d delivered %ld decision(s)%s\n", opt.id,
                 delivered, ok ? "" : " (short of --expect)");
    return ok ? 0 : 1;
}
