// gossipd — one gossip-consensus node as a real OS process (DESIGN.md §10).
//
// Runs the unmodified protocol stack (PaxosProcess + FailureDetector) over
// the real-socket runtime, assembled by runtime::NodeStack: the wire codec,
// the poll reactor, and either TCP streams or the UDP link layer
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
#include <algorithm>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_parse.hpp"
#include "fault/chaos.hpp"
#include "overlay/random_overlay.hpp"
#include "paxos/message.hpp"
#include "runtime/chaos_bridge.hpp"
#include "runtime/lossy_link.hpp"
#include "runtime/node_stack.hpp"
#include "runtime/runtime_metrics.hpp"
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
    Setup setup = Setup::SemanticGossip;
    bool udp = false;
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
    char* end = nullptr;
    const long port = std::strtol(spec.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || port <= 0 || port > 65535) return false;
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
        const auto num = [&] { return cli::parse_num(usage, argv[0], arg, next()); };
        const auto intval = [&] { return cli::parse_int(usage, argv[0], arg, next()); };
        const auto u64val = [&] { return cli::parse_u64(usage, argv[0], arg, next()); };
        // Saturated to int, so a value beyond int stays out of the ranges
        // validated below instead of wrapping into them.
        const auto int32 = [&] {
            return static_cast<int>(std::clamp<long long>(intval(), INT_MIN, INT_MAX));
        };
        if (arg == "--id") {
            opt.id = int32();
        } else if (arg == "--cluster") {
            opt.cluster = parse_cluster_list(next(), argv[0]);
        } else if (arg == "--config") {
            opt.cluster = parse_cluster_file(next(), argv[0]);
        } else if (arg == "--setup") {
            const std::string v = next();
            if (v == "baseline") {
                opt.setup = Setup::Baseline;
            } else if (v == "gossip") {
                opt.setup = Setup::Gossip;
            } else if (v == "semantic") {
                opt.setup = Setup::SemanticGossip;
            } else {
                usage(argv[0], "bad --setup (want baseline|gossip|semantic)");
            }
        } else if (arg == "--groups") {
            opt.groups = int32();
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
            opt.degree = int32();
        } else if (arg == "--overlay-seed") {
            opt.overlay_seed = u64val();
        } else if (arg == "--seed") {
            opt.seed = u64val();
        } else if (arg == "--failover") {
            opt.failover = true;
        } else if (arg == "--heartbeat") {
            opt.heartbeat_s = num();
        } else if (arg == "--suspect-after") {
            opt.suspect_after_s = num();
        } else if (arg == "--submit") {
            opt.submit = intval();
        } else if (arg == "--rate") {
            opt.rate = num();
        } else if (arg == "--value-size") {
            // Peers reject a value above the wire's limit as Oversized.
            const long long size = intval();
            if (size < 1 || size > static_cast<long long>(wire::kMaxValueBytes)) {
                usage(argv[0], ("--value-size must be in [1, " +
                                std::to_string(wire::kMaxValueBytes) + "]").c_str());
            }
            opt.value_size = static_cast<std::uint32_t>(size);
        } else if (arg == "--expect") {
            opt.expect = intval();
        } else if (arg == "--run-for") {
            opt.run_for_s = num();
        } else if (arg == "--linger") {
            opt.linger_s = num();
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
            opt.chaos_seed = u64val();
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
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_options(argc, argv);
    const int n = static_cast<int>(opt.cluster.size());

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);

    Reactor reactor;

    NodeStack::Params sp;
    sp.setup = opt.setup;
    sp.groups = opt.groups;
    sp.paxos.n = n;
    sp.paxos.id = opt.id;
    sp.paxos.coordinator = 0;
    sp.paxos.seed = opt.seed;
    sp.paxos.failover_enabled = opt.failover;
    sp.paxos.heartbeat_interval = SimTime::seconds(opt.heartbeat_s);
    sp.paxos.suspect_after = SimTime::seconds(opt.suspect_after_s);

    // Deterministic in (n, degree, seed): every node derives the same
    // overlay and connects to its own neighbors. Kept as a live object
    // because chaos churn mutates it over the run.
    std::unique_ptr<Graph> overlay;
    if (opt.setup != Setup::Baseline) {
        overlay = std::make_unique<Graph>(
            opt.degree > 0 ? make_random_overlay(n, opt.degree, opt.overlay_seed)
                           : make_connected_overlay(n, opt.overlay_seed));
        sp.neighbors = overlay->neighbors(opt.id);
    }

    NodeStack::Channel channel;
    channel.kind = opt.udp ? NodeStack::Channel::Kind::Udp : NodeStack::Channel::Kind::Tcp;
    channel.cluster = opt.cluster;
    // With --transport udp the chaos schedule's link faults apply to this
    // node's outgoing datagrams, at the sender.
    std::unique_ptr<ChaosDatagramChannel> faults;
    if (!opt.chaos.empty() && opt.udp) {
        faults = std::make_unique<ChaosDatagramChannel>(reactor, opt.id, opt.chaos_seed);
        channel.faults = faults.get();
    }
    std::unique_ptr<trace::Tracer> tracer;
    if (!opt.trace_path.empty()) {
        tracer = std::make_unique<trace::Tracer>();
        tracer->set_payload_probe(paxos_payload_info);
    }

    // One PaxosProcess per group behind a dispatcher, on a gated socket
    // stack that --chaos may crash and restart (DESIGN.md §13, §15).
    std::unique_ptr<NodeStack> stack;
    try {
        stack = std::make_unique<NodeStack>(reactor, std::move(sp), std::move(channel),
                                            tracer.get());
    } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "gossipd: %s\n", e.what());
        return 1;
    }
    group::GroupShard& shard = stack->shard();

    // Chaos bridge: every node derives the identical schedule from
    // (n, profile, chaos-seed, overlay) — the same trick as the overlay
    // itself — and applies the events that touch it: crash/restart of its
    // own stack, partitions and outgoing-link faults (UDP only; each
    // directed link is enforced once, at the sender), and overlay churn. The
    // rendered fault log is byte-identical across all nodes of a run.
    std::unique_ptr<ChaosBridge> bridge;
    if (!opt.chaos.empty()) {
        const ChaosProfile profile = chaos_profile_by_name(opt.chaos, argv[0]);
        FaultSchedule schedule = generate_chaos(n, 0, profile, opt.chaos_seed,
                                                overlay.get(), opt.groups);
        ChaosBridge::Hooks ch;
        ch.crash_node = [&](ProcessId p) { if (p == opt.id) stack->crash(); };
        ch.restart_node = [&](ProcessId p, bool wiped) {
            if (p != opt.id) return;
            try {
                stack->restart(wiped);
            } catch (const std::runtime_error& e) {
                std::fprintf(stderr, "gossipd: %s\n", e.what());
                g_signal = 1;  // rebind failed: shut down instead of limping
            }
        };
        if (faults) {
            ch.set_link = [&](ProcessId from, ProcessId to,
                              const fault::DatagramFaultSpec& spec) {
                if (from == opt.id) faults->set_link_fault(to, spec);
            };
            ch.clear_link = [&](ProcessId from, ProcessId to) {
                if (from == opt.id) faults->clear_link_fault(to);
            };
        }
        if (overlay) {
            ch.overlay = overlay.get();
            ch.drop_edge = [&](ProcessId a, ProcessId b) {
                if (a == opt.id) stack->remove_peer(b);
                if (b == opt.id) stack->remove_peer(a);
            };
            ch.add_edge = [&](ProcessId a, ProcessId b) {
                if (a == opt.id) stack->add_peer(b);
                if (b == opt.id) stack->add_peer(a);
            };
        }
        bridge = std::make_unique<ChaosBridge>(reactor, n, std::move(schedule),
                                               std::move(ch));
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
    const SimTime deadline = reactor.now() + SimTime::seconds(opt.run_for_s);
    const SimTime linger = SimTime::seconds(opt.linger_s);
    reactor.run_until([&] { return g_signal != 0 || stack->links_up(); }, SimTime::seconds(3.0));
    // Fault events fire at reactor time, counted from process start, not
    // from protocol start: the profile's quiet window covers mesh
    // establishment, and an event already due fires at once.
    if (bridge) bridge->arm();
    shard.post_start();
    // Client submissions, paced at --rate.
    long submitted = 0;
    Reactor::TimerId submit_timer = 0;
    if (opt.submit > 0) {
        submit_timer = reactor.schedule_every(SimTime::seconds(1.0 / opt.rate), [&] {
            if (submitted >= opt.submit) {
                reactor.cancel_timer(submit_timer);
                return;
            }
            // A crashed node's client defers, exactly like the harness
            // retrying a submission aimed at a down owner.
            if (!stack->up()) return;
            Value v;
            v.id = ValueId{opt.id, submitted++};
            v.size_bytes = opt.value_size;
            stack->submit(v);
        });
    }
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
            MetricsRegistry reg;
            stack->fill_metrics(reg);
            if (bridge) fill_metrics(reg, bridge->counters());
            for (const MetricsRegistry::Sample& m : reg.snapshot()) {
                std::fprintf(out, "%s %.15g\n", m.name.c_str(), m.value);
            }
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
