// Runtime transport bench (DESIGN.md §12): UDP vs TCP delivery reliability
// and latency under injected datagram loss.
//
// Every leg runs the real runtime stack — one runtime::NodeStack per node
// (Reactor, RealTransport, the gated shard, PaxosSemantics) inside one
// process — and orders the same client-value workload; what varies is the
// channel underneath:
//
//   tcp_semantic            TCP streams over real loopback sockets
//                           (the clean-path reference)
//   udp_semantic            UdpLink over the in-process datagram harness,
//                           no faults
//   udp_semantic_loss20     same link with 20% loss + duplication + reorder
//   udp_tcplike_loss20      same lossy link with force_reliable: every body
//                           retransmitted until acked — the TCP-equivalent
//                           service over identical loss, which is the
//                           apples-to-apples p99 comparison the stream
//                           transport itself cannot provide (it cannot ride
//                           the datagram harness)
//   udp_direct_loss20       Direct (no gossip redundancy) over the lossy
//                           link: the reliability layer alone carries Paxos
//
// Per leg: ordered fraction, client-observed latency p50/p99, datagram
// delivery fraction, retransmits, duplicate deliveries. Unlike the
// simulator benches these run on the wall clock, so the pinned baseline
// tracks ballpark shifts, not exact values. The bench exits non-zero when a
// leg leaves any value unordered.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/datagram_faults.hpp"
#include "overlay/random_overlay.hpp"
#include "runtime/lossy_link.hpp"
#include "runtime/node_stack.hpp"
#include "runtime/tcp.hpp"
#include "stats/histogram.hpp"

namespace gossipc::bench {
namespace {

using runtime::LossyDatagramNetwork;
using runtime::NodeStack;
using runtime::Reactor;

struct LegConfig {
    std::string name{};
    bool tcp = false;
    Setup setup = Setup::SemanticGossip;
    fault::DatagramFaultSpec faults{};
    bool force_reliable = false;
    int n = 5;
    int values = 200;
};

struct LegResult {
    double ordered_fraction = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double datagram_delivery = 1.0;  ///< delivered / (sent + duplicated)
    double retransmits = 0.0;
    double duplicate_datagrams = 0.0;
};

LegResult run_leg(const LegConfig& leg) {
    Reactor reactor;
    const int n = leg.n;

    // Channel setup: either a shared lossy datagram harness or real
    // loopback TCP listeners on ephemeral ports.
    std::unique_ptr<LossyDatagramNetwork> net;
    std::vector<int> listen_fds;
    std::vector<runtime::PeerAddress> cluster;
    if (!leg.tcp) {
        net = std::make_unique<LossyDatagramNetwork>(reactor, n, /*seed=*/2026);
        net->set_default_fault(leg.faults);
    } else {
        for (int i = 0; i < n; ++i) {
            std::string err;
            const int fd = runtime::listen_tcp("127.0.0.1", 0, &err);
            if (fd < 0) {
                std::fprintf(stderr, "listen_tcp: %s\n", err.c_str());
                std::exit(1);
            }
            listen_fds.push_back(fd);
            cluster.push_back(runtime::PeerAddress{"127.0.0.1", runtime::local_port(fd)});
        }
    }

    const Graph overlay = make_connected_overlay(n, 42);
    std::vector<std::size_t> delivered(static_cast<std::size_t>(n), 0);
    Histogram latencies_ms;
    std::map<std::int64_t, SimTime> submitted_at;  ///< by ValueId seq (node 0 owns all)
    std::vector<std::unique_ptr<NodeStack>> nodes;

    for (int i = 0; i < n; ++i) {
        NodeStack::Params sp;
        sp.setup = leg.setup;
        sp.paxos.n = n;
        sp.paxos.id = i;
        sp.neighbors = overlay.neighbors(i);
        sp.link.force_reliable = leg.force_reliable;
        NodeStack::Channel channel;
        if (leg.tcp) {
            channel.cluster = cluster;
            channel.bound_fd = listen_fds[static_cast<std::size_t>(i)];
        } else {
            channel.kind = NodeStack::Channel::Kind::Endpoint;
            channel.endpoint = &net->endpoint(i);
        }
        nodes.push_back(std::make_unique<NodeStack>(reactor, std::move(sp), std::move(channel)));
        nodes.back()->shard().process(0).set_delivery_listener(
            [&, i](InstanceId, const Value& value, CpuContext&) {
                ++delivered[static_cast<std::size_t>(i)];
                if (i != 0) return;
                if (const auto it = submitted_at.find(value.id.seq); it != submitted_at.end()) {
                    latencies_ms.add((reactor.now() - it->second).as_nanos() / 1e6);
                    submitted_at.erase(it);
                }
            });
    }

    if (leg.tcp) {
        // Wait for the TCP mesh; UDP needs no handshake.
        reactor.run_until(
            [&] {
                for (const auto& node : nodes) {
                    if (!node->links_up()) return false;
                }
                return true;
            },
            SimTime::seconds(10));
    }

    for (auto& node : nodes) node->shard().post_start();

    // All values are submitted by node 0, which also timestamps them; a
    // paced drip (one value per 500us) keeps queueing delay out of the
    // latency signal so p99 reflects the transport, not the burst.
    const int total = leg.values;
    std::int64_t next = 0;
    Reactor::TimerId drip = reactor.schedule_every(SimTime::micros(500), [&] {
        if (next >= total) return;
        Value value;
        value.id = ValueId{0, next};
        submitted_at[next] = reactor.now();
        ++next;
        nodes[0]->submit(value);
    });

    const bool converged = reactor.run_until(
        [&] {
            if (next < total) return false;
            for (const std::size_t d : delivered) {
                if (d < static_cast<std::size_t>(total)) return false;
            }
            return true;
        },
        SimTime::seconds(60));
    reactor.cancel_timer(drip);
    if (!converged) {
        std::fprintf(stderr, "  %s: WARNING — not all values ordered in time\n",
                     leg.name.c_str());
    }

    LegResult out;
    std::size_t min_delivered = static_cast<std::size_t>(total);
    for (const std::size_t d : delivered) min_delivered = std::min(min_delivered, d);
    out.ordered_fraction = static_cast<double>(min_delivered) / total;
    if (!latencies_ms.empty()) {
        out.p50_ms = latencies_ms.percentile(50);
        out.p99_ms = latencies_ms.percentile(99);
    }
    if (net) {
        const auto& c = net->counters();
        const double offered = static_cast<double>(c.sent + c.duplicated);
        if (offered > 0) out.datagram_delivery = static_cast<double>(net->delivered()) / offered;
    }
    for (const auto& node : nodes) {
        MetricsRegistry reg;
        node->fill_metrics(reg);
        if (leg.tcp) continue;
        out.retransmits += static_cast<double>(reg.counter("udp.link.retransmits").value +
                                               reg.counter("udp.link.fast_retransmits").value);
        out.duplicate_datagrams +=
            static_cast<double>(reg.counter("udp.link.duplicate_datagrams").value);
    }
    return out;
}

}  // namespace
}  // namespace gossipc::bench

int main() {
    using namespace gossipc;
    using namespace gossipc::bench;

    print_header("Runtime transport: UDP vs TCP under injected loss");

    fault::DatagramFaultSpec loss20;
    loss20.loss = 0.20;
    loss20.duplicate = 0.10;
    loss20.reorder_window = SimTime::millis(2);

    const std::vector<LegConfig> legs = {
        {.name = "tcp_semantic", .tcp = true},
        {.name = "udp_semantic"},
        {.name = "udp_semantic_loss20", .faults = loss20},
        {.name = "udp_tcplike_loss20", .faults = loss20, .force_reliable = true},
        {.name = "udp_direct_loss20", .setup = Setup::Baseline, .faults = loss20, .n = 3},
    };

    BenchReport report("runtime_udp");
    std::printf("%-22s %8s %9s %9s %9s %9s %7s\n", "leg", "ordered", "p50_ms",
                "p99_ms", "dgram_ok", "retx", "dups");
    print_rule();
    bool all_ordered = true;
    for (const auto& leg : legs) {
        const LegResult r = run_leg(leg);
        all_ordered = all_ordered && r.ordered_fraction >= 1.0;
        std::printf("%-22s %8.4f %9.3f %9.3f %9.4f %9.0f %7.0f\n", leg.name.c_str(),
                    r.ordered_fraction, r.p50_ms, r.p99_ms, r.datagram_delivery,
                    r.retransmits, r.duplicate_datagrams);
        report.add(leg.name + ".ordered_fraction", r.ordered_fraction, "frac", true);
        report.add(leg.name + ".latency_p50_ms", r.p50_ms, "ms", false);
        report.add(leg.name + ".latency_p99_ms", r.p99_ms, "ms", false);
        report.add(leg.name + ".datagram_delivery", r.datagram_delivery, "frac", true);
        report.add(leg.name + ".retransmits", r.retransmits, "count", false);
    }
    report.write();
    if (!all_ordered) {
        std::fprintf(stderr, "bench_runtime_udp: a leg left values unordered\n");
        return 1;
    }
    return 0;
}
