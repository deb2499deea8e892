#include "runtime/runtime_metrics.hpp"

#include <string>

namespace gossipc::runtime {

namespace {

std::string peer_key(const char* prefix, ProcessId peer, const char* metric) {
    return std::string(prefix) + std::to_string(peer) + '.' + metric;
}

}  // namespace

void fill_metrics(MetricsRegistry& reg, const GossipNode::Counters& c) {
    reg.counter("gossip.broadcasts").set(c.broadcasts);
    reg.counter("gossip.envelopes_received").set(c.envelopes_received);
    reg.counter("gossip.envelopes_sent").set(c.envelopes_sent);
    reg.counter("gossip.messages_received").set(c.messages_received);
    reg.counter("gossip.duplicates").set(c.duplicates);
    reg.counter("gossip.delivered").set(c.delivered);
    reg.counter("gossip.filtered").set(c.filtered);
    reg.counter("gossip.aggregated_away").set(c.aggregated_away);
    reg.counter("gossip.send_queue_drops").set(c.send_queue_drops);
    reg.counter("gossip.pull_rounds").set(c.pull_rounds);
    reg.counter("gossip.pull_served").set(c.pull_served);
    reg.counter("gossip.pipelined_forwards").set(c.pipelined_forwards);
    reg.counter("gossip.fanout_limited").set(c.fanout_limited);
    reg.counter("gossip.fanout_widened").set(c.fanout_widened);
}

void fill_metrics(MetricsRegistry& reg, const RealTransport::Counters& c) {
    fill_metrics(reg, static_cast<const GossipNode::Counters&>(c));
    reg.counter("transport.bad_aggregates").set(c.bad_aggregates);
    reg.counter("transport.decode_errors").set(c.decode_errors);
}

void fill_metrics(MetricsRegistry& reg, const PaxosProcess::Counters& c) {
    reg.counter("paxos.values_submitted").set(c.values_submitted);
    reg.counter("paxos.messages_handled").set(c.messages_handled);
    reg.counter("paxos.learn_requests_sent").set(c.learn_requests_sent);
    reg.counter("paxos.learn_requests_answered").set(c.learn_requests_answered);
    reg.counter("paxos.value_retransmissions").set(c.value_retransmissions);
    reg.counter("failover.takeovers").set(c.takeovers);
    reg.counter("failover.step_downs").set(c.step_downs);
    static constexpr const char* kHandledNames[PaxosProcess::Counters::kNumMsgTypes] = {
        "paxos.handled.client_value",      "paxos.handled.phase1a",
        "paxos.handled.phase1b",           "paxos.handled.phase2a",
        "paxos.handled.phase2b",           "paxos.handled.phase2b_aggregate",
        "paxos.handled.decision",          "paxos.handled.learn_request",
        "paxos.handled.heartbeat",         "paxos.handled.group_batch"};
    for (std::size_t t = 0; t < PaxosProcess::Counters::kNumMsgTypes; ++t) {
        reg.counter(kHandledNames[t]).set(c.handled_by_type[t]);
    }
}

void fill_metrics(MetricsRegistry& reg, const Coordinator::Counters& c) {
    reg.counter("paxos.values_shed").set(c.values_shed);
    reg.counter("paxos.batches_proposed").set(c.batches_proposed);
    reg.counter("paxos.batched_values").set(c.batched_values);
    reg.counter("paxos.batch_timer_flushes").set(c.timer_flushes);
}

void fill_metrics(MetricsRegistry& reg, const std::vector<PaxosProcess*>& procs) {
    PaxosProcess::Counters pc;
    Coordinator::Counters cc;
    for (const PaxosProcess* p : procs) {
        const PaxosProcess::Counters& c = p->counters();
        pc.values_submitted += c.values_submitted;
        pc.messages_handled += c.messages_handled;
        pc.learn_requests_sent += c.learn_requests_sent;
        pc.learn_requests_answered += c.learn_requests_answered;
        pc.value_retransmissions += c.value_retransmissions;
        pc.takeovers += c.takeovers;
        pc.step_downs += c.step_downs;
        for (std::size_t t = 0; t < PaxosProcess::Counters::kNumMsgTypes; ++t) {
            pc.handled_by_type[t] += c.handled_by_type[t];
        }
        if (const Coordinator* coord = p->coordinator()) {
            const Coordinator::Counters& k = coord->counters();
            cc.values_shed += k.values_shed;
            cc.batches_proposed += k.batches_proposed;
            cc.batched_values += k.batched_values;
            cc.timer_flushes += k.timer_flushes;
        }
    }
    fill_metrics(reg, pc);
    fill_metrics(reg, cc);
}

void fill_metrics(MetricsRegistry& reg, const FailureDetector::Counters& c) {
    reg.counter("failover.heartbeats_sent").set(c.heartbeats_sent);
    reg.counter("failover.heartbeats_suppressed").set(c.heartbeats_suppressed);
    reg.counter("failover.suspicions").set(c.suspicions);
    reg.counter("failover.restores").set(c.restores);
}

void fill_metrics(MetricsRegistry& reg, const FailureDetector& detector, int cluster_size) {
    fill_metrics(reg, detector.counters());
    for (ProcessId p = 0; p < cluster_size; ++p) {
        reg.gauge(peer_key("detector.suspect.", p, "now"))
            .set(detector.suspects(p) ? 1.0 : 0.0);
    }
}

void fill_metrics(MetricsRegistry& reg, const PaxosSemantics::Stats& s) {
    reg.counter("semantic.filtered_phase2b").set(s.filtered_phase2b);
    reg.counter("semantic.aggregates_built").set(s.aggregates_built);
    reg.counter("semantic.messages_merged").set(s.messages_merged);
    reg.counter("semantic.disaggregations").set(s.disaggregations);
    reg.counter("semantic.cross_group_batches").set(s.cross_group_batches);
    reg.counter("semantic.cross_group_merged").set(s.cross_group_merged);
}

void fill_metrics(MetricsRegistry& reg, const group::GroupDispatcher::Counters& c) {
    reg.counter("group.routed").set(c.routed);
    reg.counter("group.heartbeats_fanned").set(c.heartbeats_fanned);
    reg.counter("group.unroutable").set(c.unroutable);
}

void fill_metrics(MetricsRegistry& reg, const UdpLink& link) {
    const UdpLink::Counters& c = link.counters();
    reg.counter("udp.link.datagrams_sent").set(c.datagrams_sent);
    reg.counter("udp.link.datagrams_received").set(c.datagrams_received);
    reg.counter("udp.link.bytes_sent").set(c.bytes_sent);
    reg.counter("udp.link.bytes_received").set(c.bytes_received);
    reg.counter("udp.link.bodies_sent").set(c.bodies_sent);
    reg.counter("udp.link.bodies_received").set(c.bodies_received);
    reg.counter("udp.link.acks_only_sent").set(c.acks_only_sent);
    reg.counter("udp.link.jumbo_datagrams").set(c.jumbo_datagrams);
    reg.counter("udp.link.retransmits").set(c.retransmits);
    reg.counter("udp.link.fast_retransmits").set(c.fast_retransmits);
    reg.counter("udp.link.reliable_acked").set(c.reliable_acked);
    reg.counter("udp.link.reliable_dropped").set(c.reliable_dropped);
    reg.counter("udp.link.duplicate_datagrams").set(c.duplicate_datagrams);
    reg.counter("udp.link.stale_datagrams").set(c.stale_datagrams);
    reg.counter("udp.link.duplicate_reliables").set(c.duplicate_reliables);
    reg.counter("udp.link.decode_errors").set(c.decode_errors);
    reg.counter("udp.link.send_failures").set(c.send_failures);
    reg.counter("udp.link.epoch_resets").set(c.epoch_resets);
    reg.counter("udp.link.seq_history_evictions").set(c.seq_history_evictions);
    for (ProcessId p = 0; p < link.size(); ++p) {
        if (p == link.self()) continue;
        const UdpLink::PeerStats st = link.peer_stats(p);
        reg.gauge(peer_key("udp.peer.", p, "heard")).set(st.heard ? 1.0 : 0.0);
        reg.gauge(peer_key("udp.peer.", p, "unacked")).set(static_cast<double>(st.unacked));
        reg.gauge(peer_key("udp.peer.", p, "max_rto_ms"))
            .set(static_cast<double>(st.max_rto.as_nanos()) / 1e6);
    }
}

void fill_metrics(MetricsRegistry& reg, const ConnectionManager::Counters& c) {
    reg.counter("conn.dials").set(c.dials);
    reg.counter("conn.accepts").set(c.accepts);
    reg.counter("conn.links_up").set(c.links_up);
    reg.counter("conn.disconnects").set(c.disconnects);
    reg.counter("conn.frames_sent").set(c.frames_sent);
    reg.counter("conn.frames_received").set(c.frames_received);
    reg.counter("conn.bytes_sent").set(c.bytes_sent);
    reg.counter("conn.writes").set(c.writes);
    reg.counter("conn.bytes_received").set(c.bytes_received);
    reg.counter("conn.send_drops_down").set(c.send_drops_down);
    reg.counter("conn.send_drops_backpressure").set(c.send_drops_backpressure);
    reg.counter("conn.protocol_errors").set(c.protocol_errors);
}

void fill_metrics(MetricsRegistry& reg, const GatedTransport::Counters& c) {
    reg.counter("gate.dropped_sends").set(c.dropped_sends);
    reg.counter("gate.dropped_tasks").set(c.dropped_tasks);
    reg.counter("gate.attaches").set(c.attaches);
}

void fill_metrics(MetricsRegistry& reg, const ChaosBridge::Counters& c) {
    reg.counter("chaos.applied").set(c.applied);
    reg.counter("chaos.skipped").set(c.skipped);
    reg.counter("chaos.crashes").set(c.crashes);
    reg.counter("chaos.restarts").set(c.restarts);
    reg.counter("chaos.wipes").set(c.wipes);
    reg.counter("chaos.partitions").set(c.partitions);
    reg.counter("chaos.heals").set(c.heals);
    reg.counter("chaos.link_faults").set(c.link_faults);
    reg.counter("chaos.link_fault_ends").set(c.link_fault_ends);
    reg.counter("chaos.edges_dropped").set(c.edges_dropped);
    reg.counter("chaos.edges_added").set(c.edges_added);
}

void fill_metrics(MetricsRegistry& reg, const DatagramFaultApplier::Counters& c) {
    reg.counter("lossynet.sent").set(c.sent);
    reg.counter("lossynet.dropped").set(c.dropped);
    reg.counter("lossynet.duplicated").set(c.duplicated);
    reg.counter("lossynet.reordered").set(c.reordered);
    reg.counter("lossynet.truncated").set(c.truncated);
}

void fill_metrics(MetricsRegistry& reg, const LossyDatagramNetwork& net) {
    fill_metrics(reg, net.counters());
    reg.counter("lossynet.delivered").set(net.delivered());
}

}  // namespace gossipc::runtime
