// Metric fillers (DESIGN.md §9): one per counter struct, so a counter has
// one registry name on both substrates. The simulator's Deployment calls
// them with counters summed over its nodes; the runtime's NodeStack calls
// them for its one node.
//
// Names the simulator publishes (gossip.*, paxos.*, semantic.*, group.*,
// failover.*) are shared with the runtime. Runtime-only counters keep their
// own families: udp.link.*, conn.*, transport.*, gate.*, chaos.* and
// lossynet.* (the datagram fault layer, in-process harness or real socket).
// Per-peer gauges land under "udp.peer.<id>." and "detector.suspect.<id>."
// sub-keys built at fill time; every fixed name is a literal so the
// snapshot tests pin it against renames and drops. Fillers set (never add),
// so refilling a registry is idempotent.
#pragma once

#include <vector>

#include "detect/failure_detector.hpp"
#include "gossip/gossip_node.hpp"
#include "group/group_transport.hpp"
#include "paxos/coordinator.hpp"
#include "paxos/process.hpp"
#include "runtime/chaos_bridge.hpp"
#include "runtime/conn_manager.hpp"
#include "runtime/gated_transport.hpp"
#include "runtime/lossy_link.hpp"
#include "runtime/real_transport.hpp"
#include "runtime/udp_link.hpp"
#include "semantic/paxos_semantics.hpp"
#include "stats/registry.hpp"

namespace gossipc::runtime {

void fill_metrics(MetricsRegistry& reg, const GossipNode::Counters& c);
/// The gossip counters plus the runtime-only transport.* ones.
void fill_metrics(MetricsRegistry& reg, const RealTransport::Counters& c);
void fill_metrics(MetricsRegistry& reg, const PaxosProcess::Counters& c);
void fill_metrics(MetricsRegistry& reg, const Coordinator::Counters& c);
/// PaxosProcess and Coordinator counters summed over `procs`.
void fill_metrics(MetricsRegistry& reg, const std::vector<PaxosProcess*>& procs);
void fill_metrics(MetricsRegistry& reg, const FailureDetector::Counters& c);
/// The detector's counters plus one suspect gauge per peer.
void fill_metrics(MetricsRegistry& reg, const FailureDetector& detector, int cluster_size);
void fill_metrics(MetricsRegistry& reg, const PaxosSemantics::Stats& s);
void fill_metrics(MetricsRegistry& reg, const group::GroupDispatcher::Counters& c);
/// UdpLink counters plus per-peer retransmit-pressure gauges.
void fill_metrics(MetricsRegistry& reg, const UdpLink& link);
void fill_metrics(MetricsRegistry& reg, const ConnectionManager::Counters& c);
void fill_metrics(MetricsRegistry& reg, const GatedTransport::Counters& c);
void fill_metrics(MetricsRegistry& reg, const ChaosBridge::Counters& c);
void fill_metrics(MetricsRegistry& reg, const DatagramFaultApplier::Counters& c);
/// The harness's fault-layer counters plus its deliveries.
void fill_metrics(MetricsRegistry& reg, const LossyDatagramNetwork& net);

}  // namespace gossipc::runtime
