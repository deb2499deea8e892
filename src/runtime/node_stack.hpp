// One socket-runtime node (DESIGN.md §10, §13): the one place a runtime node
// is assembled, crashed and restarted. It builds channel -> UdpLink or
// ConnectionManager -> RealTransport -> GatedTransport -> GroupShard, with
// the hooks and heartbeat policy of its Setup taken from the recipe the
// simulator's Deployment uses (semantic/setup.hpp). The gate and the shard
// hold the node's durable protocol state for the stack's whole life; the
// socket layers below the gate are torn down by crash() and rebuilt by
// restart() with a fresh link epoch, as a real process restart would.
#pragma once

#include <memory>
#include <vector>

#include "group/shard.hpp"
#include "runtime/conn_manager.hpp"
#include "runtime/gated_transport.hpp"
#include "runtime/lossy_link.hpp"
#include "runtime/real_transport.hpp"
#include "runtime/udp.hpp"
#include "semantic/setup.hpp"
#include "stats/registry.hpp"
#include "trace/tracer.hpp"

namespace gossipc::runtime {

class NodeStack {
public:
    /// What the node's traffic rides on: TCP or UDP sockets on its cluster
    /// address, or an in-process datagram endpoint.
    struct Channel {
        enum class Kind { Tcp, Udp, Endpoint };
        Kind kind = Kind::Tcp;
        std::vector<PeerAddress> cluster;  ///< Tcp/Udp: every node's address
        /// Tcp/Udp: a socket already bound to this node's address (and
        /// listening, for Tcp) for the first incarnation, so a caller can
        /// bind port 0 and publish the port; -1 binds the address.
        int bound_fd = -1;
        ChaosDatagramChannel* faults = nullptr;  ///< Udp: optional, not owned
        DatagramChannel* endpoint = nullptr;     ///< Endpoint: not owned
    };

    struct Params {
        Setup setup = Setup::SemanticGossip;
        PaxosConfig paxos;  ///< id, cluster size and protocol timing
        std::vector<ProcessId> neighbors;  ///< overlay; Baseline links every peer
        int groups = 1;
        UdpLink::Params link;  ///< each restart bumps the epoch
    };

    /// `tracer` (optional, not owned) records every incarnation. Throws
    /// std::runtime_error when the node's address cannot be bound.
    NodeStack(Reactor& reactor, Params params, Channel channel,
              trace::Tracer* tracer = nullptr);
    ~NodeStack() { crash(); }
    NodeStack(const NodeStack&) = delete;
    NodeStack& operator=(const NodeStack&) = delete;

    group::GroupShard& shard() { return *shard_; }
    const group::GroupShard& shard() const { return *shard_; }
    bool up() const { return transport_ != nullptr; }

    /// Submits a client value and remembers it for a wiped restart.
    void submit(const Value& value);
    /// Tears the socket layers down; the gate drops traffic until restart.
    void crash();
    /// Rebuilds the socket layers with the next link epoch. `wiped`: the
    /// crash lost durable state, so every group is wiped and every value
    /// submitted through the stack is re-offered. Throws std::runtime_error
    /// when rebinding fails; the stack stays down.
    void restart(bool wiped);
    /// Overlay churn, tracked while down.
    void add_peer(ProcessId peer);
    void remove_peer(ProcessId peer);
    /// Every linked peer is reachable (false while down).
    bool links_up() const;
    /// This node's counters under the simulator's names where it has them
    /// (runtime/runtime_metrics.hpp); the socket layers report while up.
    void fill_metrics(MetricsRegistry& reg) const;

private:
    void build(int fd);

    Reactor& reactor_;
    Params params_;
    Channel channel_;
    trace::Tracer* tracer_;
    std::unique_ptr<GossipHooks> hooks_;
    GatedTransport gate_;
    std::unique_ptr<group::GroupShard> shard_;
    std::unique_ptr<UdpChannel> socket_;
    std::unique_ptr<UdpLink> link_;
    std::unique_ptr<ConnectionManager> conns_;
    std::unique_ptr<RealTransport> transport_;
    std::vector<Value> submitted_;
};

}  // namespace gossipc::runtime
