// Transport over real sockets (DESIGN.md §10, §12): the socket-backed
// counterpart of DirectTransport/GossipTransport. PaxosProcess and
// FailureDetector depend only on the Transport interface, so the protocol
// stack runs over this transport unmodified. The socket layer underneath is
// a PeerChannel — framed TCP streams (ConnectionManager) or clustered UDP
// datagrams (UdpLink) — selected by gossipd --transport.
//
// Two modes, matching the simulator's setups:
//  * Direct — point-to-point unicast to every cluster member (the Baseline
//    setup); broadcast fans out one encoded frame per peer.
//  * Gossip — the simulator's own GossipNode disseminates over the overlay
//    neighbors. RealTransport is its Host (net/host.hpp): a received body is
//    decoded and handed to the node, a transmission is encoded and queued
//    on the channel, and posts and timers run on the reactor. So the seen
//    cache, per-peer queues, hook order, tracer stages and invariants are
//    the ones the simulator runs.
//
// CpuContext is constructed from the reactor's monotonic clock; consume()
// advances only the context's virtual time (the real CPU cost is the real
// CPU cost), which the protocol stack tolerates by design. The gossip
// node's modelled hook costs are zero here for the same reason.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gossip/gossip_node.hpp"
#include "runtime/peer_channel.hpp"
#include "runtime/reactor.hpp"
#include "transport/transport.hpp"

namespace gossipc::runtime {

class RealTransport final : public Transport, private Host {
public:
    enum class Mode { Direct, Gossip };

    struct Params {
        Mode mode = Mode::Direct;
        /// Overlay neighbors forwarded to in Gossip mode (ignored in Direct
        /// mode, which talks to the whole cluster).
        std::vector<ProcessId> neighbors;
        /// The gossip node's recently-seen cache (Gossip mode).
        std::size_t seen_cache_capacity = 1 << 18;
    };

    /// The gossip node's counters (all zero in Direct mode), plus the
    /// codec's decode_errors (a simulator run cannot have those).
    struct Counters : GossipNode::Counters {
        std::uint64_t decode_errors = 0;  ///< bodies that failed to decode
    };

    /// `hooks` must outlive the transport (pass PassThroughHooks for classic
    /// gossip, PaxosSemantics for the Semantic setup). Installs itself as
    /// `chan`'s body handler and links the relevant peers.
    RealTransport(Reactor& reactor, PeerChannel& chan, Params params,
                  GossipHooks& hooks);
    /// Detaches from the channel and invalidates the pending drain/timer
    /// tasks: the chaos bridge tears transports down mid-run, so everything
    /// posted to the reactor must survive the teardown.
    ~RealTransport() override;

    RealTransport(const RealTransport&) = delete;
    RealTransport& operator=(const RealTransport&) = delete;

    // Transport interface — the seam the protocol stack plugs into.
    ProcessId self() const override { return chan_.self(); }
    void broadcast(PaxosMessagePtr msg, CpuContext& ctx) override;
    void send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) override;
    void schedule(SimTime delay, std::function<void(CpuContext&)> fn) override;
    void schedule_every(SimTime period, std::function<void(CpuContext&)> fn) override;
    /// Also the Host's task queue the gossip node drains its peers on.
    void post(std::function<void(CpuContext&)> fn) override;

    Counters counters() const;

    /// Attaches the message-lifecycle tracer to the gossip node (null
    /// detaches; Direct mode has no gossip stages to record).
    void set_tracer(trace::Tracer* tracer);

    /// Overlay churn over the live runtime (Gossip mode): start/stop
    /// forwarding to `peer` (GossipNode::add_peer/remove_peer). Adding also
    /// links the peer on the channel.
    void add_peer(ProcessId peer);
    void remove_peer(ProcessId peer);

private:
    // Host: the gossip node's process seam.
    ProcessId id() const override { return chan_.self(); }
    SimTime now() const override { return reactor_.now(); }
    void call_at(SimTime at, std::function<void()> fn) override;
    void transmit_in_task(NetMessage msg, CpuContext& ctx) override;
    void set_receive_handler(ReceiveHandler handler) override { receive_ = std::move(handler); }

    void on_body(ProcessId from, std::span<const std::uint8_t> payload);
    void send_body(ProcessId to, const MessageBody& body);

    Reactor& reactor_;
    PeerChannel& chan_;
    Mode mode_;
    ReceiveHandler receive_;
    std::unique_ptr<GossipNode> gossip_;  ///< Gossip mode only

    /// Guards reactor tasks/timers posted by this transport: posts cannot
    /// be cancelled and the chaos bridge destroys transports mid-run.
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    std::vector<Reactor::TimerId> timers_;  ///< periodic chains, cancelled on destroy
    std::uint64_t decode_errors_ = 0;
};

/// Reliability policy over datagram channels (DESIGN.md §12): which bodies
/// the UDP link should retransmit until acked. Consensus-critical control
/// traffic (Phase 1, client values, learner repair requests) is reliable;
/// Phase 2 and Decision traffic in Gossip mode rides best-effort on gossip's
/// own redundancy, exactly the loss tolerance the paper claims. For a
/// GossipEnvelope the policy is that of its payload. TCP channels ignore
/// the flag (the stream is reliable wholesale).
bool reliable_over_datagrams(const MessageBody& body, RealTransport::Mode mode);

}  // namespace gossipc::runtime
