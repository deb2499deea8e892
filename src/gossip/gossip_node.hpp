// The gossip layer of one process (Figure 2 of the paper).
//
// Push dissemination: a locally broadcast message is delivered locally and
// enqueued to every peer's send queue; a received message is checked against
// the recently-seen cache and, if new, delivered and forwarded to every peer
// but its sender. Send routines drain per-peer queues on the node's CPU; at
// drain time the semantic hooks get their chance: aggregate() over the
// pending batch, then validate() per message.
//
// The node runs on a Host (net/host.hpp): the simulator's Node, or the
// socket runtime's RealTransport. Both substrates run this one engine.
//
// Pull and push-pull dissemination (anti-entropy rounds exchanging digests of
// recently seen messages) are provided as extensions — the paper adopts push
// but notes the techniques extend to other strategies.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "gossip/hooks.hpp"
#include "gossip/seen_cache.hpp"
#include "net/host.hpp"

namespace gossipc {

namespace trace {
class Tracer;
}

/// Wire form of a gossiped application message.
class GossipEnvelope final : public MessageBody {
public:
    explicit GossipEnvelope(GossipAppMessage msg)
        : msg_(std::move(msg)),
          wire_size_(kHeaderBytes + (msg_.payload ? msg_.payload->wire_size() : 0)) {}

    const GossipAppMessage& message() const { return msg_; }

    std::uint32_t wire_size() const override { return wire_size_; }
    std::string describe() const override;
    BodyKind kind() const override { return BodyKind::GossipEnvelope; }

    static constexpr std::uint32_t kHeaderBytes = 16;

private:
    GossipAppMessage msg_;
    std::uint32_t wire_size_;  ///< memoized; bodies are immutable
};

/// Wire form of a pull-round digest: ids the requester already has.
class PullDigest final : public MessageBody {
public:
    explicit PullDigest(std::vector<GossipMsgId> ids) : ids_(std::move(ids)) {}

    const std::vector<GossipMsgId>& ids() const { return ids_; }

    std::uint32_t wire_size() const override {
        return 16 + static_cast<std::uint32_t>(ids_.size()) * 8;
    }
    std::string describe() const override;
    BodyKind kind() const override { return BodyKind::PullDigest; }

private:
    std::vector<GossipMsgId> ids_;
};

enum class GossipStrategy { Push, Pull, PushPull };

class GossipNode {
public:
    struct Params {
        /// Large enough that ids are not forgotten while their message is
        /// still in flight (forgetting causes re-forwarding storms); 32-bit
        /// tags keep this at 1MB per node.
        std::size_t seen_cache_capacity = 1 << 18;
        /// Pending messages per peer before new forwards are dropped.
        std::size_t peer_queue_cap = 8192;
        /// CPU cost of one validate() evaluation.
        SimTime validate_cost = SimTime::nanos(200);
        /// CPU cost of considering one pending message for aggregation.
        SimTime aggregate_cost_per_msg = SimTime::nanos(150);
        GossipStrategy strategy = GossipStrategy::Push;
        /// Anti-entropy round period for Pull/PushPull.
        SimTime pull_interval = SimTime::millis(25);
        /// Recent-message store used to answer pull rounds (filled only
        /// under Pull and PushPull).
        std::size_t store_capacity = 4096;
        /// Max ids advertised per digest.
        std::size_t digest_max = 1024;
        /// Network-level batching (for the aggregation-vs-batching ablation
        /// of Section 3.2): a send queue is drained only once it holds
        /// `batch_size` messages or the oldest has waited `batch_delay`.
        /// Unlike semantic aggregation this postpones sends at low load.
        std::size_t batch_size = 1;  ///< 1 = batching disabled
        SimTime batch_delay = SimTime::millis(5);
        /// Pipelined dissemination (DESIGN.md §14): under the Pull strategy
        /// a validated message is forwarded in the same simulator step it
        /// was accepted, instead of parking in the store until the next
        /// anti-entropy round answers a digest. Push already pipelines;
        /// the anti-entropy rounds keep running as a repair backstop.
        bool pipeline = false;
        /// Forward each message to this many randomly chosen active peers
        /// instead of all of them. 0 = every peer (classic flooding).
        std::size_t fanout = 0;
        /// Adaptive fanout: when the total send-queue backlog reaches
        /// `fanout_pressure` pending messages, a restricted fanout widens
        /// back to every peer — under load, relays spread work across the
        /// whole neighbourhood instead of funnelling it through few links.
        bool adaptive_fanout = false;
        std::size_t fanout_pressure = 64;
        std::uint64_t seed = 1;
    };

    struct Counters {
        std::uint64_t broadcasts = 0;          ///< local broadcasts
        std::uint64_t envelopes_received = 0;  ///< gossip envelopes processed
        std::uint64_t messages_received = 0;   ///< after disaggregation
        std::uint64_t duplicates = 0;          ///< dropped by the seen cache
        std::uint64_t delivered = 0;           ///< handed to the application
        std::uint64_t filtered = 0;            ///< dropped by validate()
        std::uint64_t aggregated_away = 0;     ///< pending msgs replaced by aggregates
        std::uint64_t envelopes_sent = 0;      ///< envelopes transmitted to peers
        std::uint64_t send_queue_drops = 0;    ///< forwards dropped (peer queue full)
        std::uint64_t pull_rounds = 0;
        std::uint64_t pull_served = 0;         ///< messages sent in response to digests
        std::uint64_t peers_added = 0;         ///< overlay churn: edges (re-)attached
        std::uint64_t peers_removed = 0;       ///< overlay churn: edges detached
        std::uint64_t pipelined_forwards = 0;  ///< Pull-mode same-step forwards
        std::uint64_t fanout_limited = 0;      ///< forwards restricted to a subset
        std::uint64_t fanout_widened = 0;      ///< restrictions lifted under pressure
        std::uint64_t bad_aggregates = 0;      ///< flagged messages the hooks could not unpack

        bool operator==(const Counters&) const = default;
    };

    using DeliverFn = std::function<void(const GossipAppMessage&, CpuContext&)>;

    /// `host` and `hooks` must outlive the node. Installs itself as the
    /// host's receive handler and, for Pull/PushPull, starts the
    /// anti-entropy timer.
    GossipNode(Host& host, std::vector<ProcessId> peers, Params params, GossipHooks& hooks);

    /// Sets the application delivery callback (the consensus protocol's
    /// "delivery queue" consumer).
    void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

    /// Attaches the message-lifecycle tracer (null detaches). Every recording
    /// site is guarded by the null check, so an untraced node pays nothing.
    void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

    /// Broadcasts from within a running CPU task (e.g. a protocol handler).
    void broadcast(GossipAppMessage msg, CpuContext& ctx);

    /// Broadcasts from outside the CPU (e.g. a client submission event).
    void post_broadcast(GossipAppMessage msg);

    /// Overlay churn (fault engine): attaches a peer mid-run, or re-activates
    /// a previously removed one. Returns false if already an active peer.
    /// The caller must ensure the network link is allowed.
    bool add_peer(ProcessId peer);
    /// Detaches a peer mid-run; its pending forwards are dropped. Returns
    /// false if not an active peer. Slots are tombstoned, not erased, so
    /// in-flight drain tasks keep their indices.
    bool remove_peer(ProcessId peer);
    bool is_peer(ProcessId peer) const;
    std::size_t active_peer_count() const;

    const Counters& counters() const { return counters_; }
    /// All peer slots ever attached, including churned-out (inactive) ones;
    /// use is_peer() for current adjacency.
    const std::vector<ProcessId>& peers() const { return peers_; }
    Host& host() { return host_; }

private:
    void on_net_receive(const NetMessage& msg, CpuContext& ctx);
    void accept(const GossipAppMessage& msg, ProcessId received_from, CpuContext& ctx);
    void forward(const GossipAppMessage& msg, ProcessId exclude);
    /// Total pending messages across active peer queues (fanout pressure).
    std::size_t queued_backlog() const;
    void drain_peer(std::size_t peer_idx, CpuContext& ctx);
    void send_to_peer(const GossipAppMessage& msg, ProcessId peer, CpuContext& ctx);
    void trace_aggregation(const std::vector<GossipAppMessage>& inputs,
                           std::vector<GossipAppMessage>& outputs, ProcessId peer);
    void remember(const GossipAppMessage& msg);
    void schedule_pull_round();
    void run_pull_round(CpuContext& ctx);
    void serve_digest(const PullDigest& digest, ProcessId requester, CpuContext& ctx);

    Host& host_;
    std::vector<ProcessId> peers_;
    Params params_;
    GossipHooks& hooks_;
    DeliverFn deliver_;
    trace::Tracer* tracer_ = nullptr;
    SeenCache seen_;
    Rng rng_;

    struct PeerQueue {
        std::vector<GossipAppMessage> pending;
        bool drain_scheduled = false;
        SimTime oldest_enqueued = SimTime::zero();  ///< batching deadline base
    };
    std::vector<PeerQueue> queues_;      // parallel to peers_
    std::vector<bool> peer_active_;      // parallel to peers_ (churn tombstones)

    // Recent messages kept to answer pull digests.
    std::deque<GossipAppMessage> store_;

    Counters counters_;
};

}  // namespace gossipc
