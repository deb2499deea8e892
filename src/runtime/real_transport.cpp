#include "runtime/real_transport.hpp"

#include <utility>

#include "wire/codec.hpp"

namespace gossipc::runtime {

RealTransport::RealTransport(Reactor& reactor, PeerChannel& chan, Params params,
                             GossipHooks& hooks)
    : reactor_(reactor), chan_(chan), mode_(params.mode) {
    chan_.set_body_handler(
        [this](ProcessId from, std::span<const std::uint8_t> payload) {
            on_body(from, payload);
        });
    if (mode_ == Mode::Direct) {
        for (ProcessId p = 0; p < chan_.size(); ++p) {
            if (p != self()) chan_.link(p);
        }
        return;
    }
    for (const ProcessId p : params.neighbors) chan_.link(p);
    GossipNode::Params gp;
    gp.seen_cache_capacity = params.seen_cache_capacity;
    // Real CPU is the cost here; the modelled hook costs would only skew
    // the tasks' virtual clocks.
    gp.validate_cost = SimTime::zero();
    gp.aggregate_cost_per_msg = SimTime::zero();
    Host& host = *this;
    gossip_ = std::make_unique<GossipNode>(host, std::move(params.neighbors), gp, hooks);
    gossip_->set_deliver([this](const GossipAppMessage& msg, CpuContext& ctx) {
        if (msg.payload && msg.payload->kind() == BodyKind::Paxos) {
            deliver_up(std::static_pointer_cast<const PaxosMessage>(msg.payload), ctx);
        }
    });
}

RealTransport::~RealTransport() {
    *alive_ = false;
    chan_.set_body_handler(nullptr);
    for (const Reactor::TimerId id : timers_) reactor_.cancel_timer(id);
}

RealTransport::Counters RealTransport::counters() const {
    Counters c;
    if (gossip_) static_cast<GossipNode::Counters&>(c) = gossip_->counters();
    c.decode_errors = decode_errors_;
    return c;
}

void RealTransport::set_tracer(trace::Tracer* tracer) {
    if (gossip_) gossip_->set_tracer(tracer);
}

void RealTransport::add_peer(ProcessId peer) {
    if (!gossip_ || peer == self()) return;
    gossip_->add_peer(peer);
    chan_.link(peer);
}

void RealTransport::remove_peer(ProcessId peer) {
    if (gossip_) gossip_->remove_peer(peer);
}

// -- sending ----------------------------------------------------------------

void RealTransport::broadcast(PaxosMessagePtr msg, CpuContext& ctx) {
    note_origination(ctx.now());
    if (gossip_) {
        GossipAppMessage app;
        app.id = msg->unique_key();
        app.origin = self();
        app.payload = std::move(msg);
        gossip_->broadcast(std::move(app), ctx);
        return;
    }
    deliver_up(msg, ctx);  // local delivery, as with gossip broadcast
    for (ProcessId p = 0; p < chan_.size(); ++p) {
        if (p != self()) send_body(p, *msg);
    }
}

void RealTransport::send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) {
    if (gossip_) {
        // Gossip provides no unicast: one-to-one messages are broadcast and
        // delivered to all participants (Section 3.1).
        broadcast(std::move(msg), ctx);
        return;
    }
    if (to == self()) {
        deliver_up(msg, ctx);
        return;
    }
    note_origination(ctx.now());
    send_body(to, *msg);
}

void RealTransport::transmit_in_task(NetMessage msg, CpuContext& /*ctx*/) {
    send_body(msg.to, *msg.body);
}

void RealTransport::send_body(ProcessId to, const MessageBody& body) {
    const std::vector<std::uint8_t> bytes = wire::encode_body(body);
    chan_.send_body(to, bytes, reliable_over_datagrams(body, mode_));
}

// -- receiving --------------------------------------------------------------

void RealTransport::on_body(ProcessId from, std::span<const std::uint8_t> payload) {
    wire::DecodedBody decoded = wire::decode_body(payload);
    if (!decoded.ok()) {
        ++decode_errors_;
        return;
    }
    CpuContext ctx(reactor_.now());
    if (receive_) {
        receive_(NetMessage{from, self(), std::move(decoded.body)}, ctx);
    } else if (decoded.body->kind() == BodyKind::Paxos) {
        // Direct mode ships bare protocol bodies.
        deliver_up(std::static_pointer_cast<const PaxosMessage>(decoded.body), ctx);
    }
}

// -- reliability policy ------------------------------------------------------

bool reliable_over_datagrams(const MessageBody& body, RealTransport::Mode mode) {
    switch (body.kind()) {
        case BodyKind::GossipEnvelope: {
            const auto& env = static_cast<const GossipEnvelope&>(body);
            return env.message().payload &&
                   reliable_over_datagrams(*env.message().payload, mode);
        }
        case BodyKind::Paxos: {
            const auto& msg = static_cast<const PaxosMessage&>(body);
            switch (msg.type()) {
                // Phase 1 runs once per coordinator round over ranged
                // instances — losing it stalls the pipeline, so it is always
                // repaired at the link. Client values and learner repair
                // requests are unicast (no gossip redundancy behind them).
                case PaxosMsgType::ClientValue:
                case PaxosMsgType::Phase1a:
                case PaxosMsgType::Phase1b:
                case PaxosMsgType::LearnRequest:
                    return true;
                // Phase 2 and Decision traffic: per-instance, flooded in
                // Gossip mode where redundant paths are the repair
                // mechanism (and the protocol retransmits on timeout
                // anyway); point-to-point in Direct mode, where the link is
                // the only path.
                case PaxosMsgType::Phase2a:
                case PaxosMsgType::Phase2b:
                case PaxosMsgType::Phase2bAggregate:
                case PaxosMsgType::Decision:
                case PaxosMsgType::GroupBatch:  // carries Phase 2b / Decisions
                    return mode == RealTransport::Mode::Direct;
                // Heartbeats are periodic by construction; a retransmitted
                // stale heartbeat is worse than the next fresh one.
                case PaxosMsgType::Heartbeat:
                    return false;
            }
            return false;  // unreachable: the switch above is exhaustive
        }
        // Pull digests are periodic anti-entropy (the next round supersedes
        // a lost one); Raft ships bare control traffic like Direct Paxos;
        // Other has no wire form at all.
        case BodyKind::PullDigest:
            return false;
        case BodyKind::Raft:
            return mode == RealTransport::Mode::Direct;
        case BodyKind::Other:
            return false;
    }
    return false;  // unreachable: the switch above is exhaustive
}

// -- timers / tasks ---------------------------------------------------------

void RealTransport::schedule(SimTime delay, std::function<void(CpuContext&)> fn) {
    call_at(reactor_.now() + delay, [this, fn = std::move(fn)] {
        CpuContext ctx(reactor_.now());
        fn(ctx);
    });
}

void RealTransport::schedule_every(SimTime period, std::function<void(CpuContext&)> fn) {
    timers_.push_back(reactor_.schedule_every(period, [this, fn = std::move(fn)] {
        CpuContext ctx(reactor_.now());
        fn(ctx);
    }));
}

void RealTransport::call_at(SimTime at, std::function<void()> fn) {
    reactor_.schedule_at(at, [fn = std::move(fn), alive = std::weak_ptr<bool>(alive_)] {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        fn();
    });
}

void RealTransport::post(std::function<void(CpuContext&)> fn) {
    reactor_.post([this, fn = std::move(fn), alive = std::weak_ptr<bool>(alive_)] {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        CpuContext ctx(reactor_.now());
        fn(ctx);
    });
}

}  // namespace gossipc::runtime
