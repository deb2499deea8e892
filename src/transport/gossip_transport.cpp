#include "transport/gossip_transport.hpp"

namespace gossipc {

GossipTransport::GossipTransport(GossipNode& gossip) : gossip_(gossip) {
    gossip_.set_deliver([this](const GossipAppMessage& msg, CpuContext& ctx) {
        if (msg.payload && msg.payload->kind() == BodyKind::Paxos) {
            deliver_up(std::static_pointer_cast<const PaxosMessage>(msg.payload), ctx);
        }
    });
}

void GossipTransport::broadcast(PaxosMessagePtr msg, CpuContext& ctx) {
    note_origination(ctx.now());
    GossipAppMessage app;
    app.id = msg->unique_key();
    app.origin = self();
    app.payload = std::move(msg);
    gossip_.broadcast(std::move(app), ctx);
}

void GossipTransport::send(ProcessId /*to*/, PaxosMessagePtr msg, CpuContext& ctx) {
    // Gossip provides no unicast: one-to-one messages are broadcast and
    // delivered to all participants (Section 3.1).
    broadcast(std::move(msg), ctx);
}

void GossipTransport::schedule(SimTime delay, std::function<void(CpuContext&)> fn) {
    Host& host = gossip_.host();
    host.call_at(host.now() + delay, [&host, fn = std::move(fn)] { host.post(fn); });
}

void GossipTransport::schedule_every(SimTime period, std::function<void(CpuContext&)> fn) {
    Host& host = gossip_.host();
    host.call_at(host.now() + period, [this, &host, period, fn = std::move(fn)]() mutable {
        host.post(fn);
        schedule_every(period, std::move(fn));
    });
}

void GossipTransport::post(std::function<void(CpuContext&)> fn) {
    gossip_.host().post(std::move(fn));
}

}  // namespace gossipc
