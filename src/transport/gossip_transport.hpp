// Transport over the gossip layer (Gossip and Semantic Gossip setups).
//
// broadcast() maps to a gossip broadcast; send() also maps to a broadcast —
// gossip has no unicast, so "Phase 1b messages ... only concern the
// coordinator, but will be delivered to all participants" (Section 3.1).
// Message identifiers come from the consensus message's unique key, as the
// paper prescribes for the recently-seen cache.
#pragma once

#include "gossip/gossip_node.hpp"
#include "transport/transport.hpp"

namespace gossipc {

class GossipTransport final : public Transport {
public:
    /// `gossip` must outlive the transport; its deliver callback is
    /// installed by this constructor.
    explicit GossipTransport(GossipNode& gossip);

    ProcessId self() const override { return gossip_.host().id(); }
    void broadcast(PaxosMessagePtr msg, CpuContext& ctx) override;
    void send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) override;
    void schedule(SimTime delay, std::function<void(CpuContext&)> fn) override;
    void schedule_every(SimTime period, std::function<void(CpuContext&)> fn) override;
    void post(std::function<void(CpuContext&)> fn) override;

    GossipNode& gossip() { return gossip_; }

private:
    GossipNode& gossip_;
};

}  // namespace gossipc
