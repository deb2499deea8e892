#include "semantic/setup.hpp"

namespace gossipc {

const char* setup_name(Setup s) {
    switch (s) {
        case Setup::Baseline: return "Baseline";
        case Setup::Gossip: return "Gossip";
        case Setup::SemanticGossip: return "SemanticGossip";
    }
    return "?";
}

std::unique_ptr<GossipHooks> apply_setup(Setup setup, PaxosConfig& pc,
                                         const PaxosSemantics::Options& semantic) {
    // Semantic filtering drops redundant Phase 2b en route, so origin
    // traffic is not evidence of remote audibility: a busy acceptor would
    // suppress its heartbeats yet look dead three hops away.
    pc.heartbeat_piggyback = setup != Setup::SemanticGossip;
    if (setup == Setup::SemanticGossip) {
        return std::make_unique<PaxosSemantics>(pc.id, pc.quorum(), semantic);
    }
    return std::make_unique<PassThroughHooks>();
}

}  // namespace gossipc
