// The paper's three setups (Section 4.1) and the recipe that builds them.
//
// All three run the same Paxos; they differ only in what carries its
// messages and which hooks the gossip layer runs. Both substrates build a
// process from this one recipe: the simulator's Deployment and the socket
// runtime's NodeStack.
#pragma once

#include <memory>

#include "gossip/hooks.hpp"
#include "paxos/config.hpp"
#include "semantic/paxos_semantics.hpp"

namespace gossipc {

enum class Setup { Baseline, Gossip, SemanticGossip };

const char* setup_name(Setup s);

/// Applies `setup` to one process: sets `pc.heartbeat_piggyback` and returns
/// the hooks its gossip layer runs (PaxosSemantics with `semantic` for
/// Semantic Gossip, PassThroughHooks otherwise; Baseline has no gossip layer,
/// so its hooks go unused). Reads `pc.id` and the quorum from `pc`.
std::unique_ptr<GossipHooks> apply_setup(Setup setup, PaxosConfig& pc,
                                         const PaxosSemantics::Options& semantic);

}  // namespace gossipc
