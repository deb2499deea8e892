// Umbrella header: the public API of the Gossip Consensus library.
//
// Quickstart:
//   #include "core/semantic_gossip.hpp"
//   gossipc::ExperimentConfig cfg;
//   cfg.setup = gossipc::Setup::SemanticGossip;
//   cfg.n = 13;
//   cfg.total_rate = 100.0;
//   auto result = gossipc::run_experiment(cfg);
//   // result.workload.latencies.mean(), result.workload.throughput, ...
//
// For finer control, build a Deployment and drive the Simulator directly, or
// assemble the layers by hand (Network -> GossipNode(+hooks) ->
// GossipTransport -> PaxosProcess -> Workload).
#pragma once

#include "core/experiment.hpp"
#include "fault/chaos.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/injector.hpp"
#include "gossip/gossip_node.hpp"
#include "gossip/hooks.hpp"
#include "gossip/seen_cache.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "net/region.hpp"
#include "overlay/analysis.hpp"
#include "overlay/random_overlay.hpp"
#include "paxos/process.hpp"
#include "semantic/paxos_semantics.hpp"
#include "sim/simulator.hpp"
#include "stats/registry.hpp"
#include "stats/saturation.hpp"
#include "stats/timeseries.hpp"
#include "trace/tracer.hpp"
#include "transport/direct_transport.hpp"
#include "transport/gossip_transport.hpp"
#include "workload/workload.hpp"
