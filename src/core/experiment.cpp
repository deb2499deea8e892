#include "core/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include <fstream>

#include "check/failover_invariants.hpp"
#include "check/paxos_invariants.hpp"
#include "overlay/random_overlay.hpp"
#include "paxos/message.hpp"
#include "runtime/runtime_metrics.hpp"
#include "wire/codec.hpp"

namespace gossipc {

Deployment::Deployment(const ExperimentConfig& config) : config_(config) {
    if (config.n < 3) throw std::invalid_argument("Deployment: n must be >= 3");
    if (config.groups < 1 || config.groups > static_cast<int>(wire::kMaxGroupFrontiers)) {
        throw std::invalid_argument("Deployment: groups out of range");
    }
    sim_ = std::make_unique<Simulator>();

    Network::Params net_params;
    net_params.node = config.node_params;
    net_params.bandwidth_bytes_per_us = config.bandwidth_bytes_per_us;
    net_params.jitter_frac = config.jitter_frac;
    net_params.seed = config.seed;
    network_ = std::make_unique<Network>(*sim_, LatencyModel::aws(), config.n, net_params);

    const bool gossip_setup = config.setup != Setup::Baseline;
    if (gossip_setup) {
        overlay_ = config.overlay ? *config.overlay
                                  : make_connected_overlay(config.n, config.overlay_seed);
        if (overlay_->size() != config.n) {
            throw std::invalid_argument("Deployment: overlay size != n");
        }
        for (const auto& [a, b] : overlay_->edges()) network_->allow_link(a, b);
    } else if (config.failover || config.groups > 1) {
        // Baseline + failover: the star around process 0 cannot survive the
        // hub's death (a successor could not reach anyone), so failover runs
        // use the full mesh the paper's Baseline implicitly assumes the
        // datacenter fabric to provide. Multi-group runs need it too: rank
        // placement puts group coordinators on every process.
        network_->allow_all_links();
    } else {
        // Baseline: the coordinator communicates directly with every process
        // (fully connected star; Section 4.1).
        for (ProcessId p = 1; p < config.n; ++p) network_->allow_link(0, p);
    }

    if (config.loss_rate > 0.0) network_->set_uniform_loss(config.loss_rate);

    for (ProcessId id = 0; id < config.n; ++id) {
        PaxosConfig pc;
        pc.n = config.n;
        pc.id = id;
        pc.coordinator = 0;
        pc.timeouts_enabled = config.timeouts_enabled;
        pc.seed = config.seed;
        pc.retransmit_jitter_max = config.retransmit_jitter_max;
        pc.failover_enabled = config.failover;
        pc.heartbeat_interval = config.heartbeat_interval;
        pc.suspect_after = config.suspect_after;
        pc.detector_sweep_interval = config.detector_sweep_interval;
        pc.suspicion_jitter_max = config.suspicion_jitter_max;
        pc.batch_size = config.batch_size;
        pc.batch_delay = config.batch_delay;
        pc.pending_cap = config.pending_cap;
        hooks_.push_back(apply_setup(config.setup, pc, config.semantic));

        if (gossip_setup) {
            GossipNode::Params gp = config.gossip_params;
            gp.seed = config.seed;
            gp.strategy = config.strategy;
            gp.pipeline = config.pipeline;
            gp.fanout = config.fanout;
            gp.adaptive_fanout = config.adaptive_fanout;
            gossip_nodes_.push_back(std::make_unique<GossipNode>(
                network_->node(id), overlay_->neighbors(id), gp, *hooks_.back()));
            transports_.push_back(std::make_unique<GossipTransport>(*gossip_nodes_.back()));
        } else {
            transports_.push_back(std::make_unique<DirectTransport>(*network_, id));
        }
        shards_.push_back(
            std::make_unique<group::GroupShard>(pc, *transports_.back(), config.groups));
        for (GroupId g = 0; g < config.groups; ++g) {
            const bool tag_group = config.groups > 1;
            shards_.back()->process(g).set_failover_listener(
                [this, id, g, tag_group](FailoverEvent event, ProcessId subject,
                                         Round round, CpuContext& ctx) {
                    std::ostringstream line;
                    line << ctx.now().as_nanos() << ' ';
                    switch (event) {
                        case FailoverEvent::Suspect:
                            line << "suspect p" << subject << " by p" << id;
                            break;
                        case FailoverEvent::Restore:
                            line << "restore p" << subject << " by p" << id;
                            break;
                        case FailoverEvent::Takeover:
                            line << "takeover p" << id << " round " << round;
                            break;
                        case FailoverEvent::StepDown:
                            line << "step-down p" << id << " round " << round << " to p"
                                 << subject;
                            break;
                    }
                    // Group-stamped only in sharded runs so single-group
                    // fault logs stay byte-identical with pre-group replays.
                    if (tag_group) line << " g" << g;
                    failover_log_.push_back(line.str());
                });
        }
    }

    if (config.trace || !config.trace_jsonl_path.empty()) {
        tracer_ = std::make_unique<trace::Tracer>(config.trace_capacity);
        // The probe classifies Paxos bodies so trace events carry the message
        // type and consensus instance without the trace layer knowing Paxos.
        tracer_->set_payload_probe(paxos_payload_info);
        for (auto& g : gossip_nodes_) g->set_tracer(tracer_.get());
        for (PaxosProcess* p : process_ptrs()) p->set_tracer(tracer_.get());
    }

#if GC_ENABLE_INVARIANTS
    // Always-on correctness observer (debug/sanitizer builds): Paxos safety
    // invariants are re-checked continuously while the experiment runs.
    if (config.invariant_probe_events > 0) {
        invariants_ = std::make_unique<check::InvariantChecker>();
        // Each consensus group is an independent Paxos instance space, so
        // agreement/acceptor/failover checks register per group over that
        // group's process on every node.
        std::vector<check::PaxosCheckHandles> handles;
        for (GroupId g = 0; g < config.groups; ++g) {
            std::vector<const Learner*> learners;
            std::vector<const Acceptor*> acceptors;
            std::vector<const PaxosProcess*> procs;
            for (auto& s : shards_) {
                learners.push_back(&s->process(g).learner());
                acceptors.push_back(&s->process(g).acceptor());
                procs.push_back(&s->process(g));
            }
            handles.push_back(check::register_paxos_checks(
                *invariants_, std::move(learners), std::move(acceptors)));
            check::register_failover_checks(*invariants_, std::move(procs));
        }
        forget_monitor_ = [handles = std::move(handles)](std::size_t id) {
            for (const auto& h : handles) h.forget_process(id);
        };
        sim_->set_probe(config.invariant_probe_events, [this] { invariants_->run_all(); });
    }
#endif

    // Fault engine: merge the explicit schedule with a generated chaos
    // schedule (if any) and arm the injector. Armed before the workload so
    // fault events land in the queue ahead of same-instant protocol traffic.
    FaultSchedule schedule = config.faults;
    if (config.chaos) {
        const std::uint64_t cseed = config.chaos_seed != 0 ? config.chaos_seed : config.seed;
        schedule.merge(generate_chaos(config.n, /*coordinator=*/0, *config.chaos, cseed,
                                      overlay_ ? &*overlay_ : nullptr, config.groups));
    }
    if (!schedule.empty()) {
        FaultInjector::Hooks hooks;
        hooks.gossip_node = [this](ProcessId p) { return gossip_node(p); };
        hooks.wipe_state = [this](ProcessId p) { wipe_process_state(p); };
        hooks.overlay = overlay_ ? &*overlay_ : nullptr;
        injector_ = std::make_unique<FaultInjector>(*sim_, *network_, std::move(schedule),
                                                    std::move(hooks));
        injector_->arm();
    }

    Workload::Params wp;
    wp.total_rate = config.total_rate;
    wp.num_clients = config.num_clients;
    wp.value_size = config.value_size;
    wp.warmup = config.warmup;
    wp.measure = config.measure;
    wp.drain = config.drain;
    wp.seed = config.seed;
    std::vector<std::vector<PaxosProcess*>> hosts;
    hosts.reserve(shards_.size());
    for (auto& s : shards_) {
        std::vector<PaxosProcess*> node;
        node.reserve(static_cast<std::size_t>(config.groups));
        for (GroupId g = 0; g < config.groups; ++g) node.push_back(&s->process(g));
        hosts.push_back(std::move(node));
    }
    workload_ = std::make_unique<Workload>(*sim_, std::move(hosts), LatencyModel::aws(), wp);
}

std::vector<PaxosProcess*> Deployment::process_ptrs() {
    std::vector<PaxosProcess*> out;
    out.reserve(shards_.size() * static_cast<std::size_t>(config_.groups));
    for (auto& s : shards_) {
        for (GroupId g = 0; g < config_.groups; ++g) out.push_back(&s->process(g));
    }
    return out;
}

GossipNode* Deployment::gossip_node(ProcessId id) {
    if (gossip_nodes_.empty()) return nullptr;
    return gossip_nodes_.at(static_cast<std::size_t>(id)).get();
}

void Deployment::wipe_process_state(ProcessId id) {
    auto& shard = *shards_.at(static_cast<std::size_t>(id));
    for (GroupId g = 0; g < config_.groups; ++g) shard.process(g).wipe_state();
    if (forget_monitor_) forget_monitor_(static_cast<std::size_t>(id));
}

PaxosSemantics* Deployment::semantics(ProcessId id) {
    if (config_.setup != Setup::SemanticGossip) return nullptr;
    return static_cast<PaxosSemantics*>(hooks_.at(static_cast<std::size_t>(id)).get());
}

void Deployment::start_processes() {
    for (auto& s : shards_) s->post_start();
}

MessageStats Deployment::message_stats() const {
    MessageStats ms;
    for (ProcessId id = 0; id < config_.n; ++id) {
        const auto& nc = network_->node(id).counters();
        ms.net_arrivals += nc.arrivals;
        ms.net_sent += nc.sent;
        ms.net_loss_drops += nc.loss_drops;
        ms.net_queue_drops += nc.queue_drops;
        ms.bytes_sent += nc.bytes_sent;
    }
    ms.coordinator_arrivals = network_->node(0).counters().arrivals;
    for (const auto& g : gossip_nodes_) {
        const auto& gc = g->counters();
        ms.gossip_envelopes_received += gc.envelopes_received;
        ms.gossip_messages_received += gc.messages_received;
        ms.gossip_duplicates += gc.duplicates;
        ms.gossip_delivered += gc.delivered;
        ms.gossip_filtered += gc.filtered;
        ms.gossip_aggregated_away += gc.aggregated_away;
        ms.gossip_send_queue_drops += gc.send_queue_drops;
    }
    return ms;
}

ExperimentResult Deployment::collect() {
    if (invariants_) invariants_->run_all();  // final whole-run safety check
    ExperimentResult result;
    result.workload = workload_->result();
    result.messages = message_stats();
    if (overlay_) {
        result.overlay = analyze_overlay(*overlay_);
        result.median_rtt = median_rtt_from_coordinator(*overlay_, LatencyModel::aws());
    }
    if (config_.setup == Setup::SemanticGossip) {
        for (auto& h : hooks_) {
            const auto& st = static_cast<PaxosSemantics&>(*h).stats();
            result.semantic.filtered_phase2b += st.filtered_phase2b;
            result.semantic.aggregates_built += st.aggregates_built;
            result.semantic.messages_merged += st.messages_merged;
            result.semantic.disaggregations += st.disaggregations;
            result.semantic.cross_group_batches += st.cross_group_batches;
            result.semantic.cross_group_merged += st.cross_group_merged;
        }
    }
    result.decisions_at_coordinator = shards_.front()->process(0).learner().delivered_count();
    result.group_decided.reserve(static_cast<std::size_t>(config_.groups));
    for (GroupId g = 0; g < config_.groups; ++g) {
        const ProcessId home = group::placement_coordinator(g, config_.n);
        result.group_decided.push_back(
            shards_.at(static_cast<std::size_t>(home))->process(g).learner().delivered_count());
    }
    for (const PaxosProcess* p : process_ptrs()) {
        result.failover.takeovers += p->counters().takeovers;
        result.failover.step_downs += p->counters().step_downs;
    }
    // Detector counters per node, not per process: a sharded node's groups
    // share one detector, which must not be multi-counted.
    for (const auto& s : shards_) {
        if (const FailureDetector* d = s->detector()) {
            result.failover.heartbeats_sent += d->counters().heartbeats_sent;
            result.failover.heartbeats_suppressed += d->counters().heartbeats_suppressed;
            result.failover.suspicions += d->counters().suspicions;
            result.failover.restores += d->counters().restores;
        }
    }
    if (injector_) {
        result.fault_log = injector_->log();
        result.faults_injected = injector_->counters().applied;
    }
    if (!failover_log_.empty()) {
        // Interleave failover events with injected faults by timestamp; the
        // sort is stable so same-instant events keep their emission order.
        result.fault_log.insert(result.fault_log.end(), failover_log_.begin(),
                                failover_log_.end());
        std::stable_sort(result.fault_log.begin(), result.fault_log.end(),
                         [](const std::string& a, const std::string& b) {
                             return std::strtoll(a.c_str(), nullptr, 10) <
                                    std::strtoll(b.c_str(), nullptr, 10);
                         });
    }
    fill_metrics(result);
    result.metrics = registry_.snapshot();
    if (tracer_ && !config_.trace_jsonl_path.empty()) {
        std::ofstream os(config_.trace_jsonl_path);
        tracer_->export_jsonl(os);
    }
    return result;
}

void Deployment::fill_metrics(const ExperimentResult& result) {
    // set() (not add()) throughout so a repeated collect() stays idempotent.
    const auto set = [this](const char* name, std::uint64_t v) {
        registry_.counter(name).set(v);
    };

    const Workload::Result& w = result.workload;
    set("workload.submitted", w.submitted);
    set("workload.submitted_in_window", w.submitted_in_window);
    set("workload.completed", w.completed);
    set("workload.not_ordered", w.not_ordered);
    registry_.gauge("workload.throughput").set(w.throughput);
    registry_.gauge("workload.offered_load").set(w.offered_load);
    Histogram& latencies = registry_.histogram("workload.latency_ms");
    latencies.clear();
    latencies.merge(w.latencies);

    const MessageStats& ms = result.messages;
    set("net.arrivals", ms.net_arrivals);
    set("net.sent", ms.net_sent);
    set("net.loss_drops", ms.net_loss_drops);
    set("net.queue_drops", ms.net_queue_drops);
    set("net.bytes_sent", ms.bytes_sent);
    set("net.coordinator_arrivals", ms.coordinator_arrivals);

    // Component counters summed over nodes (and groups), published under
    // the names the runtime's NodeStack uses for one node.
    GossipNode::Counters gc;
    for (const auto& g : gossip_nodes_) {
        const auto& c = g->counters();
        gc.broadcasts += c.broadcasts;
        gc.envelopes_received += c.envelopes_received;
        gc.messages_received += c.messages_received;
        gc.duplicates += c.duplicates;
        gc.delivered += c.delivered;
        gc.filtered += c.filtered;
        gc.aggregated_away += c.aggregated_away;
        gc.envelopes_sent += c.envelopes_sent;
        gc.send_queue_drops += c.send_queue_drops;
        gc.pull_rounds += c.pull_rounds;
        gc.pull_served += c.pull_served;
        gc.pipelined_forwards += c.pipelined_forwards;
        gc.fanout_limited += c.fanout_limited;
        gc.fanout_widened += c.fanout_widened;
    }
    runtime::fill_metrics(registry_, gc);

    runtime::fill_metrics(registry_, process_ptrs());
    set("paxos.decisions_at_coordinator", result.decisions_at_coordinator);
    runtime::fill_metrics(registry_, result.semantic);

    // Multi-group sharding (DESIGN.md §15): dispatcher activity plus one
    // decided/submitted/takeovers triple per group under paxos.g<id>.*, with
    // an aggregate rollup over all groups.
    group::GroupDispatcher::Counters dc;
    for (const auto& s : shards_) {
        const auto& c = s->dispatcher().counters();
        dc.routed += c.routed;
        dc.heartbeats_fanned += c.heartbeats_fanned;
        dc.unroutable += c.unroutable;
    }
    runtime::fill_metrics(registry_, dc);
    set("paxos.groups", static_cast<std::uint64_t>(config_.groups));
    std::uint64_t decided_total = 0;
    std::uint64_t decided_min = ~0ULL;
    for (GroupId g = 0; g < config_.groups; ++g) {
        const std::uint64_t decided =
            result.group_decided.at(static_cast<std::size_t>(g));
        std::uint64_t submitted = 0;
        std::uint64_t takeovers = 0;
        for (const auto& s : shards_) {
            submitted += s->process(g).counters().values_submitted;
            takeovers += s->process(g).counters().takeovers;
        }
        const std::string prefix = "paxos.g" + std::to_string(g);
        registry_.counter(prefix + ".decided").set(decided);
        registry_.counter(prefix + ".submitted").set(submitted);
        registry_.counter(prefix + ".takeovers").set(takeovers);
        decided_total += decided;
        decided_min = std::min(decided_min, decided);
    }
    set("paxos.groups.decided_total", decided_total);
    set("paxos.groups.decided_min", decided_min);

    FailureDetector::Counters fc;
    fc.heartbeats_sent = result.failover.heartbeats_sent;
    fc.heartbeats_suppressed = result.failover.heartbeats_suppressed;
    fc.suspicions = result.failover.suspicions;
    fc.restores = result.failover.restores;
    runtime::fill_metrics(registry_, fc);
    set("fault.injected", result.faults_injected);

    set("sim.events", sim_->events_executed());
    set("sim.deliveries", sim_->deliveries_executed());
    set("sim.callbacks", sim_->callbacks_executed());
    set("sim.faults", sim_->faults_executed());
    registry_.gauge("sim.queue_depth").set(static_cast<double>(sim_->pending_events()));
    registry_.gauge("sim.queue_depth_max")
        .set(static_cast<double>(sim_->max_pending_events()));

    if (tracer_) {
        set("trace.recorded", tracer_->recorded());
        set("trace.evicted", tracer_->evicted());
    }
}

ExperimentResult Deployment::run() {
    start_processes();
    workload_->start();
    sim_->run_until(workload_->total_duration());
    return collect();
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
    Deployment deployment(config);
    return deployment.run();
}

}  // namespace gossipc
