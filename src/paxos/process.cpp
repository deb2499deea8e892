#include "paxos/process.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "trace/tracer.hpp"

namespace gossipc {

trace::PayloadInfo paxos_payload_info(const MessageBody& body) {
    trace::PayloadInfo info;
    if (body.kind() != BodyKind::Paxos) return info;
    const auto& pm = static_cast<const PaxosMessage&>(body);
    info.type = static_cast<std::int16_t>(pm.type());
    info.type_name = paxos_msg_type_name(pm.type());
    info.group = pm.group();
    switch (pm.type()) {
        case PaxosMsgType::Phase2a:
            info.instance = static_cast<const Phase2aMsg&>(pm).instance();
            break;
        case PaxosMsgType::Phase2b:
            info.instance = static_cast<const Phase2bMsg&>(pm).instance();
            break;
        case PaxosMsgType::Phase2bAggregate:
            info.instance = static_cast<const Phase2bAggregateMsg&>(pm).instance();
            break;
        case PaxosMsgType::Decision:
            info.instance = static_cast<const DecisionMsg&>(pm).instance();
            break;
        case PaxosMsgType::LearnRequest:
            info.instance = static_cast<const LearnRequestMsg&>(pm).instance();
            break;
        case PaxosMsgType::GroupBatch:
            // Spans groups by construction: joinable per entry, not per
            // envelope.
            info.group = -1;
            break;
        case PaxosMsgType::ClientValue:
        case PaxosMsgType::Phase1a:
        case PaxosMsgType::Phase1b:
        case PaxosMsgType::Heartbeat:
            // Not bound to a single consensus instance; traced with the
            // type tag only.
            break;
    }
    return info;
}

PaxosProcess::PaxosProcess(const PaxosConfig& config, Transport& transport,
                           FailureDetector* shared_detector)
    : config_(config),
      transport_(transport),
      learner_(config.quorum()),
      believed_coordinator_(config.coordinator) {
    if (config_.n <= 0 || config_.id < 0 || config_.id >= config_.n) {
        throw std::invalid_argument("PaxosProcess: bad config");
    }
    transport_.set_deliver(
        [this](const PaxosMessagePtr& msg, CpuContext& ctx) { on_message(msg, ctx); });
    learner_.set_deliver([this](InstanceId instance, const Value& value, CpuContext& ctx) {
        // Note: accepted state is NOT garbage-collected here. Phase 1 must
        // be able to report accepted values to a new coordinator; dropping
        // them below the local frontier would let a new round re-propose a
        // different value into a decided instance. Applications checkpoint
        // via Acceptor::forget_below / Learner::truncate_log_below once a
        // prefix is globally stable.
        pending_submissions_.erase(value.id);
        if (tracer_) tracer_->record_decide(ctx.now(), config_.id, instance, config_.group);
        // Composite values (coordinator-side batches, DESIGN.md §14) are
        // unpacked HERE, above the learner: the learner's log keeps the
        // composite (digest agreement, LearnRequest answers, instance-
        // granular delivered_count), while every downstream consumer —
        // clients, invariant monitors, the workload's latency accounting —
        // sees the components one by one, in batch order, each with its own
        // per-value delivery callback.
        if (value.is_batch()) {
            for (const Value& component : value.batch) {
                pending_submissions_.erase(component.id);
                if (delivery_listener_) delivery_listener_(instance, component, ctx);
            }
        } else if (delivery_listener_) {
            delivery_listener_(instance, value, ctx);
        }
    });
    learner_.set_decided_listener(
        [this](InstanceId instance, const Value& value, bool via_quorum, CpuContext& ctx) {
            if (coordinator_) coordinator_->on_decided(instance, value, via_quorum, ctx);
        });
    if (config_.id == config_.coordinator) {
        coordinator_ = std::make_unique<Coordinator>(config_, transport_, learner_);
    }
    if (config_.failover_enabled) {
        if (shared_detector != nullptr) {
            // Sharded deployment: the detector (heartbeats, suspicion state,
            // succession rank) is per-node and shared; this group only
            // subscribes to its events. The shard layer provides the
            // per-group heartbeat frontiers.
            detector_ = shared_detector;
        } else {
            owned_detector_ = std::make_unique<FailureDetector>(config_, transport_);
            detector_ = owned_detector_.get();
            detector_->set_frontier_provider([this] { return learner_.frontier(); });
        }
        detector_->set_on_suspect(
            [this](ProcessId peer, CpuContext& ctx) { on_peer_suspected(peer, ctx); });
        detector_->set_on_restore([this](ProcessId peer, CpuContext& ctx) {
            emit_failover(FailoverEvent::Restore, peer, highest_round_seen_, ctx);
        });
    }
}

void PaxosProcess::post_start() {
    // The repair timer is armed at the simulator level so the chain
    // survives crash/recovery cycles of this process.
    if (config_.timeouts_enabled && !started_) {
        transport_.schedule_every(config_.repair_interval,
                                  [this](CpuContext& ctx) { repair_sweep(ctx); });
    }
    if (detector_ && !started_) detector_->start();
    started_ = true;
    transport_.post([this](CpuContext& ctx) {
        if (coordinator_) coordinator_->start(ctx);
    });
}

void PaxosProcess::wipe_state() {
    if (coordinator_) {
        if (!config_.failover_enabled && coordinator_->active()) {
            throw std::logic_error(
                "PaxosProcess::wipe_state: cannot wipe an acting coordinator");
        }
        // The orphaned values are discarded together with the rest of the
        // volatile state: their origin processes retransmit them.
        coordinator_->step_down();
    }
    acceptor_.reset();  // keeps the promise floor (the boot-block integer)
    learner_.reset();
    pending_submissions_.clear();
    last_frontier_ = 1;
    frontier_changed_at_ = SimTime::zero();
    repair_attempt_ = 0;
    advertised_frontier_ = 1;
    believed_coordinator_ = config_.coordinator;
    highest_round_seen_ = 0;
}

void PaxosProcess::become_coordinator() {
    if (coordinator_ && coordinator_->active()) return;
    if (!started_) post_start();
    transport_.post([this](CpuContext& ctx) { take_over(ctx); });
}

void PaxosProcess::submit(const Value& value, CpuContext& ctx) {
    ++counters_.values_submitted;
    if (config_.timeouts_enabled) {
        pending_submissions_.emplace(value.id, PendingSubmission{value, ctx.now(), 0});
    }
    if (coordinator_ && coordinator_->active()) {
        coordinator_->on_client_value(value, ctx);
    } else {
        transport_.send(believed_coordinator_,
                        std::make_shared<ClientValueMsg>(config_.id, value, 0,
                                                         believed_coordinator_),
                        ctx);
    }
}

void PaxosProcess::post_submit(const Value& value) {
    transport_.post([this, value](CpuContext& ctx) { submit(value, ctx); });
}

void PaxosProcess::on_message(const PaxosMessagePtr& msg, CpuContext& ctx) {
    ++counters_.messages_handled;
    ++counters_.handled_by_type[static_cast<std::size_t>(msg->type())];
    if (detector_) detector_->observe_alive(msg->sender(), ctx);
    switch (msg->type()) {
        case PaxosMsgType::ClientValue: {
            const auto& m = static_cast<const ClientValueMsg&>(*msg);
            if (coordinator_ && coordinator_->active()) {
                coordinator_->on_client_value(m.value(), ctx);
            } else if (m.target() == config_.id && !m.forwarded() &&
                       believed_coordinator_ != config_.id &&
                       believed_coordinator_ != m.sender()) {
                // Stale routing after failover: this process was addressed as
                // coordinator but is demoted (or never was one). Relay one hop
                // to the coordinator it believes in — without this, a laggard
                // whose believed-coordinator pointer is stale would retransmit
                // into a silent drop forever in the direct setup.
                transport_.send(believed_coordinator_,
                                std::make_shared<ClientValueMsg>(config_.id, m.value(),
                                                                 m.attempt(),
                                                                 believed_coordinator_,
                                                                 /*forwarded=*/true),
                                ctx);
            }
            break;
        }
        case PaxosMsgType::Phase1a:
            handle_phase1a(static_cast<const Phase1aMsg&>(*msg), ctx);
            break;
        case PaxosMsgType::Phase1b: {
            const auto& m = static_cast<const Phase1bMsg&>(*msg);
            if (coordinator_ && config_.round_owner(m.round()) == config_.id) {
                coordinator_->on_phase1b(m, ctx);
            }
            break;
        }
        case PaxosMsgType::Phase2a:
            handle_phase2a(static_cast<const Phase2aMsg&>(*msg), ctx);
            break;
        case PaxosMsgType::Phase2b:
            learner_.on_phase2b(static_cast<const Phase2bMsg&>(*msg), ctx);
            break;
        case PaxosMsgType::Phase2bAggregate:
            // Reversible aggregates are disaggregated by the gossip layer;
            // Paxos itself never handles them.
            break;
        case PaxosMsgType::Decision:
            learner_.on_decision(static_cast<const DecisionMsg&>(*msg), ctx);
            break;
        case PaxosMsgType::LearnRequest:
            handle_learn_request(static_cast<const LearnRequestMsg&>(*msg), ctx);
            break;
        case PaxosMsgType::Heartbeat:
            // observe_alive above took the liveness evidence; the advertised
            // frontier feeds gap repair (see repair_sweep). Heartbeats carry
            // one frontier per group; read the slot for this group.
            advertised_frontier_ = std::max(
                advertised_frontier_,
                static_cast<const HeartbeatMsg&>(*msg).frontier_for(config_.group));
            break;
        case PaxosMsgType::GroupBatch:
            // Cross-group aggregates are unpacked by the gossip layer before
            // delivery (like Phase2bAggregate); Paxos never handles them.
            break;
    }
}

void PaxosProcess::handle_phase1a(const Phase1aMsg& msg, CpuContext& ctx) {
    note_round_observed(msg.round(), ctx);
    auto result = acceptor_.on_phase1a(msg.round(), msg.from_instance());
    if (!result.promised) return;
    // Also report decisions this learner knows in the promised range. A
    // crash-with-wipe can erase every acceptor copy of a chosen value while
    // unwiped learners still hold it (the Decision broadcast reached them);
    // without this, a takeover whose promise quorum lost the acceptor
    // evidence re-fills the instance with a fresh value and splits the live
    // learners (observed under the runtime chaos bridge, DESIGN.md §13).
    // The kDecidedRound sentinel makes these entries win the coordinator's
    // per-instance highest-vround merge over any bare acceptance.
    for (InstanceId i = msg.from_instance(); i <= learner_.highest_seen(); ++i) {
        if (const auto v = learner_.decided_value(i)) {
            result.accepted.push_back(AcceptedEntry{i, kDecidedRound, *v});
        }
    }
    transport_.send(config_.round_owner(msg.round()),
                    std::make_shared<Phase1bMsg>(config_.id, msg.round(), msg.from_instance(),
                                                 result.accepted),
                    ctx);
}

void PaxosProcess::handle_phase2a(const Phase2aMsg& msg, CpuContext& ctx) {
    note_round_observed(msg.round(), ctx);
    learner_.on_phase2a(msg, ctx);  // cache the value for digest resolution
    if (!acceptor_.on_phase2a(msg.instance(), msg.round(), msg.value())) return;
    transport_.send(config_.round_owner(msg.round()),
                    std::make_shared<Phase2bMsg>(config_.id, msg.instance(), msg.round(),
                                                 msg.value().id, msg.value().digest(),
                                                 msg.attempt()),
                    ctx);
}

void PaxosProcess::handle_learn_request(const LearnRequestMsg& msg, CpuContext& ctx) {
    // The active coordinator answers, plus the explicitly addressed process
    // (which may be live but demoted — a laggard's believed-coordinator
    // pointer can be stale after failover, and in the direct setup nobody
    // else receives the request). At most two repliers, so gossip setups
    // cannot storm. Replies cover a batch of consecutive instances so a
    // recovering process catches up in few round trips.
    if (msg.sender() == config_.id) return;
    const bool acting = coordinator_ && coordinator_->active();
    if (!acting && msg.target() != config_.id) return;
    constexpr InstanceId kBatch = 32;
    bool answered = false;
    for (InstanceId i = msg.instance(); i < msg.instance() + kBatch; ++i) {
        const auto value = learner_.decided_value(i);
        if (!value) break;  // contiguous prefix only
        answered = true;
        transport_.send(msg.sender(),
                        std::make_shared<DecisionMsg>(config_.id, i, value->id,
                                                      value->digest(), *value,
                                                      /*attempt=*/msg.attempt()),
                        ctx);
    }
    if (answered) ++counters_.learn_requests_answered;
}

void PaxosProcess::repair_sweep(CpuContext& ctx) {
    // Learner gap repair: ask the believed coordinator for missing decisions.
    const InstanceId frontier = learner_.frontier();
    // A gap is known either from protocol traffic beyond the frontier or
    // from a peer heartbeat advertising a higher frontier — the latter is
    // the only evidence left when nothing new is being decided (drain).
    const bool gap_known =
        learner_.highest_seen() >= frontier || advertised_frontier_ > frontier;
    // An acting coordinator cannot ask itself for missing decisions (it IS
    // the believed coordinator); repair from the next live peer instead.
    ProcessId repair_target = believed_coordinator_;
    if (repair_target == config_.id) {
        repair_target = detector_ ? detector_->next_live_after(config_.id)
                                  : static_cast<ProcessId>((config_.id + 1) % config_.n);
    }
    if (frontier != last_frontier_) {
        // Repair replies just advanced the frontier: if a gap remains, keep
        // draining it at sweep cadence instead of waiting out repair_after
        // again — a process restarted late in a chaos window can owe
        // hundreds of instances and the drain window is finite.
        const bool draining = repair_attempt_ > 0 && gap_known;
        last_frontier_ = frontier;
        frontier_changed_at_ = ctx.now();
        repair_attempt_ = 0;
        if (draining && repair_target != config_.id) {
            ++counters_.learn_requests_sent;
            transport_.send(repair_target,
                            std::make_shared<LearnRequestMsg>(config_.id, frontier,
                                                              repair_attempt_++,
                                                              repair_target),
                            ctx);
        }
    } else if (gap_known && repair_target != config_.id &&
               ctx.now() - frontier_changed_at_ >= config_.repair_after) {
        ++counters_.learn_requests_sent;
        transport_.send(repair_target,
                        std::make_shared<LearnRequestMsg>(config_.id, frontier,
                                                          repair_attempt_++,
                                                          repair_target),
                        ctx);
    }

    // Submission repair: re-send client values that are still undelivered
    // (a lost ClientValue is otherwise unrecoverable). The seed-derived
    // jitter de-synchronizes retransmission bursts across processes.
    for (auto& [vid, pending] : pending_submissions_) {
        const auto shift = std::min(pending.attempt, 3);
        const SimTime deadline =
            config_.retransmit_after * (1 << shift) +
            config_.backoff_jitter(std::hash<ValueId>{}(vid), pending.attempt);
        if (ctx.now() - pending.last_sent < deadline) continue;
        pending.last_sent = ctx.now();
        ++pending.attempt;
        ++counters_.value_retransmissions;
        if (coordinator_ && coordinator_->active()) {
            coordinator_->on_client_value(pending.value, ctx);
        } else {
            transport_.send(believed_coordinator_,
                            std::make_shared<ClientValueMsg>(config_.id, pending.value,
                                                             pending.attempt,
                                                             believed_coordinator_),
                            ctx);
        }
    }
}

void PaxosProcess::on_peer_suspected(ProcessId peer, CpuContext& ctx) {
    emit_failover(FailoverEvent::Suspect, peer, highest_round_seen_, ctx);
    if (peer != believed_coordinator_) return;
    // Rank-based succession: the next unsuspected process after the failed
    // coordinator takes over; everyone else re-routes to it.
    const ProcessId successor = detector_->next_live_after(peer);
    if (successor == config_.id) {
        take_over(ctx);
    } else {
        set_believed_coordinator(successor, ctx);
    }
}

void PaxosProcess::take_over(CpuContext& ctx) {
    if (coordinator_ && coordinator_->active()) return;
    if (!coordinator_) {
        coordinator_ = std::make_unique<Coordinator>(config_, transport_, learner_);
    }
    believed_coordinator_ = config_.id;
    ++counters_.takeovers;
    // highest_round_seen_ is volatile and wiped by a crash; the acceptor's
    // promise floor is durable and bounds every round a coordinator ever
    // completed Phase 1 with. Starting below it would get this takeover
    // rejected by every acceptor (and stall: an acting coordinator never
    // gap-repairs through LearnRequests).
    highest_round_seen_ = std::max(highest_round_seen_, acceptor_.promise_floor());
    coordinator_->activate(highest_round_seen_, ctx);
    highest_round_seen_ = std::max(highest_round_seen_, coordinator_->round());
    GCLOG_DEBUG("process " << config_.id << " taking over as coordinator, round "
                           << coordinator_->round());
    emit_failover(FailoverEvent::Takeover, config_.id, coordinator_->round(), ctx);
    // Values submitted through this process and still undelivered are now
    // this coordinator's responsibility; propose them directly.
    for (auto& [vid, pending] : pending_submissions_) {
        coordinator_->on_client_value(pending.value, ctx);
    }
}

void PaxosProcess::note_round_observed(Round round, CpuContext& ctx) {
    if (round <= highest_round_seen_) return;
    highest_round_seen_ = round;
    const ProcessId owner = config_.round_owner(round);
    if (owner == config_.id) return;
    if (coordinator_ && coordinator_->active()) {
        // A competing coordinator reached a higher round: demote ourselves
        // (at most one coordinator can complete Phase 1 per round, and our
        // lower round is now dead). Values we were responsible for go back
        // into the submission-repair queue routed to the new owner.
        ++counters_.step_downs;
        GCLOG_DEBUG("process " << config_.id << " stepping down, observed round " << round
                               << " owned by " << owner);
        emit_failover(FailoverEvent::StepDown, owner, round, ctx);
        std::vector<Value> orphaned = coordinator_->step_down();
        if (config_.timeouts_enabled) {
            for (Value& v : orphaned) {
                const ValueId vid = v.id;
                pending_submissions_.emplace(vid,
                                             PendingSubmission{std::move(v), ctx.now(), 0});
            }
        }
    }
    set_believed_coordinator(owner, ctx);
}

void PaxosProcess::set_believed_coordinator(ProcessId peer, CpuContext& ctx) {
    if (peer == believed_coordinator_) return;
    believed_coordinator_ = peer;
    if (peer == config_.id) return;
    // Re-route pending submissions: reset the backoff so the next repair
    // sweep re-sends them to the new coordinator promptly. Immediate
    // forwarding would be wasted — a successor that has not finished its
    // takeover Phase 1 would only buffer or drop them anyway.
    for (auto& [vid, pending] : pending_submissions_) {
        pending.attempt = 0;
        pending.last_sent = ctx.now() - config_.retransmit_after;
    }
}

void PaxosProcess::emit_failover(FailoverEvent event, ProcessId subject, Round round,
                                 CpuContext& ctx) {
    if (failover_listener_) failover_listener_(event, subject, round, ctx);
}

}  // namespace gossipc
