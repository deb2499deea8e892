#include "gossip/gossip_node.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "check/invariant.hpp"
#include "trace/tracer.hpp"

namespace gossipc {

std::string GossipEnvelope::describe() const {
    std::ostringstream oss;
    oss << "gossip[id=" << msg_.id << " origin=" << msg_.origin
        << (msg_.aggregated ? " aggregated" : "") << " "
        << (msg_.payload ? msg_.payload->describe() : std::string{"<null>"}) << "]";
    return oss.str();
}

std::string PullDigest::describe() const {
    std::ostringstream oss;
    oss << "pull-digest[" << ids_.size() << " ids]";
    return oss.str();
}

GossipNode::GossipNode(Host& host, std::vector<ProcessId> peers, Params params,
                       GossipHooks& hooks)
    : host_(host),
      peers_(std::move(peers)),
      params_(params),
      hooks_(hooks),
      seen_(params.seen_cache_capacity),
      rng_(Rng::derive(params.seed, 0x60551ULL ^ static_cast<std::uint64_t>(host.id()))),
      queues_(peers_.size()),
      peer_active_(peers_.size(), true) {
    host_.set_receive_handler(
        [this](const NetMessage& msg, CpuContext& ctx) { on_net_receive(msg, ctx); });
    if (params_.strategy != GossipStrategy::Push && !peers_.empty()) {
        schedule_pull_round();
    }
}

void GossipNode::broadcast(GossipAppMessage msg, CpuContext& ctx) {
    // G-AGG-1: aggregates exist only on the wire, between aggregation at a
    // sender's drain and disaggregation on receive; the application never
    // broadcasts one (it could not interpret it on delivery either).
    GC_INVARIANT(!msg.aggregated,
                 "aggregated gossip message %016llx entered the broadcast path at node %d",
                 static_cast<unsigned long long>(msg.id), host_.id());
    ++counters_.broadcasts;
    if (!seen_.insert_if_new(msg.id)) return;  // re-broadcast of a known id
    if (tracer_) {
        tracer_->record(ctx.now(), trace::Stage::Originate, host_.id(), -1, msg);
        tracer_->record(ctx.now(), trace::Stage::Deliver, host_.id(), -1, msg);
    }
    remember(msg);
    ++counters_.delivered;
    hooks_.on_deliver(msg);
    if (deliver_) deliver_(msg, ctx);
    if (params_.strategy != GossipStrategy::Pull) {
        forward(msg, /*exclude=*/-1);
    } else if (params_.pipeline) {
        ++counters_.pipelined_forwards;
        forward(msg, /*exclude=*/-1);
    }
}

void GossipNode::post_broadcast(GossipAppMessage msg) {
    host_.post([this, msg = std::move(msg)](CpuContext& ctx) { broadcast(msg, ctx); });
}

void GossipNode::on_net_receive(const NetMessage& net_msg, CpuContext& ctx) {
    if (!net_msg.body) return;
    if (net_msg.body->kind() == BodyKind::PullDigest) {
        serve_digest(static_cast<const PullDigest&>(*net_msg.body), net_msg.from, ctx);
        return;
    }
    if (net_msg.body->kind() != BodyKind::GossipEnvelope) return;  // not for us
    ++counters_.envelopes_received;
    const GossipAppMessage& wire_msg =
        static_cast<const GossipEnvelope&>(*net_msg.body).message();
    if (wire_msg.aggregated) {
        // Reversible aggregation: reconstruct the original messages and
        // process each as a regular message.
        std::vector<GossipAppMessage> originals = hooks_.disaggregate(wire_msg);
        for (auto& m : originals) {
            if (m.aggregated) {
                // The hooks have no rule to unpack it (a peer flagged a
                // plain message): drop it here, so peer bytes never reach
                // the delivery path or its G-AGG-1 check.
                ++counters_.bad_aggregates;
                continue;
            }
            m.hops = wire_msg.hops;  // the originals travelled as the aggregate
            ++counters_.messages_received;
            if (tracer_) {
                tracer_->record(ctx.now(), trace::Stage::Disaggregate, host_.id(),
                                net_msg.from, m);
            }
            accept(m, net_msg.from, ctx);
        }
    } else {
        ++counters_.messages_received;
        accept(wire_msg, net_msg.from, ctx);
    }
}

void GossipNode::accept(const GossipAppMessage& msg, ProcessId received_from, CpuContext& ctx) {
    if (tracer_) tracer_->record(ctx.now(), trace::Stage::Receive, host_.id(), received_from, msg);
    if (!seen_.insert_if_new(msg.id)) {
        ++counters_.duplicates;
        if (tracer_) {
            tracer_->record(ctx.now(), trace::Stage::DuplicateDrop, host_.id(),
                            received_from, msg);
        }
        return;
    }
    if (tracer_) tracer_->record(ctx.now(), trace::Stage::Deliver, host_.id(), -1, msg);
    remember(msg);
    ++counters_.delivered;
    hooks_.on_deliver(msg);
    if (deliver_) deliver_(msg, ctx);
    if (params_.strategy != GossipStrategy::Pull) {
        forward(msg, received_from);
    } else if (params_.pipeline) {
        // Pipelined anti-entropy: relay in the step that validated the
        // message rather than waiting out the round boundary. The pull
        // rounds still run and repair anything a restricted fanout missed.
        ++counters_.pipelined_forwards;
        forward(msg, received_from);
    }
}

bool GossipNode::add_peer(ProcessId peer) {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (peers_[i] != peer) continue;
        if (peer_active_[i]) return false;
        peer_active_[i] = true;
        queues_[i].pending.clear();  // stale forwards from before the churn-out
        ++counters_.peers_added;
        return true;
    }
    peers_.push_back(peer);
    queues_.emplace_back();
    peer_active_.push_back(true);
    ++counters_.peers_added;
    return true;
}

bool GossipNode::remove_peer(ProcessId peer) {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (peers_[i] != peer || !peer_active_[i]) continue;
        peer_active_[i] = false;
        queues_[i].pending.clear();
        ++counters_.peers_removed;
        return true;
    }
    return false;
}

bool GossipNode::is_peer(ProcessId peer) const {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (peers_[i] == peer && peer_active_[i]) return true;
    }
    return false;
}

std::size_t GossipNode::active_peer_count() const {
    std::size_t count = 0;
    for (const bool active : peer_active_) count += active ? 1 : 0;
    return count;
}

std::size_t GossipNode::queued_backlog() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (peer_active_[i]) total += queues_[i].pending.size();
    }
    return total;
}

void GossipNode::forward(const GossipAppMessage& msg, ProcessId exclude) {
    std::vector<std::size_t> targets;
    targets.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (peers_[i] == exclude || !peer_active_[i]) continue;
        targets.push_back(i);
    }
    if (params_.fanout > 0 && targets.size() > params_.fanout) {
        // Restricted fanout — unless adaptive widening sees enough backlog
        // to justify flooding the whole neighbourhood. The rng is consumed
        // only on the restricted path, so fanout = 0 runs stay byte-
        // identical to classic flooding.
        if (params_.adaptive_fanout && queued_backlog() >= params_.fanout_pressure) {
            ++counters_.fanout_widened;
        } else {
            for (std::size_t j = 0; j < params_.fanout; ++j) {
                // Partial Fisher-Yates: first `fanout` slots become a
                // uniform subset without shuffling the whole vector.
                const auto pick = j + static_cast<std::size_t>(rng_.uniform_int(
                    0, static_cast<std::int64_t>(targets.size() - 1 - j)));
                std::swap(targets[j], targets[pick]);
            }
            targets.resize(params_.fanout);
            ++counters_.fanout_limited;
        }
    }
    for (const std::size_t i : targets) {
        PeerQueue& q = queues_[i];
        if (q.pending.size() >= params_.peer_queue_cap) {
            ++counters_.send_queue_drops;
            if (tracer_) {
                tracer_->record(host_.now(), trace::Stage::QueueDrop,
                                host_.id(), peers_[i], msg);
            }
            continue;
        }
        if (q.pending.empty()) q.oldest_enqueued = host_.now();
        q.pending.push_back(msg);
        if (!q.drain_scheduled) {
            q.drain_scheduled = true;
            host_.post([this, i](CpuContext& ctx) { drain_peer(i, ctx); });
        } else if (params_.batch_size > 1 && q.pending.size() >= params_.batch_size) {
            // The queue filled while a batching deadline was pending: drain
            // now (the deadline drain finds an empty queue and is a no-op).
            host_.post([this, i](CpuContext& ctx) { drain_peer(i, ctx); });
        }
    }
}

void GossipNode::drain_peer(std::size_t peer_idx, CpuContext& ctx) {
    PeerQueue& q = queues_[peer_idx];
    q.drain_scheduled = false;
    if (!peer_active_[peer_idx]) {  // churned out while the drain was pending
        q.pending.clear();
        return;
    }
    if (q.pending.empty()) return;
    if (params_.batch_size > 1 && q.pending.size() < params_.batch_size) {
        // Batching: hold the queue until it fills or the delay expires.
        const SimTime deadline = q.oldest_enqueued + params_.batch_delay;
        if (ctx.now() < deadline) {
            q.drain_scheduled = true;
            host_.call_at(deadline, [this, peer_idx] {
                host_.post([this, peer_idx](CpuContext& c) { drain_peer(peer_idx, c); });
            });
            return;
        }
    }
    const ProcessId peer = peers_[peer_idx];
    std::vector<GossipAppMessage> pending;
    pending.swap(q.pending);
    const std::size_t before = pending.size();
    ctx.consume(params_.aggregate_cost_per_msg * static_cast<std::int64_t>(before));
    std::vector<GossipAppMessage> inputs;
    if (tracer_) inputs = pending;  // copy for the aggregation diff (traced runs only)
    std::vector<GossipAppMessage> batch = hooks_.aggregate(std::move(pending), peer);
    if (batch.size() < before) {
        counters_.aggregated_away += before - batch.size();
    }
    if (tracer_) trace_aggregation(inputs, batch, peer);
    for (const auto& m : batch) {
        send_to_peer(m, peer, ctx);
    }
}

void GossipNode::trace_aggregation(const std::vector<GossipAppMessage>& inputs,
                                   std::vector<GossipAppMessage>& outputs, ProcessId peer) {
    // Inputs whose id vanished from the output were merged into an aggregate;
    // outputs with a fresh id are the aggregates built. Pass-through batches
    // (the common case) produce no events.
    std::unordered_set<GossipMsgId> out_ids;
    for (const auto& o : outputs) out_ids.insert(o.id);
    std::unordered_set<GossipMsgId> in_ids;
    std::uint16_t merged_hops = 0;
    const SimTime now = host_.now();
    for (const auto& in : inputs) {
        in_ids.insert(in.id);
        if (out_ids.contains(in.id)) continue;
        merged_hops = std::max(merged_hops, in.hops);
        tracer_->record(now, trace::Stage::Aggregate, host_.id(), peer, in);
    }
    for (auto& out : outputs) {
        if (in_ids.contains(out.id)) continue;
        out.hops = merged_hops;  // an aggregate inherits its farthest-travelled input
        tracer_->record(now, trace::Stage::AggregateBuilt, host_.id(), peer, out);
    }
}

void GossipNode::send_to_peer(const GossipAppMessage& msg, ProcessId peer, CpuContext& ctx) {
    ctx.consume(params_.validate_cost);
    if (!hooks_.validate(msg, peer)) {
        ++counters_.filtered;
        if (tracer_) tracer_->record(ctx.now(), trace::Stage::FilterDrop, host_.id(), peer, msg);
        return;
    }
    ++counters_.envelopes_sent;
    if (tracer_) tracer_->record(ctx.now(), trace::Stage::Forward, host_.id(), peer, msg);
    GossipAppMessage out = msg;
    ++out.hops;
    host_.transmit_in_task(
        NetMessage{host_.id(), peer, std::make_shared<GossipEnvelope>(std::move(out))}, ctx);
}

void GossipNode::remember(const GossipAppMessage& msg) {
    // Only pull rounds and serve_digest read the store.
    if (params_.strategy == GossipStrategy::Push || params_.store_capacity == 0) return;
    store_.push_back(msg);
    if (store_.size() > params_.store_capacity) store_.pop_front();
}

void GossipNode::schedule_pull_round() {
    // Jitter the period slightly so rounds of different nodes interleave.
    const auto base = params_.pull_interval.as_nanos();
    const auto jitter = rng_.uniform_int(-base / 8, base / 8);
    host_.call_at(host_.now() + SimTime::nanos(base + jitter), [this] {
        host_.post([this](CpuContext& ctx) { run_pull_round(ctx); });
        schedule_pull_round();
    });
}

void GossipNode::run_pull_round(CpuContext& ctx) {
    std::vector<std::size_t> active;
    active.reserve(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (peer_active_[i]) active.push_back(i);
    }
    if (active.empty()) return;
    // An empty digest is still sent: it is exactly how a node that has
    // nothing learns what it is missing.
    ++counters_.pull_rounds;
    const auto idx = active[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1))];
    std::vector<GossipMsgId> ids;
    const std::size_t count = std::min(params_.digest_max, store_.size());
    ids.reserve(count);
    for (std::size_t i = store_.size() - count; i < store_.size(); ++i) {
        ids.push_back(store_[i].id);
    }
    host_.transmit_in_task(
        NetMessage{host_.id(), peers_[idx], std::make_shared<PullDigest>(std::move(ids))}, ctx);
}

void GossipNode::serve_digest(const PullDigest& digest, ProcessId requester, CpuContext& ctx) {
    const std::unordered_set<GossipMsgId> have(digest.ids().begin(), digest.ids().end());
    for (const auto& m : store_) {
        if (have.contains(m.id)) continue;
        ctx.consume(params_.validate_cost);
        if (!hooks_.validate(m, requester)) {
            ++counters_.filtered;
            if (tracer_) {
                tracer_->record(ctx.now(), trace::Stage::FilterDrop, host_.id(), requester, m);
            }
            continue;
        }
        ++counters_.pull_served;
        ++counters_.envelopes_sent;
        if (tracer_) tracer_->record(ctx.now(), trace::Stage::Forward, host_.id(), requester, m);
        GossipAppMessage out = m;
        ++out.hops;
        host_.transmit_in_task(
            NetMessage{host_.id(), requester, std::make_shared<GossipEnvelope>(std::move(out))},
            ctx);
    }
}

}  // namespace gossipc
