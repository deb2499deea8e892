#include "raft/replica.hpp"

#include <stdexcept>

namespace gossipc {

RaftReplica::RaftReplica(const RaftConfig& config, GossipNode& gossip)
    : config_(config), gossip_(gossip) {
    if (config_.n <= 0 || config_.id < 0 || config_.id >= config_.n) {
        throw std::invalid_argument("RaftReplica: bad config");
    }
    gossip_.set_deliver(
        [this](const GossipAppMessage& msg, CpuContext& ctx) { on_deliver(msg, ctx); });
}

void RaftReplica::broadcast(RaftMessagePtr msg, CpuContext& ctx) {
    GossipAppMessage app;
    app.id = msg->unique_key();
    app.origin = config_.id;
    app.payload = std::move(msg);
    gossip_.broadcast(std::move(app), ctx);
}

void RaftReplica::submit(const Value& value, CpuContext& ctx) {
    if (is_leader()) {
        replicate(value, ctx);
    } else {
        broadcast(std::make_shared<ClientForwardMsg>(config_.id, value), ctx);
    }
}

void RaftReplica::post_submit(const Value& value) {
    gossip_.host().post([this, value](CpuContext& ctx) { submit(value, ctx); });
}

void RaftReplica::replicate(const Value& value, CpuContext& ctx) {
    if (!seen_values_.insert(value.id).second) return;  // duplicate forward
    const LogIndex index = next_index_++;
    ++counters_.appends_sent;
    broadcast(std::make_shared<AppendMsg>(config_.id, config_.term, index, value), ctx);
}

void RaftReplica::on_deliver(const GossipAppMessage& msg, CpuContext& ctx) {
    if (!msg.payload || msg.payload->kind() != BodyKind::Raft) return;
    const auto raft = std::static_pointer_cast<const RaftMessage>(msg.payload);
    switch (raft->type()) {
        case RaftMsgType::ClientForward:
            if (is_leader()) {
                replicate(static_cast<const ClientForwardMsg&>(*raft).value(), ctx);
            }
            break;
        case RaftMsgType::Append:
            handle_append(static_cast<const AppendMsg&>(*raft), ctx);
            break;
        case RaftMsgType::Ack:
            handle_ack(static_cast<const AckMsg&>(*raft), ctx);
            break;
        case RaftMsgType::AckAggregate:
            // Reversible aggregates are unpacked by the gossip layer.
            break;
        case RaftMsgType::Commit:
            handle_commit(static_cast<const CommitMsg&>(*raft), ctx);
            break;
    }
}

void RaftReplica::handle_append(const AppendMsg& msg, CpuContext& ctx) {
    if (msg.term() != config_.term) return;  // single-term regular operation
    if (msg.index() < frontier_) return;     // already committed & delivered
    slots_[msg.index()].value = msg.value();
    ++counters_.acks_sent;
    // broadcast() self-delivers our own Ack synchronously; if it completes
    // the quorum, try_deliver() erases this slot — no reference into slots_
    // may be held across the call.
    broadcast(std::make_shared<AckMsg>(config_.id, msg.term(), msg.index(),
                                       msg.value().digest()),
              ctx);
    const auto it = slots_.find(msg.index());
    if (it != slots_.end() && it->second.committed) {
        try_deliver(ctx);  // value may unblock delivery
    }
}

void RaftReplica::handle_ack(const AckMsg& msg, CpuContext& ctx) {
    if (msg.term() != config_.term || msg.index() < frontier_) return;
    Slot& slot = slots_[msg.index()];
    if (slot.committed) return;
    auto& voters = slot.acks[msg.value_digest()];
    voters.insert(msg.sender());
    if (static_cast<int>(voters.size()) >= config_.quorum()) {
        mark_committed(msg.index(), msg.value_digest(), /*via_quorum=*/true, ctx);
    }
}

void RaftReplica::handle_commit(const CommitMsg& msg, CpuContext& ctx) {
    if (msg.term() != config_.term || msg.index() < frontier_) return;
    Slot& slot = slots_[msg.index()];
    if (!slot.committed) {
        mark_committed(msg.index(), msg.value_digest(), /*via_quorum=*/false, ctx);
    }
}

void RaftReplica::mark_committed(LogIndex index, std::uint64_t digest, bool via_quorum,
                                 CpuContext& ctx) {
    Slot& slot = slots_[index];
    slot.committed = true;
    slot.committed_digest = digest;
    slot.acks.clear();
    if (via_quorum && is_leader()) {
        ++counters_.commits_sent;
        broadcast(std::make_shared<CommitMsg>(config_.id, config_.term, index, digest), ctx);
    }
    try_deliver(ctx);
}

void RaftReplica::try_deliver(CpuContext& ctx) {
    while (true) {
        const auto it = slots_.find(frontier_);
        if (it == slots_.end() || !it->second.committed) return;
        const Slot& slot = it->second;
        if (!slot.value || slot.value->digest() != slot.committed_digest) return;
        const Value value = *slot.value;
        log_.emplace(frontier_, value);
        ++counters_.committed;
        const LogIndex delivered = frontier_;
        slots_.erase(it);
        ++frontier_;
        if (commit_listener_) commit_listener_(delivered, value, ctx);
    }
}

std::optional<Value> RaftReplica::committed_value(LogIndex index) const {
    const auto it = log_.find(index);
    if (it == log_.end()) return std::nullopt;
    return it->second;
}

}  // namespace gossipc
