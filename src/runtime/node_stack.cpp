#include "runtime/node_stack.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/runtime_metrics.hpp"
#include "runtime/tcp.hpp"

namespace gossipc::runtime {

NodeStack::NodeStack(Reactor& reactor, Params params, Channel channel,
                     trace::Tracer* tracer)
    : reactor_(reactor),
      params_(std::move(params)),
      channel_(std::move(channel)),
      tracer_(tracer),
      hooks_(apply_setup(params_.setup, params_.paxos, PaxosSemantics::Options{})),
      gate_(reactor, params_.paxos.id) {
    if (params_.setup == Setup::Baseline) {
        params_.neighbors.clear();
        for (ProcessId p = 0; p < params_.paxos.n; ++p) {
            if (p != params_.paxos.id) params_.neighbors.push_back(p);
        }
    }
    build(channel_.bound_fd);
    shard_ = std::make_unique<group::GroupShard>(params_.paxos, gate_, params_.groups);
    for (GroupId g = 0; g < params_.groups; ++g) shard_->process(g).set_tracer(tracer_);
}

void NodeStack::build(int fd) {
    const ProcessId id = params_.paxos.id;
    const bool tcp = channel_.kind == Channel::Kind::Tcp;
    if (channel_.kind != Channel::Kind::Endpoint && fd < 0) {
        const PeerAddress& self = channel_.cluster.at(static_cast<std::size_t>(id));
        std::string err;
        fd = tcp ? listen_tcp(self.host, self.port, &err) : open_udp(self.host, self.port, &err);
        if (fd < 0) {
            throw std::runtime_error((tcp ? "listen on " : "udp bind on ") + self.host + ':' +
                                     std::to_string(self.port) + " failed: " + err);
        }
    }
    PeerChannel* chan = nullptr;
    if (tcp) {
        conns_ = std::make_unique<ConnectionManager>(reactor_, id, channel_.cluster, fd,
                                                     ConnectionManager::Params{});
        chan = conns_.get();
    } else {
        DatagramChannel* datagrams = channel_.endpoint;
        if (channel_.kind == Channel::Kind::Udp) {
            socket_ = std::make_unique<UdpChannel>(reactor_, fd, channel_.cluster);
            datagrams = socket_.get();
            if (channel_.faults != nullptr) {
                channel_.faults->set_inner(socket_.get());
                datagrams = channel_.faults;
            }
        }
        link_ = std::make_unique<UdpLink>(reactor_, id, params_.paxos.n, *datagrams,
                                          params_.link);
        chan = link_.get();
    }
    RealTransport::Params tp;
    tp.mode = params_.setup == Setup::Baseline ? RealTransport::Mode::Direct
                                               : RealTransport::Mode::Gossip;
    tp.neighbors = params_.neighbors;
    transport_ = std::make_unique<RealTransport>(reactor_, *chan, std::move(tp), *hooks_);
    transport_->set_tracer(tracer_);
    gate_.attach(transport_.get());
}

void NodeStack::submit(const Value& value) {
    submitted_.push_back(value);
    shard_->post_submit(value);
}

void NodeStack::crash() {
    gate_.detach();
    transport_.reset();
    link_.reset();
    if (channel_.faults != nullptr) channel_.faults->set_inner(nullptr);
    socket_.reset();
    conns_.reset();  // closes the listener and every connection
}

void NodeStack::restart(bool wiped) {
    ++params_.link.epoch;  // fresh link incarnation: peers reset their dedup state
    build(-1);
    if (!wiped) return;
    for (GroupId g = 0; g < params_.groups; ++g) shard_->process(g).wipe_state();
    for (const Value& v : submitted_) shard_->post_submit(v);
}

void NodeStack::add_peer(ProcessId peer) {
    if (std::find(params_.neighbors.begin(), params_.neighbors.end(), peer) ==
        params_.neighbors.end()) {
        params_.neighbors.push_back(peer);
    }
    if (transport_) transport_->add_peer(peer);
}

void NodeStack::remove_peer(ProcessId peer) {
    std::erase(params_.neighbors, peer);
    if (transport_) transport_->remove_peer(peer);
}

bool NodeStack::links_up() const {
    const PeerChannel* chan = link_ ? static_cast<const PeerChannel*>(link_.get()) : conns_.get();
    return up() && std::all_of(params_.neighbors.begin(), params_.neighbors.end(),
                               [chan](ProcessId p) { return chan->peer_up(p); });
}

void NodeStack::fill_metrics(MetricsRegistry& reg) const {
    // Learner progress summed over groups, plus one pair per group when
    // sharded.
    std::vector<PaxosProcess*> procs;
    std::uint64_t frontier = 0;
    std::uint64_t delivered = 0;
    for (GroupId g = 0; g < params_.groups; ++g) {
        const Learner& learner = procs.emplace_back(&shard_->process(g))->learner();
        frontier += static_cast<std::uint64_t>(learner.frontier());
        delivered += learner.delivered_count();
        if (params_.groups > 1) {
            const std::string prefix = "learner.g" + std::to_string(g);
            reg.counter(prefix + ".frontier").set(static_cast<std::uint64_t>(learner.frontier()));
            reg.counter(prefix + ".delivered").set(learner.delivered_count());
        }
    }
    reg.counter("learner.frontier").set(frontier);
    reg.counter("learner.delivered").set(delivered);
    runtime::fill_metrics(reg, procs);
    runtime::fill_metrics(reg, shard_->dispatcher().counters());
    if (const FailureDetector* d = shard_->detector()) {
        runtime::fill_metrics(reg, *d, params_.paxos.n);
    }
    if (params_.setup == Setup::SemanticGossip) {
        runtime::fill_metrics(reg, static_cast<const PaxosSemantics&>(*hooks_).stats());
    }
    runtime::fill_metrics(reg, gate_.counters());
    if (channel_.faults != nullptr) runtime::fill_metrics(reg, channel_.faults->counters());
    if (transport_) runtime::fill_metrics(reg, transport_->counters());
    if (link_) runtime::fill_metrics(reg, *link_);
    if (conns_) runtime::fill_metrics(reg, conns_->counters());
}

}  // namespace gossipc::runtime
