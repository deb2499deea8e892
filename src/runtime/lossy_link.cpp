#include "runtime/lossy_link.hpp"

#include <utility>

namespace gossipc::runtime {

LossyDatagramNetwork::LossyDatagramNetwork(Reactor& reactor, int n, std::uint64_t seed,
                                           Params params)
    : reactor_(reactor), params_(params), faults_(seed) {
    endpoints_.reserve(static_cast<std::size_t>(n));
    for (ProcessId id = 0; id < n; ++id) {
        endpoints_.push_back(std::make_unique<Endpoint>(*this, id));
    }
}

const fault::DatagramFaultSpec& LossyDatagramNetwork::spec_for(ProcessId from,
                                                               ProcessId to) const {
    if (const auto it = link_specs_.find({from, to}); it != link_specs_.end()) {
        return it->second;
    }
    return default_spec_;
}

bool LossyDatagramNetwork::transmit(ProcessId from, ProcessId to,
                                    std::span<const std::uint8_t> datagram) {
    if (to < 0 || to >= size() || datagram.size() > params_.max_datagram_bytes) {
        return false;
    }
    const auto [seq, fate] = faults_.apply(
        spec_for(from, to), from, to, datagram,
        [&](std::span<const std::uint8_t> bytes, SimTime delay) {
            schedule_delivery(to, {bytes.begin(), bytes.end()}, params_.base_delay + delay);
        });
    if (!fate.clean()) {
        log_.emplace(std::make_tuple(from, to, seq),
                     fault::DatagramFaultModel::describe(from, to, seq, fate));
    }
    return true;  // sent, from the sender's point of view, even if dropped
}

void LossyDatagramNetwork::schedule_delivery(ProcessId to, std::vector<std::uint8_t> bytes,
                                             SimTime delay) {
    auto buf = std::make_shared<std::vector<std::uint8_t>>(std::move(bytes));
    reactor_.schedule_after(delay, [this, to, buf] {
        ++delivered_;
        endpoints_[static_cast<std::size_t>(to)]->deliver(*buf);
    });
}

std::string LossyDatagramNetwork::fault_log() const {
    std::string out;
    for (const auto& [key, line] : log_) {
        out += line;
        out += '\n';
    }
    return out;
}

bool ChaosDatagramChannel::send(ProcessId to, std::span<const std::uint8_t> datagram) {
    if (inner_ == nullptr) return false;
    const auto it = specs_.find(to);
    static const fault::DatagramFaultSpec kClean;
    bool ok = true;  // a dropped datagram was consumed by the wire, like real loss
    faults_.apply(it != specs_.end() ? it->second : kClean, self_, to, datagram,
                  [&](std::span<const std::uint8_t> bytes, SimTime delay) {
                      if (delay == SimTime::zero()) {
                          ok = inner_->send(to, bytes) && ok;
                          return;
                      }
                      reactor_.schedule_after(
                          delay, [this, to, copy = std::vector<std::uint8_t>(
                                                bytes.begin(), bytes.end())] {
                              if (inner_ != nullptr) inner_->send(to, copy);
                          });
                  });
    return ok;
}

}  // namespace gossipc::runtime
