#include "runtime/chaos_bridge.hpp"

namespace gossipc::runtime {

namespace {
/// LinkFaultSpec (stream semantics) translated to the datagram boundary:
/// loss/duplicate/reorder map one-to-one, extra_delay shifts every delivery,
/// and truncation stays zero (a stream fault window cannot express it).
fault::DatagramFaultSpec to_datagram_spec(const LinkFaultSpec& spec) {
    fault::DatagramFaultSpec out;
    out.loss = spec.loss;
    out.duplicate = spec.duplicate;
    out.reorder_window = spec.reorder_window;
    out.extra_delay = spec.extra_delay;
    return out;
}
}  // namespace

ChaosBridge::ChaosBridge(Reactor& reactor, int cluster_size, FaultSchedule schedule,
                         Hooks hooks)
    : set_link_(std::move(hooks.set_link)),
      clear_link_(std::move(hooks.clear_link)),
      injector_(cluster_size, std::move(schedule), injector_hooks(reactor, std::move(hooks))) {}

FaultInjector::Hooks ChaosBridge::injector_hooks(Reactor& reactor, Hooks hooks) {
    FaultInjector::Hooks h;
    h.schedule = [&reactor](SimTime at, std::function<void()> fn) {
        reactor.schedule_at(at, std::move(fn));
    };
    h.crash = std::move(hooks.crash_node);
    h.restart = std::move(hooks.restart_node);
    if (set_link_ && clear_link_) {
        h.cut = [this](ProcessId a, ProcessId b) {
            cuts_.insert({a, b});
            cuts_.insert({b, a});
            refresh_link(a, b);
            refresh_link(b, a);
        };
        h.heal = [this] {
            // Re-expose whatever is underneath each healed cut: an active
            // fault window, or the ambient default.
            const auto cut = std::move(cuts_);
            cuts_.clear();
            for (const auto& [from, to] : cut) refresh_link(from, to);
        };
        h.link_fault = [this](ProcessId from, ProcessId to, const LinkFaultSpec* spec) {
            if (spec != nullptr) {
                windows_[{from, to}] = to_datagram_spec(*spec);
            } else {
                windows_.erase({from, to});
            }
            refresh_link(from, to);
        };
    }
    h.overlay = hooks.overlay;
    h.drop_edge = std::move(hooks.drop_edge);
    h.add_edge = std::move(hooks.add_edge);
    return h;
}

void ChaosBridge::refresh_link(ProcessId from, ProcessId to) {
    if (cuts_.count({from, to}) > 0) {
        fault::DatagramFaultSpec cut;
        cut.loss = 1.0;  // partition = total loss, both directions
        set_link_(from, to, cut);
    } else if (const auto it = windows_.find({from, to}); it != windows_.end()) {
        set_link_(from, to, it->second);
    } else {
        clear_link_(from, to);
    }
}

}  // namespace gossipc::runtime
