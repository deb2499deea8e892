// Runtime fault bridge (DESIGN.md §13): replays a FaultSchedule against an
// in-process or multi-process real-runtime cluster through the simulator's
// own FaultInjector, which decides when each event fires, whether it is
// skipped, the deferred wipe, the counters and the log. The bridge supplies
// only the runtime's hooks:
//  * schedule -> a reactor timer at the event's time (reactor time, counted
//    from reactor construction; an event already due fires at once, in
//    schedule order);
//  * CrashFault/RestartFault -> the harness's teardown / rebuild of the
//    node's socket stack around its stable GatedTransport facade;
//  * PartitionFault/HealFault and LinkFaultStart/End -> per-directed-link
//    DatagramFaultSpecs (a cut is loss 1.0, layered over any active fault
//    window, which a heal re-exposes). Without set_link/clear_link (the TCP
//    lane) these events are logged as skipped;
//  * ChurnDropEdge/ChurnAddEdge -> overlay edge accounting plus the
//    harness's live neighbor updates.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/datagram_faults.hpp"
#include "fault/injector.hpp"
#include "runtime/reactor.hpp"

namespace gossipc::runtime {

class ChaosBridge {
public:
    struct Hooks {
        /// Tears down process p's socket stack (detach + destroy).
        std::function<void(ProcessId)> crash_node;
        /// Re-creates process p's socket stack; `wiped` says its crash lost
        /// durable state (the harness wipes the PaxosProcess before or at
        /// re-attach, as Deployment's restart hook does).
        std::function<void(ProcessId, bool wiped)> restart_node;
        /// Installs the effective fault spec on the directed link from->to.
        std::function<void(ProcessId from, ProcessId to,
                           const fault::DatagramFaultSpec& spec)>
            set_link;
        /// Removes the per-link override (the ambient default applies again).
        std::function<void(ProcessId from, ProcessId to)> clear_link;
        /// The runtime overlay, mutated by churn. Null = no overlay (Direct
        /// mode): churn events are logged as skipped.
        Graph* overlay = nullptr;
        /// Live neighbor updates after an overlay edge change.
        std::function<void(ProcessId a, ProcessId b)> drop_edge;
        std::function<void(ProcessId a, ProcessId b)> add_edge;
    };

    using Counters = FaultInjector::Counters;

    ChaosBridge(Reactor& reactor, int cluster_size, FaultSchedule schedule, Hooks hooks);
    ChaosBridge(const ChaosBridge&) = delete;
    ChaosBridge& operator=(const ChaosBridge&) = delete;

    /// Schedules every event on the reactor at its time. Call exactly once.
    void arm() { injector_.arm(); }

    const FaultSchedule& schedule() const { return injector_.schedule(); }
    const Counters& counters() const { return injector_.counters(); }
    /// True once every scheduled event has fired.
    bool done() const { return injector_.done(); }

    /// The injected-fault log, one line per event in execution order,
    /// stamped with scheduled (not wall-clock) nanoseconds — byte-identical
    /// across replays of the same schedule.
    const std::vector<std::string>& log() const { return injector_.log(); }
    std::string rendered_log() const { return injector_.rendered_log(); }

private:
    FaultInjector::Hooks injector_hooks(Reactor& reactor, Hooks hooks);
    /// Pushes the effective spec for from->to down to the network: a cut
    /// beats a window beats the ambient default.
    void refresh_link(ProcessId from, ProcessId to);

    std::function<void(ProcessId, ProcessId, const fault::DatagramFaultSpec&)> set_link_;
    std::function<void(ProcessId, ProcessId)> clear_link_;
    std::set<std::pair<ProcessId, ProcessId>> cuts_;  ///< partitioned directed links
    std::map<std::pair<ProcessId, ProcessId>, fault::DatagramFaultSpec> windows_;
    FaultInjector injector_;
};

}  // namespace gossipc::runtime
