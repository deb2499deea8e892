// Fault injection engine (DESIGN.md §7): replays a FaultSchedule against a
// live deployment, on either substrate.
//
// The injector alone decides what an event does to the run: when it fires
// (its scheduled time, through the substrate's schedule hook), whether it
// applies or is skipped (restart of a live process, churn that would
// disconnect the overlay, a fault lane the substrate has no hook for, ...),
// the deferred durable-state wipe, the counters and the one log line per
// event. A substrate supplies only the hooks that act: the simulator's
// Deployment flips node, link and overlay state; the runtime's ChaosBridge
// drives reactor timers and socket stacks. Every log line is stamped with
// the event's scheduled time and every skip decision depends only on
// injector state, so the same schedule yields a byte-identical log on every
// replay and on both substrates — that property is what makes chaos seeds
// replayable and pinnable.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "overlay/graph.hpp"

namespace gossipc {

class FaultInjector {
public:
    /// What a substrate does when an event applies. schedule, crash and
    /// restart are required; an event whose lane has no hook is logged as
    /// skipped.
    struct Hooks {
        /// Runs `fn` at absolute time `at`; events due at the same time must
        /// run in the order they were scheduled.
        std::function<void(SimTime at, std::function<void()> fn)> schedule;
        /// Stops process p: its traffic and pending tasks are lost.
        std::function<void(ProcessId p)> crash;
        /// Brings process p back; `wiped` says its crash lost durable state,
        /// which the hook wipes.
        std::function<void(ProcessId p, bool wiped)> restart;
        /// Cuts both directions of the link a-b (partition lane).
        std::function<void(ProcessId a, ProcessId b)> cut;
        /// Restores every cut link.
        std::function<void()> heal;
        /// Installs the fault window `spec` on the directed link from->to, or
        /// removes it when `spec` is null.
        std::function<void(ProcessId from, ProcessId to, const LinkFaultSpec* spec)> link_fault;
        /// The live overlay, mutated by churn (edge accounting); churn needs
        /// it and both edge hooks.
        Graph* overlay = nullptr;
        /// Live neighbor updates after the overlay edge a-b changed.
        std::function<void(ProcessId a, ProcessId b)> drop_edge;
        std::function<void(ProcessId a, ProcessId b)> add_edge;
    };

    struct Counters {
        std::uint64_t applied = 0;  ///< events that took effect
        std::uint64_t skipped = 0;  ///< events logged as inapplicable
        std::uint64_t crashes = 0;
        std::uint64_t restarts = 0;
        std::uint64_t wipes = 0;    ///< restarts that wiped durable state
        std::uint64_t partitions = 0;
        std::uint64_t heals = 0;
        std::uint64_t link_faults = 0;
        std::uint64_t link_fault_ends = 0;
        std::uint64_t edges_dropped = 0;  ///< churn edge accounting
        std::uint64_t edges_added = 0;
    };

    /// Throws std::invalid_argument when an event targets a process outside
    /// [0, n) or a required hook is missing.
    FaultInjector(int n, FaultSchedule schedule, Hooks hooks);
    /// Armed events call back into the injector.
    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /// Schedules every event through the schedule hook. Call exactly once,
    /// before running.
    void arm();
    /// True once every scheduled event has fired.
    bool done() const { return log_.size() == schedule_.size(); }

    const FaultSchedule& schedule() const { return schedule_; }
    const Counters& counters() const { return counters_; }

    /// The injected-fault log: one line per applied (or skipped) event, in
    /// execution order, stamped with the event's scheduled nanoseconds.
    const std::vector<std::string>& log() const { return log_; }
    /// The log joined with newlines — byte-identical across replays of the
    /// same schedule.
    std::string rendered_log() const;

private:
    void fire(const FaultEvent& event);
    // Each returns the skip reason, or null when the event applied.
    const char* apply(const CrashFault& f);
    const char* apply(const RestartFault& f);
    const char* apply(const PartitionFault& f);
    const char* apply(const HealFault& f);
    const char* apply(const LinkFaultStart& f);
    const char* apply(const LinkFaultEnd& f);
    const char* apply(const ChurnDropEdge& f);
    const char* apply(const ChurnAddEdge& f);

    int n_;
    FaultSchedule schedule_;
    Hooks hooks_;
    bool armed_ = false;
    std::vector<bool> crashed_;
    std::vector<bool> wipe_on_restart_;
    Counters counters_;
    std::vector<std::string> log_;
};

}  // namespace gossipc
