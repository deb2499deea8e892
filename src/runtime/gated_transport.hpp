// Crash-gated transport facade for the runtime chaos bridge (DESIGN.md §13).
//
// The simulator can crash a process without destroying it: the Node keeps
// its state, drops traffic and pending tasks, and resumes on recover(). The
// real runtime has no such switch — a crash tears the socket stack
// (RealTransport + UdpLink/ConnectionManager) down and a restart builds a
// fresh one. PaxosProcess and FailureDetector, however, hold a Transport&
// for their whole lifetime, and their state must survive the crash exactly
// as durable state survives in the simulator.
//
// GatedTransport is the stable object between the two lifetimes: the
// protocol stack binds to the facade once; the chaos bridge attach()es and
// detach()es the short-lived socket transport underneath. While detached
// (crashed), the facade mirrors the simulator's crash semantics:
//  * broadcast/send are dropped (no wire, no local delivery);
//  * one-shot schedule() callbacks are dropped when they fire;
//  * schedule_every() ticks are dropped but the chain survives — the
//    Transport contract — so the failure detector's sweep chain resumes
//    after restart and its crash-gap re-baseline fires naturally;
//  * post()ed tasks are dropped at execution, like Node::post on a
//    crashed node;
//  * nothing is delivered up (the socket stack is gone anyway).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/reactor.hpp"
#include "transport/transport.hpp"

namespace gossipc::runtime {

class GatedTransport final : public Transport {
public:
    struct Counters {
        std::uint64_t dropped_sends = 0;  ///< broadcast/send while crashed
        std::uint64_t dropped_tasks = 0;  ///< timer ticks/posts swallowed while crashed
        std::uint64_t attaches = 0;       ///< restarts (first attach included)
    };

    GatedTransport(Reactor& reactor, ProcessId self);
    ~GatedTransport() override;

    GatedTransport(const GatedTransport&) = delete;
    GatedTransport& operator=(const GatedTransport&) = delete;

    /// Wires `inner` (not owned) underneath: deliveries flow up through the
    /// facade and sends flow down. Call after building a fresh socket
    /// transport on restart.
    void attach(Transport* inner);
    /// Severs the inner transport (crash). The caller destroys it.
    void detach();

    // Transport interface.
    ProcessId self() const override { return self_; }
    void broadcast(PaxosMessagePtr msg, CpuContext& ctx) override;
    void send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) override;
    void schedule(SimTime delay, std::function<void(CpuContext&)> fn) override;
    void schedule_every(SimTime period, std::function<void(CpuContext&)> fn) override;
    void post(std::function<void(CpuContext&)> fn) override;

    const Counters& counters() const { return counters_; }

private:
    /// The inner transport stamps its own origination clock; fold it into
    /// the facade's so FailureDetector's heartbeat suppression (which reads
    /// the facade) sees exactly what actually left the process.
    void sync_origination();

    Reactor& reactor_;
    ProcessId self_;
    Transport* inner_ = nullptr;
    std::vector<Reactor::TimerId> timers_;  ///< periodic chains, cancelled on destroy
    /// Guards one-shot timers and posts, which cannot be cancelled and may
    /// fire after the facade itself is destroyed at harness teardown.
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    Counters counters_;
};

}  // namespace gossipc::runtime
