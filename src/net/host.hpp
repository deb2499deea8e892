// The process seam a protocol layer runs on (DESIGN.md §10).
//
// GossipNode needs six things from the process hosting it: its id, a clock,
// a serial task queue, a callback at a time, a way to transmit one body from
// inside a task, and a receive handler. Host names exactly those. The
// simulator's Node implements it with its virtual CPU; the socket runtime's
// RealTransport implements it over the reactor and a PeerChannel. So one
// dissemination engine serves both substrates.
#pragma once

#include <functional>

#include "common/message.hpp"
#include "common/types.hpp"

namespace gossipc {

/// Virtual CPU clock handed to tasks; tasks account for the work they do by
/// calling consume(). Effects of a task (e.g. transmissions) are stamped at
/// the task's current virtual time.
class CpuContext {
public:
    explicit CpuContext(SimTime start) : vt_(start) {}

    SimTime now() const { return vt_; }
    void consume(SimTime cost) { vt_ += cost; }

private:
    SimTime vt_;
};

class Host {
public:
    using ReceiveHandler = std::function<void(const NetMessage&, CpuContext&)>;
    using Task = std::function<void(CpuContext&)>;

    virtual ~Host() = default;

    virtual ProcessId id() const = 0;
    virtual SimTime now() const = 0;
    /// Runs `task` on this process's serial CPU, after the tasks already
    /// queued.
    virtual void post(Task task) = 0;
    /// Calls `fn` at time `at` (now, if `at` has passed), outside any task.
    virtual void call_at(SimTime at, std::function<void()> fn) = 0;
    /// Transmits `msg.body` to `msg.to` from within a running task.
    virtual void transmit_in_task(NetMessage msg, CpuContext& ctx) = 0;
    /// Installs the handler every received body is passed to, in a task.
    virtual void set_receive_handler(ReceiveHandler handler) = 0;
};

}  // namespace gossipc
