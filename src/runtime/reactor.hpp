// Real-clock event loop (DESIGN.md §10): a single-threaded ppoll(2) reactor
// with monotonic timers mirroring the simulator's timer API. Each turn
// sleeps exactly until the next timer deadline, and not at all while posted
// work is queued.
//
// Time is reported as SimTime measured from reactor construction on the
// monotonic clock, so the protocol stack's SimTime-based configuration
// (retransmit_after, heartbeat_interval, ...) carries over unchanged: one
// simulated nanosecond maps to one wall-clock nanosecond. Everything —
// socket callbacks, timers, posted tasks — runs on the thread inside run();
// no locks, no cross-thread state, which is exactly the execution model the
// simulator gives a Node's serial CPU.
//
// schedule_at/schedule_after/schedule_every mirror the simulator's absolute
// and relative timers and the transports' schedule_every re-arming chain;
// post() mirrors Node::post.
#pragma once

#include <poll.h>

#include <cstdint>
#include <chrono>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

namespace gossipc::runtime {

class Reactor {
public:
    /// Socket event callback. `readable`/`writable` report poll readiness;
    /// `error` reports POLLERR/POLLHUP/POLLNVAL (the fd should be closed).
    using IoFn = std::function<void(bool readable, bool writable, bool error)>;
    using TimerFn = std::function<void()>;
    using TimerId = std::uint64_t;

    /// Loop health counters. Timers are deadline-checked, so an interrupted
    /// poll can never fire one early — `interrupted` counts how often that
    /// was exercised; `poll_errors` counts hard ppoll(2) failures, each of
    /// which backs off briefly instead of busy-spinning.
    struct Stats {
        std::uint64_t polls = 0;        ///< ppoll(2) calls issued
        std::uint64_t interrupted = 0;  ///< EINTR/EAGAIN returns
        std::uint64_t poll_errors = 0;  ///< other poll failures (backoff taken)
    };

    Reactor();

    /// Monotonic time since reactor construction.
    SimTime now() const;

    // -- fds ----------------------------------------------------------------
    /// Registers `fd` with read interest on, write interest off. The fd must
    /// be non-blocking; the reactor never owns or closes it.
    void add_fd(int fd, IoFn fn);
    void remove_fd(int fd);
    void set_read_interest(int fd, bool enabled);
    void set_write_interest(int fd, bool enabled);

    // -- timers -------------------------------------------------------------
    /// Fires at reactor time `at`; a deadline already past fires on the next
    /// iteration. Equal deadlines fire in scheduling order.
    TimerId schedule_at(SimTime at, TimerFn fn);
    TimerId schedule_after(SimTime delay, TimerFn fn);
    /// Fires every `period` until cancelled, starting one period from now.
    /// The next deadline is armed from the previous deadline (not from fire
    /// time), so periods do not drift under load.
    TimerId schedule_every(SimTime period, TimerFn fn);
    void cancel_timer(TimerId id);

    /// Runs `fn` on the next loop iteration, before polling.
    void post(std::function<void()> fn);

    // -- loop ---------------------------------------------------------------
    /// Runs until stop(). `interrupt_check` (optional) is consulted every
    /// iteration — the signal-safe way for a daemon to request shutdown from
    /// a handler that can only set a flag.
    void run();
    void stop() { stopped_ = true; }
    bool stopped() const { return stopped_; }
    void set_interrupt_check(std::function<bool()> fn) { interrupt_check_ = std::move(fn); }

    /// Runs the loop until `pred()` holds or `limit` elapses; returns
    /// whether the predicate held. Test harness convenience.
    bool run_until(const std::function<bool()>& pred, SimTime limit);

    const Stats& stats() const { return stats_; }

private:
    struct FdEntry {
        IoFn fn;
        bool want_read = true;
        bool want_write = false;
    };
    struct Timer {
        SimTime deadline;
        std::uint64_t id = 0;
        SimTime period = SimTime::zero();  ///< zero = one-shot
        TimerFn fn;
    };
    struct TimerOrder {
        bool operator()(const Timer& a, const Timer& b) const {
            // Min-heap by deadline; id breaks ties FIFO.
            if (a.deadline != b.deadline) return a.deadline > b.deadline;
            return a.id > b.id;
        }
    };

    /// One iteration: posted tasks, due timers, then poll (up to max_wait).
    void iterate(SimTime max_wait);
    void run_posted();
    void fire_due_timers();
    SimTime next_timer_delay() const;

    std::chrono::steady_clock::time_point start_;
    std::unordered_map<int, FdEntry> fds_;
    /// The poll set, rebuilt each turn in place so a turn allocates nothing
    /// (iterate() is not re-entrant).
    std::vector<pollfd> pfds_;
    std::priority_queue<Timer, std::vector<Timer>, TimerOrder> timers_;
    std::unordered_set<TimerId> cancelled_;
    std::uint64_t next_timer_id_ = 1;
    std::deque<std::function<void()>> posted_;
    std::function<bool()> interrupt_check_;
    bool stopped_ = false;
    Stats stats_;
};

}  // namespace gossipc::runtime
