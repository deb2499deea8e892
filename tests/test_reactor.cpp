// Real-clock reactor tests (DESIGN.md §10): timers, posted tasks, fd
// readiness, and the loop-control surface gossipd relies on.
//
// These run against the real monotonic clock, so delays are kept tiny
// (single-digit milliseconds) and assertions are one-sided — a loaded CI
// machine may fire a timer late, never early.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "runtime/reactor.hpp"

namespace gossipc::runtime {
namespace {

SimTime ms(std::int64_t v) { return SimTime::millis(v); }

void make_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ASSERT_GE(flags, 0);
    ASSERT_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
}

struct Pipe {
    int fds[2] = {-1, -1};
    Pipe() {
        EXPECT_EQ(::pipe(fds), 0);
        make_nonblocking(fds[0]);
        make_nonblocking(fds[1]);
    }
    ~Pipe() {
        if (fds[0] >= 0) ::close(fds[0]);
        if (fds[1] >= 0) ::close(fds[1]);
    }
    int reader() const { return fds[0]; }
    int writer() const { return fds[1]; }
};

TEST(Reactor, NowIsMonotonic) {
    Reactor r;
    const SimTime a = r.now();
    const SimTime b = r.now();
    EXPECT_GE(b, a);
    EXPECT_GE(a, SimTime::zero());
}

TEST(Reactor, OneShotTimerFiresOnce) {
    Reactor r;
    int fired = 0;
    r.schedule_after(ms(1), [&] { ++fired; });
    EXPECT_TRUE(r.run_until([&] { return fired > 0; }, ms(500)));
    EXPECT_EQ(fired, 1);
    // Running longer must not re-fire a one-shot.
    r.run_until([] { return false; }, ms(5));
    EXPECT_EQ(fired, 1);
}

TEST(Reactor, TimersFireInDeadlineOrder) {
    Reactor r;
    std::vector<int> order;
    r.schedule_after(ms(3), [&] { order.push_back(3); });
    r.schedule_after(ms(1), [&] { order.push_back(1); });
    r.schedule_after(ms(2), [&] { order.push_back(2); });
    EXPECT_TRUE(r.run_until([&] { return order.size() == 3; }, ms(500)));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, ScheduleAtFiresEqualDeadlinesInSchedulingOrder) {
    Reactor r;
    std::vector<int> order;
    const SimTime at = r.now() + ms(2);
    for (int i = 0; i < 5; ++i) r.schedule_at(at, [&order, i] { order.push_back(i); });
    r.schedule_at(at - ms(1), [&] { order.push_back(-1); });
    EXPECT_TRUE(r.run_until([&] { return order.size() == 6; }, ms(500)));
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
    EXPECT_GE(r.now(), at);
}

TEST(Reactor, ScheduleAtPastDeadlineFiresOnNextIteration) {
    Reactor r;
    r.run_until([] { return false; }, ms(3));
    std::vector<int> order;
    r.schedule_at(ms(2), [&] { order.push_back(2); });
    r.schedule_at(ms(1), [&] { order.push_back(1); });
    r.schedule_at(ms(2), [&] { order.push_back(3); });
    const std::uint64_t polls = r.stats().polls;
    EXPECT_TRUE(r.run_until([&] { return order.size() == 3; }, ms(500)));
    // All three fired before the first poll of the first iteration.
    EXPECT_EQ(r.stats().polls - polls, 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, PeriodicTimerRepeats) {
    Reactor r;
    int fired = 0;
    Reactor::TimerId id = r.schedule_every(ms(1), [&] { ++fired; });
    EXPECT_TRUE(r.run_until([&] { return fired >= 5; }, ms(2000)));
    r.cancel_timer(id);
    const int at_cancel = fired;
    r.run_until([] { return false; }, ms(5));
    // At most one already-due firing may slip in after cancel is requested;
    // with cancel_timer called outside the loop, none should.
    EXPECT_EQ(fired, at_cancel);
}

TEST(Reactor, CancelBeforeFire) {
    Reactor r;
    bool fired = false;
    const Reactor::TimerId id = r.schedule_after(ms(2), [&] { fired = true; });
    r.cancel_timer(id);
    r.run_until([] { return false; }, ms(10));
    EXPECT_FALSE(fired);
}

TEST(Reactor, CancelFromWithinCallback) {
    Reactor r;
    int a_fired = 0;
    int b_fired = 0;
    Reactor::TimerId b = r.schedule_every(ms(2), [&] { ++b_fired; });
    r.schedule_after(ms(1), [&] {
        ++a_fired;
        r.cancel_timer(b);
    });
    r.run_until([] { return false; }, ms(20));
    EXPECT_EQ(a_fired, 1);
    EXPECT_EQ(b_fired, 0);
}

TEST(Reactor, PostedTasksRunFifo) {
    Reactor r;
    std::vector<int> order;
    r.post([&] { order.push_back(1); });
    r.post([&] { order.push_back(2); });
    r.post([&] {
        order.push_back(3);
        // Posting from a posted task defers to the next iteration, not the
        // current drain — matching Node::post re-entrancy.
        r.post([&] { order.push_back(4); });
    });
    EXPECT_TRUE(r.run_until([&] { return order.size() == 4; }, ms(500)));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Reactor, StopEndsRun) {
    Reactor r;
    r.schedule_after(ms(1), [&] { r.stop(); });
    r.run();
    EXPECT_TRUE(r.stopped());
}

TEST(Reactor, InterruptCheckEndsRun) {
    Reactor r;
    bool flag = false;  // stands in for the daemon's sig_atomic_t
    r.set_interrupt_check([&] { return flag; });
    r.schedule_after(ms(1), [&] { flag = true; });
    r.run();  // must return once the check trips, without an explicit stop()
    SUCCEED();
}

TEST(Reactor, RunUntilTimesOut) {
    Reactor r;
    const SimTime before = r.now();
    EXPECT_FALSE(r.run_until([] { return false; }, ms(5)));
    EXPECT_GE(r.now() - before, ms(5));
}

TEST(Reactor, PipeReadable) {
    Reactor r;
    Pipe p;
    std::string received;
    r.add_fd(p.reader(), [&](bool readable, bool, bool) {
        if (!readable) return;
        char buf[64];
        const ssize_t n = ::read(p.reader(), buf, sizeof buf);
        if (n > 0) received.append(buf, static_cast<std::size_t>(n));
    });
    r.schedule_after(ms(1), [&] { ASSERT_EQ(::write(p.writer(), "hi", 2), 2); });
    EXPECT_TRUE(r.run_until([&] { return received.size() >= 2; }, ms(500)));
    EXPECT_EQ(received, "hi");
    r.remove_fd(p.reader());
}

TEST(Reactor, WriteInterestToggles) {
    Reactor r;
    Pipe p;
    int write_events = 0;
    r.add_fd(p.writer(), [&](bool, bool writable, bool) {
        if (!writable) return;
        ++write_events;
        // One event is enough; turn interest off like a drained send queue.
        r.set_write_interest(p.writer(), false);
    });
    // Default interest is read-only: no write events until enabled.
    r.run_until([] { return false; }, ms(5));
    EXPECT_EQ(write_events, 0);

    r.set_write_interest(p.writer(), true);
    EXPECT_TRUE(r.run_until([&] { return write_events > 0; }, ms(500)));
    EXPECT_EQ(write_events, 1);

    // Interest was turned off inside the callback; no further events.
    r.run_until([] { return false; }, ms(5));
    EXPECT_EQ(write_events, 1);
    r.remove_fd(p.writer());
}

TEST(Reactor, PeerHangupReportsReadableEof) {
    Reactor r;
    Pipe p;
    bool saw_eof = false;
    r.add_fd(p.reader(), [&](bool readable, bool, bool error) {
        if (!readable && !error) return;
        char buf[16];
        if (::read(p.reader(), buf, sizeof buf) == 0) saw_eof = true;
    });
    r.schedule_after(ms(1), [&] {
        ::close(p.fds[1]);
        p.fds[1] = -1;
    });
    EXPECT_TRUE(r.run_until([&] { return saw_eof; }, ms(500)));
    r.remove_fd(p.reader());
}

TEST(Reactor, RemoveFdFromWithinCallback) {
    Reactor r;
    Pipe p;
    int events = 0;
    r.add_fd(p.reader(), [&](bool readable, bool, bool) {
        if (!readable) return;
        ++events;
        char buf[16];
        (void)!::read(p.reader(), buf, sizeof buf);
        r.remove_fd(p.reader());  // connection-drop pattern: remove self
    });
    ASSERT_EQ(::write(p.writer(), "x", 1), 1);
    EXPECT_TRUE(r.run_until([&] { return events > 0; }, ms(500)));
    ASSERT_EQ(::write(p.writer(), "y", 1), 1);
    r.run_until([] { return false; }, ms(5));
    EXPECT_EQ(events, 1);
}

// -- EINTR / poll-failure handling (DESIGN.md §12) ---------------------------

namespace {
/// Installs a no-op SIGUSR1 handler (no SA_RESTART, so poll(2) really
/// returns EINTR) and restores the previous disposition on destruction.
struct ScopedUsr1Handler {
    struct sigaction previous = {};
    ScopedUsr1Handler() {
        struct sigaction sa = {};
        sa.sa_handler = [](int) {};
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0;
        EXPECT_EQ(::sigaction(SIGUSR1, &sa, &previous), 0);
    }
    ~ScopedUsr1Handler() { ::sigaction(SIGUSR1, &previous, nullptr); }
};
}  // namespace

TEST(Reactor, InterruptedPollNeitherFiresTimersEarlyNorLosesThem) {
    ScopedUsr1Handler guard;
    Reactor r;

    const SimTime deadline = ms(40);
    int fired = 0;
    SimTime fired_at = SimTime::zero();
    r.schedule_after(deadline, [&] {
        ++fired;
        fired_at = r.now();
    });

    // Hammer the reactor thread with signals while it sits in poll waiting
    // for the timer. Every interrupted poll must return to the loop top,
    // re-check deadlines, and keep waiting — not fire early, not busy-spin,
    // not drop the timer.
    std::atomic<bool> stop_signals{false};
    const pthread_t reactor_thread = ::pthread_self();
    std::thread pinger([&] {
        while (!stop_signals.load()) {
            ::pthread_kill(reactor_thread, SIGUSR1);
            ::usleep(2000);  // ~20 interrupts across the 40 ms window
        }
    });

    const bool done = r.run_until([&] { return fired > 0; }, ms(2000));
    stop_signals.store(true);
    pinger.join();

    ASSERT_TRUE(done) << "timer lost under signal storm";
    EXPECT_EQ(fired, 1);
    EXPECT_GE(fired_at, deadline) << "timer fired before its deadline";
    EXPECT_GE(r.stats().interrupted, 1u) << "no poll was actually interrupted";
    EXPECT_EQ(r.stats().poll_errors, 0u);
}

TEST(Reactor, InterruptedPollDoesNotBusySpin) {
    ScopedUsr1Handler guard;
    Reactor r;

    std::atomic<bool> stop_signals{false};
    const pthread_t reactor_thread = ::pthread_self();
    std::thread pinger([&] {
        while (!stop_signals.load()) {
            ::pthread_kill(reactor_thread, SIGUSR1);
            ::usleep(5000);
        }
    });

    // Idle reactor under a ~200 Hz interrupt stream for 50 ms: each EINTR
    // costs exactly one extra loop iteration, so polls stay within the same
    // order of magnitude as the interrupts. A busy-spinning EINTR path
    // (retrying poll with a zero timeout, say) would rack up tens of
    // thousands of polls here.
    r.run_until([] { return false; }, ms(50));
    stop_signals.store(true);
    pinger.join();

    const auto& s = r.stats();
    EXPECT_GE(s.interrupted, 1u);
    EXPECT_LE(s.polls, 500u) << "interrupted=" << s.interrupted
                             << " — EINTR path appears to busy-spin";
}

TEST(Reactor, IdleLoopIsNotHot) {
    Reactor r;
    // 50 ms idle with no fds and no near timers: the poll timeout is capped
    // at 50 ms, so only a handful of polls may happen.
    r.run_until([] { return false; }, ms(50));
    EXPECT_LE(r.stats().polls, 100u);
    EXPECT_EQ(r.stats().poll_errors, 0u);
}

// -- wake-up precision ---------------------------------------------------------

/// Median of 21 samples: one descheduled slice on a shared machine moves
/// a sample, not the median.
std::int64_t median(std::vector<std::int64_t> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
}

TEST(Reactor, SubMillisecondTimerWakesNearItsDeadline) {
    // The poll timeout is the exact time to the deadline, not a whole
    // millisecond rounded up: a 200 us timer in an idle loop fires well
    // under a millisecond late.
    Reactor r;
    std::vector<std::int64_t> late_us;
    for (int i = 0; i < 21; ++i) {
        const SimTime at = r.now() + SimTime::micros(200);
        SimTime fired_at = SimTime::zero();
        r.schedule_at(at, [&] { fired_at = r.now(); });
        ASSERT_TRUE(r.run_until([&] { return fired_at > SimTime::zero(); }, ms(500)));
        EXPECT_GE(fired_at, at);
        late_us.push_back((fired_at - at).as_micros());
    }
    EXPECT_LT(median(late_us), 500) << "median lateness in us";
}

TEST(Reactor, TaskPostedFromATimerRunsWithoutWaiting) {
    // Posted work makes the next poll a zero wait, so a task posted from a
    // timer callback runs on the very next turn.
    Reactor r;
    std::vector<std::int64_t> wait_us;
    for (int i = 0; i < 21; ++i) {
        SimTime posted_at = SimTime::zero();
        SimTime ran_at = SimTime::zero();
        r.schedule_after(SimTime::micros(100), [&] {
            posted_at = r.now();
            r.post([&] { ran_at = r.now(); });
        });
        ASSERT_TRUE(r.run_until([&] { return ran_at > SimTime::zero(); }, ms(500)));
        wait_us.push_back((ran_at - posted_at).as_micros());
    }
    EXPECT_LT(median(wait_us), 300) << "median post-to-run wait in us";
}

TEST(Reactor, TimerAndIoInterleave) {
    // A periodic timer keeps firing while fd traffic flows — neither side
    // may starve the other.
    Reactor r;
    Pipe p;
    int ticks = 0;
    int reads = 0;
    r.schedule_every(ms(1), [&] {
        ++ticks;
        (void)!::write(p.writer(), "t", 1);
    });
    r.add_fd(p.reader(), [&](bool readable, bool, bool) {
        if (!readable) return;
        char buf[64];
        if (::read(p.reader(), buf, sizeof buf) > 0) ++reads;
    });
    EXPECT_TRUE(r.run_until([&] { return ticks >= 5 && reads >= 3; }, ms(2000)));
    r.remove_fd(p.reader());
}

}  // namespace
}  // namespace gossipc::runtime
