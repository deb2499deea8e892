#include "runtime/reactor.hpp"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <cerrno>

namespace gossipc::runtime {

namespace {
/// Poll timeout cap: bounds interrupt-check latency while idle.
constexpr SimTime kMaxPollWait = SimTime::millis(50);
}  // namespace

Reactor::Reactor() : start_(std::chrono::steady_clock::now()) {}

SimTime Reactor::now() const {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    return SimTime::nanos(ns);
}

void Reactor::add_fd(int fd, IoFn fn) { fds_[fd] = FdEntry{std::move(fn), true, false}; }

void Reactor::remove_fd(int fd) { fds_.erase(fd); }

void Reactor::set_read_interest(int fd, bool enabled) {
    if (auto it = fds_.find(fd); it != fds_.end()) it->second.want_read = enabled;
}

void Reactor::set_write_interest(int fd, bool enabled) {
    if (auto it = fds_.find(fd); it != fds_.end()) it->second.want_write = enabled;
}

Reactor::TimerId Reactor::schedule_at(SimTime at, TimerFn fn) {
    const TimerId id = next_timer_id_++;
    timers_.push(Timer{at, id, SimTime::zero(), std::move(fn)});
    return id;
}

Reactor::TimerId Reactor::schedule_after(SimTime delay, TimerFn fn) {
    return schedule_at(now() + delay, std::move(fn));
}

Reactor::TimerId Reactor::schedule_every(SimTime period, TimerFn fn) {
    const TimerId id = next_timer_id_++;
    timers_.push(Timer{now() + period, id, period, std::move(fn)});
    return id;
}

void Reactor::cancel_timer(TimerId id) { cancelled_.insert(id); }

void Reactor::post(std::function<void()> fn) { posted_.push_back(std::move(fn)); }

void Reactor::run_posted() {
    // Tasks posted by tasks run in the same sweep (FIFO), mirroring the
    // simulator's same-instant task chaining; a task re-posting itself
    // forever would starve the poll, as it would starve the simulator.
    while (!posted_.empty() && !stopped_) {
        auto fn = std::move(posted_.front());
        posted_.pop_front();
        fn();
    }
}

void Reactor::fire_due_timers() {
    const SimTime t = now();
    while (!timers_.empty() && !stopped_) {
        if (timers_.top().deadline > t) break;
        Timer timer = timers_.top();
        timers_.pop();
        if (auto it = cancelled_.find(timer.id); it != cancelled_.end()) {
            cancelled_.erase(it);
            continue;
        }
        if (timer.period > SimTime::zero()) {
            Timer next = timer;
            // Re-arm off the deadline so load does not stretch the period;
            // if the loop stalled past several periods, skip the backlog
            // (protocol sweeps are rate-based, not count-based).
            next.deadline = std::max(timer.deadline + timer.period,
                                     t - timer.period * 4);
            timers_.push(next);
        }
        timer.fn();
    }
}

SimTime Reactor::next_timer_delay() const {
    if (timers_.empty()) return kMaxPollWait;
    const SimTime t = now();
    if (timers_.top().deadline <= t) return SimTime::zero();
    return timers_.top().deadline - t;
}

void Reactor::iterate(SimTime max_wait) {
    run_posted();
    if (stopped_) return;
    fire_due_timers();
    if (stopped_) return;

    // Sleep exactly until the next deadline (ppoll takes nanoseconds; poll's
    // whole milliseconds would wake a timer up to 1 ms late), and not at all
    // while a task is posted.
    const SimTime wait = posted_.empty()
                             ? std::min({next_timer_delay(), max_wait, kMaxPollWait})
                             : SimTime::zero();
    const timespec timeout{static_cast<time_t>(wait.as_nanos() / 1'000'000'000),
                           static_cast<long>(wait.as_nanos() % 1'000'000'000)};

    pfds_.clear();
    for (const auto& [fd, entry] : fds_) {
        short events = 0;
        if (entry.want_read) events |= POLLIN;
        if (entry.want_write) events |= POLLOUT;
        pfds_.push_back(pollfd{fd, events, 0});
    }

    ++stats_.polls;
    const int rc = ::ppoll(pfds_.empty() ? nullptr : pfds_.data(),
                           static_cast<nfds_t>(pfds_.size()), &timeout, nullptr);
    if (rc < 0) {
        // EINTR (signal) and EAGAIN (transient kernel resource pressure —
        // datagram-socket-heavy loops see it) are handled uniformly: return
        // to the loop top, where the interrupt check runs and timers are
        // re-evaluated against their deadlines, so an interrupted poll can
        // neither fire a timer early nor lose one.
        if (errno == EINTR || errno == EAGAIN) {
            ++stats_.interrupted;
            return;
        }
        // A persistent poll failure (EINVAL/ENOMEM) would otherwise spin
        // this loop at 100% CPU; back off briefly and keep serving timers.
        ++stats_.poll_errors;
        const timespec backoff{0, 1'000'000};  // 1 ms
        ::nanosleep(&backoff, nullptr);
        return;
    }
    for (const pollfd& pfd : pfds_) {
        const short re = pfd.revents;
        if (re == 0) continue;
        // The callback may remove fds (including its own); re-check.
        auto it = fds_.find(pfd.fd);
        if (it == fds_.end()) continue;
        const bool err = (re & (POLLERR | POLLHUP | POLLNVAL)) != 0;
        // Copying the handler keeps it alive if the callback removes the fd.
        IoFn fn = it->second.fn;
        fn((re & POLLIN) != 0, (re & POLLOUT) != 0, err);
        if (stopped_) return;
    }
}

void Reactor::run() {
    while (!stopped_) {
        if (interrupt_check_ && interrupt_check_()) {
            stopped_ = true;
            break;
        }
        iterate(kMaxPollWait);
    }
}

bool Reactor::run_until(const std::function<bool()>& pred, SimTime limit) {
    const SimTime deadline = now() + limit;
    while (!stopped_) {
        if (pred()) return true;
        if (now() >= deadline) return pred();
        if (interrupt_check_ && interrupt_check_()) {
            stopped_ = true;
            break;
        }
        iterate(SimTime::millis(10));
    }
    return pred();
}

}  // namespace gossipc::runtime
