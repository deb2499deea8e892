#include "runtime/conn_manager.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <utility>

#include "runtime/tcp.hpp"

namespace gossipc::runtime {

ConnectionManager::ConnectionManager(Reactor& reactor, ProcessId self,
                                     std::vector<PeerAddress> cluster, int listen_fd,
                                     Params params)
    : reactor_(reactor),
      self_(self),
      cluster_(std::move(cluster)),
      listen_fd_(listen_fd),
      params_(params),
      peer_fd_(cluster_.size(), -1),
      linked_(cluster_.size(), false),
      backoff_(cluster_.size(), params.reconnect_backoff_initial),
      redial_pending_(cluster_.size(), false) {
    reactor_.add_fd(listen_fd_, [this](bool readable, bool, bool) {
        if (readable) on_listener_ready();
    });
}

ConnectionManager::~ConnectionManager() {
    *alive_ = false;  // disarms the pending redial timers
    for (auto& [fd, conn] : conns_) {
        reactor_.remove_fd(fd);
        close_fd(fd);
    }
    conns_.clear();
    reactor_.remove_fd(listen_fd_);
    close_fd(listen_fd_);
}

void ConnectionManager::link(ProcessId peer) {
    if (peer < 0 || peer >= size() || peer == self_) return;
    if (linked_[static_cast<std::size_t>(peer)]) return;
    linked_[static_cast<std::size_t>(peer)] = true;
    if (dials(peer)) start_dial(peer);
}

void ConnectionManager::start_dial(ProcessId peer) {
    const auto p = static_cast<std::size_t>(peer);
    if (peer_fd_[p] != -1) return;  // already connected/connecting
    const PeerAddress& addr = cluster_[p];
    std::string err;
    const int fd = connect_tcp(addr.host, addr.port, &err);
    ++counters_.dials;
    if (fd < 0) {
        schedule_redial(peer);
        return;
    }
    Conn conn;
    conn.fd = fd;
    conn.peer = peer;
    conn.dialed = true;
    conn.connecting = true;
    conns_.emplace(fd, std::move(conn));
    peer_fd_[p] = fd;
    reactor_.add_fd(fd, [this, fd](bool r, bool w, bool e) { on_conn_event(fd, r, w, e); });
    // A connect in progress signals completion via writability.
    reactor_.set_read_interest(fd, false);
    reactor_.set_write_interest(fd, true);
}

void ConnectionManager::schedule_redial(ProcessId peer) {
    const auto p = static_cast<std::size_t>(peer);
    if (!linked_[p] || !dials(peer) || redial_pending_[p]) return;
    redial_pending_[p] = true;
    const SimTime delay = backoff_[p];
    backoff_[p] = std::min(backoff_[p] * 2, params_.reconnect_backoff_max);
    // The timer may outlive the manager (chaos teardown destroys managers
    // mid-run with redials armed), so it bails once the manager is gone.
    reactor_.schedule_after(delay, [this, peer, p, alive = std::weak_ptr<bool>(alive_)] {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        redial_pending_[p] = false;
        if (linked_[p] && peer_fd_[p] == -1) start_dial(peer);
    });
}

void ConnectionManager::on_listener_ready() {
    // Accept everything pending; each connection introduces itself via Hello.
    for (;;) {
        const int fd = accept_nonblocking(listen_fd_);
        if (fd < 0) return;
        ++counters_.accepts;
        Conn conn;
        conn.fd = fd;
        conns_.emplace(fd, std::move(conn));
        reactor_.add_fd(fd, [this, fd](bool r, bool w, bool e) { on_conn_event(fd, r, w, e); });
        send_hello(conns_.at(fd));
    }
}

void ConnectionManager::on_conn_event(int fd, bool readable, bool writable, bool error) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& conn = it->second;

    if (conn.connecting) {
        if (error || connect_result(fd) != 0) {
            drop_conn(fd);
            return;
        }
        if (!writable) return;
        conn.connecting = false;
        reactor_.set_read_interest(fd, true);
        reactor_.set_write_interest(fd, false);
        send_hello(conn);
        return;
    }
    if (error) {
        drop_conn(fd);
        return;
    }
    if (readable) {
        handle_readable(conn);
        // handle_readable may have dropped the connection.
        if (!conns_.contains(fd)) return;
    }
    if (writable) handle_writable(conn);
}

void ConnectionManager::handle_readable(Conn& conn) {
    const int fd = conn.fd;
    for (;;) {
        std::uint8_t buf[64 * 1024];
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n == 0) {  // orderly shutdown by the peer
            drop_conn(fd);
            return;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            drop_conn(fd);
            return;
        }
        counters_.bytes_received += static_cast<std::uint64_t>(n);
        conn.parser.feed({buf, static_cast<std::size_t>(n)});
        if (n < static_cast<ssize_t>(sizeof buf)) break;
    }

    wire::Frame frame;
    for (;;) {
        switch (conn.parser.next(frame)) {
            case wire::FrameParser::Result::NeedMore:
                return;
            case wire::FrameParser::Result::Corrupt:
                ++counters_.protocol_errors;
                drop_conn(fd);
                return;
            case wire::FrameParser::Result::Frame:
                break;
        }
        ++counters_.frames_received;
        if (!conn.hello_received) {
            if (frame.type != wire::FrameType::Hello) {
                ++counters_.protocol_errors;
                drop_conn(fd);
                return;
            }
            handle_hello(conn, frame.payload);
            if (!conns_.contains(fd)) return;  // rejected
            continue;
        }
        if (frame.type == wire::FrameType::Hello) continue;  // duplicate, ignore
        if (frame_fn_) {
            frame_fn_(conn.peer, frame.type, frame.payload);
            if (!conns_.contains(fd)) return;  // handler tore us down
        }
        if (body_fn_ && frame.type == wire::FrameType::Body) {
            body_fn_(conn.peer, frame.payload);
            if (!conns_.contains(fd)) return;  // handler tore us down
        }
    }
}

void ConnectionManager::handle_hello(Conn& conn, std::span<const std::uint8_t> payload) {
    wire::Hello hello;
    if (wire::decode_hello(payload, hello) != wire::WireError::None ||
        hello.cluster_size != size() || hello.sender == self_) {
        ++counters_.protocol_errors;
        drop_conn(conn.fd);
        return;
    }
    if (conn.dialed && hello.sender != conn.peer) {  // wrong process answered
        ++counters_.protocol_errors;
        drop_conn(conn.fd);
        return;
    }
    conn.hello_received = true;
    adopt(conn, hello.sender);
}

void ConnectionManager::adopt(Conn& conn, ProcessId peer) {
    const auto p = static_cast<std::size_t>(peer);
    const int old_fd = peer_fd_[p];
    if (old_fd != -1 && old_fd != conn.fd) {
        // A newer connection for this peer supersedes the stale one (e.g.
        // the peer restarted before we noticed the old socket die). Forget
        // the old fd's peer slot first so drop_conn does not clear the new
        // assignment or flap the peer status.
        auto it = conns_.find(old_fd);
        if (it != conns_.end()) it->second.peer = -1;
        drop_conn(old_fd);
    }
    conn.peer = peer;
    peer_fd_[p] = conn.fd;
    backoff_[p] = params_.reconnect_backoff_initial;
    ++counters_.links_up;
    if (status_fn_) status_fn_(peer, true);
}

void ConnectionManager::drop_conn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    const ProcessId peer = it->second.peer;
    const bool was_up = it->second.hello_received && peer >= 0;
    reactor_.remove_fd(fd);
    close_fd(fd);
    conns_.erase(it);
    ++counters_.disconnects;
    if (peer >= 0) {
        const auto p = static_cast<std::size_t>(peer);
        if (peer_fd_[p] == fd) peer_fd_[p] = -1;
        if (was_up && status_fn_) status_fn_(peer, false);
        schedule_redial(peer);
    }
}

void ConnectionManager::send_hello(Conn& conn) {
    enqueue(conn, wire::FrameType::Hello, wire::encode_hello(wire::Hello{self_, size()}));
}

void ConnectionManager::enqueue(Conn& conn, wire::FrameType type,
                                std::span<const std::uint8_t> payload) {
    const bool idle = conn.out.empty();
    wire::append_frame(conn.out, type, payload);
    if (!idle) return;  // a flush is posted or POLLOUT is armed already
    // Flush on the next loop turn, so every frame queued in this turn (a
    // broadcast fan-out, a gossip drain batch) leaves in one send(2). Posted
    // tasks cannot be cancelled, so the task checks the alive flag and looks
    // the connection up again: either may be gone (chaos crash, drop_conn).
    reactor_.post([this, fd = conn.fd, alive = std::weak_ptr<bool>(alive_)] {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        if (auto it = conns_.find(fd); it != conns_.end()) handle_writable(it->second);
    });
}

bool ConnectionManager::send_frame(ProcessId to, wire::FrameType type,
                                   std::span<const std::uint8_t> payload) {
    if (to < 0 || to >= size() || to == self_) return false;
    const int fd = peer_fd_[static_cast<std::size_t>(to)];
    auto it = fd == -1 ? conns_.end() : conns_.find(fd);
    if (it == conns_.end() || !it->second.hello_received) {
        ++counters_.send_drops_down;
        return false;
    }
    const std::size_t frame_bytes = wire::kFrameHeaderBytes + payload.size();
    const auto over_cap = [&] {
        return it->second.out.size() + frame_bytes > params_.write_queue_cap_bytes;
    };
    if (over_cap()) {
        // The turn's flush has not run yet: flush now, and drop the frame
        // only if the kernel will not take enough.
        handle_writable(it->second);
        it = conns_.find(fd);
        if (it == conns_.end()) {  // the flush failed and dropped the link
            ++counters_.send_drops_down;
            return false;
        }
        if (over_cap()) {
            ++counters_.send_drops_backpressure;
            return false;
        }
    }
    ++counters_.frames_sent;
    enqueue(it->second, type, payload);
    return true;
}

void ConnectionManager::handle_writable(Conn& conn) {
    if (conn.connecting) return;
    const int fd = conn.fd;
    std::size_t sent = 0;
    while (sent < conn.out.size()) {
        const ssize_t n =
            ::send(fd, conn.out.data() + sent, conn.out.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            drop_conn(fd);
            return;
        }
        ++counters_.writes;
        counters_.bytes_sent += static_cast<std::uint64_t>(n);
        sent += static_cast<std::size_t>(n);
    }
    conn.out.erase(conn.out.begin(), conn.out.begin() + static_cast<std::ptrdiff_t>(sent));
    reactor_.set_write_interest(fd, !conn.out.empty());
}

bool ConnectionManager::peer_up(ProcessId peer) const {
    if (peer < 0 || peer >= size()) return false;
    const int fd = peer_fd_[static_cast<std::size_t>(peer)];
    if (fd == -1) return false;
    const auto it = conns_.find(fd);
    return it != conns_.end() && it->second.hello_received;
}

}  // namespace gossipc::runtime
