// Non-blocking TCP connection manager (DESIGN.md §10): maintains one
// framed, bidirectional connection per linked peer of a node.
//
// Dial policy: for a linked pair the lower process id dials and the higher
// id accepts, so exactly one connection exists per overlay edge. Both ends
// send a Hello frame identifying themselves; a link counts as up once the
// remote Hello arrives. Dialed connections that fail or drop are re-dialed
// with exponential backoff (reset on a successful Hello); accepted
// connections are simply awaited again. When a peer restarts and dials
// anew while a stale connection lingers, the newest connection wins.
//
// Writes go through one contiguous byte buffer per connection: frames are
// appended in place, and the first frame queued in a reactor turn posts one
// flush, so a turn's frames leave in one send(2) (as UdpLink clusters a
// turn's bodies into one datagram). Whatever the kernel does not take waits
// for POLLOUT. The unsent bytes are capped: a frame that would cross the
// cap first forces a flush and is dropped, and counted, only if the kernel
// will not take enough — mirroring the gossip layer's bounded per-peer send
// queues, backpressure shows up as message loss (which the protocol already
// tolerates), not as unbounded memory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/peer_channel.hpp"
#include "runtime/reactor.hpp"
#include "wire/frame.hpp"

namespace gossipc::runtime {

struct PeerAddress {
    std::string host;
    std::uint16_t port = 0;
};

class ConnectionManager final : public PeerChannel {
public:
    struct Params {
        /// Per-connection cap on unsent bytes; frames beyond it drop.
        std::size_t write_queue_cap_bytes = 4u << 20;
        SimTime reconnect_backoff_initial = SimTime::millis(50);
        SimTime reconnect_backoff_max = SimTime::seconds(2);
    };

    struct Counters {
        std::uint64_t dials = 0;             ///< outbound connection attempts
        std::uint64_t accepts = 0;           ///< inbound connections accepted
        std::uint64_t links_up = 0;          ///< Hello handshakes completed
        std::uint64_t disconnects = 0;       ///< connections dropped (any cause)
        std::uint64_t frames_sent = 0;
        std::uint64_t frames_received = 0;
        std::uint64_t bytes_sent = 0;
        std::uint64_t writes = 0;            ///< send(2) calls that moved bytes
        std::uint64_t bytes_received = 0;
        std::uint64_t send_drops_down = 0;   ///< sends while the link was down
        std::uint64_t send_drops_backpressure = 0;  ///< write-queue cap hit
        std::uint64_t protocol_errors = 0;   ///< corrupt stream / bad Hello
    };

    using FrameFn =
        std::function<void(ProcessId from, wire::FrameType type,
                           std::span<const std::uint8_t> payload)>;
    using PeerStatusFn = std::function<void(ProcessId peer, bool up)>;

    /// `listen_fd` must already be bound + listening + non-blocking
    /// (runtime::listen_tcp); the manager owns it from here on.
    ConnectionManager(Reactor& reactor, ProcessId self,
                      std::vector<PeerAddress> cluster, int listen_fd, Params params);
    ~ConnectionManager() override;

    ConnectionManager(const ConnectionManager&) = delete;
    ConnectionManager& operator=(const ConnectionManager&) = delete;

    void set_frame_handler(FrameFn fn) { frame_fn_ = std::move(fn); }
    void set_peer_status_handler(PeerStatusFn fn) { status_fn_ = std::move(fn); }

    /// Declares `peer` a linked neighbor: dials it (if this side dials) and
    /// keeps re-dialing on failure until the manager is destroyed.
    void link(ProcessId peer) override;

    /// Queues one frame to `to`; it leaves with the turn's flush. False (and
    /// a counter bump) when the link is down or the unsent bytes would cross
    /// the cap even after a flush — the frame is dropped.
    bool send_frame(ProcessId to, wire::FrameType type,
                    std::span<const std::uint8_t> payload);

    // PeerChannel body-level interface. The reliable flag is advisory here:
    // an up TCP link retransmits everything, a down one drops everything.
    void set_body_handler(BodyFn fn) override { body_fn_ = std::move(fn); }
    bool send_body(ProcessId peer, std::span<const std::uint8_t> bytes,
                   bool reliable) override {
        (void)reliable;
        return send_frame(peer, wire::FrameType::Body, bytes);
    }

    bool peer_up(ProcessId peer) const override;
    ProcessId self() const override { return self_; }
    int size() const override { return static_cast<int>(cluster_.size()); }
    const Counters& counters() const { return counters_; }

private:
    struct Conn {
        int fd = -1;
        ProcessId peer = -1;        ///< -1 until the remote Hello (accepted conns)
        bool dialed = false;        ///< we initiated this connection
        bool connecting = false;    ///< non-blocking connect still in progress
        bool hello_received = false;
        wire::FrameParser parser;
        /// Unsent frames, back to back. Non-empty means a flush is posted
        /// or POLLOUT is armed.
        std::vector<std::uint8_t> out;
    };

    bool dials(ProcessId peer) const { return self_ < peer; }
    void start_dial(ProcessId peer);
    void schedule_redial(ProcessId peer);
    void on_listener_ready();
    void on_conn_event(int fd, bool readable, bool writable, bool error);
    void handle_readable(Conn& conn);
    /// Writes `conn.out` until EAGAIN and arms POLLOUT for the rest. May
    /// drop the connection (invalidating `conn`) on a send error.
    void handle_writable(Conn& conn);
    void handle_hello(Conn& conn, std::span<const std::uint8_t> payload);
    void adopt(Conn& conn, ProcessId peer);
    /// Closes and forgets the connection; schedules a redial when this side
    /// dials the peer. Invalidates the Conn reference.
    void drop_conn(int fd);
    /// Appends one frame to the connection's buffer; the first frame of an
    /// empty buffer posts the flush.
    void enqueue(Conn& conn, wire::FrameType type, std::span<const std::uint8_t> payload);
    void send_hello(Conn& conn);

    Reactor& reactor_;
    ProcessId self_;
    std::vector<PeerAddress> cluster_;
    int listen_fd_;
    Params params_;
    FrameFn frame_fn_;
    BodyFn body_fn_;
    PeerStatusFn status_fn_;

    std::unordered_map<int, Conn> conns_;        ///< by fd
    std::vector<int> peer_fd_;                   ///< current conn fd per peer (-1 none)
    std::vector<bool> linked_;                   ///< peers this node keeps connected
    std::vector<SimTime> backoff_;               ///< next redial delay per peer
    std::vector<bool> redial_pending_;           ///< a redial timer is armed
    /// Guards the redial timers and posted flushes, which cannot be cancelled
    /// individually and may run after the manager is destroyed (chaos crash
    /// teardown).
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    Counters counters_;
};

}  // namespace gossipc::runtime
