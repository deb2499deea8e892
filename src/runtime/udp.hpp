// Real-socket UDP datagram channel (DESIGN.md §12): the production
// implementation of DatagramChannel behind UdpLink, one bound socket per
// node (IPv4, non-blocking).
//
// Datagrams are addressed by cluster index using the same PeerAddress list
// the TCP runtime uses, so `gossipd --transport udp` needs no extra
// configuration. The sender is identified by the datagram header (validated
// by UdpLink), not the source address — NATs and rebinding do not confuse
// peer identity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/conn_manager.hpp"
#include "runtime/reactor.hpp"
#include "runtime/udp_link.hpp"

namespace gossipc::runtime {

/// Binds a non-blocking UDP socket on host:port (IPv4 literal or
/// "localhost"; port 0 picks an ephemeral port — read it back with
/// local_port). Binding a port another socket holds fails. Returns the fd,
/// or -1 with *err set.
int open_udp(const std::string& host, std::uint16_t port, std::string* err);

class UdpChannel final : public DatagramChannel {
public:
    struct Counters {
        std::uint64_t send_errors = 0;   ///< sendto failed (EAGAIN included)
        std::uint64_t recv_errors = 0;   ///< recvfrom failed (not EINTR/EAGAIN)
    };

    /// `fd` must be bound + non-blocking (open_udp); the channel owns it and
    /// registers it with the reactor.
    UdpChannel(Reactor& reactor, int fd, std::vector<PeerAddress> cluster);
    ~UdpChannel() override;

    UdpChannel(const UdpChannel&) = delete;
    UdpChannel& operator=(const UdpChannel&) = delete;

    bool send(ProcessId to, std::span<const std::uint8_t> datagram) override;
    void set_receive_handler(RecvFn fn) override { recv_ = std::move(fn); }
    std::size_t max_datagram_bytes() const override;

    const Counters& counters() const { return counters_; }

private:
    void on_readable();

    Reactor& reactor_;
    int fd_;
    std::vector<PeerAddress> cluster_;
    RecvFn recv_;
    Counters counters_;
};

}  // namespace gossipc::runtime
