#include "runtime/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "wire/datagram.hpp"

namespace gossipc::runtime {

namespace {

bool udp_parse_addr(const std::string& host, std::uint16_t port, sockaddr_in* addr,
                    std::string* err) {
    std::memset(addr, 0, sizeof *addr);
    addr->sin_family = AF_INET;
    addr->sin_port = htons(port);
    const std::string h = (host.empty() || host == "localhost") ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, h.c_str(), &addr->sin_addr) != 1) {
        if (err) *err = "not an IPv4 address: " + host;
        return false;
    }
    return true;
}

}  // namespace

int open_udp(const std::string& host, std::uint16_t port, std::string* err) {
    sockaddr_in addr{};
    if (!udp_parse_addr(host, port, &addr, err)) return -1;
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) {
        if (err) *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    // No SO_REUSEADDR: UDP has no TIME_WAIT to skip, and the flag would let
    // a second socket bind a held port (and split its traffic) and let
    // ephemeral binds share ports.
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        if (err) *err = std::string("bind: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        if (err) *err = std::string("fcntl: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

UdpChannel::UdpChannel(Reactor& reactor, int fd, std::vector<PeerAddress> cluster)
    : reactor_(reactor), fd_(fd), cluster_(std::move(cluster)) {
    reactor_.add_fd(fd_, [this](bool readable, bool writable, bool error) {
        (void)writable;
        (void)error;  // UDP sockets report transient ICMP errors; keep going
        if (readable) on_readable();
    });
}

UdpChannel::~UdpChannel() {
    reactor_.remove_fd(fd_);
    ::close(fd_);
}

std::size_t UdpChannel::max_datagram_bytes() const { return wire::kMaxDatagramBytes; }

bool UdpChannel::send(ProcessId to, std::span<const std::uint8_t> datagram) {
    if (to < 0 || static_cast<std::size_t>(to) >= cluster_.size()) return false;
    const PeerAddress& peer = cluster_[static_cast<std::size_t>(to)];
    sockaddr_in addr{};
    if (!udp_parse_addr(peer.host, peer.port, &addr, nullptr)) return false;
    for (;;) {
        const ssize_t n = ::sendto(fd_, datagram.data(), datagram.size(), 0,
                                   reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
        if (n >= 0) return true;
        if (errno == EINTR) continue;
        // EAGAIN (socket buffer full) drops the datagram — UDP loses packets
        // under pressure by definition, and the reliability layer repairs
        // what was flagged reliable.
        ++counters_.send_errors;
        return false;
    }
}

void UdpChannel::on_readable() {
    // Drain everything available; the loop handles EINTR (retry) and EAGAIN
    // (drained) uniformly, mirroring the TCP recv loop.
    std::uint8_t buf[wire::kMaxDatagramBytes];
    for (;;) {
        const ssize_t n = ::recvfrom(fd_, buf, sizeof buf, 0, nullptr, nullptr);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            // Transient errors (ECONNREFUSED from ICMP port-unreachable on
            // connected sockets, buffer pressure): count and keep the socket.
            ++counters_.recv_errors;
            return;
        }
        if (recv_) recv_(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    }
}

}  // namespace gossipc::runtime
