// Datagram faults at the socket boundary (DESIGN.md §12, §13).
//
// DatagramFaultApplier is the one place a DatagramFaultModel fate is
// applied to a datagram: drop, truncate, duplicate, delay. It numbers each
// directed link's datagrams (every datagram counts, from 1) and keys the
// stateless model by (seed, from, to, seq), so the same traffic draws the
// same fates wherever it is applied. Two layers use it:
//
//  * LossyDatagramNetwork, the deterministic in-process harness: N
//    endpoints exchange datagrams through the reactor's timer queue
//    instead of real sockets, and every non-clean fate lands in a
//    canonical log, rendered sorted, so seed-replay tests can assert
//    byte-identical fault logs. No sockets, no kernel buffers: the whole
//    cluster runs under ctest and ASan/UBSan.
//  * ChaosDatagramChannel, gossipd's fault layer between UdpLink and the
//    real UdpChannel: the chaos schedule's link-fault windows applied to
//    live datagrams at the sender.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/datagram_faults.hpp"
#include "runtime/reactor.hpp"
#include "runtime/udp_link.hpp"

namespace gossipc::runtime {

class DatagramFaultApplier {
public:
    struct Counters {
        std::uint64_t sent = 0;        ///< datagrams handed to the fault layer
        std::uint64_t dropped = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t reordered = 0;   ///< got a non-zero reorder delay
        std::uint64_t truncated = 0;
    };

    explicit DatagramFaultApplier(std::uint64_t seed) : model_(seed) {}

    /// Numbers `datagram` on the directed link from->to, draws its fate
    /// under `spec`, and calls `emit(bytes, delay)` once per surviving copy
    /// (the duplicate first): `bytes` is the datagram, or its head when
    /// truncated, and `delay` is the link's extra_delay plus the copy's
    /// reorder delay. Returns the datagram's link seq and its fate.
    template <typename Emit>
    std::pair<std::uint64_t, fault::DatagramFate> apply(
        const fault::DatagramFaultSpec& spec, ProcessId from, ProcessId to,
        std::span<const std::uint8_t> datagram, Emit&& emit) {
        ++counters_.sent;
        const std::uint64_t seq = ++link_seq_[{from, to}];
        const fault::DatagramFate fate = model_.decide(spec, from, to, seq);
        if (fate.drop) {
            ++counters_.dropped;
            return {seq, fate};
        }
        if (fate.truncated) {
            ++counters_.truncated;
            datagram = datagram.first(static_cast<std::size_t>(
                static_cast<double>(datagram.size()) * fate.keep_frac));
        }
        if (fate.delay > SimTime::zero()) ++counters_.reordered;
        // extra_delay is a deterministic link property, not a per-datagram
        // fate: it shifts every copy without touching the fate log.
        if (fate.duplicate) {
            ++counters_.duplicated;
            emit(datagram, spec.extra_delay + fate.duplicate_delay);
        }
        emit(datagram, spec.extra_delay + fate.delay);
        return {seq, fate};
    }

    const Counters& counters() const { return counters_; }

private:
    fault::DatagramFaultModel model_;
    /// Per-directed-link datagram index driving the fault model.
    std::map<std::pair<ProcessId, ProcessId>, std::uint64_t> link_seq_;
    Counters counters_;
};

class LossyDatagramNetwork {
public:
    struct Params {
        /// Channel cap reported to senders (loopback-sized, not WAN-sized).
        std::size_t max_datagram_bytes = 64 * 1024;
        /// Fixed propagation delay for every delivery (fates add on top).
        SimTime base_delay = SimTime::micros(100);
    };

    LossyDatagramNetwork(Reactor& reactor, int n, std::uint64_t seed, Params params);
    LossyDatagramNetwork(Reactor& reactor, int n, std::uint64_t seed)
        : LossyDatagramNetwork(reactor, n, seed, Params()) {}

    /// Fault spec applied to links without a per-link override.
    void set_default_fault(const fault::DatagramFaultSpec& spec) { default_spec_ = spec; }
    void set_link_fault(ProcessId from, ProcessId to,
                        const fault::DatagramFaultSpec& spec) {
        link_specs_[{from, to}] = spec;
    }
    void clear_link_fault(ProcessId from, ProcessId to) { link_specs_.erase({from, to}); }

    DatagramChannel& endpoint(ProcessId id) { return *endpoints_[static_cast<std::size_t>(id)]; }
    int size() const { return static_cast<int>(endpoints_.size()); }
    const DatagramFaultApplier::Counters& counters() const { return faults_.counters(); }
    /// Handler invocations (duplicates count).
    std::uint64_t delivered() const { return delivered_; }

    /// Canonical replay log: one line per non-clean fate, sorted by
    /// (from, to, seq) — byte-identical for identical (seed, traffic).
    std::string fault_log() const;

private:
    class Endpoint final : public DatagramChannel {
    public:
        Endpoint(LossyDatagramNetwork& net, ProcessId id) : net_(net), id_(id) {}
        bool send(ProcessId to, std::span<const std::uint8_t> datagram) override {
            return net_.transmit(id_, to, datagram);
        }
        void set_receive_handler(RecvFn fn) override { recv_ = std::move(fn); }
        std::size_t max_datagram_bytes() const override {
            return net_.params_.max_datagram_bytes;
        }
        void deliver(std::span<const std::uint8_t> datagram) {
            if (recv_) recv_(datagram);
        }

    private:
        LossyDatagramNetwork& net_;
        ProcessId id_;
        RecvFn recv_;
    };

    bool transmit(ProcessId from, ProcessId to, std::span<const std::uint8_t> datagram);
    const fault::DatagramFaultSpec& spec_for(ProcessId from, ProcessId to) const;
    void schedule_delivery(ProcessId to, std::vector<std::uint8_t> bytes, SimTime delay);

    Reactor& reactor_;
    Params params_;
    DatagramFaultApplier faults_;
    fault::DatagramFaultSpec default_spec_;
    std::map<std::pair<ProcessId, ProcessId>, fault::DatagramFaultSpec> link_specs_;
    std::vector<std::unique_ptr<Endpoint>> endpoints_;
    std::map<std::tuple<ProcessId, ProcessId, std::uint64_t>, std::string> log_;
    std::uint64_t delivered_ = 0;
};

/// A DatagramChannel decorator that applies per-link fault specs to this
/// node's outgoing datagrams. Each directed link is enforced once, by its
/// sender, so a datagram lost between two processes was lost because the
/// schedule said so, not because the kernel dropped it. The inner channel
/// is swapped across crash/restart (the socket is closed and rebound), so
/// it is held by pointer and delayed copies check it when they fire. Those
/// copies are reactor timers holding `this`: the channel must outlive the
/// reactor's loop.
class ChaosDatagramChannel final : public DatagramChannel {
public:
    ChaosDatagramChannel(Reactor& reactor, ProcessId self, std::uint64_t seed)
        : reactor_(reactor), self_(self), faults_(seed) {}
    ChaosDatagramChannel(const ChaosDatagramChannel&) = delete;
    ChaosDatagramChannel& operator=(const ChaosDatagramChannel&) = delete;

    /// The socket underneath; null while the node is down (sends fail).
    /// Set it before a link attaches: the link's receive handler goes
    /// straight through to it.
    void set_inner(DatagramChannel* inner) { inner_ = inner; }
    void set_link_fault(ProcessId to, const fault::DatagramFaultSpec& spec) {
        specs_[to] = spec;
    }
    void clear_link_fault(ProcessId to) { specs_.erase(to); }
    const DatagramFaultApplier::Counters& counters() const { return faults_.counters(); }

    bool send(ProcessId to, std::span<const std::uint8_t> datagram) override;
    void set_receive_handler(RecvFn fn) override {
        if (inner_ != nullptr) inner_->set_receive_handler(std::move(fn));
    }
    std::size_t max_datagram_bytes() const override {
        return inner_ != nullptr ? inner_->max_datagram_bytes() : 0;
    }

private:
    Reactor& reactor_;
    ProcessId self_;
    DatagramFaultApplier faults_;
    DatagramChannel* inner_ = nullptr;
    std::map<ProcessId, fault::DatagramFaultSpec> specs_;
};

}  // namespace gossipc::runtime
