// Per-process execution model: a serial CPU with a FIFO task queue.
//
// Every message received and every message transmitted consumes CPU time
// (a base cost plus a per-byte cost), so queueing delay and saturation
// emerge naturally under load — this stands in for the paper's t2.medium
// instances. Receive tasks are dropped when the task queue overflows,
// mirroring libp2p-era behaviour ("our implementation may discard messages
// when queues connecting different routines are full"). Receive-side random
// loss injection implements the fault model of Section 4.5.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/host.hpp"
#include "net/message.hpp"
#include "net/region.hpp"
#include "sim/simulator.hpp"

namespace gossipc {

class Network;

class Node final : public DeliveryTarget, public Host {
public:
    struct Params {
        // Defaults calibrated so that, like in the paper's evaluation, the
        // Gossip setup at n=105 saturates somewhat above 104 submissions/s
        // (t2.medium instances running Go + libp2p are slow per message).
        /// CPU cost to process one received message (excl. per-byte part).
        SimTime recv_cost = SimTime::micros(6);
        /// CPU cost to transmit one message (excl. per-byte part).
        SimTime send_cost = SimTime::micros(2);
        /// CPU nanoseconds per payload byte (both directions).
        double cpu_ns_per_byte = 2.0;
        /// Receive tasks pending before further receives are dropped.
        std::size_t task_queue_cap = 50'000;
    };

    struct Counters {
        std::uint64_t arrivals = 0;        ///< messages that reached this node
        std::uint64_t loss_drops = 0;      ///< dropped by injected loss
        std::uint64_t queue_drops = 0;     ///< dropped by task-queue overflow
        std::uint64_t received = 0;        ///< processed by the upper layer
        std::uint64_t sent = 0;            ///< transmissions issued
        std::uint64_t bytes_received = 0;
        std::uint64_t bytes_sent = 0;
    };

    Node(Simulator& sim, Network& network, ProcessId id, Region region, Params params);

    ProcessId id() const override { return id_; }
    SimTime now() const override { return sim_.now(); }
    Region region() const { return region_; }
    const Counters& counters() const { return counters_; }
    const Params& params() const { return params_; }
    Simulator& simulator() { return sim_; }

    void set_receive_handler(ReceiveHandler handler) override { handler_ = std::move(handler); }
    void call_at(SimTime at, std::function<void()> fn) override {
        sim_.schedule_at(at, std::move(fn));
    }

    /// Enables receive-side random message loss with probability `p`.
    void set_loss(double p, Rng rng);
    /// Adjusts the loss rate without touching the loss stream — rewinding an
    /// in-use stream would correlate drops across phases of a run.
    /// Requires a stream (set_loss) before any non-zero rate.
    void set_loss_rate(double p);
    bool has_loss_stream() const { return loss_rng_.has_value(); }
    double loss_rate() const { return loss_rate_; }

    /// Called by the Network when a transmission arrives over a link.
    void arrival(NetMessage msg);

    /// DeliveryTarget: the simulator's typed delivery lane lands here.
    void deliver_event(NetMessage msg) override { arrival(std::move(msg)); }

    /// Posts generic CPU work (control tasks are never dropped).
    void post(Task task) override;

    /// Transmits from within a running task: consumes send CPU at the task's
    /// virtual time and ships the message. Requires an allowed link.
    void transmit_in_task(NetMessage msg, CpuContext& ctx) override;

    /// Convenience for timer-driven sends: posts a task that transmits.
    void post_transmit(NetMessage msg);

    /// Crash the process: pending tasks are discarded and all arrivals are
    /// dropped until recover() is called. (Durable protocol state is kept by
    /// the upper layers, modelling stable storage.)
    void crash();
    void recover();
    bool crashed() const { return crashed_; }

    /// CPU backlog: how far the virtual CPU clock is ahead of real sim time.
    SimTime backlog() const;

private:
    void schedule_drain();
    void drain();

    SimTime message_cost(SimTime base, std::uint32_t bytes) const;

    Simulator& sim_;
    Network& network_;
    ProcessId id_;
    Region region_;
    Params params_;
    ReceiveHandler handler_;

    /// Receive tasks carry the message directly (no closure allocation on
    /// the hot path); control tasks carry a callback.
    struct PendingTask {
        NetMessage msg;  // receive task iff msg.body != nullptr
        Task fn;
        bool droppable = false;
    };
    void run_task(PendingTask& task, CpuContext& ctx);

    std::deque<PendingTask> tasks_;
    SimTime cpu_free_at_ = SimTime::zero();
    bool drain_scheduled_ = false;
    bool crashed_ = false;

    double loss_rate_ = 0.0;
    std::optional<Rng> loss_rng_;

    Counters counters_;
};

}  // namespace gossipc
