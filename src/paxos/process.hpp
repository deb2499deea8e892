// A Paxos process playing all three roles (proposer/acceptor/learner), as in
// the paper. Dispatches messages delivered by the transport, serves local
// clients (forwarding values to the coordinator), and runs the learner
// gap-repair timer (disableable, Section 4.5).
//
// With failover enabled (DESIGN.md §8) the process also runs a failure
// detector: when the currently-believed coordinator is suspected, the
// next-ranked live process takes over via a ranged Phase 1 at a higher
// round, and everyone re-routes pending submissions and learn requests to
// whichever coordinator they currently believe in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "detect/failure_detector.hpp"
#include "paxos/acceptor.hpp"
#include "paxos/config.hpp"
#include "paxos/coordinator.hpp"
#include "paxos/learner.hpp"
#include "transport/transport.hpp"

namespace gossipc {

namespace trace {
class Tracer;
struct PayloadInfo;
}

/// The lifecycle tracer's payload probe for Paxos bodies
/// (trace::Tracer::set_payload_probe): message type, consensus group and,
/// where one applies, instance. Other bodies yield an empty PayloadInfo.
trace::PayloadInfo paxos_payload_info(const MessageBody& body);

class PaxosProcess {
public:
    /// Fired for each value delivered in instance order at this process.
    using DeliveryListener = std::function<void(InstanceId, const Value&, CpuContext&)>;

    /// Fired on failover transitions at this process. `subject` is the peer
    /// the event is about (suspected/restored peer, or the new round owner
    /// for StepDown; the process itself for Takeover).
    using FailoverListener =
        std::function<void(FailoverEvent, ProcessId subject, Round round, CpuContext&)>;

    struct Counters {
        std::uint64_t values_submitted = 0;
        std::uint64_t messages_handled = 0;
        std::uint64_t learn_requests_sent = 0;
        std::uint64_t learn_requests_answered = 0;
        std::uint64_t value_retransmissions = 0;
        std::uint64_t takeovers = 0;   ///< this process assumed coordination
        std::uint64_t step_downs = 0;  ///< demoted on observing a higher round
        /// Messages handled by protocol phase, indexed by PaxosMsgType.
        static constexpr std::size_t kNumMsgTypes = 10;
        std::uint64_t handled_by_type[kNumMsgTypes] = {};
    };

    /// `shared_detector`, when non-null, is a failure detector owned by the
    /// sharding layer and shared by every consensus group on this node
    /// (DESIGN.md §15): the process subscribes to its suspect/restore events
    /// instead of constructing (and heartbeating from) its own. Null keeps
    /// the classic one-detector-per-process wiring.
    PaxosProcess(const PaxosConfig& config, Transport& transport,
                 FailureDetector* shared_detector = nullptr);

    /// Kicks off the protocol (coordinator Phase 1, repair timer, detector).
    void post_start();

    /// Submits a client value served by this process: proposes it directly
    /// when this process is the active coordinator, forwards it to the
    /// currently-believed coordinator otherwise.
    void submit(const Value& value, CpuContext& ctx);
    void post_submit(const Value& value);

    void set_delivery_listener(DeliveryListener fn) { delivery_listener_ = std::move(fn); }
    void set_failover_listener(FailoverListener fn) { failover_listener_ = std::move(fn); }
    /// Attaches the lifecycle tracer (records a Decide event per in-order
    /// delivery). Separate from the delivery listener, which the workload
    /// replaces wholesale.
    void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

    const PaxosConfig& config() const { return config_; }
    /// True while this process is actively coordinating (round owner).
    bool is_coordinator() const { return coordinator_ && coordinator_->active(); }
    /// Where this process currently routes submissions and learn requests.
    ProcessId believed_coordinator() const { return believed_coordinator_; }

    Learner& learner() { return learner_; }
    const Learner& learner() const { return learner_; }
    Acceptor& acceptor() { return acceptor_; }
    Coordinator* coordinator() { return coordinator_ ? coordinator_.get() : nullptr; }
    const Coordinator* coordinator() const { return coordinator_ ? coordinator_.get() : nullptr; }
    FailureDetector* failure_detector() { return detector_; }
    const FailureDetector* failure_detector() const { return detector_; }
    const Counters& counters() const { return counters_; }

    /// Makes this process start acting as coordinator (e.g. after the
    /// configured coordinator crashed). Runs Phase 1 with a higher round.
    void become_coordinator();

    /// Fault engine: wipes the durable acceptor/learner state and the
    /// volatile submission/repair bookkeeping, modelling a restart after
    /// storage loss. The process rejoins as a blank replica and relearns via
    /// gap repair. Without failover, wiping an acting coordinator is not
    /// supported — its proposal ledger references the wiped learner; with
    /// failover the coordinator steps down and a successor takes over.
    void wipe_state();

private:
    void on_message(const PaxosMessagePtr& msg, CpuContext& ctx);
    void handle_phase1a(const Phase1aMsg& msg, CpuContext& ctx);
    void handle_phase2a(const Phase2aMsg& msg, CpuContext& ctx);
    void handle_learn_request(const LearnRequestMsg& msg, CpuContext& ctx);
    void repair_sweep(CpuContext& ctx);

    // Failover plumbing.
    void on_peer_suspected(ProcessId peer, CpuContext& ctx);
    void take_over(CpuContext& ctx);
    void note_round_observed(Round round, CpuContext& ctx);
    void set_believed_coordinator(ProcessId peer, CpuContext& ctx);
    void emit_failover(FailoverEvent event, ProcessId subject, Round round, CpuContext& ctx);

    PaxosConfig config_;
    Transport& transport_;
    Acceptor acceptor_;
    Learner learner_;
    std::unique_ptr<Coordinator> coordinator_;  ///< present once this process ever coordinated
    std::unique_ptr<FailureDetector> owned_detector_;  ///< single-group wiring only
    /// Points at owned_detector_ or the sharding layer's shared detector;
    /// null iff failover is disabled.
    FailureDetector* detector_ = nullptr;
    DeliveryListener delivery_listener_;
    FailoverListener failover_listener_;
    trace::Tracer* tracer_ = nullptr;

    bool started_ = false;  ///< guards double-arming the repair chain

    /// Routing target for submissions/learn requests. Starts at the static
    /// config_.coordinator; moves on suspicion (rank succession) and on
    /// observing Phase 1a/2a traffic from a higher-round owner.
    ProcessId believed_coordinator_;
    /// Highest round seen in any Phase 1a/2a; takeovers start above it.
    Round highest_round_seen_ = 0;

    // Gap-repair state.
    InstanceId last_frontier_ = 1;
    SimTime frontier_changed_at_ = SimTime::zero();
    std::int32_t repair_attempt_ = 0;
    /// Highest learner frontier advertised by any peer heartbeat: the only
    /// gap evidence left when no instances are being decided (drain).
    InstanceId advertised_frontier_ = 1;

    // Client values submitted through this process and not yet delivered:
    // retransmitted to the coordinator on timeout (loss of a ClientValue is
    // otherwise unrecoverable — nobody else has the value).
    struct PendingSubmission {
        Value value;
        SimTime last_sent;
        std::int32_t attempt = 0;
    };
    std::unordered_map<ValueId, PendingSubmission> pending_submissions_;

    Counters counters_;
};

}  // namespace gossipc
