#include "fault/injector.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "overlay/random_overlay.hpp"

namespace gossipc {

namespace {
/// Skip reason of a partition, heal or link-fault event on a substrate that
/// cannot fault individual links (the runtime's TCP lane).
constexpr const char* kNoLinkLane = "no datagram lane";
}  // namespace

FaultInjector::FaultInjector(int n, FaultSchedule schedule, Hooks hooks)
    : n_(n),
      schedule_(std::move(schedule)),
      hooks_(std::move(hooks)),
      crashed_(static_cast<std::size_t>(n), false),
      wipe_on_restart_(static_cast<std::size_t>(n), false) {
    if (!hooks_.schedule || !hooks_.crash || !hooks_.restart) {
        throw std::invalid_argument("FaultInjector: schedule, crash and restart hooks required");
    }
    const auto in_range = [n](ProcessId p) { return p >= 0 && p < n; };
    for (const FaultEvent& e : schedule_.events()) {
        if (const auto* crash = std::get_if<CrashFault>(&e.action)) {
            if (!in_range(crash->process)) {
                throw std::invalid_argument("FaultInjector: crash targets unknown process");
            }
        } else if (const auto* restart = std::get_if<RestartFault>(&e.action)) {
            if (!in_range(restart->process)) {
                throw std::invalid_argument("FaultInjector: restart targets unknown process");
            }
        } else if (const auto* part = std::get_if<PartitionFault>(&e.action)) {
            for (const ProcessId p : part->side) {
                if (!in_range(p)) {
                    throw std::invalid_argument("FaultInjector: partition side out of range");
                }
            }
        }
    }
}

void FaultInjector::arm() {
    if (armed_) throw std::logic_error("FaultInjector::arm: already armed");
    armed_ = true;
    for (const FaultEvent& e : schedule_.events()) {
        hooks_.schedule(e.at, [this, &e] { fire(e); });
    }
}

void FaultInjector::fire(const FaultEvent& event) {
    const char* skipped = std::visit([this](const auto& f) { return apply(f); }, event.action);
    std::ostringstream o;
    o << event.at.as_nanos() << ' ' << describe(event.action);
    if (skipped != nullptr) o << " [skipped: " << skipped << ']';
    log_.push_back(o.str());
    ++(skipped != nullptr ? counters_.skipped : counters_.applied);
}

const char* FaultInjector::apply(const CrashFault& f) {
    const auto p = static_cast<std::size_t>(f.process);
    if (crashed_[p]) return "already crashed";
    hooks_.crash(f.process);
    crashed_[p] = true;
    // The wipe is deferred to the restart: durable state is unobservable
    // while the process is down, and a process that never restarts is
    // indistinguishable from one whose disk burned.
    wipe_on_restart_[p] = f.wipe_state;
    ++counters_.crashes;
    return nullptr;
}

const char* FaultInjector::apply(const RestartFault& f) {
    const auto p = static_cast<std::size_t>(f.process);
    if (!crashed_[p]) return "not crashed";
    hooks_.restart(f.process, wipe_on_restart_[p]);
    crashed_[p] = false;
    ++counters_.restarts;
    if (wipe_on_restart_[p]) ++counters_.wipes;
    return nullptr;
}

const char* FaultInjector::apply(const PartitionFault& f) {
    if (!hooks_.cut) return kNoLinkLane;
    std::vector<bool> in_side(static_cast<std::size_t>(n_), false);
    for (const ProcessId p : f.side) in_side[static_cast<std::size_t>(p)] = true;
    for (ProcessId a = 0; a < n_; ++a) {
        if (!in_side[static_cast<std::size_t>(a)]) continue;
        for (ProcessId b = 0; b < n_; ++b) {
            if (!in_side[static_cast<std::size_t>(b)]) hooks_.cut(a, b);
        }
    }
    ++counters_.partitions;
    return nullptr;
}

const char* FaultInjector::apply(const HealFault& /*f*/) {
    if (!hooks_.heal) return kNoLinkLane;
    hooks_.heal();
    ++counters_.heals;
    return nullptr;
}

const char* FaultInjector::apply(const LinkFaultStart& f) {
    if (!hooks_.link_fault) return kNoLinkLane;
    hooks_.link_fault(f.from, f.to, &f.spec);
    ++counters_.link_faults;
    return nullptr;
}

const char* FaultInjector::apply(const LinkFaultEnd& f) {
    if (!hooks_.link_fault) return kNoLinkLane;
    hooks_.link_fault(f.from, f.to, nullptr);
    ++counters_.link_fault_ends;
    return nullptr;
}

const char* FaultInjector::apply(const ChurnDropEdge& f) {
    if (hooks_.overlay == nullptr || !hooks_.drop_edge) return "no overlay";
    if (!hooks_.overlay->has_edge(f.a, f.b)) return "edge absent";
    // Refuse churn that would disconnect the overlay: gossip over a
    // disconnected overlay cannot converge, and real churned membership
    // re-establishes connectivity. The check is O(V+E) on a copy.
    Graph probe = *hooks_.overlay;
    probe.remove_edge(f.a, f.b);
    if (!is_connected(probe)) return "would disconnect overlay";
    hooks_.overlay->remove_edge(f.a, f.b);
    hooks_.drop_edge(f.a, f.b);
    ++counters_.edges_dropped;
    return nullptr;
}

const char* FaultInjector::apply(const ChurnAddEdge& f) {
    if (hooks_.overlay == nullptr || !hooks_.add_edge) return "no overlay";
    if (hooks_.overlay->has_edge(f.a, f.b)) return "edge present";
    hooks_.overlay->add_edge(f.a, f.b);
    hooks_.add_edge(f.a, f.b);
    ++counters_.edges_added;
    return nullptr;
}

std::string FaultInjector::rendered_log() const {
    std::ostringstream o;
    for (const std::string& line : log_) o << line << '\n';
    return o.str();
}

}  // namespace gossipc
