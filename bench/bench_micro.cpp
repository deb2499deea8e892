// Microbenchmarks (google-benchmark) for the hot data structures: the
// recently-seen cache, the event queue, the semantic aggregation rule,
// overlay generation, and shortest-path analysis.
//
// Unlike the figure benches (simulated time, deterministic), these measure
// wall-clock — BENCH_micro.json is informational and not regression-gated.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "common/rng.hpp"
#include "gossip/seen_cache.hpp"
#include "net/latency_model.hpp"
#include "overlay/analysis.hpp"
#include "overlay/random_overlay.hpp"
#include "paxos/message.hpp"
#include "semantic/paxos_semantics.hpp"
#include "sim/event_queue.hpp"

namespace gossipc {
namespace {

void BM_SeenCacheInsert(benchmark::State& state) {
    SeenCache cache(static_cast<std::size_t>(state.range(0)));
    std::uint64_t id = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.insert_if_new(mix64(id++)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeenCacheInsert)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void BM_SeenCacheDuplicateLookup(benchmark::State& state) {
    SeenCache cache(1 << 18);
    for (std::uint64_t id = 0; id < 1000; ++id) cache.insert_if_new(mix64(id));
    std::uint64_t id = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.insert_if_new(mix64(id)));
        id = (id + 1) % 1000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeenCacheDuplicateLookup);

void BM_EventQueuePushPop(benchmark::State& state) {
    EventQueue q;
    Rng rng(1);
    const std::size_t depth = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < depth; ++i) {
        q.push(SimTime::nanos(rng.uniform_int(0, 1'000'000)), [] {});
    }
    for (auto _ : state) {
        q.push(SimTime::nanos(rng.uniform_int(0, 1'000'000)), [] {});
        benchmark::DoNotOptimize(q.pop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 8)->Arg(1 << 14);

void BM_SemanticAggregate(benchmark::State& state) {
    PaxosSemantics sem(0, 53, PaxosSemantics::Options{});
    const int batch = static_cast<int>(state.range(0));
    Value v;
    v.id = ValueId{1, 1};
    std::vector<GossipAppMessage> pending;
    for (int s = 0; s < batch; ++s) {
        auto msg = std::make_shared<Phase2bMsg>(s, 1, 1, v.id, v.digest());
        GossipAppMessage app;
        app.id = msg->unique_key();
        app.origin = s;
        app.payload = std::move(msg);
        pending.push_back(std::move(app));
    }
    for (auto _ : state) {
        auto copy = pending;
        benchmark::DoNotOptimize(sem.aggregate(std::move(copy), 9));
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SemanticAggregate)->Arg(2)->Arg(8)->Arg(32);

void BM_SemanticValidate(benchmark::State& state) {
    PaxosSemantics sem(0, 53, PaxosSemantics::Options{});
    Value v;
    v.id = ValueId{1, 1};
    InstanceId inst = 1;
    ProcessId sender = 0;
    for (auto _ : state) {
        auto msg = std::make_shared<Phase2bMsg>(sender, inst, 1, v.id, v.digest());
        GossipAppMessage app;
        app.id = msg->unique_key();
        app.origin = sender;
        app.payload = std::move(msg);
        benchmark::DoNotOptimize(sem.validate(app, 9));
        sender = (sender + 1) % 105;
        if (sender == 0) ++inst;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SemanticValidate);

void BM_OverlayGeneration(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(make_connected_overlay(n, seed++));
    }
}
BENCHMARK(BM_OverlayGeneration)->Arg(13)->Arg(105);

void BM_ShortestDelays(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const Graph g = make_connected_overlay(n, 42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(shortest_delays(g, 0, LatencyModel::aws()));
    }
}
BENCHMARK(BM_ShortestDelays)->Arg(13)->Arg(105);

/// Console output as usual, plus every run collected into the shared
/// BENCH_<name>.json schema (ns/iter always; items/s when the bench sets it).
class CollectingReporter final : public benchmark::ConsoleReporter {
public:
    explicit CollectingReporter(bench::BenchReport& report) : report_(report) {}

    void ReportRuns(const std::vector<Run>& runs) override {
        ConsoleReporter::ReportRuns(runs);
        for (const Run& run : runs) {
            const std::string name = run.benchmark_name();
            report_.add(name + ".ns_per_iter", run.GetAdjustedRealTime(), "ns", false);
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end()) {
                report_.add(name + ".items_per_s", static_cast<double>(it->second),
                            "items/s", true);
            }
        }
    }

private:
    bench::BenchReport& report_;
};

}  // namespace
}  // namespace gossipc

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    gossipc::bench::BenchReport report("micro");
    gossipc::CollectingReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    report.write();
    return 0;
}
