// Quickstart: run Paxos over Semantic Gossip on the simulated 13-region WAN
// and print throughput, latency, and gossip-layer statistics.
//
// Usage: quickstart [n] [rate] [setup]
//   n     system size (default 13)
//   rate  client submissions/s over all 13 clients (default 50)
//   setup baseline | gossip | semantic (default semantic)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cli_parse.hpp"
#include "core/semantic_gossip.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, const char* error) {
    std::fprintf(stderr, "quickstart: %s\nusage: %s [n] [rate] [setup]\n", error, argv0);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace gossipc;

    ExperimentConfig cfg;
    cfg.setup = Setup::SemanticGossip;
    cfg.n = argc > 1 ? static_cast<int>(cli::parse_num(usage, argv[0], "n", argv[1])) : 13;
    cfg.total_rate = argc > 2 ? cli::parse_num(usage, argv[0], "rate", argv[2]) : 50.0;
    if (cfg.n < 3) usage(argv[0], "n must be at least 3 (quorum needs a majority)");
    if (cfg.total_rate <= 0) usage(argv[0], "rate must be positive");
    if (argc > 3) {
        if (std::strcmp(argv[3], "baseline") == 0) cfg.setup = Setup::Baseline;
        else if (std::strcmp(argv[3], "gossip") == 0) cfg.setup = Setup::Gossip;
        else if (std::strcmp(argv[3], "semantic") == 0) cfg.setup = Setup::SemanticGossip;
        else usage(argv[0], "setup must be baseline, gossip, or semantic");
    }
    cfg.warmup = SimTime::seconds(1);
    cfg.measure = SimTime::seconds(4);
    cfg.drain = SimTime::seconds(2);

    std::printf("setup=%s n=%d offered=%.0f/s value=1KB\n", setup_name(cfg.setup), cfg.n,
                cfg.total_rate);

    const ExperimentResult r = run_experiment(cfg);

    std::printf("throughput        : %.1f decisions/s\n", r.workload.throughput);
    std::printf("latency avg/std   : %.1f / %.1f ms\n", r.workload.latencies.mean(),
                r.workload.latencies.stddev());
    std::printf("latency p50/p95/p99: %.1f / %.1f / %.1f ms\n",
                r.workload.latencies.percentile(50), r.workload.latencies.percentile(95),
                r.workload.latencies.percentile(99));
    std::printf("submitted/completed/not-ordered: %llu / %llu / %llu\n",
                static_cast<unsigned long long>(r.workload.submitted),
                static_cast<unsigned long long>(r.workload.completed),
                static_cast<unsigned long long>(r.workload.not_ordered));
    std::printf("net arrivals      : %llu (%.0f per process)\n",
                static_cast<unsigned long long>(r.messages.net_arrivals),
                r.messages.arrivals_per_process(cfg.n));
    std::printf("coordinator recv  : %llu\n",
                static_cast<unsigned long long>(r.messages.coordinator_arrivals));
    if (cfg.setup != Setup::Baseline) {
        std::printf("gossip received   : %llu, duplicates %.1f%%\n",
                    static_cast<unsigned long long>(r.messages.gossip_messages_received),
                    100.0 * r.messages.duplicate_fraction());
        std::printf("delivered to Paxos: %llu\n",
                    static_cast<unsigned long long>(r.messages.gossip_delivered));
        std::printf("overlay           : avg degree %.1f, diameter %d, median RTT %.1f ms\n",
                    r.overlay.average_degree, r.overlay.diameter_hops,
                    r.median_rtt.as_millis());
    }
    if (cfg.setup == Setup::SemanticGossip) {
        std::printf("semantic          : filtered %llu 2b, %llu aggregates (merged %llu)\n",
                    static_cast<unsigned long long>(r.semantic.filtered_phase2b),
                    static_cast<unsigned long long>(r.semantic.aggregates_built),
                    static_cast<unsigned long long>(r.semantic.messages_merged));
    }
    return 0;
}
