// General-purpose experiment runner: every knob of ExperimentConfig on the
// command line, results as a human table, JSON, or a CSV row — the tool to
// script custom sweeps beyond the bundled benches.
//
// Examples:
//   experiment_cli --setup semantic --n 105 --rate 104
//   experiment_cli --setup gossip --n 53 --loss 0.2 --no-timeouts --json
//   experiment_cli --setup gossip --strategy push-pull --rate 52 --csv
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli_parse.hpp"
#include "core/report.hpp"
#include "core/semantic_gossip.hpp"
#include "wire/codec.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
    if (error) std::fprintf(stderr, "experiment_cli: %s\n", error);
    std::fprintf(stderr,
        "usage: %s [options]\n"
        "  --setup baseline|gossip|semantic   (default semantic)\n"
        "  --n <int>                          processes (default 13)\n"
        "  --groups <int>                     independent consensus groups sharing\n"
        "                                     the gossip substrate (default 1;\n"
        "                                     DESIGN.md Sec. 15)\n"
        "  --rate <double>                    submissions/s, all clients (default 52)\n"
        "  --value-size <bytes>               (default 1024)\n"
        "  --loss <0..1>                      receive-side loss rate (default 0)\n"
        "  --no-timeouts                      disable repair procedures\n"
        "  --strategy push|pull|push-pull     dissemination (default push)\n"
        "  --no-filtering / --no-aggregation  disable one semantic technique\n"
        "  --batch <size>                     network-level batching (default off)\n"
        "  --batch-size <n>                   coordinator value batching: values\n"
        "                                     per Paxos instance (default 1 = off)\n"
        "  --batch-delay <s>                  partial-batch flush delay (default 0.005)\n"
        "  --pending-cap <n>                  coordinator queue cap; beyond it new\n"
        "                                     values are shed (default 65536)\n"
        "  --pipeline                         pull-mode pipelining: forward in the\n"
        "                                     same step instead of next round\n"
        "  --fanout <k>                       forward to k random peers, 0 = all\n"
        "  --adaptive-fanout                  widen a restricted fanout under\n"
        "                                     send-queue pressure\n"
        "  --seed <u64> / --overlay-seed <u64>\n"
        "  --chaos light|moderate|heavy|heavy-failover\n"
        "                                     seeded fault schedule (crashes,\n"
        "                                     partitions, link faults, churn;\n"
        "                                     heavy-failover adds a permanent\n"
        "                                     coordinator crash mid-horizon)\n"
        "  --chaos-seed <u64>                 replay seed (default: --seed)\n"
        "  --failover                         failure detector + coordinator\n"
        "                                     failover (DESIGN.md Sec. 8)\n"
        "  --heartbeat <s>                    heartbeat interval (default 0.1)\n"
        "  --suspect-after <s>                suspicion timeout (default 0.45)\n"
        "  --fault-log                        print the injected-fault log\n"
        "  --trace <path>                     message-lifecycle tracing, JSONL\n"
        "                                     exported to <path> (DESIGN.md Sec. 9)\n"
        "  --trace-capacity <n>               trace ring size (default 65536)\n"
        "  --clients <int>                    client count (default 13)\n"
        "  --detector-sweep <s>               suspicion sweep interval (default 0.05)\n"
        "  --suspicion-jitter <s>             max suspicion-deadline jitter (default 0.06)\n"
        "  --retransmit-jitter <s>            max retransmit-backoff jitter (default 0.15)\n"
        "  --probe-events <n>                 invariant probe period, 0 = off\n"
        "                                     (default 25000; debug builds only)\n"
        "  --bandwidth <bytes-per-us>         per-link bandwidth (default 125)\n"
        "  --jitter-frac <0..1>               latency jitter fraction (default 0.02)\n"
        "  --warmup <s> --measure <s> --drain <s>\n"
        "  --json | --csv                     machine-readable output\n",
        argv0);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace gossipc;

    ExperimentConfig cfg;
    cfg.setup = Setup::SemanticGossip;
    cfg.total_rate = 52.0;
    enum class Output { Table, Json, Csv } output = Output::Table;
    bool fault_log = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0], ("missing value for " + arg).c_str());
            return argv[++i];
        };
        const auto num = [&](const char* s) { return cli::parse_num(usage, argv[0], arg, s); };
        const auto intval = [&](const char* s) {
            return cli::parse_int(usage, argv[0], arg, s);
        };
        const auto u64val = [&](const char* s) {
            return cli::parse_u64(usage, argv[0], arg, s);
        };
        if (arg == "--setup") {
            const std::string v = next();
            if (v == "baseline") cfg.setup = Setup::Baseline;
            else if (v == "gossip") cfg.setup = Setup::Gossip;
            else if (v == "semantic") cfg.setup = Setup::SemanticGossip;
            else usage(argv[0], "bad --setup (want baseline|gossip|semantic)");
        } else if (arg == "--n") {
            cfg.n = static_cast<int>(intval(next()));
        } else if (arg == "--groups") {
            cfg.groups = static_cast<int>(intval(next()));
        } else if (arg == "--rate") {
            cfg.total_rate = num(next());
        } else if (arg == "--value-size") {
            cfg.value_size = static_cast<std::uint32_t>(u64val(next()));
        } else if (arg == "--loss") {
            cfg.loss_rate = num(next());
        } else if (arg == "--no-timeouts") {
            cfg.timeouts_enabled = false;
        } else if (arg == "--strategy") {
            const std::string v = next();
            if (v == "push") cfg.strategy = GossipStrategy::Push;
            else if (v == "pull") cfg.strategy = GossipStrategy::Pull;
            else if (v == "push-pull") cfg.strategy = GossipStrategy::PushPull;
            else usage(argv[0], "bad --strategy (want push|pull|push-pull)");
        } else if (arg == "--no-filtering") {
            cfg.semantic.filtering = false;
        } else if (arg == "--no-aggregation") {
            cfg.semantic.aggregation = false;
        } else if (arg == "--batch") {
            cfg.gossip_params.batch_size = static_cast<std::size_t>(u64val(next()));
        } else if (arg == "--batch-size") {
            cfg.batch_size = static_cast<std::uint32_t>(u64val(next()));
        } else if (arg == "--batch-delay") {
            cfg.batch_delay = SimTime::seconds(num(next()));
        } else if (arg == "--pending-cap") {
            cfg.pending_cap = static_cast<std::size_t>(u64val(next()));
        } else if (arg == "--pipeline") {
            cfg.pipeline = true;
        } else if (arg == "--fanout") {
            cfg.fanout = static_cast<std::size_t>(u64val(next()));
        } else if (arg == "--adaptive-fanout") {
            cfg.adaptive_fanout = true;
        } else if (arg == "--seed") {
            cfg.seed = u64val(next());
        } else if (arg == "--overlay-seed") {
            cfg.overlay_seed = u64val(next());
        } else if (arg == "--chaos") {
            const std::string v = next();
            if (v == "light") cfg.chaos = ChaosProfile::light();
            else if (v == "moderate") cfg.chaos = ChaosProfile::moderate();
            else if (v == "heavy") cfg.chaos = ChaosProfile::heavy();
            else if (v == "heavy-failover") cfg.chaos = ChaosProfile::heavy_failover();
            else usage(argv[0], "bad --chaos (want light|moderate|heavy|heavy-failover)");
        } else if (arg == "--chaos-seed") {
            cfg.chaos_seed = u64val(next());
        } else if (arg == "--failover") {
            cfg.failover = true;
        } else if (arg == "--heartbeat") {
            cfg.heartbeat_interval = SimTime::seconds(num(next()));
        } else if (arg == "--suspect-after") {
            cfg.suspect_after = SimTime::seconds(num(next()));
        } else if (arg == "--fault-log") {
            fault_log = true;
        } else if (arg == "--trace") {
            cfg.trace = true;
            cfg.trace_jsonl_path = next();
        } else if (arg == "--trace-capacity") {
            cfg.trace_capacity = static_cast<std::size_t>(u64val(next()));
        } else if (arg == "--clients") {
            cfg.num_clients = static_cast<int>(intval(next()));
        } else if (arg == "--detector-sweep") {
            cfg.detector_sweep_interval = SimTime::seconds(num(next()));
        } else if (arg == "--suspicion-jitter") {
            cfg.suspicion_jitter_max = SimTime::seconds(num(next()));
        } else if (arg == "--retransmit-jitter") {
            cfg.retransmit_jitter_max = SimTime::seconds(num(next()));
        } else if (arg == "--probe-events") {
            cfg.invariant_probe_events = u64val(next());
        } else if (arg == "--bandwidth") {
            cfg.bandwidth_bytes_per_us = num(next());
        } else if (arg == "--jitter-frac") {
            cfg.jitter_frac = num(next());
        } else if (arg == "--warmup") {
            cfg.warmup = SimTime::seconds(num(next()));
        } else if (arg == "--measure") {
            cfg.measure = SimTime::seconds(num(next()));
        } else if (arg == "--drain") {
            cfg.drain = SimTime::seconds(num(next()));
        } else if (arg == "--json") {
            output = Output::Json;
        } else if (arg == "--csv") {
            output = Output::Csv;
        } else {
            usage(argv[0], ("unknown flag " + arg).c_str());
        }
    }

    // Range validation: an out-of-range knob silently produces a degenerate
    // experiment (zero division, a cluster with no quorum, a negative timer
    // interpreted as "immediately, forever") — reject it up front instead.
    if (cfg.n < 3) usage(argv[0], "--n must be at least 3 (quorum needs a majority)");
    if (cfg.groups < 1) usage(argv[0], "--groups must be at least 1");
    if (cfg.groups > static_cast<int>(wire::kMaxGroupFrontiers)) {
        usage(argv[0], "--groups exceeds the wire codec's heartbeat frontier cap (1024)");
    }
    if (cfg.total_rate <= 0) usage(argv[0], "--rate must be positive");
    if (cfg.value_size == 0) usage(argv[0], "--value-size must be positive");
    if (cfg.loss_rate < 0 || cfg.loss_rate > 1) usage(argv[0], "--loss must be in [0, 1]");
    if (cfg.gossip_params.batch_size == 0) usage(argv[0], "--batch must be at least 1");
    if (cfg.batch_size == 0) usage(argv[0], "--batch-size must be at least 1");
    if (cfg.batch_size > wire::kMaxBatchEntries) {
        usage(argv[0], "--batch-size exceeds the wire codec's component cap (4096)");
    }
    if (cfg.batch_delay < SimTime::zero()) {
        usage(argv[0], "--batch-delay must be non-negative");
    }
    if (cfg.pending_cap == 0) usage(argv[0], "--pending-cap must be at least 1");
    if (cfg.heartbeat_interval <= SimTime::zero()) {
        usage(argv[0], "--heartbeat must be positive");
    }
    if (cfg.suspect_after <= SimTime::zero()) {
        usage(argv[0], "--suspect-after must be positive");
    }
    if (cfg.trace_capacity == 0) usage(argv[0], "--trace-capacity must be positive");
    if (cfg.num_clients < 1) usage(argv[0], "--clients must be at least 1");
    if (cfg.detector_sweep_interval <= SimTime::zero()) {
        usage(argv[0], "--detector-sweep must be positive");
    }
    if (cfg.suspicion_jitter_max < SimTime::zero()) {
        usage(argv[0], "--suspicion-jitter must be non-negative");
    }
    if (cfg.retransmit_jitter_max < SimTime::zero()) {
        usage(argv[0], "--retransmit-jitter must be non-negative");
    }
    if (cfg.bandwidth_bytes_per_us <= 0) usage(argv[0], "--bandwidth must be positive");
    if (cfg.jitter_frac < 0 || cfg.jitter_frac > 1) {
        usage(argv[0], "--jitter-frac must be in [0, 1]");
    }
    if (cfg.warmup < SimTime::zero() || cfg.drain < SimTime::zero()) {
        usage(argv[0], "--warmup/--drain must be non-negative");
    }
    if (cfg.measure <= SimTime::zero()) usage(argv[0], "--measure must be positive");

    const ExperimentResult result = run_experiment(cfg);

    switch (output) {
        case Output::Json:
            std::printf("%s\n", to_json(cfg, result).c_str());
            break;
        case Output::Csv:
            std::printf("%s\n%s\n", csv_header().c_str(), to_csv_row(cfg, result).c_str());
            break;
        case Output::Table: {
            const auto& w = result.workload;
            std::printf("setup=%s n=%d rate=%.0f/s loss=%.0f%% timeouts=%s\n",
                        setup_name(cfg.setup), cfg.n, cfg.total_rate, 100 * cfg.loss_rate,
                        cfg.timeouts_enabled ? "on" : "off");
            std::printf("throughput %.1f/s | latency %.1f ms (p50 %.1f, p95 %.1f, p99 %.1f)\n",
                        w.throughput, w.latencies.mean(), w.latencies.percentile(50),
                        w.latencies.percentile(95), w.latencies.percentile(99));
            std::printf("submitted %llu, completed %llu, not ordered %llu\n",
                        static_cast<unsigned long long>(w.submitted),
                        static_cast<unsigned long long>(w.completed),
                        static_cast<unsigned long long>(w.not_ordered));
            std::printf("arrivals %llu (dups %.0f%%), filtered %llu, merged %llu\n",
                        static_cast<unsigned long long>(result.messages.net_arrivals),
                        100.0 * result.messages.duplicate_fraction(),
                        static_cast<unsigned long long>(result.semantic.filtered_phase2b),
                        static_cast<unsigned long long>(result.semantic.messages_merged));
            if (cfg.groups > 1) {
                std::printf("groups %d, decided per group:", cfg.groups);
                for (const std::uint64_t d : result.group_decided) {
                    std::printf(" %llu", static_cast<unsigned long long>(d));
                }
                std::printf(" | cross-group merges %llu\n",
                            static_cast<unsigned long long>(
                                result.semantic.cross_group_merged));
            }
            if (cfg.chaos) {
                std::printf("chaos %s seed %llu: %llu faults injected\n",
                            cfg.chaos->name.c_str(),
                            static_cast<unsigned long long>(
                                cfg.chaos_seed != 0 ? cfg.chaos_seed : cfg.seed),
                            static_cast<unsigned long long>(result.faults_injected));
            }
            if (cfg.failover) {
                const auto& f = result.failover;
                std::printf("failover: %llu suspicions, %llu restores, %llu takeovers,"
                            " %llu step-downs, heartbeats %llu sent / %llu suppressed\n",
                            static_cast<unsigned long long>(f.suspicions),
                            static_cast<unsigned long long>(f.restores),
                            static_cast<unsigned long long>(f.takeovers),
                            static_cast<unsigned long long>(f.step_downs),
                            static_cast<unsigned long long>(f.heartbeats_sent),
                            static_cast<unsigned long long>(f.heartbeats_suppressed));
            }
            break;
        }
    }
    if (fault_log) {
        for (const std::string& line : result.fault_log) std::printf("%s\n", line.c_str());
    }
    return result.workload.completed > 0 ? 0 : 1;
}
