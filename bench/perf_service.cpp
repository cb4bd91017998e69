// Perf harness for service mode (tracked trajectory: BENCH_perf.json).
//
// Measures the two throughput numbers `richnote serve` is sized by:
//
//  1. Service round loop: a fleet of users= brokers (defaults far above the
//     training trace's user count — brokers are synthesized per id, so a
//     model trained on train_users= serves millions) runs rounds= rounds on
//     the persistent worker pool, after the training trace has been
//     replayed over the wire so the low ids carry real queues. Reports
//     service_rounds_per_sec and user_rounds_per_sec = rounds/sec × users:
//     how fast the whole fleet's clock advances, the "simulated users per
//     host" capacity claim. It is not broker work done: a round runs only
//     the active list (users with queued or pending items) and defers every
//     idle broker's round until that broker is next touched. So the harness
//     reports beside it active_users, the mean number of brokers a timed
//     round ran, and caught_up_rounds, the deferred rounds replayed during
//     the timed rounds.
//
//  2. Ingest plane: ingest_msgs= pre-rendered NDJSON lines are pushed
//     through parse + validation + the MPSC admission ring from a single
//     producer thread. Reports ingest_msgs_per_sec. The ring is sized to
//     hold the whole burst, so the number is the parse+enqueue cost, not a
//     backpressure artifact (any backpressure fails the run loudly).
//
//  3. Round publish: after every timed round, what `richnote serve`
//     republishes — export_service_metrics over one metrics().totals()
//     fleet walk, then the Prometheus text render of that registry.
//     Reports publish_ms, the median per round; it is timed apart from the
//     round itself, so service_rounds_per_sec stays the bare round loop.
//
// Fleet construction is timed separately (fleet_build_sec) because elastic
// resharding pays it again on every reshard.
//
// Output is machine-readable JSON on stdout (or json=PATH); scripts/bench.sh
// folds it into BENCH_perf.json as the "service" section and the gate
// regresses both throughput numbers and the publish time.
//
// Usage: perf_service [train_users=200] [users=1000000] [rounds=10]
//                     [ingest_msgs=200000] [threads=1] [seed=1] [trees=10]
//                     [budget=20] [queue=524288] [json=PATH] [manifest=PATH]
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/service.hpp"
#include "core/wire.hpp"
#include "ml/simd_dispatch.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prom_text.hpp"
#include "obs/run_manifest.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

} // namespace

int main(int argc, char** argv) try {
    using namespace richnote;

    const config cfg = config::from_args(argc, argv);
    cfg.restrict_to({"train_users", "users", "rounds", "ingest_msgs", "threads", "seed",
                     "trees", "budget", "queue", "json", "manifest"});
    const auto train_users = static_cast<std::size_t>(cfg.get_int("train_users", 200));
    const auto users = static_cast<std::size_t>(cfg.get_int("users", 1'000'000));
    const auto rounds = static_cast<std::uint64_t>(cfg.get_int("rounds", 10));
    const auto ingest_msgs = static_cast<std::size_t>(cfg.get_int("ingest_msgs", 200'000));
    const auto threads = static_cast<std::size_t>(cfg.get_int("threads", 1));
    const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    const auto trees = static_cast<std::size_t>(cfg.get_int("trees", 10));
    const double budget_mb = cfg.get_double("budget", 20.0);
    const auto queue = static_cast<std::size_t>(cfg.get_int("queue", 1 << 19));
    if (rounds == 0) {
        std::cerr << "error: rounds= must be at least 1\n";
        return 1;
    }

    // Setup (not timed): a small training workload; the fleet is then
    // synthesized at users= scale from the model it produced.
    core::experiment_setup::options setup_opts;
    setup_opts.workload.user_count = train_users;
    setup_opts.forest.tree_count = trees;
    setup_opts.seed = seed;
    std::cerr << "[perf] training setup: " << train_users << " users, " << trees
              << " trees...\n";
    const core::experiment_setup setup(setup_opts);
    const auto& trace = setup.world().notifications();
    std::cerr << "[perf] trace: " << trace.total_count << " notifications\n";

    core::service_params sp;
    sp.experiment.kind = core::scheduler_kind::richnote;
    sp.experiment.weekly_budget_mb = budget_mb;
    sp.experiment.seed = seed;
    sp.user_count = users;
    sp.worker_threads = threads;
    sp.queue_capacity = queue;

    std::cerr << "[perf] building fleet: " << users << " brokers...\n";
    const auto build_start = clock_type::now();
    core::notification_service svc(setup, sp);
    const double fleet_build_sec = seconds_since(build_start);
    std::cerr << "[perf] fleet built in " << fleet_build_sec << " s\n";

    // Phase 1: the round loop. Replay the training trace over the wire so
    // the first train_users brokers carry real scheduling queues, then time
    // rounds= service rounds over the whole fleet.
    for (const auto& stream : trace.per_user) {
        for (const auto& n : stream) {
            if (svc.ingest(n) != core::notification_service::ingest_status::accepted) {
                std::cerr << "error: warmup ingest rejected (queue= too small?)\n";
                return 1;
            }
        }
    }
    std::cerr << "[perf] timing " << rounds << " service rounds + publishes...\n";
    double rounds_wall = 0.0;
    std::vector<double> publish_ms_per_round;
    const std::uint64_t caught_up_before = svc.counters().caught_up_rounds;
    std::uint64_t active_user_rounds = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        const auto round_start = clock_type::now();
        svc.run_round();
        rounds_wall += seconds_since(round_start);
        active_user_rounds += svc.counters().active_users;

        const auto publish_start = clock_type::now();
        obs::metrics_registry registry;
        svc.export_service_metrics(svc.metrics().totals(), registry);
        std::ostringstream prom;
        obs::write_prometheus_text(registry, prom);
        publish_ms_per_round.push_back(seconds_since(publish_start) * 1e3);
    }
    const double publish_ms = richnote::percentile(publish_ms_per_round, 0.5);
    const double service_rounds_per_sec = static_cast<double>(rounds) / rounds_wall;
    const double user_rounds_per_sec =
        service_rounds_per_sec * static_cast<double>(users);
    const double active_users =
        static_cast<double>(active_user_rounds) / static_cast<double>(rounds);
    const std::uint64_t caught_up_rounds =
        svc.counters().caught_up_rounds - caught_up_before;

    // Phase 2: the ingest plane. Lines are pre-rendered so the timed loop
    // is parse + validate + enqueue, exactly what a wire producer costs the
    // service. The ring must absorb the whole burst: backpressure here
    // means the harness is mis-sized, not that the plane is slow.
    const std::size_t burst = std::min(ingest_msgs, queue);
    if (burst < ingest_msgs) {
        std::cerr << "[perf] ingest_msgs clamped to ring capacity " << burst << "\n";
    }
    std::vector<trace::notification> flat = trace.flatten();
    std::vector<std::string> lines;
    lines.reserve(burst);
    for (std::size_t i = 0; i < burst; ++i) {
        lines.push_back(core::format_wire_line(flat[i % flat.size()]));
    }
    std::cerr << "[perf] timing ingest of " << burst << " wire lines...\n";
    const auto before = svc.counters();
    const auto ingest_start = clock_type::now();
    for (const std::string& line : lines) svc.ingest_line(line);
    const double ingest_wall = seconds_since(ingest_start);
    const auto after = svc.counters();
    const std::uint64_t accepted = after.ingest_accepted - before.ingest_accepted;
    const std::uint64_t pushed_back =
        after.ingest_rejected_backpressure - before.ingest_rejected_backpressure;
    const std::uint64_t parse_errors =
        after.ingest_rejected_parse - before.ingest_rejected_parse;
    const double ingest_msgs_per_sec = static_cast<double>(burst) / ingest_wall;
    if (pushed_back != 0 || parse_errors != 0) {
        std::cerr << "error: ingest burst saw " << pushed_back << " backpressure / "
                  << parse_errors << " parse rejections\n";
        return 1;
    }
    svc.run_round(); // drain the burst so the final counters balance

    const std::string uarch = std::string(ml::simd::arch_name()) + "/" +
                              ml::simd::isa_name(ml::simd::active_isa());

    std::ostringstream json;
    json.precision(6);
    json << std::fixed;
    json << "{\n"
         << "  \"bench\": \"perf_service\",\n"
         << "  \"schema\": \"richnote-bench-v1\",\n"
         << "  \"params\": {\"train_users\": " << train_users << ", \"users\": " << users
         << ", \"rounds\": " << rounds << ", \"ingest_msgs\": " << burst
         << ", \"worker_threads\": " << threads << ", \"seed\": " << seed
         << ", \"trees\": " << trees << ", \"weekly_budget_mb\": " << budget_mb
         << ", \"uarch\": \"" << uarch << "\"},\n"
         << "  \"fleet\": {\"build_sec\": " << fleet_build_sec
         << ", \"brokers_per_sec\": "
         << (fleet_build_sec > 0 ? static_cast<double>(users) / fleet_build_sec : 0.0)
         << "},\n"
         << "  \"service\": {\"rounds_run\": " << rounds
         << ", \"wall_sec\": " << rounds_wall
         << ", \"service_rounds_per_sec\": " << service_rounds_per_sec
         << ", \"user_rounds_per_sec\": " << user_rounds_per_sec
         << ", \"active_users\": " << active_users
         << ", \"caught_up_rounds\": " << caught_up_rounds
         << ", \"publish_ms\": " << publish_ms
         << ", \"admitted\": " << after.admitted << "},\n"
         << "  \"ingest\": {\"messages\": " << burst
         << ", \"wall_sec\": " << ingest_wall
         << ", \"ingest_msgs_per_sec\": " << ingest_msgs_per_sec
         << ", \"accepted\": " << accepted << "}\n"
         << "}\n";

    if (cfg.has("json")) {
        const std::string path = cfg.get_string("json", "");
        std::ofstream out(path);
        out << json.str();
        std::cerr << "[perf] wrote " << path << '\n';
    } else {
        std::cout << json.str();
    }

    if (cfg.has("manifest")) {
        obs::run_manifest manifest("perf_service");
        manifest.set_seed(seed);
        manifest.add_config("train_users", static_cast<std::uint64_t>(train_users));
        manifest.add_config("users", static_cast<std::uint64_t>(users));
        manifest.add_config("rounds", rounds);
        manifest.add_config("ingest_msgs", static_cast<std::uint64_t>(burst));
        manifest.add_config("threads", static_cast<std::uint64_t>(threads));
        manifest.add_config("uarch", uarch);
        manifest.add_timing("fleet_build_sec", fleet_build_sec);
        manifest.add_timing("service_rounds_per_sec", service_rounds_per_sec);
        manifest.add_timing("user_rounds_per_sec", user_rounds_per_sec);
        manifest.add_timing("active_users", active_users);
        manifest.add_timing("caught_up_rounds", static_cast<double>(caught_up_rounds));
        manifest.add_timing("publish_ms", publish_ms);
        manifest.add_timing("ingest_msgs_per_sec", ingest_msgs_per_sec);
        manifest.write_file(cfg.get_string("manifest", ""));
        std::cerr << "[perf] wrote manifest to " << cfg.get_string("manifest", "") << '\n';
    }
    return 0;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
