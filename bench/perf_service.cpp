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
//  3. Publish: after every timed round, what the first `richnote serve`
//     scrape after a round renders — export_service_metrics over one
//     metrics().totals() fleet walk, then the Prometheus text render of
//     that registry (later scrapes in the same round reuse the walk).
//     Reports publish_ms, the median per round; it is timed apart from the
//     round itself, so service_rounds_per_sec stays the bare round loop.
//
//  4. Catch-up against lag: for each lag of 100, 1000 and 10000 rounds,
//     1000 fresh lagging brokers, spread over the fleet past the training
//     users, are caught up (untimed), the fleet idles exactly that many
//     rounds, and user_broker() then catches each of them up again, timed.
//     Reports catch_up_us_per_broker_lag_<lag>: the wall time per broker
//     of replaying exactly <lag> owed rounds. Below the skip threshold the
//     cost is linear in the lag; above it, flat.
//
// Fleet construction is timed separately (fleet.build_sec, at threads=)
// because elastic resharding pays it again on every reshard. After the
// phases, with that fleet torn down, the fleet is built twice more, on
// every hardware thread and then on one (round_engine builds on its worker
// pool): fleet.parallel_sec and fleet.sequential_sec, each with a checksum
// over every broker's initial state; the harness fails unless the two
// match.
//
// Output is machine-readable JSON on stdout (or json=PATH); scripts/bench.sh
// folds it into BENCH_perf.json as the "service" section and the gate
// regresses both throughput numbers and the publish time.
//
// Usage: perf_service [train_users=200] [users=1000000] [rounds=10]
//                     [ingest_msgs=200000] [threads=1] [seed=1] [trees=10]
//                     [budget=20] [queue=524288] [json=PATH] [manifest=PATH]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/parallel.hpp"
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

/// Phase 4: lagging brokers timed per lag, and the lags.
constexpr std::size_t catch_up_users = 1000;
constexpr std::uint64_t catch_up_lags[] = {100, 1000, 10000};

/// FNV-1a over every broker's initial state the service exposes: battery
/// level, data budget, energy credit, network state and round index.
std::uint64_t fleet_checksum(richnote::core::notification_service& svc) {
    using richnote::bench::fnv1a;
    std::uint64_t hash = richnote::bench::fnv1a_offset;
    for (std::size_t u = 0; u < svc.user_count(); ++u) {
        const auto& b = svc.user_broker(static_cast<richnote::trace::user_id>(u));
        hash = fnv1a(hash, b.battery().level());
        hash = fnv1a(hash, b.data_budget());
        hash = fnv1a(hash, b.sched().energy_credit_joules());
        hash = fnv1a(hash, static_cast<double>(b.network_state()));
        hash = fnv1a(hash, static_cast<double>(b.rounds_run()));
    }
    return hash;
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
    auto service = std::make_unique<core::notification_service>(setup, sp);
    core::notification_service& svc = *service;
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

    const std::size_t lagging = std::min(catch_up_users, users - std::min(users, train_users));
    const std::size_t lag_sets = std::size(catch_up_lags);
    const bool measure_catch_up = lagging > 0 && (users - train_users) / lagging >= lag_sets;
    if (!measure_catch_up)
        std::cerr << "[perf] users= leaves too few lagging brokers; catch-up not measured\n";

    // Phase 4: catch-up per touched broker against its lag (see the
    // header). Each lag has its own set of users, none touched before.
    std::vector<double> catch_up_us_per_broker(lag_sets, 0.0);
    if (measure_catch_up) {
        const std::size_t stride = (users - train_users) / lagging;
        for (std::size_t l = 0; l < lag_sets; ++l) {
            const auto user_at = [&](std::size_t i) {
                return static_cast<trace::user_id>(train_users + i * stride + l);
            };
            for (std::size_t i = 0; i < lagging; ++i) (void)svc.user_broker(user_at(i));
            svc.run_rounds(catch_up_lags[l]);
            const std::uint64_t owed_before = svc.counters().caught_up_rounds;
            const auto start = clock_type::now();
            for (std::size_t i = 0; i < lagging; ++i) (void)svc.user_broker(user_at(i));
            catch_up_us_per_broker[l] = seconds_since(start) * 1e6 / static_cast<double>(lagging);
            const std::uint64_t owed = svc.counters().caught_up_rounds - owed_before;
            if (owed != catch_up_lags[l] * lagging) {
                std::cerr << "error: lag " << catch_up_lags[l] << " replayed " << owed
                          << " rounds, not " << catch_up_lags[l] * lagging << "\n";
                return 1;
            }
            std::cerr << "[perf] lag " << catch_up_lags[l] << ": "
                      << catch_up_us_per_broker[l] << " us per caught-up broker\n";
        }
    }

    // The fleet build again, on every hardware thread and then on one, once
    // the run's fleet is gone: same brokers, bit for bit. Both builds reuse
    // pages the run's fleet touched, so neither pays the first touch that
    // fleet.build_sec includes.
    service.reset();
    const std::size_t build_threads = resolve_threads(0, users);
    double build_sec_all_threads = 0.0;
    double build_sec_one_thread = 0.0;
    std::uint64_t checksum_all_threads = 0;
    std::uint64_t checksum_one_thread = 0;
    for (const std::size_t t : {build_threads, std::size_t{1}}) {
        core::service_params at = sp;
        at.worker_threads = t;
        std::cerr << "[perf] rebuilding the fleet on " << t << " thread(s)...\n";
        const auto start = clock_type::now();
        core::notification_service built(setup, at);
        (t == 1 ? build_sec_one_thread : build_sec_all_threads) = seconds_since(start);
        (t == 1 ? checksum_one_thread : checksum_all_threads) = fleet_checksum(built);
    }
    if (checksum_all_threads != checksum_one_thread) {
        std::cerr << "error: the fleet built on " << build_threads
                  << " threads differs from the one built on one thread\n";
        return 1;
    }

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
         << ", \"sequential_sec\": " << build_sec_one_thread
         << ", \"parallel_sec\": " << build_sec_all_threads
         << ", \"threads\": " << build_threads
         << ", \"sequential_checksum\": " << richnote::bench::json_hex(checksum_one_thread)
         << ", \"parallel_checksum\": " << richnote::bench::json_hex(checksum_all_threads) << "},\n"
         << "  \"service\": {\"rounds_run\": " << rounds
         << ", \"wall_sec\": " << rounds_wall
         << ", \"service_rounds_per_sec\": " << service_rounds_per_sec
         << ", \"user_rounds_per_sec\": " << user_rounds_per_sec
         << ", \"active_users\": " << active_users
         << ", \"caught_up_rounds\": " << caught_up_rounds
         << ", \"publish_ms\": " << publish_ms;
    for (std::size_t l = 0; l < lag_sets; ++l)
        json << ", \"catch_up_us_per_broker_lag_" << catch_up_lags[l]
             << "\": " << catch_up_us_per_broker[l];
    json << ", \"admitted\": " << after.admitted << "},\n"
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
        manifest.add_timing("fleet_build_sec_one_thread", build_sec_one_thread);
        manifest.add_timing("fleet_build_sec_all_threads", build_sec_all_threads);
        manifest.add_timing("service_rounds_per_sec", service_rounds_per_sec);
        manifest.add_timing("user_rounds_per_sec", user_rounds_per_sec);
        manifest.add_timing("active_users", active_users);
        manifest.add_timing("caught_up_rounds", static_cast<double>(caught_up_rounds));
        manifest.add_timing("publish_ms", publish_ms);
        for (std::size_t l = 0; l < lag_sets; ++l)
            manifest.add_timing("catch_up_us_per_broker_lag_" + std::to_string(catch_up_lags[l]),
                                catch_up_us_per_broker[l]);
        manifest.add_timing("ingest_msgs_per_sec", ingest_msgs_per_sec);
        manifest.write_file(cfg.get_string("manifest", ""));
        std::cerr << "[perf] wrote manifest to " << cfg.get_string("manifest", "") << '\n';
    }
    return 0;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
