// richnote — command-line front end to the library.
//
// Subcommands mirror the paper's pipeline so the whole system is drivable
// without writing C++:
//
//   richnote generate users=200 seed=1 out=trace.csv
//       Generate a synthetic Spotify-like workload and export it.
//   richnote train trace=trace.csv users=200 trees=30 out=model.forest
//       Build the §V-A training set from an exported trace, train the
//       Random Forest, report 5-fold CV, and save the model.
//   richnote simulate users=200 seed=1 scheduler=richnote budget_mb=10
//             [model=model.forest] [fixed_level=3] [wifi=true]
//       Run the trace-driven evaluation for one scheduler/budget and print
//       the §V-C metrics (the model defaults to training on the fly).
//   richnote sweep users=200 seed=1 budgets=1,5,20,100 [csv=out.csv]
//       The Fig. 3/4 budget sweep across RichNote/FIFO/UTIL in one table.
//   richnote trace-report trace=run.ndjson [top=10]
//       Aggregate a simulate run's NDJSON decision trace into per-event-
//       type percentile tables and per-user rollups.
//   richnote explain run.ndjson id=1234
//       Reconstruct one notification's full causal chain from a decision
//       trace — ingest, admission, every planned fidelity with its Eq. 7
//       term breakdown, every retry, the terminal outcome — deterministic
//       given the same trace bytes.
//   richnote evaluate scenario=flash_crowd seeds=32 users=200 threads=4
//       Multi-seed Monte-Carlo policy A/B (DESIGN.md §12): run every arm of
//       a scenario pack over N seeded replicas, report mean ± t-CI per
//       metric, and retire statistically dominated arms early. Reports are
//       byte-identical for any thread count.
//   richnote serve users=2000 fleet_users=100000 threads=4 port=8080
//       Long-lived service mode (DESIGN.md §11): train the model on a small
//       workload, stand up a broker fleet of fleet_users, and accept
//       NDJSON notifications over POST /ingest; rounds run on a timer
//       and/or via POST /round, POST /reshard resizes the worker pool
//       live, POST /shutdown exits cleanly.
//
// Live telemetry (DESIGN.md §10): simulate/sweep take expo_port=PORT to
// serve /metrics, /progress and /healthz while the run executes, and
// simulate takes profile=on (plus profile_trace= / profile_flame=) to
// sample the hot paths and export a Chrome trace / flamegraph.
//
// All arguments are key=value; `richnote help` prints this text.
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/service.hpp"
#include "core/wire.hpp"
#include "eval/report.hpp"
#include "eval/scenario.hpp"
#include "ml/metrics.hpp"
#include "ml/simd_dispatch.hpp"
#include "obs/expo_server.hpp"
#include "obs/lifecycle.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profile.hpp"
#include "obs/run_manifest.hpp"
#include "obs/span_export.hpp"
#include "obs/trace_report.hpp"
#include "obs/trace_sink.hpp"
#include "trace/generator.hpp"
#include "trace/stats.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace richnote;

void print_usage() {
    std::cout <<
        R"(richnote — adaptive rich-notification scheduling (ICDCS'16 reproduction)

subcommands:
  generate users=200 seed=1 out=trace.csv
  train    trace=trace.csv users=200 trees=30 folds=5 out=model.forest
  simulate users=200 seed=1 scheduler=richnote|fifo|util|direct
           budget_mb=10 [fixed_level=3] [wifi=false] [model=model.forest]
           [fault_intensity=0..1] [fault_seed=7] [retry_max=8]
           [retry_backoff_sec=0] [threads=1]
           [trace=run.ndjson] [metrics=metrics.json] [manifest=run.json]
           [expo_port=0] [profile=off] [profile_sample_every=16]
           [profile_trace=trace.json] [profile_flame=flame.txt]
  sweep    users=200 seed=1 budgets=1,5,20,100 [manifest=run.json]
           [expo_port=0]
  trace-report trace=run.ndjson [top=10]
  explain  <trace.ndjson> id=1234   (also: trace=run.ndjson id=1234)
  evaluate scenario=baseline|flash_crowd|regional_outage|battery_trace|cold_start
           users=200 seed=1 seeds=32 [base_seed=1000] [budget_mb=10] [trees=30]
           [arms=richnote,fifo,util] [objective=total_utility] [alpha=0.05]
           [min_samples=8] [early_stop=true] [threads=1] [wave=4]
           [json=report.json] [csv=report.csv] [trace=eval.ndjson]
           [metrics=metrics.json] [manifest=run.json] [expo_port=0]
  inspect  trace=trace.csv users=200 [top=10]
  serve    users=2000 seed=1 [fleet_users=0] [scheduler=richnote]
           [budget_mb=10] [threads=1] [port=0] [port_file=path]
           [queue_capacity=65536] [round_interval_ms=0] [max_rounds=0]
           [oracle=false] [trees=30] [trace=serve.ndjson]
  help

serve mode: POST /ingest accepts NDJSON notification lines (one JSON object
per line; 503 = backpressure, retry later), POST /round runs one service
round now, POST /reshard {"threads":K} (or a bare K, 1 <= K <= 256)
checkpoints every broker and resizes the worker pool losslessly, POST
/shutdown exits. GET /metrics, /progress and /healthz work as in simulate;
GET /exemplars returns the top-K worst end-to-end notification timelines
(JSON). fleet_users=0 serves the training workload's users; a larger value
synthesizes that many brokers. round_interval_ms=0 runs rounds only on POST
/round. trace= streams the per-notification lifecycle + decision NDJSON
(feed it to `richnote explain`); /metrics carries richnote.svc.*
stage-latency histograms and per-endpoint RED series either way.

evaluate mode: one experiment_setup (workload + trained model) is shared by
every arm; replica r of an arm runs at env seed base_seed+r, so arms are
compared under common random numbers. An arm whose confidence interval
falls below the leader's at level alpha is retired early (min_samples
floor); every stop decision is traced and exported via /metrics. The JSON/
CSV report carries the seed-set hash and is byte-identical for any
threads= value and across reruns.

live telemetry: expo_port starts an embedded HTTP server on 127.0.0.1
(0 = ephemeral) serving /metrics (Prometheus text), /progress (JSON) and
/healthz for the duration of the run. profile=on enables the runtime
sampling profiler; profile_trace/profile_flame write a Chrome trace-event
JSON / collapsed-stack flamegraph of the sampled spans (both imply
profile=on).
)";
}

trace::workload_params workload_params_from(const config& cfg) {
    trace::workload_params p;
    p.user_count = static_cast<std::size_t>(cfg.get_int("users", 200));
    return p;
}

int cmd_generate(const config& cfg) {
    cfg.restrict_to({"users", "seed", "out"});
    const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    const std::string out = cfg.get_string("out", "trace.csv");
    const trace::workload world(workload_params_from(cfg), seed);
    const auto rows = trace::save_trace(out, world.notifications());
    std::cout << "wrote " << rows << " notifications for " << world.user_count()
              << " users to " << out << "\n  attended: "
              << world.notifications().attended_count
              << ", clicked: " << world.notifications().clicked_count
              << "\n  pub/sub: " << world.pubsub().topic_count() << " topics, "
              << world.pubsub().subscription_count() << " subscriptions, "
              << world.pubsub().publications() << " publications\n";
    return 0;
}

int cmd_train(const config& cfg) {
    cfg.restrict_to({"trace", "users", "trees", "folds", "seed", "out"});
    const std::string trace_path = cfg.get_string("trace", "trace.csv");
    const auto users = static_cast<std::size_t>(cfg.get_int("users", 200));
    const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    const std::string out = cfg.get_string("out", "model.forest");

    const auto trace = trace::load_trace(trace_path, users);
    const ml::dataset data = core::make_training_set(trace);
    std::cout << "training set: " << data.size() << " attended notifications ("
              << format_double(100.0 * data.positive_fraction(), 1) << "% clicked)\n";

    ml::forest_params params;
    params.tree_count = static_cast<std::size_t>(cfg.get_int("trees", 30));
    const auto folds = static_cast<std::size_t>(cfg.get_int("folds", 5));
    const auto cv = ml::cross_validate_forest(data, params, folds, seed);
    std::cout << folds << "-fold CV: accuracy " << format_double(cv.mean_accuracy(), 3)
              << ", precision " << format_double(cv.mean_precision(), 3)
              << "  (paper: 0.689 / 0.700)\n";

    ml::random_forest forest;
    forest.fit(data, params, seed);
    forest.save_file(out);
    std::cout << "saved " << forest.tree_count() << "-tree model to " << out << '\n';
    return 0;
}

core::scheduler_kind parse_kind(const std::string& name) {
    if (name == "richnote") return core::scheduler_kind::richnote;
    if (name == "fifo") return core::scheduler_kind::fifo;
    if (name == "util") return core::scheduler_kind::util;
    if (name == "direct") return core::scheduler_kind::direct;
    RICHNOTE_REQUIRE(false, "unknown scheduler: " + name);
    return core::scheduler_kind::richnote; // unreachable
}

int cmd_simulate(const config& cfg) {
    cfg.restrict_to({"users", "seed", "scheduler", "budget_mb", "fixed_level", "wifi",
                     "model", "trees", "fault_intensity", "fault_seed", "retry_max",
                     "retry_backoff_sec", "threads", "trace", "metrics", "manifest",
                     "expo_port", "profile", "profile_sample_every", "profile_trace",
                     "profile_flame"});
    const auto started = std::chrono::steady_clock::now();
    core::experiment_setup::options opts;
    opts.workload = workload_params_from(cfg);
    opts.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    opts.forest.tree_count = static_cast<std::size_t>(cfg.get_int("trees", 30));
    opts.model_file = cfg.get_string("model", "");
    const core::experiment_setup setup(opts);

    core::experiment_params params;
    params.kind = parse_kind(cfg.get_string("scheduler", "richnote"));
    params.fixed_level = static_cast<core::level_t>(cfg.get_int("fixed_level", 3));
    params.weekly_budget_mb = cfg.get_double("budget_mb", 10.0);
    params.wifi_enabled = cfg.get_bool("wifi", false);
    params.seed = opts.seed;

    // fault_intensity scales a reference chaos schedule (all fault kinds at
    // once); 0 = off, 1 = the full reference probabilities.
    const double fault_intensity = cfg.get_double("fault_intensity", 0.0);
    if (fault_intensity > 0.0) {
        richnote::faults::fault_plan_params fp;
        fp.seed = static_cast<std::uint64_t>(cfg.get_int("fault_seed", 7));
        fp.blackout_prob = 0.05;
        fp.partial_transfer_prob = 0.10;
        fp.duplicate_prob = 0.05;
        fp.reorder_prob = 0.05;
        fp.brownout_prob = 0.03;
        fp.crash_restart_prob = 0.02;
        params.faults = fp.scaled(fault_intensity);
        params.retry.max_attempts = 8;
        params.retry.backoff_base_sec = 0.0;
    }
    params.retry.max_attempts =
        static_cast<std::uint64_t>(cfg.get_int("retry_max",
                                               static_cast<int>(params.retry.max_attempts)));
    params.retry.backoff_base_sec =
        cfg.get_double("retry_backoff_sec", params.retry.backoff_base_sec);
    params.worker_threads = static_cast<std::size_t>(cfg.get_int("threads", 1));

    // Optional observability outputs: an NDJSON decision trace (streamed
    // incrementally so a killed run keeps a valid prefix), a metrics
    // snapshot, and a run manifest (DESIGN.md §9).
    std::unique_ptr<obs::trace_sink> sink;
    if (cfg.has("trace")) {
        sink = std::make_unique<obs::trace_sink>(setup.world().user_count());
        sink->attach_file(cfg.get_string("trace", "run.ndjson"));
        params.trace = sink.get();
    }
    obs::metrics_registry registry;
    if (cfg.has("metrics")) params.registry = &registry;

    // Live exposition server: /metrics, /progress, /healthz during the run.
    std::unique_ptr<obs::expo_server> expo;
    if (cfg.has("expo_port")) {
        expo = std::make_unique<obs::expo_server>(
            static_cast<std::uint16_t>(cfg.get_int("expo_port", 0)));
        params.progress = expo.get();
        std::cerr << "[expo] serving http://127.0.0.1:" << expo->port()
                  << "/metrics during the run\n";
    }

    // Runtime sampling profiler: profile=on, or implied by either export.
    const bool profiling = cfg.get_bool("profile", false) ||
                           cfg.has("profile_trace") || cfg.has("profile_flame");
    if (profiling) {
        obs::profile_config pc;
        pc.sample_every =
            static_cast<std::uint32_t>(cfg.get_int("profile_sample_every", 16));
        obs::profile_configure(pc);
        obs::profile_reset();
        obs::profile_set_enabled(true);
    }

    const auto r = core::run_experiment(setup, params);

    std::vector<obs::span_record> spans;
    if (profiling) {
        obs::profile_set_enabled(false);
        obs::profile_drain(spans);
        std::cerr << "[profile] " << spans.size() << " sampled spans";
        if (const auto dropped = obs::profile_dropped(); dropped > 0)
            std::cerr << " (" << dropped << " dropped)";
        std::cerr << '\n';
    }
    if (cfg.has("profile_trace")) {
        const std::string path = cfg.get_string("profile_trace", "profile_trace.json");
        std::ofstream out(path);
        RICHNOTE_REQUIRE(out.good(), "cannot open profile trace output: " + path);
        obs::write_chrome_trace(spans, out);
        std::cerr << "[profile] wrote Chrome trace to " << path << '\n';
    }
    if (cfg.has("profile_flame")) {
        const std::string path = cfg.get_string("profile_flame", "profile_flame.txt");
        std::ofstream out(path);
        RICHNOTE_REQUIRE(out.good(), "cannot open flamegraph output: " + path);
        obs::write_collapsed_stacks(spans, out);
        std::cerr << "[profile] wrote collapsed stacks to " << path << '\n';
    }

    if (sink) {
        sink->finalize();
        std::cerr << "[trace] wrote " << sink->event_count() << " events to "
                  << cfg.get_string("trace", "run.ndjson") << '\n';
    }
    if (cfg.has("metrics")) {
        const std::string path = cfg.get_string("metrics", "metrics.json");
        std::ofstream out(path);
        RICHNOTE_REQUIRE(out.good(), "cannot open metrics output: " + path);
        // Hot-path timing totals ride along whenever the run profiled;
        // with the profiler idle profile_export adds nothing.
        obs::profile_export(registry);
        registry.write_json(out);
        std::cerr << "[metrics] wrote " << path << '\n';
    }
    if (cfg.has("manifest")) {
        obs::run_manifest manifest("richnote_cli.simulate");
        manifest.set_seed(opts.seed);
        manifest.add_config("users", static_cast<std::uint64_t>(opts.workload.user_count));
        manifest.add_config("scheduler", cfg.get_string("scheduler", "richnote"));
        manifest.add_config("budget_mb", params.weekly_budget_mb);
        manifest.add_config("trees", static_cast<std::uint64_t>(opts.forest.tree_count));
        manifest.add_config("threads", static_cast<std::uint64_t>(params.worker_threads));
        manifest.add_config("fault_intensity", fault_intensity);
        manifest.add_timing("wall_sec",
                            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                          started)
                                .count());
        manifest.add_timing("rounds_run", static_cast<double>(r.rounds_run));
        const std::string path = cfg.get_string("manifest", "run.json");
        manifest.write_file(path);
        std::cerr << "[manifest] wrote " << path << '\n';
    }

    table t({"metric", "value"});
    t.add_row({"scheduler", r.scheduler_name});
    t.add_row({"weekly budget (MB)", format_double(r.weekly_budget_mb, 1)});
    t.add_row({"delivery ratio", format_double(r.delivery_ratio, 4)});
    t.add_row({"delivered (MB)", format_double(r.delivered_mb, 1)});
    t.add_row({"metered (MB)", format_double(r.metered_mb, 1)});
    t.add_row({"recall", format_double(r.recall, 4)});
    t.add_row({"precision", format_double(r.precision, 4)});
    t.add_row({"total utility", format_double(r.total_utility, 1)});
    t.add_row({"avg utility / delivery", format_double(r.avg_utility, 4)});
    t.add_row({"energy (KJ)", format_double(r.energy_kj, 1)});
    t.add_row({"mean queuing delay (min)", format_double(r.mean_delay_min, 1)});
    if (fault_intensity > 0.0) {
        t.add_row({"fault rounds", std::to_string(r.faults.faults_injected)});
        t.add_row({"transfer retries", std::to_string(r.faults.transfer_retries)});
        t.add_row({"dead-lettered", std::to_string(r.faults.dead_lettered)});
        t.add_row({"duplicates suppressed", std::to_string(r.faults.duplicates_suppressed)});
        t.add_row({"crash restarts", std::to_string(r.faults.crash_restarts)});
        t.add_row({"partial MB", format_double(r.faults.partial_bytes / 1e6, 2)});
        t.add_row({"resumed MB", format_double(r.faults.resumed_bytes / 1e6, 2)});
    }
    std::cout << t;
    return 0;
}

int cmd_inspect(const config& cfg) {
    cfg.restrict_to({"trace", "users", "top"});
    const std::string trace_path = cfg.get_string("trace", "trace.csv");
    const auto users = static_cast<std::size_t>(cfg.get_int("users", 200));
    const auto top = static_cast<std::size_t>(cfg.get_int("top", 10));

    const auto trace = trace::load_trace(trace_path, users);
    const auto stats = trace::analyze(trace);

    table t({"statistic", "value"});
    t.add_row({"notifications", std::to_string(stats.total)});
    t.add_row({"users (active/total)", std::to_string(stats.active_users) + " / " +
                                           std::to_string(stats.users)});
    t.add_row({"items/user mean | p50 | p90 | max",
               format_double(stats.items_per_user_mean, 1) + " | " +
                   format_double(stats.items_per_user_p50, 0) + " | " +
                   format_double(stats.items_per_user_p90, 0) + " | " +
                   format_double(stats.items_per_user_max, 0)});
    t.add_row({"friend_feed share",
               format_double(stats.type_fraction(trace::notification_type::friend_feed), 3)});
    t.add_row({"album_release share",
               format_double(stats.type_fraction(trace::notification_type::album_release), 3)});
    t.add_row({"playlist_update share",
               format_double(stats.type_fraction(trace::notification_type::playlist_update), 3)});
    t.add_row({"attention rate", format_double(stats.attention_rate, 3)});
    t.add_row({"click-through (of attended)", format_double(stats.click_through_rate, 3)});
    t.add_row({"weekend share", format_double(stats.weekend_fraction, 3)});
    t.add_row({"trace span (days)", format_double(stats.span / sim::days, 2)});
    t.add_row({"mean social tie", format_double(stats.social_tie_mean, 3)});
    t.add_row({"mean track popularity", format_double(stats.track_popularity_mean, 1)});
    std::cout << t;

    std::cout << "\ntop " << top << " users by load:";
    for (const auto u : trace::heaviest_users(trace, top)) {
        std::cout << ' ' << u << '(' << trace.per_user[u].size() << ')';
    }
    std::cout << "\n\nhourly arrival shares (00..23):\n";
    for (std::size_t h = 0; h < 24; ++h) {
        std::cout << format_double(stats.hourly_fraction[h], 3)
                  << (h % 8 == 7 ? '\n' : ' ');
    }
    return 0;
}

int cmd_trace_report(const config& cfg) {
    cfg.restrict_to({"trace", "top"});
    const std::string path = cfg.get_string("trace", "run.ndjson");
    std::ifstream in(path);
    RICHNOTE_REQUIRE(in.good(), "cannot open trace file: " + path);
    const auto top = static_cast<std::size_t>(cfg.get_int("top", 10));
    const obs::trace_report report = obs::build_trace_report(in, top);
    obs::write_trace_report(report, std::cout);
    return 0;
}

int cmd_explain(const config& cfg) {
    cfg.restrict_to({"trace", "id"});
    RICHNOTE_REQUIRE(cfg.has("id"), "explain needs id=<notification id>");
    const std::string path = cfg.get_string("trace", "run.ndjson");
    const auto id = static_cast<std::uint64_t>(cfg.get_int("id", 0));
    std::ifstream in(path);
    RICHNOTE_REQUIRE(in.good(), "cannot open trace file: " + path);
    return obs::write_explain(in, id, std::cout) ? 0 : 1;
}

int cmd_sweep(const config& cfg) {
    cfg.restrict_to({"users", "seed", "budgets", "trees", "csv", "manifest",
                     "expo_port"});
    const auto started = std::chrono::steady_clock::now();
    core::experiment_setup::options opts;
    opts.workload = workload_params_from(cfg);
    opts.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    opts.forest.tree_count = static_cast<std::size_t>(cfg.get_int("trees", 30));
    const core::experiment_setup setup(opts);

    const std::vector<double> budgets = cfg.get_double_list("budgets", {1, 5, 20, 100});

    std::unique_ptr<obs::expo_server> expo;
    if (cfg.has("expo_port")) {
        expo = std::make_unique<obs::expo_server>(
            static_cast<std::uint16_t>(cfg.get_int("expo_port", 0)));
        std::cerr << "[expo] serving http://127.0.0.1:" << expo->port()
                  << "/metrics during the sweep\n";
    }

    table t({"budget(MB)", "scheduler", "delivery%", "recall", "precision", "utility",
             "delay(min)"});
    for (double budget : budgets) {
        for (auto kind : {core::scheduler_kind::richnote, core::scheduler_kind::fifo,
                          core::scheduler_kind::util}) {
            core::experiment_params params;
            params.kind = kind;
            params.fixed_level = 3;
            params.weekly_budget_mb = budget;
            params.seed = opts.seed;
            params.progress = expo.get();
            const auto r = core::run_experiment(setup, params);
            t.add_row({format_double(budget, 0), r.scheduler_name,
                       format_double(100.0 * r.delivery_ratio, 1),
                       format_double(r.recall, 3), format_double(r.precision, 3),
                       format_double(r.total_utility, 1),
                       format_double(r.mean_delay_min, 1)});
        }
    }
    std::cout << t;

    if (cfg.has("manifest")) {
        obs::run_manifest manifest("richnote_cli.sweep");
        manifest.set_seed(opts.seed);
        manifest.add_config("users", static_cast<std::uint64_t>(opts.workload.user_count));
        manifest.add_config("trees", static_cast<std::uint64_t>(opts.forest.tree_count));
        std::string list;
        for (double b : budgets) {
            if (!list.empty()) list += ',';
            list += std::to_string(b);
        }
        manifest.add_config("budgets_mb", list);
        manifest.add_timing("wall_sec",
                            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                          started)
                                .count());
        const std::string path = cfg.get_string("manifest", "run.json");
        manifest.write_file(path);
        std::cerr << "[manifest] wrote " << path << '\n';
    }
    return 0;
}

int cmd_evaluate(const config& cfg) {
    cfg.restrict_to({"scenario", "users", "seed", "trees", "budget_mb", "seeds",
                     "base_seed", "alpha", "min_samples", "objective", "maximize",
                     "early_stop", "threads", "wave", "arms", "json", "csv", "trace",
                     "metrics", "manifest", "expo_port"});
    const auto started = std::chrono::steady_clock::now();

    eval::scenario_request req;
    req.users = static_cast<std::size_t>(cfg.get_int("users", 200));
    req.setup_seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    req.trees = static_cast<std::size_t>(cfg.get_int("trees", 30));
    req.budget_mb = cfg.get_double("budget_mb", 10.0);
    const std::string scenario = cfg.get_string("scenario", "baseline");
    const eval::scenario_pack pack = eval::make_scenario(scenario, req);

    eval::eval_params ep;
    ep.arms = pack.arms;
    if (cfg.has("arms")) {
        // Subset/reorder the pack's arms; unknown names are a named error.
        std::vector<eval::arm_spec> picked;
        for (const std::string& name : cfg.get_string_list("arms", {})) {
            bool found = false;
            for (const auto& arm : pack.arms) {
                if (arm.name == name) {
                    picked.push_back(arm);
                    found = true;
                    break;
                }
            }
            std::string known;
            for (const auto& arm : pack.arms) {
                if (!known.empty()) known += ", ";
                known += arm.name;
            }
            RICHNOTE_REQUIRE(found, "unknown arm '" + name + "' for scenario " +
                                        scenario + " (known: " + known + ")");
        }
        ep.arms = std::move(picked);
    }
    ep.seeds = static_cast<std::size_t>(cfg.get_int("seeds", 32));
    ep.base_seed = static_cast<std::uint64_t>(cfg.get_int("base_seed", 1000));
    ep.objective = cfg.get_string("objective", "total_utility");
    // Energy and delay objectives race downward unless told otherwise.
    const bool minimize_default =
        ep.objective == "energy_kj" || ep.objective == "mean_delay_min";
    ep.maximize = cfg.get_bool("maximize", !minimize_default);
    ep.alpha = cfg.get_double("alpha", 0.05);
    ep.min_samples = static_cast<std::size_t>(cfg.get_int("min_samples", 8));
    ep.early_stopping = cfg.get_bool("early_stop", true);
    ep.worker_threads = static_cast<std::size_t>(cfg.get_int("threads", 1));
    ep.seeds_per_wave = static_cast<std::size_t>(cfg.get_int("wave", 4));

    std::cerr << "[evaluate] scenario " << pack.name << ": " << pack.description
              << "\n[evaluate] " << ep.arms.size() << " arms x " << ep.seeds
              << " seeds, alpha " << ep.alpha << ", objective " << ep.objective
              << (ep.maximize ? " (max)" : " (min)") << ", threads "
              << ep.worker_threads << '\n';
    const core::experiment_setup setup(pack.setup);

    std::unique_ptr<obs::trace_sink> sink;
    if (cfg.has("trace")) {
        sink = std::make_unique<obs::trace_sink>(ep.arms.size());
        sink->attach_file(cfg.get_string("trace", "eval.ndjson"));
        ep.trace = sink.get();
    }
    obs::metrics_registry registry;
    ep.registry = &registry;
    std::unique_ptr<obs::expo_server> expo;
    if (cfg.has("expo_port")) {
        expo = std::make_unique<obs::expo_server>(
            static_cast<std::uint16_t>(cfg.get_int("expo_port", 0)));
        ep.progress = expo.get();
        std::cerr << "[expo] serving http://127.0.0.1:" << expo->port()
                  << "/metrics during the evaluation\n";
    }

    const eval::eval_result result = eval::run_evaluation(setup, ep);

    eval::report_options ropts;
    ropts.scenario = pack.name;
    if (cfg.has("json")) {
        const std::string path = cfg.get_string("json", "report.json");
        std::ofstream out(path);
        RICHNOTE_REQUIRE(out.good(), "cannot open report output: " + path);
        eval::write_eval_json(result, ropts, out);
        std::cerr << "[evaluate] wrote JSON report to " << path << '\n';
    }
    if (cfg.has("csv")) {
        const std::string path = cfg.get_string("csv", "report.csv");
        std::ofstream out(path);
        RICHNOTE_REQUIRE(out.good(), "cannot open report output: " + path);
        eval::write_eval_csv(result, ropts, out);
        std::cerr << "[evaluate] wrote CSV report to " << path << '\n';
    }
    if (sink) {
        sink->finalize();
        std::cerr << "[trace] wrote " << sink->event_count() << " events to "
                  << cfg.get_string("trace", "eval.ndjson") << '\n';
    }
    if (cfg.has("metrics")) {
        const std::string path = cfg.get_string("metrics", "metrics.json");
        std::ofstream out(path);
        RICHNOTE_REQUIRE(out.good(), "cannot open metrics output: " + path);
        registry.write_json(out);
        std::cerr << "[metrics] wrote " << path << '\n';
    }
    if (cfg.has("manifest")) {
        obs::run_manifest manifest("richnote_cli.evaluate");
        manifest.set_seed(req.setup_seed);
        manifest.add_config("scenario", pack.name);
        manifest.add_config("users", static_cast<std::uint64_t>(req.users));
        manifest.add_config("trees", static_cast<std::uint64_t>(req.trees));
        manifest.add_config("budget_mb", req.budget_mb);
        manifest.add_config("seeds", static_cast<std::uint64_t>(ep.seeds));
        manifest.add_config("base_seed", ep.base_seed);
        manifest.add_config("alpha", ep.alpha);
        manifest.add_config("min_samples", static_cast<std::uint64_t>(ep.min_samples));
        manifest.add_config("objective", ep.objective);
        manifest.add_config("threads", static_cast<std::uint64_t>(ep.worker_threads));
        manifest.add_config("seed_set_hash", eval::hex64(result.seed_set_hash));
        manifest.add_timing("wall_sec",
                            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                          started)
                                .count());
        manifest.add_timing("replicas_executed",
                            static_cast<double>(result.replicas_executed));
        const std::string path = cfg.get_string("manifest", "run.json");
        manifest.write_file(path);
        std::cerr << "[manifest] wrote " << path << '\n';
    }

    table t({"arm", "n", ep.objective,
             format_double(100.0 * (1.0 - ep.alpha), 0) + "% CI", "status"});
    for (std::size_t k = 0; k < result.arms.size(); ++k) {
        const auto& arm = result.arms[k];
        const auto& acc = arm.metrics[eval::metric_index(ep.objective)];
        const auto ci = result.objective_ci(k);
        std::string status;
        if (k == result.leader) {
            status = "leader";
        } else if (arm.retired) {
            status = "retired@" + std::to_string(arm.retired_after) + " by " +
                     result.arms[arm.retired_by].name;
        }
        const std::string interval =
            acc.count() >= 2 ? "[" + format_double(ci.lo, 1) + ", " +
                                   format_double(ci.hi, 1) + "]"
                             : "-";
        t.add_row({arm.name, std::to_string(acc.count()),
                   format_double(acc.mean(), 1), interval, status});
    }
    std::cout << t;
    std::cout << "replicas: " << result.replicas_used << " used / "
              << result.replicas_executed << " executed of "
              << ep.arms.size() * ep.seeds << " budgeted; seed set "
              << eval::hex64(result.seed_set_hash) << '\n';
    return 0;
}

int cmd_serve(const config& cfg) {
    cfg.restrict_to({"users", "fleet_users", "seed", "scheduler", "budget_mb",
                     "fixed_level", "wifi", "trees", "threads", "port", "port_file",
                     "queue_capacity", "round_interval_ms", "max_rounds", "oracle",
                     "trace"});
    core::experiment_setup::options opts;
    opts.workload = workload_params_from(cfg);
    opts.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    opts.forest.tree_count = static_cast<std::size_t>(cfg.get_int("trees", 30));
    opts.oracle_utility = cfg.get_bool("oracle", false);
    const core::experiment_setup setup(opts);

    core::service_params sp;
    sp.experiment.kind = parse_kind(cfg.get_string("scheduler", "richnote"));
    sp.experiment.fixed_level = static_cast<core::level_t>(cfg.get_int("fixed_level", 3));
    sp.experiment.weekly_budget_mb = cfg.get_double("budget_mb", 10.0);
    sp.experiment.wifi_enabled = cfg.get_bool("wifi", false);
    sp.experiment.seed = opts.seed;
    sp.user_count = static_cast<std::size_t>(cfg.get_int("fleet_users", 0));
    sp.worker_threads = static_cast<std::size_t>(cfg.get_int("threads", 1));
    sp.queue_capacity = static_cast<std::size_t>(cfg.get_int("queue_capacity", 65536));

    // Lifecycle observability (DESIGN.md §13): the wall-clock tracker (stage
    // histograms + slow exemplars) is always on in service mode; the
    // deterministic NDJSON plane streams only when trace= names a file.
    const std::size_t fleet_users =
        sp.user_count == 0 ? setup.world().user_count() : sp.user_count;
    std::unique_ptr<obs::trace_sink> sink;
    if (cfg.has("trace")) {
        sink = std::make_unique<obs::trace_sink>(fleet_users);
        sink->attach_file(cfg.get_string("trace", "serve.ndjson"));
        sp.experiment.trace = sink.get();
    }
    obs::lifecycle_tracker lifecycle;
    obs::red_recorder red;
    sp.experiment.lifecycle = &lifecycle;
    core::notification_service service(setup, sp);

    obs::expo_server expo(static_cast<std::uint16_t>(cfg.get_int("port", 0)));
    expo.set_uarch(std::string(ml::simd::arch_name()) + "/" +
                   ml::simd::isa_name(ml::simd::active_isa()));

    // All service driving — timer rounds, POST /round, POST /reshard — is
    // serialized by one mutex; the pool's slot 0 simply runs on whichever
    // thread holds it.
    std::mutex service_mutex;
    std::atomic_bool shutdown{false};
    const auto started = std::chrono::steady_clock::now();

    // One publish is one fleet walk: /metrics and /progress read the same
    // totals, so their delivery and fault counts always agree.
    auto publish = [&] {
        const core::service_counters c = service.counters();
        const core::run_totals totals = service.metrics().totals();
        obs::metrics_registry registry;
        service.export_service_metrics(totals, registry);
        red.export_metrics(registry);
        expo.publish_metrics(registry);
        expo.publish_document("/exemplars", "application/json",
                              lifecycle.exemplars_json());
        obs::progress_snapshot snap;
        snap.round = c.rounds_run;
        snap.total_rounds = static_cast<std::uint64_t>(cfg.get_int("max_rounds", 0));
        snap.users = c.users;
        snap.wall_sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                .count();
        snap.rounds_per_sec =
            snap.wall_sec > 0.0 ? static_cast<double>(c.rounds_run) / snap.wall_sec : 0.0;
        core::fill_progress(totals, snap);
        expo.publish_progress(snap);
    };

    // RED instrumentation: every mounted endpoint reports rate / errors
    // (5xx) / duration into the {endpoint=...}-labeled richnote.svc.http.*
    // series. Timing wraps the handler itself, not the socket I/O.
    auto timed = [&red](const char* endpoint, obs::expo_server::post_handler fn) {
        return [&red, endpoint,
                fn = std::move(fn)](const std::string& body) -> obs::expo_server::post_result {
            const auto t0 = std::chrono::steady_clock::now();
            obs::expo_server::post_result result = fn(body);
            red.observe(endpoint, result.status,
                        std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
            return result;
        };
    };

    expo.set_post_handler("/ingest", timed("ingest", [&](const std::string& body) {
        std::uint64_t accepted = 0, parse_errors = 0, unknown_user = 0, backpressure = 0;
        std::size_t pos = 0;
        while (pos < body.size()) {
            std::size_t eol = body.find('\n', pos);
            if (eol == std::string::npos) eol = body.size();
            const std::string_view line(body.data() + pos, eol - pos);
            pos = eol + 1;
            if (line.empty()) continue;
            switch (service.ingest_line(line)) {
                case core::notification_service::ingest_status::accepted: ++accepted; break;
                case core::notification_service::ingest_status::parse_error:
                    ++parse_errors;
                    break;
                case core::notification_service::ingest_status::unknown_user:
                    ++unknown_user;
                    break;
                case core::notification_service::ingest_status::backpressure:
                    ++backpressure;
                    break;
            }
        }
        std::string reply = "{\"accepted\":" + std::to_string(accepted) +
                            ",\"parse_errors\":" + std::to_string(parse_errors) +
                            ",\"unknown_user\":" + std::to_string(unknown_user) +
                            ",\"backpressure\":" + std::to_string(backpressure) + "}\n";
        const int status = backpressure > 0              ? 503
                           : parse_errors + unknown_user > 0 ? 400
                                                             : 200;
        return obs::expo_server::post_result{status, std::move(reply)};
    }));
    expo.set_post_handler("/round", timed("round", [&](const std::string&) {
        std::lock_guard<std::mutex> lock(service_mutex);
        service.run_round();
        publish();
        return obs::expo_server::post_result{
            200, "{\"rounds_run\":" + std::to_string(service.rounds_run()) + "}\n"};
    }));
    expo.set_post_handler("/reshard", timed("reshard", [&](const std::string& body) {
        // A bare decimal integer or {"threads":K}; anything else is 400.
        std::uint64_t threads = 0;
        std::string error;
        if (!core::parse_thread_count(body, threads, &error)) {
            return obs::expo_server::post_result{400, "{\"error\":\"" + error + "\"}\n"};
        }
        if (threads < 1 || threads > core::worker_pool::max_threads) {
            return obs::expo_server::post_result{
                400, "{\"error\":\"threads out of range\",\"max\":" +
                         std::to_string(core::worker_pool::max_threads) + "}\n"};
        }
        std::lock_guard<std::mutex> lock(service_mutex);
        service.reshard(static_cast<std::size_t>(threads));
        const core::service_counters c = service.counters();
        return obs::expo_server::post_result{
            200, "{\"worker_threads\":" + std::to_string(c.worker_threads) +
                     ",\"reshards\":" + std::to_string(c.reshards) + "}\n"};
    }));
    expo.set_post_handler("/shutdown", [&](const std::string&) {
        shutdown.store(true);
        return obs::expo_server::post_result{200, "{\"status\":\"shutting down\"}\n"};
    });

    {
        std::lock_guard<std::mutex> lock(service_mutex);
        publish(); // /metrics and /progress valid before the first round
    }
    std::cerr << "[serve] http://127.0.0.1:" << expo.port()
              << " — POST /ingest /round /reshard /shutdown; GET /metrics /progress"
                 " /healthz /exemplars\n";
    if (cfg.has("port_file")) {
        const std::string path = cfg.get_string("port_file", "serve.port");
        std::ofstream pf(path);
        RICHNOTE_REQUIRE(pf.good(), "cannot open port file: " + path);
        pf << expo.port() << '\n';
        RICHNOTE_REQUIRE(pf.good(), "cannot write port file: " + path);
    }

    const auto interval_ms = cfg.get_int("round_interval_ms", 0);
    const auto max_rounds = static_cast<std::uint64_t>(cfg.get_int("max_rounds", 0));
    auto next_round = std::chrono::steady_clock::now() + std::chrono::milliseconds(interval_ms);
    while (!shutdown.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::uint64_t rounds_now = 0;
        if (interval_ms > 0 && std::chrono::steady_clock::now() >= next_round) {
            std::lock_guard<std::mutex> lock(service_mutex);
            service.run_round();
            publish();
            rounds_now = service.rounds_run();
            next_round += std::chrono::milliseconds(interval_ms);
        } else {
            std::lock_guard<std::mutex> lock(service_mutex);
            rounds_now = service.rounds_run();
        }
        if (max_rounds > 0 && rounds_now >= max_rounds) break;
    }

    std::lock_guard<std::mutex> lock(service_mutex);
    publish();
    if (sink) {
        sink->finalize();
        std::cerr << "[trace] wrote " << sink->event_count() << " events to "
                  << cfg.get_string("trace", "serve.ndjson") << '\n';
    }
    const core::service_counters c = service.counters();
    const auto r = service.summarize();
    table t({"metric", "value"});
    t.add_row({"rounds run", std::to_string(c.rounds_run)});
    t.add_row({"users", std::to_string(c.users)});
    t.add_row({"worker threads", std::to_string(c.worker_threads)});
    t.add_row({"reshards", std::to_string(c.reshards)});
    t.add_row({"ingest accepted", std::to_string(c.ingest_accepted)});
    t.add_row({"ingest rejected (parse)", std::to_string(c.ingest_rejected_parse)});
    t.add_row({"ingest rejected (user)", std::to_string(c.ingest_rejected_user)});
    t.add_row({"ingest rejected (backpressure)",
               std::to_string(c.ingest_rejected_backpressure)});
    t.add_row({"admitted", std::to_string(c.admitted)});
    t.add_row({"still pending", std::to_string(c.pending)});
    t.add_row({"delivery ratio", format_double(r.delivery_ratio, 4)});
    t.add_row({"total utility", format_double(r.total_utility, 1)});
    std::cout << t;
    return 0;
}

} // namespace

int main(int argc, char** argv) try {
    if (argc < 2 || std::string(argv[1]) == "help" || std::string(argv[1]) == "--help") {
        print_usage();
        return argc < 2 ? 1 : 0;
    }
    const std::string command = argv[1];
    if (command == "explain") {
        // `explain` takes the trace path as a bare positional argument
        // (richnote explain run.ndjson id=7); fold it into trace= before
        // the key=value parser sees it.
        config ecfg;
        for (int i = 2; i < argc; ++i) {
            const std::string token = argv[i];
            const auto eq = token.find('=');
            if (eq == std::string::npos) {
                ecfg.set("trace", token);
            } else {
                ecfg.set(token.substr(0, eq), token.substr(eq + 1));
            }
        }
        return cmd_explain(ecfg);
    }
    const config cfg = config::from_args(argc - 1, argv + 1);
    if (command == "generate") return cmd_generate(cfg);
    if (command == "train") return cmd_train(cfg);
    if (command == "simulate") return cmd_simulate(cfg);
    if (command == "sweep") return cmd_sweep(cfg);
    if (command == "trace-report") return cmd_trace_report(cfg);
    if (command == "evaluate") return cmd_evaluate(cfg);
    if (command == "inspect") return cmd_inspect(cfg);
    if (command == "serve") return cmd_serve(cfg);
    std::cerr << "error: unknown subcommand: " << command
              << " (run `richnote help` for the command list)\n";
    return 1;
} catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}
