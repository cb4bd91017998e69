#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "core/round_engine.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/progress.hpp"

namespace richnote::core {

const char* to_string(scheduler_kind kind) noexcept {
    switch (kind) {
        case scheduler_kind::richnote: return "RichNote";
        case scheduler_kind::fifo: return "FIFO";
        case scheduler_kind::util: return "UTIL";
        case scheduler_kind::direct: return "Direct";
    }
    return "?";
}

experiment_setup::experiment_setup(const options& opts) : opts_(opts) {
    world_ = std::make_unique<trace::workload>(opts.workload, opts.seed);

    if (opts.oracle_utility) {
        model_ = std::make_shared<oracle_content_utility>(world_->clicks());
    } else if (!opts.model_file.empty()) {
        auto forest = std::make_shared<ml::random_forest>();
        forest->load_file(opts.model_file);
        model_ = std::make_shared<forest_content_utility>(std::move(forest));
    } else {
        ml::dataset full = make_training_set(world_->notifications());
        RICHNOTE_REQUIRE(!full.empty(), "trace produced no attended notifications");
        if (opts.max_training_rows > 0 && full.size() > opts.max_training_rows) {
            // Deterministic subsample keeps forest training tractable on
            // large traces without changing the learned signal much.
            const auto [train, rest] = full.train_test_split(
                1.0 - static_cast<double>(opts.max_training_rows) /
                          static_cast<double>(full.size()),
                opts.seed ^ 0xf0f0f0f0ULL);
            (void)rest;
            full = train;
        }
        auto forest = std::make_shared<ml::random_forest>();
        if (opts.calibrate_utility) {
            // Hold out 25% of the rows for calibration; train on the rest.
            const auto [train, held_out] =
                full.train_test_split(0.25, opts.seed ^ 0x5151ULL);
            forest->fit(train, opts.forest, opts.seed ^ 0xabcdef12ULL);
            std::vector<double> scores;
            std::vector<int> labels;
            scores.reserve(held_out.size());
            for (std::size_t r = 0; r < held_out.size(); ++r) {
                scores.push_back(forest->predict_proba(held_out.row(r)));
                labels.push_back(held_out.label(r));
            }
            ml::platt_calibrator calibrator;
            calibrator.fit(scores, labels);
            model_ = std::make_shared<calibrated_content_utility>(
                std::make_shared<forest_content_utility>(std::move(forest)),
                std::move(calibrator));
        } else {
            forest->fit(full, opts.forest, opts.seed ^ 0xabcdef12ULL);
            model_ = std::make_shared<forest_content_utility>(std::move(forest));
        }
    }
    cached_ = std::make_unique<cached_content_utility>(world_->notifications(), *model_,
                                                       opts.forest.fit_threads);
}

std::vector<std::uint64_t> experiment_setup::default_category_edges() const {
    // Quartile-ish edges over the per-user arrived counts.
    std::vector<double> counts;
    counts.reserve(world_->user_count());
    for (const auto& stream : world_->notifications().per_user)
        counts.push_back(static_cast<double>(stream.size()));
    std::sort(counts.begin(), counts.end());
    auto at = [&](double q) {
        return static_cast<std::uint64_t>(
            counts[static_cast<std::size_t>(q * static_cast<double>(counts.size() - 1))]);
    };
    std::vector<std::uint64_t> edges = {at(0.25), at(0.5), at(0.75)};
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

double round_budget_bytes(const experiment_params& params) noexcept {
    const double rounds_per_week = richnote::sim::weeks / params.round;
    return params.weekly_budget_mb * 1e6 / rounds_per_week;
}

std::unique_ptr<scheduler> make_scheduler(const experiment_params& params,
                                          const energy::energy_model& energy) {
    std::unique_ptr<scheduler> sched;
    switch (params.kind) {
        case scheduler_kind::richnote: {
            richnote_scheduler::params rp;
            rp.lyapunov = params.lyapunov;
            rp.mckp = params.mckp;
            rp.min_content_utility = params.min_content_utility;
            rp.utility_half_life_sec = params.utility_half_life_sec;
            rp.wifi_deferral_min_utility = params.wifi_deferral_min_utility;
            rp.wifi_deferral_max_wait_sec = params.wifi_deferral_max_wait_sec;
            sched = std::make_unique<richnote_scheduler>(rp, energy);
            break;
        }
        case scheduler_kind::fifo:
            sched = std::make_unique<fifo_scheduler>(params.fixed_level, energy);
            break;
        case scheduler_kind::util:
            sched = std::make_unique<util_scheduler>(params.fixed_level, energy);
            break;
        case scheduler_kind::direct: {
            direct_scheduler::params dp;
            dp.kappa_joules_per_round = params.lyapunov.kappa;
            dp.mckp = params.mckp;
            sched = std::make_unique<direct_scheduler>(dp, energy);
            break;
        }
    }
    sched->set_retry_policy(params.retry);
    return sched;
}

broker make_user_broker(const broker_build_context& ctx, trace::user_id u,
                        std::size_t expected_admissions) {
    const experiment_params& params = *ctx.params;
    auto sched = make_scheduler(params, *ctx.energy);

    broker_params bp;
    bp.budget_per_round_bytes = ctx.theta;
    bp.round = params.round;
    bp.energy_policy = params.energy_policy;
    bp.rollover_rounds = params.rollover_rounds;
    bp.transfer_failure_prob = params.transfer_failure_prob;
    bp.legacy_failure_accounting = params.legacy_failure_accounting;
    bp.faults = ctx.faults;
    bp.expected_admissions = expected_admissions;
    bp.trace = params.trace;
    bp.lifecycle = params.lifecycle;

    auto network = params.wifi_enabled
                       ? richnote::sim::markov_network_model::with_wifi()
                       : richnote::sim::markov_network_model::cellular_with_coverage(
                             params.cellular_coverage);
    // Per-user seeds derived by hashing (run seed, user id): broker
    // construction and stepping never touch shared randomness, the
    // precondition for the sharded round loop.
    const std::uint64_t user_seed = richnote::mix64(params.seed ^ (0x9e37ULL + u));
    richnote::rng battery_gen(richnote::mix64(user_seed ^ 0xbeefULL));
    std::unique_ptr<richnote::sim::battery_source> battery;
    if (params.battery_traces) {
        // Paper mode: replay a timestamped battery-status trace per user
        // (here synthesized once, then treated as an exogenous recording).
        battery = std::make_unique<richnote::sim::traced_battery>(
            richnote::sim::battery_trace::synthesize(params.battery, ctx.battery_horizon,
                                                     params.round, battery_gen));
    } else {
        battery = std::make_unique<richnote::sim::battery_model>(params.battery, battery_gen);
    }

    return broker(u, bp, std::move(sched), *ctx.generator, *ctx.utility, *ctx.energy,
                  std::move(network), std::move(battery), *ctx.catalog, *ctx.metrics,
                  user_seed);
}

experiment_result make_experiment_result(const experiment_setup& setup,
                                         const experiment_params& params,
                                         const metrics_recorder& metrics,
                                         const run_totals& totals,
                                         std::span<const broker> brokers,
                                         std::uint64_t rounds_run) {
    experiment_result r;
    r.scheduler_name = to_string(params.kind);
    if (params.kind == scheduler_kind::fifo || params.kind == scheduler_kind::util) {
        r.scheduler_name += "(L" + std::to_string(params.fixed_level) + ")";
    }
    r.weekly_budget_mb = params.weekly_budget_mb;
    r.delivery_ratio = totals.delivery_ratio();
    r.delivered_mb = totals.bytes_delivered / 1e6;
    r.metered_mb = totals.metered_bytes_delivered / 1e6;
    r.recall = totals.recall();
    r.precision = totals.precision();
    r.total_utility = totals.utility;
    r.utility_clicked = totals.utility_clicked;
    r.avg_utility = totals.average_utility_per_delivery();
    r.energy_kj = totals.energy_joules / 1000.0;
    r.mean_delay_min = totals.mean_queuing_delay_sec() / 60.0;
    r.level_mix = metrics.level_mix(totals);
    r.user_categories = metrics.utility_by_user_category(setup.default_category_edges());
    r.rounds_run = rounds_run;
    r.faults = totals.faults;
    double queue_total = 0.0;
    for (const auto& b : brokers) queue_total += static_cast<double>(b.sched().queue_size());
    r.final_queue_items = queue_total / static_cast<double>(brokers.size());
    return r;
}

std::unique_ptr<round_engine> replay_trace(const experiment_setup& setup,
                                          const experiment_params& params) {
    RICHNOTE_REQUIRE(params.worker_threads >= 1, "need at least one worker thread");
    const trace::workload& world = setup.world();
    auto engine = std::make_unique<round_engine>(
        setup, params, world.user_count(), params.worker_threads, setup.utility(),
        [&world](trace::user_id u) { return world.notifications().per_user[u].size(); });
    trace_cursor_source arrivals(world, params);

    // Live-progress publication (expo server / tests), between rounds on
    // the driver thread. Wall-clock throughput feeds only the live view,
    // never a deterministic output.
    const auto replay_start = std::chrono::steady_clock::now();
    auto publish_progress = [&](bool done) {
        richnote::obs::progress_snapshot snap;
        snap.round = engine->rounds_run();
        snap.total_rounds = arrivals.total_rounds();
        snap.users = world.user_count();
        snap.wall_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      replay_start)
                            .count();
        snap.rounds_per_sec =
            snap.wall_sec > 0.0 ? static_cast<double>(snap.round) / snap.wall_sec : 0.0;
        // A progress listener keeps every broker current (no deferral).
        for (const broker& b : engine->brokers()) {
            snap.queue_items_total += static_cast<double>(b.sched().queue_size());
            snap.queue_bytes_total += b.sched().queue_bytes();
            snap.energy_credit_joules_total += b.sched().energy_credit_joules();
        }
        const run_totals totals = engine->metrics().totals();
        fill_progress(totals, snap);
        snap.done = done;
        richnote::obs::metrics_registry live;
        export_metrics(totals, live);
        params.progress->on_round(snap, live);
    };

    for (std::uint64_t tick = 0; tick < arrivals.total_rounds(); ++tick) {
        engine->run_round(arrivals);
        if (params.progress != nullptr) publish_progress(false);
    }
    if (params.progress != nullptr) publish_progress(true);
    return engine;
}

experiment_result run_experiment(const experiment_setup& setup,
                                 const experiment_params& params) {
    const std::unique_ptr<round_engine> engine = replay_trace(setup, params);
    const run_totals totals = engine->metrics().totals();
    experiment_result r = make_experiment_result(setup, params, engine->metrics(), totals,
                                                 engine->brokers(), engine->rounds_run());
    r.trajectories = engine->trajectories();
    if (params.registry != nullptr) export_metrics(totals, *params.registry);
    return r;
}

} // namespace richnote::core
