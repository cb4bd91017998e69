#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/worker_pool.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/progress.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"

namespace richnote::core {

using richnote::sim::sim_time;

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
    cached_ = std::make_unique<cached_content_utility>(world_->notifications(), *model_);
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
                                         const std::vector<broker>& brokers,
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

experiment_result run_experiment(const experiment_setup& setup,
                                 const experiment_params& params) {
    RICHNOTE_REQUIRE(params.weekly_budget_mb > 0, "budget must be positive");
    const trace::workload& world = setup.world();
    RICHNOTE_REQUIRE(params.trace == nullptr ||
                         params.trace->user_count() >= world.user_count(),
                     "trace sink is sized for fewer users than the workload");

    const audio_preview_generator base_generator(params.presentation);
    // Pre-generate the presentation set of every distinct track duration:
    // admission then pays a hash lookup + copy instead of re-running
    // candidate generation and Pareto pruning per notification.
    std::vector<double> track_durations;
    track_durations.reserve(world.catalog().track_count());
    for (const auto& t : world.catalog().tracks()) track_durations.push_back(t.duration_sec);
    const memoized_presentation_generator generator(base_generator, track_durations);
    const energy::energy_model energy;

    // theta: the per-round slice of the weekly budget (§V-C "budget per
    // week" with 1-hour rounds).
    const double theta = round_budget_bytes(params);

    const std::size_t max_level = params.presentation.preview_durations_sec.size() + 1;
    metrics_recorder metrics(world.user_count(), max_level);

    // Online-learning mode replaces the offline-trained utility model with
    // a cold-start learner fed from delivery feedback at round boundaries.
    std::unique_ptr<online_content_utility> online_model;
    if (params.online_learning) {
        auto online_params = params.online;
        online_params.seed ^= params.seed;
        online_model = std::make_unique<online_content_utility>(online_params);
    }
    const content_utility_model& utility_model =
        online_model ? static_cast<const content_utility_model&>(*online_model)
                     : setup.utility();

    // Deterministic fault schedule shared (read-only) by every broker; an
    // all-zero plan is inert and the brokers get no pointer at all, so the
    // default run takes exactly the historical code paths.
    const richnote::faults::fault_plan fault_schedule(params.faults);
    const richnote::faults::fault_plan* fplan =
        fault_schedule.enabled() ? &fault_schedule : nullptr;

    // Build one broker per user (shared construction path with the service).
    broker_build_context ctx;
    ctx.params = &params;
    ctx.generator = &generator;
    ctx.utility = &utility_model;
    ctx.energy = &energy;
    ctx.catalog = &world.catalog();
    ctx.metrics = &metrics;
    ctx.faults = fplan;
    ctx.theta = theta;
    ctx.battery_horizon = world.params().horizon + params.round;
    std::vector<broker> brokers;
    brokers.reserve(world.user_count());
    for (trace::user_id u = 0; u < world.user_count(); ++u) {
        brokers.push_back(
            make_user_broker(ctx, u, world.notifications().per_user[u].size()));
    }

    // Replay: periodic rounds on the event simulator; each tick admits the
    // arrivals whose timestamps have passed, then runs every broker's round.
    const sim_time horizon = world.params().horizon;
    const auto total_rounds =
        static_cast<std::uint64_t>(std::ceil(horizon / params.round)) + 1;

    RICHNOTE_REQUIRE(params.batch_topic_round_multiplier >= 1,
                     "topic round multiplier must be >= 1");
    // Per-topic admission cadence (§II): split each user's stream into the
    // fast (friend-feed) and batch (album/playlist) indices once.
    std::vector<std::vector<std::size_t>> fast_index(world.user_count());
    std::vector<std::vector<std::size_t>> batch_index(world.user_count());
    for (trace::user_id u = 0; u < world.user_count(); ++u) {
        const auto& stream = world.notifications().per_user[u];
        for (std::size_t i = 0; i < stream.size(); ++i) {
            (stream[i].type == trace::notification_type::friend_feed ? fast_index
                                                                     : batch_index)[u]
                .push_back(i);
        }
    }

    RICHNOTE_REQUIRE(params.worker_threads >= 1, "need at least one worker thread");
    auto trajectories = std::make_shared<telemetry>(params.telemetry_users);
    const bool telemetry_enabled = trajectories->enabled();
    std::vector<std::size_t> fast_cursor(world.user_count(), 0);
    std::vector<std::size_t> batch_cursor(world.user_count(), 0);
    // Timestamp of each user's next pending arrival per topic class (+inf
    // when drained). A steady-state round checks two contiguous doubles per
    // user instead of chasing the per-user index vectors, which is most of
    // the admission bookkeeping cost once queues drain.
    constexpr double never = std::numeric_limits<double>::infinity();
    std::vector<double> fast_next(world.user_count(), never);
    std::vector<double> batch_next(world.user_count(), never);
    for (trace::user_id u = 0; u < world.user_count(); ++u) {
        const auto& stream = world.notifications().per_user[u];
        if (!fast_index[u].empty()) fast_next[u] = stream[fast_index[u][0]].created_at;
        if (!batch_index[u].empty()) batch_next[u] = stream[batch_index[u][0]].created_at;
    }
    // Per-user due-arrival buffers, hoisted out of the round loop so a
    // steady-state tick reuses their capacity instead of allocating one
    // vector per user per round. Per-user (not per-worker) keeps them
    // data-race-free under any sharding.
    std::vector<std::vector<std::size_t>> due_buffer(world.user_count());

    // Live-progress publication (expo server / tests). Runs in the
    // single-threaded between-rounds section; wall-clock throughput feeds
    // only the live view, never a deterministic output.
    const auto replay_start = std::chrono::steady_clock::now();
    auto publish_progress = [&, replay_start](std::uint64_t completed, bool done) {
        richnote::obs::progress_snapshot snap;
        snap.round = completed;
        snap.total_rounds = total_rounds;
        snap.users = world.user_count();
        snap.wall_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      replay_start)
                            .count();
        snap.rounds_per_sec =
            snap.wall_sec > 0.0 ? static_cast<double>(completed) / snap.wall_sec : 0.0;
        for (const auto& b : brokers) {
            snap.queue_items_total += static_cast<double>(b.sched().queue_size());
            snap.queue_bytes_total += b.sched().queue_bytes();
            snap.energy_credit_joules_total += b.sched().energy_credit_joules();
        }
        const run_totals totals = metrics.totals();
        fill_progress(totals, snap);
        snap.done = done;
        richnote::obs::metrics_registry live;
        export_metrics(totals, live);
        params.progress->on_round(snap, live);
    };

    // Persistent worker pool, created ONCE for the whole replay. The
    // historical loop spawned and joined a std::vector<std::thread> every
    // round; at thousands of rounds that thread churn dominates the round
    // body. Worker w owns the same contiguous shard every round
    // (worker_pool::shard_range == the historical n*w/W split), so outputs
    // stay bit-identical and each shard's broker state stays hot in the
    // core that served it last round. worker_threads == 1 degenerates to a
    // plain inline loop with zero threads.
    const std::size_t workers = std::max<std::size_t>(
        1, std::min<std::size_t>(params.worker_threads, world.user_count()));
    worker_pool pool(workers);

    richnote::sim::simulator sim;
    std::uint64_t rounds_run = 0;
    sim.schedule_periodic(0.0, params.round, [&](std::uint64_t tick) {
        const sim_time now = sim.now();
        const bool batch_tick = tick % params.batch_topic_round_multiplier == 0 ||
                                tick + 1 >= total_rounds; // final tick flushes

        // One user's admissions + round; touches only user-u state.
        auto run_user = [&](trace::user_id u) {
            const bool fast_due = fast_next[u] <= now;
            const bool batch_due = batch_tick && batch_next[u] <= now;
            if (fast_due || batch_due) {
                const auto& stream = world.notifications().per_user[u];
                auto collect_due = [&](const std::vector<std::size_t>& index,
                                       std::size_t& cursor, std::vector<std::size_t>& due,
                                       double& next) {
                    while (cursor < index.size() &&
                           stream[index[cursor]].created_at <= now) {
                        due.push_back(index[cursor]);
                        ++cursor;
                    }
                    next = cursor < index.size() ? stream[index[cursor]].created_at
                                                 : never;
                };
                std::vector<std::size_t>& due = due_buffer[u];
                due.clear();
                if (fast_due)
                    collect_due(fast_index[u], fast_cursor[u], due, fast_next[u]);
                if (batch_due)
                    collect_due(batch_index[u], batch_cursor[u], due, batch_next[u]);
                if (fplan != nullptr && due.size() > 1 &&
                    fplan->reorder_arrivals(u, tick)) {
                    // Pub/sub delivered this round's batch out of timestamp
                    // order; the permutation is a pure function of (seed,
                    // user, round), so sharding cannot change it.
                    richnote::rng scramble(fplan->reorder_seed(u, tick));
                    scramble.shuffle(due);
                }
                for (const std::size_t i : due) {
                    brokers[u].admit(stream[i]);
                    if (fplan != nullptr && fplan->duplicate_arrival(u, stream[i].id)) {
                        // At-least-once replay of the publish; idempotent
                        // admission must suppress it.
                        brokers[u].admit(stream[i]);
                    }
                }
            }
            brokers[u].run_round(now);
            if (telemetry_enabled && trajectories->watches(u)) {
                round_sample sample;
                sample.round = tick;
                sample.user = u;
                sample.queue_items = static_cast<double>(brokers[u].sched().queue_size());
                sample.queue_bytes = brokers[u].sched().queue_bytes();
                sample.energy_credit = brokers[u].sched().energy_credit_joules();
                sample.data_budget = brokers[u].data_budget();
                sample.battery_level = brokers[u].battery().level();
                sample.network = brokers[u].network_state();
                sample.delivered_so_far = metrics.user(u).delivered;
                sample.faults = metrics.user(u).faults;
                trajectories->record(sample);
            }
        };

        // §V-C backend parallelism: shard users contiguously; each user is
        // owned by exactly one (persistent) worker for the whole run.
        pool.run_sharded(world.user_count(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t u = lo; u < hi; ++u)
                run_user(static_cast<trace::user_id>(u));
        });
        if (online_model) {
            // Drain this round's engagement feedback and refit when due —
            // single-threaded, between the sharded sections.
            for (auto& b : brokers) {
                for (const auto& n : b.take_feedback()) online_model->observe(n);
            }
            online_model->on_round_end();
        }
        ++rounds_run;
        // Make this round's trace lines durable before anything else can
        // observe (or kill) the run at this round boundary.
        if (params.trace != nullptr && params.trace->streaming())
            params.trace->flush_through(tick);
        if (params.progress != nullptr) publish_progress(rounds_run, false);
        if (tick + 1 >= total_rounds) sim.stop();
    });
    sim.run();
    if (params.progress != nullptr) publish_progress(rounds_run, true);

    const run_totals totals = metrics.totals();
    experiment_result r =
        make_experiment_result(setup, params, metrics, totals, brokers, rounds_run);
    r.trajectories = std::move(trajectories);
    if (params.registry != nullptr) export_metrics(totals, *params.registry);
    return r;
}

} // namespace richnote::core
