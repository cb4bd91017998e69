// The round engine (core/round_engine.hpp).
//
// Batch deferral: run_experiment's replay, with no observer attached, must
// leave every user's metrics and every broker's full state exactly where a
// plain sweep — every broker built by make_user_broker and run every round
// — leaves them. With a progress listener attached the engine runs the full
// sweep, and each round's published P(t) total must equal the sweep's.
//
// Engine mechanics, driven through a scripted arrival source: the round
// index and the accumulated clock, when deferral is on, the active list,
// catch-up and resharding of lagging brokers, and the fault plan's reorder
// and duplicate injection. Then the two real sources: the trace cursor's
// topic cadence and the pending buckets' due-time hold and canonical order.
#include "core/round_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "fleet_compare.hpp"
#include "obs/profile.hpp"
#include "obs/progress.hpp"
#include "obs/trace_sink.hpp"

namespace {

using richnote::core::arrival_source;
using richnote::core::broker;
using richnote::core::experiment_params;
using richnote::core::experiment_setup;
using richnote::core::metrics_recorder;
using richnote::core::round_engine;
using richnote::core::scheduler_kind;
using richnote::sim::sim_time;
using richnote::trace::notification;
using richnote::trace::notification_type;
using richnote::trace::user_id;

class round_engine_test : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        experiment_setup::options opts;
        opts.workload.user_count = 12;
        opts.workload.catalog.artist_count = 40;
        opts.workload.playlist_count = 6;
        opts.oracle_utility = true;
        opts.seed = 17;
        setup_ = new experiment_setup(opts);
    }
    static void TearDownTestSuite() {
        delete setup_;
        setup_ = nullptr;
    }

    static experiment_params params(scheduler_kind kind, bool battery_traces, bool wifi) {
        experiment_params p;
        p.kind = kind;
        p.weekly_budget_mb = 8.0;
        p.battery_traces = battery_traces;
        p.wifi_enabled = wifi;
        p.seed = 23;
        p.worker_threads = 2;
        return p;
    }

    /// The reference: every broker runs every round of the trace. Each
    /// round admits a user's not-yet-admitted items with created_at <= now,
    /// friend-feed items first, each class in stream order; album/playlist
    /// items only every batch_topic_round_multiplier-th round and the last.
    /// `after_round(brokers)` observes the fleet after every round.
    struct sweep {
        explicit sweep(const experiment_params& p)
            : metrics(setup_->world().user_count(),
                      p.presentation.preview_durations_sec.size() + 1) {}
        metrics_recorder metrics;
        std::vector<broker> brokers;
    };
    static void run_sweep(const experiment_params& p, sweep& out,
                          const std::function<void(const std::vector<broker>&)>& after_round) {
        const auto& world = setup_->world();
        const richnote::core::audio_preview_generator base(p.presentation);
        std::vector<double> durations;
        for (const auto& t : world.catalog().tracks()) durations.push_back(t.duration_sec);
        const richnote::core::memoized_presentation_generator generator(base, durations);
        const richnote::energy::energy_model energy;
        richnote::core::broker_build_context ctx;
        ctx.params = &p;
        ctx.generator = &generator;
        ctx.utility = &setup_->utility();
        ctx.energy = &energy;
        ctx.catalog = &world.catalog();
        ctx.metrics = &out.metrics;
        ctx.theta = richnote::core::round_budget_bytes(p);
        ctx.battery_horizon = world.params().horizon + p.round;
        for (user_id u = 0; u < world.user_count(); ++u)
            out.brokers.push_back(richnote::core::make_user_broker(
                ctx, u, world.notifications().per_user[u].size()));

        std::vector<std::vector<bool>> admitted(world.user_count());
        for (user_id u = 0; u < world.user_count(); ++u)
            admitted[u].assign(world.notifications().per_user[u].size(), false);
        const std::uint64_t rounds = total_rounds(p);
        richnote::sim::sim_time now = 0.0;
        for (std::uint64_t r = 0; r < rounds; ++r) {
            const bool batch_round =
                r % p.batch_topic_round_multiplier == 0 || r + 1 == rounds;
            for (user_id u = 0; u < world.user_count(); ++u) {
                const auto& stream = world.notifications().per_user[u];
                for (const bool fast : {true, false}) {
                    if (!fast && !batch_round) continue;
                    for (std::size_t i = 0; i < stream.size(); ++i) {
                        const bool is_fast = stream[i].type == notification_type::friend_feed;
                        if (admitted[u][i] || is_fast != fast || stream[i].created_at > now)
                            continue;
                        out.brokers[u].admit(stream[i]);
                        admitted[u][i] = true;
                    }
                }
                out.brokers[u].run_round(now);
            }
            if (after_round) after_round(out.brokers);
            now += p.round;
        }
    }

    static std::uint64_t total_rounds(const experiment_params& p) {
        return richnote::core::trace_cursor_source(setup_->world(), p).total_rounds();
    }

    static std::size_t user_count() { return setup_->world().user_count(); }

    /// A fleet over the whole workload, scored like the batch replay.
    static std::unique_ptr<round_engine> make_engine(const experiment_params& p,
                                                     std::size_t worker_threads = 2) {
        return std::make_unique<round_engine>(*setup_, p, user_count(), worker_threads,
                                              setup_->utility(),
                                              [](user_id) { return std::size_t{8}; });
    }

    /// params() with telemetry on one user: the same brokers, but every
    /// broker runs every round.
    static experiment_params sweeping(experiment_params p) {
        p.telemetry_users = {0};
        return p;
    }

    static experiment_setup* setup_;
};

experiment_setup* round_engine_test::setup_ = nullptr;

TEST_F(round_engine_test, batch_deferral_matches_the_sweep_for_every_scheduler) {
    std::vector<experiment_params> configs;
    for (const auto kind : {scheduler_kind::richnote, scheduler_kind::fifo,
                            scheduler_kind::util, scheduler_kind::direct}) {
        for (const bool battery_traces : {false, true}) {
            for (const bool wifi : {false, true}) {
                for (const std::uint32_t cadence : {1u, 3u}) {
                    configs.push_back(params(kind, battery_traces, wifi));
                    configs.back().batch_topic_round_multiplier = cadence;
                }
            }
        }
    }
    std::uint64_t deferred_total = 0;
    for (const experiment_params& p : configs) {
        SCOPED_TRACE(testing::Message()
                     << to_string(p.kind) << " battery_traces=" << p.battery_traces
                     << " wifi=" << p.wifi_enabled
                     << " cadence=" << p.batch_topic_round_multiplier);
        sweep ref(p);
        run_sweep(p, ref, {});

        const auto engine = richnote::core::replay_trace(*setup_, p);
        ASSERT_TRUE(engine->defers());
        const std::uint64_t rounds = engine->rounds_run();
        ASSERT_EQ(rounds, total_rounds(p));
        std::uint64_t lagging = 0;
        for (const broker& b : engine->brokers()) lagging += rounds - b.rounds_run();
        deferred_total += lagging + engine->caught_up_rounds();

        for (user_id u = 0; u < setup_->world().user_count(); ++u) {
            SCOPED_TRACE(u);
            // Metrics first: they must be final without any catch-up.
            richnote::test::expect_same_user_metrics(engine->metrics().user(u),
                                                     ref.metrics.user(u));
            const broker& b = engine->user_broker(u);
            EXPECT_EQ(b.rounds_run(), rounds);
            richnote::test::expect_same_broker(b, ref.brokers[u]);
        }
    }
    EXPECT_GT(deferred_total, 0u) << "deferral was never exercised";
}

/// Records each round's published P(t) total.
class credit_recorder final : public richnote::obs::progress_listener {
public:
    void on_round(const richnote::obs::progress_snapshot& snap,
                  const richnote::obs::metrics_registry&) override {
        if (!snap.done) credits.push_back(snap.energy_credit_joules_total);
    }
    std::vector<double> credits;
};

TEST_F(round_engine_test, progress_listener_sees_the_sweeps_energy_credit_every_round) {
    const experiment_params plain = params(scheduler_kind::richnote, false, false);
    sweep ref(plain);
    std::vector<double> want;
    run_sweep(plain, ref, [&](const std::vector<broker>& brokers) {
        double total = 0.0;
        for (const broker& b : brokers) total += b.sched().energy_credit_joules();
        want.push_back(total);
    });

    credit_recorder listener;
    experiment_params p = plain;
    p.progress = &listener;
    const auto engine = richnote::core::replay_trace(*setup_, p);
    EXPECT_FALSE(engine->defers());
    ASSERT_EQ(listener.credits.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r)
        EXPECT_EQ(listener.credits[r], want[r]) << "round " << r;
}

/// An arrival source driven by a script: `script[r]` lists the (user,
/// notification) pairs that arrive in round r. Each such user is woken
/// that round and handed its items, in script order. Users in `held`
/// report held work. Records the round index and clock each round sees.
class scripted_source final : public arrival_source {
public:
    explicit scripted_source(std::size_t users) : held(users, 0), due_(users) {}

    void begin_round(round_engine& engine) override {
        seen.emplace_back(engine.rounds_run(), engine.now());
        const auto it = script.find(engine.rounds_run());
        if (it == script.end()) return;
        for (const auto& [u, n] : it->second) {
            due_[u].push_back(n);
            engine.activate(u);
        }
    }
    std::size_t admit_due(round_engine& engine, user_id u) override {
        std::vector<notification>& items = due_[u];
        for (const notification& n : items) engine.admit(u, n);
        const std::size_t count = items.size();
        items.clear();
        return count;
    }
    bool holds(user_id u) const override { return held[u] != 0; }

    std::map<std::uint64_t, std::vector<std::pair<user_id, notification>>> script;
    std::vector<std::uint8_t> held;
    std::vector<std::pair<std::uint64_t, sim_time>> seen;

private:
    std::vector<std::vector<notification>> due_;
};

/// The i-th notification of user u's trace stream.
notification trace_item(const experiment_setup& setup, user_id u, std::size_t i = 0) {
    return setup.world().notifications().per_user[u].at(i);
}

TEST_F(round_engine_test, round_index_and_clock_advance_once_per_round) {
    experiment_params p = params(scheduler_kind::richnote, false, false);
    // A period whose multiples differ from its running sums: the clock must
    // be the accumulated sum, the bits catch-up re-accumulates.
    p.round = 1000.0 / 3.0;
    const auto engine = make_engine(p);
    scripted_source source(user_count());
    constexpr std::uint64_t rounds = 30;
    for (std::uint64_t r = 0; r < rounds; ++r) engine->run_round(source);

    EXPECT_EQ(engine->rounds_run(), rounds);
    ASSERT_EQ(source.seen.size(), rounds);
    sim_time want = 0.0;
    bool differs_from_product = false;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        EXPECT_EQ(source.seen[r].first, r);
        EXPECT_EQ(source.seen[r].second, want) << "round " << r;
        differs_from_product |= want != static_cast<double>(r) * p.round;
        want += p.round;
    }
    EXPECT_EQ(engine->now(), want);
    EXPECT_TRUE(differs_from_product) << "pick a period whose sums drift from r * round";
}

TEST_F(round_engine_test, a_silent_round_runs_no_broker_of_a_deferring_fleet) {
    const auto engine = make_engine(params(scheduler_kind::richnote, false, false));
    ASSERT_TRUE(engine->defers());
    scripted_source source(user_count());
    for (int r = 0; r < 4; ++r) engine->run_round(source);

    EXPECT_EQ(engine->active_users(), 0u);
    for (const broker& b : engine->brokers()) EXPECT_EQ(b.rounds_run(), 0u);
    EXPECT_EQ(engine->caught_up_rounds(), 0u);
    // Touching a lagging broker replays exactly the rounds it missed, once.
    EXPECT_EQ(engine->user_broker(3).rounds_run(), 4u);
    EXPECT_EQ(engine->caught_up_rounds(), 4u);
    EXPECT_EQ(engine->user_broker(3).rounds_run(), 4u);
    EXPECT_EQ(engine->caught_up_rounds(), 4u);
    EXPECT_EQ(engine->brokers()[4].rounds_run(), 0u);
}

TEST_F(round_engine_test, caught_up_brokers_match_a_fleet_that_ran_every_round) {
    const experiment_params p = params(scheduler_kind::richnote, true, true);
    const auto lagging = make_engine(p);
    const auto swept = make_engine(sweeping(p));
    ASSERT_TRUE(lagging->defers());
    ASSERT_FALSE(swept->defers());
    scripted_source lagging_source(user_count());
    scripted_source swept_source(user_count());
    for (scripted_source* s : {&lagging_source, &swept_source}) {
        s->script[2] = {{4, trace_item(*setup_, 4)}};
        s->script[5] = {{9, trace_item(*setup_, 9)}, {4, trace_item(*setup_, 4, 1)}};
    }
    for (int r = 0; r < 8; ++r) {
        lagging->run_round(lagging_source);
        swept->run_round(swept_source);
    }
    for (user_id u = 0; u < user_count(); ++u) {
        SCOPED_TRACE(u);
        richnote::test::expect_same_user_metrics(lagging->metrics().user(u),
                                                 swept->metrics().user(u));
        const broker& b = lagging->user_broker(u);
        EXPECT_EQ(b.rounds_run(), 8u);
        richnote::test::expect_same_broker(b, swept->brokers()[u]);
    }
    EXPECT_GT(lagging->caught_up_rounds(), 0u);
    EXPECT_EQ(swept->caught_up_rounds(), 0u);
}

/// Runs one silent round and checks that it was the full sweep.
void expect_full_sweep(round_engine& engine, std::size_t users) {
    EXPECT_FALSE(engine.defers());
    scripted_source source(users);
    engine.run_round(source);
    EXPECT_EQ(engine.active_users(), users);
    for (const broker& b : engine.brokers()) EXPECT_EQ(b.rounds_run(), 1u);
    EXPECT_EQ(engine.caught_up_rounds(), 0u);
}

TEST_F(round_engine_test, a_fault_plan_turns_deferral_off) {
    experiment_params p = params(scheduler_kind::richnote, false, false);
    p.faults.seed = 5;
    p.faults.brownout_prob = 0.2;
    expect_full_sweep(*make_engine(p), user_count());
}

TEST_F(round_engine_test, telemetry_users_turn_deferral_off) {
    const experiment_params p = sweeping(params(scheduler_kind::fifo, false, false));
    const auto engine = make_engine(p);
    expect_full_sweep(*engine, user_count());
    EXPECT_TRUE(engine->trajectories()->enabled());
}

TEST_F(round_engine_test, a_progress_listener_turns_deferral_off) {
    credit_recorder listener;
    experiment_params p = params(scheduler_kind::util, false, false);
    p.progress = &listener;
    expect_full_sweep(*make_engine(p), user_count());
}

TEST_F(round_engine_test, activating_a_user_twice_runs_its_broker_once) {
    const auto engine = make_engine(params(scheduler_kind::direct, false, false));
    scripted_source source(user_count());
    const notification n = trace_item(*setup_, 6);
    source.script[0] = {{6, n}, {6, n}};
    EXPECT_EQ(engine->run_round(source), 2u);
    EXPECT_EQ(engine->active_users(), 1u);
    EXPECT_EQ(engine->brokers()[6].rounds_run(), 1u);
    EXPECT_EQ(engine->brokers()[6].checkpoint().duplicates_suppressed, 1u);
}

TEST_F(round_engine_test, a_user_whose_source_holds_work_stays_active) {
    const auto engine = make_engine(params(scheduler_kind::richnote, false, false));
    scripted_source source(user_count());
    source.script[0] = {{5, trace_item(*setup_, 5)}};
    source.held[5] = 1;
    engine->run_round(source);
    engine->run_round(source); // not woken again: still active
    EXPECT_EQ(engine->active_users(), 1u);
    EXPECT_EQ(engine->brokers()[5].rounds_run(), 2u);
    source.held[5] = 0;
    engine->run_round(source); // runs, and leaves the list if its queue drained
    const bool queued = engine->brokers()[5].sched().queue_size() != 0;
    engine->run_round(source);
    EXPECT_EQ(engine->active_users(), queued ? 1u : 0u);
    EXPECT_EQ(engine->user_broker(5).rounds_run(), 4u);
    EXPECT_EQ(engine->caught_up_rounds(), queued ? 0u : 1u);
}

TEST_F(round_engine_test, reshard_keeps_lagging_brokers_owing_their_rounds) {
    const experiment_params p = params(scheduler_kind::richnote, true, false);
    const auto lagging = make_engine(p, 3);
    const auto swept = make_engine(sweeping(p), 3);
    scripted_source lagging_source(user_count());
    scripted_source swept_source(user_count());
    for (scripted_source* s : {&lagging_source, &swept_source})
        s->script[1] = {{7, trace_item(*setup_, 7)}};
    for (int r = 0; r < 3; ++r) {
        lagging->run_round(lagging_source);
        swept->run_round(swept_source);
    }
    lagging->reshard(1);
    swept->reshard(1);
    EXPECT_EQ(lagging->worker_threads(), 1u);
    EXPECT_EQ(lagging->brokers()[2].rounds_run(), 0u);
    for (int r = 0; r < 2; ++r) {
        lagging->run_round(lagging_source);
        swept->run_round(swept_source);
    }
    for (user_id u = 0; u < user_count(); ++u) {
        SCOPED_TRACE(u);
        const broker& b = lagging->user_broker(u);
        EXPECT_EQ(b.rounds_run(), 5u);
        richnote::test::expect_same_broker(b, swept->brokers()[u]);
    }
}

TEST_F(round_engine_test, reorder_keeps_order_without_a_fault_plan) {
    const auto engine = make_engine(params(scheduler_kind::richnote, false, false));
    std::vector<int> items(20);
    std::iota(items.begin(), items.end(), 0);
    const std::vector<int> before = items;
    engine->reorder(2, items.begin(), items.end());
    EXPECT_EQ(items, before);
}

TEST_F(round_engine_test, reorder_is_a_permutation_fixed_by_user_and_round) {
    experiment_params p = params(scheduler_kind::richnote, false, false);
    p.faults.seed = 9;
    p.faults.reorder_prob = 1.0;
    const auto engine = make_engine(p);
    std::vector<int> identity(20);
    std::iota(identity.begin(), identity.end(), 0);
    auto reordered = [&](user_id u) {
        std::vector<int> items = identity;
        engine->reorder(u, items.begin(), items.end());
        return items;
    };
    const std::vector<int> first = reordered(2);
    EXPECT_TRUE(std::is_permutation(first.begin(), first.end(), identity.begin()));
    EXPECT_NE(first, identity);
    EXPECT_EQ(reordered(2), first);
    EXPECT_NE(reordered(3), first);

    scripted_source source(user_count());
    engine->run_round(source);
    EXPECT_NE(reordered(2), first) << "round 1 must draw its own permutation";
}

TEST_F(round_engine_test, admit_replays_the_fault_plans_duplicates) {
    experiment_params p = params(scheduler_kind::richnote, false, false);
    p.faults.seed = 3;
    p.faults.duplicate_prob = 1.0;
    const auto faulted = make_engine(p);
    const auto plain = make_engine(params(scheduler_kind::richnote, false, false));
    for (round_engine* engine : {faulted.get(), plain.get()}) {
        scripted_source source(user_count());
        source.script[0] = {{1, trace_item(*setup_, 1)}};
        EXPECT_EQ(engine->run_round(source), 1u);
    }
    EXPECT_EQ(faulted->user_broker(1).checkpoint().duplicates_suppressed, 1u);
    EXPECT_EQ(plain->user_broker(1).checkpoint().duplicates_suppressed, 0u);
}

TEST_F(round_engine_test, the_trace_cursor_covers_the_horizon_plus_a_flush_round) {
    const double horizon = setup_->world().params().horizon;
    experiment_params p = params(scheduler_kind::richnote, false, false);
    p.round = horizon / 10.0;
    EXPECT_EQ(total_rounds(p), 11u);
    p.round = horizon / 9.5;
    EXPECT_EQ(total_rounds(p), 11u);
    p.round = richnote::sim::default_round;
    EXPECT_EQ(total_rounds(p),
              static_cast<std::uint64_t>(std::ceil(horizon / p.round)) + 1);
}

TEST_F(round_engine_test, the_trace_cursor_admits_every_item_once_at_each_cadence) {
    for (const std::uint32_t cadence : {1u, 4u}) {
        SCOPED_TRACE(cadence);
        experiment_params p = params(scheduler_kind::fifo, false, false);
        p.batch_topic_round_multiplier = cadence;
        const auto engine = make_engine(p);
        richnote::core::trace_cursor_source source(setup_->world(), p);
        std::uint64_t admitted = 0;
        for (std::uint64_t r = 0; r < source.total_rounds(); ++r)
            admitted += engine->run_round(source);
        EXPECT_EQ(admitted, setup_->world().notifications().total_count);
        std::uint64_t arrived = 0;
        for (user_id u = 0; u < user_count(); ++u) arrived += engine->metrics().user(u).arrived;
        EXPECT_EQ(arrived, admitted);
    }
}

TEST_F(round_engine_test, album_and_playlist_items_wait_for_the_topic_round) {
    experiment_params p = params(scheduler_kind::richnote, false, false);
    p.batch_topic_round_multiplier = 1'000'000; // topic rounds: the first and the last
    const auto engine = make_engine(p);
    richnote::core::trace_cursor_source source(setup_->world(), p);
    const std::uint64_t rounds = source.total_rounds();

    // Reference: friend feeds come due every round, the rest only on
    // round 0 and the final flush round.
    std::vector<std::uint64_t> want(rounds, 0);
    for (const auto& stream : setup_->world().notifications().per_user) {
        for (const notification& n : stream) {
            sim_time now = 0.0;
            std::uint64_t r = 0;
            while (n.created_at > now) {
                now += p.round;
                ++r;
            }
            if (n.type != notification_type::friend_feed && r != 0) r = rounds - 1;
            ASSERT_LT(r, rounds);
            ++want[r];
        }
    }
    ASSERT_GT(want[rounds - 1], 0u);
    for (std::uint64_t r = 0; r < rounds; ++r)
        EXPECT_EQ(engine->run_round(source), want[r]) << "round " << r;
}

/// Trace notification `base` re-addressed to `u` with a new id, class and
/// creation time.
notification wire_item(notification base, user_id u, std::uint64_t id, notification_type type,
                       sim_time created_at) {
    base.recipient = u;
    base.id = id;
    base.type = type;
    base.created_at = created_at;
    return base;
}

/// The "item" of each of u's events of `type`, in emission order.
std::vector<std::uint64_t> items_of(const richnote::obs::trace_sink& sink, user_id u,
                                    const std::string& type) {
    std::vector<std::uint64_t> items;
    for (const auto& e : sink.events_of(u)) {
        if (e.json.find("\"type\":\"" + type + "\"") == std::string::npos) continue;
        const auto at = e.json.find("\"item\":");
        if (at != std::string::npos) items.push_back(std::stoull(e.json.substr(at + 7)));
    }
    return items;
}

TEST_F(round_engine_test, pending_buckets_hold_an_item_until_it_comes_due) {
    const experiment_params p = params(scheduler_kind::richnote, false, false);
    const auto engine = make_engine(p);
    richnote::core::admission_queue<notification> ring(8);
    richnote::core::pending_bucket_source source(ring, user_count(), p);
    const notification n = wire_item(trace_item(*setup_, 1), 1, 77,
                                     notification_type::friend_feed, 2.5 * p.round);
    ASSERT_TRUE(ring.try_push(n));

    EXPECT_EQ(engine->run_round(source), 0u); // drained at now = 0
    EXPECT_EQ(source.drained(), 1u);
    EXPECT_TRUE(source.holds(1));
    EXPECT_EQ(engine->run_round(source), 0u);
    EXPECT_EQ(engine->run_round(source), 0u);
    EXPECT_TRUE(source.holds(1));
    EXPECT_EQ(engine->brokers()[1].rounds_run(), 3u) << "a holding user stays active";
    EXPECT_EQ(engine->run_round(source), 1u); // now = 3 rounds >= created_at
    EXPECT_FALSE(source.holds(1));
    EXPECT_EQ(engine->metrics().user(1).arrived, 1u);
}

TEST_F(round_engine_test, pending_buckets_admit_in_canonical_order) {
    richnote::obs::trace_sink sink(user_count());
    experiment_params p = params(scheduler_kind::richnote, false, false);
    p.trace = &sink;
    const auto engine = make_engine(p);
    richnote::core::admission_queue<notification> ring(8);
    richnote::core::pending_bucket_source source(ring, user_count(), p);
    const notification base = trace_item(*setup_, 0);
    // Drain order 1, 2, 4, 3; canonical order: friend feeds by
    // (created_at, id) first, then the album release.
    ASSERT_TRUE(ring.try_push(wire_item(base, 0, 1, notification_type::album_release, 50.0)));
    ASSERT_TRUE(ring.try_push(wire_item(base, 0, 2, notification_type::friend_feed, 200.0)));
    ASSERT_TRUE(ring.try_push(wire_item(base, 0, 4, notification_type::friend_feed, 100.0)));
    ASSERT_TRUE(ring.try_push(wire_item(base, 0, 3, notification_type::friend_feed, 100.0)));

    EXPECT_EQ(engine->run_round(source), 0u);
    EXPECT_EQ(engine->run_round(source), 4u);
    EXPECT_EQ(items_of(sink, 0, "lc_ingest"), (std::vector<std::uint64_t>{1, 2, 4, 3}));
    EXPECT_EQ(items_of(sink, 0, "lc_admit"), (std::vector<std::uint64_t>{3, 4, 2, 1}));
}

TEST_F(round_engine_test, the_sim_tick_slot_counts_every_engine_round) {
    richnote::obs::profile_set_enabled(false);
    richnote::obs::profile_reset();
    const experiment_params p = params(scheduler_kind::richnote, false, false);
    const auto engine = make_engine(p);
    richnote::core::admission_queue<notification> ring(8);
    richnote::core::pending_bucket_source serve(ring, user_count(), p);
    scripted_source scripted(user_count());

    richnote::obs::profile_set_enabled(true);
    for (int r = 0; r < 3; ++r) engine->run_round(serve);
    engine->run_round(scripted);
    richnote::obs::profile_set_enabled(false);
    EXPECT_EQ(richnote::obs::profile_read(richnote::obs::profile_slot::sim_tick).calls, 4u);
    richnote::obs::profile_reset();
}

} // namespace
