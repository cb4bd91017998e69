// Service-mode integration tests (core/service.hpp): the bit-identity
// contract between `richnote serve` and the batch replay loop, plus the
// operational behaviours a live wire needs — backpressure, idempotent
// duplicate suppression, out-of-order ingest, elastic resharding, idle
// broker deferral — and many-seed ingest-vs-batch equivalence properties.
//
// Lives in test_integration so scripts/check.sh --tsan covers the
// persistent worker pool and the MPSC admission ring under TSan.
#include "core/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/wire.hpp"
#include "fleet_compare.hpp"
#include "golden.hpp"
#include "obs/lifecycle.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/progress.hpp"
#include "obs/trace_sink.hpp"
#include "trace/notification.hpp"

namespace {

using richnote::core::broker;
using richnote::test::expect_same_broker;
using richnote::test::expect_same_user_metrics;
using richnote::core::experiment_params;
using richnote::core::experiment_result;
using richnote::core::experiment_setup;
using richnote::core::notification_service;
using richnote::core::run_experiment;
using richnote::core::scheduler_kind;
using richnote::core::service_params;
using richnote::trace::notification;
using richnote::trace::notification_type;
using ingest_status = notification_service::ingest_status;

/// Every notification of the workload, in created_at order (ties by id).
std::vector<notification> by_creation_time(const experiment_setup& setup) {
    std::vector<notification> all = setup.world().notifications().flatten();
    std::stable_sort(all.begin(), all.end(), [](const notification& a, const notification& b) {
        if (a.created_at != b.created_at) return a.created_at < b.created_at;
        return a.id < b.id;
    });
    return all;
}

/// Runs `rounds` rounds, ingesting over the wire, just before each round,
/// exactly the items that round makes due — so a user's broker sees work
/// only in the rounds its items arrive and is deferred in between.
/// `before_round(r)` runs ahead of round r's ingest (reshards, checks).
void run_interleaved(notification_service& svc, const std::vector<notification>& items,
                     std::uint64_t rounds,
                     const std::function<void(std::uint64_t)>& before_round = {}) {
    std::size_t next = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        if (before_round) before_round(r);
        while (next < items.size() && items[next].created_at <= svc.now()) {
            ASSERT_EQ(svc.ingest_line(richnote::core::format_wire_line(items[next])),
                      ingest_status::accepted);
            ++next;
        }
        svc.run_round();
    }
}

/// One shared setup (workload + trained forest) for the whole suite.
class service_test : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        experiment_setup::options opts;
        opts.workload.user_count = 24;
        opts.workload.catalog.artist_count = 60;
        opts.workload.playlist_count = 10;
        opts.forest.tree_count = 8;
        opts.seed = 33;
        setup_ = new experiment_setup(opts);
    }
    static void TearDownTestSuite() {
        delete setup_;
        setup_ = nullptr;
    }

    static experiment_params batch_params() {
        experiment_params p;
        p.kind = scheduler_kind::richnote;
        p.weekly_budget_mb = 5.0;
        p.seed = 7;
        return p;
    }

    static service_params serve_params(std::size_t threads) {
        service_params sp;
        sp.experiment = batch_params();
        sp.worker_threads = threads;
        return sp;
    }

    /// Replays the whole generated workload into `svc` over the NDJSON
    /// wire, exactly as a producer would — every line goes through
    /// format_wire_line + ingest_line.
    static void ingest_workload(notification_service& svc) {
        for (const auto& stream : setup_->world().notifications().per_user) {
            for (const notification& n : stream) {
                const auto status =
                    svc.ingest_line(richnote::core::format_wire_line(n));
                ASSERT_EQ(status, ingest_status::accepted);
            }
        }
    }

    /// The fields the bit-identity contract covers, compared exactly.
    static void expect_identical(const experiment_result& a, const experiment_result& b) {
        EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
        EXPECT_EQ(a.delivered_mb, b.delivered_mb);
        EXPECT_EQ(a.metered_mb, b.metered_mb);
        EXPECT_EQ(a.recall, b.recall);
        EXPECT_EQ(a.precision, b.precision);
        EXPECT_EQ(a.total_utility, b.total_utility);
        EXPECT_EQ(a.utility_clicked, b.utility_clicked);
        EXPECT_EQ(a.energy_kj, b.energy_kj);
        EXPECT_EQ(a.mean_delay_min, b.mean_delay_min);
        EXPECT_EQ(a.level_mix, b.level_mix);
        EXPECT_EQ(a.final_queue_items, b.final_queue_items);
    }

    static experiment_setup* setup_;
};

experiment_setup* service_test::setup_ = nullptr;

TEST_F(service_test, wire_replay_matches_batch_run_bitwise) {
    // The tentpole contract: the same stream admitted over the wire and
    // run by the sharded service produces bit-identical aggregates to
    // run_experiment's in-process replay.
    const experiment_result batch = run_experiment(*setup_, batch_params());

    notification_service svc(*setup_, serve_params(3));
    ingest_workload(svc);
    svc.run_rounds(batch.rounds_run);

    const experiment_result served = svc.summarize();
    EXPECT_EQ(served.rounds_run, batch.rounds_run);
    expect_identical(served, batch);
    const auto counters = svc.counters();
    EXPECT_EQ(counters.ingest_accepted, setup_->world().notifications().total_count);
    EXPECT_EQ(counters.admitted, counters.ingest_accepted);
    EXPECT_EQ(counters.pending, 0u);
}

TEST_F(service_test, worker_count_never_changes_outputs) {
    notification_service one(*setup_, serve_params(1));
    notification_service four(*setup_, serve_params(4));
    ingest_workload(one);
    ingest_workload(four);
    one.run_rounds(50);
    four.run_rounds(50);
    expect_identical(one.summarize(), four.summarize());
    // Per-user agreement, not just totals: every user's delivered set has
    // the same size, bytes and utility regardless of sharding.
    for (std::size_t u = 0; u < setup_->world().user_count(); ++u) {
        SCOPED_TRACE(u);
        EXPECT_EQ(one.metrics().user(u).delivered, four.metrics().user(u).delivered);
        EXPECT_EQ(one.metrics().user(u).bytes_delivered,
                  four.metrics().user(u).bytes_delivered);
        EXPECT_EQ(one.metrics().user(u).utility_delivered,
                  four.metrics().user(u).utility_delivered);
    }
}

TEST_F(service_test, midrun_reshard_is_lossless) {
    notification_service straight(*setup_, serve_params(2));
    ingest_workload(straight);
    straight.run_rounds(60);

    notification_service resharded(*setup_, serve_params(2));
    ingest_workload(resharded);
    resharded.run_rounds(20);
    resharded.reshard(5);
    EXPECT_EQ(resharded.worker_threads(), 5u);
    resharded.run_rounds(25);
    resharded.reshard(1);
    resharded.run_rounds(15);

    EXPECT_EQ(resharded.counters().reshards, 2u);
    expect_identical(straight.summarize(), resharded.summarize());
}

TEST_F(service_test, full_ring_is_backpressure_not_loss) {
    service_params sp = serve_params(1);
    sp.queue_capacity = 4; // rounds to 4 slots
    notification_service svc(*setup_, sp);

    const auto& stream = setup_->world().notifications().per_user[0];
    ASSERT_GE(stream.size(), 6u);
    std::size_t accepted = 0, pushed_back = 0;
    for (std::size_t i = 0; i < 6; ++i) {
        const auto status = svc.ingest(stream[i]);
        if (status == ingest_status::accepted) ++accepted;
        else if (status == ingest_status::backpressure) ++pushed_back;
    }
    EXPECT_EQ(accepted, 4u);
    EXPECT_EQ(pushed_back, 2u);
    EXPECT_EQ(svc.counters().ingest_rejected_backpressure, 2u);

    // A round drains the ring; the producer's retry then goes through, so
    // backpressure never loses what the producer keeps offering.
    svc.run_round();
    for (std::size_t i = accepted; i < 6; ++i)
        EXPECT_EQ(svc.ingest(stream[i]), ingest_status::accepted);
    EXPECT_EQ(svc.counters().ingest_accepted, 6u);
}

TEST_F(service_test, duplicate_ids_are_suppressed_idempotently) {
    notification_service svc(*setup_, serve_params(2));
    const notification& n = setup_->world().notifications().per_user[3][0];
    const std::string line = richnote::core::format_wire_line(n);
    // An at-least-once wire redelivers: same line three times.
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(svc.ingest_line(line), ingest_status::accepted);
    svc.run_rounds(200); // past a week, so created_at is certainly due

    // All three were admitted, the brokers suppressed the two replays.
    EXPECT_EQ(svc.counters().admitted, 3u);
    EXPECT_EQ(svc.user_broker(3).duplicates_suppressed(), 2u);
    EXPECT_EQ(svc.summarize().faults.duplicates_suppressed, 2u);
    // And exactly one copy entered the pipeline.
    EXPECT_EQ(svc.metrics().user(3).arrived, 1u);
}

TEST_F(service_test, ids_past_2_to_the_53_stay_distinct) {
    // 2^53 and 2^53 + 1 are one double apart from colliding: decoded
    // through a double they would be one id, and admission would suppress
    // the second as a duplicate.
    notification_service svc(*setup_, serve_params(2));
    notification n = setup_->world().notifications().per_user[3][0];
    for (const std::uint64_t id : {std::uint64_t{1} << 53, (std::uint64_t{1} << 53) + 1}) {
        n.id = id;
        ASSERT_EQ(svc.ingest_line(richnote::core::format_wire_line(n)),
                  ingest_status::accepted);
    }
    svc.run_rounds(200);
    EXPECT_EQ(svc.counters().admitted, 2u);
    EXPECT_EQ(svc.user_broker(3).duplicates_suppressed(), 0u);
    EXPECT_EQ(svc.metrics().user(3).arrived, 2u);
}

TEST_F(service_test, progress_counts_arrivals_after_dedup) {
    // /progress and /metrics are filled from one totals() walk, so a
    // replayed id the brokers suppress is counted in neither: arrived_total
    // is the deduplicated arrival count, not the admitted one.
    notification_service svc(*setup_, serve_params(2));
    const notification& n = setup_->world().notifications().per_user[5][0];
    const std::string line = richnote::core::format_wire_line(n);
    for (int i = 0; i < 2; ++i)
        ASSERT_EQ(svc.ingest_line(line), ingest_status::accepted);
    svc.run_rounds(200);

    const richnote::core::run_totals totals = svc.metrics().totals();
    richnote::obs::metrics_registry registry;
    svc.export_service_metrics(totals, registry);
    richnote::obs::progress_snapshot snap;
    richnote::core::fill_progress(totals, snap);

    EXPECT_EQ(svc.counters().admitted, 2u);
    EXPECT_EQ(snap.arrived_total, 1u);
    EXPECT_EQ(snap.arrived_total, registry.counter("richnote.delivery.arrived_total"));
    EXPECT_EQ(snap.delivered_total, registry.counter("richnote.delivery.delivered_total"));
    EXPECT_EQ(snap.duplicates_suppressed, 1u);
    EXPECT_EQ(snap.duplicates_suppressed,
              registry.counter("richnote.faults.duplicates_suppressed_total"));
}

TEST_F(service_test, exported_metrics_equal_summarize_bitwise) {
    // One place per fact: /metrics and summarize() read the same totals, at
    // any worker count and across a mid-run reshard.
    for (const std::size_t threads : {1u, 2u, 8u}) {
        notification_service svc(*setup_, serve_params(threads));
        ingest_workload(svc);
        svc.run_rounds(30);
        svc.reshard(threads == 1 ? 3 : 1);
        svc.run_rounds(40);

        const experiment_result r = svc.summarize();
        richnote::obs::metrics_registry reg;
        svc.export_service_metrics(svc.metrics().totals(), reg);
        const double arrived =
            static_cast<double>(reg.counter("richnote.delivery.arrived_total"));
        const double delivered =
            static_cast<double>(reg.counter("richnote.delivery.delivered_total"));
        ASSERT_GT(delivered, 0.0) << "threads " << threads;
        EXPECT_EQ(reg.gauge("richnote.run.utility_total"), r.total_utility) << threads;
        EXPECT_EQ(reg.gauge("richnote.run.utility_clicked_total"), r.utility_clicked)
            << threads;
        EXPECT_EQ(reg.gauge("richnote.run.delivery_ratio"), r.delivery_ratio) << threads;
        EXPECT_EQ(delivered / arrived, r.delivery_ratio) << threads;
        EXPECT_EQ(reg.gauge("richnote.run.precision"), r.precision) << threads;
        EXPECT_EQ(reg.gauge("richnote.run.recall"), r.recall) << threads;
        EXPECT_EQ(reg.gauge("richnote.run.mean_queuing_delay_sec") / 60.0, r.mean_delay_min)
            << threads;
        EXPECT_EQ(reg.gauge("richnote.run.energy_joules_total") / 1000.0, r.energy_kj)
            << threads;
        EXPECT_EQ(reg.gauge("richnote.delivery.bytes_total") / 1e6, r.delivered_mb) << threads;
        EXPECT_EQ(reg.gauge("richnote.delivery.metered_bytes_total") / 1e6, r.metered_mb)
            << threads;
        EXPECT_EQ(r.avg_utility, r.total_utility / delivered) << threads;
        EXPECT_EQ(reg.counter("richnote.faults.duplicates_suppressed_total"),
                  r.faults.duplicates_suppressed)
            << threads;
        EXPECT_EQ(reg.counter("richnote.faults.injected_total"), r.faults.faults_injected)
            << threads;
    }
}

/// Every run_totals field, compared exactly.
void expect_same_totals(const richnote::core::run_totals& a,
                        const richnote::core::run_totals& b) {
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.clicked_total, b.clicked_total);
    EXPECT_EQ(a.delivered_clicked, b.delivered_clicked);
    EXPECT_EQ(a.delivered_before_click, b.delivered_before_click);
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
    EXPECT_EQ(a.metered_bytes_delivered, b.metered_bytes_delivered);
    EXPECT_EQ(a.utility, b.utility);
    EXPECT_EQ(a.utility_clicked, b.utility_clicked);
    EXPECT_EQ(a.energy_joules, b.energy_joules);
    EXPECT_EQ(a.queuing_delay_sec.count(), b.queuing_delay_sec.count());
    EXPECT_EQ(a.queuing_delay_sec.mean(), b.queuing_delay_sec.mean());
    EXPECT_EQ(a.queuing_delay_sec.variance(), b.queuing_delay_sec.variance());
    EXPECT_EQ(a.queuing_delay_sec.min(), b.queuing_delay_sec.min());
    EXPECT_EQ(a.queuing_delay_sec.max(), b.queuing_delay_sec.max());
    EXPECT_EQ(a.queuing_delay_sec.sum(), b.queuing_delay_sec.sum());
    EXPECT_EQ(a.faults.faults_injected, b.faults.faults_injected);
    EXPECT_EQ(a.faults.transfer_retries, b.faults.transfer_retries);
    EXPECT_EQ(a.faults.dead_lettered, b.faults.dead_lettered);
    EXPECT_EQ(a.faults.duplicates_suppressed, b.faults.duplicates_suppressed);
    EXPECT_EQ(a.faults.crash_restarts, b.faults.crash_restarts);
    EXPECT_EQ(a.faults.partial_bytes, b.faults.partial_bytes);
    EXPECT_EQ(a.faults.resumed_bytes, b.faults.resumed_bytes);
}

TEST_F(service_test, cached_totals_equal_a_fresh_fleet_walk) {
    // totals() walks the fleet at most once per round and serves that walk
    // until the next one. Whatever happens between rounds — a reshard,
    // catch-ups through user_broker() — it must still equal a fresh walk.
    service_params sp = serve_params(2);
    sp.user_count = 200; // most brokers lag behind the 24 trace users'
    notification_service svc(*setup_, sp);
    const std::vector<notification> items = by_creation_time(*setup_);
    run_interleaved(svc, items, 90, [&](std::uint64_t r) {
        SCOPED_TRACE(r);
        expect_same_totals(svc.totals(), svc.metrics().totals());
        if (r == 30) {
            svc.reshard(3);
            expect_same_totals(svc.totals(), svc.metrics().totals());
        }
        if (r % 7 == 0) {
            for (richnote::trace::user_id u = 0; u < sp.user_count; u += 13)
                (void)svc.user_broker(u);
            expect_same_totals(svc.totals(), svc.metrics().totals());
        }
    });
    expect_same_totals(svc.totals(), svc.metrics().totals());
    EXPECT_GT(svc.totals().delivered, 0u);
    EXPECT_GT(svc.counters().caught_up_rounds, 0u);
}

TEST_F(service_test, ingest_order_within_a_round_does_not_matter) {
    // Out-of-order timestamps on the wire: a whole workload delivered in
    // reverse (and interleaved across users) is canonicalised at the round
    // boundary, so outputs match the in-order replay bitwise.
    notification_service in_order(*setup_, serve_params(2));
    ingest_workload(in_order);
    in_order.run_rounds(40);

    notification_service reversed(*setup_, serve_params(2));
    std::vector<notification> all;
    for (const auto& stream : setup_->world().notifications().per_user)
        all.insert(all.end(), stream.begin(), stream.end());
    std::reverse(all.begin(), all.end());
    for (const notification& n : all)
        ASSERT_EQ(reversed.ingest(n), ingest_status::accepted);
    reversed.run_rounds(40);

    expect_identical(in_order.summarize(), reversed.summarize());
}

TEST_F(service_test, deferral_is_exact_on_sparse_traffic) {
    // A fleet far larger than the trace, fed round by round: most brokers
    // never see an item and the rest go idle for long stretches between
    // arrivals, so nearly every broker-round is deferred and caught up.
    // The reference is the sweep the service used to do — every broker
    // built by make_user_broker and run every round — and every broker's
    // full state must match it bit for bit.
    constexpr std::size_t fleet = 2000;
    const experiment_params ep = batch_params();
    const std::uint64_t rounds =
        static_cast<std::uint64_t>(setup_->world().params().horizon / ep.round) + 12;

    // Scatter the trace's users over the fleet, out of id order, so the
    // active list sees gaps and unsorted arrivals.
    std::vector<notification> items = by_creation_time(*setup_);
    for (notification& n : items)
        n.recipient =
            static_cast<richnote::trace::user_id>((n.recipient * 769u + 11u) % fleet);

    // Reference: the full sweep.
    const richnote::core::audio_preview_generator base(ep.presentation);
    std::vector<double> durations;
    for (const auto& t : setup_->world().catalog().tracks())
        durations.push_back(t.duration_sec);
    const richnote::core::memoized_presentation_generator generator(base, durations);
    const richnote::energy::energy_model energy;
    richnote::core::metrics_recorder ref_metrics(
        fleet, ep.presentation.preview_durations_sec.size() + 1);
    richnote::core::broker_build_context ctx;
    ctx.params = &ep;
    ctx.generator = &generator;
    ctx.utility = &setup_->raw_model();
    ctx.energy = &energy;
    ctx.catalog = &setup_->world().catalog();
    ctx.metrics = &ref_metrics;
    ctx.theta = richnote::core::round_budget_bytes(ep);
    ctx.battery_horizon = setup_->world().params().horizon + ep.round;
    std::vector<broker> ref;
    ref.reserve(fleet);
    for (richnote::trace::user_id u = 0; u < fleet; ++u)
        ref.push_back(richnote::core::make_user_broker(ctx, u, 0));
    {
        std::vector<std::vector<notification>> due(fleet);
        std::size_t next = 0;
        richnote::sim::sim_time now = 0.0;
        for (std::uint64_t r = 0; r < rounds; ++r) {
            for (; next < items.size() && items[next].created_at <= now; ++next)
                due[items[next].recipient].push_back(items[next]);
            for (std::size_t u = 0; u < fleet; ++u) {
                // The canonical admission order: fast class first, then
                // (created_at, id).
                std::sort(due[u].begin(), due[u].end(),
                          [](const notification& a, const notification& b) {
                              const bool fa = a.type == notification_type::friend_feed;
                              const bool fb = b.type == notification_type::friend_feed;
                              if (fa != fb) return fa;
                              if (a.created_at != b.created_at)
                                  return a.created_at < b.created_at;
                              return a.id < b.id;
                          });
                for (const notification& n : due[u]) ref[u].admit(n);
                due[u].clear();
                ref[u].run_round(now);
            }
            now += ep.round;
        }
    }

    for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(threads);
        service_params sp = serve_params(threads);
        sp.user_count = fleet;
        notification_service svc(*setup_, sp);
        std::size_t max_active = 0;
        std::uint64_t swept = 0; ///< broker-rounds the rounds themselves ran
        run_interleaved(svc, items, rounds, [&](std::uint64_t r) {
            if (r == rounds / 2) svc.reshard(threads == 1 ? 3 : 1);
            // Expose some brokers mid-run as well: one caught up by
            // user_broker() goes on idling, and its next catch-up must
            // resume from the round it was brought to.
            if (r % 10 == 0) {
                for (auto u = static_cast<richnote::trace::user_id>(r % 50); u < fleet; u += 50)
                    EXPECT_EQ(svc.user_broker(u).rounds_run(), r);
            }
            if (r > 0) swept += svc.counters().active_users;
            max_active = std::max(max_active, svc.counters().active_users);
        });
        ASSERT_EQ(svc.rounds_run(), rounds);
        swept += svc.counters().active_users;

        const auto c = svc.counters();
        EXPECT_EQ(c.admitted, items.size());
        EXPECT_EQ(c.reshards, 1u);
        EXPECT_GT(max_active, 0u);
        EXPECT_LT(max_active, 100u) << "deferral was barely exercised";
        EXPECT_GT(c.caught_up_rounds, 0u);

        // Bring every broker current (user_broker catches it up), then
        // compare with the sweep.
        for (richnote::trace::user_id u = 0; u < fleet; ++u) {
            SCOPED_TRACE(u);
            const broker& b = svc.user_broker(u);
            EXPECT_EQ(b.rounds_run(), rounds);
            expect_same_broker(b, ref[u]);
            expect_same_user_metrics(svc.metrics().user(u), ref_metrics.user(u));
        }
        // Every broker-round ran exactly once: in its round or in a
        // catch-up.
        EXPECT_EQ(swept + svc.counters().caught_up_rounds, fleet * rounds);
    }
}

TEST_F(service_test, exports_active_users_and_caught_up_rounds) {
    service_params sp = serve_params(2);
    sp.user_count = 100;
    notification_service svc(*setup_, sp);
    svc.run_rounds(5); // nothing ingested: no broker runs at all
    EXPECT_EQ(svc.counters().active_users, 0u);
    EXPECT_EQ(svc.counters().caught_up_rounds, 0u);

    notification n = setup_->world().notifications().per_user[2][0];
    n.created_at = 0.0;
    ASSERT_EQ(svc.ingest(n), ingest_status::accepted);
    svc.run_round();
    // One broker ran, after replaying the five rounds it had missed.
    EXPECT_EQ(svc.counters().active_users, 1u);
    EXPECT_EQ(svc.counters().caught_up_rounds, 5u);
    // Exposing a lagging broker catches it up too.
    EXPECT_EQ(svc.user_broker(7).rounds_run(), 6u);
    EXPECT_EQ(svc.counters().caught_up_rounds, 11u);

    richnote::obs::metrics_registry registry;
    svc.export_service_metrics(svc.metrics().totals(), registry);
    EXPECT_EQ(registry.gauge("richnote.service.active_users"), 1.0);
    EXPECT_EQ(registry.counter("richnote.service.caught_up_rounds_total"), 11u);
}

TEST_F(service_test, thread_counts_above_the_pool_ceiling_are_rejected) {
    const std::size_t too_many = richnote::core::worker_pool::max_threads + 1;
    EXPECT_THROW(notification_service(*setup_, serve_params(too_many)),
                 richnote::precondition_error);
    EXPECT_THROW(notification_service(*setup_, serve_params(0)), richnote::precondition_error);
    EXPECT_THROW(richnote::core::worker_pool{too_many}, richnote::precondition_error);

    // A rejected reshard leaves the service untouched and running.
    notification_service svc(*setup_, serve_params(2));
    ingest_workload(svc);
    svc.run_rounds(10);
    EXPECT_THROW(svc.reshard(too_many), richnote::precondition_error);
    EXPECT_THROW(svc.reshard(99'999'999), richnote::precondition_error);
    EXPECT_THROW(svc.reshard(0), richnote::precondition_error);
    EXPECT_EQ(svc.worker_threads(), 2u);
    EXPECT_EQ(svc.counters().reshards, 0u);
    svc.run_rounds(30);

    notification_service straight(*setup_, serve_params(2));
    ingest_workload(straight);
    straight.run_rounds(40);
    expect_identical(svc.summarize(), straight.summarize());
}

TEST_F(service_test, rejects_unknown_users_and_bad_lines) {
    service_params sp = serve_params(1);
    sp.user_count = 8; // smaller fleet than the trace
    notification_service svc(*setup_, sp);

    notification n = setup_->world().notifications().per_user[1][0];
    n.recipient = 8; // first id outside the fleet
    EXPECT_EQ(svc.ingest(n), ingest_status::unknown_user);
    std::string error;
    EXPECT_EQ(svc.ingest_line("{\"garbage\":", &error), ingest_status::parse_error);
    EXPECT_EQ(error, "bad json");
    const auto counters = svc.counters();
    EXPECT_EQ(counters.ingest_rejected_user, 1u);
    EXPECT_EQ(counters.ingest_rejected_parse, 1u);
    EXPECT_EQ(counters.ingest_accepted, 0u);
}

TEST_F(service_test, concurrent_ingest_is_race_free) {
    // Four producer threads hammer the MPSC ring while counters are read;
    // under --tsan this is the data-race proof for the ingest plane.
    notification_service svc(*setup_, serve_params(2));
    const auto& per_user = setup_->world().notifications().per_user;
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < 4; ++t) {
        producers.emplace_back([&, t] {
            for (std::size_t u = t; u < per_user.size(); u += 4) {
                for (const notification& n : per_user[u]) {
                    // Spin on backpressure: the ring is sized generously,
                    // but the test must not drop on a slow machine.
                    while (svc.ingest_line(richnote::core::format_wire_line(n)) ==
                           ingest_status::backpressure) {
                        std::this_thread::yield();
                    }
                }
            }
        });
    }
    for (auto& p : producers) p.join();

    EXPECT_EQ(svc.counters().ingest_accepted,
              setup_->world().notifications().total_count);
    svc.run_rounds(200); // past the trace horizon, so everything comes due
    EXPECT_EQ(svc.counters().admitted, setup_->world().notifications().total_count);
    EXPECT_EQ(svc.counters().pending, 0u);
}

TEST_F(service_test, lifecycle_tracking_never_changes_outputs) {
    // The zero-interference contract: attaching a lifecycle tracker (and a
    // trace sink) must leave every simulation output bit-identical.
    notification_service plain(*setup_, serve_params(2));
    ingest_workload(plain);
    plain.run_rounds(50);

    richnote::obs::lifecycle_tracker lifecycle;
    richnote::obs::trace_sink sink(setup_->world().user_count());
    service_params sp = serve_params(2);
    sp.experiment.lifecycle = &lifecycle;
    sp.experiment.trace = &sink;
    notification_service traced(*setup_, sp);
    ingest_workload(traced);
    traced.run_rounds(50);

    expect_identical(plain.summarize(), traced.summarize());

    // The tracker saw every accepted notification and accounted for each
    // one exactly once: still in flight, delivered, or dead-lettered.
    const auto c = traced.counters();
    EXPECT_GT(lifecycle.delivered(), 0u);
    EXPECT_EQ(lifecycle.tracked() + lifecycle.delivered() + lifecycle.dead_lettered(),
              c.ingest_accepted);

    richnote::obs::metrics_registry registry;
    traced.export_service_metrics(traced.metrics().totals(), registry);
    EXPECT_EQ(registry.get_histogram("richnote.svc.e2e_us").total_count(),
              lifecycle.delivered());
    EXPECT_EQ(registry.counter("richnote.svc.ingest_accepted"), c.ingest_accepted);
}

TEST_F(service_test, lifecycle_trace_is_byte_identical_across_worker_counts) {
    // The deterministic plane: lc_ingest/lc_admit ride the trace sink's
    // merged stream, which must not depend on sharding or reruns.
    const auto trace_of = [&](std::size_t threads) {
        richnote::obs::trace_sink sink(setup_->world().user_count());
        service_params sp = serve_params(threads);
        sp.experiment.trace = &sink;
        notification_service svc(*setup_, sp);
        ingest_workload(svc);
        svc.run_rounds(40);
        std::ostringstream out;
        sink.write_ndjson(out);
        return out.str();
    };

    const std::string one = trace_of(1);
    EXPECT_NE(one.find("\"type\":\"lc_ingest\""), std::string::npos);
    EXPECT_NE(one.find("\"type\":\"lc_admit\""), std::string::npos);
    EXPECT_EQ(one, trace_of(2));
    EXPECT_EQ(one, trace_of(8));
    EXPECT_EQ(one, trace_of(2)); // rerun at the same count, same bytes

    // ...and so is the explain reconstruction built from it.
    const std::uint64_t id = setup_->world().notifications().per_user[0][0].id;
    std::ostringstream first;
    std::ostringstream second;
    {
        std::istringstream in(one);
        ASSERT_TRUE(richnote::obs::write_explain(in, id, first));
    }
    {
        std::istringstream in(trace_of(8));
        ASSERT_TRUE(richnote::obs::write_explain(in, id, second));
    }
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("ingested"), std::string::npos) << first.str();
    EXPECT_NE(first.str().find("admitted"), std::string::npos);
}

TEST_F(service_test, interleaved_trace_matches_the_golden_digest) {
    // Pins the serve plane's bytes across commits: lc_ingest/lc_admit plus
    // the broker events of a round-by-round wire replay in which users go
    // idle between arrivals, with a reshard halfway through.
    richnote::obs::trace_sink sink(setup_->world().user_count());
    service_params sp = serve_params(2);
    sp.experiment.trace = &sink;
    notification_service svc(*setup_, sp);
    const std::uint64_t rounds =
        static_cast<std::uint64_t>(setup_->world().params().horizon / sp.experiment.round) + 12;
    run_interleaved(svc, by_creation_time(*setup_), rounds, [&](std::uint64_t r) {
        if (r == rounds / 2) svc.reshard(3);
    });
    std::ostringstream out;
    sink.write_ndjson(out);
    const std::string stream = out.str();
    EXPECT_NE(stream.find("\"type\":\"lc_ingest\""), std::string::npos);
    EXPECT_NE(stream.find("\"type\":\"lc_admit\""), std::string::npos);
    richnote::test::compare_or_update("trace_serve_interleaved.digest",
                                      richnote::test::digest_of(stream));
}

TEST_F(service_test, backpressure_abandons_the_lifecycle_stamp) {
    richnote::obs::lifecycle_tracker lifecycle;
    service_params sp = serve_params(1);
    sp.queue_capacity = 4;
    sp.experiment.lifecycle = &lifecycle;
    notification_service svc(*setup_, sp);

    const auto& stream = setup_->world().notifications().per_user[0];
    ASSERT_GE(stream.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) svc.ingest(stream[i]);
    // 4 slots: the two rejected pushes must not linger as in-flight ghosts.
    EXPECT_EQ(svc.counters().ingest_rejected_backpressure, 2u);
    EXPECT_EQ(lifecycle.tracked(), 4u);
}

TEST(service_oracle, rejects_a_fleet_the_click_model_cannot_score) {
    // The oracle's click model knows only the workload's users; a larger
    // fleet would throw inside a worker slot on its first admission for an
    // unknown user, so the constructor refuses it by name.
    experiment_setup::options opts;
    opts.workload.user_count = 4;
    opts.workload.catalog.artist_count = 20;
    opts.workload.playlist_count = 4;
    opts.oracle_utility = true;
    opts.seed = 3;
    const experiment_setup setup(opts);
    service_params sp;
    sp.user_count = 5;
    try {
        notification_service svc(setup, sp);
        FAIL() << "an oracle fleet beyond the workload was accepted";
    } catch (const richnote::precondition_error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "oracle utility cannot score users outside the training workload"),
                  std::string::npos)
            << e.what();
    }
    sp.user_count = 4;
    EXPECT_NO_THROW(notification_service(setup, sp));
}

/// One seed of the wire-vs-batch property with a mixed fault plan: the
/// engine applies the same reorders, duplicates, blackouts, brownouts,
/// partial transfers and crash-restarts in both modes.
void expect_faulted_wire_matches_batch(std::uint64_t seed, bool interleaved) {
    experiment_setup::options opts;
    opts.workload.user_count = 4;
    opts.workload.catalog.artist_count = 20;
    opts.workload.playlist_count = 4;
    opts.workload.horizon = 24.0 * 3600.0; // one day
    opts.oracle_utility = true;
    opts.seed = seed;
    const experiment_setup setup(opts);

    experiment_params p;
    p.kind = seed % 2 == 0 ? scheduler_kind::fifo : scheduler_kind::richnote;
    p.weekly_budget_mb = 10.0;
    p.seed = seed * 11;
    p.faults.seed = seed;
    p.faults.blackout_prob = 0.05;
    p.faults.partial_transfer_prob = 0.2;
    p.faults.duplicate_prob = 0.1;
    p.faults.reorder_prob = 0.3;
    p.faults.brownout_prob = 0.05;
    p.faults.crash_restart_prob = 0.03;
    p.retry.max_attempts = 4;
    const experiment_result batch = run_experiment(setup, p);

    service_params sp;
    sp.experiment = p;
    sp.worker_threads = 1 + seed % 3;
    notification_service svc(setup, sp);
    if (interleaved) {
        run_interleaved(svc, by_creation_time(setup), batch.rounds_run);
    } else {
        for (const notification& n : by_creation_time(setup))
            ASSERT_EQ(svc.ingest_line(richnote::core::format_wire_line(n)),
                      ingest_status::accepted);
        svc.run_rounds(batch.rounds_run);
    }
    const experiment_result served = svc.summarize();
    ASSERT_EQ(served.total_utility, batch.total_utility) << "seed " << seed;
    ASSERT_EQ(served.delivery_ratio, batch.delivery_ratio) << "seed " << seed;
    ASSERT_EQ(served.mean_delay_min, batch.mean_delay_min) << "seed " << seed;
    ASSERT_EQ(served.final_queue_items, batch.final_queue_items) << "seed " << seed;
    ASSERT_EQ(served.faults.faults_injected, batch.faults.faults_injected) << "seed " << seed;
    ASSERT_EQ(served.faults.duplicates_suppressed, batch.faults.duplicates_suppressed)
        << "seed " << seed;
    ASSERT_EQ(served.faults.crash_restarts, batch.faults.crash_restarts) << "seed " << seed;
    ASSERT_EQ(served.faults.partial_bytes, batch.faults.partial_bytes) << "seed " << seed;
}

TEST(service_property, faulted_wire_replay_matches_batch_on_every_third_seed) {
    // The fault-plan cases of the two 200-seed properties below: every
    // third seed, with the wire fed up front and round by round.
    for (std::uint64_t seed = 3; seed <= 200; seed += 3) {
        expect_faulted_wire_matches_batch(seed, false);
        expect_faulted_wire_matches_batch(seed, true);
    }
}

TEST(service_property, wire_replay_matches_batch_across_many_seeds) {
    // 200 seeds of tiny workloads, oracle utility (no forest training):
    // for every one, total utility and delivery ratio of the wire replay
    // must equal the batch run bit-for-bit.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        experiment_setup::options opts;
        opts.workload.user_count = 4;
        opts.workload.catalog.artist_count = 20;
        opts.workload.playlist_count = 4;
        opts.workload.horizon = 24.0 * 3600.0; // one day
        opts.oracle_utility = true;
        opts.seed = seed;
        const experiment_setup setup(opts);

        experiment_params p;
        p.kind = seed % 3 == 0 ? scheduler_kind::fifo : scheduler_kind::richnote;
        p.weekly_budget_mb = seed % 2 == 0 ? 2.0 : 10.0;
        p.seed = seed * 11;
        const experiment_result batch = run_experiment(setup, p);

        service_params sp;
        sp.experiment = p;
        sp.worker_threads = 1 + seed % 3;
        notification_service svc(setup, sp);
        for (const auto& stream : setup.world().notifications().per_user) {
            for (const notification& n : stream) {
                ASSERT_EQ(svc.ingest_line(richnote::core::format_wire_line(n)),
                          ingest_status::accepted);
            }
        }
        svc.run_rounds(batch.rounds_run);

        const experiment_result served = svc.summarize();
        ASSERT_EQ(served.total_utility, batch.total_utility) << "seed " << seed;
        ASSERT_EQ(served.delivery_ratio, batch.delivery_ratio) << "seed " << seed;
        ASSERT_EQ(served.mean_delay_min, batch.mean_delay_min) << "seed " << seed;
    }
}

TEST(service_property, interleaved_wire_replay_matches_batch_across_many_seeds) {
    // The same 200 seeds, but each round's due items arrive over the wire
    // just before that round instead of all up front: users go idle
    // between arrivals, so their brokers are deferred and caught up, and
    // the result must still equal the batch run bit for bit.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        experiment_setup::options opts;
        opts.workload.user_count = 4;
        opts.workload.catalog.artist_count = 20;
        opts.workload.playlist_count = 4;
        opts.workload.horizon = 24.0 * 3600.0; // one day
        opts.oracle_utility = true;
        opts.seed = seed;
        const experiment_setup setup(opts);

        experiment_params p;
        p.kind = seed % 3 == 0 ? scheduler_kind::fifo : scheduler_kind::richnote;
        p.weekly_budget_mb = seed % 2 == 0 ? 2.0 : 10.0;
        p.seed = seed * 11;
        const experiment_result batch = run_experiment(setup, p);

        service_params sp;
        sp.experiment = p;
        sp.worker_threads = 1 + seed % 3;
        notification_service svc(setup, sp);
        run_interleaved(svc, by_creation_time(setup), batch.rounds_run);

        const experiment_result served = svc.summarize();
        ASSERT_EQ(served.total_utility, batch.total_utility) << "seed " << seed;
        ASSERT_EQ(served.delivery_ratio, batch.delivery_ratio) << "seed " << seed;
        ASSERT_EQ(served.mean_delay_min, batch.mean_delay_min) << "seed " << seed;
        ASSERT_EQ(served.final_queue_items, batch.final_queue_items) << "seed " << seed;
    }
}

} // namespace
