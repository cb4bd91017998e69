// Chaos soak: hundreds of rounds under a mixed fault plan (blackouts,
// partial transfers, duplicated arrivals, brownouts, crash-restarts) with
// the pipeline invariants checked at every round boundary:
//   - the data budget never goes negative;
//   - queue_bytes() equals the sum over the queued items;
//   - nothing is delivered twice (conservation of admitted items);
//   - Q(t) and P(t) stay bounded.
// Plus the determinism guarantees at experiment scale: a crash-only fault
// plan is lossless (identical to the fault-free run), and a full-chaos run
// is bit-identical however users are sharded across worker threads — and
// whether it is replayed in batch or served from a concurrently fed wire.
#include "core/broker.hpp"
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/presentation.hpp"
#include "core/scheduler.hpp"
#include "core/service.hpp"
#include "core/utility.hpp"
#include "core/wire.hpp"
#include "faults/fault_plan.hpp"
#include "trace/generator.hpp"

namespace {

using richnote::core::audio_preview_generator;
using richnote::core::broker;
using richnote::core::broker_params;
using richnote::core::constant_content_utility;
using richnote::core::experiment_params;
using richnote::core::experiment_setup;
using richnote::core::fifo_scheduler;
using richnote::core::metrics_recorder;
using richnote::core::queue_scheduler_base;
using richnote::core::retry_policy;
using richnote::core::richnote_scheduler;
using richnote::core::run_experiment;
using richnote::core::scheduler_kind;
using richnote::faults::fault_plan;
using richnote::faults::fault_plan_params;
namespace t = richnote::sim;

fault_plan_params mixed_chaos(std::uint64_t seed) {
    fault_plan_params fp;
    fp.seed = seed;
    fp.blackout_prob = 0.05;
    fp.blackout_rounds = 3;
    fp.partial_transfer_prob = 0.20;
    fp.min_transfer_fraction = 0.25;
    fp.duplicate_prob = 0.10;
    fp.reorder_prob = 0.10;
    fp.brownout_prob = 0.05;
    fp.brownout_rounds = 2;
    fp.crash_restart_prob = 0.03;
    return fp;
}

// ------------------------------------------------ broker-level soak ----

class chaos_soak : public ::testing::Test {
protected:
    chaos_soak() : generator_(audio_preview_generator::params{}), utility_(0.5) {
        richnote::trace::catalog_params cp;
        cp.artist_count = 20;
        richnote::rng cat_gen(3);
        catalog_ = std::make_unique<richnote::trace::catalog>(cp, cat_gen);
    }

    broker make_broker(metrics_recorder& metrics, const fault_plan& plan,
                       std::unique_ptr<richnote::core::scheduler> sched,
                       double theta_bytes) {
        broker_params bp;
        bp.budget_per_round_bytes = theta_bytes;
        bp.faults = &plan;
        richnote::rng bat_gen(7);
        t::battery_params batp;
        batp.phase_jitter_hours = 0;
        auto battery = std::make_unique<t::battery_model>(batp, bat_gen);
        return broker(0, bp, std::move(sched), generator_, utility_, energy_,
                      t::markov_network_model::fixed(t::net_state::cell),
                      std::move(battery), *catalog_, metrics, 99);
    }

    richnote::trace::notification make_note(std::uint64_t id, double created_at) {
        richnote::trace::notification n;
        n.id = id;
        n.recipient = 0;
        n.track = 0;
        n.created_at = created_at;
        n.features.social_tie = 0.5;
        return n;
    }

    /// Drives `rounds` rounds of mixed chaos against one broker, checking
    /// every invariant at every round boundary. Returns the final metrics
    /// conservation terms via the out-params.
    void soak(broker& b, metrics_recorder& metrics, int rounds) {
        const auto* qs = dynamic_cast<const queue_scheduler_base*>(&b.sched());
        ASSERT_NE(qs, nullptr);

        std::uint64_t last_delivered = 0;
        for (int r = 0; r < rounds; ++r) {
            const double now = r * t::default_round;
            const auto id = static_cast<std::uint64_t>(r);
            b.admit(make_note(id, now));
            // An at-least-once upstream replays every 7th publish.
            if (r % 7 == 3) b.admit(make_note(id, now));

            b.run_round(now);

            // Invariant: the data budget is never driven negative.
            ASSERT_GE(b.data_budget(), -1e-9) << "round " << r;

            // Invariant: queue_bytes() matches the queue contents exactly.
            double sum = 0.0;
            for (const auto& item : qs->queued_items())
                sum += item.presentations.total_size();
            ASSERT_NEAR(qs->queue_bytes(), sum, 1e-6) << "round " << r;

            // Invariant: deliveries are monotone and never exceed the
            // distinct items admitted (no double delivery).
            const auto totals = metrics.totals();
            ASSERT_GE(totals.delivered, last_delivered) << "round " << r;
            ASSERT_LE(totals.delivered, totals.arrived) << "round " << r;
            last_delivered = totals.delivered;

            // Invariant: Q(t) stays bounded (delivery keeps up with the
            // one-item-per-round admission despite the injected faults).
            ASSERT_LE(qs->queue_size(), 100u) << "round " << r;

            // Invariant: P(t) stays bounded.
            ASSERT_LE(std::fabs(b.sched().energy_credit_joules()), 1e6)
                << "round " << r;
        }
    }

    audio_preview_generator generator_;
    constant_content_utility utility_;
    richnote::energy::energy_model energy_;
    std::unique_ptr<richnote::trace::catalog> catalog_;
};

TEST_F(chaos_soak, fifo_survives_600_rounds_of_mixed_faults) {
    const fault_plan plan(mixed_chaos(17));
    metrics_recorder metrics(1, 6);
    auto sched = std::make_unique<fifo_scheduler>(3, energy_);
    retry_policy retry;
    retry.max_attempts = 6;
    retry.backoff_base_sec = 1800.0;
    retry.backoff_cap_sec = 2.0 * t::default_round;
    sched->set_retry_policy(retry);
    auto b = make_broker(metrics, plan, std::move(sched), 600'000.0);

    const int rounds = 600;
    soak(b, metrics, rounds);

    // The chaos actually happened.
    const auto& u = metrics.user(0);
    EXPECT_GT(u.faults.faults_injected, 0u) << "blackouts/brownouts should fire";
    EXPECT_GT(u.faults.transfer_retries, 0u) << "partial transfers should fire";
    EXPECT_GT(u.faults.duplicates_suppressed, 0u);
    EXPECT_GT(u.faults.crash_restarts, 0u);
    EXPECT_GT(u.faults.resumed_bytes, 0.0) << "resume from the high-water mark";

    // Conservation: every admitted item is exactly one of delivered,
    // still queued, or dead-lettered (FIFO never expires or declines).
    const auto* qs = dynamic_cast<const queue_scheduler_base*>(&b.sched());
    ASSERT_NE(qs, nullptr);
    EXPECT_EQ(metrics.totals().arrived,
              u.delivered + qs->queue_size() + qs->dead_lettered());
    // Most items still make it through despite the chaos.
    EXPECT_GT(metrics.totals().delivery_ratio(), 0.7);
}

TEST_F(chaos_soak, richnote_survives_600_rounds_of_mixed_faults) {
    const fault_plan plan(mixed_chaos(23));
    metrics_recorder metrics(1, 6);
    richnote_scheduler::params rp;
    rp.max_queue_age_sec = 72.0 * 3600.0; // exercise expiry under chaos too
    auto sched = std::make_unique<richnote_scheduler>(rp, energy_);
    auto* sched_raw = sched.get();
    retry_policy retry;
    retry.max_attempts = 6;
    retry.backoff_base_sec = 1800.0;
    retry.backoff_cap_sec = 2.0 * t::default_round;
    sched->set_retry_policy(retry);
    auto b = make_broker(metrics, plan, std::move(sched), 600'000.0);

    const int rounds = 600;
    soak(b, metrics, rounds);

    const auto& u = metrics.user(0);
    EXPECT_GT(u.faults.faults_injected, 0u);
    EXPECT_GT(u.faults.transfer_retries, 0u);
    EXPECT_GT(u.faults.crash_restarts, 0u);

    // Conservation with the RichNote drop paths included.
    EXPECT_EQ(metrics.totals().arrived,
              u.delivered + sched_raw->queue_size() + sched_raw->dead_lettered() +
                  sched_raw->expired_items() + sched_raw->dropped_low_utility());
    EXPECT_GT(metrics.totals().delivery_ratio(), 0.7);
}

// --------------------------------------- experiment-scale determinism ----

class chaos_experiment : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        experiment_setup::options opts;
        opts.workload.user_count = 40;
        opts.workload.catalog.artist_count = 80;
        opts.workload.playlist_count = 15;
        opts.forest.tree_count = 10;
        opts.seed = 21;
        setup_ = new experiment_setup(opts);
    }
    static void TearDownTestSuite() {
        delete setup_;
        setup_ = nullptr;
    }

    static experiment_params chaos_params(double budget_mb = 10.0) {
        experiment_params p;
        p.kind = scheduler_kind::richnote;
        p.weekly_budget_mb = budget_mb;
        p.seed = 5;
        p.faults = mixed_chaos(7);
        p.retry.max_attempts = 6;
        p.retry.backoff_base_sec = 1200.0;
        return p;
    }

    static experiment_setup* setup_;
};

experiment_setup* chaos_experiment::setup_ = nullptr;

TEST_F(chaos_experiment, crash_restarts_are_lossless_at_experiment_scale) {
    // A fault plan injecting ONLY crash-restarts must reproduce the
    // fault-free run exactly: recovery from checkpoints loses nothing.
    auto faulty = chaos_params();
    faulty.faults = fault_plan_params{};
    faulty.faults.seed = 7;
    faulty.faults.crash_restart_prob = 0.2;
    auto clean = chaos_params();
    clean.faults = fault_plan_params{};
    clean.retry = retry_policy{};

    const auto a = run_experiment(*setup_, clean);
    const auto b = run_experiment(*setup_, faulty);

    EXPECT_GT(b.faults.crash_restarts, 100u) << "the plan should crash often";
    EXPECT_NEAR(a.total_utility, b.total_utility, 1e-9);
    EXPECT_NEAR(a.delivered_mb, b.delivered_mb, 1e-9);
    EXPECT_NEAR(a.energy_kj, b.energy_kj, 1e-9);
    EXPECT_NEAR(a.precision, b.precision, 1e-9);
    EXPECT_NEAR(a.mean_delay_min, b.mean_delay_min, 1e-9);
}

TEST_F(chaos_experiment, full_chaos_is_deterministic_across_worker_counts) {
    // Same seed + same fault plan => identical results no matter how users
    // are sharded (every fault query is a pure function of the seed).
    auto p1 = chaos_params();
    auto p4 = chaos_params();
    p4.worker_threads = 4;
    const auto sequential = run_experiment(*setup_, p1);
    const auto threaded = run_experiment(*setup_, p4);

    EXPECT_DOUBLE_EQ(sequential.total_utility, threaded.total_utility);
    EXPECT_DOUBLE_EQ(sequential.delivered_mb, threaded.delivered_mb);
    EXPECT_DOUBLE_EQ(sequential.energy_kj, threaded.energy_kj);
    EXPECT_DOUBLE_EQ(sequential.precision, threaded.precision);
    EXPECT_EQ(sequential.faults.faults_injected, threaded.faults.faults_injected);
    EXPECT_EQ(sequential.faults.transfer_retries, threaded.faults.transfer_retries);
    EXPECT_EQ(sequential.faults.dead_lettered, threaded.faults.dead_lettered);
    EXPECT_EQ(sequential.faults.duplicates_suppressed,
              threaded.faults.duplicates_suppressed);
    EXPECT_EQ(sequential.faults.crash_restarts, threaded.faults.crash_restarts);
    EXPECT_DOUBLE_EQ(sequential.faults.partial_bytes, threaded.faults.partial_bytes);
    EXPECT_DOUBLE_EQ(sequential.faults.resumed_bytes, threaded.faults.resumed_bytes);
}

TEST_F(chaos_experiment, chaos_degrades_delivery_but_counters_surface_it) {
    const auto clean = run_experiment(*setup_, [] {
        auto p = chaos_params();
        p.faults = fault_plan_params{};
        p.retry = retry_policy{};
        return p;
    }());
    const auto chaotic = run_experiment(*setup_, chaos_params());

    // Every fault class fired and was counted.
    EXPECT_GT(chaotic.faults.faults_injected, 0u);
    EXPECT_GT(chaotic.faults.transfer_retries, 0u);
    EXPECT_GT(chaotic.faults.duplicates_suppressed, 0u);
    EXPECT_GT(chaotic.faults.crash_restarts, 0u);
    EXPECT_GT(chaotic.faults.resumed_bytes, 0.0);
    EXPECT_EQ(clean.faults.faults_injected, 0u);
    EXPECT_EQ(clean.faults.transfer_retries, 0u);

    // Under chaos RichNote still delivers most items — resilience, not
    // collapse — but no more than the fault-free run.
    EXPECT_GT(chaotic.delivery_ratio, 0.8);
    EXPECT_LE(chaotic.delivery_ratio, clean.delivery_ratio + 1e-9);
}

TEST_F(chaos_experiment, served_full_chaos_matches_the_batch_run) {
    // The same chaos through notification_service: two producer threads
    // race the whole workload onto the admission ring, and the rounds run
    // on a sharded pool that is resharded halfway. The round engine applies
    // the fault plan identically in both modes, so the served result equals
    // the batch one bit for bit.
    const auto params = chaos_params();
    const auto batch = run_experiment(*setup_, params);

    richnote::core::service_params sp;
    sp.experiment = params;
    sp.worker_threads = 3;
    richnote::core::notification_service svc(*setup_, sp);
    const auto& per_user = setup_->world().notifications().per_user;
    std::vector<std::thread> producers;
    for (std::size_t half = 0; half < 2; ++half) {
        producers.emplace_back([&, half] {
            for (std::size_t u = half; u < per_user.size(); u += 2) {
                for (const auto& n : per_user[u]) {
                    EXPECT_EQ(svc.ingest_line(richnote::core::format_wire_line(n)),
                              richnote::core::notification_service::ingest_status::accepted);
                }
            }
        });
    }
    for (auto& t : producers) t.join();
    svc.run_rounds(batch.rounds_run / 2);
    svc.reshard(2);
    svc.run_rounds(batch.rounds_run - batch.rounds_run / 2);

    const auto served = svc.summarize();
    EXPECT_EQ(served.total_utility, batch.total_utility);
    EXPECT_EQ(served.delivered_mb, batch.delivered_mb);
    EXPECT_EQ(served.energy_kj, batch.energy_kj);
    EXPECT_EQ(served.mean_delay_min, batch.mean_delay_min);
    EXPECT_EQ(served.final_queue_items, batch.final_queue_items);
    EXPECT_EQ(served.faults.faults_injected, batch.faults.faults_injected);
    EXPECT_EQ(served.faults.transfer_retries, batch.faults.transfer_retries);
    EXPECT_EQ(served.faults.dead_lettered, batch.faults.dead_lettered);
    EXPECT_EQ(served.faults.duplicates_suppressed, batch.faults.duplicates_suppressed);
    EXPECT_EQ(served.faults.crash_restarts, batch.faults.crash_restarts);
    EXPECT_EQ(served.faults.partial_bytes, batch.faults.partial_bytes);
    EXPECT_EQ(served.faults.resumed_bytes, batch.faults.resumed_bytes);
    EXPECT_GT(served.faults.crash_restarts, 0u);
}

} // namespace
