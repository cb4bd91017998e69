// Resilient delivery pipeline at the broker level: idempotent admission,
// byte-level partial-transfer accounting with resume from the high-water
// mark, the legacy all-or-nothing flag, and lossless crash-restart
// recovery from checkpoints.
#include "core/broker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "core/presentation.hpp"
#include "core/scheduler.hpp"
#include "core/utility.hpp"
#include "faults/fault_plan.hpp"
#include "trace/generator.hpp"

namespace {

using richnote::core::audio_preview_generator;
using richnote::core::broker;
using richnote::core::broker_params;
using richnote::core::constant_content_utility;
using richnote::core::fifo_scheduler;
using richnote::core::metrics_recorder;
using richnote::core::richnote_scheduler;
using richnote::faults::fault_plan;
using richnote::faults::fault_plan_params;
namespace t = richnote::sim;

class broker_resilience : public ::testing::Test {
protected:
    broker_resilience() : generator_(audio_preview_generator::params{}), utility_(0.5) {
        richnote::trace::catalog_params cp;
        cp.artist_count = 20;
        richnote::rng cat_gen(3);
        catalog_ = std::make_unique<richnote::trace::catalog>(cp, cat_gen);
    }

    broker make_broker(metrics_recorder& metrics, double theta_bytes,
                       const broker_params* base = nullptr,
                       std::unique_ptr<richnote::core::scheduler> sched = nullptr) {
        broker_params bp = base ? *base : broker_params{};
        bp.budget_per_round_bytes = theta_bytes;
        if (!sched) sched = std::make_unique<fifo_scheduler>(3, energy_);
        richnote::rng bat_gen(7);
        t::battery_params batp;
        batp.phase_jitter_hours = 0;
        auto battery = std::make_unique<t::battery_model>(batp, bat_gen);
        return broker(0, bp, std::move(sched), generator_, utility_, energy_,
                      t::markov_network_model::fixed(t::net_state::cell),
                      std::move(battery), *catalog_, metrics, 99);
    }

    richnote::trace::notification make_note(std::uint64_t id, double created_at = 0.0) {
        richnote::trace::notification n;
        n.id = id;
        n.recipient = 0;
        n.track = 0;
        n.created_at = created_at;
        n.features.social_tie = 0.5;
        return n;
    }

    audio_preview_generator generator_;
    constant_content_utility utility_;
    richnote::energy::energy_model energy_;
    std::unique_ptr<richnote::trace::catalog> catalog_;
};

// ------------------------------------------- idempotent admission ----

TEST_F(broker_resilience, duplicate_admissions_are_suppressed_and_counted) {
    metrics_recorder metrics(1, 6);
    auto b = make_broker(metrics, 1e6);
    const auto n = make_note(1);
    b.admit(n);
    b.admit(n); // at-least-once replay of the same publish
    b.admit(n);

    EXPECT_EQ(b.sched().queue_size(), 1u);
    EXPECT_EQ(b.duplicates_suppressed(), 2u);
    EXPECT_EQ(metrics.totals().arrived, 1u);
    EXPECT_EQ(metrics.user(0).faults.duplicates_suppressed, 2u);

    // The item delivers exactly once despite the replays.
    b.run_round(0.0);
    EXPECT_EQ(metrics.totals().delivered, 1u);
}

TEST_F(broker_resilience, duplicate_suppression_survives_delivery) {
    // A replay arriving AFTER the item was delivered must not re-deliver.
    metrics_recorder metrics(1, 6);
    auto b = make_broker(metrics, 1e6);
    b.admit(make_note(1));
    b.run_round(0.0);
    ASSERT_EQ(metrics.totals().delivered, 1u);

    b.admit(make_note(1));
    EXPECT_EQ(b.sched().queue_size(), 0u);
    EXPECT_EQ(b.duplicates_suppressed(), 1u);
    b.run_round(t::default_round);
    EXPECT_EQ(metrics.totals().delivered, 1u);
}

// ------------------------------ byte-level partial-transfer accounting ----

TEST_F(broker_resilience, interrupted_transfers_charge_only_moved_bytes) {
    // Every attempt cuts mid-flight (fraction < 1 always): the item never
    // delivers, but the total budget spent converges to at most one item
    // size instead of burning a full size per attempt.
    fault_plan_params fp;
    fp.seed = 5;
    fp.partial_transfer_prob = 1.0;
    fp.min_transfer_fraction = 0.25;
    const fault_plan plan(fp);

    metrics_recorder metrics(1, 6);
    broker_params bp;
    bp.faults = &plan;
    const double theta = 300'000.0;
    auto b = make_broker(metrics, theta, &bp);
    b.admit(make_note(1));

    const int rounds = 12;
    for (int r = 0; r < rounds; ++r) b.run_round(r * t::default_round);

    EXPECT_EQ(metrics.totals().delivered, 0u);
    EXPECT_EQ(b.sched().queue_size(), 1u);
    EXPECT_GT(b.failed_transfers(), 0u);

    const double spent = metrics.user(0).faults.partial_bytes;
    ASSERT_EQ(b.partial_progress().size(), 1u);
    const double high_water = b.partial_progress().begin()->second;
    // All interrupted attempts together moved exactly the high-water mark.
    EXPECT_NEAR(spent, high_water, 1e-6);
    // Budget accounting matches bytes moved: rollover cap never bites at
    // this theta, so budget = theta * rounds - moved.
    EXPECT_NEAR(b.data_budget(), theta * rounds - spent, 1e-6);
    // Far less than the all-or-nothing burn of one full size per attempt.
    EXPECT_LT(spent, 250'000.0);
}

TEST_F(broker_resilience, legacy_flag_burns_the_full_size_per_attempt) {
    metrics_recorder metrics(1, 6);
    broker_params bp;
    bp.legacy_failure_accounting = true;
    bp.transfer_failure_prob = 1.0; // every transfer drops
    const double theta = 300'000.0;
    auto b = make_broker(metrics, theta, &bp);
    b.admit(make_note(1));

    const int rounds = 5;
    for (int r = 0; r < rounds; ++r) b.run_round(r * t::default_round);

    EXPECT_EQ(metrics.totals().delivered, 0u);
    EXPECT_EQ(b.failed_transfers(), static_cast<std::uint64_t>(rounds));
    EXPECT_TRUE(b.partial_progress().empty()) << "legacy mode is not resumable";
    // Each attempt burned one full L3 size (~200 KB >> what partial
    // accounting would have spent by round 5).
    const double spent = theta * rounds - b.data_budget();
    EXPECT_GT(spent, 4 * 200'000.0);
}

TEST_F(broker_resilience, legacy_flag_rejects_a_fault_plan) {
    const fault_plan plan(fault_plan_params{.seed = 1, .partial_transfer_prob = 0.5});
    metrics_recorder metrics(1, 6);
    broker_params bp;
    bp.legacy_failure_accounting = true;
    bp.faults = &plan;
    EXPECT_THROW(make_broker(metrics, 1e6, &bp), richnote::precondition_error);
}

TEST_F(broker_resilience, resumed_transfer_completes_from_the_high_water_mark) {
    // Attempts cut with probability 1/2: the transfer eventually completes,
    // and the bytes salvaged from interrupted attempts are exactly the
    // resumed bytes (nothing was re-downloaded). Probe for a seed whose
    // very first attempt (round 0, item 1) cuts, so a resume is guaranteed.
    fault_plan_params fp;
    fp.partial_transfer_prob = 0.5;
    fp.min_transfer_fraction = 0.3;
    for (fp.seed = 1; fault_plan(fp).transfer_fraction(0, 0, 1) >= 1.0; ++fp.seed)
        ASSERT_LT(fp.seed, 100u) << "no cutting seed found";
    const fault_plan plan(fp);

    metrics_recorder metrics(1, 6);
    broker_params bp;
    bp.faults = &plan;
    auto b = make_broker(metrics, 1e6, &bp);
    b.admit(make_note(1));

    int r = 0;
    for (; r < 100 && metrics.totals().delivered == 0; ++r)
        b.run_round(r * t::default_round);

    ASSERT_EQ(metrics.totals().delivered, 1u) << "did not complete in " << r
                                                     << " rounds";
    const auto& u = metrics.user(0);
    EXPECT_GT(u.faults.transfer_retries, 0u) << "seed should produce at least one cut";
    EXPECT_NEAR(u.faults.resumed_bytes, u.faults.partial_bytes, 1e-9)
        << "every partial byte must be salvaged, none re-downloaded";

    // Total bytes across the link = exactly what a fault-free broker moves
    // for the same item: resume never re-downloads a byte.
    metrics_recorder ref_metrics(1, 6);
    auto ref = make_broker(ref_metrics, 1e6);
    ref.admit(make_note(1));
    ref.run_round(0.0);
    ASSERT_EQ(ref_metrics.totals().delivered, 1u);
    const double total_moved = u.faults.partial_bytes + u.bytes_delivered;
    EXPECT_NEAR(total_moved, ref_metrics.user(0).bytes_delivered, 1e-6);
    EXPECT_TRUE(b.partial_progress().empty());
    EXPECT_EQ(b.sched().queue_size(), 0u);
}

// --------------------------------------------- crash-restart recovery ----

TEST_F(broker_resilience, crash_restart_is_lossless) {
    // Two brokers, identical construction; one crash-restarts after every
    // round. Every observable must match exactly at the end.
    metrics_recorder metrics_a(1, 6);
    metrics_recorder metrics_b(1, 6);
    broker_params bp;
    bp.transfer_failure_prob = 0.3; // exercise the env RNG stream too
    auto a = make_broker(metrics_a, 100'000.0, &bp);
    auto b = make_broker(metrics_b, 100'000.0, &bp);

    for (int r = 0; r < 30; ++r) {
        const auto id = static_cast<std::uint64_t>(r);
        const double now = r * t::default_round;
        a.admit(make_note(id, now));
        b.admit(make_note(id, now));
        a.run_round(now);
        b.run_round(now);
        b.crash_restart();
    }

    EXPECT_EQ(b.crash_restarts(), 30u);
    EXPECT_NEAR(a.data_budget(), b.data_budget(), 1e-9);
    EXPECT_EQ(a.sched().queue_size(), b.sched().queue_size());
    EXPECT_NEAR(a.sched().queue_bytes(), b.sched().queue_bytes(), 1e-9);
    EXPECT_EQ(a.failed_transfers(), b.failed_transfers());
    EXPECT_EQ(a.network_state(), b.network_state());
    EXPECT_NEAR(a.battery().level(), b.battery().level(), 1e-12);
    const auto& ua = metrics_a.user(0);
    const auto& ub = metrics_b.user(0);
    EXPECT_EQ(ua.delivered, ub.delivered);
    EXPECT_NEAR(ua.bytes_delivered, ub.bytes_delivered, 1e-9);
    EXPECT_NEAR(ua.utility_delivered, ub.utility_delivered, 1e-9);
    EXPECT_NEAR(ua.energy_joules, ub.energy_joules, 1e-9);
}

TEST_F(broker_resilience, checkpoint_restores_the_richnote_controller) {
    metrics_recorder metrics(1, 6);
    richnote_scheduler::params rp;
    auto b = make_broker(metrics, 50'000.0, nullptr,
                         std::make_unique<richnote_scheduler>(rp, energy_));
    for (int r = 0; r < 5; ++r) {
        b.admit(make_note(static_cast<std::uint64_t>(r)));
        b.run_round(r * t::default_round);
    }
    const auto cp = b.checkpoint();
    const double q = b.sched().queue_bytes();
    const double p = b.sched().energy_credit_joules();

    for (int r = 5; r < 10; ++r) b.run_round(r * t::default_round);
    b.restore(cp);

    EXPECT_DOUBLE_EQ(b.sched().queue_bytes(), q);
    EXPECT_DOUBLE_EQ(b.sched().energy_credit_joules(), p);

    // The restored broker still rejects replays seen before the snapshot.
    b.admit(make_note(2));
    EXPECT_EQ(b.duplicates_suppressed(), 1u);
}

} // namespace
