#include "core/broker.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/presentation.hpp"
#include "core/scheduler.hpp"
#include "core/utility.hpp"
#include "trace/generator.hpp"

namespace {

using richnote::core::audio_preview_generator;
using richnote::core::broker;
using richnote::core::broker_params;
using richnote::core::constant_content_utility;
using richnote::core::fifo_scheduler;
using richnote::core::metrics_recorder;
using richnote::core::richnote_scheduler;
namespace t = richnote::sim;

/// Shared fixture world: catalog and a deterministic environment.
class broker_test : public ::testing::Test {
protected:
    broker_test()
        : generator_(audio_preview_generator::params{}),
          utility_(0.5),
          metrics_(1, 6) {
        richnote::trace::catalog_params cp;
        cp.artist_count = 20;
        richnote::rng cat_gen(3);
        catalog_ = std::make_unique<richnote::trace::catalog>(cp, cat_gen);
    }

    broker make_broker(std::unique_ptr<richnote::core::scheduler> sched,
                       double theta_bytes, bool always_connected = true) {
        broker_params bp;
        bp.budget_per_round_bytes = theta_bytes;
        auto network = always_connected
                           ? t::markov_network_model::fixed(t::net_state::cell)
                           : t::markov_network_model::fixed(t::net_state::off);
        richnote::rng bat_gen(7);
        t::battery_params batp;
        batp.phase_jitter_hours = 0;
        auto battery = std::make_unique<t::battery_model>(batp, bat_gen);
        return broker(0, bp, std::move(sched), generator_, utility_, energy_,
                      std::move(network), std::move(battery), *catalog_, metrics_, 99);
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
    metrics_recorder metrics_;
};

TEST_F(broker_test, admission_records_arrival_and_queues_item) {
    auto b = make_broker(std::make_unique<fifo_scheduler>(3, energy_), 1e6);
    b.admit(make_note(1));
    EXPECT_EQ(b.sched().queue_size(), 1u);
    EXPECT_EQ(metrics_.totals().arrived, 1u);
}

TEST_F(broker_test, admission_rejects_foreign_user) {
    auto b = make_broker(std::make_unique<fifo_scheduler>(3, energy_), 1e6);
    auto n = make_note(1);
    n.recipient = 5;
    EXPECT_THROW(b.admit(n), richnote::precondition_error);
}

TEST_F(broker_test, round_delivers_when_connected_and_budgeted) {
    auto b = make_broker(std::make_unique<fifo_scheduler>(3, energy_), 1e6);
    b.admit(make_note(1));
    richnote::rng gen(1);
    b.run_round(0.0);
    EXPECT_EQ(b.sched().queue_size(), 0u);
    EXPECT_EQ(metrics_.totals().delivered, 1u);
    EXPECT_GT(metrics_.totals().energy_joules, 0.0);
}

TEST_F(broker_test, nothing_delivers_when_offline) {
    auto b = make_broker(std::make_unique<fifo_scheduler>(3, energy_), 1e6,
                         /*always_connected=*/false);
    b.admit(make_note(1));
    richnote::rng gen(1);
    b.run_round(0.0);
    EXPECT_EQ(b.sched().queue_size(), 1u);
    EXPECT_EQ(metrics_.totals().delivered, 0u);
}

TEST_F(broker_test, budget_is_deducted_and_rolls_over) {
    // theta = 50 KB; one L3 item costs ~200 KB, so it takes 4 rounds of
    // rollover before FIFO can deliver it.
    auto b = make_broker(std::make_unique<fifo_scheduler>(3, energy_), 50'000.0);
    b.admit(make_note(1));
    richnote::rng gen(1);
    int delivered_at = -1;
    for (int round = 0; round < 6; ++round) {
        b.run_round(round * t::hours);
        if (metrics_.totals().delivered > 0 && delivered_at < 0) delivered_at = round;
    }
    EXPECT_EQ(delivered_at, 4); // first round whose budget covers 200.2 KB
    // Deduction happened: leftover budget is below theta * rounds.
    EXPECT_LT(b.data_budget(), 6 * 50'000.0);
}

TEST_F(broker_test, rollover_is_capped) {
    broker_params bp;
    bp.budget_per_round_bytes = 1000.0;
    bp.rollover_rounds = 3.0;
    auto network = t::markov_network_model::fixed(t::net_state::cell);
    richnote::rng bat_gen(7);
    t::battery_params batp;
    batp.phase_jitter_hours = 0;
    auto battery = std::make_unique<t::battery_model>(batp, bat_gen);
    broker b(0, bp, std::make_unique<fifo_scheduler>(3, energy_), generator_, utility_,
             energy_, std::move(network), std::move(battery), *catalog_, metrics_, 99);
    richnote::rng gen(1);
    for (int round = 0; round < 10; ++round) b.run_round(round * t::hours);
    EXPECT_LE(b.data_budget(), 3000.0 + 1e-9);
}

TEST_F(broker_test, delivery_timestamps_reflect_link_serialization) {
    auto b = make_broker(std::make_unique<fifo_scheduler>(3, energy_), 1e9);
    b.admit(make_note(1));
    b.admit(make_note(2));
    richnote::rng gen(1);
    b.run_round(0.0);
    // Two 200.2 KB items over 200 KB/s cellular: ~1 s and ~2 s after the
    // round starts; both well under an hour.
    const double delay = metrics_.totals().mean_queuing_delay_sec();
    EXPECT_GT(delay, 0.5);
    EXPECT_LT(delay, 10.0);
}

TEST_F(broker_test, richnote_scheduler_adapts_inside_broker) {
    richnote_scheduler::params rp;
    auto b = make_broker(std::make_unique<richnote_scheduler>(rp, energy_), 2'000.0);
    for (std::uint64_t i = 0; i < 5; ++i) b.admit(make_note(i));
    richnote::rng gen(1);
    b.run_round(0.0);
    // Tiny budget: everything goes out as metadata-only.
    EXPECT_EQ(metrics_.totals().delivered, 5u);
    const auto mix = metrics_.level_mix(metrics_.totals());
    EXPECT_DOUBLE_EQ(mix[1], 1.0);
}

TEST_F(broker_test, link_capacity_limits_per_round_bytes) {
    // 200 KB/s cellular for 1 h = 720 MB capacity; admit more than fits.
    auto b = make_broker(std::make_unique<fifo_scheduler>(6, energy_), 1e12);
    // level 6 item = 800.2 KB; 1000 items = 800 MB > 720 MB capacity.
    for (std::uint64_t i = 0; i < 1000; ++i) b.admit(make_note(i));
    richnote::rng gen(1);
    b.run_round(0.0);
    EXPECT_LT(metrics_.totals().delivered, 1000u);
    EXPECT_GT(metrics_.totals().delivered, 800u);
    EXPECT_LE(metrics_.totals().bytes_delivered, 200.0 * 1024.0 * 3600.0);
}

TEST_F(broker_test, rejects_invalid_construction) {
    broker_params bp;
    bp.budget_per_round_bytes = -1.0;
    auto network = t::markov_network_model::fixed(t::net_state::cell);
    richnote::rng bat_gen(7);
    auto battery = std::make_unique<t::battery_model>(t::battery_params{}, bat_gen);
    EXPECT_THROW(broker(0, bp, std::make_unique<fifo_scheduler>(3, energy_), generator_,
                        utility_, energy_, std::move(network), std::move(battery),
                        *catalog_, metrics_, 99),
                 richnote::precondition_error);
}

} // namespace
