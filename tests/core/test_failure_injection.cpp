// Failure-injection tests: the system must degrade predictably — not crash,
// not violate invariants — when the environment turns hostile (no
// connectivity, dead battery, starved budgets, oversized content).
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/broker.hpp"
#include "core/metrics.hpp"
#include "core/presentation.hpp"
#include "core/scheduler.hpp"
#include "core/utility.hpp"
#include "energy/model.hpp"
#include "trace/catalog.hpp"

namespace {

using namespace richnote;
namespace t = richnote::sim;

class failure_injection : public ::testing::Test {
protected:
    failure_injection()
        : generator_(core::audio_preview_generator::params{}),
          utility_(0.5),
          metrics_(1, 6) {
        trace::catalog_params cp;
        cp.artist_count = 10;
        rng gen(1);
        catalog_ = std::make_unique<trace::catalog>(cp, gen);
    }

    core::broker make_broker(t::net_state fixed_state, double theta,
                             double battery_level = 0.9,
                             core::broker_params* custom = nullptr) {
        core::broker_params bp;
        if (custom) bp = *custom;
        bp.budget_per_round_bytes = theta;
        rng bat_gen(7);
        t::battery_params batp;
        batp.phase_jitter_hours = 0;
        batp.initial_level = battery_level;
        // Keep the battery from recharging mid-test.
        batp.charge_start_hour = 25.0;
        batp.charge_end_hour = 25.0;
        auto battery = std::make_unique<t::battery_model>(batp, bat_gen);
        return core::broker(0, bp,
                            std::make_unique<core::richnote_scheduler>(
                                core::richnote_scheduler::params{}, energy_),
                            generator_, utility_, energy_,
                            t::markov_network_model::fixed(fixed_state),
                            std::move(battery), *catalog_, metrics_, 99);
    }

    trace::notification make_note(std::uint64_t id, double created_at = 0.0) {
        trace::notification n;
        n.id = id;
        n.recipient = 0;
        n.track = 0;
        n.created_at = created_at;
        n.features.social_tie = 0.5;
        return n;
    }

    core::audio_preview_generator generator_;
    core::constant_content_utility utility_;
    energy::energy_model energy_;
    std::unique_ptr<trace::catalog> catalog_;
    core::metrics_recorder metrics_;
};

TEST_F(failure_injection, permanent_outage_queues_everything) {
    auto broker = make_broker(t::net_state::off, 1e6);
    rng gen(1);
    for (int round = 0; round < 48; ++round) {
        broker.admit(make_note(static_cast<std::uint64_t>(round),
                               round * t::hours));
        broker.run_round(round * t::hours);
    }
    EXPECT_EQ(broker.sched().queue_size(), 48u);
    EXPECT_EQ(metrics_.totals().delivered, 0u);
    EXPECT_DOUBLE_EQ(metrics_.totals().energy_joules, 0.0);
}

TEST_F(failure_injection, recovery_after_outage_drains_the_backlog) {
    // Same broker object cannot switch its fixed network model, so emulate
    // an outage via zero budget, then restore it: the backlog must drain.
    auto broker = make_broker(t::net_state::cell, 0.0);
    rng gen(1);
    for (int round = 0; round < 10; ++round) {
        broker.admit(make_note(static_cast<std::uint64_t>(round), round * t::hours));
        broker.run_round(round * t::hours);
    }
    EXPECT_EQ(broker.sched().queue_size(), 10u);

    auto recovered = make_broker(t::net_state::cell, 5e6);
    for (int round = 0; round < 10; ++round)
        recovered.admit(make_note(100 + static_cast<std::uint64_t>(round), 0.0));
    recovered.run_round(0.0);
    EXPECT_EQ(recovered.sched().queue_size(), 0u);
}

TEST_F(failure_injection, dead_battery_stops_richnote_deliveries_eventually) {
    // Battery below the policy cutoff: e(t) = 0, so P(t) is never
    // replenished; after the initial credit is spent, deliveries stop.
    auto broker = make_broker(t::net_state::cell, 1e9, /*battery_level=*/0.05);
    rng gen(1);
    for (int round = 0; round < 200; ++round) {
        broker.admit(make_note(static_cast<std::uint64_t>(round), round * t::hours));
        broker.run_round(round * t::hours);
    }
    // The initial 3 KJ credit covers many small transfers but is finite:
    // far fewer than the 200 offered items are delivered, and total energy
    // is bounded by the initial credit (plus one overshoot).
    EXPECT_LT(metrics_.totals().delivered, 200u);
    EXPECT_LE(metrics_.totals().energy_joules, 3000.0 + 50.0);
    EXPECT_GT(broker.sched().queue_size(), 0u);
}

TEST_F(failure_injection, zero_link_capacity_behaves_like_outage) {
    // A connected link with zero capacity (e.g. congestion collapse):
    // plans must be empty rather than dividing by zero.
    core::richnote_scheduler sched(core::richnote_scheduler::params{}, energy_);
    core::sched_item item;
    item.note.id = 1;
    item.content_utility = 0.5;
    item.presentations = generator_.generate(276.0);
    sched.enqueue(std::move(item));
    core::round_context ctx;
    ctx.data_budget_bytes = 1e9;
    ctx.network = t::net_state::cell;
    ctx.metered = true;
    ctx.link_capacity_bytes = 0.0;
    ctx.energy_replenishment = 3000.0;
    EXPECT_TRUE(sched.plan(ctx).empty());
}

TEST_F(failure_injection, burst_arrival_stays_stable) {
    // A thundering herd of arrivals in one round must neither crash nor
    // break queue accounting; the backlog drains over subsequent rounds.
    auto broker = make_broker(t::net_state::cell, 2e6);
    rng gen(1);
    for (std::uint64_t id = 0; id < 500; ++id) broker.admit(make_note(id, 0.0));
    const std::size_t initial = broker.sched().queue_size();
    EXPECT_EQ(initial, 500u);
    std::size_t previous = initial;
    for (int round = 0; round < 24; ++round) {
        broker.run_round(round * t::hours);
        EXPECT_LE(broker.sched().queue_size(), previous);
        previous = broker.sched().queue_size();
    }
    EXPECT_LT(previous, 500u);
}

TEST_F(failure_injection, items_larger_than_any_budget_park_harmlessly) {
    // An item whose SMALLEST presentation exceeds theta forever: FIFO
    // blocks on it (head of line), but the system keeps running.
    core::broker_params bp;
    bp.rollover_rounds = 1.0; // no banking: budget is always exactly theta
    auto broker = make_broker(t::net_state::cell, 100.0, 0.9, &bp);
    rng gen(1);
    broker.admit(make_note(1, 0.0));
    for (int round = 0; round < 10; ++round) broker.run_round(round * t::hours);
    // Only the 200 B metadata presentation fits in theta = 100 B? It does
    // not — so nothing is ever delivered, and nothing crashes.
    EXPECT_EQ(metrics_.totals().delivered, 0u);
    EXPECT_EQ(broker.sched().queue_size(), 1u);
}

} // namespace
