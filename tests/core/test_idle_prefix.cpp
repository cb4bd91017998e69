// The idle-round prefix (broker::run_idle_rounds), which the deferring round
// engine catches lagging brokers up through. For a fault-free broker with an
// empty queue, k rounds through the prefix must leave the whole
// broker_checkpoint — rng, network chain, battery, budget, P(t), round index
// — bit for bit where k full run_round calls leave it: for every scheduler
// kind, both battery sources, wifi on and off, and queue-age expiry, over
// k that cross budget-rollover and energy-credit saturation and, from 20000
// rounds on, take the skip that jumps the stream past most of the stretch.
// Further cases must refuse the skip (a chain with memory, a charger too
// weak to fill the battery in one round, an inexact clock, a scheduler that
// never settles) or reach it only after a long head, and still match.
//
// run_round starts with the same prefix, so that comparison alone cannot
// see a step the prefix drops. An idle round is therefore also written out
// here from the model APIs (spec_idle_round), and the prefix must match it.
#include "core/broker.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/presentation.hpp"
#include "core/scheduler.hpp"
#include "core/utility.hpp"
#include "fleet_compare.hpp"
#include "sim/battery_trace.hpp"
#include "trace/catalog.hpp"

namespace {

using richnote::core::broker;
using richnote::core::broker_checkpoint;
using richnote::core::broker_params;
using richnote::sim::sim_time;
namespace core = richnote::core;
namespace sim = richnote::sim;

enum class policy { richnote, richnote_expiring, fifo, util, direct };

/// dead_trace: a recorded battery that is empty and never charges, so e(t)
/// is 0 and P(t) never passes kappa. waking_trace: the same for 1000
/// rounds, then one round at 20% (e(t) = kappa / 4), then plugged in (e(t) =
/// kappa): when the head ends decides what P(t) settles at.
enum class battery_kind { model, trace, dead_trace, waking_trace };

constexpr std::uint64_t longest_idle = 100'003;
constexpr double theta = 60'000.0; ///< bytes per round; rollover caps at 168x

struct config {
    policy sched;
    battery_kind battery = battery_kind::model;
    bool wifi = false;
    sim_time round = sim::hours;
    sim::battery_params bat{};
    double direct_accrual_rounds = core::direct_scheduler::params{}.energy_accrual_rounds;
};

broker_params idle_params(const config& c) {
    broker_params bp;
    bp.budget_per_round_bytes = theta;
    bp.round = c.round;
    return bp;
}

class idle_prefix_test : public ::testing::Test {
protected:
    idle_prefix_test() : generator_(core::audio_preview_generator::params{}), utility_(0.5) {
        richnote::trace::catalog_params cp;
        cp.artist_count = 20;
        richnote::rng cat_gen(3);
        catalog_ = std::make_unique<richnote::trace::catalog>(cp, cat_gen);
    }

    std::unique_ptr<core::scheduler> make_scheduler(const config& c) const {
        switch (c.sched) {
            case policy::richnote:
                return std::make_unique<core::richnote_scheduler>(
                    core::richnote_scheduler::params{}, energy_);
            case policy::richnote_expiring: {
                core::richnote_scheduler::params rp;
                rp.max_queue_age_sec = 6.0 * sim::hours;
                return std::make_unique<core::richnote_scheduler>(rp, energy_);
            }
            case policy::fifo: return std::make_unique<core::fifo_scheduler>(3, energy_);
            case policy::util: return std::make_unique<core::util_scheduler>(3, energy_);
            case policy::direct: {
                core::direct_scheduler::params dp;
                dp.energy_accrual_rounds = c.direct_accrual_rounds;
                return std::make_unique<core::direct_scheduler>(dp, energy_);
            }
        }
        return nullptr;
    }

    broker make_broker(const config& c, core::metrics_recorder& metrics) const {
        auto network = c.wifi ? sim::markov_network_model::with_wifi()
                              : sim::markov_network_model::cellular_only();
        richnote::rng battery_gen(7);
        std::unique_ptr<sim::battery_source> battery;
        switch (c.battery) {
            case battery_kind::model:
                battery = std::make_unique<sim::battery_model>(c.bat, battery_gen);
                break;
            case battery_kind::trace:
                battery = std::make_unique<sim::traced_battery>(sim::battery_trace::synthesize(
                    c.bat, (longest_idle + 400) * c.round, c.round, battery_gen));
                break;
            case battery_kind::dead_trace:
            case battery_kind::waking_trace: {
                std::vector<sim::battery_sample> samples{{0.0, 0.0, false}};
                if (c.battery == battery_kind::waking_trace) {
                    samples.push_back({1000.0 * c.round, 0.2, false});
                    samples.push_back({1001.0 * c.round, 0.05, true});
                }
                battery = std::make_unique<sim::traced_battery>(
                    sim::battery_trace(std::move(samples)));
                break;
            }
        }
        return broker(0, idle_params(c), make_scheduler(c), generator_, utility_, energy_,
                      std::move(network), std::move(battery), *catalog_, metrics, 99);
    }

    richnote::trace::notification note(std::uint64_t id) const {
        richnote::trace::notification n;
        n.id = id;
        n.recipient = 0;
        n.track = static_cast<richnote::trace::track_id>(id % catalog_->track_count());
        n.created_at = 0.0;
        n.features.social_tie = 0.5;
        return n;
    }

    /// Runs busy rounds on two twin brokers until their queues drain, then
    /// k idle rounds: through run_round on one, through run_idle_rounds on
    /// the other and through spec_idle_round on a checkpoint. All three
    /// must agree bit for bit. Returns the broker that idled.
    broker expect_idle_matches(const config& c, std::uint64_t k,
                               core::metrics_recorder& full_metrics,
                               core::metrics_recorder& idle_metrics) const;

    core::audio_preview_generator generator_;
    core::constant_content_utility utility_;
    richnote::energy::energy_model energy_;
    std::unique_ptr<richnote::trace::catalog> catalog_;
};

/// One idle round written out from the model APIs: what the prefix must
/// do to a broker with an empty queue and no fault plan.
void spec_idle_round(broker_checkpoint& s, const config& c, sim_time now) {
    const broker_params bp = idle_params(c);
    ++s.round_index;
    (void)s.network.step(s.env_rng);
    s.battery->step(now, bp.round, 0.0);
    s.data_budget = std::min(s.data_budget + bp.budget_per_round_bytes,
                             bp.budget_per_round_bytes * std::max(1.0, bp.rollover_rounds));
    const double e = bp.energy_policy.replenishment(*s.battery);
    switch (c.sched) {
        case policy::richnote:
        case policy::richnote_expiring: {
            const double kappa = core::lyapunov_params{}.kappa;
            if (s.sched.lyapunov.energy_credit <= kappa) s.sched.lyapunov.energy_credit += e;
            break;
        }
        case policy::direct: {
            const double kappa = core::direct_scheduler::params{}.kappa_joules_per_round;
            s.sched.energy_credit =
                std::min(s.sched.energy_credit + kappa, kappa * c.direct_accrual_rounds);
            break;
        }
        case policy::fifo:
        case policy::util: break;
    }
}

broker idle_prefix_test::expect_idle_matches(const config& c, std::uint64_t k,
                                             core::metrics_recorder& full_metrics,
                                             core::metrics_recorder& idle_metrics) const {
    broker full = make_broker(c, full_metrics);
    broker idle = make_broker(c, idle_metrics);

    // Busy rounds first, so the idle stretch starts from a used broker:
    // spent budget and energy, a moved battery.
    sim_time now = 0.0;
    for (std::uint64_t id = 1; id <= 3; ++id) {
        full.admit(note(id));
        idle.admit(note(id));
    }
    for (int r = 0; r < 300 && full.sched().queue_size() > 0; ++r) {
        full.run_round(now);
        idle.run_round(now);
        now += c.round;
    }
    EXPECT_EQ(full.sched().queue_size(), 0u);
    EXPECT_EQ(idle.sched().queue_size(), 0u);
    if (full.sched().queue_size() > 0) return idle;

    broker_checkpoint spec = full.checkpoint();
    sim_time t = now;
    for (std::uint64_t r = 0; r < k; ++r) {
        full.run_round(t);
        spec_idle_round(spec, c, t);
        t += c.round;
    }
    EXPECT_EQ(idle.run_idle_rounds(k, now, c.round), t);

    richnote::test::expect_same_broker(idle, full);
    richnote::test::expect_same_checkpoint(idle.checkpoint(), spec);
    EXPECT_EQ(idle.rounds_run(), full.rounds_run());
    return idle;
}

TEST_F(idle_prefix_test, idle_rounds_equal_full_rounds_and_the_spec) {
    std::vector<config> configs;
    for (const policy p : {policy::richnote, policy::richnote_expiring, policy::fifo,
                           policy::util, policy::direct})
        for (const battery_kind b : {battery_kind::model, battery_kind::trace})
            for (const bool wifi : {false, true}) configs.push_back({p, b, wifi});
    for (const config& c : configs) {
        for (const std::uint64_t k : {1u, 63u, 64u, 65u, 1000u, 5000u, 20000u, 100003u}) {
            SCOPED_TRACE(::testing::Message()
                         << "policy " << static_cast<int>(c.sched) << " battery "
                         << static_cast<int>(c.battery) << " wifi " << c.wifi << " k " << k);
            core::metrics_recorder full_metrics(1, 6);
            core::metrics_recorder idle_metrics(1, 6);
            const broker idle = expect_idle_matches(c, k, full_metrics, idle_metrics);
            if (::testing::Test::HasFailure()) return; // one config's report is enough
            if (k >= 20000 && !c.wifi) {
                // What the skip needs holds here, so these stretches took it:
                // a steady scheduler, and a resetting battery step every day.
                EXPECT_TRUE(idle.sched().idle_steady());
                bool resets = false;
                for (sim_time t = 0; t < sim::days; t += c.round)
                    resets = resets || idle.battery().idle_step_resets(t, c.round);
                EXPECT_TRUE(resets);
            }
        }
    }
}

TEST_F(idle_prefix_test, stretches_that_cannot_skip_still_match) {
    struct literal_case {
        const char* name;
        config c;
        /// Checks on the idled broker that the skip was refused for the
        /// case's reason.
        std::function<void(const broker&)> refused;
    };
    std::vector<literal_case> cases;
    {
        config c{policy::richnote};
        c.bat.charge_watts = 5.0; // 5 W x 1 h fills 0.9 of 20 kJ
        cases.push_back({"weak charger", c, [](const broker& b) {
                             for (sim_time t = 0; t < sim::days; t += sim::hours)
                                 EXPECT_FALSE(b.battery().idle_step_resets(t, sim::hours));
                         }});
    }
    {
        config c{policy::richnote};
        c.round = 1000.5;
        c.bat.charge_watts = 30.0; // fills 1.5 of 20 kJ per round: only the clock refuses
        cases.push_back({"1000.5 s rounds", c, [](const broker& b) {
                             EXPECT_TRUE(b.battery().idle_step_resets(3.0 * sim::hours, 1000.5));
                         }});
    }
    cases.push_back({"dead battery", config{policy::richnote, battery_kind::dead_trace},
                     [](const broker& b) {
                         EXPECT_FALSE(b.sched().idle_steady());
                         EXPECT_LE(b.sched().energy_credit_joules(),
                                   core::lyapunov_params{}.kappa);
                     }});
    {
        config c{policy::direct};
        c.direct_accrual_rounds = 1e9;
        cases.push_back({"Direct below its cap", c,
                         [](const broker& b) { EXPECT_FALSE(b.sched().idle_steady()); }});
    }
    cases.push_back({"wifi", config{policy::direct, battery_kind::trace, true},
                     [](const broker&) {
                         EXPECT_FALSE(sim::markov_network_model::with_wifi().memoryless());
                     }});

    for (const literal_case& lc : cases) {
        for (const std::uint64_t k : {300u, 20000u}) {
            SCOPED_TRACE(::testing::Message() << lc.name << " k " << k);
            core::metrics_recorder full_metrics(1, 6);
            core::metrics_recorder idle_metrics(1, 6);
            lc.refused(expect_idle_matches(lc.c, k, full_metrics, idle_metrics));
        }
    }
}

TEST_F(idle_prefix_test, a_long_head_then_the_skip_still_match) {
    // P(t) <= kappa while the recorded battery is dead: every round until
    // it wakes, 1000 rounds in, counts. Past that the scheduler is steady
    // and the rest of the stretch can be skipped.
    const config waking{policy::richnote, battery_kind::waking_trace};
    for (const std::uint64_t k : {1200u, 20000u, 100003u}) {
        SCOPED_TRACE(::testing::Message() << "k " << k);
        core::metrics_recorder full_metrics(1, 6);
        core::metrics_recorder idle_metrics(1, 6);
        const broker b = expect_idle_matches(waking, k, full_metrics, idle_metrics);
        EXPECT_TRUE(b.sched().idle_steady());
        EXPECT_TRUE(b.battery().charging());
    }
}

TEST_F(idle_prefix_test, stretches_around_the_skip_threshold_match) {
    // The skip covers more than broker::min_idle_skip = 256 rounds and
    // stops at a resetting round of index 256 or later. Hourly stretches of
    // 250 to 290 rounds put the latest charge-window round on either side
    // of that bound, and exactly on it.
    for (const policy p : {policy::fifo, policy::richnote}) {
        for (const battery_kind b : {battery_kind::model, battery_kind::trace}) {
            for (std::uint64_t k = 250; k <= 290; ++k) {
                SCOPED_TRACE(::testing::Message() << "policy " << static_cast<int>(p)
                                                  << " battery " << static_cast<int>(b)
                                                  << " k " << k);
                core::metrics_recorder full_metrics(1, 6);
                core::metrics_recorder idle_metrics(1, 6);
                (void)expect_idle_matches(config{p, b}, k, full_metrics, idle_metrics);
                if (::testing::Test::HasFailure()) return;
            }
        }
    }
}

TEST_F(idle_prefix_test, zero_idle_rounds_change_nothing) {
    core::metrics_recorder metrics_a(1, 6);
    core::metrics_recorder metrics_b(1, 6);
    const config c{policy::richnote, battery_kind::model, true};
    broker a = make_broker(c, metrics_a);
    const broker b = make_broker(c, metrics_b);
    EXPECT_EQ(a.run_idle_rounds(0, 7.0 * sim::hours, sim::hours), 7.0 * sim::hours);
    richnote::test::expect_same_broker(a, b);
}

} // namespace
