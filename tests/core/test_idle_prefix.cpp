// The idle-round prefix (broker::run_idle_rounds), which the deferring round
// engine catches lagging brokers up through. For a fault-free broker with an
// empty queue, k rounds through the prefix must leave the whole
// broker_checkpoint — rng, network chain, battery, budget, P(t), round index
// — bit for bit where k full run_round calls leave it: for every scheduler
// kind, both battery sources, wifi on and off, and queue-age expiry, over
// k that cross budget-rollover and energy-credit saturation.
//
// run_round starts with the same prefix, so that comparison alone cannot
// see a step the prefix drops. An idle round is therefore also written out
// here from the model APIs (spec_idle_round), and the prefix must match it.
#include "core/broker.hpp"

#include <gtest/gtest.h>

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

struct config {
    policy sched;
    bool traced_battery;
    bool wifi;
};

constexpr sim_time round_len = sim::hours;
constexpr std::uint64_t longest_idle = 5000;
constexpr double theta = 60'000.0; ///< bytes per round; rollover caps at 168x

broker_params idle_params() {
    broker_params bp;
    bp.budget_per_round_bytes = theta;
    bp.round = round_len;
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

    std::unique_ptr<core::scheduler> make_scheduler(policy p) const {
        switch (p) {
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
            case policy::direct:
                return std::make_unique<core::direct_scheduler>(
                    core::direct_scheduler::params{}, energy_);
        }
        return nullptr;
    }

    broker make_broker(const config& c, core::metrics_recorder& metrics) const {
        auto network = c.wifi ? sim::markov_network_model::with_wifi()
                              : sim::markov_network_model::cellular_only();
        richnote::rng battery_gen(7);
        const sim::battery_params bat;
        std::unique_ptr<sim::battery_source> battery;
        if (c.traced_battery) {
            battery = std::make_unique<sim::traced_battery>(sim::battery_trace::synthesize(
                bat, (longest_idle + 400) * round_len, round_len, battery_gen));
        } else {
            battery = std::make_unique<sim::battery_model>(bat, battery_gen);
        }
        return broker(0, idle_params(), make_scheduler(c.sched), generator_, utility_, energy_,
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

    core::audio_preview_generator generator_;
    core::constant_content_utility utility_;
    richnote::energy::energy_model energy_;
    std::unique_ptr<richnote::trace::catalog> catalog_;
};

/// One idle round written out from the model APIs: what the prefix must
/// do to a broker with an empty queue and no fault plan.
void spec_idle_round(broker_checkpoint& s, policy p, sim_time now) {
    const broker_params bp = idle_params();
    ++s.round_index;
    (void)s.network.step(s.env_rng);
    s.battery->step(now, bp.round, 0.0);
    s.data_budget = std::min(s.data_budget + bp.budget_per_round_bytes,
                             bp.budget_per_round_bytes * std::max(1.0, bp.rollover_rounds));
    const double e = bp.energy_policy.replenishment(*s.battery);
    switch (p) {
        case policy::richnote:
        case policy::richnote_expiring: {
            const double kappa = core::lyapunov_params{}.kappa;
            if (s.sched.lyapunov.energy_credit <= kappa) s.sched.lyapunov.energy_credit += e;
            break;
        }
        case policy::direct: {
            const core::direct_scheduler::params dp;
            s.sched.energy_credit =
                std::min(s.sched.energy_credit + dp.kappa_joules_per_round,
                         dp.kappa_joules_per_round * dp.energy_accrual_rounds);
            break;
        }
        case policy::fifo:
        case policy::util: break;
    }
}

TEST_F(idle_prefix_test, idle_rounds_equal_full_rounds_and_the_spec) {
    const std::vector<config> configs = [] {
        std::vector<config> out;
        for (const policy p : {policy::richnote, policy::richnote_expiring, policy::fifo,
                               policy::util, policy::direct})
            for (const bool traced : {false, true})
                for (const bool wifi : {false, true}) out.push_back({p, traced, wifi});
        return out;
    }();
    for (const config& c : configs) {
        for (const std::uint64_t k : {1u, 63u, 64u, 65u, 1000u, 5000u}) {
            SCOPED_TRACE(::testing::Message()
                         << "policy " << static_cast<int>(c.sched) << " traced "
                         << c.traced_battery << " wifi " << c.wifi << " k " << k);
            core::metrics_recorder full_metrics(1, 6);
            core::metrics_recorder idle_metrics(1, 6);
            broker full = make_broker(c, full_metrics);
            broker idle = make_broker(c, idle_metrics);

            // Busy rounds first, so the idle stretch starts from a used
            // broker: spent budget and energy, a moved battery.
            sim_time now = 0.0;
            for (std::uint64_t id = 1; id <= 3; ++id) {
                full.admit(note(id));
                idle.admit(note(id));
            }
            for (int r = 0; r < 300 && full.sched().queue_size() > 0; ++r) {
                full.run_round(now);
                idle.run_round(now);
                now += round_len;
            }
            ASSERT_EQ(full.sched().queue_size(), 0u);
            ASSERT_EQ(idle.sched().queue_size(), 0u);

            broker_checkpoint spec = full.checkpoint();
            sim_time t = now;
            for (std::uint64_t r = 0; r < k; ++r) {
                full.run_round(t);
                spec_idle_round(spec, c.sched, t);
                t += round_len;
            }
            EXPECT_EQ(idle.run_idle_rounds(k, now, round_len), t);

            richnote::test::expect_same_broker(idle, full);
            richnote::test::expect_same_checkpoint(idle.checkpoint(), spec);
            EXPECT_EQ(idle.rounds_run(), full.rounds_run());
            if (::testing::Test::HasFailure()) return; // one config's report is enough
        }
    }
}

TEST_F(idle_prefix_test, zero_idle_rounds_change_nothing) {
    core::metrics_recorder metrics_a(1, 6);
    core::metrics_recorder metrics_b(1, 6);
    const config c{policy::richnote, false, true};
    broker a = make_broker(c, metrics_a);
    const broker b = make_broker(c, metrics_b);
    EXPECT_EQ(a.run_idle_rounds(0, 7.0 * round_len, round_len), 7.0 * round_len);
    richnote::test::expect_same_broker(a, b);
}

} // namespace
