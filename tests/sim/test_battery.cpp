#include "sim/battery.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/time.hpp"

namespace {

using richnote::rng;
using richnote::sim::battery_model;
using richnote::sim::battery_params;
using richnote::sim::energy_budget_policy;
namespace t = richnote::sim;

battery_params no_jitter_params() {
    battery_params p;
    p.phase_jitter_hours = 0.0;
    return p;
}

TEST(battery, starts_at_initial_level) {
    rng gen(1);
    battery_model b(no_jitter_params(), gen);
    EXPECT_DOUBLE_EQ(b.level(), 0.9);
}

TEST(battery, drains_during_the_day) {
    rng gen(1);
    battery_model b(no_jitter_params(), gen);
    const double before = b.level();
    b.step(12.0 * t::hours, t::hours, 0.0); // noon, not charging
    EXPECT_LT(b.level(), before);
    EXPECT_FALSE(b.charging());
}

TEST(battery, daytime_drain_exceeds_night_drain) {
    rng gen(1);
    battery_model day(no_jitter_params(), gen);
    battery_model night(no_jitter_params(), gen);
    day.step(12.0 * t::hours, t::hours, 0.0);
    // 20:00 is outside the charge window (23:00–07:00) but night drain
    // applies only outside 08:00–22:00; use 22:30.
    night.step(22.5 * t::hours, t::hours, 0.0);
    EXPECT_LT(day.level(), night.level());
}

TEST(battery, charges_overnight) {
    rng gen(1);
    battery_params p = no_jitter_params();
    p.initial_level = 0.2;
    battery_model b(p, gen);
    b.step(23.5 * t::hours, t::hours, 0.0); // inside the 23:00–07:00 window
    EXPECT_TRUE(b.charging());
    EXPECT_GT(b.level(), 0.2);
}

TEST(battery, a_resetting_idle_step_forgets_the_level) {
    // 7.5 W for an hour is 1.35 of the 20 kJ capacity: inside the charge
    // window one idle step lands on exactly 1 from any level.
    for (const double level : {0.0, 0.3, 1.0}) {
        rng gen(1);
        battery_params p = no_jitter_params();
        p.initial_level = level;
        battery_model b(p, gen);
        ASSERT_TRUE(b.idle_step_resets(23.0 * t::hours, t::hours));
        b.step(23.0 * t::hours, t::hours, 0.0);
        EXPECT_EQ(b.level(), 1.0);
        EXPECT_TRUE(b.charging());
    }
    rng gen(1);
    battery_model b(no_jitter_params(), gen);
    EXPECT_FALSE(b.idle_step_resets(12.0 * t::hours, t::hours)); // outside the window
    EXPECT_FALSE(b.idle_step_resets(23.0 * t::hours, 0.5 * t::hours)); // 0.675 < 1
}

TEST(battery, charge_window_wraps_midnight) {
    rng gen(1);
    battery_params p = no_jitter_params();
    p.initial_level = 0.1;
    battery_model b(p, gen);
    b.step(2.0 * t::hours, t::hours, 0.0); // 02:00, still in the window
    EXPECT_TRUE(b.charging());
}

TEST(battery, level_clamps_to_unit_interval) {
    rng gen(1);
    battery_params p = no_jitter_params();
    p.initial_level = 0.99;
    battery_model full(p, gen);
    for (int h = 0; h < 8; ++h) full.step((23.0 + h) * t::hours, t::hours, 0.0);
    EXPECT_LE(full.level(), 1.0);

    p.initial_level = 0.01;
    battery_model empty(p, gen);
    for (int h = 0; h < 12; ++h) empty.step((8.0 + h) * t::hours, t::hours, 5000.0);
    EXPECT_GE(empty.level(), 0.0);
}

TEST(battery, extra_drain_reduces_level) {
    rng gen(1);
    battery_model a(no_jitter_params(), gen);
    battery_model b2(no_jitter_params(), gen);
    a.step(12.0 * t::hours, t::hours, 0.0);
    b2.step(12.0 * t::hours, t::hours, 1000.0);
    EXPECT_GT(a.level(), b2.level());
}

TEST(battery, direct_drain_is_clamped) {
    rng gen(1);
    battery_model b(no_jitter_params(), gen);
    b.drain(1e9);
    EXPECT_DOUBLE_EQ(b.level(), 0.0);
}

TEST(battery, rejects_invalid_params) {
    rng gen(1);
    battery_params bad = no_jitter_params();
    bad.capacity_joules = 0.0;
    EXPECT_THROW(battery_model(bad, gen), richnote::precondition_error);
    bad = no_jitter_params();
    bad.initial_level = 1.5;
    EXPECT_THROW(battery_model(bad, gen), richnote::precondition_error);
}

TEST(energy_policy, full_kappa_when_charging_or_comfortable) {
    rng gen(1);
    energy_budget_policy policy;
    battery_params p = no_jitter_params();
    p.initial_level = 0.9;
    battery_model b(p, gen);
    EXPECT_DOUBLE_EQ(policy.replenishment(b), policy.kappa_joules_per_round);
}

TEST(energy_policy, zero_below_cutoff) {
    rng gen(1);
    energy_budget_policy policy;
    battery_params p = no_jitter_params();
    p.initial_level = 0.05;
    battery_model b(p, gen);
    b.step(12.0 * t::hours, 0.0, 0.0); // refresh charging flag at noon
    EXPECT_DOUBLE_EQ(policy.replenishment(b), 0.0);
}

TEST(energy_policy, linear_taper_between_cutoff_and_full) {
    rng gen(1);
    energy_budget_policy policy; // cutoff 0.1, full 0.5, kappa 3000
    battery_params p = no_jitter_params();
    p.initial_level = 0.3; // midpoint of the taper
    battery_model b(p, gen);
    b.step(12.0 * t::hours, 0.0, 0.0);
    EXPECT_NEAR(policy.replenishment(b), 1500.0, 1e-9);
}

} // namespace
