#include "sim/battery_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using richnote::rng;
using richnote::sim::battery_model;
using richnote::sim::battery_params;
using richnote::sim::battery_sample;
using richnote::sim::battery_trace;
using richnote::sim::traced_battery;
namespace t = richnote::sim;

battery_trace small_trace() {
    return battery_trace({{0.0, 0.9, false}, {100.0, 0.8, false}, {200.0, 0.95, true}});
}

TEST(battery_trace_test, lookup_is_a_right_continuous_step_function) {
    const auto trace = small_trace();
    EXPECT_DOUBLE_EQ(trace.level_at(-10.0), 0.9); // before first sample
    EXPECT_DOUBLE_EQ(trace.level_at(0.0), 0.9);
    EXPECT_DOUBLE_EQ(trace.level_at(99.9), 0.9);
    EXPECT_DOUBLE_EQ(trace.level_at(100.0), 0.8);
    EXPECT_DOUBLE_EQ(trace.level_at(150.0), 0.8);
    EXPECT_DOUBLE_EQ(trace.level_at(1e9), 0.95); // after last sample
    EXPECT_FALSE(trace.charging_at(150.0));
    EXPECT_TRUE(trace.charging_at(250.0));
}

TEST(battery_trace_test, rejects_malformed_traces) {
    EXPECT_THROW(battery_trace({}), richnote::precondition_error);
    EXPECT_THROW(battery_trace({{0.0, 1.5, false}}), richnote::precondition_error);
    EXPECT_THROW(battery_trace({{100.0, 0.5, false}, {50.0, 0.5, false}}),
                 richnote::precondition_error);
}

TEST(battery_trace_test, csv_round_trip) {
    const auto original = small_trace();
    std::stringstream buffer;
    original.write_csv(buffer);
    const auto loaded = battery_trace::read_csv(buffer);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_DOUBLE_EQ(loaded.samples()[i].at, original.samples()[i].at);
        EXPECT_DOUBLE_EQ(loaded.samples()[i].level, original.samples()[i].level);
        EXPECT_EQ(loaded.samples()[i].charging, original.samples()[i].charging);
    }
}

TEST(battery_trace_test, csv_rejects_garbage) {
    std::stringstream wrong_header("time,lvl\n");
    EXPECT_THROW(battery_trace::read_csv(wrong_header), richnote::precondition_error);
    std::stringstream bad_row("at,level,charging\n1,notanumber,0\n");
    EXPECT_THROW(battery_trace::read_csv(bad_row), richnote::precondition_error);
    std::stringstream bad_flag("at,level,charging\n1,0.5,7\n");
    EXPECT_THROW(battery_trace::read_csv(bad_flag), richnote::precondition_error);
}

TEST(battery_trace_test, synthesize_matches_a_model_run) {
    battery_params params;
    params.phase_jitter_hours = 0.0;
    rng trace_gen(5);
    const auto trace =
        battery_trace::synthesize(params, 24.0 * t::hours, t::hours, trace_gen);
    EXPECT_EQ(trace.size(), 25u);

    rng model_gen(5);
    battery_model model(params, model_gen);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const double at = static_cast<double>(i) * t::hours;
        model.step(at, t::hours, 0.0);
        EXPECT_DOUBLE_EQ(trace.samples()[i].level, model.level());
        EXPECT_EQ(trace.samples()[i].charging, model.charging());
    }
}

TEST(traced_battery_test, replays_the_trace_as_time_advances) {
    traced_battery battery(small_trace());
    EXPECT_DOUBLE_EQ(battery.level(), 0.9); // t = 0
    battery.step(0.0, 100.0, 0.0);          // now = 100
    EXPECT_DOUBLE_EQ(battery.level(), 0.8);
    battery.step(100.0, 100.0, 0.0); // now = 200
    EXPECT_DOUBLE_EQ(battery.level(), 0.95);
    EXPECT_TRUE(battery.charging());
}

TEST(traced_battery_test, drain_and_load_are_ignored) {
    traced_battery battery(small_trace());
    battery.drain(1e9);
    EXPECT_DOUBLE_EQ(battery.level(), 0.9);
    battery.step(0.0, 50.0, 1e9);
    EXPECT_DOUBLE_EQ(battery.level(), 0.9); // still inside the first sample
}

TEST(traced_battery_test, works_as_a_battery_source_for_the_policy) {
    const t::energy_budget_policy policy;
    traced_battery healthy(battery_trace({{0.0, 0.9, false}}));
    EXPECT_DOUBLE_EQ(policy.replenishment(healthy), policy.kappa_joules_per_round);
    traced_battery dying(battery_trace({{0.0, 0.05, false}}));
    EXPECT_DOUBLE_EQ(policy.replenishment(dying), 0.0);
}

TEST(traced_battery_test, an_idle_step_lands_on_the_trace_whatever_came_before) {
    traced_battery fresh(small_trace());
    traced_battery moved(small_trace());
    moved.step(0.0, 250.0, 0.0);
    ASSERT_NE(fresh.level(), moved.level());
    EXPECT_TRUE(fresh.idle_step_resets(100.0, 50.0));
    EXPECT_TRUE(moved.idle_step_resets(100.0, 50.0));
    fresh.step(100.0, 50.0, 0.0);
    moved.step(100.0, 50.0, 0.0);
    EXPECT_EQ(fresh.level(), moved.level());
    EXPECT_EQ(fresh.level(), 0.8);
    EXPECT_EQ(fresh.charging(), moved.charging());
}

TEST(battery_trace_test, file_round_trip_and_missing_file) {
    const std::string path = ::testing::TempDir() + "richnote_battery_trace.csv";
    small_trace().save(path);
    const auto loaded = battery_trace::load(path);
    EXPECT_EQ(loaded.size(), 3u);
    std::remove(path.c_str());
    EXPECT_THROW(battery_trace::load("/nonexistent/battery.csv"),
                 richnote::precondition_error);
}

} // namespace
