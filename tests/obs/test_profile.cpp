// Runtime sampling profiler tests: idle scopes record nothing, enabled
// scopes count every call and sample timings, totals are estimated from
// the sample, spans drain from the per-thread rings, and thread lanes are
// pooled so respawned worker threads do not grow the profiler.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/profile.hpp"

namespace {

using richnote::obs::profile_config;
using richnote::obs::profile_slot;
using richnote::obs::span_record;

/// Every test starts from a clean, disabled profiler.
class profile_suite : public testing::Test {
protected:
    void SetUp() override {
        richnote::obs::profile_set_enabled(false);
        richnote::obs::profile_configure(profile_config{});
        richnote::obs::profile_reset();
    }
    void TearDown() override {
        richnote::obs::profile_set_enabled(false);
        richnote::obs::profile_configure(profile_config{});
        richnote::obs::profile_reset();
    }
};

TEST_F(profile_suite, idle_scopes_record_nothing) {
    EXPECT_FALSE(richnote::obs::profile_enabled());
    for (int i = 0; i < 100; ++i) {
        RICHNOTE_PROFILE_SCOPE(profile_slot::broker_round);
    }
    const auto totals = richnote::obs::profile_read(profile_slot::broker_round);
    EXPECT_EQ(totals.calls, 0u);
    EXPECT_EQ(totals.sampled_calls, 0u);
    std::vector<span_record> spans;
    EXPECT_EQ(richnote::obs::profile_drain(spans), 0u);
}

TEST_F(profile_suite, sample_every_one_times_every_call) {
    profile_config cfg;
    cfg.sample_every = 1;
    richnote::obs::profile_configure(cfg);
    richnote::obs::profile_set_enabled(true);
    for (int i = 0; i < 10; ++i) {
        RICHNOTE_PROFILE_SCOPE(profile_slot::mckp_solve);
    }
    richnote::obs::profile_set_enabled(false);

    const auto totals = richnote::obs::profile_read(profile_slot::mckp_solve);
    EXPECT_EQ(totals.calls, 10u);
    EXPECT_EQ(totals.sampled_calls, 10u);
    EXPECT_EQ(totals.nanos, totals.sampled_nanos);

    std::vector<span_record> spans;
    EXPECT_EQ(richnote::obs::profile_drain(spans), 10u);
    for (const span_record& s : spans) {
        EXPECT_EQ(s.slot, profile_slot::mckp_solve);
        EXPECT_GE(s.end_ns, s.start_ns);
    }
    // The rings are drained: a second drain finds nothing.
    EXPECT_EQ(richnote::obs::profile_drain(spans), 0u);
}

TEST_F(profile_suite, reset_and_configure_restart_the_sampling_period) {
    // Leave this thread's lane mid-period at sample_every=7 (10 calls: the
    // 1st and 8th sampled, 5 more to the next sample), then reset and
    // sample every call: a stale countdown would skip the first four.
    profile_config cfg;
    cfg.sample_every = 7;
    richnote::obs::profile_configure(cfg);
    richnote::obs::profile_set_enabled(true);
    for (int i = 0; i < 10; ++i) {
        RICHNOTE_PROFILE_SCOPE(profile_slot::forest_fit);
    }
    richnote::obs::profile_set_enabled(false);
    EXPECT_EQ(richnote::obs::profile_read(profile_slot::forest_fit).sampled_calls, 2u);

    richnote::obs::profile_reset();
    cfg.sample_every = 1;
    richnote::obs::profile_configure(cfg);
    richnote::obs::profile_set_enabled(true);
    for (int i = 0; i < 5; ++i) {
        RICHNOTE_PROFILE_SCOPE(profile_slot::forest_fit);
    }
    richnote::obs::profile_set_enabled(false);
    const auto totals = richnote::obs::profile_read(profile_slot::forest_fit);
    EXPECT_EQ(totals.calls, 5u);
    EXPECT_EQ(totals.sampled_calls, 5u);
}

TEST_F(profile_suite, sampling_counts_all_calls_and_scales_the_estimate) {
    profile_config cfg;
    cfg.sample_every = 4;
    richnote::obs::profile_configure(cfg);
    richnote::obs::profile_set_enabled(true);
    for (int i = 0; i < 100; ++i) {
        RICHNOTE_PROFILE_SCOPE(profile_slot::forest_predict);
    }
    richnote::obs::profile_set_enabled(false);

    const auto totals = richnote::obs::profile_read(profile_slot::forest_predict);
    EXPECT_EQ(totals.calls, 100u);
    EXPECT_EQ(totals.sampled_calls, 25u);
    // nanos = sampled_nanos * calls / sampled_calls.
    EXPECT_EQ(totals.nanos, totals.sampled_nanos * 100u / 25u);

    std::vector<span_record> spans;
    EXPECT_EQ(richnote::obs::profile_drain(spans), 25u);
}

TEST_F(profile_suite, reset_zeroes_totals_and_discards_spans) {
    richnote::obs::profile_set_enabled(true);
    { RICHNOTE_PROFILE_SCOPE(profile_slot::sim_tick); }
    richnote::obs::profile_set_enabled(false);
    richnote::obs::profile_reset();
    EXPECT_EQ(richnote::obs::profile_read(profile_slot::sim_tick).calls, 0u);
    std::vector<span_record> spans;
    EXPECT_EQ(richnote::obs::profile_drain(spans), 0u);
}

TEST_F(profile_suite, lanes_are_reused_across_thread_generations) {
    // The experiment driver respawns its worker pool every round; with one
    // lane per thread *ever*, 500 rounds x 8 workers would hoard memory.
    // Sequential generations of threads must reuse a bounded lane set.
    profile_config cfg;
    cfg.sample_every = 1;
    richnote::obs::profile_configure(cfg);
    richnote::obs::profile_set_enabled(true);
    constexpr int generations = 8;
    constexpr int threads_per_generation = 2;
    for (int g = 0; g < generations; ++g) {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads_per_generation; ++t) {
            pool.emplace_back([] {
                RICHNOTE_PROFILE_SCOPE(profile_slot::scheduler_plan);
            });
        }
        for (auto& th : pool) th.join();
    }
    richnote::obs::profile_set_enabled(false);

    const auto totals = richnote::obs::profile_read(profile_slot::scheduler_plan);
    EXPECT_EQ(totals.calls,
              static_cast<std::uint64_t>(generations * threads_per_generation));

    std::vector<span_record> spans;
    richnote::obs::profile_drain(spans);
    std::uint32_t max_lane = 0;
    for (const span_record& s : spans) max_lane = std::max(max_lane, s.lane);
    // Lane indices stay bounded by the peak concurrency (+1 for the main
    // thread's lane if it ever profiled), not by generations x threads.
    EXPECT_LT(max_lane, threads_per_generation + 1u);
}

TEST_F(profile_suite, full_ring_drops_spans_and_counts_them) {
    profile_config cfg;
    cfg.sample_every = 1;
    cfg.ring_capacity = 4; // tiny ring: almost everything drops
    richnote::obs::profile_configure(cfg);
    richnote::obs::profile_set_enabled(true);
    std::thread worker([] {
        for (int i = 0; i < 100; ++i) {
            RICHNOTE_PROFILE_SCOPE(profile_slot::forest_fit);
        }
    });
    worker.join();
    richnote::obs::profile_set_enabled(false);

    EXPECT_EQ(richnote::obs::profile_read(profile_slot::forest_fit).calls, 100u);
    std::vector<span_record> spans;
    const std::size_t drained = richnote::obs::profile_drain(spans);
    EXPECT_LE(drained, 4u);
    EXPECT_EQ(richnote::obs::profile_dropped(), 100u - drained);
}

} // namespace
