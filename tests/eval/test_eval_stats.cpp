// Property tests for the evaluation statistics core (DESIGN.md §12):
// the Student-t quantile against table values, and the
// sequential stopping rule against an oracle on synthetic Gaussian arms —
// at alpha = 0.01 the true-best arm must never be retired, while clearly
// dominated arms must retire well before the sample budget.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "eval/stats.hpp"

namespace {

using richnote::eval::confidence_interval;
using richnote::eval::fnv1a64;
using richnote::eval::hex64;
using richnote::eval::incomplete_beta;
using richnote::eval::sequential_stopper;
using richnote::eval::t_cdf;
using richnote::eval::t_interval;
using richnote::eval::t_quantile;

TEST(t_distribution, quantile_matches_table_values) {
    // Standard two-sided 95% critical values (p = 0.975).
    EXPECT_NEAR(t_quantile(0.975, 1), 12.7062, 1e-3);
    EXPECT_NEAR(t_quantile(0.975, 2), 4.3027, 1e-3);
    EXPECT_NEAR(t_quantile(0.975, 10), 2.2281, 1e-3);
    EXPECT_NEAR(t_quantile(0.975, 30), 2.0423, 1e-3);
    // 99% two-sided (p = 0.995) for the oracle alpha.
    EXPECT_NEAR(t_quantile(0.995, 7), 3.4995, 1e-3);
    // Large df converges to the normal quantile.
    EXPECT_NEAR(t_quantile(0.975, 1e6), 1.9600, 1e-3);
    // Symmetry and median.
    EXPECT_NEAR(t_quantile(0.025, 10), -t_quantile(0.975, 10), 1e-9);
    EXPECT_NEAR(t_quantile(0.5, 5), 0.0, 1e-9);
}

TEST(t_distribution, cdf_quantile_roundtrip) {
    for (double df : {1.0, 3.0, 9.0, 31.0, 200.0}) {
        for (double p : {0.01, 0.1, 0.5, 0.9, 0.975, 0.999}) {
            EXPECT_NEAR(t_cdf(t_quantile(p, df), df), p, 1e-8)
                << "df " << df << " p " << p;
        }
    }
}

TEST(t_distribution, incomplete_beta_boundaries) {
    EXPECT_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
    EXPECT_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
    // I_{1/2}(a, a) = 1/2 by symmetry.
    EXPECT_NEAR(incomplete_beta(4.0, 4.0, 0.5), 0.5, 1e-10);
    // I_x(1, b) = 1 - (1-x)^b in closed form.
    EXPECT_NEAR(incomplete_beta(1.0, 3.0, 0.25), 1.0 - std::pow(0.75, 3.0), 1e-10);
}

TEST(t_distribution, interval_is_mean_plus_minus_t_times_se) {
    richnote::running_stats acc;
    for (double x : {3.0, 5.0, 4.0, 6.0, 2.0, 4.5, 3.5, 5.5}) acc.add(x);
    const confidence_interval ci = t_interval(acc, 0.05);
    const double t = t_quantile(0.975, static_cast<double>(acc.count() - 1));
    EXPECT_NEAR(ci.half_width, t * acc.standard_error(), 1e-12);
    EXPECT_NEAR(ci.lo, acc.mean() - ci.half_width, 1e-12);
    EXPECT_NEAR(ci.hi, acc.mean() + ci.half_width, 1e-12);
}

TEST(t_distribution, interval_is_infinite_below_two_samples) {
    richnote::running_stats acc;
    acc.add(1.0);
    const confidence_interval ci = t_interval(acc, 0.05);
    EXPECT_TRUE(std::isinf(ci.half_width));
    EXPECT_EQ(ci.lo, -std::numeric_limits<double>::infinity());
    EXPECT_EQ(ci.hi, std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------------
// Sequential stopping rule.

TEST(sequential_stopper, respects_min_samples_floor) {
    sequential_stopper stopper(2, {0.05, 5, true});
    // Wildly separated arms, but below the floor nothing may retire.
    for (std::size_t s = 0; s < 4; ++s) {
        stopper.observe(0, 100.0 + static_cast<double>(s));
        stopper.observe(1, 1.0 + static_cast<double>(s));
        EXPECT_TRUE(stopper.check().empty()) << "retired below floor at seed " << s;
    }
    stopper.observe(0, 104.0);
    stopper.observe(1, 5.0);
    const auto decisions = stopper.check();
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].arm, 1u);
    EXPECT_EQ(decisions[0].leader, 0u);
    EXPECT_EQ(decisions[0].samples, 5u);
    EXPECT_FALSE(stopper.active(1));
    EXPECT_TRUE(stopper.active(0));
    EXPECT_EQ(stopper.active_count(), 1u);
    EXPECT_EQ(stopper.leader(), 0u);
}

TEST(sequential_stopper, observing_a_retired_arm_throws) {
    sequential_stopper stopper(2, {0.05, 2, true});
    for (std::size_t s = 0; s < 3 && stopper.active(1); ++s) {
        stopper.observe(0, 50.0 + static_cast<double>(s));
        stopper.observe(1, static_cast<double>(s));
        stopper.check();
    }
    ASSERT_FALSE(stopper.active(1));
    EXPECT_THROW(stopper.observe(1, 1.0), richnote::precondition_error);
}

TEST(sequential_stopper, minimize_direction_retires_the_high_arm) {
    sequential_stopper stopper(2, {0.05, 3, false});
    for (std::size_t s = 0; s < 4 && stopper.active(1); ++s) {
        stopper.observe(0, 10.0 + 0.1 * static_cast<double>(s)); // low = good
        stopper.observe(1, 90.0 + 0.1 * static_cast<double>(s));
        stopper.check();
    }
    EXPECT_TRUE(stopper.active(0));
    EXPECT_FALSE(stopper.active(1));
    EXPECT_EQ(stopper.leader(), 0u);
}

TEST(sequential_stopper, several_arms_can_retire_on_the_same_seed) {
    sequential_stopper stopper(4, {0.05, 3, true});
    for (std::size_t s = 0; s < 3; ++s) {
        const double jitter = 0.05 * static_cast<double>(s);
        stopper.observe(0, 100.0 + jitter);
        stopper.observe(1, 1.0 + jitter);
        stopper.observe(2, 2.0 + jitter);
        stopper.observe(3, 99.9 + jitter);
    }
    const auto decisions = stopper.check();
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_EQ(decisions[0].arm, 1u);
    EXPECT_EQ(decisions[1].arm, 2u);
    EXPECT_TRUE(stopper.active(0));
    EXPECT_TRUE(stopper.active(3)); // overlapping CI with the leader survives
    EXPECT_EQ(stopper.active_count(), 2u);
}

// Oracle: at alpha = 0.01, across 200 independent trials on synthetic
// Gaussian arms with a clear gap, the true-best arm is never retired —
// and the clearly dominated arm almost always is, well inside the budget.
TEST(sequential_stopper, oracle_never_retires_true_best_at_alpha_001) {
    constexpr std::size_t trials = 200;
    constexpr std::size_t max_samples = 64;
    const std::vector<double> true_means = {10.0, 8.0, 5.0}; // arm 0 is best
    std::size_t worst_arm_retirements = 0;
    std::size_t worst_arm_samples_total = 0;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
        richnote::rng gen(0xe5a1u + trial);
        sequential_stopper stopper(true_means.size(), {0.01, 8, true});
        for (std::size_t s = 0; s < max_samples && stopper.active_count() > 1; ++s) {
            for (std::size_t k = 0; k < true_means.size(); ++k) {
                if (stopper.active(k)) stopper.observe(k, gen.normal(true_means[k], 1.0));
            }
            stopper.check();
        }
        ASSERT_TRUE(stopper.active(0)) << "true best retired in trial " << trial;
        if (!stopper.active(2)) {
            ++worst_arm_retirements;
            worst_arm_samples_total += stopper.accumulator(2).count();
        }
    }
    // Power: the mean-5 arm (5 sigma below the best) must essentially always
    // retire, and on average right around the min-samples floor.
    EXPECT_GE(worst_arm_retirements, trials * 95 / 100);
    EXPECT_LT(static_cast<double>(worst_arm_samples_total) /
                  static_cast<double>(worst_arm_retirements),
              16.0);
}

// ---------------------------------------------------------------------------
// Seed-set hash.

TEST(seed_set_hash, fnv1a64_reference_values) {
    // Offset basis for the empty input is the FNV-1a standard constant.
    EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
    const std::uint64_t one[] = {0};
    const std::uint64_t also_one[] = {0};
    EXPECT_EQ(fnv1a64(one, 1), fnv1a64(also_one, 1));
    const std::uint64_t other[] = {1};
    EXPECT_NE(fnv1a64(one, 1), fnv1a64(other, 1));
    // Order matters: hashing is positional, not a set digest.
    const std::uint64_t ab[] = {7, 9};
    const std::uint64_t ba[] = {9, 7};
    EXPECT_NE(fnv1a64(ab, 2), fnv1a64(ba, 2));
}

TEST(seed_set_hash, hex64_is_fixed_width_lowercase) {
    EXPECT_EQ(hex64(0), "0000000000000000");
    EXPECT_EQ(hex64(0xdeadbeefULL), "00000000deadbeef");
    EXPECT_EQ(hex64(0xcbf29ce484222325ULL), "cbf29ce484222325");
}

} // namespace
