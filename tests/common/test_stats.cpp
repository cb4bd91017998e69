#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using richnote::pearson;
using richnote::percentile;
using richnote::running_stats;

TEST(running_stats, empty_accumulator_is_zeroed) {
    running_stats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sample_variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(running_stats, single_value) {
    running_stats s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sample_variance(), 0.0);
    EXPECT_EQ(s.standard_error(), 0.0);
}

TEST(running_stats, matches_naive_computation) {
    const std::vector<double> values = {1.0, 2.0, 4.0, 8.0, 16.0};
    running_stats s;
    double sum = 0;
    for (double v : values) {
        s.add(v);
        sum += v;
    }
    const double mean = sum / values.size();
    double var = 0;
    for (double v : values) var += (v - mean) * (v - mean);
    var /= values.size();
    EXPECT_DOUBLE_EQ(s.mean(), mean);
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(running_stats, is_numerically_stable_for_large_offsets) {
    running_stats s;
    const double offset = 1e12;
    for (int i = 0; i < 1000; ++i) s.add(offset + (i % 2));
    EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

/// Two-pass scalar reference: exact textbook mean and sample variance.
struct scalar_reference {
    double mean = 0.0;
    double sample_variance = 0.0;
    double min = 0.0;
    double max = 0.0;
};

scalar_reference reference_moments(const std::vector<double>& xs) {
    scalar_reference ref;
    if (xs.empty()) return ref;
    double sum = 0.0;
    ref.min = ref.max = xs.front();
    for (double x : xs) {
        sum += x;
        ref.min = std::min(ref.min, x);
        ref.max = std::max(ref.max, x);
    }
    ref.mean = sum / static_cast<double>(xs.size());
    if (xs.size() < 2) return ref;
    double ss = 0.0;
    for (double x : xs) ss += (x - ref.mean) * (x - ref.mean);
    ref.sample_variance = ss / static_cast<double>(xs.size() - 1);
    return ref;
}

TEST(running_stats, sample_moments_match_scalar_reference_on_200_seeded_streams) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        richnote::rng gen(seed * 977 + 11);
        const std::size_t n = 2 + static_cast<std::size_t>(gen.uniform(0, 400));
        std::vector<double> xs;
        xs.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Mix of scales and signs, including an offset that stresses
            // catastrophic cancellation in naive sum-of-squares formulas.
            const double offset = (seed % 3 == 0) ? 1e6 : 0.0;
            xs.push_back(offset + gen.normal(5.0, 40.0) * gen.uniform(0.1, 3.0));
        }
        running_stats acc;
        for (double x : xs) acc.add(x);
        const scalar_reference ref = reference_moments(xs);
        ASSERT_EQ(acc.count(), xs.size());
        const double scale = std::max(1.0, std::fabs(ref.mean));
        EXPECT_NEAR(acc.mean(), ref.mean, 1e-9 * scale) << "seed " << seed;
        EXPECT_NEAR(acc.sample_variance(), ref.sample_variance,
                    1e-6 * std::max(1.0, ref.sample_variance))
            << "seed " << seed;
        EXPECT_DOUBLE_EQ(acc.min(), ref.min);
        EXPECT_DOUBLE_EQ(acc.max(), ref.max);
        EXPECT_NEAR(acc.standard_error(),
                    std::sqrt(ref.sample_variance / static_cast<double>(n)),
                    1e-6 * std::max(1.0, std::sqrt(ref.sample_variance)));
    }
}

TEST(running_stats, merge_equals_sequential) {
    richnote::rng gen(5);
    running_stats all, left, right;
    for (int i = 0; i < 500; ++i) {
        const double v = gen.normal(3.0, 2.0);
        all.add(v);
        (i < 200 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(running_stats, merge_with_empty_is_identity) {
    running_stats s;
    s.add(1.0);
    s.add(2.0);
    running_stats empty;
    s.merge(empty);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 1.5);

    running_stats target;
    target.merge(s);
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.mean(), 1.5);
}

TEST(percentile, median_of_odd_sample) {
    EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(percentile, interpolates_between_points) {
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(percentile, extremes_are_min_and_max) {
    const std::vector<double> v = {5.0, 9.0, 1.0, 7.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(percentile, rejects_empty_and_bad_quantile) {
    EXPECT_THROW(percentile({}, 0.5), richnote::precondition_error);
    EXPECT_THROW(percentile({1.0}, 1.5), richnote::precondition_error);
}

TEST(pearson, perfect_positive_and_negative_correlation) {
    const std::vector<double> x = {1, 2, 3, 4};
    const std::vector<double> y = {2, 4, 6, 8};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    const std::vector<double> z = {8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(pearson, independent_samples_are_uncorrelated) {
    richnote::rng gen(9);
    std::vector<double> x, y;
    for (int i = 0; i < 20000; ++i) {
        x.push_back(gen.normal());
        y.push_back(gen.normal());
    }
    EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(pearson, degenerate_cases_return_zero) {
    EXPECT_EQ(pearson({1.0}, {2.0}), 0.0);
    EXPECT_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(pearson, rejects_length_mismatch) {
    EXPECT_THROW(pearson({1.0, 2.0}, {1.0}), richnote::precondition_error);
}

} // namespace
