#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

namespace {

using richnote::mix64;
using richnote::rng;

TEST(rng, is_deterministic_for_equal_seeds) {
    rng a(42);
    rng b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(rng, different_seeds_diverge) {
    rng a(1);
    rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b()) ++equal;
    EXPECT_LT(equal, 2);
}

TEST(rng, uniform_is_in_unit_interval) {
    rng gen(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = gen.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(rng, uniform_mean_is_near_half) {
    rng gen(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += gen.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(rng, uniform_range_respects_bounds) {
    rng gen(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = gen.uniform(-5.0, 3.0);
        EXPECT_GE(u, -5.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(rng, uniform_int_covers_inclusive_range) {
    rng gen(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = gen.uniform_int(2, 6);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all five values appear in 1000 draws
}

TEST(rng, uniform_int_single_point_range) {
    rng gen(5);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.uniform_int(9, 9), 9);
}

TEST(rng, uniform_int_is_roughly_uniform) {
    rng gen(17);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(gen.uniform_int(0, 9))];
    for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(rng, bernoulli_frequency_matches_p) {
    rng gen(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) hits += gen.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(rng, bernoulli_handles_degenerate_p) {
    rng gen(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(gen.bernoulli(0.0));
        EXPECT_TRUE(gen.bernoulli(1.0));
    }
}

TEST(rng, normal_moments) {
    rng gen(31);
    const int n = 200000;
    double sum = 0, sum2 = 0;
    for (int i = 0; i < n; ++i) {
        const double x = gen.normal();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(rng, normal_with_parameters) {
    rng gen(37);
    const int n = 100000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += gen.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(rng, exponential_mean) {
    rng gen(41);
    const int n = 100000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += gen.exponential(0.5);
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(rng, exponential_is_positive) {
    rng gen(43);
    for (int i = 0; i < 1000; ++i) EXPECT_GT(gen.exponential(3.0), 0.0);
}

TEST(rng, poisson_small_mean) {
    rng gen(47);
    const int n = 100000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += gen.poisson(3.5);
    EXPECT_NEAR(sum / n, 3.5, 0.05);
}

TEST(rng, poisson_large_mean_uses_normal_approximation) {
    rng gen(53);
    const int n = 50000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += gen.poisson(100.0);
    EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(rng, poisson_zero_mean_is_zero) {
    rng gen(59);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.poisson(0.0), 0u);
}

TEST(rng, index_bounds) {
    rng gen(61);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(gen.index(7), 7u);
}

TEST(rng, shuffle_is_a_permutation) {
    rng gen(67);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    auto shuffled = v;
    gen.shuffle(shuffled);
    EXPECT_NE(shuffled, v); // astronomically unlikely to be identity
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, v);
}

TEST(rng, weighted_index_respects_weights) {
    rng gen(71);
    const std::vector<double> weights = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i) ++counts[gen.weighted_index(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(rng, weighted_index_zero_total_returns_size) {
    rng gen(73);
    const std::vector<double> weights = {0.0, 0.0};
    EXPECT_EQ(gen.weighted_index(weights), weights.size());
}

TEST(rng, split_streams_are_decorrelated) {
    rng parent(79);
    rng child = parent.split();
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (parent() == child()) ++equal;
    EXPECT_LT(equal, 2);
}

TEST(rng, mix64_changes_with_input) {
    EXPECT_NE(mix64(0), mix64(1));
    EXPECT_EQ(mix64(12345), mix64(12345));
}

TEST(rng, discard_equals_stepping) {
    // Both sides of the step/jump cut-over, powers of two and their
    // neighbours (one and many set bits), and a long jump.
    std::vector<std::uint64_t> counts = {0, 1, 2, 1023, 1024, 1025, 1'000'003};
    for (int k = 11; k <= 20; k += 3)
        for (const std::int64_t d : {-1, 0, 1}) counts.push_back((std::uint64_t{1} << k) + d);
    for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefcafef00dull}) {
        for (const std::uint64_t n : counts) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << " n " << n);
            rng stepped(seed);
            rng jumped(seed);
            // A cached normal deviate must survive the jump, as it survives
            // raw draws.
            (void)stepped.normal();
            (void)jumped.normal();
            for (std::uint64_t i = 0; i < n; ++i) (void)stepped();
            jumped.discard(n);
            EXPECT_EQ(jumped.normal(), stepped.normal());
            for (int i = 0; i < 8; ++i) EXPECT_EQ(jumped(), stepped());
            EXPECT_EQ(jumped.uniform(), stepped.uniform());
            EXPECT_EQ(jumped.normal(), stepped.normal());
            EXPECT_EQ(jumped.normal(), stepped.normal());
        }
    }
}

TEST(rng, long_discards_compose) {
    // Jumps too long to check by stepping: split in two, or followed by
    // one raw draw, they must land where the single jump does. The halves
    // use the table's highest powers, up to T^(2^63).
    constexpr std::uint64_t top = std::uint64_t{1} << 63;
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> splits = {
        {std::uint64_t{1} << 40, (std::uint64_t{1} << 40) + 12'345},
        {top >> 1, top >> 1},
        {top - 1, 1},
        {0x0123'4567'89ab'cdefull, 0x1357'9bdf'0246'8aceull},
        {5, top + 1023}};
    for (const std::uint64_t seed : {3ull, 0xdeadbeefcafef00dull}) {
        for (const auto& [a, b] : splits) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << " a " << a << " b " << b);
            rng halves(seed);
            rng whole(seed);
            rng then_step(seed);
            halves.discard(a);
            halves.discard(b);
            whole.discard(a + b);
            then_step.discard(a + b - 1);
            (void)then_step();
            for (int i = 0; i < 8; ++i) {
                const std::uint64_t x = whole();
                EXPECT_EQ(halves(), x);
                EXPECT_EQ(then_step(), x);
            }
        }
    }
    rng a(9);
    rng b(9);
    a.discard(top);
    b.discard(top + 1);
    EXPECT_NE(a(), b());
}

} // namespace
