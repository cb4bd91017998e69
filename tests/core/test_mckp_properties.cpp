// Parameterized property sweeps over the MCKP solvers: invariants that
// must hold for every instance size and budget regime.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/mckp.hpp"
#include "core/presentation.hpp"

namespace {

using richnote::rng;
using richnote::core::audio_preview_generator;
using richnote::core::make_mckp_item;
using richnote::core::mckp_item;
using richnote::core::mckp_options;
using richnote::core::select_presentations;

std::vector<mckp_item> random_instance(std::size_t n, std::uint64_t seed) {
    static const audio_preview_generator generator{audio_preview_generator::params{}};
    rng gen(seed);
    std::vector<mckp_item> items;
    items.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Mix of full menus and clipped (short-track) menus.
        const double track_sec = gen.bernoulli(0.2) ? gen.uniform(6.0, 35.0) : 276.0;
        items.push_back(
            make_mckp_item(generator.generate(track_sec), gen.uniform(0.05, 1.0)));
    }
    return items;
}

double menu_total(const std::vector<mckp_item>& items) {
    double total = 0;
    for (const auto& item : items) total += item.sizes.back();
    return total;
}

/// (instance size, budget as a fraction of the max-level total).
class mckp_sweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(mckp_sweep, solution_is_feasible_and_consistent) {
    const auto [n, fraction] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto items = random_instance(n, seed);
        const double budget = fraction * menu_total(items);
        const auto solution = select_presentations(items, budget);

        ASSERT_EQ(solution.levels.size(), n);
        double recomputed_size = 0;
        double recomputed_utility = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const auto level = solution.levels[i];
            ASSERT_LE(level, items[i].level_count());
            if (level > 0) {
                recomputed_size += items[i].sizes[level - 1];
                recomputed_utility += items[i].utilities[level - 1];
            }
        }
        EXPECT_LE(recomputed_size, budget + 1e-6);
        EXPECT_NEAR(recomputed_size, solution.total_size, 1e-6);
        EXPECT_NEAR(recomputed_utility, solution.total_utility, 1e-6);
        EXPECT_GE(solution.fractional_bound, solution.total_utility - 1e-9);
    }
}

TEST_P(mckp_sweep, utility_is_monotone_in_budget) {
    const auto [n, fraction] = GetParam();
    const auto items = random_instance(n, 42);
    const double budget = fraction * menu_total(items);
    const double lo = select_presentations(items, budget).total_utility;
    const double hi = select_presentations(items, budget * 1.5).total_utility;
    EXPECT_GE(hi, lo - 1e-9);
}

TEST_P(mckp_sweep, skip_infeasible_never_does_worse) {
    const auto [n, fraction] = GetParam();
    for (std::uint64_t seed = 10; seed <= 14; ++seed) {
        const auto items = random_instance(n, seed);
        const double budget = fraction * menu_total(items);
        const auto stop = select_presentations(items, budget);
        mckp_options skip;
        skip.skip_infeasible = true;
        const auto cont = select_presentations(items, budget, skip);
        EXPECT_GE(cont.total_utility, stop.total_utility - 1e-9);
        EXPECT_LE(cont.total_size, budget + 1e-6);
    }
}

TEST_P(mckp_sweep, full_budget_maxes_every_item) {
    const auto [n, fraction] = GetParam();
    (void)fraction;
    const auto items = random_instance(n, 7);
    const auto solution = select_presentations(items, menu_total(items) + 1.0);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(solution.levels[i], items[i].level_count());
}

INSTANTIATE_TEST_SUITE_P(
    sizes_and_budget_fractions, mckp_sweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{5}, std::size_t{40},
                                         std::size_t{200}),
                       ::testing::Values(0.01, 0.1, 0.5, 0.9)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, double>>& info) {
        // Appended piece by piece: GCC 12 at -O3 flags "n" + std::string
        // as an overlapping memcpy (-Wrestrict).
        std::string name = "n";
        name += std::to_string(std::get<0>(info.param));
        name += "_f";
        name += std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
        return name;
    });

} // namespace
