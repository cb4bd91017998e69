#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using richnote::rng;
using richnote::sim::default_link_profile;
using richnote::sim::markov_network_model;
using richnote::sim::net_state;
using richnote::sim::net_transition_matrix;

TEST(network, state_names) {
    EXPECT_STREQ(to_string(net_state::off), "OFF");
    EXPECT_STREQ(to_string(net_state::cell), "CELL");
    EXPECT_STREQ(to_string(net_state::wifi), "WIFI");
}

TEST(network, rejects_non_stochastic_matrices) {
    net_transition_matrix bad{{{{0.5, 0.5, 0.5}}, {{1, 0, 0}}, {{1, 0, 0}}}};
    EXPECT_THROW(markov_network_model(bad, net_state::off), richnote::precondition_error);
    net_transition_matrix negative{{{{-0.5, 1.5, 0}}, {{1, 0, 0}}, {{1, 0, 0}}}};
    EXPECT_THROW(markov_network_model(negative, net_state::off),
                 richnote::precondition_error);
}

TEST(network, fixed_model_never_transitions) {
    auto m = markov_network_model::fixed(net_state::cell);
    rng gen(1);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(m.step(gen), net_state::cell);
}

TEST(network, cellular_only_never_reaches_wifi) {
    auto m = markov_network_model::cellular_only();
    rng gen(2);
    for (int i = 0; i < 10000; ++i) EXPECT_NE(m.step(gen), net_state::wifi);
}

TEST(network, cellular_only_rejects_wifi_start) {
    EXPECT_THROW(markov_network_model::cellular_only(net_state::wifi),
                 richnote::precondition_error);
}

TEST(network, cellular_only_is_half_connected_on_average) {
    auto m = markov_network_model::cellular_only();
    rng gen(3);
    int connected = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (m.step(gen) == net_state::cell) ++connected;
    EXPECT_NEAR(static_cast<double>(connected) / n, 0.5, 0.01);
}

TEST(network, with_wifi_matches_paper_transition_structure) {
    auto m = markov_network_model::with_wifi();
    const auto& matrix = m.matrix();
    // 50% self-transition everywhere.
    for (std::size_t s = 0; s < 3; ++s) EXPECT_DOUBLE_EQ(matrix[s][s], 0.5);
    // From OFF: equal probability of cell and wifi.
    EXPECT_DOUBLE_EQ(matrix[0][1], 0.25);
    EXPECT_DOUBLE_EQ(matrix[0][2], 0.25);
}

TEST(network, with_wifi_visits_all_states) {
    auto m = markov_network_model::with_wifi();
    rng gen(4);
    std::array<int, 3> counts{};
    const int n = 60000;
    for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(m.step(gen))];
    for (int c : counts) EXPECT_GT(c, n / 10);
}

TEST(network, empirical_frequencies_match_stationary_distribution) {
    auto m = markov_network_model::with_wifi();
    const auto pi = m.stationary();
    double total = 0;
    for (double p : pi) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);

    auto runner = markov_network_model::with_wifi();
    rng gen(5);
    std::array<double, 3> counts{};
    const int n = 200000;
    for (int i = 0; i < n; ++i) counts[static_cast<std::size_t>(runner.step(gen))] += 1.0;
    for (std::size_t s = 0; s < 3; ++s) EXPECT_NEAR(counts[s] / n, pi[s], 0.01);
}

TEST(network, symmetric_chain_has_uniform_stationary) {
    auto m = markov_network_model::with_wifi();
    const auto pi = m.stationary();
    // The paper's matrix is doubly stochastic, so the stationary
    // distribution is uniform over the three states.
    for (double p : pi) EXPECT_NEAR(p, 1.0 / 3.0, 1e-9);
}

TEST(network, coverage_model_hits_requested_stationary_fraction) {
    for (double coverage : {0.2, 0.5, 0.8}) {
        auto m = markov_network_model::cellular_with_coverage(coverage);
        rng gen(7);
        int connected = 0;
        const int n = 100000;
        for (int i = 0; i < n; ++i)
            if (m.step(gen) == net_state::cell) ++connected;
        EXPECT_NEAR(static_cast<double>(connected) / n, coverage, 0.01)
            << "coverage " << coverage;
    }
}

TEST(network, coverage_half_matches_cellular_only_stationary) {
    const auto a = markov_network_model::cellular_with_coverage(0.5).stationary();
    const auto b = markov_network_model::cellular_only().stationary();
    for (std::size_t s = 0; s < 3; ++s) EXPECT_NEAR(a[s], b[s], 1e-9);
}

TEST(network, coverage_extremes_pin_the_state) {
    auto never = markov_network_model::cellular_with_coverage(0.0);
    auto always = markov_network_model::cellular_with_coverage(1.0);
    rng gen(9);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(never.step(gen), net_state::off);
        EXPECT_EQ(always.step(gen), net_state::cell);
    }
}

TEST(network, coverage_model_rejects_bad_arguments) {
    EXPECT_THROW(markov_network_model::cellular_with_coverage(-0.1),
                 richnote::precondition_error);
    EXPECT_THROW(markov_network_model::cellular_with_coverage(1.1),
                 richnote::precondition_error);
    EXPECT_THROW(markov_network_model::cellular_with_coverage(0.5, net_state::wifi),
                 richnote::precondition_error);
}

/// The chain step as a first-match scan over the row's running sums: the
/// first state whose running sum exceeds u, else the last state.
net_state scanned_state(const net_transition_matrix& m, net_state from, double u) {
    const auto& row = m[static_cast<std::size_t>(from)];
    double acc = 0.0;
    for (std::size_t to = 0; to < row.size(); ++to) {
        acc += row[to];
        if (u < acc) return static_cast<net_state>(to);
    }
    return static_cast<net_state>(row.size() - 1);
}

/// A random row-stochastic matrix; about half its rows get one or two
/// zero entries (never three: at most two distinct draws are zeroed).
net_transition_matrix random_matrix(rng& gen) {
    net_transition_matrix m{};
    for (auto& row : m) {
        for (double& p : row) p = gen.uniform();
        if (gen.bernoulli(0.5)) {
            const auto zeros = gen.uniform_int(1, 2);
            for (std::int64_t z = 0; z < zeros; ++z)
                row[static_cast<std::size_t>(gen.uniform_int(0, 2))] = 0.0;
        }
        const double total = row[0] + row[1] + row[2];
        for (double& p : row) p /= total;
    }
    return m;
}

TEST(network, branch_free_step_matches_the_first_match_scan) {
    rng gen(11);
    for (int trial = 0; trial < 500; ++trial) {
        const net_transition_matrix m = random_matrix(gen);
        for (std::size_t from = 0; from < 3; ++from) {
            const auto& row = m[from];
            const double first = 0.0 + row[0]; // the scan's own partial sums
            const double second = first + row[1];
            // Draws exactly on each partial sum and one ulp either side.
            const double probes[] = {0.0,
                                     first,
                                     std::nextafter(first, 0.0),
                                     std::nextafter(first, 1.0),
                                     second,
                                     std::nextafter(second, 0.0),
                                     std::nextafter(second, 1.0),
                                     std::nextafter(1.0, 0.0),
                                     gen.uniform()};
            for (const double u : probes) {
                if (u < 0.0 || u >= 1.0) continue;
                markov_network_model model(m, static_cast<net_state>(from));
                SCOPED_TRACE(::testing::Message() << "trial " << trial << " from " << from
                                                  << " u " << u);
                EXPECT_EQ(model.advance(u), scanned_state(m, static_cast<net_state>(from), u));
                EXPECT_EQ(model.state(), scanned_state(m, static_cast<net_state>(from), u));
            }
        }
        // Whole trajectories: step() against the scan fed the same draws.
        markov_network_model model(m, net_state::cell);
        rng chain(static_cast<std::uint64_t>(trial));
        rng scan(static_cast<std::uint64_t>(trial));
        net_state expected = net_state::cell;
        for (int k = 0; k < 64; ++k) {
            expected = scanned_state(m, expected, scan.uniform());
            ASSERT_EQ(model.step(chain), expected) << "trial " << trial << " step " << k;
        }
    }
}

TEST(network, a_memoryless_chain_forgets_its_state_in_one_step) {
    EXPECT_TRUE(markov_network_model::cellular_only().memoryless());
    EXPECT_TRUE(markov_network_model::cellular_with_coverage(0.3).memoryless());
    EXPECT_TRUE(markov_network_model::fixed(net_state::wifi).memoryless());
    EXPECT_FALSE(markov_network_model::with_wifi().memoryless());
    // From either start state, the same draw gives the same next state.
    auto a = markov_network_model::cellular_with_coverage(0.3, net_state::off);
    auto b = markov_network_model::cellular_with_coverage(0.3, net_state::cell);
    rng draws(5);
    for (int i = 0; i < 100; ++i) {
        const double u = draws.uniform();
        EXPECT_EQ(a.advance(u), b.advance(u));
    }
}

TEST(link_profile, off_carries_nothing) {
    const auto p = default_link_profile(net_state::off);
    EXPECT_FALSE(p.connected);
    EXPECT_DOUBLE_EQ(p.bytes_per_second, 0.0);
}

TEST(link_profile, wifi_is_unmetered_and_faster_than_cell) {
    const auto cell = default_link_profile(net_state::cell);
    const auto wifi = default_link_profile(net_state::wifi);
    EXPECT_TRUE(cell.connected);
    EXPECT_TRUE(cell.metered);
    EXPECT_TRUE(wifi.connected);
    EXPECT_FALSE(wifi.metered);
    EXPECT_GT(wifi.bytes_per_second, cell.bytes_per_second);
}

} // namespace
