#include "sim/network.hpp"

#include <cmath>

#include "common/error.hpp"

namespace richnote::sim {

const char* to_string(net_state state) noexcept {
    switch (state) {
        case net_state::off: return "OFF";
        case net_state::cell: return "CELL";
        case net_state::wifi: return "WIFI";
    }
    return "?";
}

namespace {
void validate_matrix(const net_transition_matrix& matrix) {
    for (const auto& row : matrix) {
        double total = 0.0;
        for (double p : row) {
            RICHNOTE_REQUIRE(p >= 0.0 && p <= 1.0, "transition probability out of range");
            total += p;
        }
        RICHNOTE_REQUIRE(std::abs(total - 1.0) < 1e-9, "transition row must sum to 1");
    }
}
} // namespace

markov_network_model::markov_network_model(net_transition_matrix matrix, net_state initial)
    : matrix_(matrix), state_(initial) {
    validate_matrix(matrix_);
}

markov_network_model markov_network_model::cellular_only(net_state initial) {
    RICHNOTE_REQUIRE(initial != net_state::wifi, "cellular-only model cannot start on wifi");
    //              to:   OFF   CELL  WIFI
    net_transition_matrix m{{
        /* from OFF  */ {{0.5, 0.5, 0.0}},
        /* from CELL */ {{0.5, 0.5, 0.0}},
        /* from WIFI */ {{0.5, 0.5, 0.0}}, // unreachable; kept stochastic
    }};
    return markov_network_model(m, initial);
}

markov_network_model markov_network_model::cellular_with_coverage(double connected_fraction,
                                                                  net_state initial) {
    RICHNOTE_REQUIRE(connected_fraction >= 0.0 && connected_fraction <= 1.0,
                     "connected fraction must be in [0,1]");
    RICHNOTE_REQUIRE(initial != net_state::wifi,
                     "cellular-only model cannot start on wifi");
    const double p = connected_fraction;
    //              to:   OFF      CELL  WIFI
    net_transition_matrix m{{
        /* from OFF  */ {{1.0 - p, p, 0.0}},
        /* from CELL */ {{1.0 - p, p, 0.0}},
        /* from WIFI */ {{1.0 - p, p, 0.0}}, // unreachable; kept stochastic
    }};
    return markov_network_model(m, initial);
}

markov_network_model markov_network_model::with_wifi(net_state initial) {
    //              to:   OFF    CELL   WIFI
    net_transition_matrix m{{
        /* from OFF  */ {{0.50, 0.25, 0.25}},
        /* from CELL */ {{0.25, 0.50, 0.25}},
        /* from WIFI */ {{0.25, 0.25, 0.50}},
    }};
    return markov_network_model(m, initial);
}

markov_network_model markov_network_model::fixed(net_state state) {
    net_transition_matrix m{};
    for (std::size_t from = 0; from < net_state_count; ++from)
        m[from][static_cast<std::size_t>(state)] = 1.0;
    return markov_network_model(m, state);
}

bool markov_network_model::memoryless() const noexcept {
    for (const auto& row : matrix_)
        if (row != matrix_[0]) return false;
    return true;
}

std::array<double, net_state_count> markov_network_model::stationary(
    std::size_t iterations) const noexcept {
    std::array<double, net_state_count> pi{};
    pi[static_cast<std::size_t>(state_)] = 1.0;
    for (std::size_t it = 0; it < iterations; ++it) {
        std::array<double, net_state_count> next{};
        for (std::size_t from = 0; from < net_state_count; ++from)
            for (std::size_t to = 0; to < net_state_count; ++to)
                next[to] += pi[from] * matrix_[from][to];
        pi = next;
    }
    return pi;
}


} // namespace richnote::sim
