// Markov-chain connectivity model (§V-D3).
//
// The paper simulates network condition with a Markov transition model among
// three states — WIFI, CELL and OFF — using 50% probability of remaining in
// the current state and equal probability of transitioning to cell or wifi
// when off. The model is sampled once per round per user.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "common/rng.hpp"

namespace richnote::sim {

enum class net_state : std::uint8_t { off = 0, cell = 1, wifi = 2 };

inline constexpr std::size_t net_state_count = 3;

const char* to_string(net_state state) noexcept;

/// Row-stochastic 3x3 transition matrix indexed by [from][to].
using net_transition_matrix = std::array<std::array<double, net_state_count>, net_state_count>;

/// Link properties per state, used by the delivery engine.
struct link_profile {
    bool connected = false;          ///< can any bytes flow this round?
    double bytes_per_second = 0.0;   ///< downlink rate while connected
    bool metered = true;             ///< does traffic count against the data budget?
};

class markov_network_model {
public:
    /// `initial` is the state before the first step.
    markov_network_model(net_transition_matrix matrix, net_state initial);

    /// Paper default (§V-D3): CELL-only world — the device alternates
    /// between CELL and OFF with 50% self-transition (used for Figs. 3, 4,
    /// 5(a,b,d): "users ... connected sporadically through a cellular
    /// connection").
    static markov_network_model cellular_only(net_state initial = net_state::cell);

    /// CELL/OFF chain whose stationary connected fraction is
    /// `connected_fraction` (rows: from either state, go to CELL with that
    /// probability). connected_fraction = 0.5 reproduces cellular_only()'s
    /// stationary behaviour; sweeping it models better or worse coverage.
    static markov_network_model cellular_with_coverage(double connected_fraction,
                                                       net_state initial = net_state::cell);

    /// Paper §V-D3 (Fig. 5(c)): WIFI/CELL/OFF with 50% self-transition and
    /// equal probability of transitioning to cell or wifi when off.
    static markov_network_model with_wifi(net_state initial = net_state::cell);

    /// Degenerate model that never leaves `state` (useful in tests).
    static markov_network_model fixed(net_state state);

    net_state state() const noexcept { return state_; }

    /// Advances one round and returns the new state. Inline: every broker
    /// steps its chain once per round, idle or not.
    net_state step(richnote::rng& gen) noexcept { return advance(gen.uniform()); }

    /// Moves to the state that the draw `u` in [0, 1) picks from the
    /// current row: the first state whose partial row sum exceeds u, and
    /// the last state when rounding leaves u at or above every sum. Rows are
    /// non-negative, so the partial sums ascend and counting the sums u has
    /// reached picks the same state without a branch.
    net_state advance(double u) noexcept {
        static_assert(net_state_count == 3, "advance() compares u with two partial sums");
        const auto& row = matrix_[static_cast<std::size_t>(state_)];
        const double past_off = row[0];
        const double past_cell = past_off + row[1];
        state_ = static_cast<net_state>(static_cast<int>(u >= past_off) +
                                        static_cast<int>(u >= past_cell));
        return state_;
    }

    const net_transition_matrix& matrix() const noexcept { return matrix_; }

    /// True when every row is the same, so a step's state depends on its
    /// draw alone and not on the state before it (cellular_only,
    /// cellular_with_coverage and fixed chains; not with_wifi).
    bool memoryless() const noexcept;

    /// Stationary distribution by power iteration (reporting / tests).
    std::array<double, net_state_count> stationary(std::size_t iterations = 200) const noexcept;

private:
    net_transition_matrix matrix_;
    net_state state_;
};

/// Default link profiles: OFF carries nothing; CELL is metered at 3G-class
/// rates; WIFI is unmetered and faster. Inline: queried at least once per
/// broker round and again inside every scheduler plan().
inline link_profile default_link_profile(net_state state) noexcept {
    switch (state) {
        case net_state::off:
            return link_profile{false, 0.0, true};
        case net_state::cell:
            // 3G-class downlink; metered against the data plan.
            return link_profile{true, 200.0 * 1024.0, true};
        case net_state::wifi:
            // Home/office WiFi; not billed against the cellular budget.
            return link_profile{true, 2.0 * 1024.0 * 1024.0, false};
    }
    return {};
}

} // namespace richnote::sim
