// Simulation time base. RichNote operates in fixed-period rounds (the paper
// uses 1-hour rounds, §V-C) driven by core/round_engine; time itself is
// continuous double-precision seconds so sub-round delivery timestamps and
// queuing delays are exact.
#pragma once

namespace richnote::sim {

/// Simulated seconds since the start of the run.
using sim_time = double;

inline constexpr sim_time seconds = 1.0;
inline constexpr sim_time minutes = 60.0;
inline constexpr sim_time hours = 3600.0;
inline constexpr sim_time days = 24.0 * hours;
inline constexpr sim_time weeks = 7.0 * days;

/// The paper's round length: 1 hour (§V-C).
inline constexpr sim_time default_round = hours;

/// Hour-of-day in [0, 24) for diurnal models.
inline double hour_of_day(sim_time t) noexcept {
    double h = t / hours;
    h -= static_cast<double>(static_cast<long long>(h / 24.0)) * 24.0;
    return h < 0 ? h + 24.0 : h;
}

/// True on Saturday/Sunday assuming t = 0 is Monday 00:00.
inline bool is_weekend(sim_time t) noexcept {
    const auto day = static_cast<long long>(t / days) % 7;
    return day == 5 || day == 6;
}

/// True for an hour of day between 08:00 and 22:00.
inline bool is_daytime_hour(double hour) noexcept { return hour >= 8.0 && hour < 22.0; }

/// True between 08:00 and 22:00 (the paper's day/night feature, §V-A).
inline bool is_daytime(sim_time t) noexcept { return is_daytime_hour(hour_of_day(t)); }

} // namespace richnote::sim
