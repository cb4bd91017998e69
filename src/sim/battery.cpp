#include "sim/battery.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace richnote::sim {

battery_model::battery_model(battery_params params, richnote::rng& gen)
    : params_(params), level_(params.initial_level) {
    RICHNOTE_REQUIRE(params.capacity_joules > 0, "battery capacity must be positive");
    RICHNOTE_REQUIRE(params.initial_level >= 0 && params.initial_level <= 1,
                     "initial level must be in [0,1]");
    phase_offset_hours_ = gen.uniform(-params.phase_jitter_hours, params.phase_jitter_hours);
}

bool battery_model::in_charge_window(double hour) const noexcept {
    double h = hour - phase_offset_hours_;
    if (h < 0) h += 24.0;
    if (h >= 24.0) h -= 24.0;
    const double start = params_.charge_start_hour;
    const double end = params_.charge_end_hour;
    if (start <= end) return h >= start && h < end;
    return h >= start || h < end; // window wraps midnight
}

void battery_model::step(sim_time t, sim_time dt, double extra_joules) noexcept {
    // Stepped every round of every broker, idle ones included: take the
    // hour of day once for both the charge window and the day/night draw.
    const double hour = hour_of_day(t);
    charging_ = in_charge_window(hour);
    const double drain_watts = charging_ ? 0.0
                               : is_daytime_hour(hour) ? params_.day_drain_watts
                                                       : params_.night_drain_watts;
    const double charge_watts = charging_ ? params_.charge_watts : 0.0;
    const double delta_joules = (charge_watts - drain_watts) * dt - extra_joules;
    level_ = std::clamp(level_ + delta_joules / params_.capacity_joules, 0.0, 1.0);
}

bool battery_model::idle_step_resets(sim_time t, sim_time dt) const noexcept {
    // The same operations step() performs with nothing drained: the level
    // is in [0, 1], so level + x rounds to at least x >= 1 and clamps to 1.
    return in_charge_window(hour_of_day(t)) &&
           params_.charge_watts * dt / params_.capacity_joules >= 1.0;
}

void battery_model::drain(double joules) noexcept {
    level_ = std::clamp(level_ - joules / params_.capacity_joules, 0.0, 1.0);
}

double energy_budget_policy::replenishment(const battery_source& battery) const noexcept {
    if (battery.charging()) return kappa_joules_per_round;
    const double level = battery.level();
    if (level >= full_level) return kappa_joules_per_round;
    if (level <= cutoff_level) return 0.0;
    // Linear taper between the cutoff and the comfortable level.
    const double frac = (level - cutoff_level) / (full_level - cutoff_level);
    return kappa_joules_per_round * frac;
}

} // namespace richnote::sim
