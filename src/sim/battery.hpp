// Per-user battery model.
//
// The paper drives energy-budget replenishment e(t) from "a separate trace
// (obtained from [6]) of timestamped battery status per user ... to mimic
// energy drain and battery recharge patterns". We do not have that trace, so
// this module synthesizes an equivalent diurnal process (DESIGN.md §2):
// background drain that is heavier during the day, plus overnight charging
// sessions with some user-to-user phase jitter. The scheduler only observes
// the battery *level* and the derived per-round replenishment allowance
// e(t), which is exactly what the trace provided in the paper.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "sim/time.hpp"

namespace richnote::sim {

/// What the scheduler/broker observe about a device's battery. Two
/// implementations: battery_model (closed-loop simulation) and
/// traced_battery (replay of a timestamped battery-status trace, the
/// paper's actual input — see sim/battery_trace.hpp).
class battery_source {
public:
    virtual ~battery_source() = default;

    /// State of charge in [0, 1].
    virtual double level() const noexcept = 0;
    virtual bool charging() const noexcept = 0;

    /// Advances by `dt` starting at absolute time `t`; `extra_joules` is
    /// additional load (ignored by trace replays — their levels are
    /// exogenous recordings).
    virtual void step(sim_time t, sim_time dt, double extra_joules) noexcept = 0;

    /// Drains energy immediately (no-op for trace replays).
    virtual void drain(double joules) noexcept = 0;

    /// True when step(t, dt, 0) leaves the battery in a state that does not
    /// depend on its state before the step, so every earlier idle step can
    /// be skipped without changing anything after this one.
    virtual bool idle_step_resets(sim_time t, sim_time dt) const noexcept = 0;

    /// Deep copy, preserving the full mutable state (checkpoint/restore for
    /// crash-restart recovery).
    virtual std::unique_ptr<battery_source> clone() const = 0;
};

struct battery_params {
    double capacity_joules = 20'000.0;      ///< ~1500 mAh @ 3.7 V
    double day_drain_watts = 0.55;          ///< screen-on-ish average daytime draw
    double night_drain_watts = 0.12;        ///< idle overnight draw
    double charge_watts = 7.5;              ///< 5 V / 1.5 A charger
    double charge_start_hour = 23.0;        ///< nominal plug-in time
    double charge_end_hour = 7.0;           ///< nominal unplug time
    double phase_jitter_hours = 2.0;        ///< per-user plug-in offset
    double initial_level = 0.9;             ///< state of charge in [0,1]
};

/// Simple state-of-charge integrator stepped once per round.
class battery_model final : public battery_source {
public:
    /// `gen` supplies the per-user phase jitter (consumed at construction).
    battery_model(battery_params params, richnote::rng& gen);

    /// State of charge in [0, 1].
    double level() const noexcept override { return level_; }

    bool charging() const noexcept override { return charging_; }

    /// Advances the battery by `dt` starting at absolute time `t`,
    /// additionally draining `extra_joules` (e.g. notification downloads).
    void step(sim_time t, sim_time dt, double extra_joules) noexcept override;

    /// Drains energy immediately (clamped at empty).
    void drain(double joules) noexcept override;

    /// A step in the charge window drains nothing; when a full step's
    /// charge fills the battery from empty, it clamps the level to 1.
    bool idle_step_resets(sim_time t, sim_time dt) const noexcept override;

    std::unique_ptr<battery_source> clone() const override {
        return std::make_unique<battery_model>(*this);
    }

    const battery_params& params() const noexcept { return params_; }

private:
    /// Whether this user's phase-shifted charge window covers `hour`
    /// (hour of day, hour_of_day()).
    bool in_charge_window(double hour) const noexcept;

    battery_params params_;
    double level_;
    double phase_offset_hours_;
    bool charging_ = false;
};

/// Policy mapping battery state to the per-round energy-budget replenishment
/// e(t) used by the Lyapunov virtual queue (§IV, Algorithm 2 step 2):
/// "Energy budget is also replenished ... at a variable rate, e(t),
/// depending on the current battery status of the device."
struct energy_budget_policy {
    double kappa_joules_per_round = 3'000.0; ///< paper: 3 KJ per hour (§V-C)
    double full_level = 0.5;                 ///< >= this (or charging): full kappa
    double cutoff_level = 0.1;               ///< below this: no replenishment

    /// Replenishment for the coming round given the battery state.
    double replenishment(const battery_source& battery) const noexcept;
};

} // namespace richnote::sim
