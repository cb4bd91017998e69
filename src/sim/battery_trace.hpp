// Timestamped battery-status traces.
//
// The paper's evaluation consumes "a separate trace (obtained from [6]) of
// timestamped battery status per user ... to mimic energy drain and battery
// recharge patterns of the devices". This module provides that input
// format: a per-user sequence of (time, level, charging) samples, a replay
// adapter (traced_battery) implementing battery_source, CSV import/export,
// and a synthesizer that records a battery_model run into a trace — so the
// replay path is exercised even without external data (DESIGN.md §2).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/battery.hpp"
#include "sim/time.hpp"

namespace richnote::sim {

struct battery_sample {
    sim_time at = 0;
    double level = 0.0; ///< state of charge [0, 1]
    bool charging = false;
};

/// Immutable, time-sorted sequence of samples. The state at time t is the
/// last sample with at <= t (the first sample before its own timestamp).
class battery_trace {
public:
    explicit battery_trace(std::vector<battery_sample> samples);

    std::size_t size() const noexcept { return samples_.size(); }
    const std::vector<battery_sample>& samples() const noexcept { return samples_; }

    double level_at(sim_time t) const noexcept;
    bool charging_at(sim_time t) const noexcept;

    /// Records a battery_model run: one sample per `step` over `horizon`.
    static battery_trace synthesize(const battery_params& params, sim_time horizon,
                                    sim_time step, richnote::rng& gen);

    /// CSV round-trip (header: at,level,charging).
    void write_csv(std::ostream& out) const;
    static battery_trace read_csv(std::istream& in);
    void save(const std::string& path) const;
    static battery_trace load(const std::string& path);

private:
    std::vector<battery_sample> samples_;
};

/// battery_source replaying a trace. The trace is exogenous — a recording
/// of the device, downloads included — so step() only advances the clock
/// and drain() is a no-op (matching how the paper consumed its traces).
class traced_battery final : public battery_source {
public:
    explicit traced_battery(battery_trace trace);

    double level() const noexcept override;
    bool charging() const noexcept override;
    void step(sim_time t, sim_time dt, double extra_joules) noexcept override;
    void drain(double joules) noexcept override { (void)joules; }
    /// The replay's state is the trace at the step's end, whatever came before.
    bool idle_step_resets(sim_time t, sim_time dt) const noexcept override {
        (void)t;
        (void)dt;
        return true;
    }

    std::unique_ptr<battery_source> clone() const override {
        return std::make_unique<traced_battery>(*this);
    }

    const battery_trace& trace() const noexcept { return trace_; }

private:
    battery_trace trace_;
    sim_time now_ = 0;
};

} // namespace richnote::sim
