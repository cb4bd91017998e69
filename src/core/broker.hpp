// Per-user broker: the Figure 1 workflow.
//
// Each user is served by one broker that owns the user's scheduler, data-
// budget account, battery and network models. Every round the broker:
//   1. steps the network Markov chain and the battery;
//   2. admits trace arrivals into the scheduling queue (incoming queue ->
//      presentation generation -> utility assignment, §IV);
//   3. replenishes the data budget by theta with rollover (Algorithm 2
//      step 2) and computes e(t) from the battery policy;
//   4. asks the scheduler for a delivery plan and pushes it through the
//      link, deducting data budget and energy per delivery (step 3) and
//      timestamping each delivery by the bytes already sent this round.
//
// An idle round (empty queue, no fault plan) is steps 1 and 3 alone. A
// broker idle for k rounds is caught up by run_idle_rounds(k), bit for bit,
// in time independent of k once its scheduler and battery allow (DESIGN.md
// §11, "Skipping idle rounds").
//
// Resilience (DESIGN.md "Fault model & recovery"): admission is idempotent
// (replayed publishes are suppressed by id), interrupted transfers charge
// only the bytes actually moved and resume from a per-item high-water mark,
// and the full mutable state can be checkpointed and restored to survive
// injected crash-restart events bit-for-bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"

#include "core/metrics.hpp"
#include "core/presentation.hpp"
#include "core/scheduler.hpp"
#include "core/utility.hpp"
#include "energy/model.hpp"
#include "faults/fault_plan.hpp"
#include "sim/battery.hpp"
#include "sim/battery_trace.hpp"
#include "sim/network.hpp"
#include "sim/time.hpp"
#include "trace/notification.hpp"

namespace richnote::core {

struct broker_params {
    double budget_per_round_bytes = 0.0; ///< theta (Algorithm 2 step 2)
    richnote::sim::sim_time round = richnote::sim::default_round;
    richnote::sim::energy_budget_policy energy_policy;
    /// Cap on how much unused budget may roll over, expressed in rounds of
    /// theta; 0 disables rollover entirely. The paper lets budget "roll
    /// over in the next round if not used"; the default allows a full
    /// week of accumulation (168 one-hour rounds), so even an 800 KB fixed
    /// presentation can eventually be afforded at a 1 MB/week budget.
    double rollover_rounds = 168.0;
    /// Probability an individual transfer fails mid-flight (cellular drop).
    /// The item STAYS in the scheduling queue and is retried in a later
    /// round. 0 = the paper's lossless setting.
    double transfer_failure_prob = 0.0;
    /// If true, a failed transfer burns the item's full byte size and radio
    /// energy (the historical all-or-nothing accounting). The default
    /// charges only the bytes that actually moved before the cut and lets
    /// the next attempt resume from the high-water mark.
    bool legacy_failure_accounting = false;
    /// Optional deterministic fault plan (blackouts, partial transfers,
    /// brownouts, ...). Not owned; nullptr = no injected faults.
    const richnote::faults::fault_plan* faults = nullptr;
    /// Sizing hint: expected total admissions for this user (the stream
    /// length). Pre-reserves the idempotency set so steady-state admission
    /// never rehashes. 0 = no hint.
    std::size_t expected_admissions = 0;
    /// Optional structured trace sink (obs). Not owned; nullptr (the
    /// default) keeps every emission site to a single null check. The
    /// broker also binds it to the scheduler for decision-level events.
    richnote::obs::trace_sink* trace = nullptr;
    /// Optional service-mode lifecycle tracker (obs/lifecycle.hpp). Not
    /// owned; nullptr (the default) keeps every hook to one null check.
    /// The broker reports attempt/delivered transitions and binds it to
    /// the scheduler for plan/dead-letter ones.
    richnote::obs::lifecycle_tracker* lifecycle = nullptr;
};

/// Snapshot of everything a broker mutates over time. Move-only (owns a
/// cloned battery). Same-seed restore + replay is bit-identical to an
/// uninterrupted run: every randomness consumer (env_rng, network chain)
/// is captured by value.
struct broker_checkpoint {
    std::uint64_t round_index = 0;
    double data_budget = 0.0;
    std::uint64_t failed_transfers = 0;
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t crash_restarts = 0;
    std::unordered_set<std::uint64_t> seen_ids;
    std::map<std::uint64_t, double> partial_progress;
    std::vector<trace::notification> pending_feedback;
    richnote::rng env_rng{0};
    richnote::sim::markov_network_model network =
        richnote::sim::markov_network_model::fixed(richnote::sim::net_state::off);
    std::unique_ptr<richnote::sim::battery_source> battery;
    scheduler::checkpoint_state sched;
};

class broker {
public:
    /// `env_seed` seeds this broker's private environment randomness (the
    /// network Markov transitions). Each broker owning its own stream makes
    /// users fully independent — the property §V-C leans on for backend
    /// parallelism — so results are identical no matter how users are
    /// sharded across worker threads.
    broker(trace::user_id user, broker_params params, std::unique_ptr<scheduler> sched,
           const presentation_generator& generator, const content_utility_model& utility,
           const energy::energy_model& energy, richnote::sim::markov_network_model network,
           std::unique_ptr<richnote::sim::battery_source> battery,
           const trace::catalog& catalog, metrics_recorder& metrics,
           std::uint64_t env_seed);

    /// Admit one trace notification (called in timestamp order). Admission
    /// is idempotent: a notification id seen before is suppressed and
    /// counted, so an at-least-once upstream (or an injected duplicate
    /// arrival) cannot double-deliver.
    void admit(const trace::notification& n);

    /// Execute one round starting at `now` (steps 1–4 above).
    void run_round(richnote::sim::sim_time now);

    /// Runs `rounds` idle rounds, the first at `start` and each next one
    /// `period` later (accumulated, as the round driver's clock is), and
    /// returns the clock after the last. For a broker with an empty queue
    /// and no fault plan a round is exactly open_round(): nothing is
    /// planned, delivered or emitted. The deferring round engine catches a
    /// lagging broker up through this.
    ///
    /// It leaves the broker bit for bit where that many open_round() calls
    /// would, and where the skip below applies its cost does not grow with
    /// `rounds`. A head of rounds runs until the scheduler is idle-steady
    /// (scheduler::idle_steady). Then, when the chain is memoryless, the
    /// clock exact and a battery step that resets the battery lies within a
    /// day of the stretch's end, every round before the latest such step is
    /// skipped: the skip jumps the environment stream by one draw a round
    /// (rng::discard), adds to the round index and runs the budget rollover
    /// to its cap. The tail, from the resetting round on, runs round by
    /// round.
    richnote::sim::sim_time run_idle_rounds(std::uint64_t rounds,
                                            richnote::sim::sim_time start,
                                            richnote::sim::sim_time period);

    const scheduler& sched() const noexcept { return *scheduler_; }

    /// Rounds executed so far (restored with a checkpoint). The service
    /// compares it with its own round count to find how far a deferred
    /// broker lags.
    std::uint64_t rounds_run() const noexcept { return round_index_; }

    /// Transfers that failed mid-flight so far (see transfer_failure_prob).
    std::uint64_t failed_transfers() const noexcept { return failed_transfers_; }

    /// Replayed publishes suppressed by idempotent admission.
    std::uint64_t duplicates_suppressed() const noexcept { return duplicates_suppressed_; }

    /// Crash-restart events survived (checkpoint + restore round trips).
    std::uint64_t crash_restarts() const noexcept { return crash_restarts_; }

    /// Per-item byte high-water marks of interrupted, not-yet-complete
    /// transfers (item id -> bytes already moved).
    const std::map<std::uint64_t, double>& partial_progress() const noexcept {
        return partial_progress_;
    }

    /// Snapshot the full mutable state (deep copy; the live broker is
    /// untouched).
    broker_checkpoint checkpoint() const;

    /// Replace the mutable state with `cp` (taken from this broker earlier).
    void restore(const broker_checkpoint& cp);

    /// Simulate a broker crash immediately followed by recovery from its
    /// own durable checkpoint: snapshot, restore, count. Because the
    /// checkpoint is lossless this must not perturb subsequent rounds —
    /// the property tests/core/test_broker_resilience.cpp pins down.
    void crash_restart();

    /// Drains the engagement feedback observed since the last call: copies
    /// of delivered notifications the user attended (clicked or hovered).
    /// This is what an online learner may legitimately train on — feedback
    /// exists only for content that was actually delivered.
    std::vector<trace::notification> take_feedback();
    double data_budget() const noexcept { return data_budget_; }
    richnote::sim::net_state network_state() const noexcept { return network_.state(); }
    const richnote::sim::battery_source& battery() const noexcept { return *battery_; }
    trace::user_id user() const noexcept { return user_; }

private:
    /// The fault-free prefix every round starts with (steps 1 and 3):
    /// advances the round index, steps the network chain and the battery,
    /// rolls the data budget over, computes e(t) (zero in a brownout) and
    /// opens the scheduler's round (scheduler::open_round). Returns the
    /// round's context with the chain's state as its network and no link
    /// yet; run_round() applies a blackout and the link profile.
    round_context open_round(richnote::sim::sim_time now, bool brownout);

    /// Algorithm 2 step 2's budget replenishment with capped rollover.
    void roll_budget_over() noexcept;

    /// How many of `rounds` idle rounds from `start` run_idle_rounds may
    /// skip outright, given an idle-steady scheduler: the index of the
    /// latest round whose battery step resets, or 0 when the skip's
    /// exactness conditions do not hold or it would cover too few rounds.
    std::uint64_t idle_rounds_to_skip(std::uint64_t rounds, richnote::sim::sim_time start,
                                      richnote::sim::sim_time period) const noexcept;

    /// Fewest rounds worth skipping. A skip (stream jump, rollover
    /// recursion, search for the resetting round, a tail of up to a day)
    /// costs 1.4-2.1 us, as much as 70-110 idle rounds at ~19 ns
    /// (perf_service's catch_up_us_per_broker_lag_* series, x86-64,
    /// Release). From 256 rounds a skip costs under half the rounds it
    /// replaces, and replays whose lags stay within a week of hourly rounds
    /// keep to the round-by-round path.
    static constexpr std::uint64_t min_idle_skip = 256;

    trace::user_id user_;
    broker_params params_;
    std::unique_ptr<scheduler> scheduler_;
    const presentation_generator* generator_;
    const content_utility_model* utility_;
    const energy::energy_model* energy_;
    richnote::sim::markov_network_model network_;
    std::unique_ptr<richnote::sim::battery_source> battery_;
    const trace::catalog* catalog_;
    metrics_recorder* metrics_;
    richnote::rng env_rng_;
    double data_budget_ = 0.0;
    std::uint64_t round_index_ = 0; ///< rounds executed; indexes fault queries
    std::uint64_t failed_transfers_ = 0;
    std::uint64_t duplicates_suppressed_ = 0;
    std::uint64_t crash_restarts_ = 0;
    std::unordered_set<std::uint64_t> seen_ids_;          ///< idempotent admission
    std::map<std::uint64_t, double> partial_progress_;    ///< resume high-water marks
    std::vector<trace::notification> pending_feedback_;
};

} // namespace richnote::core
