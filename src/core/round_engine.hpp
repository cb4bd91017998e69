// Fixed-period round engine (§V-C): the one loop that runs RichNote.
//
// The paper runs RichNote "in rounds and independently for each user". The
// engine owns everything such a round needs — the broker fleet (built by
// make_user_broker), the worker pool, the round index and clock, the active
// list, fault-plan arrival reordering and duplication, telemetry and the
// per-round trace flush — and both run modes drive it:
//
//   run_experiment       trace_cursor_source    the generated trace, replayed
//   notification_service pending_bucket_source  the live wire's admission ring
//
// One round: the source wakes the users whose arrivals come due, then the
// pool shards the active list; for each active user the engine catches its
// broker up (below), the source hands over its due items, and the broker
// runs its round. The engine is the executor, the schedulers the policy.
//
// Clock: `now += round`, accumulated rather than multiplied, so every run
// mode passes brokers the same timestamps bit for bit.
//
// Idle-broker deferral: a broker whose scheduling queue is empty, and whose
// source holds nothing for it, leaves the active list and lags. Before it is
// next admitted to, run or exposed through user_broker(), the rounds it
// missed are replayed through broker::run_idle_rounds, its clock
// re-accumulated from the first missed round's start. An idle round moves
// only broker-private state (round index, network chain, battery, budget
// rollover, P(t)) and emits nothing: it is the prefix every
// broker::run_round starts with, and the replay runs that same prefix, or
// skips a long stretch of it exactly, in time independent of the lag; so
// the replay is the sweep — but only while nothing else looks at or
// perturbs an idle round. The engine therefore defers only when the run has
//   - no fault plan (blackouts, brownouts and crash-restarts mutate an idle
//     broker and emit trace events),
//   - no telemetry users (they sample every broker every round), and
//   - no progress listener (its snapshot sums every broker's P(t)).
// Otherwise every broker runs every round: the full sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/admission_queue.hpp"
#include "core/experiment.hpp"
#include "core/worker_pool.hpp"

namespace richnote::core {

class round_engine;

/// Where a round's arrivals come from.
class arrival_source {
public:
    /// Driver thread, before the shards: activate (round_engine::activate)
    /// every user with arrivals due this round.
    virtual void begin_round(round_engine& engine) = 0;
    /// On the worker slot that owns user u: hand u's due items to its
    /// broker through round_engine::reorder and round_engine::admit.
    /// Returns how many items were handed over.
    virtual std::size_t admit_due(round_engine& engine, trace::user_id u) = 0;
    /// True while the source holds items for u that no later begin_round
    /// would wake u for; such a user stays active.
    virtual bool holds(trace::user_id u) const = 0;

protected:
    ~arrival_source() = default;
};

class round_engine {
public:
    /// A fleet of `user_count` brokers configured by `params` and sharded
    /// over `worker_threads`. `utility` scores admissions, unless
    /// params.online_learning, in which case the engine owns a cold-start
    /// learner fed from delivery feedback. `expected_admissions(u)` sizes
    /// broker u's dedup set and never affects outputs.
    round_engine(const experiment_setup& setup, const experiment_params& params,
                 std::size_t user_count, std::size_t worker_threads,
                 const content_utility_model& utility,
                 std::function<std::size_t(trace::user_id)> expected_admissions);
    ~round_engine();

    round_engine(const round_engine&) = delete;
    round_engine& operator=(const round_engine&) = delete;

    /// Runs one round with arrivals from `source`; returns the items it
    /// admitted. Driver thread only.
    std::uint64_t run_round(arrival_source& source);

    /// Elastic resharding at a round boundary: checkpoint every broker,
    /// resize the pool, rebuild the fleet on it deterministically, restore.
    /// Lagging brokers go through as they are: round_index is in the
    /// checkpoint, so a restored broker still owes the same rounds.
    void reshard(std::size_t worker_threads);

    // ----- for arrival sources -----

    /// Clock and index of the round being run (or about to run).
    richnote::sim::sim_time now() const noexcept { return now_; }
    std::uint64_t rounds_run() const noexcept { return rounds_run_; }
    /// False when every broker runs every round (see the header).
    bool defers() const noexcept { return defer_; }
    /// Puts u on the active list. Driver thread only (begin_round).
    void activate(trace::user_id u) {
        if (active_flag_[u] != 0) return;
        active_flag_[u] = 1;
        active_.push_back(u);
    }
    /// Fault plan: scrambles one user's due items [first, last) when the
    /// plan says pub/sub delivered this round's batch out of order. The
    /// permutation is a pure function of (seed, user, round), so sharding
    /// cannot change it.
    template <typename It>
    void reorder(trace::user_id u, It first, It last) const {
        if (faults_ == nullptr || last - first < 2 || !faults_->reorder_arrivals(u, rounds_run_))
            return;
        richnote::rng scramble(faults_->reorder_seed(u, rounds_run_));
        scramble.shuffle(first, last);
    }
    /// Admits n to u's broker, plus the at-least-once replay the fault plan
    /// may inject (idempotent admission must suppress it). Worker slot
    /// owning u only.
    void admit(trace::user_id u, const trace::notification& n);

    // ----- fleet state -----

    std::size_t user_count() const noexcept { return brokers_.size(); }
    std::size_t worker_threads() const noexcept { return pool_->threads(); }
    const metrics_recorder& metrics() const noexcept { return metrics_; }
    /// The fleet as it stands: a deferred broker lags, but its user's
    /// metrics and its (empty) queue are already final.
    std::span<const broker> brokers() const noexcept { return brokers_; }
    /// User u's broker, first caught up to the current round. Driver
    /// thread only.
    const broker& user_broker(trace::user_id u);
    /// Per-round samples of params.telemetry_users.
    const std::shared_ptr<telemetry>& trajectories() const noexcept { return trajectories_; }
    /// Brokers the last round ran (the active list it sharded).
    std::size_t active_users() const noexcept { return active_users_; }
    /// Deferred idle rounds replayed when a lagging broker was touched,
    /// skipped ones included.
    std::uint64_t caught_up_rounds() const noexcept { return caught_up_rounds_; }

private:
    /// Constructs broker u for every user on the pool: each slot builds the
    /// contiguous range of users it owns in the full sweep, so the thread
    /// that later runs a slot's brokers is the one that allocated them.
    /// Broker u is a function of (params, u) alone, so the fleet is
    /// bit-identical for any pool size.
    void build_fleet();
    /// Destroys and frees the fleet (brokers_ left empty).
    void destroy_fleet() noexcept;
    /// Replays the rounds user u's broker missed while deferred; returns
    /// how many. Touches only u's broker and owed_start_[u], so worker
    /// slots may call it for their own users concurrently.
    std::uint64_t catch_up(trace::user_id u);

    const experiment_setup* setup_;
    experiment_params params_;
    std::function<std::size_t(trace::user_id)> expected_admissions_;

    // Read-only scoring/synthesis context shared by every broker.
    audio_preview_generator base_generator_;
    memoized_presentation_generator generator_;
    energy::energy_model energy_;
    std::unique_ptr<online_content_utility> online_model_;
    const content_utility_model* utility_;
    richnote::faults::fault_plan fault_schedule_;
    const richnote::faults::fault_plan* faults_; ///< nullptr = inert plan
    metrics_recorder metrics_;
    std::shared_ptr<telemetry> trajectories_;

    /// Built before the fleet, which it constructs (build_fleet).
    std::unique_ptr<worker_pool> pool_;
    /// The fleet, one broker per user, in storage this engine allocates and
    /// constructs in place (build_fleet) and destroys (destroy_fleet).
    std::span<broker> brokers_;

    /// Whether idle brokers may leave the active list (see the header).
    bool defer_;
    /// Users whose broker runs next round, ascending so each slot walks
    /// broker memory forward; active_flag_[u] says whether u is on it.
    std::vector<trace::user_id> active_;
    std::vector<std::uint8_t> active_flag_;
    /// owed_start_[u] is the clock at the start of the first round u's
    /// broker has not run (valid while it lags): 8 B per user, bounded
    /// however long the engine runs.
    std::vector<richnote::sim::sim_time> owed_start_;

    richnote::sim::sim_time now_ = 0.0;
    std::uint64_t rounds_run_ = 0;
    std::size_t active_users_ = 0;
    std::uint64_t caught_up_rounds_ = 0;
};

/// Batch arrivals: the generated trace, walked with per-user cursors. Each
/// round admits a user's due friend-feed items, then — on every
/// batch_topic_round_multiplier-th round and the final one — its due
/// album/playlist items, each class in stream order (§II topic cadence).
class trace_cursor_source final : public arrival_source {
public:
    trace_cursor_source(const trace::workload& world, const experiment_params& params);

    /// Rounds that cover the trace horizon, plus the final flush round.
    std::uint64_t total_rounds() const noexcept { return total_rounds_; }

    void begin_round(round_engine& engine) override;
    std::size_t admit_due(round_engine& engine, trace::user_id u) override;
    bool holds(trace::user_id) const override { return false; }

private:
    bool due(trace::user_id u, richnote::sim::sim_time now) const noexcept {
        return fast_next_[u] <= now || (batch_tick_ && batch_next_[u] <= now);
    }

    const trace::workload* world_;
    std::uint32_t batch_multiplier_;
    std::uint64_t total_rounds_;
    bool batch_tick_ = false;
    /// Per-topic admission cadence (§II): each user's stream split once
    /// into the fast (friend-feed) and batch (album/playlist) indices.
    std::vector<std::vector<std::size_t>> fast_index_;
    std::vector<std::vector<std::size_t>> batch_index_;
    std::vector<std::size_t> fast_cursor_;
    std::vector<std::size_t> batch_cursor_;
    /// Timestamp of each user's next pending arrival per topic class (+inf
    /// when drained). A steady-state round checks two contiguous doubles
    /// per user instead of chasing the per-user index vectors.
    std::vector<double> fast_next_;
    std::vector<double> batch_next_;
    /// Per-user due-arrival buffers, reused across rounds; per-user (not
    /// per-worker) keeps them data-race-free under any sharding.
    std::vector<std::vector<std::size_t>> due_buffer_;
};

/// Service arrivals: notifications drained off the admission ring at each
/// round boundary and bucketed per user until their created_at comes due,
/// then admitted in canonical order — topic class (fast friend-feed first,
/// then batch album/playlist), then created_at, then id. That is exactly
/// the order trace_cursor_source's cursor walk produces, because the
/// generator assigns ids in per-user timestamp order. With a trace sink it
/// emits lc_ingest when an item is drained and lc_admit when it is admitted;
/// with a lifecycle tracker it stamps the admission stage.
class pending_bucket_source final : public arrival_source {
public:
    pending_bucket_source(admission_queue<trace::notification>& ring, std::size_t user_count,
                          const experiment_params& params);

    /// Items drained off the ring since construction.
    std::uint64_t drained() const noexcept { return drained_; }

    void begin_round(round_engine& engine) override;
    std::size_t admit_due(round_engine& engine, trace::user_id u) override;
    bool holds(trace::user_id u) const override { return !pending_[u].empty(); }

private:
    /// A drained-but-not-yet-due notification plus the round the driver
    /// drained it off the ring — lc_admit reports the difference
    /// (wait_rounds) when the item finally goes to its broker.
    struct pending_item {
        trace::notification note;
        std::uint64_t ingest_round = 0;
    };

    admission_queue<trace::notification>* ring_;
    richnote::obs::trace_sink* trace_;
    richnote::obs::lifecycle_tracker* lifecycle_;
    /// Per-user held notifications whose created_at is still ahead of the
    /// round clock. Reused across rounds.
    std::vector<std::vector<pending_item>> pending_;
    std::uint64_t drained_ = 0;
};

} // namespace richnote::core
