// Long-lived sharded notification service — `richnote serve` (DESIGN.md §11).
//
// The batch runner (core/experiment.cpp) replays a pre-generated workload
// and exits; the service keeps a fleet of per-user brokers resident and
// feeds them from a live wire:
//
//   ingest threads ──> admission_queue (bounded, lock-free) ──┐
//                                                             │ drain at
//   round driver <── worker_pool (shards of the active list) <┘ round
//                                                               boundaries
//
// Ingest (any thread) parses NDJSON lines (core/wire.hpp) and pushes onto
// the bounded ring; a full ring is backpressure (HTTP 503 upstream), never
// a stall of the round loop. The driver drains the ring single-threaded at
// each round boundary, buckets items per user and adds their users to the
// active list; the persistent pool then admits + runs the round of every
// active user, so a round costs O(users with work), not O(fleet).
//
// Bit-identity contract: for the same admitted stream, the service's
// per-user delivered set and total_utility are bit-identical to
// run_experiment on the equivalent workload, for ANY worker count and
// across ANY number of mid-run reshards. The pieces that make this hold:
//   - brokers are built by the same make_user_broker path, with the same
//     per-user seed derivation;
//   - the round clock accumulates `now += round` exactly like the event
//     simulator's periodic re-arm, so timestamps compare identically;
//   - per round, each user's due items are admitted in canonical order —
//     topic class (fast friend-feed first, then batch album/playlist),
//     then created_at, then id — which is exactly the order the batch
//     loop's fast/batch cursor walk produces, because the generator
//     assigns ids in per-user timestamp order;
//   - duplicate ids are suppressed by the brokers' idempotent admission,
//     so an at-least-once wire cannot double-deliver;
//   - resharding is checkpoint-restore: every broker is checkpointed,
//     the fleet is torn down and rebuilt deterministically, checkpoints
//     are restored, and the pool is resized. Lossless by the same
//     property the crash-restart fault path pins down;
//   - idle brokers are deferred: a user with an empty scheduling queue
//     and no pending items leaves the active list, and its broker lags.
//     Before it is next admitted to, run or exposed through user_broker(),
//     each round it missed is replayed through the same broker::run_round,
//     its clock re-accumulated from the first missed round's start
//     (owed_start_) by the same `+= round` as the driver's. With an empty queue
//     and no fault plan a round only moves broker-private state (round
//     index, network chain, battery, budget rollover, P(t)) and emits
//     nothing, so the replay is the sweep, bit for bit.
//
// Out of scope (REQUIREd against): online learning, fault plans and
// batch_topic_round_multiplier > 1 — all three entangle admission order
// with run_experiment's tick index in ways a live wire has no analogue of.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/admission_queue.hpp"
#include "core/experiment.hpp"
#include "core/worker_pool.hpp"

namespace richnote::obs {
class metrics_registry;
}

namespace richnote::core {

struct service_params {
    /// Scheduler/broker configuration, shared with run_experiment. The
    /// service REQUIREs online_learning off, an inert fault plan and
    /// batch_topic_round_multiplier == 1. The trace sink works exactly as
    /// in batch mode (per-user buckets, flushed per round); telemetry,
    /// progress and registry hooks are ignored — the service exposes its
    /// state via counters() and export_service_metrics() instead.
    experiment_params experiment;
    /// Fleet size. 0 = the setup workload's user count. May exceed the
    /// workload's: brokers are synthesized per user id, not per stream, so
    /// a model trained on a small trace can serve millions of users.
    std::size_t user_count = 0;
    std::size_t worker_threads = 1;
    /// Admission ring capacity (rounded up to a power of two). Full ring =
    /// backpressure.
    std::size_t queue_capacity = 1 << 16;
    /// Dedup-set sizing hint per broker (0 = none). Never affects outputs.
    std::size_t expected_admissions_per_user = 0;
};

/// Monotonic service counters (all since construction). Ingest counters
/// are updated from handler threads; the rest from the round driver.
struct service_counters {
    std::uint64_t ingest_accepted = 0;
    std::uint64_t ingest_rejected_parse = 0;        ///< malformed line (400)
    std::uint64_t ingest_rejected_user = 0;         ///< recipient outside fleet (400)
    std::uint64_t ingest_rejected_backpressure = 0; ///< ring full (503)
    std::uint64_t admitted = 0; ///< handed to brokers (incl. duplicates they suppress)
    std::uint64_t pending = 0;  ///< buffered for a future round (created_at ahead of clock)
    std::uint64_t rounds_run = 0;
    std::uint64_t reshards = 0;
    std::size_t worker_threads = 0;
    std::size_t users = 0;
    /// Brokers the last round ran (the active list it sharded).
    std::size_t active_users = 0;
    /// Deferred idle rounds replayed when a lagging broker was touched.
    std::uint64_t caught_up_rounds = 0;
};

class notification_service {
public:
    notification_service(const experiment_setup& setup, const service_params& params);
    ~notification_service();

    notification_service(const notification_service&) = delete;
    notification_service& operator=(const notification_service&) = delete;

    enum class ingest_status {
        accepted,     ///< parsed and enqueued
        parse_error,  ///< malformed line (reason in `error`)
        unknown_user, ///< recipient id outside the fleet
        backpressure  ///< admission ring full; retry later
    };

    /// Wire entry point — safe from any number of threads concurrently.
    ingest_status ingest_line(std::string_view line, std::string* error = nullptr);
    /// Same, for an already-parsed notification (tests, replay tooling).
    ingest_status ingest(const trace::notification& n);

    /// One round: drain the ring, bucket per user, then catch up, admit
    /// and run every active user's broker on the pool. Round driver
    /// thread only.
    void run_round();
    void run_rounds(std::uint64_t count);

    /// Elastic resharding (round boundary only): checkpoint every broker,
    /// rebuild the fleet deterministically, restore, resize the pool.
    /// Lagging brokers are checkpointed as they are: round_index is in the
    /// checkpoint, so a restored broker still owes the same rounds, and
    /// owed_start_ (service state) still says when they began.
    void reshard(std::size_t worker_threads);

    std::uint64_t rounds_run() const noexcept { return rounds_run_; }
    richnote::sim::sim_time now() const noexcept { return now_; }
    std::size_t user_count() const noexcept { return brokers_.size(); }
    std::size_t worker_threads() const noexcept { return pool_->threads(); }

    service_counters counters() const;
    const metrics_recorder& metrics() const noexcept { return metrics_; }
    /// User u's broker, first caught up to the current round. Round
    /// driver thread only.
    const broker& user_broker(trace::user_id u);

    /// Aggregates the run so far into the same result struct the batch
    /// runner produces — this is what the equivalence tests byte-compare.
    /// Needs no catch-up: it reads only per-user metrics, which idle
    /// rounds never touch, and queue sizes, which are 0 for every
    /// deferred broker.
    experiment_result summarize() const;

    /// Exports the service counters under richnote.service.* names plus
    /// the run aggregates via core::export_metrics. `totals` is
    /// metrics().totals(), taken once by the caller so one publish is one
    /// fleet walk shared with the /progress snapshot.
    void export_service_metrics(const run_totals& totals,
                                richnote::obs::metrics_registry& registry) const;

private:
    void build_fleet();
    void drain_ring();
    /// Replays the rounds user u's broker missed while deferred; returns
    /// how many. Touches only u's broker and owed_start_[u], so worker
    /// slots may call it for their own users concurrently.
    std::uint64_t catch_up(trace::user_id u);
    static bool canonical_before(const trace::notification& a,
                                 const trace::notification& b) noexcept;

    /// A drained-but-not-yet-due notification plus the round the driver
    /// drained it off the ring — the lc_admit event reports the difference
    /// (wait_rounds) when the item finally goes to its broker.
    struct pending_item {
        trace::notification note;
        std::uint64_t ingest_round = 0;
    };

    const experiment_setup* setup_;
    service_params params_;
    double theta_ = 0.0;

    // Read-only scoring/synthesis context shared by every broker.
    std::unique_ptr<memoized_presentation_generator> generator_;
    energy::energy_model energy_;
    metrics_recorder metrics_;

    std::vector<broker> brokers_;
    /// Per-user held notifications whose created_at is still ahead of the
    /// round clock — the service analogue of the batch loop's stream
    /// cursors. Reused across rounds.
    std::vector<std::vector<pending_item>> pending_;
    std::uint64_t pending_count_ = 0;

    /// Users whose broker runs next round (pending items or a non-empty
    /// scheduling queue), ascending so each slot walks broker memory
    /// forward; active_flag_[u] says whether u is on it.
    std::vector<trace::user_id> active_;
    std::vector<std::uint8_t> active_flag_;
    /// owed_start_[u] is the clock at the start of the first round u's
    /// broker has not run (valid while it lags): 8 B per user, bounded
    /// however long the service runs.
    std::vector<richnote::sim::sim_time> owed_start_;

    admission_queue<trace::notification> ring_;
    std::unique_ptr<worker_pool> pool_;

    richnote::sim::sim_time now_ = 0.0;
    std::uint64_t rounds_run_ = 0;
    std::uint64_t reshards_ = 0;
    std::uint64_t admitted_ = 0;
    std::size_t active_users_ = 0;
    std::uint64_t caught_up_rounds_ = 0;

    // Touched by concurrent ingest threads.
    std::atomic<std::uint64_t> ingest_accepted_{0};
    std::atomic<std::uint64_t> ingest_rejected_parse_{0};
    std::atomic<std::uint64_t> ingest_rejected_user_{0};
    std::atomic<std::uint64_t> ingest_rejected_backpressure_{0};
};

} // namespace richnote::core
