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
// Both run modes share one round engine (core/round_engine.hpp): the
// service drives it with a pending_bucket_source, run_experiment with a
// trace_cursor_source. So for the same admitted stream the service's
// per-user delivered set and total_utility are bit-identical to
// run_experiment on the equivalent workload, for ANY worker count and
// across ANY number of mid-run reshards:
//   - brokers, the `now += round` clock, fault injection and idle-broker
//     deferral are the engine's, the same code in both modes;
//   - per round, each user's due items are admitted in canonical order —
//     topic class, then created_at, then id — which is exactly the order
//     the batch cursor walk produces;
//   - duplicate ids are suppressed by the brokers' idempotent admission,
//     so an at-least-once wire cannot double-deliver;
//   - resharding is checkpoint-restore: every broker is checkpointed,
//     the fleet is torn down and rebuilt deterministically, checkpoints
//     are restored, and the pool is resized. Lossless by the same
//     property the crash-restart fault path pins down.
//
// Out of scope (REQUIREd against):
//   - online learning: serve scores with the setup's trained model and
//     has no feedback-trained one;
//   - batch_topic_round_multiplier > 1: serve has no final tick to flush
//     the batch-class items still held back.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "core/admission_queue.hpp"
#include "core/experiment.hpp"
#include "core/round_engine.hpp"

namespace richnote::obs {
class metrics_registry;
}

namespace richnote::core {

struct service_params {
    /// Scheduler/broker configuration, shared with run_experiment. The
    /// service REQUIREs online_learning off and
    /// batch_topic_round_multiplier == 1. Fault plans and the trace sink
    /// work exactly as in batch mode; telemetry samples, progress and
    /// registry hooks are not reported — the service exposes its state via
    /// counters() and export_service_metrics() instead.
    experiment_params experiment;
    /// Fleet size. 0 = the setup workload's user count. May exceed the
    /// workload's: brokers are synthesized per user id, not per stream, so
    /// a model trained on a small trace can serve millions of users —
    /// except with oracle utility, whose click model knows only the
    /// workload's users (REQUIREd).
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

    /// Elastic resharding (round boundary only): see round_engine::reshard.
    void reshard(std::size_t worker_threads);

    std::uint64_t rounds_run() const noexcept { return engine_->rounds_run(); }
    richnote::sim::sim_time now() const noexcept { return engine_->now(); }
    std::size_t user_count() const noexcept { return engine_->user_count(); }
    std::size_t worker_threads() const noexcept { return engine_->worker_threads(); }

    service_counters counters() const;
    const metrics_recorder& metrics() const noexcept { return engine_->metrics(); }
    /// User u's broker, first caught up to the current round. Round
    /// driver thread only.
    const broker& user_broker(trace::user_id u) { return engine_->user_broker(u); }

    /// Aggregates the run so far into the same result struct the batch
    /// runner produces — this is what the equivalence tests byte-compare.
    /// Needs no catch-up: it reads only per-user metrics, which idle
    /// rounds never touch, and queue sizes, which are 0 for every
    /// deferred broker.
    experiment_result summarize() const;

    /// metrics().totals() as of the current round. The fleet walk behind
    /// it (208 B of user_metrics per user) runs at most once per round,
    /// however often this is asked for: only a round moves per-user
    /// metrics, while a reshard or a user_broker() catch-up leaves them
    /// be. Round driver thread only.
    const run_totals& totals();

    /// Exports the service counters under richnote.service.* names plus
    /// the run aggregates via core::export_metrics. `totals` is totals(),
    /// so one publish shares one fleet walk with the /progress snapshot.
    void export_service_metrics(const run_totals& totals,
                                richnote::obs::metrics_registry& registry) const;

private:
    const experiment_setup* setup_;
    service_params params_;

    admission_queue<trace::notification> ring_;
    std::unique_ptr<round_engine> engine_;
    std::unique_ptr<pending_bucket_source> arrivals_;

    std::uint64_t reshards_ = 0;
    std::uint64_t admitted_ = 0;
    /// totals() cache and the rounds_run() it was taken at (none yet).
    run_totals totals_;
    std::uint64_t totals_round_ = std::numeric_limits<std::uint64_t>::max();

    // Touched by concurrent ingest threads.
    std::atomic<std::uint64_t> ingest_accepted_{0};
    std::atomic<std::uint64_t> ingest_rejected_parse_{0};
    std::atomic<std::uint64_t> ingest_rejected_user_{0};
    std::atomic<std::uint64_t> ingest_rejected_backpressure_{0};
};

} // namespace richnote::core
