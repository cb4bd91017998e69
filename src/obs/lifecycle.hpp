// Per-notification lifecycle observability for service mode (DESIGN.md §13).
//
// A notification flows through a fixed causal chain:
//
//   ingested -> enqueued(ring) -> admitted -> planned(round, Eq.7 terms,
//   MCKP slot/fidelity) -> attempt{n}(retry/backoff) -> delivered
//                                                     | dead_lettered
//
// The chain is recorded on two planes with deliberately different clocks:
//
//   1. The DETERMINISTIC plane: NDJSON stage events (`lc_ingest`,
//      `lc_admit`) emitted through the run's trace_sink from
//      single-owner call sites (the ring drain on the round driver, the
//      canonical admission loop on the owning worker shard). They carry
//      only round indices and ids — never wall-clock time — so the merged
//      stream stays byte-identical across worker counts and reruns, and
//      `richnote explain` can rebuild a notification's full causal chain
//      from the file alone. The planned/attempt/delivered stages reuse the
//      existing decision/transfer_cut/retry_backoff/deliver/dead_letter
//      event vocabulary (DESIGN.md §9) rather than duplicating it.
//
//   2. The WALL-CLOCK plane: this file's lifecycle_tracker, a side table of
//      steady_clock stamps keyed by notification id. It feeds the
//      richnote.svc.* stage-latency histograms (ingest->admit,
//      admit->plan, plan->deliver, e2e) and the slow-exemplar ring served
//      at /exemplars. Wall time never enters the NDJSON stream, which is
//      how monotonic stamps coexist with byte-determinism.
//
// Cost model: every hook site guards on a nullable pointer, so a run with
// no tracker attached pays one predictable branch (zero allocations). An
// attached tracker pays one striped-mutex buffered APPEND per stage
// transition (a clock read plus a vector push, ~tens of ns); the id-keyed
// record map and the histograms are only touched when buffered events fold
// — lazily, at accessor/scrape time or when `richnote serve` folds at a
// round boundary (fold()), never inside the sharded round. Folding a stage
// event costs a cold map probe (~hundreds of ns), which is exactly the
// cost the round loop no longer pays per transition.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace richnote::obs {

/// Wall-clock stage tracker: id -> monotonic stage stamps, aggregated into
/// stage-latency histograms and a top-K worst-e2e exemplar ring. All
/// methods are thread-safe: on_ingested runs on ingest handler threads,
/// the rest on whichever worker shard owns the user that round.
class lifecycle_tracker {
public:
    /// One completed timeline kept because its e2e latency ranked among
    /// the worst seen. Rounds are deterministic; the *_us stamps are wall
    /// clock (monotonic within the process).
    struct exemplar {
        std::uint64_t id = 0;
        std::uint32_t user = 0;
        std::uint64_t admit_round = 0;
        std::uint64_t plan_round = 0;
        std::uint64_t final_round = 0;
        std::uint32_t level = 0;        ///< first-planned MCKP fidelity
        std::uint64_t attempts = 0;     ///< transfers cut mid-flight
        double ingest_to_admit_us = 0.0;
        double admit_to_plan_us = 0.0;
        double plan_to_deliver_us = 0.0;
        double e2e_us = 0.0;
    };

    explicit lifecycle_tracker(std::size_t exemplar_capacity = 8);

    // ----- stage hooks (causal order; unknown ids are ignored except
    // on_ingested, which creates the record) -----

    /// Wire acceptance, before the ring push (handler thread).
    void on_ingested(std::uint64_t id, std::uint32_t user);
    /// The ring push failed (backpressure): forget the stamp.
    void abandon(std::uint64_t id);
    /// Canonical admission into the user's broker at `round`.
    void on_admitted(std::uint64_t id, std::uint64_t round);
    /// First appearance in a delivery plan, with the chosen fidelity.
    void on_planned(std::uint64_t id, std::uint64_t round, std::uint32_t level);
    /// A transfer of the item was cut mid-flight (retry or dead-letter
    /// follows).
    void on_attempt(std::uint64_t id, std::uint64_t round);
    /// Terminal stages: fold the timeline into the histograms (delivered
    /// only) and drop the record.
    void on_delivered(std::uint64_t id, std::uint64_t round);
    void on_dead_lettered(std::uint64_t id, std::uint64_t round);

    /// Folds every buffered stage event into the record map and the
    /// histograms. The accessors below fold first on their own; a serve
    /// loop that publishes only on scrape calls this at each round
    /// boundary, so the buffers stay one round deep instead of growing to
    /// the per-stripe backstop on ingest threads.
    void fold() const;

    /// Records still in flight (ingested, not yet delivered/dead-lettered).
    std::uint64_t tracked() const;
    std::uint64_t delivered() const;
    std::uint64_t dead_lettered() const;

    /// Installs the stage-latency histograms and lifecycle counters into
    /// `registry` under richnote.svc.* names (with {stage=...} labelled
    /// observation counters), plus HELP texts for the Prometheus render.
    void export_metrics(metrics_registry& registry) const;

    /// Worst-first copy of the exemplar ring (e2e desc, id asc on ties).
    std::vector<exemplar> exemplars() const;

    /// The /exemplars document: {"exemplars":[...]} with one object per
    /// kept timeline, worst e2e first.
    std::string exemplars_json() const;

private:
    using clock = std::chrono::steady_clock;

    struct record {
        std::uint32_t user = 0;
        std::uint32_t level = 0;
        std::uint64_t admit_round = 0;
        std::uint64_t plan_round = 0;
        std::uint64_t attempts = 0;
        bool admitted = false;
        bool planned = false;
        clock::time_point ingested{};
        clock::time_point admitted_at{};
        clock::time_point planned_at{};
    };

    /// One buffered stage transition. Hooks append these under the id's
    /// stripe mutex; fold() replays them against the record map later. A
    /// notification's events land in one stripe in causal order: every
    /// stage of an id runs on its single owner thread (or is ordered
    /// before it by the ingest ring handoff), so replay order is append
    /// order.
    struct stage_event {
        enum class kind : std::uint8_t {
            ingest,
            abandon,
            admit,
            plan,
            attempt,
            deliver,
            dead_letter,
        };
        std::uint64_t id = 0;
        std::uint64_t round = 0;
        std::uint32_t extra = 0; ///< user (ingest) or fidelity level (plan)
        kind what = kind::ingest;
        clock::time_point at{};
    };

    /// Backstop fold threshold per stripe: a serve loop nobody scrapes
    /// must not grow buffers without bound, so an append that finds this
    /// many pending events folds its own stripe inline (an amortized,
    /// per-stripe spike instead of a per-event map probe).
    static constexpr std::size_t fold_backstop = 8192;

    static constexpr std::size_t shard_count = 64;
    struct shard {
        mutable std::mutex mutex;
        std::unordered_map<std::uint64_t, record> live;
        std::vector<stage_event> pending; ///< cleared (not shrunk) by fold
    };

    shard& shard_of(std::uint64_t id) const noexcept;
    void append(std::uint64_t id, stage_event::kind what, std::uint64_t round,
                std::uint32_t extra, bool stamp);
    /// Replays `s.pending` against `s.live` and clears it. Caller holds
    /// `s.mutex`; terminal events additionally take stats_mutex_ (lock
    /// order: shard -> stats, everywhere).
    void fold_shard_locked(shard& s) const;
    void apply(shard& s, const stage_event& e) const;
    void finish(record r, const stage_event& e) const;

    /// Logically const: fold() only moves already-recorded transitions
    /// from the append buffers into the aggregated view, hence the
    /// mutable storage below.
    mutable shard shards_[shard_count];

    mutable std::mutex stats_mutex_;
    std::size_t exemplar_capacity_;
    mutable std::uint64_t delivered_ = 0;
    mutable std::uint64_t dead_lettered_ = 0;
    mutable histogram ingest_to_admit_;
    mutable histogram admit_to_plan_;
    mutable histogram plan_to_deliver_;
    mutable histogram e2e_;
    mutable std::vector<exemplar> exemplars_; ///< unordered; worst-K by e2e
};

/// Per-endpoint RED (rate / errors / duration) recorder for the service's
/// HTTP surface. Thread-safe; handlers observe, the publisher exports.
/// Exported names carry an {endpoint=...} label rendered by prom_text:
///   richnote.svc.http.requests_total{endpoint=ingest}   (counter)
///   richnote.svc.http.errors_total{endpoint=ingest}     (counter, 5xx)
///   richnote.svc.http.duration_us{endpoint=ingest}      (histogram)
class red_recorder {
public:
    void observe(std::string_view endpoint, int status, double duration_us);
    void export_metrics(metrics_registry& registry) const;

private:
    struct series {
        std::uint64_t requests = 0;
        std::uint64_t errors = 0; ///< responses with status >= 500
        histogram duration;
    };

    mutable std::mutex mutex_;
    std::map<std::string, series, std::less<>> series_;
};

/// Reconstructs notification `id`'s causal chain from an NDJSON decision
/// trace and pretty-prints it — every stage, every retry, the Eq.7 term
/// breakdown behind each planned fidelity. A pure function of the file
/// bytes (the trace of a fixed seed is byte-identical across worker
/// counts, so this output is too). Returns false when the trace holds no
/// events for `id`; malformed or truncated lines are skipped like
/// build_trace_report does.
bool write_explain(std::istream& ndjson, std::uint64_t id, std::ostream& out);

} // namespace richnote::obs
