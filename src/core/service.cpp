#include "core/service.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/wire.hpp"
#include "obs/lifecycle.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"

namespace richnote::core {

using richnote::sim::sim_time;

notification_service::notification_service(const experiment_setup& setup,
                                           const service_params& params)
    : setup_(&setup),
      params_(params),
      metrics_(params.user_count == 0 ? setup.world().user_count() : params.user_count,
               params.experiment.presentation.preview_durations_sec.size() + 1),
      ring_(params.queue_capacity) {
    const experiment_params& ep = params_.experiment;
    RICHNOTE_REQUIRE(ep.weekly_budget_mb > 0, "budget must be positive");
    RICHNOTE_REQUIRE(!ep.online_learning,
                     "service mode does not support online learning");
    RICHNOTE_REQUIRE(ep.batch_topic_round_multiplier == 1,
                     "service mode requires a uniform topic cadence");
    const richnote::faults::fault_plan probe(ep.faults);
    RICHNOTE_REQUIRE(!probe.enabled(), "service mode does not support fault plans");

    if (params_.user_count == 0) params_.user_count = setup.world().user_count();
    RICHNOTE_REQUIRE(params_.user_count >= 1, "service needs at least one user");
    worker_pool::require_thread_count(params_.worker_threads);
    RICHNOTE_REQUIRE(ep.trace == nullptr ||
                         ep.trace->user_count() >= params_.user_count,
                     "trace sink is sized for fewer users than the fleet");

    theta_ = round_budget_bytes(ep);

    const trace::workload& world = setup.world();
    const audio_preview_generator base_generator(ep.presentation);
    std::vector<double> track_durations;
    track_durations.reserve(world.catalog().track_count());
    for (const auto& t : world.catalog().tracks()) track_durations.push_back(t.duration_sec);
    generator_ =
        std::make_unique<memoized_presentation_generator>(base_generator, track_durations);

    pending_.resize(params_.user_count);
    active_flag_.assign(params_.user_count, 0);
    owed_start_.assign(params_.user_count, 0.0);
    build_fleet();
    pool_ = std::make_unique<worker_pool>(
        std::max<std::size_t>(1, std::min(params_.worker_threads, params_.user_count)));
}

notification_service::~notification_service() = default;

void notification_service::build_fleet() {
    broker_build_context ctx;
    ctx.params = &params_.experiment;
    ctx.generator = generator_.get();
    // The cached model is an id-indexed table over the generated trace;
    // wire ids are arbitrary, so the service scores through the raw model
    // (bit-identical values for equal features — the cache is populated by
    // this very model).
    ctx.utility = &setup_->raw_model();
    ctx.energy = &energy_;
    ctx.catalog = &setup_->world().catalog();
    ctx.metrics = &metrics_;
    ctx.faults = nullptr;
    ctx.theta = theta_;
    ctx.battery_horizon =
        setup_->world().params().horizon + params_.experiment.round;
    brokers_.reserve(params_.user_count);
    for (trace::user_id u = 0; u < params_.user_count; ++u) {
        brokers_.push_back(
            make_user_broker(ctx, u, params_.expected_admissions_per_user));
    }
}

notification_service::ingest_status
notification_service::ingest_line(std::string_view line, std::string* error) {
    trace::notification n;
    if (!parse_wire_line(line, n, error)) {
        ingest_rejected_parse_.fetch_add(1, std::memory_order_relaxed);
        return ingest_status::parse_error;
    }
    return ingest(n);
}

notification_service::ingest_status
notification_service::ingest(const trace::notification& n) {
    if (n.recipient >= params_.user_count) {
        ingest_rejected_user_.fetch_add(1, std::memory_order_relaxed);
        return ingest_status::unknown_user;
    }
    // Stamp BEFORE the push: once the item is on the ring the driver may
    // drain, admit and even deliver it concurrently, and every later stage
    // hook ignores ids it has no record for.
    richnote::obs::lifecycle_tracker* lifecycle = params_.experiment.lifecycle;
    if (lifecycle != nullptr) lifecycle->on_ingested(n.id, n.recipient);
    if (!ring_.try_push(n)) {
        if (lifecycle != nullptr) lifecycle->abandon(n.id);
        ingest_rejected_backpressure_.fetch_add(1, std::memory_order_relaxed);
        return ingest_status::backpressure;
    }
    ingest_accepted_.fetch_add(1, std::memory_order_relaxed);
    return ingest_status::accepted;
}

bool notification_service::canonical_before(const trace::notification& a,
                                            const trace::notification& b) noexcept {
    // The batch loop admits each round's due fast-class (friend-feed)
    // items before its due batch-class items, each half in stream order —
    // and the generator assigns ids in per-user timestamp order, so stream
    // order IS (created_at, id) order. Sorting due items by (class,
    // created_at, id) therefore reproduces the batch admission sequence
    // exactly; ties (duplicate ids) keep drain order via stable_sort.
    const int ca = a.type == trace::notification_type::friend_feed ? 0 : 1;
    const int cb = b.type == trace::notification_type::friend_feed ? 0 : 1;
    if (ca != cb) return ca < cb;
    if (a.created_at != b.created_at) return a.created_at < b.created_at;
    return a.id < b.id;
}

void notification_service::drain_ring() {
    trace::notification n;
    richnote::obs::trace_sink* trace = params_.experiment.trace;
    const std::size_t already_active = active_.size();
    while (ring_.try_pop(n)) {
        // Deterministic-plane ingest event: the round the driver drained
        // the item, never a wall-clock stamp (DESIGN.md §13). Emitted here
        // — single-threaded, before the worker shards run — so the per-user
        // sequence is identical for every worker count.
        if (trace != nullptr) {
            trace->event(n.recipient, rounds_run_, "lc_ingest")
                .field("item", n.id)
                .field("created_at", n.created_at);
        }
        pending_[n.recipient].push_back({n, rounds_run_});
        ++pending_count_;
        if (active_flag_[n.recipient] == 0) {
            active_flag_[n.recipient] = 1;
            active_.push_back(n.recipient);
        }
    }
    // Keep the list ascending: sort the newcomers, merge them in.
    const auto newcomers = active_.begin() + static_cast<std::ptrdiff_t>(already_active);
    if (newcomers != active_.end()) {
        std::sort(newcomers, active_.end());
        std::inplace_merge(active_.begin(), newcomers, active_.end());
    }
}

std::uint64_t notification_service::catch_up(trace::user_id u) {
    broker& b = brokers_[u];
    const std::uint64_t lag_from = b.rounds_run();
    if (lag_from == rounds_run_) return 0;
    // Only an idle broker is ever deferred, and nothing is admitted to it
    // before this replay; a queued item here would make the replayed
    // rounds differ from the sweep.
    RICHNOTE_ASSERT_VALID(RICHNOTE_CHECK(b.sched().queue_size() == 0,
                                         "a deferred broker has queued work"));
    // Re-accumulate the clock exactly as run_round() advanced now_, so
    // replayed round k sees the bits the sweep would have passed it.
    sim_time t = owed_start_[u];
    for (std::uint64_t k = lag_from; k < rounds_run_; ++k) {
        b.run_round(t);
        t += params_.experiment.round;
    }
    RICHNOTE_ASSERT_VALID(
        RICHNOTE_CHECK(t == now_, "catch-up clock drifted from the driver's"));
    owed_start_[u] = t;
    return rounds_run_ - lag_from;
}

void notification_service::run_round() {
    drain_ring();
    const sim_time now = now_;
    const std::uint64_t round = rounds_run_;
    richnote::obs::trace_sink* trace = params_.experiment.trace;
    richnote::obs::lifecycle_tracker* lifecycle = params_.experiment.lifecycle;
    std::atomic<std::uint64_t> admitted_now{0};
    std::atomic<std::uint64_t> caught_up_now{0};
    pool_->run_sharded(active_.size(), [&](std::size_t lo, std::size_t hi) {
        std::uint64_t local = 0;
        std::uint64_t replayed = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            const trace::user_id u = active_[i];
            replayed += catch_up(u);
            broker& b = brokers_[u];
            std::vector<pending_item>& pend = pending_[u];
            if (!pend.empty()) {
                // Due items to the front (stable: drain order preserved),
                // then canonical admission order within the due prefix.
                const auto mid = std::stable_partition(
                    pend.begin(), pend.end(), [now](const pending_item& p) {
                        return p.note.created_at <= now;
                    });
                if (mid != pend.begin()) {
                    std::stable_sort(pend.begin(), mid,
                                     [](const pending_item& a, const pending_item& b) {
                                         return canonical_before(a.note, b.note);
                                     });
                    for (auto it = pend.begin(); it != mid; ++it) {
                        // Admission event on the owning shard: one user's
                        // events are sequential here, so the per-user byte
                        // stream is identical for every worker count.
                        if (trace != nullptr) {
                            trace->event(u, round, "lc_admit")
                                .field("item", it->note.id)
                                .field("wait_rounds", round - it->ingest_round);
                        }
                        if (lifecycle != nullptr)
                            lifecycle->on_admitted(it->note.id, round);
                        b.admit(it->note);
                    }
                    local += static_cast<std::uint64_t>(
                        std::distance(pend.begin(), mid));
                    pend.erase(pend.begin(), mid);
                }
            }
            b.run_round(now);
            // Nothing queued, nothing pending: defer this broker's rounds
            // until it is next touched. Each slot writes only its own
            // users' flags and clocks.
            if (pend.empty() && b.sched().queue_size() == 0) {
                active_flag_[u] = 0;
                owed_start_[u] = now + params_.experiment.round;
            }
        }
        if (local != 0) admitted_now.fetch_add(local, std::memory_order_relaxed);
        if (replayed != 0) caught_up_now.fetch_add(replayed, std::memory_order_relaxed);
    });
    const std::uint64_t admitted = admitted_now.load(std::memory_order_relaxed);
    admitted_ += admitted;
    pending_count_ -= admitted;
    caught_up_rounds_ += caught_up_now.load(std::memory_order_relaxed);
    active_users_ = active_.size();
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [this](trace::user_id u) { return active_flag_[u] == 0; }),
                  active_.end());
    // Make this round's trace lines durable at the boundary, exactly like
    // the batch loop does per tick.
    if (trace != nullptr && trace->streaming()) trace->flush_through(rounds_run_);
    ++rounds_run_;
    // Accumulate (don't multiply): the event simulator re-arms periodic
    // ticks with `now + period`, so only repeated addition reproduces the
    // batch loop's timestamps bit-for-bit.
    now_ += params_.experiment.round;
}

void notification_service::run_rounds(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) run_round();
}

void notification_service::reshard(std::size_t worker_threads) {
    worker_pool::require_thread_count(worker_threads);
    // Checkpoint every broker, rebuild the fleet from scratch (broker u is
    // a deterministic function of (params, u)), restore, resize the pool.
    // Going through full checkpoint-restore — rather than moving the live
    // brokers — is deliberate: it proves the round-trip is lossless, which
    // is the same property that would carry a shard to another host.
    // Lagging brokers go through as they are; the active list and
    // owed_start_ are service state and need no rebuild.
    std::vector<broker_checkpoint> checkpoints;
    checkpoints.reserve(brokers_.size());
    for (const broker& b : brokers_) checkpoints.push_back(b.checkpoint());
    brokers_.clear();
    build_fleet();
    for (std::size_t u = 0; u < brokers_.size(); ++u) brokers_[u].restore(checkpoints[u]);
    params_.worker_threads = worker_threads;
    pool_ = std::make_unique<worker_pool>(
        std::max<std::size_t>(1, std::min(worker_threads, params_.user_count)));
    ++reshards_;
}

service_counters notification_service::counters() const {
    service_counters c;
    c.ingest_accepted = ingest_accepted_.load(std::memory_order_relaxed);
    c.ingest_rejected_parse = ingest_rejected_parse_.load(std::memory_order_relaxed);
    c.ingest_rejected_user = ingest_rejected_user_.load(std::memory_order_relaxed);
    c.ingest_rejected_backpressure =
        ingest_rejected_backpressure_.load(std::memory_order_relaxed);
    c.admitted = admitted_;
    c.pending = pending_count_ + ring_.size();
    c.rounds_run = rounds_run_;
    c.reshards = reshards_;
    c.worker_threads = pool_->threads();
    c.users = brokers_.size();
    c.active_users = active_users_;
    c.caught_up_rounds = caught_up_rounds_;
    return c;
}

const broker& notification_service::user_broker(trace::user_id u) {
    RICHNOTE_REQUIRE(u < brokers_.size(), "user outside the fleet");
    caught_up_rounds_ += catch_up(u);
    return brokers_[u];
}

experiment_result notification_service::summarize() const {
    return make_experiment_result(*setup_, params_.experiment, metrics_, metrics_.totals(),
                                  brokers_, rounds_run_);
}

void notification_service::export_service_metrics(
    const run_totals& totals, richnote::obs::metrics_registry& registry) const {
    const service_counters c = counters();
    registry.count("richnote.service.ingest.accepted_total", c.ingest_accepted);
    registry.count("richnote.service.ingest.rejected_parse_total", c.ingest_rejected_parse);
    registry.count("richnote.service.ingest.rejected_user_total", c.ingest_rejected_user);
    registry.count("richnote.service.ingest.rejected_backpressure_total",
                   c.ingest_rejected_backpressure);
    registry.count("richnote.service.admitted_total", c.admitted);
    registry.count("richnote.service.rounds_total", c.rounds_run);
    registry.count("richnote.service.reshards_total", c.reshards);
    registry.gauge_set("richnote.service.pending_items", static_cast<double>(c.pending));
    registry.gauge_set("richnote.service.worker_threads",
                       static_cast<double>(c.worker_threads));
    registry.gauge_set("richnote.service.users", static_cast<double>(c.users));
    registry.gauge_set("richnote.service.active_users",
                       static_cast<double>(c.active_users));
    registry.count("richnote.service.caught_up_rounds_total", c.caught_up_rounds);
    // richnote.svc.* is the lifecycle-era vocabulary (DESIGN.md §13): the
    // ingest counters again under the new prefix (dashboards standardize on
    // it), alongside the stage-latency histograms below. The legacy
    // richnote.service.* names above stay — existing scrapes keep working.
    registry.count("richnote.svc.ingest_accepted", c.ingest_accepted);
    registry.count("richnote.svc.ingest_rejected_parse", c.ingest_rejected_parse);
    registry.count("richnote.svc.ingest_rejected_user", c.ingest_rejected_user);
    registry.count("richnote.svc.ingest_rejected_backpressure",
                   c.ingest_rejected_backpressure);
    registry.set_help("richnote.svc.ingest_rejected_backpressure",
                      "Wire publishes rejected with 503 because the admission "
                      "ring was full");
    if (params_.experiment.lifecycle != nullptr) {
        params_.experiment.lifecycle->export_metrics(registry);
    }
    export_metrics(totals, registry);
}

} // namespace richnote::core
