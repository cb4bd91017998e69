#include "core/service.hpp"

#include "common/error.hpp"
#include "core/wire.hpp"
#include "obs/lifecycle.hpp"
#include "obs/metrics_registry.hpp"

namespace richnote::core {

notification_service::notification_service(const experiment_setup& setup,
                                           const service_params& params)
    : setup_(&setup), params_(params), ring_(params.queue_capacity) {
    const experiment_params& ep = params_.experiment;
    RICHNOTE_REQUIRE(!ep.online_learning,
                     "service mode does not support online learning");
    RICHNOTE_REQUIRE(ep.batch_topic_round_multiplier == 1,
                     "service mode requires a uniform topic cadence");
    if (params_.user_count == 0) params_.user_count = setup.world().user_count();
    RICHNOTE_REQUIRE(params_.user_count >= 1, "service needs at least one user");
    RICHNOTE_REQUIRE(!setup.opts().oracle_utility ||
                         params_.user_count <= setup.world().user_count(),
                     "oracle utility cannot score users outside the training workload; "
                     "use the learned model or a fleet no larger than the workload");
    worker_pool::require_thread_count(params_.worker_threads);

    // Never called here, so it must not turn idle-broker deferral off.
    params_.experiment.progress = nullptr;
    // The cached model is an id-indexed table over the generated trace;
    // wire ids are arbitrary, so the service scores through the raw model
    // (bit-identical values for equal features — the cache is populated by
    // this very model).
    const std::size_t per_user = params_.expected_admissions_per_user;
    engine_ = std::make_unique<round_engine>(setup, params_.experiment, params_.user_count,
                                             params_.worker_threads, setup.raw_model(),
                                             [per_user](trace::user_id) { return per_user; });
    arrivals_ = std::make_unique<pending_bucket_source>(ring_, params_.user_count,
                                                        params_.experiment);
}

notification_service::~notification_service() = default;

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

void notification_service::run_round() { admitted_ += engine_->run_round(*arrivals_); }

void notification_service::run_rounds(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) run_round();
}

void notification_service::reshard(std::size_t worker_threads) {
    worker_pool::require_thread_count(worker_threads);
    engine_->reshard(worker_threads);
    params_.worker_threads = worker_threads;
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
    c.pending = arrivals_->drained() - admitted_ + ring_.size();
    c.rounds_run = engine_->rounds_run();
    c.reshards = reshards_;
    c.worker_threads = engine_->worker_threads();
    c.users = engine_->user_count();
    c.active_users = engine_->active_users();
    c.caught_up_rounds = engine_->caught_up_rounds();
    return c;
}

experiment_result notification_service::summarize() const {
    const metrics_recorder& m = engine_->metrics();
    return make_experiment_result(*setup_, params_.experiment, m, m.totals(),
                                  engine_->brokers(), engine_->rounds_run());
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
