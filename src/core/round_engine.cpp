#include "core/round_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "obs/lifecycle.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"

namespace richnote::core {

using richnote::sim::sim_time;

namespace {

/// The presentation set of every distinct track duration, generated once:
/// admission then pays a hash lookup + copy instead of re-running candidate
/// generation and Pareto pruning per notification.
std::vector<double> track_durations(const trace::catalog& catalog) {
    std::vector<double> durations;
    durations.reserve(catalog.track_count());
    for (const auto& t : catalog.tracks()) durations.push_back(t.duration_sec);
    return durations;
}

} // namespace

round_engine::round_engine(const experiment_setup& setup, const experiment_params& params,
                           std::size_t user_count, std::size_t worker_threads,
                           const content_utility_model& utility,
                           std::function<std::size_t(trace::user_id)> expected_admissions)
    : setup_(&setup),
      params_(params),
      expected_admissions_(std::move(expected_admissions)),
      base_generator_(params.presentation),
      generator_(base_generator_, track_durations(setup.world().catalog())),
      utility_(&utility),
      fault_schedule_(params.faults),
      // An inert plan gives the brokers no pointer at all, so the default
      // run takes exactly the fault-free code paths.
      faults_(fault_schedule_.enabled() ? &fault_schedule_ : nullptr),
      metrics_(user_count, params.presentation.preview_durations_sec.size() + 1),
      trajectories_(std::make_shared<telemetry>(params.telemetry_users)),
      defer_(faults_ == nullptr && !trajectories_->enabled() && params.progress == nullptr),
      active_flag_(user_count, 0),
      owed_start_(user_count, 0.0) {
    RICHNOTE_REQUIRE(params.weekly_budget_mb > 0, "budget must be positive");
    RICHNOTE_REQUIRE(user_count >= 1, "the fleet needs at least one user");
    RICHNOTE_REQUIRE(params.trace == nullptr || params.trace->user_count() >= user_count,
                     "trace sink is sized for fewer users than the fleet");
    if (params.online_learning) {
        auto online_params = params.online;
        online_params.seed ^= params.seed;
        online_model_ = std::make_unique<online_content_utility>(online_params);
        utility_ = online_model_.get();
    }
    pool_ = std::make_unique<worker_pool>(std::max<std::size_t>(
        1, std::min(worker_threads, user_count)));
    build_fleet();
    if (!defer_) {
        // The full sweep: every broker is active for the whole run.
        for (trace::user_id u = 0; u < user_count; ++u) activate(u);
    }
}

round_engine::~round_engine() { destroy_fleet(); }

void round_engine::build_fleet() {
    broker_build_context ctx;
    ctx.params = &params_;
    ctx.generator = &generator_;
    ctx.utility = utility_;
    ctx.energy = &energy_;
    ctx.catalog = &setup_->world().catalog();
    ctx.metrics = &metrics_;
    ctx.faults = faults_;
    ctx.theta = round_budget_bytes(params_);
    ctx.battery_horizon = setup_->world().params().horizon + params_.round;
    const std::size_t users = metrics_.user_count();
    const std::size_t slots = pool_->threads();
    broker* const fleet = std::allocator<broker>{}.allocate(users);
    std::vector<std::size_t> built(slots, 0);
    std::vector<std::exception_ptr> errors(slots);
    pool_->run([&](std::size_t slot) {
        const auto [lo, hi] = worker_pool::shard_range(users, slot, slots);
        try {
            for (std::size_t u = lo; u < hi; ++u, ++built[slot]) {
                const auto user = static_cast<trace::user_id>(u);
                ::new (static_cast<void*>(fleet + u))
                    broker(make_user_broker(ctx, user, expected_admissions_(user)));
            }
        } catch (...) {
            errors[slot] = std::current_exception();
        }
    });
    for (const std::exception_ptr& error : errors) {
        if (!error) continue;
        for (std::size_t slot = 0; slot < slots; ++slot)
            std::destroy_n(fleet + worker_pool::shard_range(users, slot, slots).first,
                           built[slot]);
        std::allocator<broker>{}.deallocate(fleet, users);
        std::rethrow_exception(error);
    }
    brokers_ = {fleet, users};
}

void round_engine::destroy_fleet() noexcept {
    if (brokers_.empty()) return;
    std::destroy(brokers_.begin(), brokers_.end());
    std::allocator<broker>{}.deallocate(brokers_.data(), brokers_.size());
    brokers_ = {};
}

void round_engine::admit(trace::user_id u, const trace::notification& n) {
    brokers_[u].admit(n);
    if (faults_ != nullptr && faults_->duplicate_arrival(u, n.id)) brokers_[u].admit(n);
}

std::uint64_t round_engine::catch_up(trace::user_id u) {
    broker& b = brokers_[u];
    const std::uint64_t lag_from = b.rounds_run();
    if (lag_from == rounds_run_) return 0;
    // Only an idle broker is ever deferred, and nothing is admitted to it
    // before this replay; a queued item here would make the replayed
    // rounds differ from the sweep.
    RICHNOTE_ASSERT_VALID(RICHNOTE_CHECK(b.sched().queue_size() == 0,
                                         "a deferred broker has queued work"));
    // Each missed round was idle, so it was only the prefix every round
    // starts with (broker::run_idle_rounds, which skips what it can). The
    // clock re-accumulates exactly as run_round() advanced now_, so
    // replayed round k sees the bits the sweep would have passed it.
    const sim_time t = b.run_idle_rounds(rounds_run_ - lag_from, owed_start_[u], params_.round);
    RICHNOTE_ASSERT_VALID(
        RICHNOTE_CHECK(t == now_, "catch-up clock drifted from the driver's"));
    owed_start_[u] = t;
    return rounds_run_ - lag_from;
}

std::uint64_t round_engine::run_round(arrival_source& source) {
    RICHNOTE_PROFILE_SCOPE(richnote::obs::profile_slot::sim_tick);
    const std::size_t already_active = active_.size();
    source.begin_round(*this);
    // Keep the active list ascending: sort the newcomers, merge them in.
    const auto newcomers = active_.begin() + static_cast<std::ptrdiff_t>(already_active);
    if (newcomers != active_.end()) {
        std::sort(newcomers, active_.end());
        std::inplace_merge(active_.begin(), newcomers, active_.end());
    }

    const sim_time now = now_;
    const bool sampling = trajectories_->enabled();
    std::atomic<std::uint64_t> admitted_now{0};
    std::atomic<std::uint64_t> caught_up_now{0};
    // §V-C backend parallelism: each slot owns a contiguous shard of the
    // active list and touches only its own users' state.
    pool_->run_sharded(active_.size(), [&](std::size_t lo, std::size_t hi) {
        std::uint64_t admitted = 0;
        std::uint64_t replayed = 0;
        for (std::size_t i = lo; i < hi; ++i) {
            const trace::user_id u = active_[i];
            replayed += catch_up(u);
            admitted += source.admit_due(*this, u);
            broker& b = brokers_[u];
            b.run_round(now);
            if (sampling && trajectories_->watches(u)) {
                round_sample sample;
                sample.round = rounds_run_;
                sample.user = u;
                sample.queue_items = static_cast<double>(b.sched().queue_size());
                sample.queue_bytes = b.sched().queue_bytes();
                sample.energy_credit = b.sched().energy_credit_joules();
                sample.data_budget = b.data_budget();
                sample.battery_level = b.battery().level();
                sample.network = b.network_state();
                sample.delivered_so_far = metrics_.user(u).delivered;
                sample.faults = metrics_.user(u).faults;
                trajectories_->record(sample);
            }
            // Nothing queued, nothing held: defer this broker's rounds
            // until it is next touched.
            if (defer_ && b.sched().queue_size() == 0 && !source.holds(u)) {
                active_flag_[u] = 0;
                owed_start_[u] = now + params_.round;
            }
        }
        if (admitted != 0) admitted_now.fetch_add(admitted, std::memory_order_relaxed);
        if (replayed != 0) caught_up_now.fetch_add(replayed, std::memory_order_relaxed);
    });
    if (online_model_) {
        // Drain this round's engagement feedback and refit when due —
        // single-threaded, between the sharded sections.
        for (broker& b : brokers_) {
            for (const auto& n : b.take_feedback()) online_model_->observe(n);
        }
        online_model_->on_round_end();
    }
    caught_up_rounds_ += caught_up_now.load(std::memory_order_relaxed);
    active_users_ = active_.size();
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [this](trace::user_id u) { return active_flag_[u] == 0; }),
                  active_.end());
    // Make this round's trace lines durable before anything else can
    // observe (or kill) the run at this round boundary.
    if (params_.trace != nullptr && params_.trace->streaming())
        params_.trace->flush_through(rounds_run_);
    ++rounds_run_;
    now_ += params_.round;
    return admitted_now.load(std::memory_order_relaxed);
}

void round_engine::reshard(std::size_t worker_threads) {
    // Going through full checkpoint-restore — rather than moving the live
    // brokers — is deliberate: it proves the round-trip is lossless, which
    // is the same property that would carry a shard to another host. The
    // active list and owed_start_ are engine state and need no rebuild.
    std::vector<broker_checkpoint> checkpoints;
    checkpoints.reserve(brokers_.size());
    for (const broker& b : brokers_) checkpoints.push_back(b.checkpoint());
    destroy_fleet();
    pool_ = std::make_unique<worker_pool>(
        std::max<std::size_t>(1, std::min(worker_threads, checkpoints.size())));
    build_fleet();
    for (std::size_t u = 0; u < brokers_.size(); ++u) brokers_[u].restore(checkpoints[u]);
}

const broker& round_engine::user_broker(trace::user_id u) {
    RICHNOTE_REQUIRE(u < brokers_.size(), "user outside the fleet");
    caught_up_rounds_ += catch_up(u);
    return brokers_[u];
}

// ----- trace_cursor_source -----

trace_cursor_source::trace_cursor_source(const trace::workload& world,
                                         const experiment_params& params)
    : world_(&world),
      batch_multiplier_(params.batch_topic_round_multiplier),
      total_rounds_(
          static_cast<std::uint64_t>(std::ceil(world.params().horizon / params.round)) + 1),
      fast_index_(world.user_count()),
      batch_index_(world.user_count()),
      fast_cursor_(world.user_count(), 0),
      batch_cursor_(world.user_count(), 0),
      fast_next_(world.user_count(), std::numeric_limits<double>::infinity()),
      batch_next_(world.user_count(), std::numeric_limits<double>::infinity()),
      due_buffer_(world.user_count()) {
    RICHNOTE_REQUIRE(batch_multiplier_ >= 1, "topic round multiplier must be >= 1");
    for (trace::user_id u = 0; u < world.user_count(); ++u) {
        const auto& stream = world.notifications().per_user[u];
        for (std::size_t i = 0; i < stream.size(); ++i) {
            (stream[i].type == trace::notification_type::friend_feed ? fast_index_
                                                                     : batch_index_)[u]
                .push_back(i);
        }
        if (!fast_index_[u].empty()) fast_next_[u] = stream[fast_index_[u][0]].created_at;
        if (!batch_index_[u].empty()) batch_next_[u] = stream[batch_index_[u][0]].created_at;
    }
}

void trace_cursor_source::begin_round(round_engine& engine) {
    const std::uint64_t tick = engine.rounds_run();
    batch_tick_ = tick % batch_multiplier_ == 0 || tick + 1 >= total_rounds_; // final flush
    if (!engine.defers()) return; // every user is already active
    const sim_time now = engine.now();
    for (trace::user_id u = 0; u < world_->user_count(); ++u) {
        if (due(u, now)) engine.activate(u);
    }
}

std::size_t trace_cursor_source::admit_due(round_engine& engine, trace::user_id u) {
    const sim_time now = engine.now();
    if (!due(u, now)) return 0;
    const auto& stream = world_->notifications().per_user[u];
    std::vector<std::size_t>& ready = due_buffer_[u];
    ready.clear();
    auto collect = [&](const std::vector<std::size_t>& index, std::size_t& cursor,
                       double& next) {
        while (cursor < index.size() && stream[index[cursor]].created_at <= now) {
            ready.push_back(index[cursor]);
            ++cursor;
        }
        next = cursor < index.size() ? stream[index[cursor]].created_at
                                     : std::numeric_limits<double>::infinity();
    };
    if (fast_next_[u] <= now) collect(fast_index_[u], fast_cursor_[u], fast_next_[u]);
    if (batch_tick_ && batch_next_[u] <= now)
        collect(batch_index_[u], batch_cursor_[u], batch_next_[u]);
    engine.reorder(u, ready.begin(), ready.end());
    for (const std::size_t i : ready) engine.admit(u, stream[i]);
    return ready.size();
}

// ----- pending_bucket_source -----

pending_bucket_source::pending_bucket_source(admission_queue<trace::notification>& ring,
                                             std::size_t user_count,
                                             const experiment_params& params)
    : ring_(&ring), trace_(params.trace), lifecycle_(params.lifecycle), pending_(user_count) {}

void pending_bucket_source::begin_round(round_engine& engine) {
    trace::notification n;
    const std::uint64_t round = engine.rounds_run();
    while (ring_->try_pop(n)) {
        // Deterministic-plane ingest event: the round the driver drained
        // the item, never a wall-clock stamp (DESIGN.md §13). Emitted here
        // — single-threaded, before the worker shards run — so the per-user
        // sequence is identical for every worker count.
        if (trace_ != nullptr) {
            trace_->event(n.recipient, round, "lc_ingest")
                .field("item", n.id)
                .field("created_at", n.created_at);
        }
        pending_[n.recipient].push_back({n, round});
        ++drained_;
        engine.activate(n.recipient);
    }
}

std::size_t pending_bucket_source::admit_due(round_engine& engine, trace::user_id u) {
    std::vector<pending_item>& pend = pending_[u];
    if (pend.empty()) return 0;
    const sim_time now = engine.now();
    const std::uint64_t round = engine.rounds_run();
    // Due items to the front (stable: drain order preserved), then
    // canonical admission order within the due prefix; ties (duplicate
    // ids) keep drain order.
    const auto mid = std::stable_partition(
        pend.begin(), pend.end(),
        [now](const pending_item& p) { return p.note.created_at <= now; });
    if (mid == pend.begin()) return 0;
    std::stable_sort(pend.begin(), mid, [](const pending_item& a, const pending_item& b) {
        const int ca = a.note.type == trace::notification_type::friend_feed ? 0 : 1;
        const int cb = b.note.type == trace::notification_type::friend_feed ? 0 : 1;
        if (ca != cb) return ca < cb;
        if (a.note.created_at != b.note.created_at) return a.note.created_at < b.note.created_at;
        return a.note.id < b.note.id;
    });
    engine.reorder(u, pend.begin(), mid);
    for (auto it = pend.begin(); it != mid; ++it) {
        // Admission event on the owning shard: one user's events are
        // sequential here, so the per-user byte stream is identical for
        // every worker count.
        if (trace_ != nullptr) {
            trace_->event(u, round, "lc_admit")
                .field("item", it->note.id)
                .field("wait_rounds", round - it->ingest_round);
        }
        if (lifecycle_ != nullptr) lifecycle_->on_admitted(it->note.id, round);
        engine.admit(u, it->note);
    }
    const auto admitted = static_cast<std::size_t>(mid - pend.begin());
    pend.erase(pend.begin(), mid);
    return admitted;
}

} // namespace richnote::core
