#include "core/broker.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/lifecycle.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"

namespace richnote::core {

using richnote::sim::net_state;
using richnote::sim::sim_time;

broker::broker(trace::user_id user, broker_params params, std::unique_ptr<scheduler> sched,
               const presentation_generator& generator, const content_utility_model& utility,
               const energy::energy_model& energy,
               richnote::sim::markov_network_model network,
               std::unique_ptr<richnote::sim::battery_source> battery,
               const trace::catalog& catalog, metrics_recorder& metrics,
               std::uint64_t env_seed)
    : user_(user),
      params_(params),
      scheduler_(std::move(sched)),
      generator_(&generator),
      utility_(&utility),
      energy_(&energy),
      network_(std::move(network)),
      battery_(std::move(battery)),
      catalog_(&catalog),
      metrics_(&metrics),
      env_rng_(env_seed) {
    RICHNOTE_REQUIRE(scheduler_ != nullptr, "broker needs a scheduler");
    RICHNOTE_REQUIRE(battery_ != nullptr, "broker needs a battery source");
    RICHNOTE_REQUIRE(params_.budget_per_round_bytes >= 0, "theta must be non-negative");
    RICHNOTE_REQUIRE(params_.round > 0, "round length must be positive");
    RICHNOTE_REQUIRE(params_.transfer_failure_prob >= 0.0 &&
                         params_.transfer_failure_prob <= 1.0,
                     "failure probability must be in [0,1]");
    RICHNOTE_REQUIRE(!(params_.legacy_failure_accounting && params_.faults != nullptr),
                     "legacy all-or-nothing accounting cannot be combined with a fault plan");
    if (params_.expected_admissions > 0) seen_ids_.reserve(params_.expected_admissions);
    if (params_.trace != nullptr) scheduler_->bind_trace(params_.trace, user_);
    if (params_.lifecycle != nullptr) scheduler_->bind_lifecycle(params_.lifecycle);
}

std::vector<trace::notification> broker::take_feedback() {
    std::vector<trace::notification> out;
    out.swap(pending_feedback_);
    return out;
}

void broker::admit(const trace::notification& n) {
    RICHNOTE_REQUIRE(n.recipient == user_, "notification for a different user");
    if (!seen_ids_.insert(n.id).second) {
        // Idempotent admission: an at-least-once upstream (or an injected
        // duplicate arrival) re-publishing an id must not enqueue it twice.
        ++duplicates_suppressed_;
        metrics_->on_duplicate_suppressed(user_);
        if (params_.trace != nullptr) {
            params_.trace->event(user_, round_index_, "duplicate").field("item", n.id);
        }
        return;
    }
    metrics_->on_arrival(n);

    sched_item item;
    item.note = n;
    item.content_utility = utility_->content_utility(n);
    const double full_duration = catalog_->track_at(n.track).duration_sec;
    item.presentations = generator_->generate_for_item(n.track, full_duration);
    item.arrived_at = n.created_at;
    scheduler_->enqueue(std::move(item));
}

broker_checkpoint broker::checkpoint() const {
    broker_checkpoint cp;
    cp.round_index = round_index_;
    cp.data_budget = data_budget_;
    cp.failed_transfers = failed_transfers_;
    cp.duplicates_suppressed = duplicates_suppressed_;
    cp.crash_restarts = crash_restarts_;
    cp.seen_ids = seen_ids_;
    cp.partial_progress = partial_progress_;
    cp.pending_feedback = pending_feedback_;
    cp.env_rng = env_rng_;
    cp.network = network_;
    cp.battery = battery_->clone();
    cp.sched = scheduler_->checkpoint();
    return cp;
}

void broker::restore(const broker_checkpoint& cp) {
    RICHNOTE_REQUIRE(cp.battery != nullptr, "checkpoint is missing battery state");
    round_index_ = cp.round_index;
    data_budget_ = cp.data_budget;
    failed_transfers_ = cp.failed_transfers;
    duplicates_suppressed_ = cp.duplicates_suppressed;
    crash_restarts_ = cp.crash_restarts;
    seen_ids_ = cp.seen_ids;
    partial_progress_ = cp.partial_progress;
    pending_feedback_ = cp.pending_feedback;
    env_rng_ = cp.env_rng;
    network_ = cp.network;
    battery_ = cp.battery->clone();
    scheduler_->restore(cp.sched);
}

void broker::crash_restart() {
    const broker_checkpoint cp = checkpoint();
    restore(cp);
    ++crash_restarts_;
    metrics_->on_crash_restart(user_);
}

round_context broker::open_round(sim_time now, bool brownout) {
    round_context ctx;
    ctx.now = now;
    ctx.round = round_index_++;

    // 1. Environment evolves (driven by this broker's private stream). The
    // chain always steps — a blackout grounds the radio for the round but
    // must not shift the RNG stream of later rounds.
    ctx.network = network_.step(env_rng_);
    battery_->step(now, params_.round, 0.0);

    // 3. Budget replenishment with capped rollover; a battery brownout
    // suspends the energy replenishment e(t) for the round.
    roll_budget_over();
    ctx.data_budget_bytes = data_budget_;
    ctx.energy_replenishment =
        brownout ? 0.0 : params_.energy_policy.replenishment(*battery_);
    scheduler_->open_round(ctx);
    return ctx;
}

void broker::roll_budget_over() noexcept {
    data_budget_ = std::min(data_budget_ + params_.budget_per_round_bytes,
                            params_.budget_per_round_bytes *
                                std::max(1.0, params_.rollover_rounds));
}

std::uint64_t broker::idle_rounds_to_skip(std::uint64_t rounds, sim_time start,
                                          sim_time period) const noexcept {
    // The network chain must forget its state in one step, and the clock
    // must be exact: integral sums below 2^53 are, so round j of the
    // stretch starts at start + j * period bit for bit.
    constexpr double exact_below = 0x1p53;
    if (rounds <= min_idle_skip || !network_.memoryless() || start < 0.0 || period <= 0.0 ||
        start != std::floor(start) || period != std::floor(period) ||
        start + static_cast<double>(rounds) * period >= exact_below)
        return 0;
    // The latest round within a day of the stretch's end whose battery
    // step resets the battery; the rounds before it are skipped.
    for (std::uint64_t j = rounds - 1;
         j >= min_idle_skip && static_cast<double>(rounds - j) * period <= richnote::sim::days;
         --j) {
        if (battery_->idle_step_resets(start + static_cast<double>(j) * period, params_.round))
            return j;
    }
    return 0;
}

sim_time broker::run_idle_rounds(std::uint64_t rounds, sim_time start, sim_time period) {
    RICHNOTE_ASSERT_VALID(
        RICHNOTE_CHECK(params_.faults == nullptr && scheduler_->queue_size() == 0,
                       "only a fault-free broker with an empty queue idles"));
    sim_time t = start;
    // Head: until the scheduler's round is a no-op, every round counts.
    for (; rounds > 0 && !scheduler_->idle_steady(); --rounds) {
        open_round(t, false);
        t += period;
    }
    // Skip: what the skipped rounds leave behind that a later round still
    // sees is the stream position (one chain draw a round), the round index
    // and the budget. The chain's and the battery's states are rebuilt by
    // the first tail round, and the scheduler's round changes nothing.
    if (const std::uint64_t skip = idle_rounds_to_skip(rounds, t, period); skip > 0) {
        env_rng_.discard(skip);
        round_index_ += skip;
        // The rollover recursion reaches its cap within rollover_rounds
        // steps and then stays: stop at the fixed point.
        for (std::uint64_t k = 0; k < skip; ++k) {
            const double before = data_budget_;
            roll_budget_over();
            if (data_budget_ == before) break;
        }
        t += static_cast<double>(skip) * period;
        rounds -= skip;
    }
    // Tail: the rest, the resetting round first, round by round.
    for (; rounds > 0; --rounds) {
        open_round(t, false);
        t += period;
    }
    return t;
}

void broker::run_round(sim_time now) {
    RICHNOTE_PROFILE_SCOPE(obs::profile_slot::broker_round);
    const std::uint64_t round = round_index_;
    const richnote::faults::fault_plan* faults = params_.faults;
    richnote::obs::trace_sink* trace = params_.trace;

    // Injected crash: the broker dies and comes back from its checkpoint
    // before serving the round. Lossless by construction
    // (test_broker_resilience).
    if (faults != nullptr && faults->crash_restart(user_, round)) {
        crash_restart();
        if (trace != nullptr) trace->event(user_, round, "crash_restart");
    }

    const bool blackout = faults != nullptr && faults->blackout(user_, round);
    const bool brownout = faults != nullptr && faults->brownout(user_, round);
    if (blackout) metrics_->on_fault(user_);
    if (brownout) metrics_->on_fault(user_);
    if (trace != nullptr && (blackout || brownout)) {
        trace->event(user_, round, "fault")
            .field("blackout", blackout)
            .field("brownout", brownout);
    }

    // 1–3. The shared prefix; then the link this round actually has.
    round_context ctx = open_round(now, brownout);
    const net_state state = blackout ? net_state::off : ctx.network;
    const richnote::sim::link_profile link = richnote::sim::default_link_profile(state);
    ctx.network = state;
    ctx.metered = link.metered;
    ctx.link_capacity_bytes = link.bytes_per_second * params_.round;

    // 4. Plan and deliver. The plan references the scheduler's reused
    // buffer; it stays valid through delivery (on_delivered /
    // on_transfer_failed only touch the queue) and is never copied.
    const std::vector<planned_delivery>& plan = scheduler_->build_plan(ctx);
    if (plan.empty()) return;

    double sent_bytes = 0.0;  ///< bytes actually moved this round
    double charged = 0.0;     ///< per-item energy already charged this round
    std::size_t sent_items = 0;
    for (const planned_delivery& d : plan) {
        if (!link.connected) break;

        // Resume support: a transfer interrupted in an earlier round only
        // needs its remaining bytes; link capacity, data budget and energy
        // are all gated on the remainder, not the full size.
        const auto prog = partial_progress_.find(d.item_id);
        const double already =
            (!params_.legacy_failure_accounting && prog != partial_progress_.end())
                ? prog->second
                : 0.0;
        const double remaining = std::max(0.0, d.size_bytes - already);
        const double rho_remaining =
            d.size_bytes > 0.0 ? d.rho_joules * (remaining / d.size_bytes) : d.rho_joules;

        if (sent_bytes + remaining > ctx.link_capacity_bytes) break;
        if (ctx.metered && remaining > data_budget_) break;
        // Energy-gated items are skipped, not head-of-line blocking: a rich
        // presentation whose rho exceeds the remaining credit must not
        // starve the cheap metadata deliveries behind it in the plan.
        if (!scheduler_->allow_delivery(rho_remaining)) continue;

        // Drawn in the same stream position as always so the lossless
        // default run stays bit-identical across accounting modes.
        const bool cut_by_rng = params_.transfer_failure_prob > 0.0 &&
                                env_rng_.bernoulli(params_.transfer_failure_prob);

        if (params_.legacy_failure_accounting && cut_by_rng) {
            // Historical all-or-nothing accounting: the full byte size and
            // radio energy are burned, nothing is resumable.
            sent_bytes += remaining;
            ++sent_items;
            charged += d.rho_joules;
            if (ctx.metered) data_budget_ -= remaining;
            ++failed_transfers_;
            metrics_->on_session_overhead(user_, d.rho_joules);
            battery_->drain(d.rho_joules);
            if (params_.lifecycle != nullptr)
                params_.lifecycle->on_attempt(d.item_id, round);
            if (scheduler_->on_transfer_failed(d.item_id, now))
                metrics_->on_dead_letter(user_);
            continue;
        }

        // How far does this attempt get? 1.0 = completes. The injected
        // flaky-link fraction and the legacy RNG drop compose by taking
        // whichever cuts earlier.
        double fraction = 1.0;
        if (faults != nullptr)
            fraction = faults->transfer_fraction(user_, round, d.item_id);
        if (cut_by_rng) fraction = std::min(fraction, env_rng_.uniform());

        const double moved = remaining * fraction;
        const double rho_share =
            d.size_bytes > 0.0 ? d.rho_joules * (moved / d.size_bytes)
                               : d.rho_joules * fraction;
        sent_bytes += moved;
        ++sent_items;
        charged += rho_share;
        if (ctx.metered) data_budget_ -= moved;
        battery_->drain(rho_share);

        if (fraction < 1.0) {
            // Interrupted mid-flight: charge only the bytes and energy that
            // actually moved, remember the high-water mark so the next
            // attempt resumes instead of restarting, and let the scheduler
            // apply its retry budget / backoff.
            if (trace != nullptr) {
                trace->event(user_, round, "transfer_cut")
                    .field("item", d.item_id)
                    .field("moved_bytes", moved)
                    .field("high_water_bytes", already + moved)
                    .field("fraction", fraction);
            }
            partial_progress_[d.item_id] = already + moved;
            ++failed_transfers_;
            if (params_.lifecycle != nullptr)
                params_.lifecycle->on_attempt(d.item_id, round);
            metrics_->on_transfer_interrupted(user_, moved);
            metrics_->on_session_overhead(user_, rho_share);
            scheduler_->on_session_overhead(rho_share);
            if (scheduler_->on_transfer_failed(d.item_id, now)) {
                partial_progress_.erase(d.item_id);
                metrics_->on_dead_letter(user_);
            }
            continue;
        }

        // Completed — possibly finishing a transfer earlier rounds started.
        if (already > 0.0) {
            metrics_->on_resume(user_, already);
            partial_progress_.erase(d.item_id);
        }
        // Delivery timestamp: when the last byte of this item crosses the
        // link, assuming back-to-back transmission from the round start.
        const sim_time when = now + sent_bytes / link.bytes_per_second;
        if (trace != nullptr) {
            trace->event(user_, round, "deliver")
                .field("item", d.item_id)
                .field("level", d.level)
                .field("bytes", moved)
                .field("resumed_bytes", already)
                .field("rho_joules", rho_share)
                .field("utility", d.utility)
                .field("delay_sec", when - d.note.created_at);
        }
        metrics_->on_delivery(d, when, rho_share, ctx.metered, moved);
        scheduler_->on_delivered(d.item_id, rho_share);
        if (params_.lifecycle != nullptr)
            params_.lifecycle->on_delivered(d.item_id, round);
        // Engagement feedback becomes observable once the user sees the
        // notification; unattended deliveries produce no signal.
        if (d.note.attended) pending_feedback_.push_back(d.note);
    }

    if (sent_items > 0) {
        // The per-item rho estimates amortize the radio session overhead
        // over an assumed batch; account the difference between the actual
        // session cost and what was already charged per item.
        const double actual = energy_->session_joules(state, sent_bytes, sent_items);
        const double overhead = actual - charged;
        if (overhead > 0.0) {
            metrics_->on_session_overhead(user_, overhead);
            battery_->drain(overhead);
            scheduler_->on_session_overhead(overhead);
        }
    }

    if (trace != nullptr) {
        trace->event(user_, round, "round")
            .field("planned", plan.size())
            .field("sent_items", sent_items)
            .field("sent_bytes", sent_bytes)
            .field("data_budget", data_budget_)
            .field("network", richnote::sim::to_string(state));
    }
}

} // namespace richnote::core
