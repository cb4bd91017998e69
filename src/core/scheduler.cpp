#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "obs/lifecycle.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"

namespace richnote::core {

using richnote::sim::net_state;

// ---------------------------------------------------------------- base ----

void queue_scheduler_base::note_planned_item(sched_item& item, level_t level) {
    if (lifecycle_ == nullptr || item.lifecycle_noted) return;
    item.lifecycle_noted = true;
    lifecycle_->on_planned(item.note.id, trace_round_,
                           static_cast<std::uint32_t>(level));
}

std::size_t queue_scheduler_base::find_position(std::uint64_t item_id) const noexcept {
    // Linear scan, on purpose: per-user queues are short (a handful of
    // items in steady state), so scanning beats maintaining an id->position
    // hash map — which costs a node allocation per enqueue and a tail
    // fixup walk per removal — on both time and the zero-allocation goal.
    for (std::size_t p = 0; p < queue_.size(); ++p)
        if (queue_[p].note.id == item_id) return p;
    return queue_.size();
}

void queue_scheduler_base::enqueue(sched_item item) {
    RICHNOTE_REQUIRE(!item.presentations.empty(), "item needs at least one presentation");
    RICHNOTE_REQUIRE(find_position(item.note.id) == queue_.size(),
                     "item already in the scheduling queue");
    queued_bytes_ += item.presentations.total_size();
    queue_.push_back(std::move(item));
    ++queue_version_;
    on_enqueued(queue_.back());
}

void queue_scheduler_base::on_delivered(std::uint64_t item_id, double energy_spent) {
    const std::size_t pos = find_position(item_id);
    RICHNOTE_REQUIRE(pos < queue_.size(), "delivered item not in the scheduling queue");
    remove_at(pos, energy_spent);
}

void queue_scheduler_base::remove_at(std::size_t pos, double energy_spent) {
    on_departed(queue_[pos], energy_spent);
    queued_bytes_ -= queue_[pos].presentations.total_size();
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pos));
    ++queue_version_;
}

std::size_t queue_scheduler_base::expire_older_than(richnote::sim::sim_time cutoff) {
    std::size_t expired = 0;
    for (std::size_t pos = 0; pos < queue_.size();) {
        if (queue_[pos].arrived_at < cutoff) {
            remove_at(pos, 0.0);
            ++expired;
        } else {
            ++pos;
        }
    }
    return expired;
}

bool queue_scheduler_base::on_transfer_failed(std::uint64_t item_id,
                                              richnote::sim::sim_time now) {
    const std::size_t pos = find_position(item_id);
    RICHNOTE_REQUIRE(pos < queue_.size(), "failed item not in the scheduling queue");
    sched_item& item = queue_[pos];
    ++item.failed_attempts;
    if (retry_.max_attempts > 0 && item.failed_attempts >= retry_.max_attempts) {
        // Retry budget spent: dead-letter the item so it cannot head-of-
        // line-block FIFO (or pin Q(t)) forever.
        if (trace_ != nullptr) {
            trace_->event(trace_user_, trace_round_, "dead_letter")
                .field("item", item.note.id)
                .field("attempts", item.failed_attempts);
        }
        const std::uint64_t dead_id = item.note.id; // remove_at invalidates item
        remove_at(pos, 0.0);
        ++dead_lettered_;
        if (lifecycle_ != nullptr) lifecycle_->on_dead_lettered(dead_id, trace_round_);
        return true;
    }
    ++retries_;
    if (retry_.backoff_base_sec > 0.0) {
        // Exponential backoff: base * 2^(failures-1), capped.
        const int doublings =
            static_cast<int>(std::min<std::uint64_t>(item.failed_attempts - 1, 40));
        const double delay =
            std::min(retry_.backoff_cap_sec, std::ldexp(retry_.backoff_base_sec, doublings));
        item.retry_not_before = now + delay;
    }
    if (trace_ != nullptr) {
        trace_->event(trace_user_, trace_round_, "retry_backoff")
            .field("item", item.note.id)
            .field("attempts", item.failed_attempts)
            .field("not_before", item.retry_not_before);
    }
    return false;
}

scheduler::checkpoint_state queue_scheduler_base::checkpoint() const {
    checkpoint_state state;
    state.items = queue_;
    state.retries = retries_;
    state.dead_lettered = dead_lettered_;
    return state;
}

void queue_scheduler_base::restore(const checkpoint_state& state) {
    // Rebuild the queue directly, without the enqueue hooks: subclasses
    // restore their derived state (e.g. the Lyapunov queues) explicitly.
    queue_ = state.items;
    queued_bytes_ = 0.0;
    for (const sched_item& item : queue_) queued_bytes_ += item.presentations.total_size();
    retries_ = state.retries;
    dead_lettered_ = state.dead_lettered;
    ++queue_version_;
}

// ----------------------------------------------------------- richnote ----

richnote_scheduler::richnote_scheduler(params p, const energy::energy_model& energy)
    : params_(p), energy_(&energy), controller_(p.lyapunov) {}

void richnote_scheduler::enqueue(sched_item item) {
    if (item.content_utility < params_.min_content_utility) {
        ++dropped_low_utility_; // declined: traded away for precision
        return;
    }
    queue_scheduler_base::enqueue(std::move(item));
}

void richnote_scheduler::on_enqueued(const sched_item& item) {
    controller_.on_enqueue(item.presentations.total_size());
}

void richnote_scheduler::on_departed(const sched_item& item, double energy_spent) {
    controller_.on_departure(item.presentations.total_size(), energy_spent);
}

void richnote_scheduler::on_session_overhead(double joules) {
    controller_.on_departure(0.0, joules);
}

bool richnote_scheduler::allow_delivery(double rho_joules) const noexcept {
    // Conservative gate: deliver only when the energy credit covers the
    // item's estimated cost. (Deducting on delivery and merely requiring
    // P > 0 would overshoot the energy envelope by up to one item's rho
    // per round — material when kappa is small relative to a rich
    // presentation's download energy.)
    return controller_.energy_credit() >= rho_joules;
}

void richnote_scheduler::open_round(const round_context& ctx) {
    trace_round_ = ctx.round;

    // Algorithm 2 step 2: replenish the energy credit at the round boundary.
    controller_.on_round(ctx.energy_replenishment);

    // Bounded staleness (extension): expire items past the age limit.
    if (params_.max_queue_age_sec > 0) {
        expired_items_ += expire_older_than(ctx.now - params_.max_queue_age_sec);
    }
}

bool richnote_scheduler::idle_steady() const noexcept {
    // on_round() adds e(t) only while P(t) <= kappa, and an idle round
    // spends nothing, so past kappa P(t) stays put; expiry finds no item.
    return controller_.energy_credit() > controller_.params().kappa;
}

const std::vector<planned_delivery>& richnote_scheduler::build_plan(const round_context& ctx) {
    RICHNOTE_PROFILE_SCOPE(obs::profile_slot::scheduler_plan);
    plan_.clear();
    if (queue_.empty() || !richnote::sim::default_link_profile(ctx.network).connected)
        return plan_;

    // Effective budget: the metered data budget on cellular, the link
    // capacity on unmetered wifi (wifi "allows more data to deliver",
    // §V-D3) — and never more than the link can move either way.
    const double budget = ctx.metered
                              ? std::min(ctx.data_budget_bytes, ctx.link_capacity_bytes)
                              : ctx.link_capacity_bytes;
    if (budget <= 0.0) return plan_;

    // Effective content utility after aging (§III-A's aging factor).
    auto aged_content_utility = [&](const sched_item& item) {
        if (params_.utility_half_life_sec <= 0) return item.content_utility;
        const double age = std::max(0.0, ctx.now - item.arrived_at);
        return item.content_utility * std::exp2(-age / params_.utility_half_life_sec);
    };

    // WiFi deferral: on a metered link, high-value items may be withheld
    // (empty menu -> level 0 -> stays queued) while their wait budget lasts.
    auto deferred = [&](const sched_item& item) {
        if (params_.wifi_deferral_min_utility <= 0.0 || !ctx.metered) return false;
        if (item.content_utility < params_.wifi_deferral_min_utility) return false;
        return ctx.now - item.arrived_at < params_.wifi_deferral_max_wait_sec;
    };

    // Build the MCKP instance with Lyapunov-adjusted utilities (Eq. 7) into
    // the grow-only scratch arenas. instance_ keeps one slot per historical
    // queue-size peak; only the active prefix [0, n) is rewritten, and any
    // trailing slots present cleared (empty) menus the solver never
    // upgrades. The per-level rho estimates live flat in rho_flat_ with
    // rho_offset_[i] marking item i's first level.
    const std::size_t n = queue_.size();
    if (instance_.size() < n) instance_.resize(n);
    rho_offset_.resize(n);
    aged_uc_.resize(n);
    rho_flat_.clear();
    const auto adjuster = controller_.make_adjuster();
    for (std::size_t i = 0; i < n; ++i) {
        const sched_item& item = queue_[i];
        mckp_item& m = instance_[i];
        m.sizes.clear();
        m.utilities.clear();
        aged_uc_[i] = aged_content_utility(item);
        rho_offset_[i] = rho_flat_.size();
        if (!retry_eligible(item, ctx.now)) continue; // backing off: forced level 0
        if (deferred(item)) {
            ++deferred_item_rounds_;
            continue; // empty menu: forced level 0
        }
        const double item_qs = adjuster.item_queue_term(item.presentations.total_size());
        const std::size_t k = item.presentations.level_count();
        for (level_t j = 1; j <= k; ++j) {
            const double size = item.presentations.size(j);
            const double rho = energy_->estimate_rho(ctx.network, size,
                                                     params_.expected_batch_items);
            rho_flat_.push_back(rho);
            m.sizes.push_back(size);
            m.utilities.push_back(adjuster.level_utility(
                item_qs, rho, aged_uc_[i] * item.presentations.utility(j)));
        }
    }
    for (std::size_t i = n; i < instance_.size(); ++i) {
        instance_[i].sizes.clear();
        instance_[i].utilities.clear();
    }

    const mckp_solution& solution =
        select_presentations_incremental(instance_, budget, params_.mckp, mckp_scratch_);

    // Materialize the plan and sort by descending TRUE utility (Algorithm 2
    // step 1: "sort them in descending order of their utility values").
    for (std::size_t i = 0; i < n; ++i) {
        const level_t level = solution.levels[i];
        if (level == 0) continue;
        sched_item& item = queue_[i];
        note_planned_item(item, level);
        planned_delivery d;
        d.item_id = item.note.id;
        d.level = level;
        d.size_bytes = item.presentations.size(level);
        // The utility actually realized at delivery time reflects aging.
        d.utility = aged_uc_[i] * item.presentations.utility(level);
        d.rho_joules = rho_flat_[rho_offset_[i] + level - 1];
        d.item_total_size = item.presentations.total_size();
        d.note = item.note;
        plan_.push_back(std::move(d));
    }
    std::sort(plan_.begin(), plan_.end(),
              [](const planned_delivery& a, const planned_delivery& b) {
                  if (a.utility != b.utility) return a.utility > b.utility;
                  return a.item_id < b.item_id;
              });

    if (trace_ != nullptr) {
        // One "plan" summary plus one "decision" per selected item, carrying
        // the exact Eq. 7 terms the MCKP maximized: Q(t)*s(i) (item_qs),
        // (P(t)-kappa)*rho(i,j) and V*U(i,j). The terms are recomputed with
        // the same adjuster operations the instance build used, so they sum
        // bit-exactly to the instance utility the solver saw.
        trace_->event(trace_user_, ctx.round, "plan")
            .field("candidates", n)
            .field("selected", plan_.size())
            .field("budget_bytes", budget)
            .field("q_bytes", controller_.queue_backlog())
            .field("p_joules", controller_.energy_credit())
            .field("adjusted_total", solution.total_utility);
        for (std::size_t i = 0; i < n; ++i) {
            const level_t level = solution.levels[i];
            if (level == 0) continue;
            const sched_item& item = queue_[i];
            const double item_qs =
                adjuster.item_queue_term(item.presentations.total_size());
            const double rho = rho_flat_[rho_offset_[i] + level - 1];
            const double true_u = aged_uc_[i] * item.presentations.utility(level);
            trace_->event(trace_user_, ctx.round, "decision")
                .field("item", item.note.id)
                .field("level", level)
                .field("levels", item.presentations.level_count())
                .field("size_bytes", item.presentations.size(level))
                .field("term_queue", item_qs)
                .field("term_energy", adjuster.p_scaled * (rho / adjuster.energy_unit_joules))
                .field("term_value", adjuster.v * true_u)
                .field("adjusted", instance_[i].utilities[level - 1])
                .field("utility", true_u);
        }
    }
    return plan_;
}

scheduler::checkpoint_state richnote_scheduler::checkpoint() const {
    checkpoint_state state = queue_scheduler_base::checkpoint();
    state.lyapunov = controller_.checkpoint();
    state.dropped_low_utility = dropped_low_utility_;
    state.expired_items = expired_items_;
    state.deferred_item_rounds = deferred_item_rounds_;
    return state;
}

void richnote_scheduler::restore(const checkpoint_state& state) {
    queue_scheduler_base::restore(state);
    controller_.restore(state.lyapunov);
    dropped_low_utility_ = state.dropped_low_utility;
    expired_items_ = state.expired_items;
    deferred_item_rounds_ = state.deferred_item_rounds;
}

// ------------------------------------------------------------- direct ----

direct_scheduler::direct_scheduler(params p, const energy::energy_model& energy)
    : params_(p), energy_(&energy), energy_credit_(p.kappa_joules_per_round) {
    RICHNOTE_REQUIRE(p.kappa_joules_per_round >= 0, "kappa must be non-negative");
    RICHNOTE_REQUIRE(p.energy_accrual_rounds >= 1, "accrual cap must be >= 1 round");
}

void direct_scheduler::on_departed(const sched_item& item, double energy_spent) {
    (void)item;
    energy_credit_ = std::max(0.0, energy_credit_ - energy_spent);
}

void direct_scheduler::on_session_overhead(double joules) {
    energy_credit_ = std::max(0.0, energy_credit_ - joules);
}

bool direct_scheduler::allow_delivery(double rho_joules) const noexcept {
    return energy_credit_ >= rho_joules;
}

void direct_scheduler::open_round(const round_context& ctx) {
    trace_round_ = ctx.round;
    // Accrue this round's energy budget, banked up to the cap.
    energy_credit_ = std::min(energy_credit_ + params_.kappa_joules_per_round,
                              params_.kappa_joules_per_round * params_.energy_accrual_rounds);
}

bool direct_scheduler::idle_steady() const noexcept {
    // At the cap, open_round()'s min() gives the cap back.
    return energy_credit_ == params_.kappa_joules_per_round * params_.energy_accrual_rounds;
}

const std::vector<planned_delivery>& direct_scheduler::build_plan(const round_context& ctx) {
    RICHNOTE_PROFILE_SCOPE(obs::profile_slot::scheduler_plan);
    plan_.clear();
    if (queue_.empty() || !richnote::sim::default_link_profile(ctx.network).connected)
        return plan_;
    const double budget = ctx.metered
                              ? std::min(ctx.data_budget_bytes, ctx.link_capacity_bytes)
                              : ctx.link_capacity_bytes;
    if (budget <= 0.0) return plan_;

    // Grow-only scratch instance (see richnote_scheduler::build_plan).
    const std::size_t n = queue_.size();
    if (instance_.size() < n) instance_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const sched_item& item = queue_[i];
        mckp_item_2d& m = instance_[i];
        m.sizes.clear();
        m.energies.clear();
        m.utilities.clear();
        if (!retry_eligible(item, ctx.now)) continue; // backing off: forced level 0
        const std::size_t k = item.presentations.level_count();
        for (level_t j = 1; j <= k; ++j) {
            const double size = item.presentations.size(j);
            m.sizes.push_back(size);
            m.energies.push_back(
                energy_->estimate_rho(ctx.network, size, params_.expected_batch_items));
            m.utilities.push_back(item.utility(j));
        }
    }
    for (std::size_t i = n; i < instance_.size(); ++i) {
        instance_[i].sizes.clear();
        instance_[i].energies.clear();
        instance_[i].utilities.clear();
    }

    const mckp_solution& solution =
        select_presentations_2d(instance_, budget, energy_credit_, params_.mckp, mckp_scratch_);

    for (std::size_t i = 0; i < n; ++i) {
        const level_t level = solution.levels[i];
        if (level == 0) continue;
        sched_item& item = queue_[i];
        note_planned_item(item, level);
        planned_delivery d;
        d.item_id = item.note.id;
        d.level = level;
        d.size_bytes = item.presentations.size(level);
        d.utility = item.utility(level);
        d.rho_joules = instance_[i].energies[level - 1];
        d.item_total_size = item.presentations.total_size();
        d.note = item.note;
        plan_.push_back(std::move(d));
    }
    std::sort(plan_.begin(), plan_.end(),
              [](const planned_delivery& a, const planned_delivery& b) {
                  if (a.utility != b.utility) return a.utility > b.utility;
                  return a.item_id < b.item_id;
              });
    return plan_;
}

scheduler::checkpoint_state direct_scheduler::checkpoint() const {
    checkpoint_state state = queue_scheduler_base::checkpoint();
    state.energy_credit = energy_credit_;
    return state;
}

void direct_scheduler::restore(const checkpoint_state& state) {
    queue_scheduler_base::restore(state);
    energy_credit_ = state.energy_credit;
}

// ---------------------------------------------------------- baselines ----

fixed_level_scheduler::fixed_level_scheduler(level_t fixed_level,
                                             const energy::energy_model& energy)
    : fixed_level_(fixed_level), energy_(&energy) {
    RICHNOTE_REQUIRE(fixed_level >= 1, "baselines deliver at a fixed level >= 1");
}

const std::vector<planned_delivery>& fixed_level_scheduler::build_plan(
    const round_context& ctx) {
    RICHNOTE_PROFILE_SCOPE(obs::profile_slot::scheduler_plan);
    plan_.clear();
    if (queue_.empty() || !richnote::sim::default_link_profile(ctx.network).connected)
        return plan_;
    const double budget = ctx.metered
                              ? std::min(ctx.data_budget_bytes, ctx.link_capacity_bytes)
                              : ctx.link_capacity_bytes;
    if (budget <= 0.0) return plan_;

    double planned_bytes = 0.0;
    for (std::size_t pos : delivery_order()) {
        sched_item& item = queue_[pos];
        // Backing-off items are skipped, not head-of-line blocking — even
        // under FIFO: the whole point of the backoff is that a flaky item
        // must not starve the queue behind it between its retries.
        if (!retry_eligible(item, ctx.now)) continue;
        const auto level = static_cast<level_t>(
            std::min<std::size_t>(fixed_level_, item.presentations.level_count()));
        const double size = item.presentations.size(level);
        if (planned_bytes + size > budget) {
            if (head_of_line_blocking()) break;
            continue;
        }
        note_planned_item(item, level);
        planned_delivery d;
        d.item_id = item.note.id;
        d.level = level;
        d.size_bytes = size;
        d.utility = item.utility(level);
        d.rho_joules = energy_->estimate_rho(ctx.network, size);
        d.item_total_size = item.presentations.total_size();
        d.note = item.note;
        planned_bytes += size;
        plan_.push_back(std::move(d));
    }
    return plan_;
}

const std::vector<std::size_t>& fifo_scheduler::delivery_order() {
    // queue_ is insertion-ordered and insertions arrive in timestamp order,
    // so identity order IS delivery-timestamp order. Rebuilt only when the
    // queue changed structurally since the last round.
    if (order_version_ != queue_version_) {
        order_.resize(queue_.size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        order_version_ = queue_version_;
    }
    return order_;
}

const std::vector<std::size_t>& util_scheduler::delivery_order() {
    // Item utilities at a fixed level are time-invariant, so the sorted
    // order only goes stale when the queue itself changes.
    if (order_version_ != queue_version_) {
        order_.resize(queue_.size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        const level_t level = fixed_level();
        std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
            const auto level_a = static_cast<level_t>(
                std::min<std::size_t>(level, queue_[a].presentations.level_count()));
            const auto level_b = static_cast<level_t>(
                std::min<std::size_t>(level, queue_[b].presentations.level_count()));
            const double ua = queue_[a].utility(level_a);
            const double ub = queue_[b].utility(level_b);
            if (ua != ub) return ua > ub;
            return queue_[a].note.id < queue_[b].note.id;
        });
        order_version_ = queue_version_;
    }
    return order_;
}

} // namespace richnote::core
