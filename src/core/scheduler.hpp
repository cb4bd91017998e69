// Notification schedulers (§IV Algorithm 2 and the §V-C baselines).
//
// A scheduler owns one user's scheduling queue. Each round the broker calls
// open_round() and then build_plan() with the round context (available data
// budget, network state, energy replenishment); the scheduler returns an
// ordered delivery plan.
// The broker then delivers as many planned entries as the network / budget /
// energy allow and reports each success via on_delivered(); planned entries
// that did not make it stay in the scheduling queue for the next round
// (Algorithm 2 step 1 clears and rebuilds the delivery queue each round).
//
// Three implementations:
//  - richnote_scheduler: Lyapunov-adjusted utilities + MCKP greedy, adaptive
//    presentation levels (the paper's contribution);
//  - fifo_scheduler: delivery-timestamp order at a FIXED presentation level
//    ("the widely used technique in industry ... real-time mode");
//  - util_scheduler: descending utility at a FIXED level ("batch mode").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/lyapunov.hpp"
#include "core/mckp.hpp"
#include "core/presentation.hpp"
#include "energy/model.hpp"
#include "sim/network.hpp"
#include "sim/time.hpp"
#include "trace/notification.hpp"

namespace richnote::obs {
class lifecycle_tracker;
class trace_sink;
}

namespace richnote::core {

/// One queued content item, with its generated presentations and content
/// utility already attached (Figure 1's "incoming queue -> scheduling
/// queue" step).
struct sched_item {
    trace::notification note;
    double content_utility = 0.0; ///< U_c(i) in [0, 1]
    presentation_set presentations;
    richnote::sim::sim_time arrived_at = 0; ///< arrival at the broker
    /// Retry bookkeeping (resilient delivery): how many transfers of this
    /// item were cut mid-flight, and until when the item backs off before
    /// the next attempt. Both travel with the item, so expiry, delivery and
    /// checkpoint/restore handle them for free. 64-bit like every other
    /// fault counter (core/counters.hpp): soak runs overflow 32 bits.
    std::uint64_t failed_attempts = 0;
    richnote::sim::sim_time retry_not_before = 0;
    /// Already reported to the lifecycle tracker as planned (see
    /// queue_scheduler_base::note_planned_item). Pure observability bookkeeping:
    /// never checkpointed — after a restore the tracker's own first-plan
    /// dedup absorbs the one redundant re-report.
    bool lifecycle_noted = false;

    /// Eq. 1 combined utility of level j.
    double utility(level_t j) const { return content_utility * presentations.utility(j); }
};

/// Per-item retry budget for transfers that cut mid-flight. The defaults
/// reproduce the pre-fault behaviour: retry immediately, forever.
struct retry_policy {
    /// Failed attempts before the item is dead-lettered (dropped with a
    /// counter) so a poisoned item cannot head-of-line-block FIFO forever;
    /// 0 = unlimited retries.
    std::uint64_t max_attempts = 0;
    /// First backoff delay after a failure; doubles with every further
    /// failure of the item (exponential backoff). 0 = retry next round.
    double backoff_base_sec = 0.0;
    /// Ceiling on the backoff delay.
    double backoff_cap_sec = 24.0 * 3600.0;
};

/// Everything a scheduler may react to at a round boundary.
struct round_context {
    richnote::sim::sim_time now = 0;
    std::uint64_t round = 0;         ///< round index (trace event keys)
    double data_budget_bytes = 0.0;  ///< B(t): accumulated metered budget
    richnote::sim::net_state network = richnote::sim::net_state::cell;
    bool metered = true;             ///< false on wifi: budget is not charged
    double link_capacity_bytes = 0.0; ///< max bytes the link can move this round
    double energy_replenishment = 0.0; ///< e(t) from the battery policy
};

/// One entry of the per-round delivery plan, in delivery order.
struct planned_delivery {
    std::uint64_t item_id = 0;
    level_t level = 0;             ///< chosen presentation level (>= 1)
    double size_bytes = 0.0;       ///< s(i, level)
    double utility = 0.0;          ///< true U(i, level) (Eq. 1), for metrics
    double rho_joules = 0.0;       ///< estimated download energy
    double item_total_size = 0.0;  ///< s(i): all levels (Lyapunov accounting)
    trace::notification note;      ///< copy for metrics bookkeeping
};

class scheduler {
public:
    virtual ~scheduler() = default;

    virtual const char* name() const noexcept = 0;

    /// New content enters the scheduling queue.
    virtual void enqueue(sched_item item) = 0;

    /// Round boundary: what a round does to the scheduler before it reads
    /// the queue. RichNote replenishes P(t) by ctx.energy_replenishment and
    /// expires stale items, Direct accrues its energy budget, and every
    /// scheduler notes ctx.round for the events it emits. Reads only
    /// ctx.now, ctx.round and ctx.energy_replenishment. With an empty queue
    /// this is the whole of the scheduler's round (broker::open_round).
    virtual void open_round(const round_context& ctx) { trace_round_ = ctx.round; }

    /// With an empty queue: whether open_round() is now a no-op, apart from
    /// the round it notes, and stays one however many idle rounds follow.
    /// broker::run_idle_rounds skips only the rounds of a steady scheduler.
    /// RichNote is steady once P(t) > kappa, Direct once its credit is at
    /// the cap; the fixed-level baselines always are.
    virtual bool idle_steady() const noexcept { return true; }

    /// Builds the delivery plan of the round open_round(ctx) opened. The
    /// returned reference points at a per-scheduler buffer reused across
    /// rounds (the zero-allocation hot path); it stays valid while the
    /// broker delivers — on_delivered()/on_transfer_failed() only touch the
    /// queue — but is invalidated by the next build_plan() call. Callers
    /// that need the plan beyond that must copy it.
    virtual const std::vector<planned_delivery>& build_plan(const round_context& ctx) = 0;

    /// One round's scheduling step: open_round(ctx), then build_plan(ctx).
    const std::vector<planned_delivery>& plan(const round_context& ctx) {
        open_round(ctx);
        return build_plan(ctx);
    }

    /// The broker delivered this item; drop it from the scheduling queue.
    /// `energy_spent` is the actual (estimated) energy charged to it.
    virtual void on_delivered(std::uint64_t item_id, double energy_spent) = 0;

    virtual std::size_t queue_size() const noexcept = 0;

    /// Bytes of pending presentations in the scheduling queue (sum of s(i)).
    virtual double queue_bytes() const noexcept = 0;

    /// May the broker deliver one more item costing `rho` joules this
    /// round? Baselines always say yes; RichNote gates on its energy
    /// credit P(t).
    virtual bool allow_delivery(double rho_joules) const noexcept {
        (void)rho_joules;
        return true;
    }

    /// Radio-session energy beyond the per-item rho estimates (ramp/tail
    /// not attributable to a single item). RichNote charges it against the
    /// energy virtual queue so P(t) tracks the true spend; baselines
    /// ignore it.
    virtual void on_session_overhead(double joules) { (void)joules; }

    /// Remaining energy credit P(t) for telemetry; 0 for policies that do
    /// not track energy (the fixed-level baselines).
    virtual double energy_credit_joules() const noexcept { return 0.0; }

    // ----- resilient delivery (fault tolerance) -----

    /// Installs the per-item retry budget (defaults: retry forever,
    /// immediately — the pre-fault behaviour).
    virtual void set_retry_policy(const retry_policy& policy) { (void)policy; }

    /// The broker's transfer of this item was cut mid-flight: bump its
    /// retry state (backoff) or dead-letter it when the budget is spent.
    /// Returns true when the item was dead-lettered (left the queue).
    virtual bool on_transfer_failed(std::uint64_t item_id, richnote::sim::sim_time now) {
        (void)item_id;
        (void)now;
        return false;
    }

    /// Serializable scheduler state for crash-restart recovery. One struct
    /// covers every implementation; fields irrelevant to a policy stay at
    /// their defaults.
    struct checkpoint_state {
        std::vector<sched_item> items; ///< scheduling queue in insertion order
        std::uint64_t retries = 0;
        std::uint64_t dead_lettered = 0;
        lyapunov_state lyapunov;       ///< richnote_scheduler only
        double energy_credit = 0.0;    ///< direct_scheduler only
        std::uint64_t dropped_low_utility = 0;
        std::uint64_t expired_items = 0;
        std::uint64_t deferred_item_rounds = 0;
    };

    virtual checkpoint_state checkpoint() const = 0;
    virtual void restore(const checkpoint_state& state) = 0;

    // ----- structured tracing (obs) -----

    /// Attaches a per-decision trace sink; the scheduler emits its MCKP
    /// candidate sets, chosen levels and retry transitions for `user` into
    /// it. Null detaches (the default — emission sites cost one branch).
    void bind_trace(richnote::obs::trace_sink* sink, std::uint32_t user) noexcept {
        trace_ = sink;
        trace_user_ = user;
    }

    /// Attaches the service-mode lifecycle tracker (obs/lifecycle.hpp); the
    /// scheduler reports first-plan and dead-letter stage transitions into
    /// it. Null detaches (the default — each site costs one branch).
    void bind_lifecycle(richnote::obs::lifecycle_tracker* lifecycle) noexcept {
        lifecycle_ = lifecycle;
    }

protected:
    richnote::obs::trace_sink* trace_ = nullptr;
    richnote::obs::lifecycle_tracker* lifecycle_ = nullptr;
    std::uint32_t trace_user_ = 0;
    /// Round of the most recent open_round() call, so events emitted
    /// outside planning (retry/backoff, dead-letter) land on the right round.
    std::uint64_t trace_round_ = 0;
};

/// Shared queue plumbing for all three schedulers.
class queue_scheduler_base : public scheduler {
public:
    void enqueue(sched_item item) override;
    void on_delivered(std::uint64_t item_id, double energy_spent) override;
    std::size_t queue_size() const noexcept override { return queue_.size(); }
    double queue_bytes() const noexcept override { return queued_bytes_; }

    /// Drops every queued item that arrived before `cutoff` (bounded
    /// staleness). Departure hooks fire with zero energy; the items'
    /// retry/backoff bookkeeping leaves the queue with them. Returns the
    /// number of items expired.
    std::size_t expire_older_than(richnote::sim::sim_time cutoff);

    void set_retry_policy(const retry_policy& policy) override { retry_ = policy; }
    bool on_transfer_failed(std::uint64_t item_id, richnote::sim::sim_time now) override;

    /// Transfers observed failing so far whose item stayed queued for retry.
    std::uint64_t retries() const noexcept { return retries_; }

    /// Items dropped after exhausting retry_policy::max_attempts.
    std::uint64_t dead_lettered() const noexcept { return dead_lettered_; }

    /// Read-only view of the scheduling queue (consistency checks / tests).
    const std::vector<sched_item>& queued_items() const noexcept { return queue_; }

    checkpoint_state checkpoint() const override;
    void restore(const checkpoint_state& state) override;

protected:
    /// Is the item allowed to be planned at `now` (not backing off)?
    bool retry_eligible(const sched_item& item, richnote::sim::sim_time now) const noexcept {
        return item.retry_not_before <= now;
    }

    /// Reports an item's first appearance in a delivery plan to the
    /// lifecycle tracker. Call at plan-entry construction, where the
    /// (mutable) item is in hand: plans are rebuilt every round, so the
    /// steady-state cost must be this one flag branch per selected entry —
    /// any end-of-plan reconciliation over ids pays O(queue) per round on
    /// a backlog, which measurably drags the round loop.
    void note_planned_item(sched_item& item, level_t level);

    /// Hooks for subclasses that track queue state (Lyapunov).
    virtual void on_enqueued(const sched_item& item) { (void)item; }
    virtual void on_departed(const sched_item& item, double energy_spent) {
        (void)item;
        (void)energy_spent;
    }

    /// Insertion-ordered (= arrival-ordered) queue. Id lookups linear-scan
    /// it (see find_position); queues are short, so that beats an id map.
    std::vector<sched_item> queue_;
    double queued_bytes_ = 0.0;
    retry_policy retry_;
    std::uint64_t retries_ = 0;
    std::uint64_t dead_lettered_ = 0;
    /// Bumped on every structural queue change (enqueue / removal /
    /// restore); lets subclasses cache queue-derived state (delivery
    /// orders) and refresh it only when stale.
    std::uint64_t queue_version_ = 0;
    /// Scratch arena: the delivery plan buffer every build_plan()
    /// fills and returns. Reused across rounds, so a steady-state round
    /// allocates nothing.
    std::vector<planned_delivery> plan_;

private:
    std::size_t find_position(std::uint64_t item_id) const noexcept;
    void remove_at(std::size_t pos, double energy_spent);
};

/// The paper's scheduler: Lyapunov-adjusted MCKP selection (Algorithm 2).
class richnote_scheduler final : public queue_scheduler_base {
public:
    struct params {
        lyapunov_params lyapunov;
        mckp_options mckp;
        /// Expected items per delivery batch for the rho estimate.
        double expected_batch_items = 8.0;
        /// Precision knob (§V-D1: "it is possible to achieve higher
        /// precision using RichNote by only delivering notifications with
        /// higher utility value"): items whose content utility U_c falls
        /// below this threshold are declined at enqueue time — never
        /// delivered, trading recall for precision. 0 disables the filter.
        double min_content_utility = 0.0;
        /// Aging factor (§III-A: content utility "may also depend on the
        /// recency of the content"): the effective content utility of a
        /// queued item decays as U_c * 2^(-age / half_life), so stale items
        /// lose priority for upgrades and eventually for delivery itself.
        /// 0 disables aging (the paper's evaluation setting).
        double utility_half_life_sec = 0.0;
        /// Bounded staleness: queued items older than this are expired at
        /// the next round boundary instead of lingering forever (an
        /// extension; the paper never drops). 0 disables expiry.
        double max_queue_age_sec = 0.0;
        /// WiFi deferral (extension in the spirit of the paper's prefetch
        /// citation [14]): on METERED links, items with content utility at
        /// or above this threshold are withheld — kept queued in the hope
        /// of an unmetered WiFi round where they can ship at a rich level
        /// for free — for at most wifi_deferral_max_wait_sec, after which
        /// they compete on cellular as usual. 0 disables deferral.
        double wifi_deferral_min_utility = 0.0;
        double wifi_deferral_max_wait_sec = 6.0 * 3600.0;
    };

    richnote_scheduler(params p, const energy::energy_model& energy);

    const char* name() const noexcept override { return "RichNote"; }
    void enqueue(sched_item item) override;
    void open_round(const round_context& ctx) override;
    bool idle_steady() const noexcept override;
    const std::vector<planned_delivery>& build_plan(const round_context& ctx) override;
    bool allow_delivery(double rho_joules) const noexcept override;
    void on_session_overhead(double joules) override;

    const lyapunov_controller& controller() const noexcept { return controller_; }

    double energy_credit_joules() const noexcept override {
        return controller_.energy_credit();
    }

    /// Items declined by the min_content_utility filter.
    std::uint64_t dropped_low_utility() const noexcept { return dropped_low_utility_; }

    /// Items dropped by the max_queue_age expiry.
    std::uint64_t expired_items() const noexcept { return expired_items_; }

    /// Item-rounds spent waiting for WiFi under the deferral policy.
    std::uint64_t deferred_item_rounds() const noexcept { return deferred_item_rounds_; }

    /// Per-path call counters of the incremental MCKP re-solver (reuse /
    /// replay / repair / cold mix; exported by bench/perf_round_loop).
    const mckp_incremental_scratch::stats& mckp_stats() const noexcept {
        return mckp_scratch_.counters;
    }

    checkpoint_state checkpoint() const override;
    void restore(const checkpoint_state& state) override;

protected:
    void on_enqueued(const sched_item& item) override;
    void on_departed(const sched_item& item, double energy_spent) override;

private:
    params params_;
    const energy::energy_model* energy_;
    lyapunov_controller controller_;
    std::uint64_t dropped_low_utility_ = 0;
    std::uint64_t expired_items_ = 0;
    std::uint64_t deferred_item_rounds_ = 0;
    /// Per-round scratch arenas (see build_plan()): the MCKP instance, the flat
    /// per-item/per-level rho cache (rho_offset_[i] indexes into rho_flat_),
    /// the aged content utilities, and the MCKP solver's own scratch. All
    /// grow-only: instance_ keeps one slot per historical queue-size peak,
    /// with slots beyond the current queue holding cleared (empty) menus
    /// that the solver treats as inert.
    std::vector<mckp_item> instance_;
    std::vector<double> rho_flat_;
    std::vector<std::size_t> rho_offset_;
    std::vector<double> aged_uc_;
    /// Incremental MCKP state: carries the previous round's solution and
    /// canonical upgrade schedule across rounds (see mckp_incremental_scratch).
    mckp_incremental_scratch mckp_scratch_;
};

/// The §III-C formulation solved directly, WITHOUT the Lyapunov
/// transformation: each round maximizes Eq. 1 utility subject to the data
/// budget (Eq. 2b) AND a hard per-round energy budget (Eq. 2c) via the
/// two-weight MCKP greedy. Energy credit accrues kappa per round (capped at
/// `energy_accrual_rounds` * kappa) and is spent on delivery. This is the
/// design the paper replaces with Lyapunov control; keeping it lets
/// bench/ablation_direct ablate that choice.
class direct_scheduler final : public queue_scheduler_base {
public:
    struct params {
        double kappa_joules_per_round = 3000.0; ///< Eq. 2c budget E(t) accrual
        double energy_accrual_rounds = 24.0;    ///< cap on banked energy credit
        mckp_options mckp;
        double expected_batch_items = 8.0;
    };

    direct_scheduler(params p, const energy::energy_model& energy);

    const char* name() const noexcept override { return "Direct"; }
    void open_round(const round_context& ctx) override;
    bool idle_steady() const noexcept override;
    const std::vector<planned_delivery>& build_plan(const round_context& ctx) override;
    bool allow_delivery(double rho_joules) const noexcept override;
    void on_session_overhead(double joules) override;

    double energy_credit() const noexcept { return energy_credit_; }
    double energy_credit_joules() const noexcept override { return energy_credit_; }

    checkpoint_state checkpoint() const override;
    void restore(const checkpoint_state& state) override;

protected:
    void on_departed(const sched_item& item, double energy_spent) override;

private:
    params params_;
    const energy::energy_model* energy_;
    double energy_credit_ = 0.0;
    /// Scratch arenas for the two-weight MCKP hot path (see
    /// richnote_scheduler's instance_ for the grow-only slot discipline).
    std::vector<mckp_item_2d> instance_;
    mckp_scratch mckp_scratch_;
};

/// Baseline plumbing: fixed presentation level, differing only in order.
class fixed_level_scheduler : public queue_scheduler_base {
public:
    /// `fixed_level` indexes the generated presentation set (1 = metadata
    /// only, 2 = +5 s, ... per §V-C); items with fewer levels clamp to
    /// their maximum.
    fixed_level_scheduler(level_t fixed_level, const energy::energy_model& energy);

    const std::vector<planned_delivery>& build_plan(const round_context& ctx) override;

    level_t fixed_level() const noexcept { return fixed_level_; }

protected:
    /// Queue positions in delivery order for this policy. Implementations
    /// return a reference to the cached order_ buffer, rebuilt only when
    /// the queue changed since the last call (order_version_ tracks
    /// queue_version_), so steady-state rounds skip the rebuild + sort.
    virtual const std::vector<std::size_t>& delivery_order() = 0;
    /// Whether an item that does not fit blocks the rest (FIFO) or is
    /// skipped (UTIL).
    virtual bool head_of_line_blocking() const noexcept = 0;

    /// Cached delivery order and the queue version it was built against.
    std::vector<std::size_t> order_;
    std::uint64_t order_version_ = ~std::uint64_t{0};

private:
    level_t fixed_level_;
    const energy::energy_model* energy_;
};

/// FIFO baseline: delivery-timestamp order, head-of-line blocking.
class fifo_scheduler final : public fixed_level_scheduler {
public:
    using fixed_level_scheduler::fixed_level_scheduler;
    const char* name() const noexcept override { return "FIFO"; }

protected:
    const std::vector<std::size_t>& delivery_order() override;
    bool head_of_line_blocking() const noexcept override { return true; }
};

/// UTIL baseline: highest utility first, skipping items that do not fit.
class util_scheduler final : public fixed_level_scheduler {
public:
    using fixed_level_scheduler::fixed_level_scheduler;
    const char* name() const noexcept override { return "UTIL"; }

protected:
    const std::vector<std::size_t>& delivery_order() override;
    bool head_of_line_blocking() const noexcept override { return false; }
};

} // namespace richnote::core
