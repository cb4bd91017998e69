// Experiment metrics (§V-C): delivery ratio, precision/recall against the
// trace's recorded clicks, delivered utility (overall and among clicked
// items), download energy and queuing delay, plus the presentation-level
// mix behind Figs. 5(b)/5(c) and the per-user aggregation behind Fig. 5(d).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/counters.hpp"
#include "core/scheduler.hpp"
#include "sim/time.hpp"
#include "trace/notification.hpp"

namespace richnote::obs {
class metrics_registry;
struct progress_snapshot;
}

namespace richnote::core {

/// Per-user tallies; aggregated across users for reporting.
struct user_metrics {
    std::uint64_t arrived = 0;
    std::uint64_t delivered = 0;
    std::uint64_t clicked_total = 0;      ///< clicked in the trace (recall denom.)
    std::uint64_t delivered_clicked = 0;  ///< clicked items that were delivered
    std::uint64_t delivered_before_click = 0; ///< ... before the recorded click time
    double bytes_delivered = 0.0;
    double metered_bytes_delivered = 0.0; ///< bytes charged to the data budget
    double utility_delivered = 0.0;       ///< sum of U(i, eta(i)) over deliveries
    double utility_clicked = 0.0;         ///< same, restricted to clicked items
    double energy_joules = 0.0;
    richnote::running_stats queuing_delay_sec;
    std::vector<std::uint64_t> level_counts; ///< deliveries per level (index 0 unused)

    /// Fault / recovery tallies (resilient delivery pipeline); the shared
    /// counter block also carried by telemetry samples and fault summaries.
    fault_counters faults;

    double delivery_ratio() const noexcept;
};

/// Fleet-wide sums of the per-user tallies (metrics_recorder::totals()).
/// Every §V-C figure, the /metrics export, the live /progress snapshot and
/// experiment_result read these fields, so each fact has one source.
struct run_totals {
    std::uint64_t arrived = 0;
    std::uint64_t delivered = 0;
    std::uint64_t clicked_total = 0;
    std::uint64_t delivered_clicked = 0;
    std::uint64_t delivered_before_click = 0;
    double bytes_delivered = 0.0;        ///< Fig. 3(b)
    double metered_bytes_delivered = 0.0;
    double utility = 0.0;                ///< Fig. 4(a)
    double utility_clicked = 0.0;        ///< Fig. 4(b)
    double energy_joules = 0.0;          ///< Fig. 4(c)
    richnote::running_stats queuing_delay_sec; ///< all users' delays merged
    fault_counters faults;

    double delivery_ratio() const noexcept; ///< Fig. 3(a)
    /// Fig. 3(c), §V-C: "the fraction of total clicked notifications that
    /// are delivered to the users" (no before-click qualifier).
    double recall() const noexcept; ///< delivered_clicked / clicked_total
    /// Fig. 3(d), §V-C: "the fraction of delivered notifications (before the
    /// recorded click time in the Spotify trace) that are clicked on by the
    /// users".
    double precision() const noexcept; ///< delivered_before_click / delivered
    double average_utility_per_delivery() const noexcept;
    /// Fig. 4(d).
    double mean_queuing_delay_sec() const noexcept { return queuing_delay_sec.mean(); }
};

/// All mutating calls touch only the recipient user's slot, so the
/// recorder is safe under user-sharded parallelism (each user driven by
/// exactly one worker thread); aggregates are read between rounds.
class metrics_recorder {
public:
    explicit metrics_recorder(std::size_t user_count, std::size_t max_level);

    /// A notification arrived at the broker.
    void on_arrival(const trace::notification& n);

    /// A planned entry was actually delivered at `when`; `energy_joules`
    /// is its share of the round's radio energy; `metered` says whether the
    /// bytes were charged against the cellular data budget. `bytes_moved`
    /// is how many bytes actually crossed the link in the completing
    /// attempt — less than d.size_bytes when a partial transfer resumed
    /// from its high-water mark; negative (the default) means the full
    /// planned size.
    void on_delivery(const planned_delivery& d, richnote::sim::sim_time when,
                     double energy_joules, bool metered, double bytes_moved = -1.0);

    /// Extra radio-session energy not attributable to a single item.
    void on_session_overhead(trace::user_id user, double energy_joules);

    // ----- fault / recovery events (surfaced from the broker) -----

    /// An injected environment fault (blackout / brownout) hit this round.
    void on_fault(trace::user_id user);

    /// A transfer was cut mid-flight after moving `bytes_moved` bytes; the
    /// item stays queued for retry.
    void on_transfer_interrupted(trace::user_id user, double bytes_moved);

    /// An item exhausted its retry budget and was dead-lettered.
    void on_dead_letter(trace::user_id user);

    /// A replayed publish (duplicate notification id) was suppressed.
    void on_duplicate_suppressed(trace::user_id user);

    /// The user's broker crashed and restarted from its checkpoint.
    void on_crash_restart(trace::user_id user);

    /// A completing transfer salvaged `bytes` previously moved by
    /// interrupted attempts (resume from the high-water mark).
    void on_resume(trace::user_id user, double bytes);

    const user_metrics& user(std::size_t u) const;
    std::size_t user_count() const noexcept { return users_.size(); }
    std::size_t max_level() const noexcept { return max_level_; }

    /// Every fleet-wide §V-C aggregate from one user-ordered walk. Callers
    /// that publish or report read it once and take each figure from its
    /// fields.
    run_totals totals() const noexcept;

    // Single-aggregate conveniences kept for callers outside src/ (the
    // richbench passes). Each is a whole totals() walk: code reading more
    // than one aggregate reads totals() once instead.
    double delivery_ratio() const noexcept { return totals().delivery_ratio(); }
    double total_bytes_delivered() const noexcept { return totals().bytes_delivered; }
    double recall() const noexcept { return totals().recall(); }
    double precision() const noexcept { return totals().precision(); }
    double total_utility() const noexcept { return totals().utility; }
    double total_utility_clicked() const noexcept { return totals().utility_clicked; }
    double total_energy_joules() const noexcept { return totals().energy_joules; }
    double mean_queuing_delay_sec() const noexcept {
        return totals().mean_queuing_delay_sec();
    }
    fault_counters fault_summary() const noexcept { return totals().faults; }

    /// Fraction of deliveries at each level 1..max (Figs. 5(b)/(c));
    /// index 0 counts items never delivered ("missing fraction").
    /// `totals` is this recorder's totals() (it supplies the arrivals).
    std::vector<double> level_mix(const run_totals& totals) const;

    /// Fig. 5(d): bucket users by arrived-item count (edges are bucket upper
    /// bounds; the last is open-ended) and report mean/stddev of per-user
    /// delivered utility per bucket.
    struct user_category_row {
        std::string label;
        std::size_t users = 0;
        double mean_utility = 0.0;
        double stddev_utility = 0.0;
    };
    std::vector<user_category_row> utility_by_user_category(
        const std::vector<std::uint64_t>& edges) const;

private:
    std::vector<user_metrics> users_;
    std::size_t max_level_;
};

/// Exports a run's aggregates into the obs registry under the canonical
/// richnote.* metric names (DESIGN.md §9) — the one place the recorder's
/// tallies and the fault counter block become named series.
void export_metrics(const run_totals& totals, richnote::obs::metrics_registry& registry);

/// Copies the delivery and fault tallies into a live progress snapshot —
/// the one place /progress gets them, in simulate and serve alike.
void fill_progress(const run_totals& totals, richnote::obs::progress_snapshot& snap) noexcept;

} // namespace richnote::core
