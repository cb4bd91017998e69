#include "core/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/progress.hpp"

namespace richnote::core {

namespace {

double ratio(std::uint64_t num, std::uint64_t den) noexcept {
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // namespace

double user_metrics::delivery_ratio() const noexcept { return ratio(delivered, arrived); }

double run_totals::delivery_ratio() const noexcept { return ratio(delivered, arrived); }

double run_totals::recall() const noexcept { return ratio(delivered_clicked, clicked_total); }

double run_totals::precision() const noexcept {
    return ratio(delivered_before_click, delivered);
}

double run_totals::average_utility_per_delivery() const noexcept {
    return delivered ? utility / static_cast<double>(delivered) : 0.0;
}

metrics_recorder::metrics_recorder(std::size_t user_count, std::size_t max_level)
    : users_(user_count), max_level_(max_level) {
    RICHNOTE_REQUIRE(user_count > 0, "metrics need at least one user");
    RICHNOTE_REQUIRE(max_level >= 1, "metrics need at least one presentation level");
    for (auto& u : users_) u.level_counts.assign(max_level + 1, 0);
}

void metrics_recorder::on_arrival(const trace::notification& n) {
    RICHNOTE_REQUIRE(n.recipient < users_.size(), "recipient out of range");
    user_metrics& u = users_[n.recipient];
    ++u.arrived;
    if (n.clicked) ++u.clicked_total;
}

void metrics_recorder::on_delivery(const planned_delivery& d, richnote::sim::sim_time when,
                                   double energy_joules, bool metered, double bytes_moved) {
    RICHNOTE_REQUIRE(d.note.recipient < users_.size(), "recipient out of range");
    RICHNOTE_REQUIRE(d.level >= 1 && d.level <= max_level_,
                     "delivery level out of range");
    if (bytes_moved < 0.0) bytes_moved = d.size_bytes;
    user_metrics& u = users_[d.note.recipient];
    ++u.delivered;
    u.bytes_delivered += bytes_moved;
    if (metered) u.metered_bytes_delivered += bytes_moved;
    u.utility_delivered += d.utility;
    u.energy_joules += energy_joules;
    u.queuing_delay_sec.add(when - d.note.created_at);
    if (d.note.clicked) {
        u.utility_clicked += d.utility;
        ++u.delivered_clicked;
        // "precision as the fraction of delivered notifications (before the
        // recorded click time in the Spotify trace) that are clicked on".
        if (when <= d.note.clicked_at) ++u.delivered_before_click;
    }
    ++u.level_counts[d.level];
}

void metrics_recorder::on_session_overhead(trace::user_id user, double energy_joules) {
    RICHNOTE_REQUIRE(user < users_.size(), "user out of range");
    users_[user].energy_joules += energy_joules;
}

void metrics_recorder::on_fault(trace::user_id user) {
    RICHNOTE_REQUIRE(user < users_.size(), "user out of range");
    ++users_[user].faults.faults_injected;
}

void metrics_recorder::on_transfer_interrupted(trace::user_id user, double bytes_moved) {
    RICHNOTE_REQUIRE(user < users_.size(), "user out of range");
    RICHNOTE_REQUIRE(bytes_moved >= 0.0, "negative partial byte count");
    fault_counters& f = users_[user].faults;
    ++f.transfer_retries;
    f.partial_bytes += bytes_moved;
}

void metrics_recorder::on_dead_letter(trace::user_id user) {
    RICHNOTE_REQUIRE(user < users_.size(), "user out of range");
    ++users_[user].faults.dead_lettered;
}

void metrics_recorder::on_duplicate_suppressed(trace::user_id user) {
    RICHNOTE_REQUIRE(user < users_.size(), "user out of range");
    ++users_[user].faults.duplicates_suppressed;
}

void metrics_recorder::on_crash_restart(trace::user_id user) {
    RICHNOTE_REQUIRE(user < users_.size(), "user out of range");
    ++users_[user].faults.crash_restarts;
}

void metrics_recorder::on_resume(trace::user_id user, double bytes) {
    RICHNOTE_REQUIRE(user < users_.size(), "user out of range");
    RICHNOTE_REQUIRE(bytes >= 0.0, "negative resumed byte count");
    users_[user].faults.resumed_bytes += bytes;
}

const user_metrics& metrics_recorder::user(std::size_t u) const {
    RICHNOTE_REQUIRE(u < users_.size(), "user out of range");
    return users_[u];
}

run_totals metrics_recorder::totals() const noexcept {
    run_totals t;
    for (const auto& u : users_) {
        t.arrived += u.arrived;
        t.delivered += u.delivered;
        t.clicked_total += u.clicked_total;
        t.delivered_clicked += u.delivered_clicked;
        t.delivered_before_click += u.delivered_before_click;
        t.bytes_delivered += u.bytes_delivered;
        t.metered_bytes_delivered += u.metered_bytes_delivered;
        t.utility += u.utility_delivered;
        t.utility_clicked += u.utility_clicked;
        t.energy_joules += u.energy_joules;
        // merge() ignores an empty side; skipping the call keeps idle users cheap.
        if (u.queuing_delay_sec.count() != 0) t.queuing_delay_sec.merge(u.queuing_delay_sec);
        t.faults.accumulate(u.faults);
    }
    return t;
}

std::vector<double> metrics_recorder::level_mix(const run_totals& totals) const {
    std::vector<double> mix(max_level_ + 1, 0.0);
    const double arrived = static_cast<double>(totals.arrived);
    if (arrived <= 0) return mix;
    double delivered = 0;
    for (const auto& u : users_) {
        for (std::size_t level = 1; level <= max_level_; ++level) {
            mix[level] += static_cast<double>(u.level_counts[level]) / arrived;
            delivered += static_cast<double>(u.level_counts[level]);
        }
    }
    mix[0] = 1.0 - delivered / arrived; // slot 0: the never-delivered
                                        // fraction ("simply the missing
                                        // fraction in each stack").
    return mix;
}

std::vector<metrics_recorder::user_category_row> metrics_recorder::utility_by_user_category(
    const std::vector<std::uint64_t>& edges) const {
    RICHNOTE_REQUIRE(!edges.empty(), "need at least one category edge");
    RICHNOTE_REQUIRE(std::is_sorted(edges.begin(), edges.end()), "edges must be sorted");

    std::vector<richnote::running_stats> buckets(edges.size() + 1);
    for (const auto& u : users_) {
        std::size_t bucket = edges.size();
        for (std::size_t b = 0; b < edges.size(); ++b) {
            if (u.arrived <= edges[b]) {
                bucket = b;
                break;
            }
        }
        buckets[bucket].add(u.utility_delivered);
    }

    std::vector<user_category_row> rows;
    std::uint64_t lo = 0;
    for (std::size_t b = 0; b <= edges.size(); ++b) {
        user_category_row row;
        std::ostringstream label;
        if (b < edges.size()) {
            label << lo << "-" << edges[b];
            lo = edges[b] + 1;
        } else {
            label << ">" << edges.back();
        }
        row.label = label.str();
        row.users = buckets[b].count();
        row.mean_utility = buckets[b].mean();
        row.stddev_utility = buckets[b].stddev();
        rows.push_back(std::move(row));
    }
    return rows;
}

void export_metrics(const run_totals& t, richnote::obs::metrics_registry& registry) {
    registry.count("richnote.delivery.arrived_total", t.arrived);
    registry.count("richnote.delivery.delivered_total", t.delivered);
    registry.gauge_set("richnote.delivery.bytes_total", t.bytes_delivered);
    registry.gauge_set("richnote.delivery.metered_bytes_total", t.metered_bytes_delivered);
    registry.gauge_set("richnote.run.delivery_ratio", t.delivery_ratio());
    registry.gauge_set("richnote.run.precision", t.precision());
    registry.gauge_set("richnote.run.recall", t.recall());
    registry.gauge_set("richnote.run.utility_total", t.utility);
    registry.gauge_set("richnote.run.utility_clicked_total", t.utility_clicked);
    registry.gauge_set("richnote.run.energy_joules_total", t.energy_joules);
    registry.gauge_set("richnote.run.mean_queuing_delay_sec", t.mean_queuing_delay_sec());

    const fault_counters& f = t.faults;
    registry.count("richnote.faults.injected_total", f.faults_injected);
    registry.count("richnote.faults.retries_total", f.transfer_retries);
    registry.count("richnote.faults.dead_letters_total", f.dead_lettered);
    registry.count("richnote.faults.duplicates_suppressed_total", f.duplicates_suppressed);
    registry.count("richnote.faults.crash_restarts_total", f.crash_restarts);
    registry.gauge_set("richnote.faults.partial_bytes_total", f.partial_bytes);
    registry.gauge_set("richnote.faults.resumed_bytes_total", f.resumed_bytes);
}

void fill_progress(const run_totals& t, richnote::obs::progress_snapshot& snap) noexcept {
    snap.arrived_total = t.arrived;
    snap.delivered_total = t.delivered;
    snap.faults_injected = t.faults.faults_injected;
    snap.transfer_retries = t.faults.transfer_retries;
    snap.dead_lettered = t.faults.dead_lettered;
    snap.duplicates_suppressed = t.faults.duplicates_suppressed;
    snap.crash_restarts = t.faults.crash_restarts;
}

} // namespace richnote::core
