#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using richnote::core::metrics_recorder;
using richnote::core::planned_delivery;
using richnote::core::run_totals;
using richnote::core::user_metrics;
using richnote::trace::notification;

notification make_note(std::uint64_t id, richnote::trace::user_id user, bool clicked,
                       double created_at = 0.0, double clicked_at = 1e9) {
    notification n;
    n.id = id;
    n.recipient = user;
    n.created_at = created_at;
    n.attended = clicked;
    n.clicked = clicked;
    n.clicked_at = clicked_at;
    return n;
}

planned_delivery make_delivery(const notification& n, richnote::core::level_t level,
                               double size, double utility) {
    planned_delivery d;
    d.item_id = n.id;
    d.level = level;
    d.size_bytes = size;
    d.utility = utility;
    d.note = n;
    return d;
}

TEST(metrics, arrivals_count_totals_and_clicks) {
    metrics_recorder m(2, 6);
    m.on_arrival(make_note(0, 0, true));
    m.on_arrival(make_note(1, 0, false));
    m.on_arrival(make_note(2, 1, true));
    EXPECT_EQ(m.totals().arrived, 3u);
    EXPECT_EQ(m.user(0).arrived, 2u);
    EXPECT_EQ(m.user(0).clicked_total, 1u);
    EXPECT_EQ(m.user(1).clicked_total, 1u);
}

TEST(metrics, delivery_ratio_and_bytes) {
    metrics_recorder m(1, 6);
    const auto n0 = make_note(0, 0, false);
    const auto n1 = make_note(1, 0, false);
    m.on_arrival(n0);
    m.on_arrival(n1);
    m.on_delivery(make_delivery(n0, 2, 1000.0, 0.3), 10.0, 5.0, true);
    const run_totals t = m.totals();
    EXPECT_DOUBLE_EQ(t.delivery_ratio(), 0.5);
    EXPECT_DOUBLE_EQ(t.bytes_delivered, 1000.0);
    EXPECT_DOUBLE_EQ(t.metered_bytes_delivered, 1000.0);
    EXPECT_DOUBLE_EQ(t.utility, 0.3);
    EXPECT_DOUBLE_EQ(t.energy_joules, 5.0);
}

TEST(metrics, unmetered_bytes_are_separated) {
    metrics_recorder m(1, 6);
    const auto n = make_note(0, 0, false);
    m.on_arrival(n);
    m.on_delivery(make_delivery(n, 1, 500.0, 0.1), 1.0, 1.0, false);
    EXPECT_DOUBLE_EQ(m.totals().bytes_delivered, 500.0);
    EXPECT_DOUBLE_EQ(m.totals().metered_bytes_delivered, 0.0);
}

TEST(metrics, precision_requires_delivery_before_click) {
    metrics_recorder m(1, 6);
    const auto early = make_note(0, 0, true, 0.0, 100.0);
    const auto late = make_note(1, 0, true, 0.0, 100.0);
    m.on_arrival(early);
    m.on_arrival(late);
    m.on_delivery(make_delivery(early, 1, 10, 0.1), 50.0, 0.0, true);  // before click
    m.on_delivery(make_delivery(late, 1, 10, 0.1), 200.0, 0.0, true);  // after click
    EXPECT_DOUBLE_EQ(m.totals().precision(), 0.5); // one of two deliveries before click
    EXPECT_DOUBLE_EQ(m.totals().recall(), 1.0);    // both clicked items delivered
}

TEST(metrics, recall_counts_clicked_deliveries_regardless_of_time) {
    metrics_recorder m(1, 6);
    const auto clicked = make_note(0, 0, true, 0.0, 10.0);
    const auto unclicked = make_note(1, 0, false);
    m.on_arrival(clicked);
    m.on_arrival(unclicked);
    m.on_delivery(make_delivery(clicked, 1, 10, 0.2), 50.0, 0.0, true); // after click
    const run_totals t = m.totals();
    EXPECT_DOUBLE_EQ(t.recall(), 1.0);
    EXPECT_DOUBLE_EQ(t.precision(), 0.0);
    EXPECT_DOUBLE_EQ(t.utility_clicked, 0.2);
}

TEST(metrics, queuing_delay_statistics) {
    metrics_recorder m(1, 6);
    const auto n0 = make_note(0, 0, false, 100.0);
    const auto n1 = make_note(1, 0, false, 100.0);
    m.on_arrival(n0);
    m.on_arrival(n1);
    m.on_delivery(make_delivery(n0, 1, 10, 0.1), 160.0, 0.0, true); // 60 s
    m.on_delivery(make_delivery(n1, 1, 10, 0.1), 280.0, 0.0, true); // 180 s
    EXPECT_DOUBLE_EQ(m.totals().mean_queuing_delay_sec(), 120.0);
}

TEST(metrics, level_mix_fractions_sum_to_one) {
    metrics_recorder m(1, 6);
    std::vector<notification> notes;
    for (std::uint64_t i = 0; i < 4; ++i) {
        notes.push_back(make_note(i, 0, false));
        m.on_arrival(notes.back());
    }
    m.on_delivery(make_delivery(notes[0], 1, 10, 0.1), 1.0, 0.0, true);
    m.on_delivery(make_delivery(notes[1], 6, 10, 0.1), 1.0, 0.0, true);
    m.on_delivery(make_delivery(notes[2], 6, 10, 0.1), 1.0, 0.0, true);
    const auto mix = m.level_mix(m.totals());
    ASSERT_EQ(mix.size(), 7u);
    EXPECT_DOUBLE_EQ(mix[0], 0.25); // one undelivered
    EXPECT_DOUBLE_EQ(mix[1], 0.25);
    EXPECT_DOUBLE_EQ(mix[6], 0.5);
    double total = 0;
    for (double f : mix) total += f;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(metrics, session_overhead_adds_energy_only) {
    metrics_recorder m(1, 6);
    m.on_session_overhead(0, 12.5);
    EXPECT_DOUBLE_EQ(m.totals().energy_joules, 12.5);
    EXPECT_DOUBLE_EQ(m.totals().bytes_delivered, 0.0);
}

TEST(metrics, user_categories_bucket_by_arrivals) {
    metrics_recorder m(4, 6);
    // Users 0..3 receive 1, 1, 3, 5 arrivals respectively.
    std::uint64_t id = 0;
    const std::vector<int> arrivals = {1, 1, 3, 5};
    for (richnote::trace::user_id u = 0; u < 4; ++u) {
        for (int k = 0; k < arrivals[u]; ++k) {
            const auto n = make_note(id++, u, false);
            m.on_arrival(n);
            m.on_delivery(make_delivery(n, 1, 10, 1.0), 1.0, 0.0, true);
        }
    }
    const auto rows = m.utility_by_user_category({1, 3});
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].users, 2u); // <=1 arrival
    EXPECT_EQ(rows[1].users, 1u); // 2..3
    EXPECT_EQ(rows[2].users, 1u); // >3
    EXPECT_DOUBLE_EQ(rows[0].mean_utility, 1.0);
    EXPECT_DOUBLE_EQ(rows[2].mean_utility, 5.0);
    EXPECT_EQ(rows[2].label, ">3");
}

TEST(metrics, average_utility_per_delivery) {
    metrics_recorder m(1, 6);
    const auto n0 = make_note(0, 0, false);
    const auto n1 = make_note(1, 0, false);
    m.on_arrival(n0);
    m.on_arrival(n1);
    m.on_delivery(make_delivery(n0, 1, 10, 0.2), 1.0, 0.0, true);
    m.on_delivery(make_delivery(n1, 1, 10, 0.6), 1.0, 0.0, true);
    EXPECT_DOUBLE_EQ(m.totals().average_utility_per_delivery(), 0.4);
}

TEST(metrics, empty_recorder_returns_zeroes) {
    metrics_recorder m(2, 6);
    const run_totals t = m.totals();
    EXPECT_DOUBLE_EQ(t.delivery_ratio(), 0.0);
    EXPECT_DOUBLE_EQ(t.precision(), 0.0);
    EXPECT_DOUBLE_EQ(t.recall(), 0.0);
    EXPECT_DOUBLE_EQ(t.mean_queuing_delay_sec(), 0.0);
    EXPECT_DOUBLE_EQ(t.average_utility_per_delivery(), 0.0);
    EXPECT_EQ(t.queuing_delay_sec.count(), 0u);
}

TEST(metrics, rejects_bad_construction_and_ranges) {
    EXPECT_THROW(metrics_recorder(0, 6), richnote::precondition_error);
    EXPECT_THROW(metrics_recorder(1, 0), richnote::precondition_error);
    metrics_recorder m(1, 6);
    EXPECT_THROW(m.on_arrival(make_note(0, 5, false)), richnote::precondition_error);
    const auto n = make_note(0, 0, false);
    EXPECT_THROW(m.on_delivery(make_delivery(n, 7, 10, 0.1), 1.0, 0.0, true),
                 richnote::precondition_error);
    EXPECT_THROW(m.utility_by_user_category({}), richnote::precondition_error);
    EXPECT_THROW(m.utility_by_user_category({5, 2}), richnote::precondition_error);
}

// ----- totals() against a per-field reference -----------------------------
//
// totals() fuses every fleet aggregate into one user-ordered walk. The
// reference below keeps the walks it replaced: one scalar loop per field,
// counts summed as doubles, the ratios formed from those sums. Every field
// must match bit for bit on seeded recorders that exercise arrivals, clicks,
// deliveries at every level, session overhead, each fault counter, and
// users with no samples at all.

std::string bits(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void expect_bits(const char* field, double got, double want, std::uint64_t seed) {
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << field << ": totals() " << bits(got) << " vs reference " << bits(want) << " (seed "
        << seed << ")";
}

double sum_field(const metrics_recorder& m, const std::function<double(const user_metrics&)>& f) {
    double total = 0.0;
    for (std::size_t u = 0; u < m.user_count(); ++u) total += f(m.user(u));
    return total;
}

metrics_recorder random_recorder(std::uint64_t seed) {
    richnote::rng gen(seed);
    const std::size_t users = 1 + gen.index(40);
    const std::size_t max_level = 1 + gen.index(6);
    metrics_recorder m(users, max_level);
    std::vector<bool> silent(users);
    for (std::size_t u = 0; u < users; ++u) silent[u] = gen.bernoulli(0.3);
    const std::size_t events = gen.poisson(300.0);
    for (std::uint64_t id = 0; id < events; ++id) {
        const auto u = static_cast<richnote::trace::user_id>(gen.index(users));
        if (silent[u]) continue;
        const double created = gen.uniform(0.0, 1e5);
        const auto n = make_note(id, u, gen.bernoulli(0.3), created,
                                 created + gen.uniform(0.0, 2e4));
        m.on_arrival(n);
        if (gen.bernoulli(0.7)) {
            const auto level = static_cast<richnote::core::level_t>(1 + gen.index(max_level));
            const auto d =
                make_delivery(n, level, gen.uniform(1e3, 1e6), gen.uniform(0.0, 1.0));
            const double moved = gen.bernoulli(0.2) ? gen.uniform(0.0, d.size_bytes) : -1.0;
            m.on_delivery(d, created + gen.uniform(0.0, 3e4), gen.uniform(0.0, 5.0),
                          gen.bernoulli(0.5), moved);
        }
        switch (gen.index(8)) {
            case 0: m.on_session_overhead(u, gen.uniform(0.0, 20.0)); break;
            case 1: m.on_fault(u); break;
            case 2: m.on_transfer_interrupted(u, gen.uniform(0.0, 5e5)); break;
            case 3: m.on_dead_letter(u); break;
            case 4: m.on_duplicate_suppressed(u); break;
            case 5: m.on_crash_restart(u); break;
            case 6: m.on_resume(u, gen.uniform(0.0, 5e5)); break;
            default: break;
        }
    }
    return m;
}

TEST(metrics, totals_match_per_field_reference_bitwise) {
    run_totals all; // coverage guard: every tally is reached by some seed
    bool silent_user = false;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const metrics_recorder m = random_recorder(seed);
        const run_totals t = m.totals();
        for (std::size_t u = 0; u < m.user_count(); ++u)
            silent_user = silent_user || (m.user(u).arrived == 0 && m.user(u).energy_joules == 0);
        all.delivered_before_click += t.delivered_before_click;
        all.metered_bytes_delivered += t.metered_bytes_delivered;
        all.faults.accumulate(t.faults);

        const double arrived =
            sum_field(m, [](const user_metrics& u) { return static_cast<double>(u.arrived); });
        const double delivered = sum_field(
            m, [](const user_metrics& u) { return static_cast<double>(u.delivered); });
        const double clicked = sum_field(
            m, [](const user_metrics& u) { return static_cast<double>(u.clicked_total); });
        const double hit = sum_field(
            m, [](const user_metrics& u) { return static_cast<double>(u.delivered_clicked); });
        const double before = sum_field(m, [](const user_metrics& u) {
            return static_cast<double>(u.delivered_before_click);
        });
        expect_bits("arrived", static_cast<double>(t.arrived), arrived, seed);
        expect_bits("delivered", static_cast<double>(t.delivered), delivered, seed);
        expect_bits("clicked_total", static_cast<double>(t.clicked_total), clicked, seed);
        expect_bits("delivered_clicked", static_cast<double>(t.delivered_clicked), hit, seed);
        expect_bits("delivered_before_click", static_cast<double>(t.delivered_before_click),
                    before, seed);
        expect_bits("bytes_delivered", t.bytes_delivered,
                    sum_field(m, [](const user_metrics& u) { return u.bytes_delivered; }), seed);
        expect_bits("metered_bytes_delivered", t.metered_bytes_delivered,
                    sum_field(m, [](const user_metrics& u) { return u.metered_bytes_delivered; }),
                    seed);
        const double utility =
            sum_field(m, [](const user_metrics& u) { return u.utility_delivered; });
        expect_bits("utility", t.utility, utility, seed);
        expect_bits("utility_clicked", t.utility_clicked,
                    sum_field(m, [](const user_metrics& u) { return u.utility_clicked; }), seed);
        expect_bits("energy_joules", t.energy_joules,
                    sum_field(m, [](const user_metrics& u) { return u.energy_joules; }), seed);

        expect_bits("delivery_ratio", t.delivery_ratio(),
                    arrived > 0 ? delivered / arrived : 0.0, seed);
        expect_bits("recall", t.recall(), clicked > 0 ? hit / clicked : 0.0, seed);
        expect_bits("precision", t.precision(), delivered > 0 ? before / delivered : 0.0, seed);
        expect_bits("average_utility_per_delivery", t.average_utility_per_delivery(),
                    delivered > 0 ? utility / delivered : 0.0, seed);

        richnote::running_stats delay;
        for (std::size_t u = 0; u < m.user_count(); ++u) delay.merge(m.user(u).queuing_delay_sec);
        EXPECT_EQ(t.queuing_delay_sec.count(), delay.count()) << "seed " << seed;
        expect_bits("delay.mean", t.queuing_delay_sec.mean(), delay.mean(), seed);
        expect_bits("delay.variance", t.queuing_delay_sec.variance(), delay.variance(), seed);
        expect_bits("delay.min", t.queuing_delay_sec.min(), delay.min(), seed);
        expect_bits("delay.max", t.queuing_delay_sec.max(), delay.max(), seed);
        expect_bits("delay.sum", t.queuing_delay_sec.sum(), delay.sum(), seed);
        expect_bits("mean_queuing_delay_sec", t.mean_queuing_delay_sec(), delay.mean(), seed);

        richnote::core::fault_counters faults;
        for (std::size_t u = 0; u < m.user_count(); ++u) faults.accumulate(m.user(u).faults);
        EXPECT_EQ(t.faults.faults_injected, faults.faults_injected) << "seed " << seed;
        EXPECT_EQ(t.faults.transfer_retries, faults.transfer_retries) << "seed " << seed;
        EXPECT_EQ(t.faults.dead_lettered, faults.dead_lettered) << "seed " << seed;
        EXPECT_EQ(t.faults.duplicates_suppressed, faults.duplicates_suppressed)
            << "seed " << seed;
        EXPECT_EQ(t.faults.crash_restarts, faults.crash_restarts) << "seed " << seed;
        expect_bits("partial_bytes", t.faults.partial_bytes, faults.partial_bytes, seed);
        expect_bits("resumed_bytes", t.faults.resumed_bytes, faults.resumed_bytes, seed);
    }
    EXPECT_TRUE(silent_user);
    EXPECT_GT(all.delivered_before_click, 0u);
    EXPECT_GT(all.metered_bytes_delivered, 0.0);
    EXPECT_GT(all.faults.faults_injected, 0u);
    EXPECT_GT(all.faults.transfer_retries, 0u);
    EXPECT_GT(all.faults.dead_lettered, 0u);
    EXPECT_GT(all.faults.duplicates_suppressed, 0u);
    EXPECT_GT(all.faults.crash_restarts, 0u);
    EXPECT_GT(all.faults.resumed_bytes, 0.0);
}

} // namespace
