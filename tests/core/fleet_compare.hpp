// Bit-for-bit comparison of brokers and per-user metrics, shared by the
// tests that hold a deferring round engine to a reference sweep and the
// idle-round prefix to full rounds.
#pragma once

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/broker.hpp"
#include "core/metrics.hpp"

namespace richnote::test {

/// Field-by-field, bit-for-bit comparison of two brokers' full mutable
/// state. Steps the checkpoints' batteries.
inline void expect_same_checkpoint(const core::broker_checkpoint& ca,
                                   const core::broker_checkpoint& cb) {
    EXPECT_EQ(ca.round_index, cb.round_index);
    EXPECT_EQ(ca.data_budget, cb.data_budget);
    EXPECT_EQ(ca.failed_transfers, cb.failed_transfers);
    EXPECT_EQ(ca.duplicates_suppressed, cb.duplicates_suppressed);
    EXPECT_EQ(ca.crash_restarts, cb.crash_restarts);
    EXPECT_EQ(ca.seen_ids, cb.seen_ids);
    EXPECT_EQ(ca.partial_progress, cb.partial_progress);
    ASSERT_EQ(ca.pending_feedback.size(), cb.pending_feedback.size());
    for (std::size_t i = 0; i < ca.pending_feedback.size(); ++i)
        EXPECT_EQ(ca.pending_feedback[i].id, cb.pending_feedback[i].id);

    // Random streams: equal state <=> equal future draws.
    richnote::rng ra = ca.env_rng;
    richnote::rng rb = cb.env_rng;
    for (int i = 0; i < 4; ++i) EXPECT_EQ(ra(), rb());
    // Network chain: same state now, same trajectory under the same draws.
    EXPECT_EQ(ca.network.state(), cb.network.state());
    richnote::sim::markov_network_model na = ca.network;
    richnote::sim::markov_network_model nb = cb.network;
    richnote::rng drive_a(99);
    richnote::rng drive_b(99);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(na.step(drive_a), nb.step(drive_b));
    // Battery: same level and charging state, and the same next steps.
    EXPECT_EQ(ca.battery->level(), cb.battery->level());
    EXPECT_EQ(ca.battery->charging(), cb.battery->charging());
    for (int i = 0; i < 4; ++i) {
        const double t = 3600.0 * (1000 + i);
        ca.battery->step(t, 3600.0, 0.0);
        cb.battery->step(t, 3600.0, 0.0);
        EXPECT_EQ(ca.battery->level(), cb.battery->level());
    }

    // Scheduler: Lyapunov Q/P, counters and the queue itself.
    EXPECT_EQ(ca.sched.lyapunov.queue_backlog, cb.sched.lyapunov.queue_backlog);
    EXPECT_EQ(ca.sched.lyapunov.energy_credit, cb.sched.lyapunov.energy_credit);
    EXPECT_EQ(ca.sched.energy_credit, cb.sched.energy_credit);
    EXPECT_EQ(ca.sched.retries, cb.sched.retries);
    EXPECT_EQ(ca.sched.dead_lettered, cb.sched.dead_lettered);
    EXPECT_EQ(ca.sched.dropped_low_utility, cb.sched.dropped_low_utility);
    EXPECT_EQ(ca.sched.expired_items, cb.sched.expired_items);
    EXPECT_EQ(ca.sched.deferred_item_rounds, cb.sched.deferred_item_rounds);
    ASSERT_EQ(ca.sched.items.size(), cb.sched.items.size());
    for (std::size_t i = 0; i < ca.sched.items.size(); ++i) {
        EXPECT_EQ(ca.sched.items[i].note.id, cb.sched.items[i].note.id);
        EXPECT_EQ(ca.sched.items[i].content_utility, cb.sched.items[i].content_utility);
        EXPECT_EQ(ca.sched.items[i].arrived_at, cb.sched.items[i].arrived_at);
        EXPECT_EQ(ca.sched.items[i].failed_attempts, cb.sched.items[i].failed_attempts);
        EXPECT_EQ(ca.sched.items[i].retry_not_before, cb.sched.items[i].retry_not_before);
    }
}

/// expect_same_checkpoint over two live brokers.
inline void expect_same_broker(const core::broker& a, const core::broker& b) {
    expect_same_checkpoint(a.checkpoint(), b.checkpoint());
}

inline void expect_same_user_metrics(const core::user_metrics& a,
                                     const core::user_metrics& b) {
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.clicked_total, b.clicked_total);
    EXPECT_EQ(a.delivered_clicked, b.delivered_clicked);
    EXPECT_EQ(a.delivered_before_click, b.delivered_before_click);
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
    EXPECT_EQ(a.metered_bytes_delivered, b.metered_bytes_delivered);
    EXPECT_EQ(a.utility_delivered, b.utility_delivered);
    EXPECT_EQ(a.utility_clicked, b.utility_clicked);
    EXPECT_EQ(a.energy_joules, b.energy_joules);
    EXPECT_EQ(a.queuing_delay_sec.count(), b.queuing_delay_sec.count());
    EXPECT_EQ(a.queuing_delay_sec.mean(), b.queuing_delay_sec.mean());
    EXPECT_EQ(a.queuing_delay_sec.variance(), b.queuing_delay_sec.variance());
    EXPECT_EQ(a.level_counts, b.level_counts);
    EXPECT_EQ(a.faults.transfer_retries, b.faults.transfer_retries);
    EXPECT_EQ(a.faults.dead_lettered, b.faults.dead_lettered);
    EXPECT_EQ(a.faults.duplicates_suppressed, b.faults.duplicates_suppressed);
    EXPECT_EQ(a.faults.partial_bytes, b.faults.partial_bytes);
    EXPECT_EQ(a.faults.resumed_bytes, b.faults.resumed_bytes);
}

} // namespace richnote::test
