#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "core/presentation.hpp"
#include "energy/model.hpp"

namespace {

using richnote::core::audio_preview_generator;
using richnote::core::direct_scheduler;
using richnote::core::fifo_scheduler;
using richnote::core::level_t;
using richnote::core::planned_delivery;
using richnote::core::richnote_scheduler;
using richnote::core::round_context;
using richnote::core::sched_item;
using richnote::core::util_scheduler;
using richnote::sim::net_state;

const richnote::energy::energy_model g_energy;

sched_item make_item(std::uint64_t id, double content_utility,
                     double created_at = 0.0) {
    static const audio_preview_generator generator{audio_preview_generator::params{}};
    sched_item item;
    item.note.id = id;
    item.note.recipient = 0;
    item.note.created_at = created_at;
    item.content_utility = content_utility;
    item.presentations = generator.generate(276.0);
    item.arrived_at = created_at;
    return item;
}

round_context cell_ctx(double budget) {
    round_context ctx;
    ctx.data_budget_bytes = budget;
    ctx.network = net_state::cell;
    ctx.metered = true;
    ctx.link_capacity_bytes = 1e12;
    ctx.energy_replenishment = 3000.0;
    return ctx;
}

double plan_bytes(const std::vector<planned_delivery>& plan) {
    double total = 0;
    for (const auto& d : plan) total += d.size_bytes;
    return total;
}

// ------------------------------------------------------------- base ----

TEST(queue_base, enqueue_tracks_size_and_bytes) {
    fifo_scheduler s(3, g_energy);
    s.enqueue(make_item(1, 0.5));
    s.enqueue(make_item(2, 0.6));
    EXPECT_EQ(s.queue_size(), 2u);
    EXPECT_GT(s.queue_bytes(), 0.0);
}

TEST(queue_base, duplicate_ids_are_rejected) {
    fifo_scheduler s(3, g_energy);
    s.enqueue(make_item(7, 0.5));
    EXPECT_THROW(s.enqueue(make_item(7, 0.5)), richnote::precondition_error);
}

TEST(queue_base, delivering_unknown_item_throws) {
    fifo_scheduler s(3, g_energy);
    EXPECT_THROW(s.on_delivered(42, 0.0), richnote::precondition_error);
}

TEST(queue_base, delivery_removes_item_and_bytes) {
    fifo_scheduler s(3, g_energy);
    s.enqueue(make_item(1, 0.5));
    s.enqueue(make_item(2, 0.5));
    const double before = s.queue_bytes();
    s.on_delivered(1, 10.0);
    EXPECT_EQ(s.queue_size(), 1u);
    EXPECT_LT(s.queue_bytes(), before);
    // Remaining item still addressable.
    s.on_delivered(2, 10.0);
    EXPECT_EQ(s.queue_size(), 0u);
    EXPECT_NEAR(s.queue_bytes(), 0.0, 1e-9);
}

// ------------------------------------------------------------- fifo ----

TEST(fifo, delivers_in_arrival_order) {
    fifo_scheduler s(2, g_energy);
    s.enqueue(make_item(10, 0.1, 0.0));
    s.enqueue(make_item(11, 0.9, 1.0));
    s.enqueue(make_item(12, 0.5, 2.0));
    const auto plan = s.plan(cell_ctx(1e9));
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0].item_id, 10u);
    EXPECT_EQ(plan[1].item_id, 11u);
    EXPECT_EQ(plan[2].item_id, 12u);
}

TEST(fifo, uses_its_fixed_level) {
    fifo_scheduler s(3, g_energy); // metadata + 10 s
    s.enqueue(make_item(1, 1.0));
    const auto plan = s.plan(cell_ctx(1e9));
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].level, 3u);
    EXPECT_DOUBLE_EQ(plan[0].size_bytes, 200.0 + 10.0 * 20'000.0);
}

TEST(fifo, blocks_at_head_of_line) {
    fifo_scheduler s(3, g_energy); // each item costs ~200 KB
    s.enqueue(make_item(1, 0.1));
    s.enqueue(make_item(2, 0.9));
    // Budget for one item only: FIFO must deliver item 1 and stop, even
    // though item 2 has higher utility.
    const auto plan = s.plan(cell_ctx(250'000.0));
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].item_id, 1u);
}

TEST(fifo, empty_plan_when_disconnected_or_broke) {
    fifo_scheduler s(3, g_energy);
    s.enqueue(make_item(1, 0.5));
    round_context off = cell_ctx(1e9);
    off.network = net_state::off;
    EXPECT_TRUE(s.plan(off).empty());
    EXPECT_TRUE(s.plan(cell_ctx(0.0)).empty());
}

TEST(fifo, always_allows_delivery) {
    fifo_scheduler s(3, g_energy);
    EXPECT_TRUE(s.allow_delivery(1e12));
}

// ------------------------------------------------------------- util ----

TEST(util, delivers_highest_utility_first) {
    util_scheduler s(3, g_energy);
    s.enqueue(make_item(1, 0.2));
    s.enqueue(make_item(2, 0.9));
    s.enqueue(make_item(3, 0.5));
    const auto plan = s.plan(cell_ctx(1e9));
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0].item_id, 2u);
    EXPECT_EQ(plan[1].item_id, 3u);
    EXPECT_EQ(plan[2].item_id, 1u);
}

TEST(util, skips_items_that_do_not_fit) {
    util_scheduler s(3, g_energy);
    s.enqueue(make_item(1, 0.2));
    s.enqueue(make_item(2, 0.9));
    // Budget for one: UTIL takes the best one (unlike FIFO's head block).
    const auto plan = s.plan(cell_ctx(250'000.0));
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].item_id, 2u);
}

TEST(util, ties_break_by_id_for_determinism) {
    util_scheduler s(3, g_energy);
    s.enqueue(make_item(5, 0.5));
    s.enqueue(make_item(4, 0.5));
    const auto plan = s.plan(cell_ctx(1e9));
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].item_id, 4u);
}

TEST(fixed_level, rejects_level_zero) {
    EXPECT_THROW(fifo_scheduler(0, g_energy), richnote::precondition_error);
}

// --------------------------------------------------------- richnote ----

richnote_scheduler make_richnote() {
    richnote_scheduler::params p;
    return richnote_scheduler(p, g_energy);
}

TEST(richnote, plan_respects_budget) {
    auto s = make_richnote();
    for (std::uint64_t i = 0; i < 10; ++i) s.enqueue(make_item(i, 0.5));
    const auto plan = s.plan(cell_ctx(500'000.0));
    EXPECT_LE(plan_bytes(plan), 500'000.0 + 1e-6);
}

TEST(richnote, generous_budget_delivers_everything_at_max_level) {
    auto s = make_richnote();
    for (std::uint64_t i = 0; i < 5; ++i) s.enqueue(make_item(i, 0.5));
    const auto plan = s.plan(cell_ctx(1e9));
    ASSERT_EQ(plan.size(), 5u);
    for (const auto& d : plan) EXPECT_EQ(d.level, 6u);
}

TEST(richnote, tiny_budget_downgrades_to_metadata) {
    auto s = make_richnote();
    for (std::uint64_t i = 0; i < 5; ++i) s.enqueue(make_item(i, 0.5));
    // Budget fits all five metadata presentations but no previews.
    const auto plan = s.plan(cell_ctx(2'000.0));
    ASSERT_EQ(plan.size(), 5u);
    for (const auto& d : plan) EXPECT_EQ(d.level, 1u);
}

TEST(richnote, adapts_level_mix_to_intermediate_budget) {
    auto s = make_richnote();
    for (std::uint64_t i = 0; i < 10; ++i)
        s.enqueue(make_item(i, 0.1 + 0.08 * static_cast<double>(i)));
    // Room for all metas plus a couple of preview upgrades.
    const auto plan = s.plan(cell_ctx(300'000.0));
    ASSERT_EQ(plan.size(), 10u);
    level_t min_level = 99, max_level = 0;
    for (const auto& d : plan) {
        min_level = std::min(min_level, d.level);
        max_level = std::max(max_level, d.level);
    }
    EXPECT_EQ(min_level, 1u);
    EXPECT_GT(max_level, 1u); // mixed presentation levels: the adaptation
}

TEST(richnote, upgrades_go_to_higher_content_utility_items) {
    auto s = make_richnote();
    s.enqueue(make_item(1, 0.1));
    s.enqueue(make_item(2, 0.9));
    // All metas + one 5 s upgrade (100 KB).
    const auto plan = s.plan(cell_ctx(101'000.0));
    ASSERT_EQ(plan.size(), 2u);
    // Plan is sorted by true utility: item 2 first, and it got the upgrade.
    EXPECT_EQ(plan[0].item_id, 2u);
    EXPECT_GT(plan[0].level, plan[1].level);
}

TEST(richnote, plan_is_sorted_by_true_utility) {
    auto s = make_richnote();
    for (std::uint64_t i = 0; i < 6; ++i)
        s.enqueue(make_item(i, 0.15 * static_cast<double>(i + 1)));
    const auto plan = s.plan(cell_ctx(1e9));
    for (std::size_t i = 1; i < plan.size(); ++i)
        EXPECT_GE(plan[i - 1].utility, plan[i].utility);
}

TEST(richnote, energy_credit_gates_delivery) {
    richnote_scheduler::params p;
    p.lyapunov.initial_energy_credit = 0.0;
    richnote_scheduler s(p, g_energy);
    EXPECT_FALSE(s.allow_delivery(1.0));
    // A round replenishment restores the gate.
    s.enqueue(make_item(1, 0.5));
    (void)s.plan(cell_ctx(1e9)); // on_round(3000) runs inside plan
    EXPECT_TRUE(s.allow_delivery(1.0));
}

TEST(richnote, controller_tracks_queue_departures) {
    auto s = make_richnote();
    s.enqueue(make_item(1, 0.5));
    const double backlog = s.controller().queue_backlog();
    EXPECT_GT(backlog, 0.0);
    s.on_delivered(1, 100.0);
    EXPECT_DOUBLE_EQ(s.controller().queue_backlog(), 0.0);
}

TEST(richnote, wifi_ignores_data_budget) {
    auto s = make_richnote();
    for (std::uint64_t i = 0; i < 3; ++i) s.enqueue(make_item(i, 0.5));
    round_context wifi = cell_ctx(100.0); // near-zero metered budget
    wifi.network = net_state::wifi;
    wifi.metered = false;
    wifi.link_capacity_bytes = 1e9;
    const auto plan = s.plan(wifi);
    ASSERT_EQ(plan.size(), 3u);
    for (const auto& d : plan) EXPECT_EQ(d.level, 6u);
}

TEST(richnote, link_capacity_caps_unmetered_budget) {
    auto s = make_richnote();
    for (std::uint64_t i = 0; i < 3; ++i) s.enqueue(make_item(i, 0.5));
    round_context wifi = cell_ctx(1e12);
    wifi.network = net_state::wifi;
    wifi.metered = false;
    wifi.link_capacity_bytes = 2'000.0; // only metas fit
    const auto plan = s.plan(wifi);
    for (const auto& d : plan) EXPECT_EQ(d.level, 1u);
}

// ------------------------------------------------------ idle_steady ----
// broker::run_idle_rounds skips the rounds of an idle-steady scheduler, so
// idle_steady() may hold only once further idle open_round() calls change
// nothing.

TEST(idle_steady, fixed_level_baselines_always_are) {
    fifo_scheduler fifo(3, g_energy);
    util_scheduler util(3, g_energy);
    EXPECT_TRUE(fifo.idle_steady());
    EXPECT_TRUE(util.idle_steady());
    for (int r = 0; r < 5; ++r) {
        fifo.open_round(cell_ctx(0.0));
        util.open_round(cell_ctx(0.0));
    }
    EXPECT_TRUE(fifo.idle_steady());
    EXPECT_TRUE(util.idle_steady());
}

TEST(idle_steady, richnote_is_steady_once_its_credit_passes_kappa) {
    richnote_scheduler::params p;
    p.lyapunov.initial_energy_credit = 0.0;
    richnote_scheduler s(p, g_energy);
    const round_context ctx = cell_ctx(0.0); // e(t) = 3000 = kappa
    EXPECT_FALSE(s.idle_steady());
    s.open_round(ctx); // P = kappa: the next round still adds e(t)
    EXPECT_EQ(s.energy_credit_joules(), p.lyapunov.kappa);
    EXPECT_FALSE(s.idle_steady());
    s.open_round(ctx);
    ASSERT_TRUE(s.idle_steady());
    const double settled = s.energy_credit_joules();
    for (int r = 0; r < 50; ++r) s.open_round(ctx);
    EXPECT_TRUE(s.idle_steady());
    EXPECT_EQ(s.energy_credit_joules(), settled);
    // Spending below kappa makes the rounds count again.
    s.on_session_overhead(settled - p.lyapunov.kappa);
    EXPECT_FALSE(s.idle_steady());
}

TEST(idle_steady, direct_is_steady_exactly_at_its_credit_cap) {
    const direct_scheduler::params p;
    direct_scheduler s(p, g_energy);
    const double cap = p.kappa_joules_per_round * p.energy_accrual_rounds;
    int rounds = 0;
    for (; !s.idle_steady() && rounds < 100; ++rounds) {
        EXPECT_LT(s.energy_credit(), cap);
        s.open_round(cell_ctx(0.0));
    }
    EXPECT_EQ(rounds, 23); // it starts with one round's kappa banked
    EXPECT_EQ(s.energy_credit(), cap);
    for (int r = 0; r < 50; ++r) s.open_round(cell_ctx(0.0));
    EXPECT_TRUE(s.idle_steady());
    EXPECT_EQ(s.energy_credit(), cap);
    s.on_session_overhead(1.0);
    EXPECT_FALSE(s.idle_steady());
}

} // namespace
