#include "obs/profile.hpp"

#include <array>
#include <chrono>
#include <memory>
#include <mutex>

namespace richnote::obs {

namespace detail {
std::atomic_bool g_profile_on{false};
} // namespace detail

namespace {

const char* const slot_names[profile_slot_count] = {
    "richnote.profile.broker_round",  "richnote.profile.scheduler_plan",
    "richnote.profile.mckp_solve",    "richnote.profile.forest_predict",
    "richnote.profile.forest_fit",    "richnote.profile.sim_tick",
};

const char* const slot_labels[profile_slot_count] = {
    "broker_round", "scheduler_plan", "mckp_solve",
    "forest_predict", "forest_fit", "sim_tick",
};

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// Sampling period, read only when a lane's countdown reloads.
std::atomic<std::uint32_t> g_sample_every{16};
std::atomic<std::uint32_t> g_ring_capacity{1u << 13};

std::uint32_t round_up_pow2(std::uint32_t v) noexcept {
    std::uint32_t p = 1;
    while (p < v && p < (1u << 30)) p <<= 1;
    return p;
}

/// Bounded single-producer single-consumer span queue. The owning thread
/// pushes; the drainer pops. head/tail are monotonically increasing, so
/// "full" is head - tail == capacity and no index ever wraps ambiguously.
struct span_ring {
    explicit span_ring(std::uint32_t capacity)
        : buf(round_up_pow2(capacity)), mask(static_cast<std::uint32_t>(buf.size()) - 1) {}

    std::vector<span_record> buf;
    std::uint32_t mask;
    std::atomic<std::uint64_t> head{0}; ///< written by the producer only
    std::atomic<std::uint64_t> tail{0}; ///< written by the consumer only

    bool push(const span_record& r) noexcept {
        const std::uint64_t h = head.load(std::memory_order_relaxed);
        if (h - tail.load(std::memory_order_acquire) > mask) return false;
        buf[h & mask] = r;
        head.store(h + 1, std::memory_order_release);
        return true;
    }

    std::size_t drain(std::vector<span_record>& out) {
        const std::uint64_t h = head.load(std::memory_order_acquire);
        std::uint64_t t = tail.load(std::memory_order_relaxed);
        const auto n = static_cast<std::size_t>(h - t);
        for (; t < h; ++t) out.push_back(buf[t & mask]);
        tail.store(t, std::memory_order_release);
        return n;
    }
};

/// Sole-writer counter: only the owning thread increments, drainers read
/// concurrently, so a relaxed load/store pair (no RMW) is race-free.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t delta = 1) noexcept {
    c.store(c.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

} // namespace

namespace detail {

struct thread_state {
    explicit thread_state(std::uint32_t lane_index, std::uint32_t ring_capacity)
        : lane(lane_index), ring(std::make_unique<span_ring>(ring_capacity)) {}

    std::uint32_t lane;
    /// Entries until the next timed sample. Only the owning thread counts
    /// it down; profile_reset()/profile_configure() rewind it to 1 while the
    /// profiled threads are quiescent, hence relaxed atomic loads/stores.
    std::atomic<std::uint32_t> countdown{1};
    std::unique_ptr<span_ring> ring; ///< replaced on reacquire if reconfigured
    std::array<std::atomic<std::uint64_t>, profile_slot_count> calls{};
    std::array<std::atomic<std::uint64_t>, profile_slot_count> sampled_calls{};
    std::array<std::atomic<std::uint64_t>, profile_slot_count> sampled_nanos{};
    std::atomic<std::uint64_t> dropped{0};
    bool in_use = false; ///< guarded by the lane registry mutex
};

namespace {

/// All lanes ever created, never destroyed: a lane released by an exiting
/// thread is handed to the next thread that needs one, so the per-round
/// worker pools reuse a bounded set instead of growing the registry.
struct lane_registry {
    std::mutex mutex;
    std::vector<std::unique_ptr<thread_state>> lanes;

    thread_state* acquire() {
        std::lock_guard<std::mutex> lock(mutex);
        const std::uint32_t capacity =
            round_up_pow2(g_ring_capacity.load(std::memory_order_relaxed));
        for (auto& lane : lanes) {
            if (!lane->in_use) {
                lane->in_use = true;
                lane->countdown.store(1, std::memory_order_relaxed);
                // Honour a reconfigured ring size on reuse; undrained spans
                // from the previous owner are stale by then (configure is
                // documented quiescent-only).
                if (lane->ring->buf.size() != capacity)
                    lane->ring = std::make_unique<span_ring>(capacity);
                return lane.get();
            }
        }
        lanes.push_back(std::make_unique<thread_state>(
            static_cast<std::uint32_t>(lanes.size()),
            g_ring_capacity.load(std::memory_order_relaxed)));
        lanes.back()->in_use = true;
        return lanes.back().get();
    }

    void release(thread_state* state) {
        std::lock_guard<std::mutex> lock(mutex);
        state->in_use = false;
    }
};

lane_registry& lanes() {
    static lane_registry instance;
    return instance;
}

/// Thread-local handle: releases the lane back to the registry when the
/// thread exits (totals and undrained spans survive in the registry).
struct tls_lane {
    thread_state* state = nullptr;
    ~tls_lane() {
        if (state != nullptr) lanes().release(state);
    }
};

thread_local tls_lane t_lane;

} // namespace

thread_state& profile_enter(profile_slot slot, std::uint64_t& start_ns) noexcept {
    if (t_lane.state == nullptr) t_lane.state = lanes().acquire();
    thread_state& state = *t_lane.state;
    bump(state.calls[static_cast<std::size_t>(slot)]);
    const std::uint32_t left = state.countdown.load(std::memory_order_relaxed) - 1;
    if (left == 0) {
        state.countdown.store(g_sample_every.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
        start_ns = now_ns();
    } else {
        state.countdown.store(left, std::memory_order_relaxed);
        start_ns = 0;
    }
    return state;
}

void profile_leave(thread_state& state, profile_slot slot,
                   std::uint64_t start_ns) noexcept {
    const std::uint64_t end_ns = now_ns();
    const auto s = static_cast<std::size_t>(slot);
    bump(state.sampled_calls[s]);
    bump(state.sampled_nanos[s], end_ns - start_ns);
    span_record span;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.lane = state.lane;
    span.slot = slot;
    if (!state.ring->push(span)) bump(state.dropped);
}

} // namespace detail

const char* profile_slot_name(profile_slot slot) noexcept {
    return slot_names[static_cast<std::size_t>(slot)];
}

const char* profile_slot_label(profile_slot slot) noexcept {
    return slot_labels[static_cast<std::size_t>(slot)];
}

void profile_configure(const profile_config& cfg) {
    g_sample_every.store(cfg.sample_every == 0 ? 1 : cfg.sample_every,
                         std::memory_order_relaxed);
    g_ring_capacity.store(cfg.ring_capacity == 0 ? 1 : cfg.ring_capacity,
                          std::memory_order_relaxed);
    // Every lane samples its next entry and then counts the new period,
    // instead of finishing the old period's countdown.
    auto& registry = detail::lanes();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (auto& lane : registry.lanes) lane->countdown.store(1, std::memory_order_relaxed);
}

profile_config profile_configuration() {
    profile_config cfg;
    cfg.sample_every = g_sample_every.load(std::memory_order_relaxed);
    cfg.ring_capacity = g_ring_capacity.load(std::memory_order_relaxed);
    return cfg;
}

void profile_set_enabled(bool enabled) {
    detail::g_profile_on.store(enabled, std::memory_order_relaxed);
}

bool profile_enabled() noexcept {
    return detail::g_profile_on.load(std::memory_order_relaxed);
}

profile_totals profile_read(profile_slot slot) noexcept {
    const auto s = static_cast<std::size_t>(slot);
    profile_totals totals;
    auto& registry = detail::lanes();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto& lane : registry.lanes) {
        totals.calls += lane->calls[s].load(std::memory_order_relaxed);
        totals.sampled_calls += lane->sampled_calls[s].load(std::memory_order_relaxed);
        totals.sampled_nanos += lane->sampled_nanos[s].load(std::memory_order_relaxed);
    }
    if (totals.sampled_calls > 0) {
        totals.nanos = static_cast<std::uint64_t>(
            static_cast<double>(totals.sampled_nanos) *
            static_cast<double>(totals.calls) /
            static_cast<double>(totals.sampled_calls));
    }
    return totals;
}

void profile_reset() noexcept {
    auto& registry = detail::lanes();
    std::lock_guard<std::mutex> lock(registry.mutex);
    std::vector<span_record> discard;
    for (auto& lane : registry.lanes) {
        for (std::size_t s = 0; s < profile_slot_count; ++s) {
            lane->calls[s].store(0, std::memory_order_relaxed);
            lane->sampled_calls[s].store(0, std::memory_order_relaxed);
            lane->sampled_nanos[s].store(0, std::memory_order_relaxed);
        }
        lane->dropped.store(0, std::memory_order_relaxed);
        lane->countdown.store(1, std::memory_order_relaxed);
        discard.clear();
        lane->ring->drain(discard);
    }
}

std::size_t profile_drain(std::vector<span_record>& out) {
    auto& registry = detail::lanes();
    std::lock_guard<std::mutex> lock(registry.mutex);
    std::size_t total = 0;
    for (auto& lane : registry.lanes) total += lane->ring->drain(out);
    return total;
}

std::uint64_t profile_dropped() noexcept {
    auto& registry = detail::lanes();
    std::lock_guard<std::mutex> lock(registry.mutex);
    std::uint64_t total = 0;
    for (const auto& lane : registry.lanes)
        total += lane->dropped.load(std::memory_order_relaxed);
    return total;
}

void profile_export(metrics_registry& registry) {
    for (std::size_t i = 0; i < profile_slot_count; ++i) {
        const auto totals = profile_read(static_cast<profile_slot>(i));
        if (totals.calls == 0) continue;
        const std::string stem = slot_names[i];
        registry.count(stem + ".calls_total", totals.calls);
        registry.count(stem + ".nanos_total", totals.nanos);
        registry.count(stem + ".sampled_calls_total", totals.sampled_calls);
        registry.gauge_set(stem + ".mean_us",
                           totals.sampled_calls > 0
                               ? static_cast<double>(totals.sampled_nanos) /
                                     static_cast<double>(totals.sampled_calls) / 1000.0
                               : 0.0);
    }
    if (const std::uint64_t dropped = profile_dropped(); dropped > 0) {
        registry.count("richnote.profile.dropped_spans_total", dropped);
    }
}

} // namespace richnote::obs
