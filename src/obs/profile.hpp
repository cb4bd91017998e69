// Runtime sampling profiler for the hot paths (DESIGN.md §10).
//
// RICHNOTE_PROFILE_SCOPE(slot) drops an RAII timer into a hot function. The
// scopes are ALWAYS compiled — release binaries can profile themselves —
// and gated at runtime by profile_set_enabled():
//
//   idle (the default): the scope constructor is one relaxed atomic load
//   plus a predictable branch; no clock reads, no stores, no allocation.
//   This is what keeps the benchmarked round loop at its tracked
//   BENCH_perf.json throughput with the profiler compiled in.
//
//   enabled: every entry bumps a per-thread per-slot call counter, and one
//   in every profile_config::sample_every entries is timed (two
//   steady_clock reads) and recorded as a span into that thread's
//   lock-free SPSC ring buffer. Totals are estimated from the sample
//   (nanos = sampled_nanos * calls / sampled_calls), which keeps the
//   enabled overhead in the low single-digit percent range (measured
//   numbers in DESIGN.md §10).
//
// The exporter side drains the rings (profile_drain) into span records
// (slot, lane, start/end ns) that obs/span_export.hpp turns into Chrome
// trace-event JSON and collapsed-stack flamegraph text. Aggregate totals
// remain readable via profile_read() and exportable into a
// metrics_registry via profile_export().
//
// The slot set is a fixed enum rather than string keys so an enabled scope
// costs array indexing, never a hash lookup. Threads are assigned small
// dense "lane" indices; a lane freed by an exiting thread is reused by the
// next one, so the worker pools respawned every round do not grow the
// profiler's memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace richnote::obs {

enum class profile_slot : std::uint8_t {
    broker_round = 0,   ///< core::broker::run_round
    scheduler_plan,     ///< core::scheduler::plan (all policies)
    mckp_solve,         ///< core::select_presentations
    forest_predict,     ///< ml::flat_forest batch inference
    forest_fit,         ///< ml::random_forest::fit
    sim_tick,           ///< core::round_engine::run_round: every round, batch
                        ///< and serve (name kept so existing scrapes work)
    slot_count,
};

inline constexpr std::size_t profile_slot_count =
    static_cast<std::size_t>(profile_slot::slot_count);

/// Canonical metric name stem for a slot, e.g. "richnote.profile.mckp_solve".
const char* profile_slot_name(profile_slot slot) noexcept;

/// Short label for a slot (span/flamegraph frames), e.g. "mckp_solve".
const char* profile_slot_label(profile_slot slot) noexcept;

/// One timed scope entry, as drained from a thread's ring buffer.
struct span_record {
    std::uint64_t start_ns = 0; ///< steady_clock nanos at scope entry
    std::uint64_t end_ns = 0;   ///< steady_clock nanos at scope exit
    std::uint32_t lane = 0;     ///< dense thread lane index (reused across threads)
    profile_slot slot = profile_slot::broker_round;
};

struct profile_totals {
    std::uint64_t calls = 0;         ///< scope entries while enabled
    std::uint64_t sampled_calls = 0; ///< entries that were actually timed
    std::uint64_t sampled_nanos = 0; ///< wall nanos across the timed entries
    /// Estimated total wall nanos: sampled_nanos scaled by calls /
    /// sampled_calls (equal to sampled_nanos when every call is sampled).
    std::uint64_t nanos = 0;
};

struct profile_config {
    /// Time one in every `sample_every` scope entries per thread (1 = time
    /// every entry). Untimed entries still count calls.
    std::uint32_t sample_every = 16;
    /// Span-ring capacity per thread lane, rounded up to a power of two.
    /// When a ring fills between drains, new spans are dropped (counted).
    std::uint32_t ring_capacity = 1u << 13;
};

/// Installs a new sampling configuration. Call while profiling is disabled
/// and the profiled threads are quiescent: every lane samples its next
/// entry and then counts the new period; the ring capacity applies to lanes
/// created or reused afterwards.
void profile_configure(const profile_config& cfg);
profile_config profile_configuration();

/// Turns sampling on/off at runtime. Scopes already on the stack when the
/// flag flips finish under their entry-time decision.
void profile_set_enabled(bool enabled);

/// True when sampling is currently enabled (runtime state, not a build flag).
bool profile_enabled() noexcept;

/// Accumulated totals for one slot across all thread lanes.
profile_totals profile_read(profile_slot slot) noexcept;

/// Zeroes every slot's totals, discards buffered spans and restarts every
/// lane's sampling period at its next entry. Call while the profiled
/// threads are quiescent (benchmarks call this between phases).
void profile_reset() noexcept;

/// Drains buffered spans from every lane's ring into `out` (appended).
/// Single-consumer: have one thread drain at a time. Returns the number of
/// spans appended.
std::size_t profile_drain(std::vector<span_record>& out);

/// Spans dropped because a lane's ring was full between drains.
std::uint64_t profile_dropped() noexcept;

/// Exports every non-empty slot as <stem>.calls_total / <stem>.nanos_total
/// counters plus a <stem>.mean_us gauge, and the drop counter when nonzero.
void profile_export(metrics_registry& registry);

namespace detail {

/// The only cost of an idle scope: one relaxed load of this flag.
extern std::atomic_bool g_profile_on;

struct thread_state;

/// Registers (or reuses) this thread's lane and counts one entry for
/// `slot`. Sets `start_ns` to the entry timestamp when this entry was
/// chosen for timing, 0 otherwise. Returns the lane state for the exit.
thread_state& profile_enter(profile_slot slot, std::uint64_t& start_ns) noexcept;

/// Records the timed span / totals for an entry that had start_ns != 0.
void profile_leave(thread_state& state, profile_slot slot,
                   std::uint64_t start_ns) noexcept;

} // namespace detail

class profile_scope {
public:
    explicit profile_scope(profile_slot slot) noexcept {
        if (!detail::g_profile_on.load(std::memory_order_relaxed)) return;
        slot_ = slot;
        state_ = &detail::profile_enter(slot, start_);
    }
    profile_scope(const profile_scope&) = delete;
    profile_scope& operator=(const profile_scope&) = delete;
    ~profile_scope() {
        if (state_ != nullptr && start_ != 0)
            detail::profile_leave(*state_, slot_, start_);
    }

private:
    detail::thread_state* state_ = nullptr;
    std::uint64_t start_ = 0;
    profile_slot slot_ = profile_slot::broker_round;
};

#define RICHNOTE_PROFILE_CAT2(a, b) a##b
#define RICHNOTE_PROFILE_CAT(a, b) RICHNOTE_PROFILE_CAT2(a, b)
#define RICHNOTE_PROFILE_SCOPE(slot)                  \
    ::richnote::obs::profile_scope RICHNOTE_PROFILE_CAT( \
        richnote_profile_scope_, __LINE__) {          \
        slot                                          \
    }

} // namespace richnote::obs
