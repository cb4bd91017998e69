// In-memory span log for the traced run.
//
// A span is one timed call the benchmark makes into a layer of the program:
// name, start, end (steady_clock ns), the span that caused it and the
// request it belongs to. Spans stay in memory while a pass runs and are
// written out when the benchmark ends. A layer's self time is its span's
// duration minus the part of that interval its child spans cover; the
// root span's self time is the pass's unattributed residual, so the self
// times of one pass always sum to its wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace richbench {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1; ///< index into the log; -1 = root
    std::uint64_t request = 0;
};

class span_log {
public:
    /// A disabled log records nothing and returns -1 from open().
    explicit span_log(bool enabled) : enabled_(enabled) {}

    bool enabled() const noexcept { return enabled_; }

    std::int32_t open(const char* name, std::int32_t parent, std::uint64_t request = 0) {
        if (!enabled_) return -1;
        spans_.push_back({name, now_ns(), 0, parent, request});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }
    void close(std::int32_t id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    }
    /// Records an already-timed span (e.g. a run of calls timed as one).
    std::int32_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                     std::int32_t parent, std::uint64_t request = 0) {
        if (!enabled_) return -1;
        spans_.push_back({name, start_ns, end_ns, parent, request});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    const std::vector<span>& spans() const noexcept { return spans_; }

    /// Writes every span as one NDJSON line, tagged with `pass`.
    void write_ndjson(std::ostream& out, const std::string& pass) const;

private:
    bool enabled_;
    std::vector<span> spans_;
};

/// Self-time breakdown of the tree under `root`: total self ns per span
/// name (the root's own name carries the unattributed residual), plus the
/// root's wall time. Children are clipped to their parent's interval and
/// overlapping children are merged. For properly nested spans whose
/// siblings do not overlap (every in-process pass is single-threaded) the
/// self times sum to the root's duration exactly; callers check it.
struct self_times {
    std::map<std::string, std::int64_t> self_ns;
    std::map<std::string, std::uint64_t> calls;
    std::int64_t wall_ns = 0;
    std::int64_t unattributed_ns = 0;
    std::int64_t sum_ns() const;
};

self_times compute_self_times(const std::vector<span>& spans, std::int32_t root);

/// Helper to time one call into a layer when tracing is on.
class scoped_span {
public:
    scoped_span(span_log& log, const char* name, std::int32_t parent, std::uint64_t request = 0)
        : log_(log), id_(log.open(name, parent, request)) {}
    ~scoped_span() { log_.close(id_); }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_log& log_;
    std::int32_t id_;
};

} // namespace richbench
