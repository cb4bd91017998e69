#include "spans.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace richbench {

void span_log::write_ndjson(std::ostream& out, const std::string& pass) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        out << "{\"pass\":\"" << pass << "\",\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
    }
}

std::int64_t self_times::sum_ns() const {
    std::int64_t total = 0;
    for (const auto& [name, ns] : self_ns) total += ns;
    return total;
}

self_times compute_self_times(const std::vector<span>& spans, std::int32_t root) {
    if (root < 0 || static_cast<std::size_t>(root) >= spans.size())
        throw std::runtime_error("self times: bad root span");
    std::vector<std::vector<std::int32_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(
            static_cast<std::int32_t>(i));
    }
    self_times out;
    const span& r = spans[static_cast<std::size_t>(root)];
    out.wall_ns = r.end_ns - r.start_ns;
    std::vector<std::int32_t> stack{root};
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    while (!stack.empty()) {
        const std::int32_t id = stack.back();
        stack.pop_back();
        const span& s = spans[static_cast<std::size_t>(id)];
        // Union of the children's intervals, clipped to this span.
        cover.clear();
        for (const std::int32_t c : children[static_cast<std::size_t>(id)]) {
            const span& k = spans[static_cast<std::size_t>(c)];
            const std::int64_t lo = std::max(k.start_ns, s.start_ns);
            const std::int64_t hi = std::min(k.end_ns, s.end_ns);
            if (hi > lo) cover.emplace_back(lo, hi);
            stack.push_back(c);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0, run_lo = 0, run_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : cover) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open) covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open) covered += run_hi - run_lo;
        const std::int64_t self = (s.end_ns - s.start_ns) - covered;
        out.self_ns[s.name] += self;
        out.calls[s.name] += 1;
        if (id == root) out.unattributed_ns = self;
    }
    return out;
}

} // namespace richbench
