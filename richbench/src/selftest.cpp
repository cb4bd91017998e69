// Self-tests of the benchmark's own machinery. run.py runs them before
// every measurement; any failure exits non-zero.
#include <chrono>
#include <cmath>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/wire.hpp"
#include "pacing.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "trace/generator.hpp"

namespace {

using namespace richbench;

int failures = 0;
int checks = 0;

void expect(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failures;
    std::cerr << "selftest FAILED: " << what << '\n';
}

template <class F>
bool throws(F&& f) {
    try {
        f();
    } catch (const std::runtime_error&) {
        return true;
    }
    return false;
}

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i)); // unsorted
    return v;
}

void test_percentile_selection() {
    const auto p99 = select_percentile(one_to(1000), 0.99);
    expect(p99.value == 990.0, "p99 of 1..1000 is the 990th value");
    expect(p99.samples == 1000, "p99 reports its sample count");
    expect(p99.beyond == 10, "p99 of 1000 samples keeps exactly 10 beyond");
    expect(throws([] { select_percentile(one_to(999), 0.99); }),
           "p99 of 999 samples is refused (only 9 beyond)");
    const auto p90 = select_percentile(one_to(100), 0.90);
    expect(p90.value == 90.0 && p90.beyond == 10, "p90 of 100 samples keeps 10 beyond");
    expect(throws([] { select_percentile(one_to(99), 0.90); }), "p90 of 99 samples is refused");
    const auto p50 = select_percentile(one_to(21), 0.50);
    expect(p50.value == 11.0 && p50.beyond == 10, "median of 21 samples");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void test_open_loop_from_due_time() {
    // Requests every 10 ms; the first one stalls 60 ms. The requests due
    // during the stall leave late, and their latency counts from when they
    // were due, not from when they left.
    const auto origin = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    const auto sent = run_paced(origin, 0, 1, 6, 100.0, [](std::size_t j) {
        if (j == 0) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    });
    expect(sent.size() == 6, "six paced requests");
    expect(std::abs(sent[0].due_s - 0.005) < 1e-12 && std::abs(sent[3].due_s - 0.035) < 1e-12,
           "request j is due at (j + 0.5) / rate");
    expect(sent[0].latency_ms() >= 60.0, "the stalled request's latency covers the stall");
    for (std::size_t j = 1; j < 5; ++j) {
        const paced_request& r = sent[j];
        expect(r.lag_ms() > 0.0, "a request due during the stall leaves late");
        expect(r.latency_ms() >= r.lag_ms() && r.latency_ms() >= r.service_ms(),
               "latency is timed from the due time");
        expect(std::abs(r.latency_ms() - (r.lag_ms() + r.service_ms())) < 1e-6,
               "latency = lag + service time");
    }
    expect(sent[1].latency_ms() > 40.0, "request 1 waited out most of the stall");
}

void test_self_times() {
    // root [0,100): A [10,40) with child A1 [15,20); B [50,70); C [65,90)
    // overlaps B; D [95,120) runs past the root.
    std::vector<span> s{{"root", 0, 100, -1, 0}, {"A", 10, 40, 0, 1}, {"A1", 15, 20, 1, 1},
                        {"B", 50, 70, 0, 2},     {"C", 65, 90, 0, 3}, {"D", 95, 120, 0, 4}};
    const self_times st = compute_self_times(s, 0);
    // root covered: [10,40) + [50,90) + [95,100) = 30 + 40 + 5 = 75.
    expect(st.unattributed_ns == 25, "root self time = wall minus union of children");
    expect(st.self_ns.at("A") == 25, "A self time excludes its child");
    expect(st.self_ns.at("A1") == 5, "leaf self time is its duration");
    expect(st.wall_ns == 100, "wall is the root's duration");

    // Properly nested, non-overlapping: self times sum to the wall exactly.
    std::vector<span> n{{"pass", 0, 1000, -1, 0}, {"round", 100, 600, 0, 0},
                        {"broker.admit", 120, 180, 1, 7}, {"broker.round_busy", 200, 260, 1, 7},
                        {"broker.round_idle", 300, 590, 1, 0}, {"round", 600, 990, 0, 1},
                        {"broker.round_idle", 610, 980, 5, 0}};
    const self_times nt = compute_self_times(n, 0);
    expect(nt.sum_ns() == nt.wall_ns, "nested self times sum to the wall");
    expect(nt.unattributed_ns == 110, "unattributed = wall minus rounds");
    expect(nt.self_ns.at("round") == 500 - 410 + 390 - 370, "round self time, two rounds");
    expect(nt.calls.at("broker.round_idle") == 2, "span calls counted per name");
    expect(throws([&] { compute_self_times(n, 9); }), "bad root refused");
}

void test_stream_generator() {
    richnote::trace::workload_params wp;
    wp.user_count = 40;
    const richnote::trace::workload world(wp, 7);
    stream_params p;
    p.fleet_users = 5000;
    p.posts = 60;
    p.lines_per_post = 50;
    p.lines_per_slot = 500;
    const request_stream a = make_stream(world.notifications(), p, 11);
    const request_stream b = make_stream(world.notifications(), p, 11);
    const request_stream c = make_stream(world.notifications(), p, 12);
    expect(a.bodies == b.bodies && a.digest() == b.digest(), "same seed, byte-identical stream");
    expect(a.digest() != c.digest(), "another seed, another stream");
    expect(a.lines == 3000 && a.bodies.size() == 60, "line and post counts");

    std::set<std::uint64_t> ids;
    std::uint64_t lines = 0, repeats = 0, ahead = 0;
    bool parsed_all = true, in_fleet = true, slotted = true;
    richnote::trace::notification n;
    for (std::size_t j = 0; j < a.bodies.size(); ++j) {
        const double slot = static_cast<double>(a.slot_of_post(j));
        for (const auto line : split_lines(a.bodies[j])) {
            ++lines;
            if (!richnote::core::parse_wire_line(line, n)) {
                parsed_all = false;
                continue;
            }
            in_fleet = in_fleet && n.recipient < p.fleet_users;
            if (!ids.insert(n.id).second) {
                ++repeats;
                continue;
            }
            if (n.created_at > slot * 3600.0) {
                ++ahead;
            } else {
                slotted = slotted && n.created_at > (slot - 1.0) * 3600.0;
            }
        }
    }
    expect(lines == a.lines, "every line counted");
    expect(parsed_all, "every rendered line parses");
    expect(in_fleet, "recipients stay inside the fleet");
    expect(slotted, "lines not stamped ahead are due at their slot's round");
    expect(repeats == a.duplicates && repeats >= 10 && repeats <= 60,
           "about 1% of lines repeat an id (" + std::to_string(repeats) + ")");
    expect(ahead == a.ahead && ahead >= 200 && ahead <= 400,
           "about 10% of lines are stamped ahead (" + std::to_string(ahead) + ")");
    expect(a.zipf_exponent > 0.0 && a.zipf_exponent == c.zipf_exponent,
           "recipient skew is fitted to the source trace, not the stream seed");

    // The fit recovers the exponent of an exact power law, in any order,
    // ignoring users with no notifications.
    std::vector<std::size_t> counts{0, 0};
    for (int r = 50; r >= 1; --r)
        counts.push_back(static_cast<std::size_t>(std::llround(1e6 * std::pow(r, -0.9))));
    expect(std::abs(fit_zipf_exponent(counts) - 0.9) < 1e-3, "Zipf fit recovers a power law's exponent");
    expect(throws([] { fit_zipf_exponent({5, 0}); }), "Zipf fit refuses fewer than two counts");
}

} // namespace

int main() try {
    test_percentile_selection();
    test_open_loop_from_due_time();
    test_self_times();
    test_stream_generator();
    std::cerr << "selftest: " << checks - failures << "/" << checks << " checks passed\n";
    return failures == 0 ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "selftest error: " << e.what() << '\n';
    return 1;
}
