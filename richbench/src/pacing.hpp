// Open-loop pacing: requests leave on a fixed schedule whatever the server
// does, and each is timed from when it was due.
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

namespace richbench {

/// One paced request, in seconds since the schedule's origin.
struct paced_request {
    double due_s = 0.0;
    double sent_s = 0.0;
    double done_s = 0.0;
    double latency_ms() const { return (done_s - due_s) * 1e3; } ///< charged from the due time
    double lag_ms() const { return (sent_s - due_s) * 1e3; }     ///< how late the sender ran
    double service_ms() const { return (done_s - sent_s) * 1e3; }
};

/// How long before a request's due time its sender stops sleeping and spins.
inline constexpr std::chrono::milliseconds spin_margin{2};

/// Sends requests first, first + stride, ... (< count) on one thread;
/// request j is due at origin + (j + 0.5) / rate. A request whose due time
/// has passed (the previous one stalled) is sent at once, and its latency
/// still counts from its due time, so a stall is charged to every request
/// it delayed.
template <class Send>
std::vector<paced_request> run_paced(std::chrono::steady_clock::time_point origin,
                                     std::size_t first, std::size_t stride, std::size_t count,
                                     double rate, Send&& send) {
    using clock = std::chrono::steady_clock;
    auto since = [origin](clock::time_point t) {
        return std::chrono::duration<double>(t - origin).count();
    };
    std::vector<paced_request> out;
    for (std::size_t j = first; j < count; j += stride) {
        paced_request r;
        r.due_s = (static_cast<double>(j) + 0.5) / rate;
        const auto due =
            origin + std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(r.due_s));
        // Sleep to just short of the due time, then spin: on a loaded
        // virtual machine a sleeping thread can wake milliseconds late, and
        // that lateness would be charged to the server.
        std::this_thread::sleep_until(due - spin_margin);
        while (clock::now() < due) {
        }
        r.sent_s = since(clock::now());
        send(j);
        r.done_s = since(clock::now());
        out.push_back(r);
    }
    return out;
}

} // namespace richbench
