// Seeded request-stream generator.
//
// Turns the seed's generated trace into the NDJSON bodies the benchmark
// POSTs to `richnote serve`: tracks, types, features and engagement labels
// are real trace rows, so ingest exercises U_c scoring and presentation
// generation exactly as a replay would. What the generator changes:
//   - recipients are remapped over the whole fleet with a Zipf skew whose
//     exponent is fitted to the source trace's per-user notification
//     counts (popular ranks scattered over the id space by a fixed
//     permutation);
//   - every line gets a fresh, unique id;
//   - about 1% of lines repeat an earlier line byte for byte (an
//     at-least-once producer), which idempotent admission must suppress;
//   - created_at is restamped onto the service clock: the lines of slot s
//     are due at service round s; about 10% are stamped a few rounds ahead,
//     which parks them in the service's pending buffer.
// The stream is a pure function of (source trace, params, seed): the same
// seed gives byte-identical bodies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/notification.hpp"

namespace richbench {

struct stream_params {
    std::size_t fleet_users = 0;
    std::size_t posts = 0;
    std::size_t lines_per_post = 100;
    /// Lines due per service round; a multiple of lines_per_post.
    std::size_t lines_per_slot = 2000;
    /// Slot of the first line; service round 0 runs at clock 0, so slot 1
    /// is the first whose lines are due.
    std::size_t first_slot = 1;
    std::uint64_t first_id = 1;
    double duplicate_frac = 0.01;
    double ahead_frac = 0.10;
    std::uint32_t max_ahead_rounds = 3;
};

struct request_stream {
    std::vector<std::string> bodies; ///< one POST body each; lines end in '\n'
    std::size_t lines_per_post = 0;
    std::size_t posts_per_slot = 0;
    std::size_t first_slot = 0;
    std::uint64_t lines = 0;
    std::uint64_t duplicates = 0; ///< lines that repeat an earlier id
    std::uint64_t ahead = 0;      ///< fresh lines stamped ahead of their slot
    double zipf_exponent = 0.0;   ///< recipient skew, fitted to the source trace

    /// Service round whose clock first reaches post `j`'s non-ahead lines.
    std::size_t slot_of_post(std::size_t j) const { return first_slot + j / posts_per_slot; }
    /// FNV-1a digest over every body, in order.
    std::uint64_t digest() const;
};

/// Least-squares slope of ln(count) on ln(rank) over the nonzero counts,
/// sorted in descending order, negated: the exponent of the Zipf law that
/// best fits this rank-frequency curve.
double fit_zipf_exponent(std::vector<std::size_t> counts);

request_stream make_stream(const richnote::trace::notification_trace& source, const stream_params& p,
                           std::uint64_t seed);

/// Splits an NDJSON body into its lines (views into `body`).
std::vector<std::string_view> split_lines(const std::string& body);

} // namespace richbench
