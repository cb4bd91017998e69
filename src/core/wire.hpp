// NDJSON wire codec for notification ingest (DESIGN.md §11).
//
// `richnote serve` admits notifications over HTTP as newline-delimited
// flat JSON objects — one notification per line, the same flat-object
// dialect the decision-trace plane already speaks (obs/trace_report's
// parser is reused verbatim). A line carries the notification identity,
// routing and feature fields plus the synthetic ground-truth engagement
// labels, so a recorded workload can be replayed over the wire and produce
// BIT-IDENTICAL metrics to the in-process batch loop: numbers are printed
// with %.17g (obs/json_util), which round-trips every finite double.
//
//   {"id":17,"user":3,"type":"friend_feed","track":204,"created_at":3600,
//    "social_tie":0.43,"track_pop":81,"album_pop":70,"artist_pop":64,
//    "weekend":false,"daytime":true,"attended":true,"clicked":false,
//    "clicked_at":0}
//
// parse_wire_line is strict about structure (malformed JSON, missing or
// wrongly-typed required fields are errors with a reason) and lenient
// about extras (unknown keys are ignored, label fields default to
// false/0), so a foreign producer only needs the routing + feature core.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "trace/notification.hpp"

namespace richnote::core {

/// Renders one notification as a single NDJSON line (no trailing newline).
std::string format_wire_line(const trace::notification& n);

/// Parses one NDJSON line into `out`. Returns true on success; on failure
/// returns false and, when `error` is non-null, stores a short reason
/// ("bad json", "missing field: user", ...). `out` is unspecified on
/// failure. Range validation against a concrete user fleet / catalog is
/// the admission side's job, not the parser's.
bool parse_wire_line(std::string_view line, trace::notification& out,
                     std::string* error = nullptr);

/// Parses a POST /reshard body: a bare decimal integer or {"threads":K},
/// optionally surrounded by whitespace. Anything else (a sign, trailing
/// junk, extra keys, a non-integer K) returns false with the reason
/// "bad threads". A K too large for 64 bits parses as UINT64_MAX; the range
/// check against worker_pool::max_threads is the caller's.
bool parse_thread_count(std::string_view body, std::uint64_t& threads,
                        std::string* error = nullptr);

} // namespace richnote::core
