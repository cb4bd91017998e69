// NDJSON wire codec (core/wire.hpp): exact round-trips, strictness about
// malformed input, leniency about extras — the contract `richnote serve`
// relies on for bit-identical ingest replay.
#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "trace/notification.hpp"

namespace {

using richnote::core::format_wire_line;
using richnote::core::parse_thread_count;
using richnote::core::parse_wire_line;
using richnote::trace::notification;
using richnote::trace::notification_type;

notification sample() {
    notification n;
    n.id = 0xdeadbeefcafeULL;
    n.recipient = 37;
    n.type = notification_type::album_release;
    n.track = 204;
    // Deliberately awkward doubles: none is exactly representable, so a
    // lossy printf precision would be caught by the bitwise comparison.
    n.created_at = 3600.0 + 1.0 / 3.0;
    n.features.social_tie = 0.1 + 0.2;
    n.features.track_popularity = 81.7;
    n.features.album_popularity = 1e-3;
    n.features.artist_popularity = 99.999999999999986;
    n.features.weekend = true;
    n.features.daytime = false;
    n.attended = true;
    n.clicked = true;
    n.clicked_at = 7261.25;
    return n;
}

TEST(wire_codec, round_trip_preserves_every_field_bitwise) {
    const notification n = sample();
    notification out;
    std::string error;
    ASSERT_TRUE(parse_wire_line(format_wire_line(n), out, &error)) << error;
    EXPECT_EQ(out.id, n.id);
    EXPECT_EQ(out.recipient, n.recipient);
    EXPECT_EQ(out.type, n.type);
    EXPECT_EQ(out.track, n.track);
    // %.17g round-trips every finite double; EXPECT_EQ checks exact value.
    EXPECT_EQ(out.created_at, n.created_at);
    EXPECT_EQ(out.features.social_tie, n.features.social_tie);
    EXPECT_EQ(out.features.track_popularity, n.features.track_popularity);
    EXPECT_EQ(out.features.album_popularity, n.features.album_popularity);
    EXPECT_EQ(out.features.artist_popularity, n.features.artist_popularity);
    EXPECT_EQ(out.features.weekend, n.features.weekend);
    EXPECT_EQ(out.features.daytime, n.features.daytime);
    EXPECT_EQ(out.attended, n.attended);
    EXPECT_EQ(out.clicked, n.clicked);
    EXPECT_EQ(out.clicked_at, n.clicked_at);
}

TEST(wire_codec, every_notification_type_round_trips) {
    for (const auto type : {notification_type::friend_feed,
                            notification_type::album_release,
                            notification_type::playlist_update}) {
        notification n = sample();
        n.type = type;
        notification out;
        ASSERT_TRUE(parse_wire_line(format_wire_line(n), out, nullptr));
        EXPECT_EQ(out.type, type);
    }
}

TEST(wire_codec, truncated_lines_are_rejected) {
    const std::string line = format_wire_line(sample());
    // Every proper prefix is either unterminated JSON or (shorter still)
    // not JSON at all; none may parse.
    for (const std::size_t len : {std::size_t{0}, std::size_t{1}, line.size() / 4,
                                  line.size() / 2, line.size() - 10, line.size() - 1}) {
        notification out;
        std::string error;
        EXPECT_FALSE(parse_wire_line(std::string_view(line).substr(0, len), out, &error))
            << "prefix of length " << len << " parsed";
        EXPECT_FALSE(error.empty());
    }
}

TEST(wire_codec, missing_required_fields_are_named) {
    for (const char* field : {"id", "user", "type", "track", "created_at"}) {
        std::string line = format_wire_line(sample());
        // Remove the "key":value pair (and its leading comma when interior).
        const std::string key = std::string("\"") + field + "\":";
        const std::size_t at = line.find(key);
        ASSERT_NE(at, std::string::npos);
        std::size_t end = line.find(',', at);
        if (end == std::string::npos) end = line.find('}', at);
        std::size_t begin = at;
        if (line[begin - 1] == ',') {
            --begin; // interior pair: eat the leading comma
        } else if (line[end] == ',') {
            ++end; // first pair: eat the trailing comma instead
        }
        line.erase(begin, end - begin);
        notification out;
        std::string error;
        EXPECT_FALSE(parse_wire_line(line, out, &error)) << line;
        EXPECT_EQ(error, std::string("missing field: ") + field);
    }
}

TEST(wire_codec, bad_field_values_are_rejected_with_reason) {
    const struct {
        const char* line;
        const char* reason;
    } cases[] = {
        {"not json at all", "bad json"},
        {R"({"id":-3,"user":0,"type":"friend_feed","track":1,"created_at":0})",
         "bad field: id"},
        {R"({"id":1,"user":1.5,"type":"friend_feed","track":1,"created_at":0})",
         "bad field: user"},
        {R"({"id":1,"user":0,"type":"spam","track":1,"created_at":0})",
         "bad field: type"},
        {R"({"id":1,"user":0,"type":"friend_feed","track":1,"created_at":-7})",
         "bad field: created_at"},
        {R"({"id":1,"user":99999999999,"type":"friend_feed","track":1,"created_at":0})",
         "bad field: user"},
    };
    for (const auto& c : cases) {
        notification out;
        std::string error;
        EXPECT_FALSE(parse_wire_line(c.line, out, &error)) << c.line;
        EXPECT_EQ(error, c.reason) << c.line;
    }
}

TEST(wire_codec, unknown_keys_are_ignored_and_labels_default) {
    // A foreign producer sends only the routing + feature core, plus a key
    // this codec has never heard of.
    const char* line =
        R"({"id":9,"user":2,"type":"playlist_update","track":5,"created_at":120,)"
        R"("social_tie":0.5,"vendor_hint":"ignored"})";
    notification out;
    std::string error;
    ASSERT_TRUE(parse_wire_line(line, out, &error)) << error;
    EXPECT_EQ(out.id, 9u);
    EXPECT_EQ(out.recipient, 2u);
    EXPECT_EQ(out.features.social_tie, 0.5);
    EXPECT_FALSE(out.attended);
    EXPECT_FALSE(out.clicked);
    EXPECT_EQ(out.clicked_at, 0.0);
}

TEST(wire_codec, integer_fields_are_exact_64_bit_values) {
    // Ids past 2^53 are not doubles: each decodes to itself.
    for (const std::uint64_t id : {(std::uint64_t{1} << 53) + 1,
                                   std::numeric_limits<std::uint64_t>::max()}) {
        notification n = sample();
        n.id = id;
        notification out;
        std::string error;
        ASSERT_TRUE(parse_wire_line(format_wire_line(n), out, &error)) << error;
        EXPECT_EQ(out.id, id);
    }
    notification n = sample();
    n.recipient = 0xffffffffu;
    n.track = 0xffffffffu;
    notification out;
    ASSERT_TRUE(parse_wire_line(format_wire_line(n), out));
    EXPECT_EQ(out.recipient, 0xffffffffu);
    EXPECT_EQ(out.track, 0xffffffffu);
}

TEST(wire_codec, integer_fields_past_their_range_are_bad_fields) {
    const std::string tail =
        R"(,"user":0,"type":"friend_feed","track":1,"created_at":0})";
    const struct {
        std::string line;
        const char* reason;
    } cases[] = {
        // 2^64: one past UINT64_MAX.
        {R"({"id":18446744073709551616)" + tail, "bad field: id"},
        {R"({"id":99999999999999999999999)" + tail, "bad field: id"},
        // A non-digit form is a double, trusted only up to 2^53.
        {R"({"id":1.8446744073709552e19)" + tail, "bad field: id"},
        {R"({"id":9007199254740994.0)" + tail, "bad field: id"},
        {R"({"id":1,"user":4294967296,"type":"friend_feed","track":1,"created_at":0})",
         "bad field: user"},
        {R"({"id":1,"user":0,"type":"friend_feed","track":18446744073709551616,"created_at":0})",
         "bad field: track"},
    };
    for (const auto& c : cases) {
        notification out;
        std::string error;
        EXPECT_FALSE(parse_wire_line(c.line, out, &error)) << c.line;
        EXPECT_EQ(error, c.reason) << c.line;
    }
    // Other numeric forms up to 2^53 keep today's integral-double rule.
    for (const char* id : {"9007199254740992.0", "+5", "1e3", "12.0", "-0"}) {
        notification out;
        std::string error;
        EXPECT_TRUE(parse_wire_line(std::string(R"({"id":)") + id + tail, out, &error))
            << id << ": " << error;
    }
}

TEST(wire_codec, bad_json_outranks_bad_fields_and_bad_fields_go_in_order) {
    const struct {
        const char* line;
        const char* reason;
    } cases[] = {
        // A structural fault after a bad field still makes the line bad json.
        {R"({"id":-1,"user":0,"type":"friend_feed","track":1,"created_at":0} x)", "bad json"},
        {R"({"id":-1,"user":0,"extra":+-1})", "bad json"},
        // The first bad field in document order is named, before any missing one.
        {R"({"type":"spam","id":-1})", "bad field: type"},
        {R"({"id":"1","id":1,"user":0,"type":"friend_feed","track":1,"created_at":0})",
         "bad field: id"},
        {R"({"created_at":0})", "missing field: id"},
    };
    for (const auto& c : cases) {
        notification out;
        std::string error;
        EXPECT_FALSE(parse_wire_line(c.line, out, &error)) << c.line;
        EXPECT_EQ(error, c.reason) << c.line;
    }
}

TEST(reshard_body, bare_integer_and_threads_object_parse) {
    std::uint64_t threads = 0;
    EXPECT_TRUE(parse_thread_count("3", threads));
    EXPECT_EQ(threads, 3u);
    EXPECT_TRUE(parse_thread_count(" 12\n", threads));
    EXPECT_EQ(threads, 12u);
    EXPECT_TRUE(parse_thread_count("{\"threads\":4}", threads));
    EXPECT_EQ(threads, 4u);
    EXPECT_TRUE(parse_thread_count("{ \"threads\" : 7 }\n", threads));
    EXPECT_EQ(threads, 7u);
    // Zero and huge counts are well-formed; the pool's ceiling rejects them.
    EXPECT_TRUE(parse_thread_count("0", threads));
    EXPECT_EQ(threads, 0u);
    EXPECT_TRUE(parse_thread_count("{\"threads\":99999999}", threads));
    EXPECT_EQ(threads, 99999999u);
    EXPECT_TRUE(parse_thread_count("123456789012345678901234567890", threads));
    EXPECT_EQ(threads, std::numeric_limits<std::uint64_t>::max());
}

TEST(reshard_body, malformed_bodies_are_named_errors) {
    for (const char* body :
         {"-3", "+3", "2x", "x2", "3 4", "", "  ", "3.0", "1e2", "0x10",
          "{\"threads\":4,\"x\":1}", "{\"x\":1,\"threads\":4}", "{\"threads\":-3}",
          "{\"threads\":\"4\"}", "{\"threads\":4.5}", "{\"threads\":4", "{\"threads\":4}x",
          "{\"thread\":4}", "{threads:4}", "[4]"}) {
        SCOPED_TRACE(body);
        std::uint64_t threads = 77;
        std::string error;
        EXPECT_FALSE(parse_thread_count(body, threads, &error));
        EXPECT_EQ(error, "bad threads");
    }
}

} // namespace
