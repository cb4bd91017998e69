// Differential mutation test for the wire decoder (core/wire.hpp).
//
// parse_wire_line is a single hand-written pass. Its contract is the
// decoder it replaced: obs::parse_flat_json followed by per-key field
// rules. That reference lives below, unchanged except for one deliberate
// fix: the integer fields id, user and track are read exactly (a digit-only
// token as 64 bits, any other numeric form as an integral double no larger
// than 2^53), where the old rule went through a double for every form.
//
// The corpus is format_wire_line over a generated workload plus hand-written
// edge cases; hundreds of thousands of seeded byte flips, erasures,
// insertions, truncations and splices of it must decode identically under
// both: same verdict, same error string and, on success, every field bit
// for bit. Carries the ctest label `fuzz` (scripts/check.sh --fuzz runs it
// under ASan + UBSan). The binary also counts global operator new calls, to
// pin that an accepted line decodes without touching the heap.
#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/trace_report.hpp"
#include "trace/generator.hpp"
#include "trace/notification.hpp"

namespace {
std::atomic<std::size_t> heap_allocations{0};
} // namespace

// None of the replacements is inlined: GCC would otherwise see a malloc()
// or free() at a call site of the other operator and reject the build under
// -Werror=mismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
    heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using richnote::core::format_wire_line;
using richnote::core::parse_wire_line;
using richnote::trace::notification;
using richnote::trace::notification_type;

// ---- Reference decoder ----

/// obs::trace_value plus the raw number token the integer fix needs.
struct ref_value {
    enum class kind { string, number, boolean } type = kind::number;
    std::string str;
    double num = 0.0;
    bool flag = false;
    std::string token;
};

using ref_fields = std::vector<std::pair<std::string, ref_value>>;

void ref_skip_spaces(std::string_view s, std::size_t& i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

bool ref_parse_string(std::string_view s, std::size_t& i, std::string& out) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    out.clear();
    while (i < s.size()) {
        const char c = s[i++];
        if (c == '"') return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (i >= s.size()) return false;
        const char esc = s[i++];
        switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
            if (i + 4 > s.size()) return false;
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
                const char h = s[i++];
                code <<= 4;
                if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                else return false;
            }
            out += static_cast<char>(code & 0xff);
            break;
        }
        default: return false;
        }
    }
    return false;
}

bool ref_parse_value(std::string_view s, std::size_t& i, ref_value& out) {
    ref_skip_spaces(s, i);
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '"') {
        out.type = ref_value::kind::string;
        return ref_parse_string(s, i, out.str);
    }
    if (c == 't' && s.substr(i, 4) == "true") {
        out.type = ref_value::kind::boolean;
        out.flag = true;
        i += 4;
        return true;
    }
    if (c == 'f' && s.substr(i, 5) == "false") {
        out.type = ref_value::kind::boolean;
        out.flag = false;
        i += 5;
        return true;
    }
    const std::size_t begin = i;
    while (i < s.size() &&
           (s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
            (s[i] >= '0' && s[i] <= '9')))
        ++i;
    if (i == begin) return false;
    out.token = std::string(s.substr(begin, i - begin));
    char* end = nullptr;
    out.type = ref_value::kind::number;
    out.num = std::strtod(out.token.c_str(), &end);
    return end != nullptr && *end == '\0';
}

bool ref_parse_flat_json(std::string_view line, ref_fields& out) {
    out.clear();
    std::size_t i = 0;
    ref_skip_spaces(line, i);
    if (i >= line.size() || line[i] != '{') return false;
    ++i;
    ref_skip_spaces(line, i);
    if (i < line.size() && line[i] == '}') {
        ++i;
    } else {
        while (true) {
            ref_skip_spaces(line, i);
            std::string key;
            if (!ref_parse_string(line, i, key)) return false;
            ref_skip_spaces(line, i);
            if (i >= line.size() || line[i] != ':') return false;
            ++i;
            ref_value value;
            if (!ref_parse_value(line, i, value)) return false;
            out.emplace_back(std::move(key), std::move(value));
            ref_skip_spaces(line, i);
            if (i >= line.size()) return false;
            if (line[i] == ',') {
                ++i;
                continue;
            }
            if (line[i] == '}') {
                ++i;
                break;
            }
            return false;
        }
    }
    ref_skip_spaces(line, i);
    return i == line.size();
}

/// The integer fix: a digit-only token is exact 64 bits; any other form is
/// the old integral-double rule, capped at 2^53.
bool ref_as_u64(const ref_value& v, std::uint64_t& out) {
    if (v.type != ref_value::kind::number) return false;
    if (std::all_of(v.token.begin(), v.token.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
        const char* last = v.token.data() + v.token.size();
        return std::from_chars(v.token.data(), last, out).ec == std::errc{};
    }
    if (!(v.num >= 0.0) || v.num != std::floor(v.num) || v.num > 9007199254740992.0)
        return false;
    out = static_cast<std::uint64_t>(v.num);
    return true;
}

bool ref_fail(std::string* error, std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return false;
}

bool ref_parse_wire_line(std::string_view line, notification& out, std::string* error) {
    ref_fields fields;
    if (!ref_parse_flat_json(line, fields)) return ref_fail(error, "bad json");

    using kind = ref_value::kind;
    out = notification{};
    bool have_id = false, have_user = false, have_type = false, have_track = false,
         have_created = false;
    for (const auto& [k, v] : fields) {
        if (k == "id") {
            if (!ref_as_u64(v, out.id)) return ref_fail(error, "bad field: id");
            have_id = true;
        } else if (k == "user") {
            std::uint64_t user = 0;
            if (!ref_as_u64(v, user) || user > 0xffffffffULL)
                return ref_fail(error, "bad field: user");
            out.recipient = static_cast<richnote::trace::user_id>(user);
            have_user = true;
        } else if (k == "type") {
            if (v.type != kind::string) return ref_fail(error, "bad field: type");
            if (v.str == "friend_feed") out.type = notification_type::friend_feed;
            else if (v.str == "album_release") out.type = notification_type::album_release;
            else if (v.str == "playlist_update") out.type = notification_type::playlist_update;
            else return ref_fail(error, "bad field: type");
            have_type = true;
        } else if (k == "track") {
            std::uint64_t track = 0;
            if (!ref_as_u64(v, track) || track > 0xffffffffULL)
                return ref_fail(error, "bad field: track");
            out.track = static_cast<richnote::trace::track_id>(track);
            have_track = true;
        } else if (k == "created_at") {
            if (v.type != kind::number || !std::isfinite(v.num) || v.num < 0.0)
                return ref_fail(error, "bad field: created_at");
            out.created_at = v.num;
            have_created = true;
        } else if (k == "social_tie") {
            if (v.type != kind::number) return ref_fail(error, "bad field: social_tie");
            out.features.social_tie = v.num;
        } else if (k == "track_pop") {
            if (v.type != kind::number) return ref_fail(error, "bad field: track_pop");
            out.features.track_popularity = v.num;
        } else if (k == "album_pop") {
            if (v.type != kind::number) return ref_fail(error, "bad field: album_pop");
            out.features.album_popularity = v.num;
        } else if (k == "artist_pop") {
            if (v.type != kind::number) return ref_fail(error, "bad field: artist_pop");
            out.features.artist_popularity = v.num;
        } else if (k == "weekend") {
            if (v.type != kind::boolean) return ref_fail(error, "bad field: weekend");
            out.features.weekend = v.flag;
        } else if (k == "daytime") {
            if (v.type != kind::boolean) return ref_fail(error, "bad field: daytime");
            out.features.daytime = v.flag;
        } else if (k == "attended") {
            if (v.type != kind::boolean) return ref_fail(error, "bad field: attended");
            out.attended = v.flag;
        } else if (k == "clicked") {
            if (v.type != kind::boolean) return ref_fail(error, "bad field: clicked");
            out.clicked = v.flag;
        } else if (k == "clicked_at") {
            if (v.type != kind::number) return ref_fail(error, "bad field: clicked_at");
            out.clicked_at = v.num;
        }
    }
    if (!have_id) return ref_fail(error, "missing field: id");
    if (!have_user) return ref_fail(error, "missing field: user");
    if (!have_type) return ref_fail(error, "missing field: type");
    if (!have_track) return ref_fail(error, "missing field: track");
    if (!have_created) return ref_fail(error, "missing field: created_at");
    return true;
}

// ---- Differential harness ----

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_notification(const notification& a, const notification& b) {
    return a.id == b.id && a.recipient == b.recipient && a.type == b.type &&
           a.track == b.track && same_bits(a.created_at, b.created_at) &&
           same_bits(a.features.social_tie, b.features.social_tie) &&
           same_bits(a.features.track_popularity, b.features.track_popularity) &&
           same_bits(a.features.album_popularity, b.features.album_popularity) &&
           same_bits(a.features.artist_popularity, b.features.artist_popularity) &&
           a.features.weekend == b.features.weekend &&
           a.features.daytime == b.features.daytime && a.attended == b.attended &&
           a.clicked == b.clicked && same_bits(a.clicked_at, b.clicked_at);
}

/// Verdict counts, keyed by error string ("" = accepted), so the test can
/// show the corpus reaches every kind of outcome.
using outcome_counts = std::map<std::string, std::size_t>;

/// Decodes `line` with both decoders and records any disagreement.
/// Also checks that the reference's flat-JSON pass still agrees with
/// obs::parse_flat_json, the parser it was copied from.
::testing::AssertionResult decode_agrees(std::string_view line, outcome_counts& counts) {
    notification ref_out, out;
    std::string ref_error = "<unset>", error = "<unset>";
    const bool ref_ok = ref_parse_wire_line(line, ref_out, &ref_error);
    const bool ok = parse_wire_line(line, out, &error);
    ++counts[ok ? std::string() : error];

    ref_fields ref_flat;
    std::vector<std::pair<std::string, richnote::obs::trace_value>> flat;
    const bool ref_json = ref_parse_flat_json(line, ref_flat);
    if (ref_json != richnote::obs::parse_flat_json(line, flat))
        return ::testing::AssertionFailure()
               << "reference copy disagrees with obs::parse_flat_json on: " << line;
    if (ref_json) {
        for (std::size_t i = 0; i < flat.size(); ++i) {
            if (flat[i].first != ref_flat[i].first || flat[i].second.str != ref_flat[i].second.str ||
                !same_bits(flat[i].second.num, ref_flat[i].second.num))
                return ::testing::AssertionFailure()
                       << "reference copy decodes a value differently on: " << line;
        }
    }

    if (ok != ref_ok)
        return ::testing::AssertionFailure()
               << "verdict " << ok << " vs reference " << ref_ok << " (" << error << " / "
               << ref_error << ") on: " << line;
    if (!ok && error != ref_error)
        return ::testing::AssertionFailure()
               << "error '" << error << "' vs reference '" << ref_error << "' on: " << line;
    if (ok && error != "<unset>")
        return ::testing::AssertionFailure() << "accepted line wrote an error: " << line;
    if (ok && !same_notification(out, ref_out))
        return ::testing::AssertionFailure() << "decoded fields differ on: " << line;
    return ::testing::AssertionSuccess();
}

std::vector<std::string> workload_lines() {
    richnote::trace::workload_params params;
    params.user_count = 12;
    params.catalog.artist_count = 30;
    params.playlist_count = 6;
    params.horizon = richnote::sim::days * 2;
    const richnote::trace::workload world(params, 41);
    std::vector<std::string> lines;
    for (const notification& n : world.notifications().flatten())
        lines.push_back(format_wire_line(n));
    return lines;
}

/// Hand-written lines around every rule the decoder keeps.
std::vector<std::string> edge_lines() {
    const std::string core =
        R"("user":3,"type":"friend_feed","track":9,"created_at":60)";
    std::vector<std::string> lines = {
        "{}",
        " {} ",
        "\t{\t}\t",
        "{" + core + "}",
        R"({"id":1,)" + core + "}",
        // \u escapes in keys and values, including ones that decode to a
        // known key or type name and one whose high byte is dropped.
        R"({"\u0069d":5,)" + core + "}",
        R"({"i\u0064":5,"user":3,"type":"friend\u005ffeed","track":9,"created_at":60})",
        R"({"id":5,"user":3,"type":"\u0166riend_feed","track":9,"created_at":60})",
        R"({"\u00e9d":5,)" + core + "}",
        R"({"\u01E9d":5,"user":3,"type":"friend_feed","track":9,"created_at":60})",
        R"({"id":5,"user":3,"type":"friend_feed\u0000","track":9,"created_at":60})",
        R"({"id":5,)" + core + R"(,"note":"a\"b\\c\/d\n\t\r\b\f\u00e9"})",
        R"({"id":5,)" + core + R"(,"n\u006fte":"\uZZZZ"})",
        R"({"id":5,)" + core + R"(,"note":"\u12"})",
        R"({"id":5,)" + core + R"(,"note":"\q"})",
        R"({"id":5,)" + core + R"(,"x_very_long_unknown_key_with_escape\u0041":"v"})",
        R"({"id":5,"user":3,"type":"playlist_update_and_more\u0041","track":9,"created_at":60})",
        // Number forms strtod decides.
        R"({"id":+5,)" + core + "}",
        R"({"id":+-5,)" + core + "}",
        R"({"id":-+5,)" + core + "}",
        R"({"id":++5,)" + core + "}",
        R"({"id":+,)" + core + "}",
        R"({"id":-,)" + core + "}",
        R"({"id":5,)" + core + R"(,"social_tie":1e999})",
        R"({"id":5,)" + core + R"(,"social_tie":-1e999})",
        R"({"id":5,)" + core + R"(,"social_tie":1e-400})",
        R"({"id":5,)" + core + R"(,"social_tie":-1e-400})",
        R"({"id":5,)" + core + R"(,"social_tie":4.9e-324})",
        R"({"id":5,)" + core + R"(,"social_tie":2.4703282292062327e-324})",
        R"({"id":5,)" + core + R"(,"social_tie":2.4703282292062328e-324})",
        R"({"id":5,)" + core + R"(,"social_tie":1.7976931348623159e308})",
        R"({"id":5,)" + core + R"(,"social_tie":.5})",
        R"({"id":5,)" + core + R"(,"social_tie":1.})",
        R"({"id":5,)" + core + R"(,"social_tie":.})",
        R"({"id":5,)" + core + R"(,"social_tie":1e})",
        R"({"id":5,)" + core + R"(,"social_tie":1e+})",
        R"({"id":5,)" + core + R"(,"social_tie":1.e5})",
        R"({"id":5,)" + core + R"(,"social_tie":-0})",
        R"({"id":5,)" + core + R"(,"social_tie":1E-2})",
        R"({"id":5,)" + core + R"(,"social_tie":1e5e5})",
        R"({"id":5,)" + core + R"(,"social_tie":1.2.3})",
        R"({"id":5,)" + core + R"(,"social_tie":0.)" + std::string(400, '0') + "1}",
        R"({"id":5,)" + core + R"(,"social_tie":1)" + std::string(400, '0') + "}",
        R"({"id":5,)" + core + R"(,"extra":1e999})",
        R"({"id":5,)" + core + R"(,"extra":+-1})",
        R"({"id":00012,)" + core + "}",
        R"({"id":12.0,)" + core + "}",
        R"({"id":1e3,)" + core + "}",
        R"({"id":-0,)" + core + "}",
        R"({"id":0.5,)" + core + "}",
        R"({"id":inf,)" + core + "}",
        R"({"id":null,)" + core + "}",
        // The integer fix: exact 64-bit ids, 2^53 cap on other forms.
        R"({"id":9007199254740992,)" + core + "}",
        R"({"id":9007199254740993,)" + core + "}",
        R"({"id":9007199254740993.0,)" + core + "}",
        R"({"id":9.007199254740992e15,)" + core + "}",
        R"({"id":9.007199254740994e15,)" + core + "}",
        R"({"id":18446744073709551615,)" + core + "}",
        R"({"id":18446744073709551616,)" + core + "}",
        R"({"id":1.8446744073709552e19,)" + core + "}",
        R"({"id":99999999999999999999999,)" + core + "}",
        R"({"id":5,"user":4294967295,"type":"friend_feed","track":4294967296,"created_at":60})",
        R"({"id":5,"user":4294967296,"type":"friend_feed","track":9,"created_at":60})",
        // Field types, ranges and precedence.
        R"({"id":"5",)" + core + "}",
        R"({"id":true,)" + core + "}",
        R"({"id":5,"user":3,"type":7,"track":9,"created_at":60})",
        R"({"id":5,"user":3,"type":"friend_feed","track":9,"created_at":-1})",
        R"({"id":5,"user":3,"type":"friend_feed","track":9,"created_at":1e999})",
        R"({"id":5,"user":3,"type":"friend_feed","track":9,"created_at":-0})",
        R"({"id":5,)" + core + R"(,"weekend":1,"daytime":"yes"})",
        R"({"id":5,)" + core + R"(,"weekend":true,"daytime":false,"attended":true,"clicked":false})",
        R"({"id":-1,"user":-1,"type":"x"})",
        R"({"id":-1,"user":3,"type":"friend_feed","track":9,"created_at":60,"zz":)",
        R"({"type":"spam"})",
        R"({"id":5})",
        // Duplicate keys: each occurrence is checked; the last good one wins.
        R"({"id":5,"id":6,)" + core + "}",
        R"({"id":5,)" + core + R"(,"user":4,"type":"album_release"})",
        R"({"id":"x","id":6,)" + core + "}",
        R"({"id":6,"id":"x",)" + core + "}",
        // Blanks: only space and tab separate tokens.
        "{ \"id\" :\t5 ,\t" + core + " }\t",
        "{\"id\":5,\r" + core + "}",
        "{\"id\":5," + core + "}\n",
        "{\"id\":5," + core + "}\r",
        // Trailing junk and broken structure.
        R"({"id":5,)" + core + "} x",
        R"({"id":5,)" + core + "}}",
        R"({"id":5,)" + core + ",}",
        R"({"id":5,,)" + core + "}",
        R"({"id" 5,)" + core + "}",
        R"({"id":5 )" + core + "}",
        R"({id:5,)" + core + "}",
        R"([{"id":5,)" + core + "}]",
        R"({"id":5,)" + core + R"(,"nested":{"a":1}})",
        R"({"id":5,)" + core + R"(,"flag":truex})",
        R"({"id":5,)" + core + R"(,"flag":tru})",
        R"({"id":5,)" + core + R"(,"flag":fals})",
        "",
        "{",
        "\"",
        "{\"",
        "{\"id",
        "{\"id\":",
        "{\"id\":\"\\",
        std::string("{\"id\":5,\"x\":\"a\0b\",", 18) + core + "}",
    };
    return lines;
}

/// Bytes that move a mutation between the decoder's branches.
constexpr std::string_view interesting_bytes = "{}[]\":,\\ \t\r\n0123456789+-.eEtrufalsnxu/";

/// Fragments that splice whole tokens in.
const std::vector<std::string>& dictionary() {
    static const std::vector<std::string> words = {
        "\\u0069", "\\u00", "\\", "\"", "true", "false", "null", "1e999", "1e-400",
        "4.9e-324", "+", "-", "+-", ".", "e", "E5", "00", "9007199254740993",
        "18446744073709551616", "18446744073709551615", "4294967296", "\"id\":",
        "\"user\":", "\"type\":", "\"track\":", "\"created_at\":", "\"weekend\":",
        "\"friend_feed\"", "\"album_release\"", "\"playlist_update\"", ",", ":", "{}",
        " ", "\t", "\"\\u0074ype\":",
    };
    return words;
}

std::string mutate(const std::string& line, const std::vector<std::string>& corpus,
                   richnote::rng& gen) {
    std::string s = line;
    auto pick = [&gen](std::size_t n) {
        return static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    auto random_byte = [&]() -> char {
        if (gen.bernoulli(0.75)) return interesting_bytes[pick(interesting_bytes.size())];
        return static_cast<char>(pick(256));
    };
    const std::size_t edits = 1 + pick(3);
    for (std::size_t e = 0; e < edits; ++e) {
        switch (pick(6)) {
        case 0: // byte flip
            if (!s.empty()) s[pick(s.size())] = random_byte();
            break;
        case 1: // erasure
            if (!s.empty()) {
                const std::size_t at = pick(s.size());
                s.erase(at, 1 + pick(std::min<std::size_t>(8, s.size() - at)));
            }
            break;
        case 2: // byte insertion
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                     random_byte());
            break;
        case 3: // token insertion
            s.insert(pick(s.size() + 1), dictionary()[pick(dictionary().size())]);
            break;
        case 4: // truncation
            s.resize(pick(s.size() + 1));
            break;
        case 5: { // splice: a prefix of this line, a suffix of another
            const std::string& other = corpus[pick(corpus.size())];
            s = s.substr(0, pick(s.size() + 1)) + other.substr(pick(other.size() + 1));
            break;
        }
        }
    }
    return s;
}

TEST(wire_fuzz, corpus_decodes_like_the_reference) {
    outcome_counts counts;
    for (const std::string& line : edge_lines()) EXPECT_TRUE(decode_agrees(line, counts));
    for (const std::string& line : workload_lines()) {
        ASSERT_TRUE(decode_agrees(line, counts));
    }
    EXPECT_GT(counts[""], 100u); // the workload lines all decode
}

TEST(wire_fuzz, accepted_lines_decode_without_heap_allocation) {
    std::vector<std::string> lines = workload_lines();
    // Escapes in keys and values, an unknown key, and a number past the
    // double range (the strtod copy of a short token stays in the string's
    // inline buffer).
    lines.push_back(
        R"({"\u0069d":5,"user":3,"type":"friend\u005ffeed","track":9,"created_at":60,)"
        R"("social_tie":1e999,"note":"a\"b\\c\u00e9","weekend":true})");
    notification out;
    std::string error;
    const std::size_t before = heap_allocations.load();
    std::size_t accepted = 0;
    for (const std::string& line : lines) accepted += parse_wire_line(line, out, &error);
    EXPECT_EQ(heap_allocations.load() - before, 0u);
    EXPECT_EQ(accepted, lines.size()) << error;
}

TEST(wire_fuzz, mutations_decode_like_the_reference) {
    std::vector<std::string> corpus = workload_lines();
    const std::vector<std::string> edges = edge_lines();
    corpus.insert(corpus.end(), edges.begin(), edges.end());

    constexpr std::size_t mutations = 240000;
    richnote::rng gen(0x5eed'f00dULL);
    outcome_counts counts;
    std::size_t failures = 0;
    for (std::size_t i = 0; i < mutations && failures < 10; ++i) {
        const std::string& seed_line =
            corpus[static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
        const std::string line = mutate(seed_line, corpus, gen);
        const ::testing::AssertionResult agree = decode_agrees(line, counts);
        if (!agree) {
            ++failures;
            ADD_FAILURE() << "mutation " << i << ": " << agree.message();
        }
    }
    EXPECT_EQ(failures, 0u);

    // The mutations must reach every kind of outcome, or the comparison
    // above proves little.
    EXPECT_GT(counts[""], mutations / 50) << "too few mutated lines decode";
    EXPECT_GT(counts["bad json"], mutations / 10);
    for (const char* reason :
         {"bad field: id", "bad field: user", "bad field: type", "bad field: track",
          "bad field: created_at", "bad field: weekend", "missing field: id",
          "missing field: user", "missing field: type", "missing field: track",
          "missing field: created_at"})
        EXPECT_GT(counts[reason], 0u) << reason;
}

} // namespace
