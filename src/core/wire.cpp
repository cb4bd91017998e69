#include "core/wire.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/json_util.hpp"

namespace richnote::core {

namespace {

const char* type_name(trace::notification_type t) noexcept { return trace::to_string(t); }

bool parse_type(std::string_view name, trace::notification_type& out) noexcept {
    if (name == "friend_feed") out = trace::notification_type::friend_feed;
    else if (name == "album_release") out = trace::notification_type::album_release;
    else if (name == "playlist_update") out = trace::notification_type::playlist_update;
    else return false;
    return true;
}

bool fail(std::string* error, std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return false;
}

// ---- parse_wire_line: one pass, straight into the notification ----

/// The keys a wire line may carry. Anything else is `unknown` and ignored.
enum class wire_key : std::uint8_t {
    unknown, id, user, type, track, created_at, social_tie, track_pop, album_pop,
    artist_pop, weekend, daytime, attended, clicked, clicked_at,
};

constexpr const char* key_names[] = {
    "",          "id",        "user",      "type",       "track",
    "created_at", "social_tie", "track_pop", "album_pop", "artist_pop",
    "weekend",   "daytime",   "attended",  "clicked",    "clicked_at",
};

/// Dispatches on the key's length first: at most four keys share one.
wire_key lookup_key(std::string_view k) noexcept {
    switch (k.size()) {
    case 2:
        if (k == "id") return wire_key::id;
        break;
    case 4:
        if (k == "user") return wire_key::user;
        if (k == "type") return wire_key::type;
        break;
    case 5:
        if (k == "track") return wire_key::track;
        break;
    case 7:
        if (k == "weekend") return wire_key::weekend;
        if (k == "daytime") return wire_key::daytime;
        if (k == "clicked") return wire_key::clicked;
        break;
    case 8:
        if (k == "attended") return wire_key::attended;
        break;
    case 9:
        if (k == "track_pop") return wire_key::track_pop;
        if (k == "album_pop") return wire_key::album_pop;
        break;
    case 10:
        if (k == "created_at") return wire_key::created_at;
        if (k == "social_tie") return wire_key::social_tie;
        if (k == "artist_pop") return wire_key::artist_pop;
        if (k == "clicked_at") return wire_key::clicked_at;
        break;
    default: break;
    }
    return wire_key::unknown;
}

/// Decoded bytes of a string with escapes. Only the first 16 are kept: the
/// longest key or type name is 15 bytes, so a longer string matches nothing.
using escape_scratch = char[16];

/// One scalar value of a wire line. `text` is a string's decoded bytes (in
/// the line or an escape_scratch) or a number's raw token (in the line).
struct wire_value {
    enum class kind { string, number, boolean } type = kind::number;
    std::string_view text;
    bool flag = false;        ///< boolean value
    bool digits_only = false; ///< number token made only of 0-9
};

enum class verdict { ok, bad_field, bad_json };

void skip_blanks(const char*& p, const char* end) noexcept {
    while (p != end && (*p == ' ' || *p == '\t')) ++p;
}

int hex_digit(char h) noexcept {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
}

/// Scans the string whose opening quote is at `p`. Without escapes `text`
/// views the line; with them it views `scratch`, or is empty when the
/// decoded string is too long to match any name. \uXXXX decodes to the low
/// byte of its code point, as trace_sink's escapes need.
bool scan_string(const char*& p, const char* end, std::string_view& text,
                 escape_scratch& scratch) noexcept {
    const char* const begin = ++p;
    while (p != end && *p != '"' && *p != '\\') ++p;
    if (p == end) return false;
    if (*p == '"') {
        text = std::string_view(begin, static_cast<std::size_t>(p - begin));
        ++p;
        return true;
    }
    std::size_t n = 0;
    auto put = [&](char c) {
        if (n < sizeof scratch) scratch[n] = c;
        ++n;
    };
    for (const char* q = begin; q != p; ++q) put(*q);
    while (p != end) {
        const char c = *p++;
        if (c == '"') {
            text = n <= sizeof scratch ? std::string_view(scratch, n) : std::string_view();
            return true;
        }
        if (c != '\\') {
            put(c);
            continue;
        }
        if (p == end) return false;
        switch (*p++) {
        case '"': put('"'); break;
        case '\\': put('\\'); break;
        case '/': put('/'); break;
        case 'n': put('\n'); break;
        case 't': put('\t'); break;
        case 'r': put('\r'); break;
        case 'b': put('\b'); break;
        case 'f': put('\f'); break;
        case 'u': {
            if (end - p < 4) return false;
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
                const int h = hex_digit(*p++);
                if (h < 0) return false;
                code = code << 4 | static_cast<unsigned>(h);
            }
            put(static_cast<char>(code & 0xff));
            break;
        }
        default: return false;
        }
    }
    return false;
}

bool is_number_char(char c) noexcept {
    return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
           c == 'E';
}

/// A string, true/false, or a number token: the maximal [-+.eE0-9] run.
bool scan_value(const char*& p, const char* end, wire_value& v,
                escape_scratch& scratch) noexcept {
    skip_blanks(p, end);
    if (p == end) return false;
    if (*p == '"') {
        v.type = wire_value::kind::string;
        return scan_string(p, end, v.text, scratch);
    }
    if (*p == 't' && end - p >= 4 && std::memcmp(p, "true", 4) == 0) {
        v.type = wire_value::kind::boolean;
        v.flag = true;
        p += 4;
        return true;
    }
    if (*p == 'f' && end - p >= 5 && std::memcmp(p, "false", 5) == 0) {
        v.type = wire_value::kind::boolean;
        v.flag = false;
        p += 5;
        return true;
    }
    const char* const begin = p;
    bool digits_only = true;
    for (; p != end && is_number_char(*p); ++p) digits_only &= *p >= '0' && *p <= '9';
    if (p == begin) return false;
    v.type = wire_value::kind::number;
    v.text = std::string_view(begin, static_cast<std::size_t>(p - begin));
    v.digits_only = digits_only;
    return true;
}

/// strtod's reading of a whole token: false when strtod would not consume
/// all of it. from_chars agrees with strtod except that it takes no leading
/// '+' and reports out-of-range values instead of rounding them to inf/0;
/// such a rare token goes to strtod itself.
bool to_double(std::string_view token, double& v) {
    const char* first = token.data();
    const char* const last = first + token.size();
    if (*first == '+' && ++first != last && *first == '-') return false; // "+-5"
    const std::from_chars_result r = std::from_chars(first, last, v);
    if (r.ec == std::errc::invalid_argument || r.ptr != last) return false;
    if (r.ec == std::errc::result_out_of_range) {
        const std::string copy(token);
        v = std::strtod(copy.c_str(), nullptr);
    }
    return true;
}

/// Integer fields (id, user, track). A plain digit run is read exactly as
/// 64 bits; any other numeric form must be an integral double no larger
/// than 2^53, the range where a double still holds every integer.
verdict to_u64(const wire_value& v, std::uint64_t& out) {
    if (v.digits_only) {
        const char* const last = v.text.data() + v.text.size();
        return std::from_chars(v.text.data(), last, out).ec == std::errc{}
                   ? verdict::ok
                   : verdict::bad_field; // past 2^64 - 1
    }
    double num = 0.0;
    if (!to_double(v.text, num)) return verdict::bad_json;
    if (!(num >= 0.0) || num != std::floor(num) || num > 0x1p53) return verdict::bad_field;
    out = static_cast<std::uint64_t>(num);
    return verdict::ok;
}

verdict to_u32(const wire_value& v, std::uint32_t& out) {
    std::uint64_t wide = 0;
    const verdict r = to_u64(v, wide);
    if (r != verdict::ok) return r;
    if (wide > 0xffffffffULL) return verdict::bad_field;
    out = static_cast<std::uint32_t>(wide);
    return verdict::ok;
}

/// Applies one key's rule to its value. A number that strtod would reject
/// is bad JSON whatever its key; a well-formed value of the wrong type or
/// range is a bad field.
verdict decode_field(wire_key key, const wire_value& v, trace::notification& out) {
    switch (v.type) {
    case wire_value::kind::string:
        if (key == wire_key::type)
            return parse_type(v.text, out.type) ? verdict::ok : verdict::bad_field;
        return key == wire_key::unknown ? verdict::ok : verdict::bad_field;
    case wire_value::kind::boolean:
        switch (key) {
        case wire_key::weekend: out.features.weekend = v.flag; return verdict::ok;
        case wire_key::daytime: out.features.daytime = v.flag; return verdict::ok;
        case wire_key::attended: out.attended = v.flag; return verdict::ok;
        case wire_key::clicked: out.clicked = v.flag; return verdict::ok;
        case wire_key::unknown: return verdict::ok;
        default: return verdict::bad_field;
        }
    case wire_value::kind::number: break;
    }
    switch (key) {
    case wire_key::id: return to_u64(v, out.id);
    case wire_key::user: return to_u32(v, out.recipient);
    case wire_key::track: return to_u32(v, out.track);
    default: break;
    }
    double num = 0.0;
    if (!to_double(v.text, num)) return verdict::bad_json;
    switch (key) {
    case wire_key::created_at:
        if (!std::isfinite(num) || num < 0.0) return verdict::bad_field;
        out.created_at = num;
        return verdict::ok;
    case wire_key::social_tie: out.features.social_tie = num; return verdict::ok;
    case wire_key::track_pop: out.features.track_popularity = num; return verdict::ok;
    case wire_key::album_pop: out.features.album_popularity = num; return verdict::ok;
    case wire_key::artist_pop: out.features.artist_popularity = num; return verdict::ok;
    case wire_key::clicked_at: out.clicked_at = num; return verdict::ok;
    case wire_key::unknown: return verdict::ok;
    default: return verdict::bad_field;
    }
}

// ---- parse_thread_count ----

bool is_space(char c) noexcept { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

void skip_space(std::string_view s, std::size_t& pos) noexcept {
    while (pos < s.size() && is_space(s[pos])) ++pos;
}

/// Consumes `token` at `pos` (after optional whitespace).
bool expect(std::string_view s, std::size_t& pos, std::string_view token) noexcept {
    skip_space(s, pos);
    if (s.substr(pos, token.size()) != token) return false;
    pos += token.size();
    return true;
}

/// Consumes a run of decimal digits at `pos` (after optional whitespace);
/// a value past 64 bits saturates.
bool decimal_u64(std::string_view s, std::size_t& pos, std::uint64_t& out) noexcept {
    skip_space(s, pos);
    const char* first = s.data() + pos;
    const char* last = s.data() + s.size();
    const std::from_chars_result r = std::from_chars(first, last, out);
    if (r.ptr == first) return false; // from_chars accepts no sign here, only digits
    if (r.ec == std::errc::result_out_of_range)
        out = std::numeric_limits<std::uint64_t>::max();
    pos += static_cast<std::size_t>(r.ptr - first);
    return true;
}

} // namespace

std::string format_wire_line(const trace::notification& n) {
    std::string out = "{";
    auto key = [&out](const char* k, bool first = false) {
        if (!first) out += ',';
        richnote::obs::json_string(out, k);
        out += ':';
    };
    key("id", true);
    richnote::obs::json_number(out, n.id);
    key("user");
    richnote::obs::json_number(out, static_cast<std::uint64_t>(n.recipient));
    key("type");
    richnote::obs::json_string(out, type_name(n.type));
    key("track");
    richnote::obs::json_number(out, static_cast<std::uint64_t>(n.track));
    key("created_at");
    richnote::obs::json_number(out, n.created_at);
    key("social_tie");
    richnote::obs::json_number(out, n.features.social_tie);
    key("track_pop");
    richnote::obs::json_number(out, n.features.track_popularity);
    key("album_pop");
    richnote::obs::json_number(out, n.features.album_popularity);
    key("artist_pop");
    richnote::obs::json_number(out, n.features.artist_popularity);
    out += ",\"weekend\":";
    out += n.features.weekend ? "true" : "false";
    out += ",\"daytime\":";
    out += n.features.daytime ? "true" : "false";
    out += ",\"attended\":";
    out += n.attended ? "true" : "false";
    out += ",\"clicked\":";
    out += n.clicked ? "true" : "false";
    key("clicked_at");
    richnote::obs::json_number(out, n.clicked_at);
    out += '}';
    return out;
}

bool parse_wire_line(std::string_view line, trace::notification& out, std::string* error) {
    // Grammar of obs::parse_flat_json: blanks are ' ' and '\t', values are
    // flat, and the line must end after the closing brace. A structural
    // error anywhere is "bad json", so the first bad field is only held
    // until the whole line has scanned.
    out = trace::notification{};
    const char* p = line.data();
    const char* const end = p + line.size();
    wire_key first_bad = wire_key::unknown;
    std::uint32_t seen = 0; // bit per wire_key
    escape_scratch scratch{}; // a key's escapes, then its value's

    skip_blanks(p, end);
    if (p == end || *p != '{') return fail(error, "bad json");
    ++p;
    skip_blanks(p, end);
    if (p != end && *p == '}') {
        ++p;
    } else {
        while (true) {
            skip_blanks(p, end);
            std::string_view key_text;
            if (p == end || *p != '"' || !scan_string(p, end, key_text, scratch))
                return fail(error, "bad json");
            const wire_key key = lookup_key(key_text);
            skip_blanks(p, end);
            if (p == end || *p != ':') return fail(error, "bad json");
            ++p;
            wire_value value;
            if (!scan_value(p, end, value, scratch)) return fail(error, "bad json");
            switch (decode_field(key, value, out)) {
            case verdict::ok: seen |= 1u << static_cast<unsigned>(key); break;
            case verdict::bad_field:
                if (first_bad == wire_key::unknown) first_bad = key;
                break;
            case verdict::bad_json: return fail(error, "bad json");
            }
            skip_blanks(p, end);
            if (p == end) return fail(error, "bad json");
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == '}') {
                ++p;
                break;
            }
            return fail(error, "bad json");
        }
    }
    skip_blanks(p, end);
    if (p != end) return fail(error, "bad json");

    if (first_bad != wire_key::unknown)
        return fail(error, std::string("bad field: ") +
                               key_names[static_cast<std::size_t>(first_bad)]);
    for (const wire_key required : {wire_key::id, wire_key::user, wire_key::type,
                                    wire_key::track, wire_key::created_at}) {
        if ((seen & 1u << static_cast<unsigned>(required)) == 0)
            return fail(error, std::string("missing field: ") +
                                   key_names[static_cast<std::size_t>(required)]);
    }
    return true;
}

bool parse_thread_count(std::string_view body, std::uint64_t& threads, std::string* error) {
    std::size_t pos = 0;
    skip_space(body, pos);
    const bool object = pos < body.size() && body[pos] == '{';
    if (object && !(expect(body, pos, "{") && expect(body, pos, "\"threads\"") &&
                    expect(body, pos, ":")))
        return fail(error, "bad threads");
    if (!decimal_u64(body, pos, threads)) return fail(error, "bad threads");
    if (object && !expect(body, pos, "}")) return fail(error, "bad threads");
    skip_space(body, pos);
    if (pos != body.size()) return fail(error, "bad threads");
    return true;
}

} // namespace richnote::core
