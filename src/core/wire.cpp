#include "core/wire.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "obs/json_util.hpp"
#include "obs/trace_report.hpp"

namespace richnote::core {

namespace {

using richnote::obs::trace_value;

const char* type_name(trace::notification_type t) noexcept { return trace::to_string(t); }

bool parse_type(const std::string& name, trace::notification_type& out) noexcept {
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

/// A non-negative integral number (ids and routing keys).
bool as_u64(const trace_value& v, std::uint64_t& out) noexcept {
    if (v.type != trace_value::kind::number) return false;
    if (!(v.num >= 0.0) || v.num != std::floor(v.num) || v.num > 1.8446744073709552e19)
        return false;
    out = static_cast<std::uint64_t>(v.num);
    return true;
}

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
    std::vector<std::pair<std::string, trace_value>> fields;
    if (!richnote::obs::parse_flat_json(line, fields)) return fail(error, "bad json");

    out = trace::notification{};
    bool have_id = false, have_user = false, have_type = false, have_track = false,
         have_created = false;
    for (const auto& [k, v] : fields) {
        if (k == "id") {
            if (!as_u64(v, out.id)) return fail(error, "bad field: id");
            have_id = true;
        } else if (k == "user") {
            std::uint64_t user = 0;
            if (!as_u64(v, user) || user > 0xffffffffULL)
                return fail(error, "bad field: user");
            out.recipient = static_cast<trace::user_id>(user);
            have_user = true;
        } else if (k == "type") {
            if (v.type != trace_value::kind::string || !parse_type(v.str, out.type))
                return fail(error, "bad field: type");
            have_type = true;
        } else if (k == "track") {
            std::uint64_t track = 0;
            if (!as_u64(v, track) || track > 0xffffffffULL)
                return fail(error, "bad field: track");
            out.track = static_cast<trace::track_id>(track);
            have_track = true;
        } else if (k == "created_at") {
            if (v.type != trace_value::kind::number || !std::isfinite(v.num) || v.num < 0.0)
                return fail(error, "bad field: created_at");
            out.created_at = v.num;
            have_created = true;
        } else if (k == "social_tie") {
            if (v.type != trace_value::kind::number) return fail(error, "bad field: social_tie");
            out.features.social_tie = v.num;
        } else if (k == "track_pop") {
            if (v.type != trace_value::kind::number) return fail(error, "bad field: track_pop");
            out.features.track_popularity = v.num;
        } else if (k == "album_pop") {
            if (v.type != trace_value::kind::number) return fail(error, "bad field: album_pop");
            out.features.album_popularity = v.num;
        } else if (k == "artist_pop") {
            if (v.type != trace_value::kind::number) return fail(error, "bad field: artist_pop");
            out.features.artist_popularity = v.num;
        } else if (k == "weekend") {
            if (v.type != trace_value::kind::boolean) return fail(error, "bad field: weekend");
            out.features.weekend = v.flag;
        } else if (k == "daytime") {
            if (v.type != trace_value::kind::boolean) return fail(error, "bad field: daytime");
            out.features.daytime = v.flag;
        } else if (k == "attended") {
            if (v.type != trace_value::kind::boolean) return fail(error, "bad field: attended");
            out.attended = v.flag;
        } else if (k == "clicked") {
            if (v.type != trace_value::kind::boolean) return fail(error, "bad field: clicked");
            out.clicked = v.flag;
        } else if (k == "clicked_at") {
            if (v.type != trace_value::kind::number) return fail(error, "bad field: clicked_at");
            out.clicked_at = v.num;
        }
        // Unknown keys: ignored, so wire producers can version forward.
    }
    if (!have_id) return fail(error, "missing field: id");
    if (!have_user) return fail(error, "missing field: user");
    if (!have_type) return fail(error, "missing field: type");
    if (!have_track) return fail(error, "missing field: track");
    if (!have_created) return fail(error, "missing field: created_at");
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
