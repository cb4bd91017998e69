#include "stream.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "core/wire.hpp"

namespace richbench {

using richnote::trace::notification;

namespace {

constexpr double round_sec = 3600.0;

/// A multiplier coprime to n, so rank -> (rank * a + b) mod n is a bijection.
std::uint64_t coprime_multiplier(std::uint64_t n, std::uint64_t start) {
    std::uint64_t a = start % n;
    if (a < 2) a = 2;
    while (std::gcd(a, n) != 1) ++a;
    return a;
}

} // namespace

std::uint64_t request_stream::digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string& b : bodies) {
        for (const char c : b) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

double fit_zipf_exponent(std::vector<std::size_t> counts) {
    std::erase(counts, 0);
    if (counts.size() < 2) throw std::runtime_error("stream: too few counts to fit a Zipf law");
    std::sort(counts.begin(), counts.end(), std::greater<>());
    const double n = static_cast<double>(counts.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t r = 0; r < counts.size(); ++r) {
        const double x = std::log(static_cast<double>(r + 1));
        const double y = std::log(static_cast<double>(counts[r]));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    return -(n * sxy - sx * sy) / (n * sxx - sx * sx);
}

request_stream make_stream(const richnote::trace::notification_trace& source,
                           const stream_params& p, std::uint64_t seed) {
    if (p.fleet_users == 0 || p.lines_per_post == 0 || p.lines_per_slot == 0 ||
        p.lines_per_slot % p.lines_per_post != 0 || p.first_slot == 0) {
        throw std::runtime_error("stream: bad parameters");
    }
    std::vector<notification> rows;
    std::vector<std::size_t> per_user_counts;
    rows.reserve(source.total_count);
    for (const auto& stream : source.per_user) {
        rows.insert(rows.end(), stream.begin(), stream.end());
        per_user_counts.push_back(stream.size());
    }
    if (rows.empty()) throw std::runtime_error("stream: source trace is empty");

    richnote::rng gen(richnote::mix64(seed ^ 0x5eedf00dULL));
    gen.shuffle(rows);
    // The fleet's skew follows the source trace's: its per-user counts,
    // fitted to a Zipf law, give the exponent over the whole fleet.
    const double exponent = fit_zipf_exponent(std::move(per_user_counts));
    if (!(exponent > 0.0)) throw std::runtime_error("stream: source trace has no per-user skew");
    const richnote::zipf_distribution zipf(p.fleet_users, exponent);
    const std::uint64_t n = p.fleet_users;
    const std::uint64_t mul = coprime_multiplier(n, richnote::mix64(seed) | 1);
    const std::uint64_t add = richnote::mix64(seed ^ 0xadd) % n;

    request_stream out;
    out.lines_per_post = p.lines_per_post;
    out.posts_per_slot = p.lines_per_slot / p.lines_per_post;
    out.first_slot = p.first_slot;
    out.zipf_exponent = exponent;
    out.bodies.reserve(p.posts);

    // Recent fresh lines, for repeats (ring of the last `window` lines).
    constexpr std::size_t window = 512;
    std::vector<std::string> recent;
    recent.reserve(window);
    std::uint64_t next_id = p.first_id;
    std::size_t next_row = 0;
    for (std::size_t j = 0; j < p.posts; ++j) {
        const std::size_t slot = out.slot_of_post(j);
        std::string body;
        for (std::size_t k = 0; k < p.lines_per_post; ++k) {
            if (!recent.empty() && gen.bernoulli(p.duplicate_frac)) {
                body += recent[gen.index(recent.size())];
                body += '\n';
                ++out.duplicates;
                continue;
            }
            notification note = rows[next_row];
            next_row = (next_row + 1) % rows.size();
            note.id = next_id++;
            const auto rank = static_cast<std::uint64_t>(zipf.sample(gen));
            note.recipient = static_cast<richnote::trace::user_id>((rank * mul + add) % n);
            // Due at round `slot`: created_at in ((slot-1)h, slot h], keeping
            // the row's offset within its hour; some land a few rounds ahead.
            const double offset = std::fmod(note.created_at, round_sec);
            double created = static_cast<double>(slot - 1) * round_sec + (round_sec - offset);
            if (gen.bernoulli(p.ahead_frac)) {
                created += round_sec * static_cast<double>(
                                           gen.uniform_int(1, p.max_ahead_rounds));
                ++out.ahead;
            }
            if (note.clicked) note.clicked_at = created + (note.clicked_at - note.created_at);
            note.created_at = created;
            std::string line = richnote::core::format_wire_line(note);
            body += line;
            body += '\n';
            if (recent.size() < window) {
                recent.push_back(std::move(line));
            } else {
                recent[next_id % window] = std::move(line);
            }
        }
        out.lines += p.lines_per_post;
        out.bodies.push_back(std::move(body));
    }
    return out;
}

std::vector<std::string_view> split_lines(const std::string& body) {
    std::vector<std::string_view> lines;
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t eol = body.find('\n', pos);
        if (eol == std::string::npos) eol = body.size();
        if (eol > pos) lines.emplace_back(body.data() + pos, eol - pos);
        pos = eol + 1;
    }
    return lines;
}

} // namespace richbench
