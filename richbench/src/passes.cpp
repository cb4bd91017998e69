#include "passes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/wire.hpp"
#include "faults/fault_plan.hpp"
#include "obs/progress.hpp"
#include "stats.hpp"

namespace richbench {

namespace core = richnote::core;
using richnote::trace::notification;

namespace {

double ms_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e6; }

outcome summarize(const core::metrics_recorder& m, const std::vector<core::broker>& brokers,
                  std::uint64_t rounds) {
    outcome o;
    o.delivery_ratio = m.delivery_ratio();
    o.total_utility = m.total_utility();
    o.delivered_mb = m.total_bytes_delivered() / 1e6;
    o.utility_clicked = m.total_utility_clicked();
    o.energy_kj = m.total_energy_joules() / 1000.0;
    o.mean_delay_min = m.mean_queuing_delay_sec() / 60.0;
    o.recall = m.recall();
    o.precision = m.precision();
    double queue_total = 0.0;
    for (const core::broker& b : brokers) queue_total += static_cast<double>(b.sched().queue_size());
    o.final_queue_items = queue_total / static_cast<double>(brokers.size());
    o.rounds = rounds;
    o.duplicates_suppressed = m.fault_summary().duplicates_suppressed;
    return o;
}

/// The service's canonical admission order (core/service.cpp): fast class
/// (friend feed) first, then created_at, then id.
bool canonical_before(const notification& a, const notification& b) {
    const int ca = a.type == richnote::trace::notification_type::friend_feed ? 0 : 1;
    const int cb = b.type == richnote::trace::notification_type::friend_feed ? 0 : 1;
    if (ca != cb) return ca < cb;
    if (a.created_at != b.created_at) return a.created_at < b.created_at;
    return a.id < b.id;
}

std::unique_ptr<core::memoized_presentation_generator> make_generator(
    const core::experiment_setup& setup, const core::experiment_params& params) {
    const core::audio_preview_generator base(params.presentation);
    std::vector<double> durations;
    durations.reserve(setup.world().catalog().track_count());
    for (const auto& t : setup.world().catalog().tracks()) durations.push_back(t.duration_sec);
    return std::make_unique<core::memoized_presentation_generator>(base, durations);
}

/// Per-call timing of one broker round, shared by both broker passes: a
/// busy broker (admitted this round or holding a queue) gets its own span;
/// consecutive idle brokers are timed as one span, so the clock is read
/// twice per idle run instead of twice per broker.
class round_timer {
public:
    round_timer(span_log& log, broker_pass_result& out) : log_(log), out_(out) {}

    void begin_round(std::int32_t round_span) { round_span_ = round_span; }

    void admit(core::broker& b, const notification& n) {
        close_idle();
        const std::int64_t t0 = now_ns();
        b.admit(n);
        const std::int64_t t1 = now_ns();
        log_.add("broker.admit", t0, t1, round_span_, n.id);
        out_.admit_ns += static_cast<double>(t1 - t0);
        ++out_.admits;
    }

    void run(core::broker& b, richnote::sim::sim_time now, bool admitted) {
        const std::size_t queue = b.sched().queue_size();
        if (!admitted && queue == 0) {
            if (idle_brokers_ == 0) idle_start_ = now_ns();
            ++idle_brokers_;
            b.run_round(now);
            return;
        }
        close_idle();
        out_.queue_items_sum += static_cast<double>(queue);
        const std::int64_t t0 = now_ns();
        b.run_round(now);
        const std::int64_t t1 = now_ns();
        log_.add("broker.round_busy", t0, t1, round_span_, b.user());
        out_.busy_ns += static_cast<double>(t1 - t0);
        ++out_.busy_broker_rounds;
    }

    void close_idle() {
        if (idle_brokers_ == 0) return;
        const std::int64_t t1 = now_ns();
        log_.add("broker.round_idle", idle_start_, t1, round_span_, idle_brokers_);
        out_.idle_ns += static_cast<double>(t1 - idle_start_);
        out_.idle_broker_rounds += idle_brokers_;
        idle_brokers_ = 0;
    }

private:
    span_log& log_;
    broker_pass_result& out_;
    std::int32_t round_span_ = -1;
    std::uint64_t idle_brokers_ = 0;
    std::int64_t idle_start_ = 0;
};

void collect_mckp(const std::vector<core::broker>& brokers, broker_pass_result& out) {
    for (const core::broker& b : brokers) {
        if (const auto* rs = dynamic_cast<const core::richnote_scheduler*>(&b.sched())) {
            const auto& s = rs->mckp_stats();
            out.mckp.rounds += s.rounds;
            out.mckp.reused += s.reused;
            out.mckp.replayed += s.replayed;
            out.mckp.repaired += s.repaired;
            out.mckp.cold += s.cold;
        }
    }
}

void require_plain(const core::experiment_params& ep) {
    const richnote::faults::fault_plan probe(ep.faults);
    if (ep.online_learning || ep.batch_topic_round_multiplier != 1 || probe.enabled() ||
        ep.transfer_failure_prob != 0.0 || !ep.telemetry_users.empty() || ep.trace != nullptr) {
        throw std::runtime_error("broker pass replicates only the plain paper configuration");
    }
}

class round_clock final : public richnote::obs::progress_listener {
public:
    explicit round_clock(std::vector<double>& out) : out_(out) {}
    void on_round(const richnote::obs::progress_snapshot& p,
                  const richnote::obs::metrics_registry&) override {
        if (p.done) return;
        const std::int64_t t = now_ns();
        // The first call also covers fleet construction; only whole rounds
        // (hook to hook) are recorded.
        if (last_ != 0) out_.push_back(ms_between(last_, t));
        last_ = t;
    }

private:
    std::vector<double>& out_;
    std::int64_t last_ = 0;
};

} // namespace

outcome outcome::of(const core::experiment_result& r) {
    outcome o;
    o.delivery_ratio = r.delivery_ratio;
    o.total_utility = r.total_utility;
    o.delivered_mb = r.delivered_mb;
    o.utility_clicked = r.utility_clicked;
    o.energy_kj = r.energy_kj;
    o.mean_delay_min = r.mean_delay_min;
    o.recall = r.recall;
    o.precision = r.precision;
    o.final_queue_items = r.final_queue_items;
    o.rounds = r.rounds_run;
    o.duplicates_suppressed = r.faults.duplicates_suppressed;
    return o;
}

std::string outcome::describe() const {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "total_utility=%.17g delivery_ratio=%.17g delivered_mb=%.17g energy_kj=%.17g "
                  "delay_min=%.17g queue=%.17g rounds=%llu dup=%llu",
                  total_utility, delivery_ratio, delivered_mb, energy_kj, mean_delay_min,
                  final_queue_items, static_cast<unsigned long long>(rounds),
                  static_cast<unsigned long long>(duplicates_suppressed));
    return buf;
}

replay_run run_replay(const core::experiment_setup& setup, const core::experiment_params& params,
                      bool record_rounds) {
    replay_run run;
    core::experiment_params p = params;
    round_clock clock(run.round_ms);
    if (record_rounds) p.progress = &clock;
    const double c0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    const core::experiment_result r = core::run_experiment(setup, p);
    run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    run.cpu_s = cpu_seconds() - c0;
    run.result = outcome::of(r);
    run.users = setup.world().user_count();
    run.arrivals = setup.world().notifications().total_count;
    return run;
}

service_pass_result run_service_pass(const core::experiment_setup& setup,
                                     const core::service_params& params,
                                     const request_stream& stream, std::size_t posts,
                                     span_log& log) {
    if (posts > stream.bodies.size()) throw std::runtime_error("service pass: stream too short");
    service_pass_result out;
    const std::int64_t t0 = now_ns();
    const std::int32_t root = log.open("service_pass", -1);
    std::unique_ptr<core::notification_service> svc;
    {
        scoped_span s(log, "fleet.build", root);
        svc = std::make_unique<core::notification_service>(setup, params);
    }
    out.build_s = static_cast<double>(now_ns() - t0) / 1e9;
    std::uint64_t admitted_before = 0;
    auto round = [&] {
        const std::int64_t r0 = now_ns();
        {
            scoped_span s(log, "service.round", root, svc->rounds_run());
            svc->run_round();
        }
        out.round_ms.push_back(ms_between(r0, now_ns()));
        const core::service_counters c = svc->counters();
        out.admitted_per_round.push_back(static_cast<double>(c.admitted - admitted_before));
        admitted_before = c.admitted;
    };
    {
        // The rounds before the first slot (round s runs at clock s h, when
        // slot s falls due), as the workload's warm-up: nothing is due yet.
        scoped_span s(log, "warmup", root);
        while (svc->rounds_run() < stream.first_slot) svc->run_round();
        admitted_before = svc->counters().admitted;
    }
    notification note;
    std::size_t j = 0;
    while (j < posts) {
        const std::size_t slot = stream.slot_of_post(j);
        for (; j < posts && stream.slot_of_post(j) == slot; ++j) {
            for (const std::string_view line : split_lines(stream.bodies[j])) {
                ++out.lines;
                out.bytes += line.size() + 1;
                core::notification_service::ingest_status st;
                if (log.enabled()) {
                    bool parsed = false;
                    {
                        scoped_span s(log, "wire.parse", root, out.lines);
                        parsed = core::parse_wire_line(line, note);
                    }
                    if (!parsed) {
                        ++out.rejected;
                        continue;
                    }
                    scoped_span s(log, "service.ingest", root, note.id);
                    st = svc->ingest(note);
                } else {
                    st = svc->ingest_line(line);
                }
                if (st != core::notification_service::ingest_status::accepted) ++out.rejected;
            }
        }
        out.pending_peak = std::max(out.pending_peak, svc->counters().pending);
        round();
    }
    // Drain: lines stamped ahead of their slot become due within
    // max_ahead_rounds more rounds.
    for (int extra = 0; extra < 16 && svc->counters().pending > 0; ++extra) round();
    out.pending_end = svc->counters().pending;
    {
        scoped_span s(log, "service.summarize", root);
        out.result = outcome::of(svc->summarize());
    }
    log.close(root);
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    return out;
}

broker_pass_result run_broker_pass_service(const core::experiment_setup& setup,
                                           const core::service_params& params,
                                           const request_stream& stream, std::size_t posts,
                                           span_log& log) {
    const core::experiment_params& ep = params.experiment;
    require_plain(ep);
    const std::size_t fleet = params.user_count == 0 ? setup.world().user_count() : params.user_count;
    if (posts > stream.bodies.size()) throw std::runtime_error("broker pass: stream too short");

    // Inputs are parsed before the pass: it times brokers, not the wire.
    std::vector<std::vector<notification>> slots;
    for (std::size_t j = 0; j < posts; ++j) {
        const std::size_t s = stream.slot_of_post(j) - stream.first_slot;
        if (slots.size() <= s) slots.resize(s + 1);
        for (const std::string_view line : split_lines(stream.bodies[j])) {
            notification n;
            if (!core::parse_wire_line(line, n)) throw std::runtime_error("broker pass: bad line");
            if (n.recipient >= fleet) throw std::runtime_error("broker pass: unknown user");
            slots[s].push_back(n);
        }
    }

    broker_pass_result out;
    const std::int32_t root = log.open("broker_pass", -1);
    const auto generator = make_generator(setup, ep);
    const richnote::energy::energy_model energy;
    core::metrics_recorder metrics(fleet, ep.presentation.preview_durations_sec.size() + 1);
    std::vector<core::broker> brokers;
    {
        scoped_span s(log, "fleet.build", root);
        const double rss0 = heap_bytes_in_use();
        const std::int64_t b0 = now_ns();
        core::broker_build_context ctx;
        ctx.params = &ep;
        ctx.generator = generator.get();
        ctx.utility = &setup.raw_model();
        ctx.energy = &energy;
        ctx.catalog = &setup.world().catalog();
        ctx.metrics = &metrics;
        ctx.theta = core::round_budget_bytes(ep);
        ctx.battery_horizon = setup.world().params().horizon + ep.round;
        brokers.reserve(fleet);
        for (richnote::trace::user_id u = 0; u < fleet; ++u)
            brokers.push_back(core::make_user_broker(ctx, u, params.expected_admissions_per_user));
        out.fleet_build_s = static_cast<double>(now_ns() - b0) / 1e9;
        out.fleet_bytes_per_user = (heap_bytes_in_use() - rss0) / static_cast<double>(fleet);
    }

    std::vector<std::vector<notification>> pending(fleet);
    std::uint64_t pending_count = 0;
    round_timer timer(log, out);
    richnote::sim::sim_time now = 0.0;
    auto round = [&](const std::vector<notification>* arrivals) {
        const std::int32_t rs = log.open("round", root, out.rounds);
        timer.begin_round(rs);
        if (arrivals != nullptr) {
            for (const notification& n : *arrivals) pending[n.recipient].push_back(n);
            pending_count += arrivals->size();
        }
        for (std::size_t u = 0; u < fleet; ++u) {
            std::vector<notification>& pend = pending[u];
            bool admitted = false;
            if (!pend.empty()) {
                const auto mid = std::stable_partition(
                    pend.begin(), pend.end(),
                    [now](const notification& n) { return n.created_at <= now; });
                if (mid != pend.begin()) {
                    std::stable_sort(pend.begin(), mid, canonical_before);
                    for (auto it = pend.begin(); it != mid; ++it) timer.admit(brokers[u], *it);
                    pending_count -= static_cast<std::uint64_t>(std::distance(pend.begin(), mid));
                    pend.erase(pend.begin(), mid);
                    admitted = true;
                }
            }
            timer.run(brokers[u], now, admitted);
        }
        timer.close_idle();
        log.close(rs);
        ++out.rounds;
        now += ep.round;
    };
    {
        // Warm-up rounds before the first slot: no arrivals, no accounting.
        scoped_span s(log, "warmup", root);
        for (; out.rounds < stream.first_slot; ++out.rounds, now += ep.round)
            for (core::broker& b : brokers) b.run_round(now);
    }
    for (const auto& arrivals : slots) round(&arrivals);
    for (int extra = 0; extra < 16 && pending_count > 0; ++extra) round(nullptr);
    log.close(root);
    out.result = summarize(metrics, brokers, out.rounds);
    collect_mckp(brokers, out);
    return out;
}

broker_pass_result run_broker_pass_replay(const core::experiment_setup& setup,
                                          const core::experiment_params& params,
                                          span_log& log) {
    require_plain(params);
    const auto& world = setup.world();
    const std::size_t users = world.user_count();
    broker_pass_result out;
    const std::int32_t root = log.open("broker_pass", -1);
    const auto generator = make_generator(setup, params);
    const richnote::energy::energy_model energy;
    core::metrics_recorder metrics(users, params.presentation.preview_durations_sec.size() + 1);
    std::vector<core::broker> brokers;
    {
        scoped_span s(log, "fleet.build", root);
        const double rss0 = heap_bytes_in_use();
        const std::int64_t b0 = now_ns();
        core::broker_build_context ctx;
        ctx.params = &params;
        ctx.generator = generator.get();
        ctx.utility = &setup.utility();
        ctx.energy = &energy;
        ctx.catalog = &world.catalog();
        ctx.metrics = &metrics;
        ctx.theta = core::round_budget_bytes(params);
        ctx.battery_horizon = world.params().horizon + params.round;
        brokers.reserve(users);
        for (richnote::trace::user_id u = 0; u < users; ++u)
            brokers.push_back(core::make_user_broker(ctx, u, world.notifications().per_user[u].size()));
        out.fleet_build_s = static_cast<double>(now_ns() - b0) / 1e9;
        out.fleet_bytes_per_user = (heap_bytes_in_use() - rss0) / static_cast<double>(users);
    }

    // run_experiment's admission: each round, every user's due friend-feed
    // items (stream order), then its due album/playlist items.
    std::vector<std::vector<std::size_t>> fast(users), batch(users);
    for (std::size_t u = 0; u < users; ++u) {
        const auto& stream = world.notifications().per_user[u];
        for (std::size_t i = 0; i < stream.size(); ++i)
            (stream[i].type == richnote::trace::notification_type::friend_feed ? fast : batch)[u]
                .push_back(i);
    }
    std::vector<std::size_t> fast_cursor(users, 0), batch_cursor(users, 0);
    const auto total_rounds =
        static_cast<std::uint64_t>(std::ceil(world.params().horizon / params.round)) + 1;

    round_timer timer(log, out);
    richnote::sim::sim_time now = 0.0;
    for (std::uint64_t tick = 0; tick < total_rounds; ++tick) {
        const std::int32_t rs = log.open("round", root, tick);
        timer.begin_round(rs);
        for (std::size_t u = 0; u < users; ++u) {
            const auto& stream = world.notifications().per_user[u];
            bool admitted = false;
            auto admit_due = [&](const std::vector<std::size_t>& index, std::size_t& cursor) {
                while (cursor < index.size() && stream[index[cursor]].created_at <= now) {
                    timer.admit(brokers[u], stream[index[cursor]]);
                    ++cursor;
                    admitted = true;
                }
            };
            admit_due(fast[u], fast_cursor[u]);
            admit_due(batch[u], batch_cursor[u]);
            timer.run(brokers[u], now, admitted);
        }
        timer.close_idle();
        log.close(rs);
        ++out.rounds;
        now += params.round;
    }
    log.close(root);
    out.result = summarize(metrics, brokers, out.rounds);
    collect_mckp(brokers, out);
    return out;
}

} // namespace richbench
