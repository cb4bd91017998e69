// richbench — the RichNote benchmark driver (see ../README.md).
//
//   richbench --workload serve_ingest|serve_wide|replay_fig3 --seed N
//             --seconds S --trace 0|1 --richnote PATH --work DIR
//             [--expected FILE]
//
// Untraced (--trace 0) runs measure the end-to-end metrics; traced runs
// (--trace 1) measure the per-layer metrics by timing, from this file, the
// calls the benchmark makes into each module. Every run checks the
// program's outputs. The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; a failed check prints it
// with "correct": false and exits 1.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/service.hpp"
#include "core/wire.hpp"
#include "http.hpp"
#include "pacing.hpp"
#include "passes.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "trace/generator.hpp"

namespace {

using namespace richbench;
namespace core = richnote::core;
using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload shapes. Every count below is fixed, so the inputs of a run are a
// pure function of the seed; only the timing varies.

/// `richnote serve` training workload: small, so set-up is dominated by the
/// fleet (the model serves any fleet size).
constexpr std::size_t serve_train_users = 200;
constexpr std::size_t serve_trees = 10;
constexpr std::size_t serve_threads = 2;
constexpr std::size_t serve_queue_capacity = 1 << 17;
/// Set-ups per untraced run; setup_s is their median. A serve boot takes
/// 0.2-2 s, a replay set-up 1.5-3.5 s.
constexpr int serve_setup_repeats = 5;
constexpr int replay_setup_repeats = 3;

struct serve_shape {
    const char* name;
    std::size_t fleet;
    std::size_t lines_per_post;     ///< open-loop POST size
    std::size_t posts_per_slot;     ///< open-loop POSTs due between consecutive rounds
    double post_rate;               ///< open-loop POSTs per second
    /// 0 = rounds back to back, segment_rounds of them and more until the
    /// segment's last POST has been answered, so ingest always overlaps
    /// rounds however fast they run.
    double round_period_s;
    std::size_t warmup_rounds;      ///< untimed rounds after boot, before any ingest
    /// Timed open-loop + saturation segments of a traced run, at least: its
    /// tail percentiles need 100 rounds and 1000 POSTs (see run_serve).
    std::size_t traced_segments;
    std::size_t segment_rounds;     ///< open-loop rounds per segment (at least, back to back)
    std::size_t segment_posts;      ///< open-loop POSTs per segment
    std::size_t bursts_per_segment; ///< closed-loop saturation bursts per segment
    std::size_t burst_posts;        ///< POSTs per burst (burst_lines_per_post lines each)
    std::size_t pass_slots;         ///< slots fed through the in-process passes
};

/// Saturation bursts send 1000-line POSTs on both serve workloads. With
/// two connections in a closed loop, small POSTs would make ingest_msgs_s a
/// measure of thread wake-up latency, which on a shared virtual machine
/// swings with the host's load; at 1000 lines parsing dominates.
constexpr std::size_t burst_lines_per_post = 1000;
/// Leading segments run in full but are not timed: the first admissions
/// into a fresh fleet pay one-off allocations (queues, dedup sets, pending
/// buffers) that a long-running service has long since paid.
constexpr std::size_t warmup_segments = 1;
constexpr std::size_t min_timed_segments = 2;

// serve_ingest: 100k brokers; 200 POSTs/s x 100 lines = 20k msgs/s open
// loop, one round every 100 ms, so each round admits ~2k items and the
// per-user queues stay short. Segments of 30 rounds, 580 POSTs and 3
// bursts of 40k lines; a traced run times at least 4 (120 rounds, 2320
// POSTs).
constexpr serve_shape serve_ingest_shape{"serve_ingest", 100'000, 100, 20, 200.0, 0.1, 30,
                                         4, 30, 580, 3, 40, 29};
// serve_wide: 1M mostly idle brokers; a trickle of 100 POSTs/s x 100 lines
// (1% of the fleet per second) while rounds run back to back. Segments of
// 500 POSTs over 5 s, at least 20 rounds, and 3 bursts of 40k lines; a
// traced run times at least 5 (100+ rounds, 2500 POSTs, 15 bursts).
constexpr serve_shape serve_wide_shape{"serve_wide", 1'000'000, 100, 25, 100.0, 0.0, 4,
                                       5, 20, 500, 3, 40, 12};

/// replay_fig3: the §V-C week at 10k users, 2 MB/week, threads=2.
constexpr std::size_t replay_users = 10'000;
constexpr std::size_t replay_trees = 30;
constexpr double replay_budget_mb = 2.0;
constexpr std::size_t replay_threads = 2;
/// Timed RichNote replays per untraced run, at least (after a warm-up);
/// x 167 rounds: >= 300 round samples for the logged p90.
constexpr std::size_t replay_min_reps = 2;

// ---------------------------------------------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string richnote;
    std::string work;
    std::string expected;
    bool record = false;
};

/// Everything the result line reports, plus the operation tallies.
class report {
public:
    void metric(const std::string& name, double value, const std::string& unit) {
        if (!std::isfinite(value)) {
            check(false, "metric " + name + " is not finite");
            value = 0.0;
        }
        metrics_[name] = {value, unit};
    }
    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct_ = false;
        std::cerr << "[richbench] CHECK FAILED: " << what << '\n';
    }
    /// One operation against the program (thread-safe).
    void op(bool ok, const std::string& what = {}) {
        attempted_.fetch_add(1, std::memory_order_relaxed);
        if (ok) return;
        failed_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex_);
        if (failures_logged_++ < 10) std::cerr << "[richbench] operation failed: " << what << '\n';
    }
    std::uint64_t attempted() const { return attempted_.load(); }
    std::uint64_t failed() const { return failed_.load(); }
    bool correct() const { return correct_; }

    void print(std::ostream& out) const {
        for (const auto& [name, m] : metrics_) {
            char line[256];
            std::snprintf(line, sizeof line, "%-40s %14.6g %s\n", name.c_str(), m.first,
                          m.second.c_str());
            out << line;
        }
        out << "{\"correct\": " << (correct_ ? "true" : "false")
            << ", \"attempted\": " << attempted() << ", \"failed\": " << failed()
            << ", \"metrics\": {";
        bool first = true;
        for (const auto& [name, m] : metrics_) {
            char value[64];
            std::snprintf(value, sizeof value, "%.17g", m.first);
            out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
                << ", \"unit\": \"" << m.second << "\"}";
            first = false;
        }
        out << "}}" << std::endl;
    }

private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    bool correct_ = true;
    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::mutex mutex_;
    int failures_logged_ = 0;
};

/// Span logs written out when the run ends.
struct span_archive {
    std::vector<std::pair<std::string, std::unique_ptr<span_log>>> logs;
    span_log& add(const std::string& pass, bool enabled) {
        logs.emplace_back(pass, std::make_unique<span_log>(enabled));
        return *logs.back().second;
    }
    void write(const std::string& path) const {
        std::ofstream out(path);
        for (const auto& [pass, log] : logs) log->write_ndjson(out, pass);
        if (!out) throw std::runtime_error("cannot write spans to " + path);
    }
};

// ---------------------------------------------------------------------------
// The server under test.

/// Live server pids, for the signal handler below.
std::array<std::atomic<pid_t>, 4> g_children{};

void track_child(pid_t pid, bool live) {
    for (auto& slot : g_children) {
        pid_t expected = live ? 0 : pid;
        if (slot.compare_exchange_strong(expected, live ? pid : 0)) return;
    }
}

/// The deadline (SIGALRM) or an outside stop (SIGTERM, SIGINT, SIGHUP):
/// take the servers down with this process, then exit.
extern "C" void on_fatal_signal(int sig) {
    for (auto& slot : g_children) {
        const pid_t child = slot.load();
        if (child > 0) {
            ::kill(child, SIGKILL);
            ::waitpid(child, nullptr, 0);
        }
    }
    static const char msg[] = "[richbench] stopped by a signal (SIGALRM = run deadline)\n";
    (void)!::write(2, msg, sizeof msg - 1);
    ::_exit(128 + sig);
}

class server_process {
public:
    server_process(const options& o, const std::string& tag, const std::vector<std::string>& args) {
        const std::string port_file = o.work + "/" + tag + ".port";
        const std::string log_file = o.work + "/" + tag + ".log";
        std::filesystem::remove(port_file);
        std::vector<std::string> argv_s{o.richnote, "serve"};
        argv_s.insert(argv_s.end(), args.begin(), args.end());
        argv_s.push_back("port=0");
        argv_s.push_back("port_file=" + port_file);
        std::vector<char*> argv;
        for (auto& a : argv_s) argv.push_back(a.data());
        argv.push_back(nullptr);

        const auto t0 = clock_type::now();
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        track_child(pid_, true);
        // Ready = the port file holds a whole line (the CLI writes it after
        // the fleet is built and the listener is up).
        for (;;) {
            std::ifstream in(port_file);
            std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
            if (!text.empty() && text.back() == '\n') {
                port_ = static_cast<std::uint16_t>(std::stoul(text));
                break;
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                track_child(pid_, false);
                pid_ = -1;
                throw std::runtime_error("richnote serve exited during start-up (see " + log_file + ")");
            }
            if (seconds_between(t0, clock_type::now()) > 120.0)
                throw std::runtime_error("richnote serve did not start within 120 s");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        boot_s_ = seconds_between(t0, clock_type::now());
    }
    ~server_process() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            track_child(pid_, false);
        }
    }
    server_process(const server_process&) = delete;
    server_process& operator=(const server_process&) = delete;

    std::uint16_t port() const noexcept { return port_; }
    double boot_s() const noexcept { return boot_s_; }
    double peak_rss_mb() const { return richbench::peak_rss_mb(pid_); }
    double cpu_s() const { return cpu_seconds(pid_); }

    /// POST /shutdown and wait 30 s for a clean exit (the destructor
    /// kills a server that is still up).
    void shutdown(report& rep) {
        const http_reply r = http_post(port_, "/shutdown");
        rep.op(r.ok(), "POST /shutdown: " + r.error);
        int status = 0;
        for (int i = 0; i < 3000; ++i) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                track_child(pid_, false);
                pid_ = -1;
                rep.check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                          "richnote serve exited uncleanly");
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        rep.check(false, "richnote serve did not exit after /shutdown");
    }

private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    double boot_s_ = 0.0;
};

std::vector<std::string> serve_args(const options& o, const serve_shape& shape) {
    return {"users=" + std::to_string(serve_train_users),
            "trees=" + std::to_string(serve_trees),
            "seed=" + std::to_string(o.seed),
            "fleet_users=" + std::to_string(shape.fleet),
            "threads=" + std::to_string(serve_threads),
            "queue_capacity=" + std::to_string(serve_queue_capacity)};
}

/// The in-process twin of serve_args.
core::experiment_setup::options serve_setup_options(const options& o) {
    core::experiment_setup::options so;
    so.workload.user_count = serve_train_users;
    so.forest.tree_count = serve_trees;
    so.seed = o.seed;
    return so;
}

core::service_params serve_params(const options& o, const serve_shape& shape, std::size_t threads) {
    core::service_params sp;
    sp.experiment.kind = core::scheduler_kind::richnote;
    sp.experiment.weekly_budget_mb = 10.0; // the CLI's serve default
    sp.experiment.seed = o.seed;
    sp.user_count = shape.fleet;
    sp.worker_threads = threads;
    sp.queue_capacity = serve_queue_capacity;
    return sp;
}

// ---------------------------------------------------------------------------
// HTTP phases.

std::uint64_t accepted_in(const std::string& reply_body) {
    const auto at = reply_body.find("\"accepted\":");
    if (at == std::string::npos) return 0;
    return std::strtoull(reply_body.c_str() + at + 11, nullptr, 10);
}

/// One POST /ingest; counts an operation, checks every line was accepted.
bool post_ingest(std::uint16_t port, const request_stream& s, std::size_t j, report& rep) {
    const http_reply r = http_post(port, "/ingest", s.bodies[j]);
    const bool ok = r.status == 200 && accepted_in(r.body) == s.lines_per_post;
    rep.op(ok, "POST /ingest #" + std::to_string(j) + " -> " + std::to_string(r.status) + " " +
                   r.error + r.body);
    return ok;
}

bool post_round(std::uint16_t port, report& rep) {
    const http_reply r = http_post(port, "/round");
    rep.op(r.ok(), "POST /round -> " + std::to_string(r.status) + " " + r.error);
    return r.ok();
}

struct open_loop_result {
    std::vector<double> ingest_ms;        ///< due -> reply (open-loop latency)
    std::vector<double> ingest_client_us; ///< send -> reply
    std::vector<double> lag_ms;           ///< send - due
    std::vector<double> round_ms;         ///< send -> reply
};

/// Open loop: two sender threads share the POST schedule (run_paced), a
/// third sends POST /round every round_period_s, or back to back when 0
/// (then until the senders are done, and at least `rounds` times).
open_loop_result open_loop(std::uint16_t port, const request_stream& s, std::size_t posts,
                           const serve_shape& shape, std::size_t rounds, report& rep,
                           span_archive& spans, bool traced) {
    constexpr std::size_t senders = 2;
    std::vector<std::vector<paced_request>> sent(senders);
    std::vector<span_log*> logs;
    for (std::size_t t = 0; t <= senders; ++t)
        logs.push_back(&spans.add("http_open_loop." + std::to_string(t), traced));
    open_loop_result out;
    const auto origin = clock_type::now() + std::chrono::milliseconds(20);
    std::atomic<std::size_t> senders_busy{senders};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < senders; ++t) {
        threads.emplace_back([&, t] {
            sent[t] = run_paced(origin, t, senders, posts, shape.post_rate, [&](std::size_t j) {
                const std::int64_t s0 = now_ns();
                post_ingest(port, s, j, rep);
                logs[t]->add("http.ingest", s0, now_ns(), -1, j);
            });
            --senders_busy;
        });
    }
    const bool back_to_back = shape.round_period_s == 0.0;
    threads.emplace_back([&] {
        for (std::size_t k = 0; k < rounds || (back_to_back && senders_busy.load() > 0); ++k) {
            if (!back_to_back) {
                std::this_thread::sleep_until(
                    origin + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>(
                                 static_cast<double>(k) * shape.round_period_s)));
            }
            const std::int64_t s0 = now_ns();
            post_round(port, rep);
            const std::int64_t s1 = now_ns();
            logs[senders]->add("http.round", s0, s1, -1, k);
            out.round_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
        }
    });
    for (auto& th : threads) th.join();
    for (const auto& per : sent) {
        for (const paced_request& r : per) {
            out.ingest_ms.push_back(r.latency_ms());
            out.ingest_client_us.push_back(r.service_ms() * 1e3);
            out.lag_ms.push_back(r.lag_ms());
        }
    }
    return out;
}

/// Closed loop over POSTs [first, first + count): two connections, each
/// sending its next POST when the previous reply arrives. Returns wall s.
double closed_loop(std::uint16_t port, const request_stream& s, std::size_t first,
                   std::size_t count, report& rep, std::vector<double>* client_us) {
    std::atomic<std::size_t> next{first};
    std::mutex mutex;
    const auto t0 = clock_type::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&] {
            std::vector<double> mine;
            for (std::size_t j = next++; j < first + count; j = next++) {
                const auto sent = clock_type::now();
                post_ingest(port, s, j, rep);
                mine.push_back(seconds_between(sent, clock_type::now()) * 1e6);
            }
            if (client_us != nullptr) {
                std::lock_guard<std::mutex> lock(mutex);
                client_us->insert(client_us->end(), mine.begin(), mine.end());
            }
        });
    }
    for (auto& th : threads) th.join();
    return seconds_between(t0, clock_type::now());
}

std::string scrape(std::uint16_t port, report& rep) {
    const http_reply r = http_get(port, "/metrics");
    rep.op(r.ok(), "GET /metrics: " + r.error);
    return r.body;
}

/// Runs rounds until every pending line is admitted, then checks the
/// service's own account of the run against what was sent.
std::string drain_and_check(std::uint16_t port, std::uint64_t lines_sent,
                            std::uint64_t duplicates_sent, report& rep) {
    std::string m = scrape(port, rep);
    for (int extra = 0; extra < 16 && prom_value(m, "richnote_service_pending_items") > 0; ++extra) {
        post_round(port, rep);
        m = scrape(port, rep);
    }
    const double accepted = prom_value(m, "richnote_service_ingest_accepted_total");
    const double admitted = prom_value(m, "richnote_service_admitted_total");
    rep.check(prom_value(m, "richnote_service_pending_items") == 0, "pending_items == 0 after drain");
    rep.check(admitted == accepted, "admitted_total (" + std::to_string(admitted) +
                                        ") == ingest_accepted (" + std::to_string(accepted) + ")");
    rep.check(prom_value(m, "richnote_service_ingest_rejected_parse_total") == 0, "no parse rejects");
    rep.check(prom_value(m, "richnote_service_ingest_rejected_user_total") == 0,
              "no unknown-user rejects");
    rep.check(prom_value(m, "richnote_service_ingest_rejected_backpressure_total") == 0,
              "no backpressure rejects");
    if (rep.failed() == 0) {
        rep.check(accepted == static_cast<double>(lines_sent),
                  "ingest_accepted == lines sent (" + std::to_string(lines_sent) + ")");
        rep.check(prom_value(m, "richnote_faults_duplicates_suppressed_total") ==
                      static_cast<double>(duplicates_sent),
                  "duplicates suppressed == repeated ids sent (" +
                      std::to_string(duplicates_sent) + ")");
    }
    return m;
}

/// The serve request plan: segments of open loop, each followed by its
/// saturation bursts. Interleaving them spreads this host's slow spells
/// (speed drifts over seconds) over every metric instead of one phase.
struct serve_segment {
    request_stream open;
    std::vector<request_stream> bursts;
};

struct serve_plan {
    std::vector<serve_segment> segments;
    std::uint64_t lines = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t ahead = 0;
};

serve_plan make_serve_plan(const options& o, const serve_shape& shape) {
    richnote::trace::workload_params wp;
    wp.user_count = serve_train_users;
    const richnote::trace::workload world(wp, o.seed);

    // --seconds sets the timed open loop's length, in whole segments: at
    // least two, and in a traced run enough for the tail percentiles.
    const double segment_s = static_cast<double>(shape.segment_posts) / shape.post_rate;
    const auto segments = warmup_segments + std::max<std::size_t>(
        o.trace ? shape.traced_segments : min_timed_segments,
        static_cast<std::size_t>(std::ceil(o.seconds / segment_s)));
    serve_plan plan;
    std::size_t round = shape.warmup_rounds;
    std::uint64_t stream_index = 0;
    auto stream = [&](stream_params p) {
        // Distinct ids and an independent random stream per part.
        p.fleet_users = shape.fleet;
        p.first_id = 1 + stream_index * 100'000'000ULL;
        request_stream r = make_stream(world.notifications(), p, o.seed * 1000 + stream_index);
        ++stream_index;
        plan.lines += r.lines;
        plan.duplicates += r.duplicates;
        plan.ahead += r.ahead;
        return r;
    };
    for (std::size_t i = 0; i < segments; ++i) {
        serve_segment seg;
        stream_params p;
        p.lines_per_post = shape.lines_per_post;
        p.lines_per_slot = shape.lines_per_post * shape.posts_per_slot;
        p.posts = shape.segment_posts;
        p.first_slot = round + 1; // due from the segment's second round on
        seg.open = stream(p);
        // Back-to-back rounds may outnumber segment_rounds: the service
        // clock then runs ahead of the later slots, whose lines are
        // admitted at the round after they arrive.
        round += shape.segment_rounds;
        for (std::size_t b = 0; b < shape.bursts_per_segment; ++b) {
            // One slot per burst: due at the drain round that follows it.
            stream_params q;
            q.lines_per_post = burst_lines_per_post;
            q.lines_per_slot = burst_lines_per_post * shape.burst_posts;
            q.posts = shape.burst_posts;
            q.first_slot = round;
            seg.bursts.push_back(stream(q));
            ++round;
        }
        plan.segments.push_back(std::move(seg));
    }
    return plan;
}

// ---------------------------------------------------------------------------
// serve_ingest / serve_wide

void in_process_serve_passes(const options& o, const serve_shape& shape, const request_stream& stream,
                             double boot_s, report& rep, span_archive& spans);

void run_serve(const options& o, const serve_shape& shape, report& rep, span_archive& spans) {
    const auto gen0 = clock_type::now();
    const serve_plan plan = make_serve_plan(o, shape);
    const request_stream& first = plan.segments.front().open;
    std::cerr << "[richbench] " << shape.name << ": " << plan.segments.size() << " segments, "
              << plan.lines << " lines (" << plan.duplicates << " repeats, " << plan.ahead
              << " ahead, recipients Zipf(" << first.zipf_exponent << ") fitted to the trace), "
              << "first digest " << std::hex << first.digest() << std::dec << ", built in "
              << seconds_between(gen0, clock_type::now()) << " s\n";

    // setup_s: the median of identical boots, one server up at a time; the
    // last one stays up as the server under test. The others are killed
    // (and reaped) at once: only the server under test must shut down
    // cleanly.
    std::vector<double> setups;
    for (int i = 1; i < (o.trace ? 1 : serve_setup_repeats); ++i)
        setups.push_back(server_process(o, "setup" + std::to_string(i), serve_args(o, shape)).boot_s());
    server_process srv(o, "serve", serve_args(o, shape));
    setups.push_back(srv.boot_s());
    for (std::size_t k = 0; k < shape.warmup_rounds; ++k) post_round(srv.port(), rep);

    // The gated costs are the server's CPU time (see README.md): over the
    // timed open loops, per round; over the timed bursts, per line.
    open_loop_result ol;
    std::vector<double> burst_rate;
    std::vector<double> sat_client_us;
    double open_cpu_s = 0.0;
    double burst_cpu_s = 0.0;
    std::uint64_t burst_lines = 0;
    for (std::size_t i = 0; i < plan.segments.size(); ++i) {
        const serve_segment& seg = plan.segments[i];
        const bool timed = i >= warmup_segments;
        const double open_cpu0 = srv.cpu_s();
        const open_loop_result part = open_loop(srv.port(), seg.open, seg.open.bodies.size(), shape,
                                                shape.segment_rounds, rep, spans, o.trace && timed);
        if (timed) {
            open_cpu_s += srv.cpu_s() - open_cpu0;
            for (auto [to, from] : {std::pair{&ol.ingest_ms, &part.ingest_ms},
                                    {&ol.ingest_client_us, &part.ingest_client_us},
                                    {&ol.lag_ms, &part.lag_ms},
                                    {&ol.round_ms, &part.round_ms}})
                to->insert(to->end(), from->begin(), from->end());
        }
        for (const request_stream& burst : seg.bursts) {
            const double burst_cpu0 = srv.cpu_s();
            const double wall = closed_loop(srv.port(), burst, 0, burst.bodies.size(), rep,
                                            timed ? &sat_client_us : nullptr);
            if (timed) {
                burst_cpu_s += srv.cpu_s() - burst_cpu0;
                burst_lines += burst.lines;
                burst_rate.push_back(static_cast<double>(burst.lines) / wall);
            }
            post_round(srv.port(), rep);
        }
    }
    const std::string m = drain_and_check(srv.port(), plan.lines, plan.duplicates, rep);
    const double rss = srv.peak_rss_mb();
    const double srv_boot_s = srv.boot_s();
    srv.shutdown(rep);

    const double round_total_s =
        std::accumulate(ol.round_ms.begin(), ol.round_ms.end(), 0.0) / 1e3;
    const auto lag = select_percentile(ol.lag_ms, 0.99);
    std::cerr << "[richbench] open loop: " << ol.ingest_ms.size() << " ingest POSTs, "
              << ol.round_ms.size() << " rounds, " << burst_rate.size()
              << " saturation bursts; generator lag p99 " << lag.value << " ms\n";
    // The wall-clock readings are per-layer metrics: on a shared virtual
    // machine they follow the hypervisor's steal (see README.md), too
    // unsteady from run to run to gate on. Every run logs them.
    const auto p50 = select_percentile(ol.ingest_ms, 0.50);
    const auto r50 = select_percentile(ol.round_ms, 0.50);
    const double user_rounds_s = static_cast<double>(shape.fleet * ol.round_ms.size()) / round_total_s;
    const double msgs_s = median(burst_rate);
    std::cerr << "[richbench] wall clock: ingest_p50_ms " << p50.value << ", round_p50_ms " << r50.value
              << ", ingest_msgs_s " << msgs_s << ", user_rounds_s " << user_rounds_s << '\n';
    if (o.trace) {
        const auto p99 = select_percentile(ol.ingest_ms, 0.99);
        const auto r90 = select_percentile(ol.round_ms, 0.90);
        std::cerr << "[richbench] ingest_p99_ms " << p99.value << " over " << p99.samples
                  << " samples (" << p99.beyond << " beyond); round_p90_ms " << r90.value
                  << " over " << r90.samples << " (" << r90.beyond << " beyond)\n";
        rep.metric("ingest_p99_ms", p99.value, "ms");
        rep.metric("round_p90_ms", r90.value, "ms");
    }
    const double round_cpu_ms = open_cpu_s * 1e3 / static_cast<double>(ol.round_ms.size());
    const double ingest_cpu_us = burst_cpu_s * 1e6 / static_cast<double>(burst_lines);
    std::cerr << "[richbench] server CPU: " << round_cpu_ms << " ms per open-loop round (" << open_cpu_s
              << " s over " << ol.round_ms.size() << "), " << ingest_cpu_us << " us per burst line ("
              << burst_cpu_s << " s over " << burst_lines << ")\n";
    if (!o.trace) {
        rep.metric("setup_s", median(setups), "s");
        rep.metric("round_cpu_ms", round_cpu_ms, "ms");
        rep.metric("ingest_cpu_us", ingest_cpu_us, "us");
        // The UTIL(L3) arm is a replay_fig3 metric. The result must carry
        // every metric, so here it mirrors round_cpu_ms (see README.md).
        rep.metric("util_round_cpu_ms", round_cpu_ms, "ms");
        rep.metric("rss_mb", rss, "MB");
        return;
    }

    // Traced: the wall-clock readings, the HTTP layer from both ends, then
    // the in-process passes.
    rep.metric("ingest_p50_ms", p50.value, "ms");
    rep.metric("ingest_msgs_s", msgs_s, "msg/s");
    rep.metric("round_p50_ms", r50.value, "ms");
    rep.metric("user_rounds_s", user_rounds_s, "user-rounds/s");
    rep.metric("util_user_rounds_s", 0.0, "user-rounds/s"); // one scheduler per server
    std::vector<double> client_us = ol.ingest_client_us;
    client_us.insert(client_us.end(), sat_client_us.begin(), sat_client_us.end());
    const double handler_us = prom_value(m, "richnote_svc_http_duration_us_sum{endpoint=\"ingest\"}") /
                              prom_value(m, "richnote_svc_http_duration_us_count{endpoint=\"ingest\"}");
    const double client_mean = mean(client_us);
    rep.metric("expo_server.ingest_client_us", client_mean, "us");
    rep.metric("expo_server.ingest_handler_us", handler_us, "us");
    rep.metric("expo_server.overhead_us", client_mean - handler_us, "us");
    rep.metric("expo_server.handler_share", handler_us / client_mean, "ratio");
    rep.metric("gen.lag_p99_ms", lag.value, "ms");
    rep.metric("service.http_round_ms", round_total_s * 1e3 / static_cast<double>(ol.round_ms.size()), "ms");
    rep.metric("expo_server.round_handler_ms",
               prom_value(m, "richnote_svc_http_duration_us_sum{endpoint=\"round\"}") /
                   prom_value(m, "richnote_svc_http_duration_us_count{endpoint=\"round\"}") / 1e3,
               "ms");
    in_process_serve_passes(o, shape, first, srv_boot_s, rep, spans);
}

// ---------------------------------------------------------------------------
// Per-layer helpers shared by the traced passes.

/// Checks one pass's self-time ledger, logs it, and (when `layers` is not
/// empty) reports it as <prefix>.<layer>_self_ms metrics.
void report_self_times(report& rep, const std::string& prefix, const span_log& log,
                       const std::vector<std::pair<std::string, std::string>>& layers) {
    const self_times st = compute_self_times(log.spans(), 0);
    rep.check(st.sum_ns() == st.wall_ns, prefix + ": self times sum to wall time");
    std::cerr << "[richbench] " << prefix << " self time (wall " << st.wall_ns / 1e6 << " ms):\n";
    for (const auto& [name, ns] : st.self_ns) {
        std::cerr << "    " << name << ": " << ns / 1e6 << " ms over " << st.calls.at(name)
                  << " spans (" << 100.0 * static_cast<double>(ns) / static_cast<double>(st.wall_ns)
                  << "%)\n";
    }
    if (layers.empty()) return;
    rep.metric(prefix + ".wall_ms", static_cast<double>(st.wall_ns) / 1e6, "ms");
    rep.metric(prefix + ".unattributed_ms", static_cast<double>(st.unattributed_ns) / 1e6, "ms");
    for (const auto& [span_name, metric_name] : layers) {
        const auto it = st.self_ns.find(span_name);
        rep.metric(prefix + "." + metric_name + "_self_ms",
                   it == st.self_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e6, "ms");
    }
}

const std::vector<std::pair<std::string, std::string>> broker_pass_layers{
    {"fleet.build", "fleet_build"},
    {"warmup", "warmup"},
    {"round", "route"},
    {"broker.admit", "admit"},
    {"broker.round_busy", "round_busy"},
    {"broker.round_idle", "round_idle"}};

const std::vector<std::pair<std::string, std::string>> service_pass_layers{
    {"fleet.build", "fleet_build"},
    {"warmup", "warmup"},
    {"wire.parse", "wire_parse"},
    {"service.ingest", "service_ingest"},
    {"service.round", "service_round"},
    {"service.summarize", "service_summarize"}};

void report_broker_pass(report& rep, const broker_pass_result& bp, const span_log& log) {
    rep.metric("broker.admit_us", bp.admits ? bp.admit_ns / static_cast<double>(bp.admits) / 1e3 : 0.0, "us");
    rep.metric("broker.round_idle_us",
               bp.idle_broker_rounds ? bp.idle_ns / static_cast<double>(bp.idle_broker_rounds) / 1e3 : 0.0, "us");
    rep.metric("broker.round_busy_us",
               bp.busy_broker_rounds ? bp.busy_ns / static_cast<double>(bp.busy_broker_rounds) / 1e3 : 0.0, "us");
    rep.metric("broker.busy_frac",
               static_cast<double>(bp.busy_broker_rounds) /
                   static_cast<double>(bp.busy_broker_rounds + bp.idle_broker_rounds),
               "ratio");
    rep.metric("broker.bytes_per_user", bp.fleet_bytes_per_user, "B");
    rep.metric("fleet.build_s", bp.fleet_build_s, "s");
    rep.metric("scheduler.queue_items_mean",
               bp.busy_broker_rounds ? bp.queue_items_sum / static_cast<double>(bp.busy_broker_rounds) : 0.0,
               "items");
    rep.metric("mckp.reused", static_cast<double>(bp.mckp.reused), "count");
    rep.metric("mckp.replayed", static_cast<double>(bp.mckp.replayed), "count");
    rep.metric("mckp.repaired", static_cast<double>(bp.mckp.repaired), "count");
    rep.metric("mckp.cold", static_cast<double>(bp.mckp.cold), "count");
    // Share of the broker pass's round time spent sweeping idle brokers
    // (both single-threaded, so comparable).
    double round_ns = 0.0;
    for (const span& s : log.spans())
        if (std::string_view(s.name) == "round") round_ns += static_cast<double>(s.end_ns - s.start_ns);
    rep.metric("broker.idle_share_of_round", bp.idle_ns / round_ns, "ratio");
    report_self_times(rep, "broker_pass", log, broker_pass_layers);
}

/// ns per item of content_utility_batch on the raw model, in batches of
/// 256: the U_c cost behind admission (a broker scores one item at a time
/// through the same model) and behind the set-up's U_c cache.
double score_ns(const core::content_utility_model& model,
                const std::vector<richnote::trace::notification>& notes) {
    std::vector<const richnote::trace::notification*> ptrs;
    for (const auto& n : notes) ptrs.push_back(&n);
    std::vector<double> out(ptrs.size());
    constexpr std::size_t batch = 256;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < ptrs.size(); i += batch) {
        const std::size_t k = std::min(batch, ptrs.size() - i);
        model.content_utility_batch(std::span(ptrs.data() + i, k), std::span(out.data() + i, k));
    }
    const std::int64_t t1 = now_ns();
    double sink = 0.0;
    for (const double v : out) sink += v;
    if (!(sink >= 0.0)) throw std::runtime_error("scores are not probabilities");
    return static_cast<double>(t1 - t0) / static_cast<double>(ptrs.size());
}

/// Times experiment_setup's steps one by one, replicating it: trace
/// generation, the forest fit and the id-indexed U_c cache. Returns their
/// sum; the caller reports set-up time not covered by them.
double time_setup_steps(const core::experiment_setup::options& so, report& rep) {
    const std::int64_t g0 = now_ns();
    const richnote::trace::workload world(so.workload, so.seed);
    const std::int64_t g1 = now_ns();
    richnote::ml::dataset full = core::make_training_set(world.notifications());
    if (so.max_training_rows > 0 && full.size() > so.max_training_rows) {
        full = full.train_test_split(1.0 - static_cast<double>(so.max_training_rows) /
                                               static_cast<double>(full.size()),
                                     so.seed ^ 0xf0f0f0f0ULL)
                   .first;
    }
    auto forest = std::make_shared<richnote::ml::random_forest>();
    const std::int64_t f0 = now_ns();
    forest->fit(full, so.forest, so.seed ^ 0xabcdef12ULL);
    const std::int64_t f1 = now_ns();
    const core::forest_content_utility model(forest);
    const std::int64_t c0 = now_ns();
    const core::cached_content_utility cache(world.notifications(), model);
    const std::int64_t c1 = now_ns();
    rep.metric("trace.generate_s", static_cast<double>(g1 - g0) / 1e9, "s");
    rep.metric("ml.fit_s", static_cast<double>(f1 - f0) / 1e9, "s");
    rep.metric("utility.cache_s", static_cast<double>(c1 - c0) / 1e9, "s");
    return static_cast<double>((g1 - g0) + (f1 - f0) + (c1 - c0)) / 1e9;
}

/// The set-up ledger: one set-up measured in this run, less its timed steps.
void report_setup_ledger(report& rep, double boot_s, double steps_s) {
    rep.metric("setup.boot_s", boot_s, "s");
    rep.metric("setup.unattributed_s", boot_s - steps_s, "s");
}

void in_process_serve_passes(const options& o, const serve_shape& shape, const request_stream& stream,
                             double boot_s, report& rep, span_archive& spans) {
    const auto so = serve_setup_options(o);
    const double steps_s = time_setup_steps(so, rep);
    const core::experiment_setup setup(so);
    const std::size_t posts = std::min(stream.bodies.size(), shape.pass_slots * shape.posts_per_slot);

    span_log& none = spans.add("service_pass.untraced", false);
    const service_pass_result a =
        run_service_pass(setup, serve_params(o, shape, serve_threads), stream, posts, none);
    rep.op(a.rejected == 0, "service pass rejected lines");
    const service_pass_result one = run_service_pass(setup, serve_params(o, shape, 1), stream, posts, none);
    span_log& slog = spans.add("service_pass", true);
    const service_pass_result c =
        run_service_pass(setup, serve_params(o, shape, serve_threads), stream, posts, slog);
    span_log& blog = spans.add("broker_pass", true);
    const broker_pass_result bp =
        run_broker_pass_service(setup, serve_params(o, shape, serve_threads), stream, posts, blog);

    rep.check(a.pending_end == 0, "service pass drained");
    // The server's set-up = the steps above + constructing the service.
    report_setup_ledger(rep, boot_s, steps_s + a.build_s);
    rep.check(a.result == one.result, "service pass: threads=1 == threads=" +
                                          std::to_string(serve_threads) + " (" + one.result.describe() +
                                          " vs " + a.result.describe() + ")");
    rep.check(a.result == c.result, "service pass: traced == untraced");
    rep.check(a.result == bp.result, "broker pass == service summarize(): " + bp.result.describe() +
                                         " vs " + a.result.describe());
    std::cerr << "[richbench] service pass outcome: " << a.result.describe() << '\n';

    const double rounds_a = std::accumulate(a.round_ms.begin(), a.round_ms.end(), 0.0);
    const double rounds_one = std::accumulate(one.round_ms.begin(), one.round_ms.end(), 0.0);
    rep.metric("worker_pool.speedup", rounds_one / rounds_a, "x");
    // Tracing overhead: the same pass traced vs untraced, fleet build
    // excluded (the first pass also pays the fleet's first-touch faults).
    rep.metric("trace.overhead_frac", (c.wall_s - c.build_s) / (a.wall_s - a.build_s) - 1.0, "ratio");
    const self_times sst = compute_self_times(slog.spans(), 0);
    const auto self_of = [&](const char* n) {
        const auto it = sst.self_ns.find(n);
        return it == sst.self_ns.end() ? 0.0 : static_cast<double>(it->second);
    };
    rep.metric("wire.parse_ns", self_of("wire.parse") / static_cast<double>(c.lines), "ns");
    rep.metric("wire.bytes_per_line", static_cast<double>(c.bytes) / static_cast<double>(c.lines), "B");
    rep.metric("service.ingest_ns", self_of("service.ingest") / static_cast<double>(c.lines), "ns");
    rep.metric("service.pending_peak", static_cast<double>(a.pending_peak), "items");
    rep.metric("service.round_ms", rounds_a / static_cast<double>(a.round_ms.size()), "ms");
    rep.metric("service.admitted_per_round", mean(a.admitted_per_round), "items");
    report_self_times(rep, "service_pass", slog, service_pass_layers);
    report_broker_pass(rep, bp, blog);
    rep.metric("scheduler.util_queue_items_mean", 0.0, "items");

    std::vector<richnote::trace::notification> notes;
    richnote::trace::notification n;
    for (std::size_t j = 0; j < posts; ++j)
        for (const auto line : split_lines(stream.bodies[j]))
            if (core::parse_wire_line(line, n)) notes.push_back(n);
    rep.metric("utility.score_ns", score_ns(setup.raw_model(), notes), "ns");
}

// ---------------------------------------------------------------------------
// replay_fig3

struct replay_expectation {
    std::map<std::string, std::pair<double, double>> by_arm; ///< arm -> (total_utility, delivery_ratio)
};

/// Reads "seed arm total_utility delivery_ratio" lines.
bool load_expected(const std::string& path, std::uint64_t seed, replay_expectation& out) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream row(line);
        std::uint64_t s = 0;
        std::string arm, tu, dr;
        if (!(row >> s >> arm >> tu >> dr)) throw std::runtime_error("bad line in " + path + ": " + line);
        if (s == seed) out.by_arm[arm] = {std::strtod(tu.c_str(), nullptr), std::strtod(dr.c_str(), nullptr)};
    }
    return !out.by_arm.empty();
}

core::experiment_params replay_params(const options& o, bool util, std::size_t threads) {
    core::experiment_params p;
    p.kind = util ? core::scheduler_kind::util : core::scheduler_kind::richnote;
    p.fixed_level = 3;
    p.weekly_budget_mb = replay_budget_mb;
    p.seed = o.seed;
    p.worker_threads = threads;
    return p;
}

core::experiment_setup::options replay_setup_options(const options& o) {
    core::experiment_setup::options so;
    so.workload.user_count = replay_users;
    so.forest.tree_count = replay_trees;
    so.seed = o.seed;
    return so;
}

void check_expected(const options& o, const outcome& rn, const outcome& ut, report& rep) {
    replay_expectation ex;
    if (o.expected.empty() || !load_expected(o.expected, o.seed, ex)) {
        std::cerr << "[richbench] seed " << o.seed
                  << " has no recorded replay values; checked thread and pass agreement only\n";
        return;
    }
    for (const auto& [arm, got] : {std::pair<std::string, outcome>{"richnote", rn}, {"util", ut}}) {
        const auto it = ex.by_arm.find(arm);
        rep.check(it != ex.by_arm.end(), "recorded values for arm " + arm);
        if (it == ex.by_arm.end()) continue;
        rep.check(got.total_utility == it->second.first && got.delivery_ratio == it->second.second,
                  arm + " total_utility/delivery_ratio equal the recorded values for seed " +
                      std::to_string(o.seed) + " (" + got.describe() + ")");
    }
}

/// Prints this seed's replay values in expected_replay.tsv's format.
void record_replay(const options& o) {
    const core::experiment_setup setup(replay_setup_options(o));
    for (const bool util : {false, true}) {
        const replay_run r = run_replay(setup, replay_params(o, util, replay_threads), false);
        std::printf("%llu\t%s\t%.17g\t%.17g\n", static_cast<unsigned long long>(o.seed),
                    util ? "util" : "richnote", r.result.total_utility, r.result.delivery_ratio);
    }
}

void run_replay_workload(const options& o, report& rep, span_archive& spans) {
    const auto so = replay_setup_options(o);
    const double steps_s = o.trace ? time_setup_steps(so, rep) : 0.0;
    std::vector<double> setups;
    std::unique_ptr<core::experiment_setup> setup;
    for (int i = 0; i < (o.trace ? 1 : replay_setup_repeats); ++i) {
        setup.reset();
        const std::int64_t t0 = now_ns();
        setup = std::make_unique<core::experiment_setup>(so);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    const auto rn_p = replay_params(o, false, replay_threads);
    const auto ut_p = replay_params(o, true, replay_threads);

    if (o.trace) {
        const replay_run rn2 = run_replay(*setup, rn_p, true);
        const replay_run ut2 = run_replay(*setup, ut_p, false);
        const replay_run rn1 = run_replay(*setup, replay_params(o, false, 1), false);
        const replay_run ut1 = run_replay(*setup, replay_params(o, true, 1), false);
        span_log& blog = spans.add("broker_pass", true);
        const broker_pass_result bp = run_broker_pass_replay(*setup, rn_p, blog);
        span_log& ulog = spans.add("broker_pass.util", true);
        const broker_pass_result up = run_broker_pass_replay(*setup, ut_p, ulog);
        for (int i = 0; i < 6; ++i) rep.op(true);
        rep.check(rn1.result == rn2.result && ut1.result == ut2.result, "threads=1 == threads=2");
        report_setup_ledger(rep, setups.front(), steps_s);
        rep.check(bp.result == rn2.result, "broker pass == run_experiment (RichNote): " +
                                               bp.result.describe() + " vs " + rn2.result.describe());
        rep.check(up.result == ut2.result, "broker pass == run_experiment (UTIL): " +
                                               up.result.describe() + " vs " + ut2.result.describe());
        check_expected(o, rn2.result, ut2.result, rep);
        rep.metric("worker_pool.speedup", rn1.wall_s / rn2.wall_s, "x");
        rep.metric("round_p50_ms", select_percentile(rn2.round_ms, 0.50).value, "ms");
        rep.metric("round_p90_ms", select_percentile(rn2.round_ms, 0.90).value, "ms");
        rep.metric("user_rounds_s", static_cast<double>(rn2.users * rn2.result.rounds) / rn2.wall_s,
                   "user-rounds/s");
        rep.metric("util_user_rounds_s", static_cast<double>(ut2.users * ut2.result.rounds) / ut2.wall_s,
                   "user-rounds/s");
        rep.metric("trace.overhead_frac", static_cast<double>(compute_self_times(blog.spans(), 0).wall_ns) / 1e9 /
                                              rn1.wall_s - 1.0, "ratio");
        report_broker_pass(rep, bp, blog);
        report_self_times(rep, "broker_pass.util", ulog, {});
        rep.metric("scheduler.util_queue_items_mean",
                   up.busy_broker_rounds ? up.queue_items_sum / static_cast<double>(up.busy_broker_rounds) : 0.0,
                   "items");
        std::vector<richnote::trace::notification> notes;
        for (const auto& s : setup->world().notifications().per_user) {
            notes.insert(notes.end(), s.begin(), s.end());
            if (notes.size() >= 100'000) break;
        }
        rep.metric("utility.score_ns", score_ns(setup->raw_model(), notes), "ns");
        // No HTTP, wire, ring or service round on this workload.
        for (const auto& [name, unit] : std::initializer_list<std::pair<const char*, const char*>>{
                 {"expo_server.ingest_client_us", "us"}, {"expo_server.ingest_handler_us", "us"},
                 {"expo_server.overhead_us", "us"}, {"expo_server.handler_share", "ratio"},
                 {"gen.lag_p99_ms", "ms"}, {"ingest_p50_ms", "ms"}, {"ingest_p99_ms", "ms"},
                 {"ingest_msgs_s", "msg/s"}, {"service.http_round_ms", "ms"},
                 {"expo_server.round_handler_ms", "ms"},
                 {"wire.parse_ns", "ns"}, {"wire.bytes_per_line", "B"},
                 {"service.ingest_ns", "ns"}, {"service.pending_peak", "items"},
                 {"service.round_ms", "ms"}, {"service.admitted_per_round", "items"},
                 {"service_pass.wall_ms", "ms"}, {"service_pass.unattributed_ms", "ms"},
                 {"service_pass.fleet_build_self_ms", "ms"}, {"service_pass.warmup_self_ms", "ms"},
                 {"service_pass.wire_parse_self_ms", "ms"},
                 {"service_pass.service_ingest_self_ms", "ms"},
                 {"service_pass.service_round_self_ms", "ms"},
                 {"service_pass.service_summarize_self_ms", "ms"}})
            rep.metric(name, 0.0, unit);
        return;
    }

    // Untraced: RichNote every repetition, UTIL(L3) (2-3x slower: long
    // backlogs) every other one, until --seconds have passed and at least
    // replay_min_reps times. The first RichNote replay is a warm-up: it is
    // checked but not timed.
    std::vector<double> rn_cpu, ut_cpu, msg_cpu, rn_rate, ut_rate, round_ms;
    outcome rn_first, ut_first;
    const auto t0 = clock_type::now();
    for (std::size_t i = 0; i <= replay_min_reps || seconds_between(t0, clock_type::now()) < o.seconds;
         ++i) {
        const replay_run rn = run_replay(*setup, rn_p, true);
        rep.op(true);
        if (i == 0) rn_first = rn.result;
        rep.check(rn.result == rn_first, "repeated RichNote replays agree");
        if (i > 0) {
            rn_cpu.push_back(rn.cpu_s * 1e3 / static_cast<double>(rn.result.rounds));
            msg_cpu.push_back(rn.cpu_s * 1e6 / static_cast<double>(rn.arrivals));
            rn_rate.push_back(static_cast<double>(rn.users * rn.result.rounds) / rn.wall_s);
            round_ms.insert(round_ms.end(), rn.round_ms.begin(), rn.round_ms.end());
        }
        if (i % 2 != 0) continue;
        const replay_run ut = run_replay(*setup, ut_p, false);
        rep.op(true);
        if (i == 0) ut_first = ut.result;
        rep.check(ut.result == ut_first, "repeated UTIL(L3) replays agree");
        ut_cpu.push_back(ut.cpu_s * 1e3 / static_cast<double>(ut.result.rounds));
        ut_rate.push_back(static_cast<double>(ut.users * ut.result.rounds) / ut.wall_s);
    }
    // Thread-count agreement of the cheap arm here; traced runs check both.
    const replay_run rn1 = run_replay(*setup, replay_params(o, false, 1), false);
    rep.op(true);
    rep.check(rn1.result == rn_first, "RichNote threads=1 == threads=2: " + rn1.result.describe() +
                                          " vs " + rn_first.describe());
    check_expected(o, rn_first, ut_first, rep);
    std::cerr << "[richbench] RichNote " << rn_first.describe() << "\n[richbench] UTIL(L3) "
              << ut_first.describe() << '\n';

    const auto r50 = select_percentile(round_ms, 0.50);
    const auto r90 = select_percentile(round_ms, 0.90);
    std::cerr << "[richbench] " << rn_rate.size() << " timed RichNote and " << ut_rate.size()
              << " UTIL(L3) repetitions over " << r90.samples << " replay rounds\n"
              << "[richbench] wall clock: round_p50_ms " << r50.value << ", round_p90_ms " << r90.value
              << ", user_rounds_s " << median(rn_rate) << ", util_user_rounds_s " << median(ut_rate)
              << '\n';
    rep.metric("setup_s", median(setups), "s");
    rep.metric("round_cpu_ms", median(rn_cpu), "ms");
    rep.metric("util_round_cpu_ms", median(ut_cpu), "ms");
    // ingest_cpu_us is a serve metric; a replay has no ingest. The result
    // must carry every metric, so here it reads the RichNote replay's CPU
    // time per notification replayed, a fixed multiple of round_cpu_ms for
    // a seed (see README.md).
    rep.metric("ingest_cpu_us", median(msg_cpu), "us");
    rep.metric("rss_mb", peak_rss_mb(0), "MB");
}

// ---------------------------------------------------------------------------

/// Aggregate CPU time from /proc/stat: total and stolen by the hypervisor.
struct host_cpu {
    double total = 0.0;
    double steal = 0.0;
};

host_cpu read_host_cpu() {
    std::ifstream in("/proc/stat");
    std::string label;
    host_cpu c;
    in >> label;
    for (int i = 0; i < 8 && in; ++i) {
        double v = 0.0;
        in >> v;
        c.total += v;
        if (i == 7) c.steal = v;
    }
    return c;
}

/// Share of CPU time the hypervisor stole between two readings; a run
/// with a high share measured a contended host.
double steal_frac(const host_cpu& a, const host_cpu& b) {
    return b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0.0;
}

options parse_args(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload") o.workload = value;
        else if (key == "--seed") o.seed = std::stoull(value);
        else if (key == "--seconds") o.seconds = std::stod(value);
        else if (key == "--trace") o.trace = value == "1";
        else if (key == "--richnote") o.richnote = value;
        else if (key == "--work") o.work = value;
        else if (key == "--expected") o.expected = value;
        else if (key == "--record") o.record = value == "1";
        else throw std::runtime_error("unknown argument " + key);
    }
    if (o.richnote.empty() || o.work.empty()) throw std::runtime_error("need --richnote and --work");
    if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
    return o;
}

} // namespace

int main(int argc, char** argv) try {
    const options o = parse_args(argc, argv);
    std::filesystem::create_directories(o.work);
    for (const int sig : {SIGALRM, SIGTERM, SIGINT, SIGHUP}) ::signal(sig, on_fatal_signal);
    // Wake paced senders on time: no timer slack on this process's sleeps.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    // The run deadline: set-up, the --seconds of measurement and the checks
    // fit well inside it.
    ::alarm(static_cast<unsigned>(90.0 + 3.0 * o.seconds));

    if (o.record) {
        if (o.workload != "replay_fig3") throw std::runtime_error("--record applies to replay_fig3");
        record_replay(o);
        return 0;
    }
    report rep;
    span_archive spans;
    const host_cpu cpu0 = read_host_cpu();
    if (o.workload == "serve_ingest") {
        run_serve(o, serve_ingest_shape, rep, spans);
    } else if (o.workload == "serve_wide") {
        run_serve(o, serve_wide_shape, rep, spans);
    } else if (o.workload == "replay_fig3") {
        run_replay_workload(o, rep, spans);
    } else {
        throw std::runtime_error("unknown workload: " + o.workload);
    }
    const double steal = steal_frac(cpu0, read_host_cpu());
    std::cerr << "[richbench] hypervisor steal during the run: " << 100.0 * steal << "% of CPU time\n";
    if (o.trace) {
        rep.metric("host.steal_frac", steal, "ratio");
        rep.metric("failed_frac",
                   static_cast<double>(rep.failed()) / static_cast<double>(std::max<std::uint64_t>(rep.attempted(), 1)),
                   "ratio");
        spans.write(o.work + "/spans-" + o.workload + ".ndjson");
    }
    rep.print(std::cout);
    return rep.correct() && rep.failed() == 0 ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "[richbench] error: " << e.what() << '\n';
    return 2;
}
