// Embedded exposition server tests: ephemeral-port bind, /metrics in valid
// Prometheus text that reconciles with the published registry, /progress
// and /healthz JSON, the 400/404/405/411/413 error paths, POST handler
// mounting, and concurrent connections against the handler pool. The
// client is a plain blocking POSIX socket — the same thing curl would do.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/expo_server.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prom_text.hpp"

namespace {

using richnote::obs::expo_server;
using richnote::obs::metrics_registry;
using richnote::obs::progress_snapshot;

/// One-shot HTTP request against 127.0.0.1:port; returns the raw response.
std::string http_get(std::uint16_t port, const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char chunk[2048];
    ssize_t n = 0;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
        response.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

/// Sends `pieces` as separate writes (no Nagle coalescing, a short pause
/// between them) and returns the raw response.
std::string http_send_pieces(std::uint16_t port, const std::vector<std::string>& pieces) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    for (const std::string& piece : pieces) {
        EXPECT_EQ(::send(fd, piece.data(), piece.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(piece.size()));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::string response;
    char chunk[2048];
    ssize_t n = 0;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
        response.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

std::string get_path(std::uint16_t port, const std::string& path) {
    return http_get(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

std::string http_post(std::uint16_t port, const std::string& path,
                      const std::string& body) {
    return http_get(port, "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body);
}

std::string body_of(const std::string& response) {
    const auto split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string() : response.substr(split + 4);
}

bool valid_metric_name(const std::string& name) {
    if (name.empty() || (std::isdigit(static_cast<unsigned char>(name[0])) != 0))
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok) return false;
    }
    return true;
}

/// Prometheus text-format 0.0.4 grammar: every line is a comment or
/// `name[{labels}] value`, every sample's name is announced by a # TYPE.
void expect_valid_prometheus(const std::string& text) {
    std::istringstream lines(text);
    std::string line;
    std::set<std::string> typed;
    std::size_t samples = 0;
    while (std::getline(lines, line)) {
        if (line.empty()) continue;
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream fields(line.substr(7));
            std::string name;
            std::string kind;
            fields >> name >> kind;
            EXPECT_TRUE(valid_metric_name(name)) << line;
            EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
                << line;
            typed.insert(name);
            continue;
        }
        if (line[0] == '#') continue; // HELP or other comment
        // Sample line: name or name{labels}, one space, a float.
        const std::size_t brace = line.find('{');
        const std::size_t space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        std::string name = line.substr(0, std::min(brace, space));
        EXPECT_TRUE(valid_metric_name(name)) << line;
        // Histogram series (_bucket/_sum/_count) are announced under the
        // base name.
        for (const char* suffix : {"_bucket", "_sum", "_count"}) {
            if (name.size() > std::strlen(suffix) &&
                name.rfind(suffix) == name.size() - std::strlen(suffix) &&
                typed.count(name.substr(0, name.size() - std::strlen(suffix))) > 0) {
                name.resize(name.size() - std::strlen(suffix));
                break;
            }
        }
        EXPECT_EQ(typed.count(name), 1u) << "sample without # TYPE: " << line;
        const std::string value = line.substr(line.rfind(' ') + 1);
        char* end = nullptr;
        std::strtod(value.c_str(), &end);
        EXPECT_TRUE(end != nullptr && *end == '\0') << line;
        ++samples;
    }
    EXPECT_GT(samples, 0u);
}

TEST(expo_server_suite, binds_an_ephemeral_port_and_serves_healthz) {
    expo_server server(0);
    ASSERT_GT(server.port(), 0);
    const std::string response = get_path(server.port(), "/healthz");
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("application/json"), std::string::npos);
    // Build identity rides along with liveness (ISSUE 10 satellite):
    // git describe, build type and compiler from the configure-time
    // manifest, plus the runtime-settable uarch.
    const std::string body = body_of(response);
    EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
    EXPECT_NE(body.find("\"git_describe\":"), std::string::npos) << body;
    EXPECT_NE(body.find("\"build_type\":"), std::string::npos) << body;
    EXPECT_NE(body.find("\"compiler\":"), std::string::npos) << body;
    EXPECT_NE(body.find("\"uarch\":\"unknown\""), std::string::npos) << body;
    EXPECT_EQ(body.back(), '\n');
    EXPECT_GE(server.requests_served(), 1u);

    server.set_uarch("x86-64/avx2");
    EXPECT_NE(body_of(get_path(server.port(), "/healthz")).find("\"uarch\":\"x86-64/avx2\""),
              std::string::npos);
}

TEST(expo_server_suite, published_documents_are_served_and_listed_in_404) {
    expo_server server(0);
    server.publish_document("/exemplars", "application/json", "{\"exemplars\":[]}\n");
    const std::string response = get_path(server.port(), "/exemplars");
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("application/json"), std::string::npos);
    EXPECT_EQ(body_of(response), "{\"exemplars\":[]}\n");

    // Republishing replaces the body atomically.
    server.publish_document("/exemplars", "application/json", "{\"exemplars\":[1]}\n");
    EXPECT_EQ(body_of(get_path(server.port(), "/exemplars")), "{\"exemplars\":[1]}\n");

    // The 404 listing names every served path, documents and POST mounts
    // included.
    server.set_post_handler("/ingest", [](const std::string&) {
        return expo_server::post_result{200, "{}\n"};
    });
    const std::string miss = body_of(get_path(server.port(), "/nope"));
    EXPECT_NE(miss.find("/healthz"), std::string::npos) << miss;
    EXPECT_NE(miss.find("/metrics"), std::string::npos) << miss;
    EXPECT_NE(miss.find("/progress"), std::string::npos) << miss;
    EXPECT_NE(miss.find("/exemplars"), std::string::npos) << miss;
    EXPECT_NE(miss.find("POST"), std::string::npos) << miss;
    EXPECT_NE(miss.find("/ingest"), std::string::npos) << miss;

    // Builtins cannot be shadowed by a document.
    EXPECT_THROW(server.publish_document("/metrics", "text/plain", "x"),
                 richnote::precondition_error);
    EXPECT_THROW(server.publish_document("no-slash", "text/plain", "x"),
                 richnote::precondition_error);
}

TEST(expo_server_suite, metrics_render_as_valid_prometheus_and_reconcile) {
    expo_server server(0);
    metrics_registry registry;
    registry.count("richnote.delivery.delivered_total", 42);
    registry.count("richnote.faults.retries_total", 7);
    registry.gauge_set("richnote.run.delivery_ratio", 0.625);
    registry.make_histogram("richnote.sched.plan_latency_us", {10.0, 100.0});
    registry.observe("richnote.sched.plan_latency_us", 5.0);
    registry.observe("richnote.sched.plan_latency_us", 50.0);
    registry.observe("richnote.sched.plan_latency_us", 500.0);
    server.publish_metrics(registry);

    const std::string response = get_path(server.port(), "/metrics");
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
    const std::string body = body_of(response);
    expect_valid_prometheus(body);

    // The scrape carries the registry's exact values...
    EXPECT_NE(body.find("richnote_delivery_delivered_total 42"), std::string::npos)
        << body;
    EXPECT_NE(body.find("richnote_faults_retries_total 7"), std::string::npos);
    EXPECT_NE(body.find("richnote_run_delivery_ratio 0.625"), std::string::npos);
    // ...cumulative histogram buckets with an +Inf terminator...
    EXPECT_NE(body.find("richnote_sched_plan_latency_us_bucket{le=\"10\"} 1"),
              std::string::npos);
    EXPECT_NE(body.find("richnote_sched_plan_latency_us_bucket{le=\"100\"} 2"),
              std::string::npos);
    EXPECT_NE(body.find("richnote_sched_plan_latency_us_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(body.find("richnote_sched_plan_latency_us_count 3"), std::string::npos);
    // ...and the derived quantile summary gauges (publishing must not have
    // mutated the caller's registry to produce them).
    EXPECT_NE(body.find("richnote_sched_plan_latency_us_p50"), std::string::npos);
    EXPECT_EQ(registry.gauge_count(), 1u);
}

TEST(expo_server_suite, progress_updates_round_by_round) {
    expo_server server(0);
    progress_snapshot snap;
    snap.round = 17;
    snap.total_rounds = 168;
    snap.users = 200;
    snap.rounds_per_sec = 250.0;
    snap.queue_items_total = 90.0;
    server.publish_progress(snap);

    std::string body = body_of(get_path(server.port(), "/progress"));
    EXPECT_NE(body.find("\"round\":17"), std::string::npos) << body;
    EXPECT_NE(body.find("\"total_rounds\":168"), std::string::npos);
    EXPECT_NE(body.find("\"users\":200"), std::string::npos);
    EXPECT_NE(body.find("\"done\":false"), std::string::npos);

    snap.round = 168;
    snap.done = true;
    server.publish_progress(snap);
    body = body_of(get_path(server.port(), "/progress"));
    EXPECT_NE(body.find("\"round\":168"), std::string::npos);
    EXPECT_NE(body.find("\"done\":true"), std::string::npos);
}

TEST(expo_server_suite, unknown_paths_and_methods_are_rejected) {
    expo_server server(0);
    EXPECT_NE(get_path(server.port(), "/nope").find("404"), std::string::npos);
    // POST is a supported method now, but nothing is mounted at /metrics.
    EXPECT_NE(http_post(server.port(), "/metrics", "x").find("404"), std::string::npos);
    EXPECT_NE(http_get(server.port(), "PUT /metrics HTTP/1.1\r\n\r\n").find("405"),
              std::string::npos);
    // A query string is stripped, not 404ed.
    EXPECT_NE(get_path(server.port(), "/healthz?x=1").find("200 OK"),
              std::string::npos);
    server.stop();
    server.stop(); // idempotent
}

TEST(expo_server_suite, malformed_and_oversized_requests_are_bounded) {
    expo_server server(0);
    // Garbage request line.
    EXPECT_NE(http_get(server.port(), "???\r\n\r\n").find("400"), std::string::npos);
    // A head that can never fit the cap is cut off with 400, not buffered
    // forever.
    const std::string huge_header =
        "GET / HTTP/1.1\r\nX-Filler: " + std::string(64 * 1024, 'a') + "\r\n\r\n";
    EXPECT_NE(http_get(server.port(), huge_header).find("400"), std::string::npos);
    // POST bodies require a Content-Length...
    server.set_post_handler(
        "/echo", [](const std::string& body) {
            return expo_server::post_result{200, body};
        });
    EXPECT_NE(http_get(server.port(), "POST /echo HTTP/1.1\r\n\r\nhello").find("411"),
              std::string::npos);
    // ...a parsable one...
    EXPECT_NE(http_get(server.port(),
                       "POST /echo HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
                  .find("400"),
              std::string::npos);
    // ...and one under the configured cap.
    server.set_max_body_bytes(16);
    EXPECT_NE(http_post(server.port(), "/echo", std::string(17, 'x')).find("413"),
              std::string::npos);
    const std::string ok = http_post(server.port(), "/echo", "0123456789");
    EXPECT_NE(ok.find("200 OK"), std::string::npos);
    EXPECT_EQ(body_of(ok), "0123456789");
}

TEST(expo_server_suite, post_handler_status_is_passed_through) {
    expo_server server(0);
    server.set_post_handler("/ingest", [](const std::string& body) {
        if (body == "full") return expo_server::post_result{503, "{\"backoff\":true}\n"};
        return expo_server::post_result{202, "{\"accepted\":1}\n"};
    });
    EXPECT_NE(http_post(server.port(), "/ingest", "line").find("202"),
              std::string::npos);
    EXPECT_NE(http_post(server.port(), "/ingest", "full").find("503"),
              std::string::npos);
}

TEST(expo_server_suite, post_bodies_arrive_whole_across_writes_and_stop_at_length) {
    expo_server server(0);
    server.set_post_handler("/echo", [](const std::string& body) {
        return expo_server::post_result{200, body};
    });
    std::string body;
    for (int i = 0; body.size() < 5000; ++i) body += "line " + std::to_string(i) + "\n";
    const std::string head = "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n";

    // The head and then the body trickle in over many small writes.
    std::vector<std::string> pieces = {head.substr(0, 10), head.substr(10)};
    for (std::size_t at = 0; at < body.size(); at += 97) pieces.push_back(body.substr(at, 97));
    const std::string trickled = http_send_pieces(server.port(), pieces);
    EXPECT_NE(trickled.find("200 OK"), std::string::npos);
    EXPECT_EQ(body_of(trickled), body);

    // Bytes pipelined past Content-Length are not part of the body, whether
    // they arrive with the head or with the body's tail.
    const std::string next = "GET /healthz HTTP/1.1\r\n\r\n";
    for (const auto& split : {std::vector<std::string>{head + body + next},
                              std::vector<std::string>{head + body.substr(0, 100),
                                                       body.substr(100) + next}}) {
        const std::string r = http_send_pieces(server.port(), split);
        EXPECT_NE(r.find("200 OK"), std::string::npos);
        EXPECT_EQ(body_of(r), body);
    }
}

TEST(expo_server_suite, the_refresh_hook_runs_before_published_reads_only) {
    expo_server server(0);
    server.publish_document("/exemplars", "application/json", "{}\n");
    server.set_post_handler("/echo", [](const std::string& body) {
        return expo_server::post_result{200, body};
    });
    std::atomic<int> refreshes{0};
    server.set_refresh_hook([&] {
        const int n = ++refreshes;
        metrics_registry registry;
        registry.count("richnote.service.rounds_total", static_cast<std::uint64_t>(n));
        server.publish_metrics(registry);
        progress_snapshot p;
        p.round = static_cast<std::uint64_t>(n);
        server.publish_progress(p);
        server.publish_document("/exemplars", "application/json",
                                "{\"refresh\":" + std::to_string(n) + "}\n");
    });

    // Liveness, unknown paths and POSTs never wait on the hook.
    EXPECT_NE(get_path(server.port(), "/healthz").find("200 OK"), std::string::npos);
    EXPECT_NE(get_path(server.port(), "/nope").find("404"), std::string::npos);
    EXPECT_EQ(body_of(http_post(server.port(), "/echo", "x")), "x");
    EXPECT_EQ(refreshes.load(), 0);

    // Each published read runs it first and serves what it published.
    EXPECT_NE(body_of(get_path(server.port(), "/metrics"))
                  .find("richnote_service_rounds_total 1\n"),
              std::string::npos);
    EXPECT_EQ(refreshes.load(), 1);
    EXPECT_NE(body_of(get_path(server.port(), "/progress")).find("{\"round\":2,"),
              std::string::npos);
    EXPECT_EQ(refreshes.load(), 2);
    EXPECT_EQ(body_of(get_path(server.port(), "/exemplars")), "{\"refresh\":3}\n");
    EXPECT_EQ(refreshes.load(), 3);

    // Without a hook the last published documents are served as they are.
    server.set_refresh_hook(nullptr);
    EXPECT_NE(body_of(get_path(server.port(), "/metrics"))
                  .find("richnote_service_rounds_total 3\n"),
              std::string::npos);
    EXPECT_EQ(refreshes.load(), 3);
}

TEST(expo_server_suite, concurrent_scrapes_refresh_under_the_callers_lock) {
    // The hook serializes itself on a mutex standing in for the service
    // mutex, which a round driver holds while it advances the round.
    expo_server server(0, /*handler_threads=*/4);
    std::mutex service_mutex;
    std::uint64_t round = 0;
    server.set_refresh_hook([&] {
        std::lock_guard<std::mutex> lock(service_mutex);
        metrics_registry registry;
        registry.count("richnote.service.rounds_total", round);
        server.publish_metrics(registry);
        progress_snapshot p;
        p.round = round;
        server.publish_progress(p);
    });

    constexpr int scrapers = 6;
    constexpr int scrapes_each = 10;
    constexpr std::uint64_t rounds = 20;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        for (std::uint64_t r = 0; r < rounds; ++r) {
            {
                std::lock_guard<std::mutex> lock(service_mutex);
                ++round;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
    });
    for (int c = 0; c < scrapers; ++c) {
        threads.emplace_back([&, c] {
            // Published documents only move forward, so each scraper sees
            // a non-decreasing round.
            std::uint64_t last = 0;
            for (int i = 0; i < scrapes_each; ++i) {
                const bool metrics = (c + i) % 2 == 0;
                const std::string r = get_path(server.port(), metrics ? "/metrics" : "/progress");
                const std::string body = body_of(r);
                const std::string key =
                    metrics ? "\nrichnote_service_rounds_total " : "{\"round\":";
                const auto at = body.find(key);
                if (r.find("200 OK") == std::string::npos || at == std::string::npos) {
                    ++failures;
                    continue;
                }
                const std::uint64_t seen = std::strtoull(body.c_str() + at + key.size(),
                                                         nullptr, 10);
                if (seen < last || seen > rounds) ++failures;
                last = seen;
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_NE(body_of(get_path(server.port(), "/progress")).find("{\"round\":20,"),
              std::string::npos);
}

TEST(expo_server_suite, serves_concurrent_connections) {
    expo_server server(0, /*handler_threads=*/4);
    metrics_registry registry;
    registry.count("richnote.delivery.delivered_total", 1);
    server.publish_metrics(registry);
    server.set_post_handler("/echo", [](const std::string& body) {
        return expo_server::post_result{200, body};
    });

    constexpr int clients = 8;
    constexpr int requests_each = 5;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (int i = 0; i < requests_each; ++i) {
                if (c % 2 == 0) {
                    const std::string r = get_path(server.port(), "/metrics");
                    if (r.find("200 OK") == std::string::npos) ++failures;
                } else {
                    const std::string payload =
                        "c" + std::to_string(c) + "i" + std::to_string(i);
                    const std::string r = http_post(server.port(), "/echo", payload);
                    if (r.find("200 OK") == std::string::npos ||
                        body_of(r) != payload)
                        ++failures;
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(server.requests_served(),
              static_cast<std::uint64_t>(clients * requests_each));
}

} // namespace
