// Embedded, dependency-free HTTP exposition + ingest server (DESIGN.md
// §10/§11).
//
// Read side (unchanged contract): three read-only documents over HTTP/1.1,
// so a multi-hour sweep — or a long-lived `richnote serve` — can be watched
// while it runs:
//
//   GET /metrics   Prometheus text rendering of the last published
//                  metrics_registry (obs/prom_text.hpp)
//   GET /progress  JSON progress_snapshot, as last published
//   GET /healthz   {"status":"ok",...} liveness probe
//
// Write side: POST handlers registered per path (richnote serve mounts its
// NDJSON ingest at POST /ingest). The server stays type-agnostic — a
// handler takes the raw body string and returns (status, body), so obs
// keeps linking only richnote_common and the service types never leak in.
//
// Connections are handled by a small pool of handler threads fed from an
// accepted-fd queue, so a slow or stalled client never blocks other
// scrapers or the ingest stream. Requests are bounded end to end:
//   - request head capped (8 KB) ............ 400 Bad Request
//   - POST without Content-Length ........... 411 Length Required
//   - body above max_body_bytes ............. 413 Payload Too Large
//   - per-socket recv timeout ............... connection dropped
//
// Publication and serving are decoupled: publish_* renders the document
// into a string under a mutex; handler threads only ever copy the latest
// strings, so a slow scraper never blocks the round loop. A batch run
// publishes each round (the progress_listener hook). `richnote serve`
// publishes on scrape instead: its refresh hook (set_refresh_hook) runs
// before /metrics, /progress or a published document is served, and waits
// for the service, so such a scrape may wait up to one round. /healthz
// never waits.
//
// The server binds 127.0.0.1 (scrapes are expected from the same host or
// via a forwarder) and supports port 0 for an ephemeral port — tests bind
// 0 and read the chosen port back with port(). Implemented on plain POSIX
// sockets; no third-party dependency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/progress.hpp"

namespace richnote::obs {

class metrics_registry;

class expo_server final : public progress_listener {
public:
    /// A POST handler's verdict: HTTP status code plus response body
    /// (served as application/json).
    struct post_result {
        int status = 200;
        std::string body;
    };
    using post_handler = std::function<post_result(const std::string& body)>;

    /// Binds and starts serving immediately; throws on bind failure.
    /// `port` 0 picks an ephemeral port (see port()). `handler_threads`
    /// sizes the connection-handling pool (>= 1).
    explicit expo_server(std::uint16_t port, std::size_t handler_threads = 4);
    ~expo_server() override;

    expo_server(const expo_server&) = delete;
    expo_server& operator=(const expo_server&) = delete;

    /// The actually bound port (== constructor arg unless that was 0).
    std::uint16_t port() const noexcept { return port_; }

    /// Mounts `fn` at `POST <path>` (replacing any previous handler). The
    /// handler runs on a connection-handler thread and must be safe to call
    /// from several of them concurrently.
    void set_post_handler(const std::string& path, post_handler fn);

    /// Largest accepted POST body; anything bigger gets 413. Applies to
    /// requests that arrive after the call.
    void set_max_body_bytes(std::size_t bytes);

    /// Renders and installs a new /metrics document (Prometheus text).
    /// Quantile summary gauges are derived from the registry's histograms
    /// on a copy, so the caller's registry is not mutated.
    void publish_metrics(const metrics_registry& registry);

    /// Renders and installs a new /progress document.
    void publish_progress(const progress_snapshot& p);

    /// Installs (or replaces) an extra read-only document served at
    /// `GET <path>` — `richnote serve` mounts its slow-exemplar timelines
    /// at /exemplars this way. The path joins the 404 listing. Built-in
    /// paths (/metrics, /progress, /healthz) cannot be shadowed.
    void publish_document(const std::string& path, const std::string& content_type,
                          std::string body);

    /// Installs `hook`, run on the handler thread before every GET of
    /// /metrics, /progress or a published document — never /healthz or an
    /// unknown path — so the embedding process can publish on demand
    /// rather than after every round. Handler threads may run it
    /// concurrently, so it must serialize itself. Empty (the default)
    /// serves whatever was last published.
    void set_refresh_hook(std::function<void()> hook);

    /// Records the dispatch microarchitecture reported by /healthz (the
    /// server itself cannot see ml::simd — obs links only richnote_common,
    /// so the embedding tool passes the resolved name in).
    void set_uarch(std::string uarch);

    /// progress_listener: refresh both documents from the live run.
    void on_round(const progress_snapshot& p, const metrics_registry& live) override;

    /// Requests served so far (all paths, including 404s) — test hook.
    std::uint64_t requests_served() const noexcept {
        return requests_.load(std::memory_order_relaxed);
    }

    /// Stops the accept loop, drains the handler pool and joins every
    /// thread (idempotent; the destructor calls it).
    void stop();

private:
    void accept_loop();
    void handler_loop();
    void handle_connection(int fd);
    std::string respond_get(const std::string& path) const;
    /// Runs the refresh hook, if one is installed.
    void refresh() const;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic_bool stopping_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::size_t> max_body_bytes_{1 << 20};

    mutable std::mutex content_mutex_;
    std::string metrics_text_;  ///< latest Prometheus document
    std::string progress_json_; ///< latest progress document
    std::string uarch_ = "unknown"; ///< /healthz uarch field
    /// Extra GET documents: path -> (content type, body).
    std::map<std::string, std::pair<std::string, std::string>> documents_;

    mutable std::mutex handlers_mutex_;
    std::map<std::string, post_handler> post_handlers_;
    std::function<void()> refresh_hook_; ///< guarded by handlers_mutex_

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<int> pending_fds_;

    std::thread accept_thread_;
    std::vector<std::thread> handler_threads_;
};

} // namespace richnote::obs
