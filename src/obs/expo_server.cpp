#include "obs/expo_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <sstream>

#include "common/error.hpp"
#include "obs/build_info.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prom_text.hpp"

namespace richnote::obs {

namespace {

constexpr std::size_t max_head_bytes = 8192;

const char* reason_phrase(int status) noexcept {
    switch (status) {
        case 200: return "200 OK";
        case 202: return "202 Accepted";
        case 400: return "400 Bad Request";
        case 404: return "404 Not Found";
        case 405: return "405 Method Not Allowed";
        case 411: return "411 Length Required";
        case 413: return "413 Payload Too Large";
        case 503: return "503 Service Unavailable";
        default: return "500 Internal Server Error";
    }
}

std::string http_response(int status, const char* content_type, const std::string& body) {
    std::string out = "HTTP/1.1 ";
    out += reason_phrase(status);
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: " + std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

void close_quietly(int fd) noexcept {
    if (fd >= 0) ::close(fd);
}

void send_all(int fd, const std::string& reply) noexcept {
    std::size_t sent = 0;
    while (sent < reply.size()) {
        const ssize_t n =
            ::send(fd, reply.data() + sent, reply.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
}

/// Case-insensitive Content-Length lookup over the raw head. Returns false
/// when absent; `value` false-positive guards (non-numeric) map to 400 at
/// the caller.
bool find_content_length(const std::string& head, std::size_t& value, bool& malformed) {
    malformed = false;
    std::size_t pos = 0;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string::npos) eol = head.size();
        const std::string_view line(head.data() + pos, eol - pos);
        const std::size_t colon = line.find(':');
        if (colon != std::string_view::npos) {
            std::string name(line.substr(0, colon));
            std::transform(name.begin(), name.end(), name.begin(),
                           [](unsigned char c) { return std::tolower(c); });
            if (name == "content-length") {
                std::string_view v = line.substr(colon + 1);
                while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
                while (!v.empty() && (v.back() == ' ' || v.back() == '\r'))
                    v.remove_suffix(1);
                value = 0;
                if (v.empty()) {
                    malformed = true;
                    return false;
                }
                for (const char c : v) {
                    if (c < '0' || c > '9') {
                        malformed = true;
                        return false;
                    }
                    if (value > (std::size_t(-1) - 9) / 10) { // overflow: huge
                        value = std::size_t(-1);
                        return true;
                    }
                    value = value * 10 + static_cast<std::size_t>(c - '0');
                }
                return true;
            }
        }
        pos = eol + 2;
        if (eol == head.size()) break;
    }
    return false;
}

} // namespace

expo_server::expo_server(std::uint16_t port, std::size_t handler_threads) {
    RICHNOTE_REQUIRE(handler_threads >= 1, "expo_server needs at least one handler");
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    RICHNOTE_REQUIRE(listen_fd_ >= 0, "expo_server: socket() failed");
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        const int err = errno;
        close_quietly(listen_fd_);
        RICHNOTE_REQUIRE(false, std::string("expo_server: cannot bind port ") +
                                    std::to_string(port) + ": " + std::strerror(err));
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    if (::listen(listen_fd_, 64) != 0) {
        close_quietly(listen_fd_);
        RICHNOTE_REQUIRE(false, "expo_server: listen() failed");
    }

    progress_json_ = "{\"round\":0,\"done\":false}\n";
    accept_thread_ = std::thread([this] { accept_loop(); });
    handler_threads_.reserve(handler_threads);
    for (std::size_t i = 0; i < handler_threads; ++i) {
        handler_threads_.emplace_back([this] { handler_loop(); });
    }
}

expo_server::~expo_server() { stop(); }

void expo_server::stop() {
    if (stopping_.exchange(true)) return; // already stopped (or stopping)
    queue_cv_.notify_all();
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& t : handler_threads_) {
        if (t.joinable()) t.join();
    }
    // Drain any fds accepted but never handled.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const int fd : pending_fds_) close_quietly(fd);
    pending_fds_.clear();
    close_quietly(listen_fd_);
    listen_fd_ = -1;
}

void expo_server::set_post_handler(const std::string& path, post_handler fn) {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    post_handlers_[path] = std::move(fn);
}

void expo_server::set_max_body_bytes(std::size_t bytes) {
    max_body_bytes_.store(bytes, std::memory_order_relaxed);
}

void expo_server::publish_metrics(const metrics_registry& registry) {
    // Derive the p50/p95/p99 summary gauges on a copy so publishing never
    // mutates the caller's registry.
    metrics_registry snapshot = registry;
    snapshot.export_quantile_gauges();
    std::ostringstream text;
    write_prometheus_text(snapshot, text);
    std::lock_guard<std::mutex> lock(content_mutex_);
    metrics_text_ = text.str();
}

void expo_server::publish_progress(const progress_snapshot& p) {
    std::string body = "{";
    auto field_u64 = [&body](const char* key, std::uint64_t v, bool first = false) {
        if (!first) body += ',';
        json_string(body, key);
        body += ':';
        json_number(body, v);
    };
    auto field_dbl = [&body](const char* key, double v) {
        body += ',';
        json_string(body, key);
        body += ':';
        json_number(body, v);
    };
    field_u64("round", p.round, true);
    field_u64("total_rounds", p.total_rounds);
    field_u64("users", static_cast<std::uint64_t>(p.users));
    field_dbl("wall_sec", p.wall_sec);
    field_dbl("rounds_per_sec", p.rounds_per_sec);
    field_dbl("queue_items_total", p.queue_items_total);
    field_dbl("queue_bytes_total", p.queue_bytes_total);
    field_dbl("energy_credit_joules_total", p.energy_credit_joules_total);
    field_u64("arrived_total", p.arrived_total);
    field_u64("delivered_total", p.delivered_total);
    field_u64("faults_injected", p.faults_injected);
    field_u64("transfer_retries", p.transfer_retries);
    field_u64("dead_lettered", p.dead_lettered);
    field_u64("duplicates_suppressed", p.duplicates_suppressed);
    field_u64("crash_restarts", p.crash_restarts);
    body += ",\"done\":";
    body += p.done ? "true" : "false";
    body += "}\n";
    std::lock_guard<std::mutex> lock(content_mutex_);
    progress_json_ = std::move(body);
}

void expo_server::on_round(const progress_snapshot& p, const metrics_registry& live) {
    publish_progress(p);
    publish_metrics(live);
}

void expo_server::publish_document(const std::string& path,
                                   const std::string& content_type,
                                   std::string body) {
    RICHNOTE_REQUIRE(!path.empty() && path.front() == '/',
                     "publish_document paths start with '/'");
    RICHNOTE_REQUIRE(path != "/metrics" && path != "/progress" && path != "/healthz",
                     "publish_document cannot shadow a built-in path");
    std::lock_guard<std::mutex> lock(content_mutex_);
    documents_[path] = {content_type, std::move(body)};
}

void expo_server::set_refresh_hook(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    refresh_hook_ = std::move(hook);
}

void expo_server::refresh() const {
    // Run a copy, outside the lock: the hook may wait a whole round, and
    // POST dispatch needs handlers_mutex_ meanwhile.
    std::function<void()> hook;
    {
        std::lock_guard<std::mutex> lock(handlers_mutex_);
        hook = refresh_hook_;
    }
    if (hook) hook();
}

void expo_server::set_uarch(std::string uarch) {
    std::lock_guard<std::mutex> lock(content_mutex_);
    uarch_ = std::move(uarch);
}

std::string expo_server::respond_get(const std::string& path) const {
    if (path == "/metrics") {
        refresh();
        std::lock_guard<std::mutex> lock(content_mutex_);
        return http_response(200, "text/plain; version=0.0.4", metrics_text_);
    }
    if (path == "/progress") {
        refresh();
        std::lock_guard<std::mutex> lock(content_mutex_);
        return http_response(200, "application/json", progress_json_);
    }
    if (path == "/healthz") {
        // Build identity from the run manifest's source of truth, so a
        // probe can tell WHICH build answered, not just that one did.
        std::string body = "{\"status\":\"ok\",\"git_describe\":";
        json_string(body, build_info::git_describe);
        body += ",\"build_type\":";
        json_string(body, build_info::build_type);
        body += ",\"compiler\":";
        json_string(body, build_info::compiler);
        body += ",\"uarch\":";
        {
            std::lock_guard<std::mutex> lock(content_mutex_);
            json_string(body, uarch_);
        }
        body += "}\n";
        return http_response(200, "application/json", body);
    }
    bool published = false; // documents are never withdrawn
    {
        std::lock_guard<std::mutex> lock(content_mutex_);
        published = documents_.count(path) != 0;
    }
    if (published) {
        refresh();
        std::lock_guard<std::mutex> lock(content_mutex_);
        const auto& [content_type, body] = documents_.at(path);
        return http_response(200, content_type.c_str(), body);
    }
    // 404 lists every path actually served right now, GET and POST alike.
    std::string listing = "see /healthz, /metrics, /progress";
    {
        std::lock_guard<std::mutex> lock(content_mutex_);
        for (const auto& [doc_path, unused] : documents_) {
            (void)unused;
            listing += ", " + doc_path;
        }
    }
    {
        std::lock_guard<std::mutex> lock(handlers_mutex_);
        bool first = true;
        for (const auto& [post_path, unused] : post_handlers_) {
            (void)unused;
            listing += first ? "; POST " : ", POST ";
            first = false;
            listing += post_path;
        }
    }
    listing += '\n';
    return http_response(404, "text/plain", listing);
}

void expo_server::accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
        if (ready <= 0) continue;
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) continue;
        // A stalled client may block one handler for at most the recv
        // timeout, never the accept loop or the other handlers.
        timeval tv{};
        tv.tv_sec = 2;
        ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            pending_fds_.push_back(client);
        }
        queue_cv_.notify_one();
    }
}

void expo_server::handler_loop() {
    while (true) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [&] {
                return stopping_.load(std::memory_order_relaxed) || !pending_fds_.empty();
            });
            if (pending_fds_.empty()) return; // stopping and drained
            fd = pending_fds_.front();
            pending_fds_.pop_front();
        }
        requests_.fetch_add(1, std::memory_order_relaxed);
        handle_connection(fd);
        close_quietly(fd);
    }
}

void expo_server::handle_connection(int fd) {
    // Read the request head, bounded. Anything that cannot fit its head in
    // max_head_bytes is rejected outright — the documents and ingest lines
    // this server deals in never need jumbo headers.
    std::string buffer;
    std::size_t head_end = std::string::npos;
    char chunk[2048];
    while (head_end == std::string::npos) {
        if (buffer.size() >= max_head_bytes) {
            send_all(fd, http_response(400, "text/plain", "request head too large\n"));
            return;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) return; // disconnect or timeout mid-head: drop quietly
        buffer.append(chunk, static_cast<std::size_t>(n));
        head_end = buffer.find("\r\n\r\n");
    }

    const std::string head = buffer.substr(0, head_end);
    std::istringstream parse(head.substr(0, head.find("\r\n")));
    std::string method;
    std::string path;
    parse >> method >> path;
    if (method.empty() || path.empty() || path.front() != '/') {
        send_all(fd, http_response(400, "text/plain", "malformed request line\n"));
        return;
    }
    // Strip any query string; scrapers sometimes append one.
    if (const auto q = path.find('?'); q != std::string::npos) path.resize(q);

    if (method == "GET") {
        send_all(fd, respond_get(path));
        return;
    }
    if (method != "POST") {
        send_all(fd,
                 http_response(405, "text/plain", "only GET and POST are supported\n"));
        return;
    }

    post_handler handler;
    {
        std::lock_guard<std::mutex> lock(handlers_mutex_);
        if (const auto it = post_handlers_.find(path); it != post_handlers_.end())
            handler = it->second;
    }
    if (!handler) {
        send_all(fd, http_response(404, "text/plain", "no handler mounted here\n"));
        return;
    }

    std::size_t content_length = 0;
    bool malformed = false;
    if (!find_content_length(head, content_length, malformed)) {
        send_all(fd, malformed
                         ? http_response(400, "text/plain", "bad Content-Length\n")
                         : http_response(411, "text/plain", "Content-Length required\n"));
        return;
    }
    const std::size_t max_body = max_body_bytes_.load(std::memory_order_relaxed);
    if (content_length > max_body) {
        send_all(fd, http_response(413, "text/plain",
                                   "body exceeds " + std::to_string(max_body) +
                                       " bytes\n"));
        return;
    }

    // The body lands straight in a string of its final size: whatever the
    // head read already pulled in, then recv into the remaining span, so a
    // large POST takes a handful of syscalls. Pipelined bytes past
    // Content-Length are never read into it.
    std::string body(content_length, '\0');
    std::size_t have = std::min(buffer.size() - (head_end + 4), content_length);
    buffer.copy(body.data(), have, head_end + 4);
    while (have < content_length) {
        const ssize_t n = ::recv(fd, body.data() + have, content_length - have, 0);
        if (n <= 0) return; // disconnect or timeout mid-body: drop quietly
        have += static_cast<std::size_t>(n);
    }

    const post_result result = handler(body);
    send_all(fd, http_response(result.status, "application/json", result.body));
}

} // namespace richnote::obs
