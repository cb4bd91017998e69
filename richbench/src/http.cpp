#include "http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace richbench {

namespace {

class socket_fd {
public:
    socket_fd() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {}
    ~socket_fd() {
        if (fd_ >= 0) ::close(fd_);
    }
    socket_fd(const socket_fd&) = delete;
    socket_fd& operator=(const socket_fd&) = delete;
    int get() const noexcept { return fd_; }

private:
    int fd_;
};

std::string errno_text(const char* what) { return std::string(what) + ": " + std::strerror(errno); }

} // namespace

http_reply http_request(std::uint16_t port, std::string_view method, std::string_view path,
                        std::string_view body, double timeout_sec) {
    http_reply reply;
    socket_fd sock;
    if (sock.get() < 0) {
        reply.error = errno_text("socket");
        return reply;
    }
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_sec);
    tv.tv_usec = static_cast<suseconds_t>((timeout_sec - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(sock.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(sock.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    const int one = 1;
    ::setsockopt(sock.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(sock.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        reply.error = errno_text("connect");
        return reply;
    }

    std::string request;
    request.reserve(128 + body.size());
    request.append(method).append(" ").append(path).append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
    if (method == "POST") {
        request.append("Content-Type: application/x-ndjson\r\nContent-Length: ")
            .append(std::to_string(body.size()))
            .append("\r\n");
    }
    request.append("Connection: close\r\n\r\n").append(body);
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(sock.get(), request.data() + sent, request.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            reply.error = errno_text("send");
            return reply;
        }
        sent += static_cast<std::size_t>(n);
    }

    std::string raw;
    char buf[16384];
    for (;;) {
        const ssize_t n = ::recv(sock.get(), buf, sizeof buf, 0);
        if (n == 0) break;
        if (n < 0) {
            if (errno == EINTR) continue;
            reply.error = errno_text("recv");
            return reply;
        }
        raw.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (raw.rfind("HTTP/1.", 0) != 0 || raw.size() < 12 || head_end == std::string::npos) {
        reply.error = "malformed reply";
        return reply;
    }
    reply.status = std::atoi(raw.c_str() + 9);
    reply.body = raw.substr(head_end + 4);
    return reply;
}

double prom_value(const std::string& exposition, std::string_view series) {
    std::size_t pos = 0;
    while (pos < exposition.size()) {
        std::size_t eol = exposition.find('\n', pos);
        if (eol == std::string::npos) eol = exposition.size();
        const std::string_view line(exposition.data() + pos, eol - pos);
        pos = eol + 1;
        if (line.size() > series.size() && line.substr(0, series.size()) == series &&
            line[series.size()] == ' ') {
            return std::strtod(std::string(line.substr(series.size() + 1)).c_str(), nullptr);
        }
    }
    throw std::runtime_error("metric not exported: " + std::string(series));
}

} // namespace richbench
