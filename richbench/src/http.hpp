// Minimal blocking HTTP/1.1 client for the loopback server under test.
// One request per connection (the server answers `Connection: close`).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace richbench {

struct http_reply {
    int status = 0;     ///< 0 = no reply (connect error, timeout, bad response)
    std::string body;
    std::string error;  ///< set when status == 0
    bool ok() const noexcept { return status >= 200 && status < 300; }
};

/// Sends one request to 127.0.0.1:`port` and reads the reply to EOF.
/// Socket reads and writes time out after `timeout_sec`.
http_reply http_request(std::uint16_t port, std::string_view method, std::string_view path,
                        std::string_view body = {}, double timeout_sec = 30.0);

inline http_reply http_post(std::uint16_t port, std::string_view path, std::string_view body = {}) {
    return http_request(port, "POST", path, body);
}
inline http_reply http_get(std::uint16_t port, std::string_view path) {
    return http_request(port, "GET", path);
}

/// Value of the first Prometheus sample named exactly `series` (including
/// any label set, e.g. `x_sum{endpoint="ingest"}`) in an exposition body.
/// Throws when the series is absent.
double prom_value(const std::string& exposition, std::string_view series);

} // namespace richbench
