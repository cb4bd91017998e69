#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <malloc.h>
#include <numeric>
#include <sstream>
#include <time.h>
#include <unistd.h>
#include <stdexcept>

namespace richbench {

percentile_reading select_percentile(std::vector<double> samples, double q) {
    if (!(q > 0.0 && q <= 1.0)) throw std::runtime_error("percentile outside (0, 1]");
    const std::size_t n = samples.size();
    if (n == 0) throw std::runtime_error("percentile of no samples");
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
    percentile_reading r;
    r.value = samples[index];
    r.samples = n;
    r.beyond = n - index - 1;
    if (r.beyond < min_beyond) {
        throw std::runtime_error("p" + std::to_string(q * 100.0) + " of " + std::to_string(n) +
                                 " samples leaves only " + std::to_string(r.beyond) +
                                 " beyond it (need " + std::to_string(min_beyond) + ")");
    }
    return r;
}

double median(std::vector<double> samples) {
    if (samples.empty()) throw std::runtime_error("median of no samples");
    std::sort(samples.begin(), samples.end());
    return samples[(samples.size() - 1) / 2];
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

namespace {

double status_kb(const std::string& path, const std::string& key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
    }
    throw std::runtime_error("no " + key + " in " + path);
}

} // namespace

double peak_rss_mb(int pid) {
    const std::string path =
        pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
    return status_kb(path, "VmHWM:") / 1024.0;
}

double cpu_seconds(int pid) {
    if (pid == 0) {
        timespec t{};
        if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t) != 0) throw std::runtime_error("no process CPU clock");
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
    }
    // /proc/<pid>/stat: utime and stime are fields 14 and 15, counted from
    // the state field that follows the parenthesised command name.
    const std::string path = "/proc/" + std::to_string(pid) + "/stat";
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) throw std::runtime_error("cannot read " + path);
    std::istringstream fields(text.substr(close + 1));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i)
        if (i >= 14) ticks += std::stod(field);
    if (!fields) throw std::runtime_error("short " + path);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double heap_bytes_in_use() {
    const struct mallinfo2 mi = ::mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

} // namespace richbench
