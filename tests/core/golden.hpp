// Checked-in reference outputs under tests/data/golden/, shared by the
// golden tests (figure CSVs and trace digests).
//
// To re-baseline intentionally:  RICHNOTE_UPDATE_GOLDEN=1 ctest -R golden
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#ifndef RICHNOTE_SOURCE_DIR
#error "tests must be compiled with RICHNOTE_SOURCE_DIR"
#endif

namespace richnote::test {

inline std::string golden_path(const std::string& name) {
    return std::string(RICHNOTE_SOURCE_DIR) + "/tests/data/golden/" + name;
}

/// Byte-compares `actual` against the golden file `name`, or rewrites the
/// file (and skips) when RICHNOTE_UPDATE_GOLDEN is set.
inline void compare_or_update(const std::string& name, const std::string& actual) {
    const std::string path = golden_path(name);
    if (std::getenv("RICHNOTE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "updated golden " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " — run with RICHNOTE_UPDATE_GOLDEN=1 to create it";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "output of " << name << " drifted from the checked-in golden; "
        << "if the change is intentional, re-baseline with RICHNOTE_UPDATE_GOLDEN=1";
}

/// One-line fingerprint of a byte stream (size, line count, FNV-1a 64), so
/// a multi-megabyte NDJSON trace can be pinned by a checked-in golden.
inline std::string digest_of(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::size_t lines = 0;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
        if (c == '\n') ++lines;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "bytes=%zu lines=%zu fnv1a64=%016llx\n", bytes.size(),
                  lines, static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace richnote::test
