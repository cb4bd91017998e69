#include "sim/time.hpp"

#include <gtest/gtest.h>

namespace {

namespace t = richnote::sim;

TEST(time_helpers, hour_of_day_wraps) {
    EXPECT_DOUBLE_EQ(t::hour_of_day(0.0), 0.0);
    EXPECT_DOUBLE_EQ(t::hour_of_day(3.0 * t::hours), 3.0);
    EXPECT_DOUBLE_EQ(t::hour_of_day(27.0 * t::hours), 3.0);
}

TEST(time_helpers, weekend_starts_on_day_five) {
    EXPECT_FALSE(t::is_weekend(0.0));              // Monday
    EXPECT_FALSE(t::is_weekend(4.0 * t::days));    // Friday
    EXPECT_TRUE(t::is_weekend(5.0 * t::days));     // Saturday
    EXPECT_TRUE(t::is_weekend(6.5 * t::days));     // Sunday
    EXPECT_FALSE(t::is_weekend(7.0 * t::days));    // next Monday
}

TEST(time_helpers, daytime_window) {
    EXPECT_FALSE(t::is_daytime(7.0 * t::hours));
    EXPECT_TRUE(t::is_daytime(8.0 * t::hours));
    EXPECT_TRUE(t::is_daytime(21.9 * t::hours));
    EXPECT_FALSE(t::is_daytime(22.0 * t::hours));
}

} // namespace
