#include "util/parse_number.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "obs/query.h"

namespace prr::util {
namespace {

// A CLI flag value outside [lo, hi] or not a number is refused and the
// target keeps its previous value (the default the CLI started with).
TEST(ParseNumber, FlagRejectsOutOfRangeAndLeavesTargetUnchanged) {
  int connections = 2000;
  EXPECT_FALSE(parse_flag("--connections", "abc", connections, 0));
  EXPECT_FALSE(parse_flag("--connections", "12x", connections, 0));
  EXPECT_FALSE(parse_flag("--connections", "-3", connections, 0));
  EXPECT_EQ(connections, 2000);
  EXPECT_TRUE(parse_flag("--connections", "0", connections, 0));
  EXPECT_EQ(connections, 0);
}

// prr_query's --bucket-ms: a width in [1, kMaxBucketMs] converts to
// nanoseconds without overflow; 0, a trailing unit and anything wider
// are refused instead of silently becoming 1 s, 1 ms or a wrapped width.
TEST(ParseNumber, BucketMsBound) {
  static_assert(obs::kMaxBucketMs <=
                std::numeric_limits<int64_t>::max() / 1'000'000);
  static_assert(obs::kMaxBucketMs + 1 >
                std::numeric_limits<int64_t>::max() / 1'000'000);
  const std::string max = std::to_string(obs::kMaxBucketMs);
  const std::string over = std::to_string(obs::kMaxBucketMs + 1);
  int64_t ms = 1000;
  for (const std::string& bad :
       {std::string("0"), std::string("-1"), std::string("1x"), over,
        std::string("99999999999999")}) {
    EXPECT_FALSE(parse_flag("--bucket-ms", bad, ms, int64_t{1},
                            obs::kMaxBucketMs))
        << bad;
  }
  EXPECT_EQ(ms, 1000);
  EXPECT_TRUE(
      parse_flag("--bucket-ms", max, ms, int64_t{1}, obs::kMaxBucketMs));
  EXPECT_EQ(ms, obs::kMaxBucketMs);
  EXPECT_GT(ms * 1'000'000, 0);
  EXPECT_TRUE(parse_flag("--bucket-ms", "1", ms, int64_t{1},
                         obs::kMaxBucketMs));
  EXPECT_EQ(ms, 1);
}

}  // namespace
}  // namespace prr::util
