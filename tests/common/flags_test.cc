// ParseFlagNumber (src/common/flags.h): the one numeric-flag parser of
// coopfs_bench, perf_harness and coopfs_serve.
#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace coopfs {
namespace {

TEST(FlagsTest, ParsesWholeNonNegativeTokens) {
  std::uint32_t shards = 0;
  ASSERT_TRUE(ParseFlagNumber("--shards", "64", &shards).ok());
  EXPECT_EQ(shards, 64u);
  std::uint64_t ops = 0;
  ASSERT_TRUE(ParseFlagNumber("--ops", "18446744073709551615", &ops).ok());
  EXPECT_EQ(ops, UINT64_MAX);
  double fraction = 0.0;
  ASSERT_TRUE(ParseFlagNumber("--get-fraction", "0.7", &fraction).ok());
  EXPECT_DOUBLE_EQ(fraction, 0.7);
  ASSERT_TRUE(ParseFlagNumber("--zipf", "9e-1", &fraction).ok());
  EXPECT_DOUBLE_EQ(fraction, 0.9);
}

TEST(FlagsTest, RejectsMalformedValuesNamingTheFlag) {
  // A negative count once wrapped to 4294967295, and "1e5" once read as 1.
  for (const char* value : {"-1", "1e5", "abc", "", "12abc", "4294967296", "+3"}) {
    std::uint32_t out = 7;
    const Status status = ParseFlagNumber("--shards", value, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << value;
    EXPECT_EQ(status.message(), std::string("--shards wants a non-negative integer, got '") +
                                    value + "'");
    EXPECT_EQ(out, 7u) << value;
  }
  for (const char* value : {"x", "-0.5", "0.5x", "nan", "inf", "1e400", ""}) {
    double out = 0.25;
    const Status status = ParseFlagNumber("--get-fraction", value, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << value;
    EXPECT_EQ(status.message(),
              std::string("--get-fraction wants a non-negative number, got '") + value + "'");
    EXPECT_EQ(out, 0.25) << value;
  }
}

}  // namespace
}  // namespace coopfs
