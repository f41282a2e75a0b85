// ParseFlagNumber and ParseFlags (src/common/flags.h): the one number parser
// and the one command-line reader of every coopfs binary that takes flags.
#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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

// Runs ParseFlags on `args` as a command line (argv[0] supplied).
Status Parse(std::vector<std::string> args, const std::vector<Flag>& flags,
             std::vector<std::string>* positional = nullptr) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ParseFlags(static_cast<int>(argv.size()), argv.data(), flags, positional);
}

TEST(ParseFlagsTest, FillsEachDestinationType) {
  bool dry_run = false;
  bool unused = false;
  std::string out = "default.json";
  std::uint32_t shards = 0;
  std::uint64_t events = 0;
  std::size_t threads = 0;
  long run = -1;
  double fraction = 0.0;
  const std::vector<Flag> flags = {
      {"--dry-run", &dry_run}, {"--unused", &unused},       {"--out", &out},
      {"--shards", &shards},   {"--events", &events},       {"--threads", &threads},
      {"--run", &run},         {"--get-fraction", &fraction},
  };
  const Status status =
      Parse({"--dry-run", "--out", "x.json", "--shards", "64", "--events", "100000",
             "--threads", "3", "--run", "2", "--get-fraction", "0.7", "--events", "5"},
            flags);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(dry_run);
  EXPECT_FALSE(unused);
  EXPECT_EQ(out, "x.json");
  EXPECT_EQ(shards, 64u);
  EXPECT_EQ(events, 5u);  // A repeated flag keeps its last value.
  EXPECT_EQ(threads, 3u);
  EXPECT_EQ(run, 2);
  EXPECT_DOUBLE_EQ(fraction, 0.7);
  // A string flag takes the next argument as is, even one starting with '-'.
  ASSERT_TRUE(Parse({"--out", "-"}, flags).ok());
  EXPECT_EQ(out, "-");
}

TEST(ParseFlagsTest, RejectsUnknownFlagsMissingValuesAndMalformedNumbers) {
  std::uint64_t events = 7;
  std::string out;
  bool dry_run = false;
  const std::vector<Flag> flags = {
      {"--events", &events}, {"--out", &out}, {"--dry-run", &dry_run}};
  const auto message = [&flags](std::vector<std::string> args) {
    const Status status = Parse(std::move(args), flags);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    return status.message();
  };
  EXPECT_EQ(message({"--dryrun"}), "unknown flag '--dryrun'");
  EXPECT_EQ(message({"-x"}), "unknown flag '-x'");
  EXPECT_EQ(message({"--dry-run", "--out"}), "--out requires a value");
  EXPECT_EQ(message({"--events"}), "--events requires a value");
  EXPECT_EQ(message({"--events", "1e5"}), "--events wants a non-negative integer, got '1e5'");
  EXPECT_EQ(message({"--events", "-1"}), "--events wants a non-negative integer, got '-1'");
  EXPECT_EQ(message({"--events", "abc"}), "--events wants a non-negative integer, got 'abc'");
  EXPECT_EQ(events, 7u);
}

TEST(ParseFlagsTest, KeepsOrRefusesPositionals) {
  std::size_t top = 20;
  bool json = false;
  const std::vector<Flag> flags = {{"--top", &top}, {"--json", &json}};
  std::vector<std::string> positional;
  const Status kept = Parse({"hot-blocks", "--top", "5", "in.jsonl", "--json"}, flags,
                            &positional);
  ASSERT_TRUE(kept.ok()) << kept.ToString();
  EXPECT_EQ(positional, (std::vector<std::string>{"hot-blocks", "in.jsonl"}));
  EXPECT_EQ(top, 5u);
  EXPECT_TRUE(json);

  const Status refused = Parse({"--top", "5", "extra"}, flags);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.message(), "unexpected argument 'extra'");
}

}  // namespace
}  // namespace coopfs
