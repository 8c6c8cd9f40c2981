#include "util/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rtmac {
namespace {

ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser{static_cast<int>(argv.size()), argv.data()};
}

TEST(ArgParserTest, KeyValueSpaceForm) {
  const auto args = parse({"--alpha", "0.55", "--links", "20"});
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_DOUBLE_EQ(args.get("alpha", 0.0), 0.55);
  EXPECT_EQ(args.get("links", std::int64_t{0}), 20);
}

TEST(ArgParserTest, KeyValueEqualsForm) {
  const auto args = parse({"--alpha=0.7", "--scheme=ldf"});
  EXPECT_DOUBLE_EQ(args.get("alpha", 0.0), 0.7);
  EXPECT_EQ(args.get("scheme", std::string{}), "ldf");
}

TEST(ArgParserTest, BooleanSwitches) {
  const auto args = parse({"--verbose", "--learned-p", "--flag=false"});
  EXPECT_TRUE(args.get("verbose", false));
  EXPECT_TRUE(args.get("learned-p", false));
  EXPECT_FALSE(args.get("flag", true));
  EXPECT_FALSE(args.get("absent", false));
  EXPECT_TRUE(args.get("absent", true));
}

TEST(ArgParserTest, SwitchFollowedByFlagDoesNotConsume) {
  const auto args = parse({"--verbose", "--alpha", "0.5"});
  EXPECT_TRUE(args.get("verbose", false));
  EXPECT_DOUBLE_EQ(args.get("alpha", 0.0), 0.5);
}

TEST(ArgParserTest, PositionalArguments) {
  const auto args = parse({"input.csv", "--alpha", "0.5", "more"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"input.csv", "more"}));
}

TEST(ArgParserTest, MalformedNumberThrows) {
  // A present flag must parse completely; silently falling back to the
  // default would rerun the default configuration on a typo.
  const auto args = parse({"--alpha", "not-a-number", "--intervals", "5x", "--links=",
                           "--big", "99999999999999999999999", "--huge", "1e999"});
  EXPECT_THROW((void)args.get("alpha", 0.25), std::invalid_argument);
  EXPECT_THROW((void)args.get("alpha", std::int64_t{7}), std::invalid_argument);
  EXPECT_THROW((void)args.get("intervals", std::int64_t{7}), std::invalid_argument);
  EXPECT_THROW((void)args.get("links", std::int64_t{7}), std::invalid_argument);
  EXPECT_THROW((void)args.get("big", std::int64_t{7}), std::invalid_argument);
  EXPECT_THROW((void)args.get("huge", 0.25), std::invalid_argument);
  EXPECT_EQ(args.get("absent", std::int64_t{7}), 7);
}

TEST(ArgParserTest, DefaultsWhenMissing) {
  const auto args = parse({});
  EXPECT_FALSE(args.has("alpha"));
  EXPECT_DOUBLE_EQ(args.get("alpha", 1.5), 1.5);
  EXPECT_EQ(args.get("name", std::string{"x"}), "x");
}

TEST(ArgParserTest, UnknownFlagDetection) {
  const auto args = parse({"--alpha", "0.5", "--tpyo", "3"});
  const auto unknown = args.unknown_flags({"alpha", "rho"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "tpyo");
}

TEST(ArgParserTest, LastValueWins) {
  const auto args = parse({"--alpha", "0.1", "--alpha", "0.9"});
  EXPECT_DOUBLE_EQ(args.get("alpha", 0.0), 0.9);
}

}  // namespace
}  // namespace rtmac
