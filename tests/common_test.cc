#include <gtest/gtest.h>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/value.h"

namespace crew {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() { return Status::Aborted("nope"); };
  auto outer = [&]() -> Status {
    CREW_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsAborted());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(Status::TimedOut("slow"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kTimedOut);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> bogus((Status()));
  EXPECT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInternal);
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_EQ(Value(int64_t{5}).NumericValue(), 5.0);
}

TEST(ValueTest, TruthyRules) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(false).Truthy());
  EXPECT_FALSE(Value(int64_t{0}).Truthy());
  EXPECT_FALSE(Value(0.0).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_TRUE(Value(int64_t{1}).Truthy());
  EXPECT_TRUE(Value("x").Truthy());
}

TEST(ValueTest, NumericEqualityCrossesKinds) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value("3"));
}

TEST(InstanceIdTest, OrderingAndFormatting) {
  InstanceId a{"WF1", 3};
  InstanceId b{"WF1", 4};
  InstanceId c{"WF2", 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.ToString(), "WF1#3");
  EXPECT_EQ(a, (InstanceId{"WF1", 3}));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, TrimAndStartsWith) {
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_TRUE(StartsWith("prefix.rest", "prefix."));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
}

}  // namespace
}  // namespace crew
