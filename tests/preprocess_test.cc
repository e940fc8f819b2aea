#include "data/preprocess.h"

#include <sstream>

#include <gtest/gtest.h>

namespace targad {
namespace data {
namespace {

TEST(MinMaxTest, MapsToUnitInterval) {
  nn::Matrix x(3, 2, {0.0, 10.0, 5.0, 20.0, 10.0, 30.0});
  MinMaxNormalizer norm;
  auto out = norm.FitTransform(x).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(out.At(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(out.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out.At(2, 1), 1.0);
}

TEST(MinMaxTest, ConstantColumnMapsToZero) {
  nn::Matrix x(2, 1, {7.0, 7.0});
  MinMaxNormalizer norm;
  auto out = norm.FitTransform(x).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.At(1, 0), 0.0);
}

TEST(MinMaxTest, TransformClampsUnseenRange) {
  nn::Matrix train(2, 1, {0.0, 10.0});
  MinMaxNormalizer norm;
  ASSERT_TRUE(norm.Fit(train).ok());
  nn::Matrix test(2, 1, {-5.0, 20.0});
  auto out = norm.Transform(test).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.At(1, 0), 1.0);
}

TEST(MinMaxTest, UsageErrors) {
  MinMaxNormalizer norm;
  EXPECT_EQ(norm.Transform(nn::Matrix(1, 1)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(norm.Fit(nn::Matrix(0, 3)).ok());
  nn::Matrix train(2, 2, 0.5);
  ASSERT_TRUE(norm.Fit(train).ok());
  EXPECT_FALSE(norm.Transform(nn::Matrix(1, 3)).ok());
}

TEST(MinMaxTest, SaveLoadRoundTrip) {
  MinMaxNormalizer norm;
  ASSERT_TRUE(norm.Fit(nn::Matrix(2, 2, {0.0, -1.0, 10.0, 3.0})).ok());
  std::stringstream stream;
  ASSERT_TRUE(norm.Save(stream).ok());
  const MinMaxNormalizer loaded = MinMaxNormalizer::Load(stream).ValueOrDie();
  EXPECT_EQ(loaded.mins(), norm.mins());
  EXPECT_EQ(loaded.maxs(), norm.maxs());
}

// Load sizes nothing from the column count it reads: a count beyond the
// payload fails at the first missing pair.
TEST(MinMaxTest, LoadRejectsColumnCountsBeyondThePayload) {
  for (const char* text : {"minmax-v1 4611686018427387904\n0 1\n",
                           "minmax-v1 18446744073709551615\n",
                           "minmax-v1 3\n0 1\n2 3\n"}) {
    std::istringstream in(text);
    const Result<MinMaxNormalizer> loaded = MinMaxNormalizer::Load(in);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

RawTable MixedTable() {
  RawTable t;
  t.column_names = {"amount", "proto"};
  t.rows = {{"1.5", "tcp"}, {"2.0", "udp"}, {"0.5", "tcp"}};
  return t;
}

TEST(OneHotTest, ExpandsCategoricalColumns) {
  OneHotEncoder enc;
  auto out = enc.FitTransform(MixedTable()).ValueOrDie();
  // 1 numeric + 2 categories = 3 output columns.
  ASSERT_EQ(out.cols(), 3u);
  EXPECT_DOUBLE_EQ(out.At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(out.At(0, 1), 1.0);  // tcp
  EXPECT_DOUBLE_EQ(out.At(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(out.At(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(out.At(1, 2), 1.0);  // udp
}

TEST(OneHotTest, FeatureNamesDescribeExpansion) {
  OneHotEncoder enc;
  ASSERT_TRUE(enc.Fit(MixedTable()).ok());
  EXPECT_EQ(enc.FeatureNames(),
            (std::vector<std::string>{"amount", "proto=tcp", "proto=udp"}));
}

TEST(OneHotTest, UnseenCategoryEncodesAllZeros) {
  OneHotEncoder enc;
  ASSERT_TRUE(enc.Fit(MixedTable()).ok());
  RawTable test;
  test.column_names = {"amount", "proto"};
  test.rows = {{"3.0", "icmp"}};
  auto out = enc.Transform(test).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out.At(0, 2), 0.0);
}

TEST(OneHotTest, AllNumericTablePassesThrough) {
  RawTable t;
  t.column_names = {"x", "y"};
  t.rows = {{"1", "2"}, {"3", "4"}};
  OneHotEncoder enc;
  auto out = enc.FitTransform(t).ValueOrDie();
  EXPECT_EQ(out.cols(), 2u);
  EXPECT_DOUBLE_EQ(out.At(1, 1), 4.0);
}

TEST(OneHotTest, NumericColumnWithBadCellAtTransformFails) {
  RawTable t;
  t.column_names = {"x"};
  t.rows = {{"1"}};
  OneHotEncoder enc;
  ASSERT_TRUE(enc.Fit(t).ok());
  RawTable bad;
  bad.column_names = {"x"};
  bad.rows = {{"oops"}};
  EXPECT_FALSE(enc.Transform(bad).ok());
}

TEST(OneHotTest, ColumnCountMismatchFails) {
  OneHotEncoder enc;
  ASSERT_TRUE(enc.Fit(MixedTable()).ok());
  RawTable t;
  t.column_names = {"amount"};
  t.rows = {{"1.0"}};
  EXPECT_FALSE(enc.Transform(t).ok());
}

TEST(DeduplicateColumnsTest, DropsExactDuplicates) {
  // Columns 0 and 2 identical; 1 and 3 distinct.
  nn::Matrix x(2, 4, {1.0, 2.0, 1.0, 4.0, 5.0, 6.0, 5.0, 8.0});
  nn::Matrix out;
  const auto kept = DeduplicateColumns(x, &out);
  EXPECT_EQ(kept, (std::vector<size_t>{0, 1, 3}));
  ASSERT_EQ(out.cols(), 3u);
  EXPECT_DOUBLE_EQ(out.At(1, 2), 8.0);
}

TEST(DeduplicateColumnsTest, NoDuplicatesKeepsAll) {
  nn::Matrix x(1, 3, {1.0, 2.0, 3.0});
  const auto kept = DeduplicateColumns(x, nullptr);
  EXPECT_EQ(kept.size(), 3u);
}

}  // namespace
}  // namespace data
}  // namespace targad
