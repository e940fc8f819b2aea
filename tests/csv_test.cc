#include "data/csv.h"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

namespace targad {
namespace data {
namespace {

TEST(ParseCsvTest, HeaderAndRows) {
  auto table = ParseCsv("a,b,c\n1,2,3\n4,5,6\n").ValueOrDie();
  EXPECT_EQ(table.column_names, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.rows[1][2], "6");
}

TEST(ParseCsvTest, NoHeaderGeneratesColumnNames) {
  auto table = ParseCsv("1,2\n3,4\n", ',', /*has_header=*/false).ValueOrDie();
  EXPECT_EQ(table.column_names, (std::vector<std::string>{"c0", "c1"}));
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ParseCsvTest, QuotedFieldsWithDelimiters) {
  auto table = ParseCsv("name,desc\nx,\"a,b\"\n").ValueOrDie();
  EXPECT_EQ(table.rows[0][1], "a,b");
}

TEST(ParseCsvTest, DoubledQuotesEscape) {
  auto table = ParseCsv("a\n\"say \"\"hi\"\"\"\n").ValueOrDie();
  EXPECT_EQ(table.rows[0][0], "say \"hi\"");
}

TEST(ParseCsvTest, CrLfLineEndings) {
  auto table = ParseCsv("a,b\r\n1,2\r\n").ValueOrDie();
  EXPECT_EQ(table.rows[0][1], "2");
}

TEST(ParseCsvTest, SkipsBlankLines) {
  auto table = ParseCsv("a\n1\n\n2\n").ValueOrDie();
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ParseCsvTest, RaggedRowFails) {
  auto result = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseCsvTest, AlternativeDelimiter) {
  auto table = ParseCsv("a;b\n1;2\n", ';').ValueOrDie();
  EXPECT_EQ(table.rows[0][0], "1");
  EXPECT_EQ(table.rows[0][1], "2");
}

// Goldens for the record splitter's corner cases, pinned from the original
// character-at-a-time implementation: a quote toggles quoting wherever it
// appears, and an unterminated quote runs to the end of the record.
TEST(SplitCsvRecordTest, CornerCaseGoldens) {
  using Fields = std::vector<std::string>;
  EXPECT_EQ(SplitCsvRecord("a\"b,c\"d"), (Fields{"ab,cd"}));
  EXPECT_EQ(SplitCsvRecord("x,\"ab,c"), (Fields{"x", "ab,c"}));
  EXPECT_EQ(SplitCsvRecord("\"a\"\"b\",c"), (Fields{"a\"b", "c"}));
  EXPECT_EQ(SplitCsvRecord("a\"\"b"), (Fields{"ab"}));
  EXPECT_EQ(SplitCsvRecord("\"\"\""), (Fields{"\""}));
  EXPECT_EQ(SplitCsvRecord("\"\",\"\""), (Fields{"", ""}));
  EXPECT_EQ(SplitCsvRecord("a,b,"), (Fields{"a", "b", ""}));
  EXPECT_EQ(SplitCsvRecord(",,"), (Fields{"", "", ""}));
  EXPECT_EQ(SplitCsvRecord(""), (Fields{""}));
  EXPECT_EQ(SplitCsvRecord(" a , b "), (Fields{" a ", " b "}));
  EXPECT_EQ(SplitCsvRecord("a;\"b;c\";d", ';'), (Fields{"a", "b;c", "d"}));
}

TEST(TableToMatrixTest, ConvertsNumericCells) {
  auto table = ParseCsv("a,b\n1.5,-2\n0,3e2\n").ValueOrDie();
  auto m = TableToMatrix(table).ValueOrDie();
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 300.0);
}

TEST(TableToMatrixTest, NonNumericCellFails) {
  auto table = ParseCsv("a\nfoo\n").ValueOrDie();
  EXPECT_FALSE(TableToMatrix(table).ok());
}

TEST(CsvRoundTripTest, WriteThenReadPreservesValues) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "targad_csv_test.csv").string();
  nn::Matrix m(2, 3, {1.5, 2.0, -3.25, 0.0, 4.5, 6.0});
  ASSERT_TRUE(WriteCsv(path, m, {"x", "y", "z"}).ok());
  auto table = ReadCsv(path).ValueOrDie();
  EXPECT_EQ(table.column_names, (std::vector<std::string>{"x", "y", "z"}));
  auto m2 = TableToMatrix(table).ValueOrDie();
  ASSERT_TRUE(m2.SameShape(m));
  for (size_t i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(m2.data()[i], m.data()[i]);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  auto result = ReadCsv("/nonexistent/path/file.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, WriteHeaderSizeMismatchFails) {
  nn::Matrix m(1, 2, {1.0, 2.0});
  const std::string path =
      (std::filesystem::temp_directory_path() / "targad_csv_test2.csv").string();
  EXPECT_FALSE(WriteCsv(path, m, {"only-one"}).ok());
}

TEST(CsvTest, WriteCsvRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "targad_csv_test3.csv").string();
  ASSERT_TRUE(WriteCsvRows(path, {"model", "auprc"}, {{"TargAD", "0.8"}}).ok());
  auto table = ReadCsv(path).ValueOrDie();
  EXPECT_EQ(table.rows[0][0], "TargAD");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace data
}  // namespace targad
