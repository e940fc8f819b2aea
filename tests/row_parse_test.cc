// serve/row_parse.cc edge cases: the CSV record splitting and schema
// matching shared by the stdio stream driver and the TCP parse stage. The
// happy paths ride along in the integration and protocol tests; this file
// pins the corners both front-ends must agree on byte-for-byte.

#include "serve/row_parse.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace targad {
namespace serve {
namespace {

/// Minimal schema stub: feature columns f0..f{n-1}, label column "label".
class FakeScorer : public core::RowScorer {
 public:
  explicit FakeScorer(int n) {
    for (int j = 0; j < n; ++j) features_.push_back("f" + std::to_string(j));
  }

  Result<std::vector<double>> Score(const data::RawTable& table) const override {
    return std::vector<double>(table.rows.size(), 0.0);
  }
  const std::vector<std::string>& feature_columns() const override {
    return features_;
  }
  const std::string& label_column() const override { return label_; }

 private:
  std::vector<std::string> features_;
  std::string label_ = "label";
};

TEST(SplitDataRecord, PlainAndRouted) {
  DataRecord plain = SplitDataRecord("1,2,3", -1);
  EXPECT_FALSE(plain.routed);
  EXPECT_EQ(plain.model, "");
  EXPECT_EQ(plain.cells, (std::vector<std::string>{"1", "2", "3"}));

  DataRecord routed = SplitDataRecord("model=alt,1,2", -1);
  EXPECT_TRUE(routed.routed);
  EXPECT_EQ(routed.model, "alt");
  EXPECT_EQ(routed.cells, (std::vector<std::string>{"1", "2"}));
}

TEST(SplitDataRecord, LabelColumnDropped) {
  DataRecord rec = SplitDataRecord("a,b,c", 1);
  EXPECT_EQ(rec.cells, (std::vector<std::string>{"a", "c"}));

  // label_col indexes the header (routing cell not counted): with a routing
  // cell present, label 0 drops the first DATA cell, not the routing cell.
  DataRecord routed = SplitDataRecord("model=m,a,b", 0);
  EXPECT_TRUE(routed.routed);
  EXPECT_EQ(routed.cells, (std::vector<std::string>{"b"}));
}

// Routing cell and label column together, including a quoted routing cell
// (the prefix is matched after unquoting) and quoted cells around the label.
TEST(SplitDataRecord, RoutedWithLabelGoldens) {
  DataRecord rec = SplitDataRecord("model=m,1,lbl,2", 1);
  EXPECT_TRUE(rec.routed);
  EXPECT_EQ(rec.model, "m");
  EXPECT_EQ(rec.cells, (std::vector<std::string>{"1", "2"}));

  DataRecord quoted = SplitDataRecord("\"model=q\",\"a,b\",\"x\"\"y\",c", 2);
  EXPECT_TRUE(quoted.routed);
  EXPECT_EQ(quoted.model, "q");
  EXPECT_EQ(quoted.cells, (std::vector<std::string>{"a,b", "x\"y"}));

  // Only a leading cell routes; "model=" later in the record is data.
  DataRecord later = SplitDataRecord("1,model=z,lbl", 2);
  EXPECT_FALSE(later.routed);
  EXPECT_EQ(later.cells, (std::vector<std::string>{"1", "model=z"}));

  // A routing cell alone leaves no data cells; a label at index 0 of an
  // otherwise empty record leaves none either.
  DataRecord bare = SplitDataRecord("model=m", -1);
  EXPECT_TRUE(bare.routed);
  EXPECT_TRUE(bare.cells.empty());
  EXPECT_TRUE(SplitDataRecord("", 0).cells.empty());
}

// SplitDataRecord's contract is "no trailing newline": both front-ends
// strip line terminators before calling (FrameDecoder::ReadLine eats the
// \r of a CRLF, the stream driver's getline path likewise). A \r that DOES
// reach the splitter is payload — it must land in the last cell verbatim,
// not be silently dropped, or the two paths could disagree about what they
// scored.
TEST(SplitDataRecord, CarriageReturnIsPayloadNotTerminator) {
  DataRecord rec = SplitDataRecord("1,2\r", -1);
  ASSERT_EQ(rec.cells.size(), 2u);
  EXPECT_EQ(rec.cells[1], "2\r");
}

TEST(SplitDataRecord, EmptyTrailingCellIsPreserved) {
  DataRecord rec = SplitDataRecord("1,2,", -1);
  EXPECT_EQ(rec.cells, (std::vector<std::string>{"1", "2", ""}));

  // A lone empty line is one empty cell, not zero cells.
  DataRecord empty = SplitDataRecord("", -1);
  EXPECT_EQ(empty.cells, (std::vector<std::string>{""}));
}

// "model=" with an empty name still routes — to the empty model name, which
// the registry will refuse to resolve. It must NOT fall through to being
// scored as a data cell by the default model.
TEST(SplitDataRecord, ModelTokenWithEmptyName) {
  DataRecord rec = SplitDataRecord("model=,1,2", -1);
  EXPECT_TRUE(rec.routed);
  EXPECT_EQ(rec.model, "");
  EXPECT_EQ(rec.cells, (std::vector<std::string>{"1", "2"}));
}

// Oversized records parse losslessly: every cell survives the split (the
// schema check downstream is what rejects the width, and it can only report
// the right count if nothing was truncated here). A label_col beyond the
// record's width drops nothing.
TEST(SplitDataRecord, OversizedCellCountSurvivesSplit) {
  std::string line = "0";
  for (int j = 1; j < 256; ++j) line += "," + std::to_string(j);
  DataRecord rec = SplitDataRecord(line, -1);
  EXPECT_EQ(rec.cells.size(), 256u);
  EXPECT_EQ(rec.cells.back(), "255");

  DataRecord wide_label = SplitDataRecord("a,b", 5);
  EXPECT_EQ(wide_label.cells, (std::vector<std::string>{"a", "b"}));
}

TEST(MatchSchemaHeader, LabelAnywhereAndWidthMismatch) {
  FakeScorer schema(2);

  Result<int> no_label = MatchSchemaHeader({"f0", "f1"}, schema);
  ASSERT_TRUE(no_label.ok());
  EXPECT_EQ(no_label.ValueOrDie(), -1);

  Result<int> label_mid = MatchSchemaHeader({"f0", "label", "f1"}, schema);
  ASSERT_TRUE(label_mid.ok());
  EXPECT_EQ(label_mid.ValueOrDie(), 1);

  // Extra or missing feature columns are a schema error, not a crash.
  EXPECT_FALSE(MatchSchemaHeader({"f0", "f1", "f2"}, schema).ok());
  EXPECT_FALSE(MatchSchemaHeader({"f0"}, schema).ok());
  EXPECT_FALSE(MatchSchemaHeader({}, schema).ok());
}

}  // namespace
}  // namespace serve
}  // namespace targad
