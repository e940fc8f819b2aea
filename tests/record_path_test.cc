// The record scoring path: serve::PeelRoute, then core::EncodeRecords
// walking each record once with data::CsvRecordReader and encoding every
// field straight into its feature row. Its oracle is the split path it
// replaced: a verbatim copy of the string-per-field splitter and
// SplitDataRecord that came before it, the arity check, then a one-row
// OneHotEncoder::TransformT<T>.
//
//  - Goldens: a hand-written table of hostile records whose encoded row
//    bits (float and double) and Status code and message were captured
//    from the split path before the record path existed.
//  - A seeded mutation fuzzer with a fixed budget: delimiters, quotes,
//    doubled quotes, CR, whitespace, non-numeric tokens, unseen categories,
//    model= prefixes and arity shifts, checked against the oracle one
//    record at a time and in batches. The same records also pin
//    data::SplitCsvRecord and serve::SplitDataRecord, which now run on the
//    new reader, to the copied splitter.
//  - Scorer level: the FrozenScorer override of ScoreRecords against the
//    default RowScorer::ScoreRecords, reached through a decorator that
//    overrides only Score; a text model served by the registry against the
//    table path over the pipeline it was loaded from; and the schemas
//    FrozenScorer::Make and LoadArtifact refuse, since the record walk has
//    no fallback.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "nn/artifact.h"
#include "serve/model_registry.h"
#include "serve/row_parse.h"

namespace targad {
namespace {

constexpr size_t kColumns = 5;

// Five feature columns: numeric a, b, c and categorical proto, svc, whose
// categories include a delimiter, a quote and the empty string.
data::RawTable EncoderTable() {
  data::RawTable table;
  table.column_names = {"a", "proto", "b", "svc", "c"};
  table.rows = {{"0.5", "tcp", "10", "http", "1e-5"},
                {"1", "udp", "0.001", "x,y", "2"},
                {"-2.25", "icmp", "7", "q\"t", "3"},
                {"3e2", "tcp", "123456789", "", "4"}};
  return table;
}

data::OneHotEncoder FitEncoder() {
  data::OneHotEncoder encoder;
  EXPECT_TRUE(encoder.Fit(EncoderTable()).ok());
  return encoder;
}

template <typename T>
std::string Bits(const T* row, size_t n) {
  std::string out;
  char buf[24];
  for (size_t j = 0; j < n; ++j) {
    if constexpr (sizeof(T) == 4) {
      uint32_t b = 0;
      std::memcpy(&b, row + j, sizeof(b));
      std::snprintf(buf, sizeof(buf), "%08x", b);
    } else {
      uint64_t b = 0;
      std::memcpy(&b, row + j, sizeof(b));
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(b));
    }
    if (!out.empty()) out += ' ';
    out += buf;
  }
  return out;
}

/// One record's outcome: routing, status, and the encoded row's bits (empty
/// when the status is not OK).
struct Outcome {
  bool routed = false;
  std::string model;
  Status status;
  std::string bits;
};

std::string Describe(const Outcome& o) {
  return std::string(o.routed ? "routed to '" + o.model + "', " : "") +
         o.status.ToString() + " [" + o.bits + "]";
}

// A verbatim copy of the CSV record splitter the record path replaced: it
// copies every field into a string. The reference every split below is
// checked against.
class ReferenceRecordReader {
 public:
  explicit ReferenceRecordReader(std::string_view record) : rest_(record) {}

  bool done() const { return done_; }

  void Next(std::string* field) {
    // Copies the literal runs between quotes and the closing delimiter. A
    // quote toggles quoting wherever it appears; inside quotes a doubled
    // quote is one literal quote, so its second half starts the next run.
    field->clear();
    bool in_quotes = false;
    size_t run = 0;
    size_t i = 0;
    for (; i < rest_.size(); ++i) {
      const char c = rest_[i];
      if (c == '"') {
        field->append(rest_.data() + run, i - run);
        if (in_quotes && i + 1 < rest_.size() && rest_[i + 1] == '"') {
          run = ++i;
        } else {
          in_quotes = !in_quotes;
          run = i + 1;
        }
      } else if (c == delim_ && !in_quotes) {
        field->append(rest_.data() + run, i - run);
        rest_.remove_prefix(i + 1);
        return;
      }
    }
    field->append(rest_.data() + run, i - run);
    rest_ = {};
    done_ = true;
  }

 private:
  std::string_view rest_;
  char delim_ = ',';
  bool done_ = false;
};

std::vector<std::string> ReferenceSplitCsvRecord(std::string_view line) {
  ReferenceRecordReader reader(line);
  std::vector<std::string> fields;
  while (!reader.done()) reader.Next(&fields.emplace_back());
  return fields;
}

// A verbatim copy of the SplitDataRecord the record path replaced.
serve::DataRecord ReferenceSplitDataRecord(std::string_view line,
                                           int label_col) {
  constexpr const char kModelPrefix[] = "model=";
  constexpr size_t kModelPrefixLen = sizeof(kModelPrefix) - 1;
  ReferenceRecordReader reader(line);
  serve::DataRecord record;
  // The first field decides routing, so it lands in `model` and moves to
  // the cells when it turns out to be data.
  reader.Next(&record.model);
  int j = 0;  // Index of the next data field in header terms.
  if (record.model.compare(0, kModelPrefixLen, kModelPrefix) == 0) {
    record.model.erase(0, kModelPrefixLen);
    record.routed = true;
  } else {
    if (label_col != 0) record.cells.push_back(std::move(record.model));
    record.model.clear();
    j = 1;
  }
  std::string label;
  for (; !reader.done(); ++j) {
    reader.Next(j == label_col ? &label : &record.cells.emplace_back());
  }
  return record;
}

// The oracle: the split path.
template <typename T>
Outcome SplitPath(const data::OneHotEncoder& encoder, const std::string& line,
                  int label_col) {
  serve::DataRecord record = ReferenceSplitDataRecord(line, label_col);
  Outcome out{record.routed, record.model, Status::OK(), ""};
  if (record.cells.size() != kColumns) {
    out.status = core::RecordArityError(record.cells.size(), kColumns);
    return out;
  }
  data::RawTable one;
  one.column_names = EncoderTable().column_names;
  one.rows = {std::move(record.cells)};
  Result<nn::MatrixT<T>> x = encoder.TransformT<T>(one);
  if (!x.ok()) {
    out.status = x.status();
  } else {
    out.bits = Bits(x->RowPtr(0), x->cols());
  }
  return out;
}

// The record path, over a batch of lines.
template <typename T>
std::vector<Outcome> RecordPath(const data::OneHotEncoder& encoder,
                                const std::vector<std::string>& lines,
                                const std::vector<int>& label_cols) {
  std::vector<serve::RoutedRecord> peeled;
  std::vector<core::RowScorer::Record> records;
  for (size_t i = 0; i < lines.size(); ++i) {
    peeled.push_back(serve::PeelRoute(lines[i], label_cols[i]));
    records.push_back(peeled.back().record);
  }
  nn::MatrixT<T> x;
  const std::vector<Status> status = core::EncodeRecords(encoder, records, &x);
  EXPECT_EQ(status.size(), lines.size());
  EXPECT_EQ(x.rows(), lines.size());
  std::vector<Outcome> out;
  for (size_t i = 0; i < lines.size(); ++i) {
    out.push_back({peeled[i].routed, peeled[i].model, status[i],
                   status[i].ok() ? Bits(x.RowPtr(i), x.cols()) : ""});
  }
  return out;
}

template <typename T>
Outcome RecordPathOne(const data::OneHotEncoder& encoder,
                      const std::string& line, int label_col) {
  return RecordPath<T>(encoder, {line}, {label_col})[0];
}

bool Same(const Outcome& a, const Outcome& b) {
  return a.routed == b.routed && a.model == b.model && a.status == b.status &&
         a.bits == b.bits;
}

struct Golden {
  const char* line;
  int label_col;
  bool routed;
  const char* model;
  StatusCode code;
  const char* message;
  const char* float_bits;
  const char* double_bits;
};

// Captured from SplitDataRecord + arity check + one-row TransformT<T>
// before the record path existed. Ten output columns: a, proto=tcp|udp|
// icmp, b, svc=http|"x,y"|q"t|"", c.
const Golden kGoldens[] = {
    {"0.5,tcp,10,http,1e-5", -1, false, "", StatusCode::kOk,
     "",
     "3f000000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3727c5ac",
     "3fe0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ee4f8b588e368f1"},
    {"1,udp,0.001,\"x,y\",2", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 00000000 3f800000 00000000 3a83126f "
     "00000000 3f800000 00000000 00000000 40000000",
     "3ff0000000000000 0000000000000000 3ff0000000000000 0000000000000000 "
     "3f50624dd2f1a9fc 0000000000000000 3ff0000000000000 0000000000000000 "
     "0000000000000000 4000000000000000"},
    {"-2.25,icmp,7,\"q\"\"t\",3", -1, false, "", StatusCode::kOk,
     "",
     "c0100000 00000000 00000000 3f800000 40e00000 "
     "00000000 00000000 3f800000 00000000 40400000",
     "c002000000000000 0000000000000000 0000000000000000 3ff0000000000000 "
     "401c000000000000 0000000000000000 0000000000000000 3ff0000000000000 "
     "0000000000000000 4008000000000000"},
    {"3e2,tcp,123456789,,4", -1, false, "", StatusCode::kOk,
     "",
     "43960000 3f800000 00000000 00000000 4ceb79a3 "
     "00000000 00000000 00000000 3f800000 40800000",
     "4072c00000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "419d6f3454000000 0000000000000000 0000000000000000 0000000000000000 "
     "3ff0000000000000 4010000000000000"},
    {"  0.25 ,tcp,+1,http,0x10", -1, false, "", StatusCode::kOk,
     "",
     "3e800000 3f800000 00000000 00000000 3f800000 "
     "3f800000 00000000 00000000 00000000 41800000",
     "3fd0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 4030000000000000"},
    {"0.5,TCP,10,http,1", -1, false, "", StatusCode::kOk,
     "",
     "3f000000 00000000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3fe0000000000000 0000000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"abc,tcp,10,http,1", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'a' has non-numeric cell 'abc' at row 0",
     "",
     ""},
    {"1,tcp,10,http,zz", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'c' has non-numeric cell 'zz' at row 0",
     "",
     ""},
    {"1,tcp,10,http", -1, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 4 cells, model expects 5",
     "",
     ""},
    {"abc,tcp,10,http", -1, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 4 cells, model expects 5",
     "",
     ""},
    {"1,tcp,10,http,1,", -1, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 6 cells, model expects 5",
     "",
     ""},
    {"1,tcp,10,http,1\r", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"1,tcp,10,http\r,1", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "00000000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 0000000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"\r", -1, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 1 cells, model expects 5",
     "",
     ""},
    {"", -1, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 1 cells, model expects 5",
     "",
     ""},
    {"", 0, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 0 cells, model expects 5",
     "",
     ""},
    {",,,,", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'a' has non-numeric cell '' at row 0",
     "",
     ""},
    {",,,,,", 0, false, "", StatusCode::kInvalidArgument,
     "numeric column 'a' has non-numeric cell '' at row 0",
     "",
     ""},
    {"lbl,1,tcp,10,http,1", 0, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"1,tcp,lbl,10,http,1", 2, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"1,tcp,10,http,1,lbl", 5, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"1,tcp,10,http,1", 5, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"1,tcp,10,http,1", 0, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 4 cells, model expects 5",
     "",
     ""},
    {"junk,abc,tcp,zz,http,1", 0, false, "", StatusCode::kInvalidArgument,
     "numeric column 'a' has non-numeric cell 'abc' at row 0",
     "",
     ""},
    {"1,tcp,10,http,1,2,3,4", -1, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 8 cells, model expects 5",
     "",
     ""},
    {"1,\"tcp\",10,\"ht\"\"tp\",1", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "00000000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 0000000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"\"1\",tcp,\"10\",http,\"1e-5\"", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3727c5ac",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ee4f8b588e368f1"},
    {"1,tcp,10,\"\",1", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "00000000 00000000 00000000 3f800000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 0000000000000000 0000000000000000 0000000000000000 "
     "3ff0000000000000 3ff0000000000000"},
    {"1,tcp,10,\"x,y\"\"\",1", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "00000000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 0000000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"\"unterminated,tcp,10,http,1", -1, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 1 cells, model expects 5",
     "",
     ""},
    {"1,tcp,10,http,\"", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'c' has non-numeric cell '' at row 0",
     "",
     ""},
    {"1,t\"c\"p,10,http,1", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"1,tcp,10,http,nan", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'c' has non-numeric cell 'nan' at row 0",
     "",
     ""},
    {"1,tcp,10,http,inf", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'c' has non-numeric cell 'inf' at row 0",
     "",
     ""},
    {"1,tcp,10,http,1e400", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'c' has non-numeric cell '1e400' at row 0",
     "",
     ""},
    {"1,tcp,1e-310,http,1", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'b' has non-numeric cell '1e-310' at row 0",
     "",
     ""},
    {"-0.000000,tcp,-0,http,0.000", -1, false, "", StatusCode::kOk,
     "",
     "80000000 3f800000 00000000 00000000 80000000 "
     "3f800000 00000000 00000000 00000000 00000000",
     "8000000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "8000000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 0000000000000000"},
    {"9007199254740993,tcp,9007199254740992,http,0.1", -1, false, "", StatusCode::kOk,
     "",
     "5a000000 3f800000 00000000 00000000 5a000000 "
     "3f800000 00000000 00000000 00000000 3dcccccd",
     "4340000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4340000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3fb999999999999a"},
    {"12345678901234567890,tcp,1234567890123456789,http,0.3", -1, false, "", StatusCode::kOk,
     "",
     "5f2b54aa 3f800000 00000000 00000000 5d891088 "
     "3f800000 00000000 00000000 00000000 3e99999a",
     "43e56a95319d63e1 3ff0000000000000 0000000000000000 0000000000000000 "
     "43b12210f47de981 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3fd3333333333333"},
    {"0.0000000000000000000001,tcp,0.00000000000000000000001,http,1", -1, false, "", StatusCode::kOk,
     "",
     "1af1c901 3f800000 00000000 00000000 19416d9a "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3b5e392010175ee6 3ff0000000000000 0000000000000000 0000000000000000 "
     "3b282db34012b251 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {".5,tcp,5.,http,-.5", -1, false, "", StatusCode::kOk,
     "",
     "3f000000 3f800000 00000000 00000000 40a00000 "
     "3f800000 00000000 00000000 00000000 bf000000",
     "3fe0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4014000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 bfe0000000000000"},
    {"007.50,tcp,-000,http,00", -1, false, "", StatusCode::kOk,
     "",
     "40f00000 3f800000 00000000 00000000 80000000 "
     "3f800000 00000000 00000000 00000000 00000000",
     "401e000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "8000000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 0000000000000000"},
    {"1 ,tcp, 10,http ,1", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "00000000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 0000000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"0.1,tcp,0.2,http,0.3", -1, false, "", StatusCode::kOk,
     "",
     "3dcccccd 3f800000 00000000 00000000 3e4ccccd "
     "3f800000 00000000 00000000 00000000 3e99999a",
     "3fb999999999999a 3ff0000000000000 0000000000000000 0000000000000000 "
     "3fc999999999999a 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3fd3333333333333"},
    {"3.4028235677973366e38,tcp,1e300,http,-1e300", -1, false, "", StatusCode::kOk,
     "",
     "7f800000 3f800000 00000000 00000000 7f800000 "
     "3f800000 00000000 00000000 00000000 ff800000",
     "47effffff0000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "7e37e43c8800759c 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 fe37e43c8800759c"},
    {"1,tcp,10,model=z,1", -1, false, "", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "00000000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 0000000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"model=alt,1,tcp,10,http,1", -1, true, "alt", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"model=alt,1,tcp,10,http,1", 0, true, "alt", StatusCode::kInvalidArgument,
     "batch scorer: row has 4 cells, model expects 5",
     "",
     ""},
    {"model=alt,1,tcp,lbl,10,http,1", 2, true, "alt", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"\"model=q\",1,tcp,10,\"x,y\",1", -1, true, "q", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "00000000 3f800000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 0000000000000000 3ff0000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {"model=", -1, true, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 0 cells, model expects 5",
     "",
     ""},
    {"model=x", -1, true, "x", StatusCode::kInvalidArgument,
     "batch scorer: row has 0 cells, model expects 5",
     "",
     ""},
    {"model=x", 0, true, "x", StatusCode::kInvalidArgument,
     "batch scorer: row has 0 cells, model expects 5",
     "",
     ""},
    {"model=x,", -1, true, "x", StatusCode::kInvalidArgument,
     "batch scorer: row has 1 cells, model expects 5",
     "",
     ""},
    {"model=x,", 0, true, "x", StatusCode::kInvalidArgument,
     "batch scorer: row has 0 cells, model expects 5",
     "",
     ""},
    {"model=x,", 1, true, "x", StatusCode::kInvalidArgument,
     "batch scorer: row has 1 cells, model expects 5",
     "",
     ""},
    {"model=x,1,tcp,10,http", -1, true, "x", StatusCode::kInvalidArgument,
     "batch scorer: row has 4 cells, model expects 5",
     "",
     ""},
    {"model=x,abc,tcp,10,http,1", -1, true, "x", StatusCode::kInvalidArgument,
     "numeric column 'a' has non-numeric cell 'abc' at row 0",
     "",
     ""},
    {"mode=x,1,tcp,10,http", -1, false, "", StatusCode::kInvalidArgument,
     "numeric column 'a' has non-numeric cell 'mode=x' at row 0",
     "",
     ""},
    {"\"model=x\",abc,tcp,10,http", -1, true, "x", StatusCode::kInvalidArgument,
     "batch scorer: row has 4 cells, model expects 5",
     "",
     ""},
    {"model=x\r,1,tcp,10,http,1", -1, true, "x\r", StatusCode::kOk,
     "",
     "3f800000 3f800000 00000000 00000000 41200000 "
     "3f800000 00000000 00000000 00000000 3f800000",
     "3ff0000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "4024000000000000 3ff0000000000000 0000000000000000 0000000000000000 "
     "0000000000000000 3ff0000000000000"},
    {" model=x,1,tcp,10,http,1", -1, false, "", StatusCode::kInvalidArgument,
     "batch scorer: row has 6 cells, model expects 5",
     "",
     ""},
};

TEST(RecordPathGoldens, EncodedBitsAndErrorsMatchSplitPath) {
  const data::OneHotEncoder encoder = FitEncoder();
  ASSERT_EQ(encoder.output_dim(), 10u);
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(std::string("line '") + g.line + "' label " +
                 std::to_string(g.label_col));
    const Status want = g.code == StatusCode::kOk
                            ? Status::OK()
                            : Status(g.code, g.message);
    const Outcome f = RecordPathOne<float>(encoder, g.line, g.label_col);
    const Outcome d = RecordPathOne<double>(encoder, g.line, g.label_col);
    for (const Outcome* o : {&f, &d}) {
      EXPECT_EQ(o->routed, g.routed);
      EXPECT_EQ(o->model, g.model);
      EXPECT_EQ(o->status, want) << o->status.ToString();
    }
    EXPECT_EQ(f.bits, g.float_bits);
    EXPECT_EQ(d.bits, g.double_bits);
    // The split path still gives the same answers.
    EXPECT_TRUE(Same(SplitPath<float>(encoder, g.line, g.label_col), f));
    EXPECT_TRUE(Same(SplitPath<double>(encoder, g.line, g.label_col), d));
  }
}

// ---- Seeded mutation fuzzer ----------------------------------------------

const char* const kTokens[] = {"abc", "nan",   "inf", "1e400", "+1",
                               "0x1p3", "-",   ".",   "1e",    "-.5",
                               " 7 ", "1e-310", "TCP", "zz",   "model=q",
                               "9007199254740993", "0.000000000000000000001"};

size_t Pick(Rng* rng, size_t n) {
  return static_cast<size_t>(rng->UniformInt(n));
}

// One random mutation of `line`.
void Mutate(Rng* rng, std::string* line) {
  const size_t at = line->empty() ? 0 : Pick(rng, line->size() + 1);
  switch (Pick(rng, 11)) {
    case 0:  // Insert a delimiter.
      line->insert(at, ",");
      break;
    case 1:  // Delete a character.
      if (!line->empty()) line->erase(Pick(rng, line->size()), 1);
      break;
    case 2: {  // Duplicate a delimiter.
      const size_t comma = line->find(',', at);
      if (comma != std::string::npos) line->insert(comma, ",");
      break;
    }
    case 3:  // Insert a quote.
      line->insert(at, "\"");
      break;
    case 4:  // Insert a doubled quote.
      line->insert(at, "\"\"");
      break;
    case 5:  // Inject a CR.
      line->insert(at, "\r");
      break;
    case 6:  // Inject whitespace.
      line->insert(at, rng->Bernoulli(0.5) ? " " : "\t");
      break;
    case 7: {  // Replace a field with a hostile token or unseen category.
      const size_t begin = line->rfind(',', at == 0 ? 0 : at - 1);
      const size_t from = begin == std::string::npos ? 0 : begin + 1;
      const size_t end = line->find(',', from);
      const size_t to = end == std::string::npos ? line->size() : end;
      line->replace(from, to - from, kTokens[Pick(rng, std::size(kTokens))]);
      break;
    }
    case 8: {  // Prefix a routing cell.
      const char* const prefixes[] = {"model=m,", "\"model=q\",", "model=",
                                      "model=m", "\"model=\"\"x\",", "mode=x,"};
      line->insert(0, prefixes[Pick(rng, std::size(prefixes))]);
      break;
    }
    case 9: {  // Shift the arity up by k.
      for (size_t k = 1 + Pick(rng, 3); k > 0; --k) line->append(",1");
      break;
    }
    default: {  // Shift the arity down by k.
      for (size_t k = 1 + Pick(rng, 3); k > 0; --k) {
        const size_t comma = line->rfind(',');
        if (comma == std::string::npos) break;
        line->erase(comma);
      }
      break;
    }
  }
}

std::vector<std::string> FuzzSeeds() {
  std::vector<std::string> seeds;
  for (const Golden& g : kGoldens) seeds.push_back(g.line);
  seeds.push_back("0.565434,tcp,0.25,http,12");
  seeds.push_back("-0.000000,icmp,7,\"x,y\",3.5");
  seeds.push_back("lbl,0.5,udp,1,\"q\"\"t\",2");
  return seeds;
}

TEST(RecordPathFuzz, MatchesSplitPathOnSeededMutations) {
  const data::OneHotEncoder encoder = FitEncoder();
  const std::vector<std::string> seeds = FuzzSeeds();
  const int label_cols[] = {-1, -1, 0, 1, 2, 4, 5, 7};
  Rng rng(20241017);
  constexpr int kIterations = 20000;
  constexpr size_t kBatch = 64;
  std::vector<std::string> lines;
  std::vector<int> labels;
  std::vector<Outcome> want_f, want_d;
  size_t ok_rows = 0, arity_errors = 0, cell_errors = 0, routed = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::string line = seeds[Pick(&rng, seeds.size())];
    for (size_t m = 1 + Pick(&rng, 4); m > 0; --m) Mutate(&rng, &line);
    const int label_col = label_cols[Pick(&rng, std::size(label_cols))];

    const Outcome oracle_f = SplitPath<float>(encoder, line, label_col);
    const Outcome oracle_d = SplitPath<double>(encoder, line, label_col);
    const Outcome got_f = RecordPathOne<float>(encoder, line, label_col);
    const Outcome got_d = RecordPathOne<double>(encoder, line, label_col);
    ASSERT_TRUE(Same(got_f, oracle_f))
        << "line '" << line << "' label " << label_col << "\n  record: "
        << Describe(got_f) << "\n  split:  " << Describe(oracle_f);
    ASSERT_TRUE(Same(got_d, oracle_d))
        << "line '" << line << "' label " << label_col << "\n  record: "
        << Describe(got_d) << "\n  split:  " << Describe(oracle_d);
    // The splitters built on the new reader keep the old output.
    const serve::DataRecord split = serve::SplitDataRecord(line, label_col);
    const serve::DataRecord want = ReferenceSplitDataRecord(line, label_col);
    ASSERT_EQ(split.routed, want.routed) << "line '" << line << "'";
    ASSERT_EQ(split.model, want.model) << "line '" << line << "'";
    ASSERT_EQ(split.cells, want.cells)
        << "line '" << line << "' label " << label_col;
    ASSERT_EQ(data::SplitCsvRecord(line), ReferenceSplitCsvRecord(line))
        << "line '" << line << "'";
    ok_rows += oracle_d.status.ok();
    arity_errors += oracle_d.status.message().find("cells, model expects") !=
                    std::string::npos;
    cell_errors += oracle_d.status.message().find("non-numeric") !=
                   std::string::npos;
    routed += oracle_d.routed;

    // Batches: one EncodeRecords call over many records must encode each
    // exactly as it does alone (shared scratch, no state across rows).
    lines.push_back(line);
    labels.push_back(label_col);
    want_f.push_back(oracle_f);
    want_d.push_back(oracle_d);
    if (lines.size() == kBatch) {
      const std::vector<Outcome> batch_f =
          RecordPath<float>(encoder, lines, labels);
      const std::vector<Outcome> batch_d =
          RecordPath<double>(encoder, lines, labels);
      for (size_t i = 0; i < kBatch; ++i) {
        ASSERT_TRUE(Same(batch_f[i], want_f[i])) << "batched '" << lines[i];
        ASSERT_TRUE(Same(batch_d[i], want_d[i])) << "batched '" << lines[i];
      }
      lines.clear();
      labels.clear();
      want_f.clear();
      want_d.clear();
    }
  }
  // The mutations reach every outcome, not just one.
  EXPECT_GT(ok_rows, 1000u);
  EXPECT_GT(arity_errors, 1000u);
  EXPECT_GT(cell_errors, 1000u);
  EXPECT_GT(routed, 1000u);
}

// ---- Scorer level -----------------------------------------------------------

// Overrides only Score, so its ScoreRecords is RowScorer's default: the
// table path with its row-by-row fallback.
class TableOnly final : public core::RowScorer {
 public:
  explicit TableOnly(const core::RowScorer* inner) : inner_(inner) {}
  Result<std::vector<double>> Score(
      const data::RawTable& table) const override {
    return inner_->Score(table);
  }
  const std::vector<std::string>& feature_columns() const override {
    return inner_->feature_columns();
  }
  const std::string& label_column() const override {
    return inner_->label_column();
  }

 private:
  const core::RowScorer* inner_;
};

data::RawTable TrainingTable() {
  Rng rng(7);
  data::RawTable table;
  table.column_names = {"a", "proto", "b", "svc", "c", "label"};
  const char* const protos[] = {"tcp", "udp", "icmp"};
  const char* const services[] = {"http", "x,y", "q\"t", ""};
  for (int i = 0; i < 300; ++i) {
    const bool attack = i % 12 == 0;
    table.rows.push_back(
        {std::to_string(rng.Normal(attack ? 5.0 : 0.0, 1.0)),
         protos[i % 3], std::to_string(rng.Uniform(0.0, 10.0)),
         services[i % 4], std::to_string(rng.Normal(attack ? 3.0 : 1.0, 0.5)),
         attack ? "attack" : ""});
  }
  return table;
}

void ExpectSameResults(const std::vector<Result<double>>& got,
                       const std::vector<Result<double>>& want,
                       const std::vector<std::string>& lines) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("line '" + lines[i] + "'");
    ASSERT_EQ(got[i].ok(), want[i].ok())
        << got[i].status().ToString() << " vs " << want[i].status().ToString();
    if (got[i].ok()) {
      uint64_t a = 0, b = 0;
      std::memcpy(&a, &*got[i], sizeof(a));
      std::memcpy(&b, &*want[i], sizeof(b));
      EXPECT_EQ(a, b);
    } else {
      EXPECT_EQ(got[i].status(), want[i].status());
    }
  }
}

Result<core::TargAdPipeline> TrainPipeline() {
  core::PipelineConfig config;
  config.model.seed = 3;
  config.model.selection.k = 2;
  config.model.selection.autoencoder.epochs = 3;
  config.model.epochs = 4;
  return core::TargAdPipeline::Train(TrainingTable(), config);
}

// `n` well-formed fuzz seeds, each mutated with probability `mutate_p`.
std::vector<std::string> MutatedBatch(Rng* rng, size_t n, double mutate_p) {
  const std::vector<std::string> seeds = FuzzSeeds();
  std::vector<std::string> lines;
  for (size_t i = 0; i < n; ++i) {
    std::string line = seeds[Pick(rng, 4)];
    if (rng->Bernoulli(mutate_p)) Mutate(rng, &line);
    lines.push_back(line);
  }
  return lines;
}

std::vector<core::RowScorer::Record> Records(
    const std::vector<std::string>& lines, int label_col) {
  std::vector<core::RowScorer::Record> records;
  for (const std::string& line : lines) {
    records.push_back(serve::PeelRoute(line, label_col).record);
  }
  return records;
}

TEST(RecordPathScorers, OverridesMatchDefaultRecordPath) {
  Result<core::TargAdPipeline> pipeline = TrainPipeline();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  Result<core::FrozenScorer> f32 = pipeline->Freeze(nn::Dtype::kFloat32);
  Result<core::FrozenScorer> f64 = pipeline->Freeze(nn::Dtype::kFloat64);
  ASSERT_TRUE(f32.ok() && f64.ok());
  const core::RowScorer* scorers[] = {&*f32, &*f64};

  Rng rng(99);
  for (int batch = 0; batch < 40; ++batch) {
    // Half the batches are all well-formed rows, the table path's fast case;
    // the rest mix in mutated records, which send it row by row.
    const std::vector<std::string> lines =
        MutatedBatch(&rng, 1 + Pick(&rng, 40), batch % 2 == 1 ? 0.3 : 0.0);
    const std::vector<core::RowScorer::Record> records =
        Records(lines, batch % 3 == 0 ? -1 : 5);
    for (const core::RowScorer* scorer : scorers) {
      ExpectSameResults(scorer->ScoreRecords(records),
                        TableOnly(scorer).ScoreRecords(records), lines);
    }
  }
}

// The default record path over a pipeline's own table Score: how a text
// model was served before the registry froze every model on load.
class PipelineTable final : public core::RowScorer {
 public:
  explicit PipelineTable(const core::TargAdPipeline* pipeline)
      : pipeline_(pipeline) {}
  Result<std::vector<double>> Score(
      const data::RawTable& table) const override {
    return pipeline_->Score(table);
  }
  const std::vector<std::string>& feature_columns() const override {
    return pipeline_->feature_columns();
  }
  const std::string& label_column() const override {
    return pipeline_->label_column();
  }

 private:
  const core::TargAdPipeline* pipeline_;
};

// A scratch file path, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("targad_record_path_" + std::to_string(::getpid()) + "_" +
               name)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// A text model served at float64 is a frozen scorer walking each record
// once; it must return the score bits and the Status, code and message,
// that the table path over the loaded pipeline returns for every record.
TEST(RecordPathScorers, TextModelsKeepTheirOutputsWhenServedFrozen) {
  Result<core::TargAdPipeline> trained = TrainPipeline();
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const TempFile model("text.targad");
  {
    std::ofstream out(model.path());
    ASSERT_TRUE(trained->Save(out).ok());
  }
  std::ifstream in(model.path());
  Result<core::TargAdPipeline> loaded = core::TargAdPipeline::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.PublishFile("m", model.path()).ok());
  Result<std::shared_ptr<const core::RowScorer>> served =
      registry.GetScorer("m");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_NE(dynamic_cast<const core::FrozenScorer*>(served->get()), nullptr);
  const PipelineTable oracle(&*loaded);

  Rng rng(101);
  for (int batch = 0; batch < 60; ++batch) {
    const std::vector<std::string> lines =
        MutatedBatch(&rng, 1 + Pick(&rng, 40), batch % 2 == 1 ? 0.3 : 0.0);
    for (const int label_col : {-1, 5}) {
      const std::vector<core::RowScorer::Record> records =
          Records(lines, label_col);
      ExpectSameResults((*served)->ScoreRecords(records),
                        oracle.ScoreRecords(records), lines);
    }
  }
}

// "<n> <len>:<column>...": the feature column list of a .tgz1 meta blob.
std::string MetaColumns(const std::vector<std::string>& columns) {
  std::string out = std::to_string(columns.size());
  for (const std::string& c : columns) {
    out += " " + std::to_string(c.size()) + ":" + c;
  }
  return out;
}

// Copies the .tgz1 at `from` to `to` with `old_text` replaced by `new_text`
// in its meta blob and every tensor kept: a well-formed file (valid
// checksum) that carries a hostile schema.
void RewriteMeta(const std::string& from, const std::string& to,
                 const std::string& old_text, const std::string& new_text) {
  auto artifact = nn::LoadedArtifact::Load(from);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  std::string meta((*artifact)->meta());
  const size_t at = meta.find(old_text);
  ASSERT_NE(at, std::string::npos);
  meta.replace(at, old_text.size(), new_text);
  nn::ArtifactWriter writer((*artifact)->dtype());
  writer.set_meta(meta);
  for (size_t i = 0; i < (*artifact)->num_sections(); ++i) {
    const nn::LoadedArtifact::Section& section = (*artifact)->section(i);
    writer.AddTensor(section.rows, section.cols, section.data);
  }
  ASSERT_TRUE(writer.WriteFile(to).ok());
}

std::string SavedEncoder(const data::OneHotEncoder& encoder) {
  std::ostringstream out;
  EXPECT_TRUE(encoder.Save(out).ok());
  return out.str();
}

// The record walk has no fallback, so a scorer whose schema it cannot
// encode exactly must not exist: Make and a hostile .tgz1 both fail with
// InvalidArgument, and the consistent schema still builds and loads.
TEST(RecordPathScorers, MakeAndLoadArtifactRejectInconsistentSchemas) {
  Result<core::TargAdPipeline> pipeline = TrainPipeline();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  data::RawTable features = TrainingTable();
  features.column_names.pop_back();
  for (auto& row : features.rows) row.pop_back();
  core::FrozenScorer::Spec spec;
  spec.label_column = "label";
  spec.feature_columns = features.column_names;
  ASSERT_TRUE(spec.encoder.Fit(features).ok());
  data::MinMaxNormalizer normalizer;
  ASSERT_TRUE(normalizer.Fit(*spec.encoder.Transform(features)).ok());
  spec.mins = normalizer.mins();
  spec.maxs = normalizer.maxs();
  spec.m = pipeline->model().m();
  spec.k = pipeline->model().k();
  const nn::Sequential& net = pipeline->model().classifier().mlp().net();

  // An encoder that knows one more protocol emits 11 features for the
  // normalizer's 10.
  data::RawTable wider_categories = features;
  wider_categories.rows[0][1] = "sctp";
  data::OneHotEncoder wide_encoder;
  ASSERT_TRUE(wide_encoder.Fit(wider_categories).ok());
  ASSERT_EQ(wide_encoder.output_dim(), spec.encoder.output_dim() + 1);

  const TempFile good("good.tgz1");
  const TempFile hostile("hostile.tgz1");
  for (const nn::Dtype dtype : {nn::Dtype::kFloat32, nn::Dtype::kFloat64}) {
    SCOPED_TRACE(nn::DtypeName(dtype));
    Result<core::FrozenScorer> consistent =
        core::FrozenScorer::Make(spec, net, dtype);
    ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
    ASSERT_TRUE(consistent->SaveArtifact(good.path()).ok());
    ASSERT_TRUE(core::FrozenScorer::LoadArtifact(good.path()).ok());

    const std::vector<std::vector<std::string>> bad_columns = {
        {"a", "proto", "b", "svc", "label"},       // Label among features.
        {"a", "proto", "b", "svc", "c", "extra"},  // Wider than the encoder.
        {"a", "proto", "b", "svc"},                // Narrower.
    };
    for (const auto& columns : bad_columns) {
      SCOPED_TRACE(MetaColumns(columns));
      core::FrozenScorer::Spec bad = spec;
      bad.feature_columns = columns;
      EXPECT_EQ(core::FrozenScorer::Make(bad, net, dtype).status().code(),
                StatusCode::kInvalidArgument);
      RewriteMeta(good.path(), hostile.path(), MetaColumns(spec.feature_columns),
                  MetaColumns(columns));
      EXPECT_EQ(core::FrozenScorer::LoadArtifact(hostile.path()).status().code(),
                StatusCode::kInvalidArgument);
    }

    core::FrozenScorer::Spec bad = spec;
    bad.encoder = wide_encoder;
    EXPECT_EQ(core::FrozenScorer::Make(bad, net, dtype).status().code(),
              StatusCode::kInvalidArgument);
    RewriteMeta(good.path(), hostile.path(), SavedEncoder(spec.encoder),
                SavedEncoder(wide_encoder));
    EXPECT_EQ(core::FrozenScorer::LoadArtifact(hostile.path()).status().code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace targad
