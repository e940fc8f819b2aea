// CSV input/output. Real deployments load UNSW-NB15-style exports through
// this reader and run them through data/preprocess.h; the bench harness uses
// the writer to emit reproduction results.

#ifndef TARGAD_DATA_CSV_H_
#define TARGAD_DATA_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "nn/matrix.h"

namespace targad {
namespace data {

/// A parsed CSV: column names plus string cells (rows x columns).
struct RawTable {
  std::vector<std::string> column_names;
  std::vector<std::vector<std::string>> rows;

  size_t num_rows() const { return rows.size(); }
  size_t num_cols() const { return column_names.size(); }
};

/// Parses a CSV file. Supports quoted fields with embedded delimiters and
/// doubled quotes. If `has_header` is false, columns are named "c0", "c1"...
[[nodiscard]] Result<RawTable> ReadCsv(const std::string& path, char delim = ',',
                         bool has_header = true);

/// Parses CSV text from a string (same dialect as ReadCsv).
[[nodiscard]] Result<RawTable> ParseCsv(const std::string& text, char delim = ',',
                          bool has_header = true);

/// Reads ONE logical CSV record field by field, honouring quoted fields with
/// embedded delimiters and doubled quotes. The record must be complete (no
/// embedded newlines) and outlive the reader. Every record, even an empty
/// one, has at least one field.
class CsvRecordReader {
 public:
  explicit CsvRecordReader(std::string_view record, char delim = ',')
      : rest_(record), delim_(delim) {}

  /// True once every field has been read.
  bool done() const { return done_; }
  /// Upper bound on the fields left: one more than the delimiters left.
  size_t MaxFields() const;
  /// Replaces *field with the next field, unquoted. Requires !done().
  void Next(std::string* field);

 private:
  std::string_view rest_;
  char delim_;
  bool done_ = false;
};

/// Splits ONE logical CSV record into fields (see CsvRecordReader); the
/// serving stream driver uses this to parse rows one line at a time
/// without buffering the whole input.
std::vector<std::string> SplitCsvRecord(std::string_view line,
                                        char delim = ',');

/// Interprets every cell of `table` as a double.
[[nodiscard]] Result<nn::Matrix> TableToMatrix(const RawTable& table);

/// Writes a matrix as CSV with the given header (empty header = none).
[[nodiscard]] Status WriteCsv(const std::string& path, const nn::Matrix& m,
                const std::vector<std::string>& header = {});

/// Writes pre-formatted rows (the bench harness's result files).
[[nodiscard]] Status WriteCsvRows(const std::string& path,
                    const std::vector<std::string>& header,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace data
}  // namespace targad

#endif  // TARGAD_DATA_CSV_H_
