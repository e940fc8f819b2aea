#include "data/csv.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace targad {
namespace data {

size_t CsvRecordReader::MaxFields() const {
  if (done_) return 0;
  // Counted in fixed 32-byte blocks: a constant inner trip count lets GCC
  // vectorize the loop at -O2, where it leaves std::count scalar.
  size_t fields = 1;
  size_t i = 0;
  for (; i + 32 <= rest_.size(); i += 32) {
    unsigned block = 0;
    for (size_t k = 0; k < 32; ++k) block += rest_[i + k] == delim_ ? 1u : 0u;
    fields += block;
  }
  for (; i < rest_.size(); ++i) fields += rest_[i] == delim_ ? 1u : 0u;
  return fields;
}

void CsvRecordReader::Next(std::string* field) {
  // Copies the literal runs between quotes and the closing delimiter. A
  // quote toggles quoting wherever it appears; inside quotes a doubled quote
  // is one literal quote, so its second half starts the next run.
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

std::vector<std::string> SplitCsvRecord(std::string_view line, char delim) {
  CsvRecordReader reader(line, delim);
  std::vector<std::string> fields;
  fields.reserve(reader.MaxFields());
  while (!reader.done()) reader.Next(&fields.emplace_back());
  return fields;
}

Result<RawTable> ParseCsv(const std::string& text, char delim, bool has_header) {
  RawTable table;
  std::istringstream in(text);
  std::string line;
  bool header_done = !has_header;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = SplitCsvRecord(line, delim);
    if (!header_done) {
      table.column_names = std::move(fields);
      header_done = true;
      continue;
    }
    if (table.column_names.empty()) {
      table.column_names.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        table.column_names.push_back("c" + std::to_string(i));
      }
    }
    if (fields.size() != table.column_names.size()) {
      return Status::InvalidArgument("CSV line ", line_no, " has ", fields.size(),
                                     " fields, expected ",
                                     table.column_names.size());
    }
    table.rows.push_back(std::move(fields));
  }
  return table;
}

Result<RawTable> ReadCsv(const std::string& path, char delim, bool has_header) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open ", path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str(), delim, has_header);
}

Result<nn::Matrix> TableToMatrix(const RawTable& table) {
  nn::Matrix m(table.num_rows(), table.num_cols());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    for (size_t j = 0; j < table.num_cols(); ++j) {
      double v = 0.0;
      if (!ParseDouble(table.rows[i][j], &v)) {
        return Status::InvalidArgument("non-numeric cell at row ", i, " col ", j,
                                       ": '", table.rows[i][j], "'");
      }
      m.At(i, j) = v;
    }
  }
  return m;
}

Status WriteCsv(const std::string& path, const nn::Matrix& m,
                const std::vector<std::string>& header) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open ", path, " for writing");
  if (!header.empty()) {
    if (header.size() != m.cols()) {
      return Status::InvalidArgument("header size ", header.size(),
                                     " != cols ", m.cols());
    }
    out << Join(header, ",") << "\n";
  }
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (j > 0) out << ',';
      out << m.At(i, j);
    }
    out << '\n';
  }
  if (!out) return Status::IOError("write failed for ", path);
  return Status::OK();
}

Status WriteCsvRows(const std::string& path,
                    const std::vector<std::string>& header,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open ", path, " for writing");
  if (!header.empty()) out << Join(header, ",") << "\n";
  for (const auto& row : rows) out << Join(row, ",") << "\n";
  if (!out) return Status::IOError("write failed for ", path);
  return Status::OK();
}

}  // namespace data
}  // namespace targad
