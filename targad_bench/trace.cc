#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace targad {
namespace harness {

void Tracer::Record(const char* name, uint64_t id, uint64_t parent,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  const Span span{name, id, parent, ns(start), ns(end)};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    const int64_t duration = std::max<int64_t>(0, s.end_ns - s.start_ns);
    // Union of the children's intervals, clipped to this span: siblings
    // overlap (concurrent rows, two scoring workers), so a plain sum would
    // count the same nanosecond twice.
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t cursor = s.start_ns;
      for (const auto& [begin, end] : kids) {
        const int64_t lo = std::max(begin, cursor);
        const int64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_s += static_cast<double>(duration) * 1e-9;
    t.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return totals;
}

Status Tracer::WriteJson(
    const std::string& path, const std::string& workload,
    const std::vector<std::pair<std::string, std::string>>& fingerprint)
    const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open ", path, " for writing");
  out << "{\n\"workload\": \"" << workload << "\",\n\"fingerprint\": {";
  for (size_t i = 0; i < fingerprint.size(); ++i) {
    out << (i ? ", " : "") << '"' << fingerprint[i].first << "\": \""
        << fingerprint[i].second << '"';
  }
  out << "},\n\"totals\": {";
  bool first = true;
  for (const auto& [name, t] : Totals()) {
    out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
        << t.count << ", \"total_s\": " << t.total_s
        << ", \"self_s\": " << t.self_s << "}";
    first = false;
  }
  out << "\n},\n\"spans\": [";
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
  }
  out << "\n]\n}\n";
  out.close();
  if (!out) return Status::IOError("write failed: ", path);
  return Status::OK();
}

}  // namespace harness
}  // namespace targad
