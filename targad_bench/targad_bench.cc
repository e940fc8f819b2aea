// targad_bench: the end-to-end benchmark of the TargAD serving and training
// stack, with per-layer attribution. It drives the library through the
// public APIs the CLI uses (ModelRegistry, BatchScorer, TcpServer,
// ScoreCsvStream, TargAdPipeline::Train) and checks every output.
//
//   targad_bench --workload tcp_narrow|fleet_zipf|bulk_wide|train_unsw|all
//                [--seed 1] [--seconds 20] [--trace 0|1]
//                [--out-dir DIR] [--json report.json] [--smoke]
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// that records spans around every call into the library, reports the
// per-layer metrics, and writes DIR/trace_<workload>.json. Every metric is
// printed as "name value unit" on stderr; the last line of stdout is
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every correctness check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

using namespace targad;           // NOLINT(build/namespaces)
using namespace targad::harness;  // NOLINT(build/namespaces)

namespace {

using WorkloadFn = Report (*)(const RunContext&);

const std::vector<std::pair<std::string, WorkloadFn>>& Workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> kWorkloads = {
      {"tcp_narrow", RunTcpNarrow},
      {"fleet_zipf", RunFleetZipf},
      {"bulk_wide", RunBulkWide},
      {"train_unsw", RunTrainUnsw},
  };
  return kWorkloads;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "targad_bench: %s\nusage: targad_bench --workload "
               "tcp_narrow|fleet_zipf|bulk_wide|train_unsw|all [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR] [--json FILE] "
               "[--smoke]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options, std::string* json) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    double number = 0.0;
    const bool numeric = ParseDouble(value, &number);
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed" && numeric && number >= 0) {
      options->seed = static_cast<uint64_t>(number);
    } else if (key == "--seconds" && numeric && number > 0) {
      options->seconds = number;
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      options->trace = value == "1";
    } else if (key == "--out-dir") {
      options->out_dir = value;
    } else if (key == "--json") {
      *json = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

struct Outcome {
  std::string workload;
  Report report;
};

/// Runs one workload in a fresh scratch directory under out_dir.
Outcome RunOne(const Options& options, const std::string& name,
               WorkloadFn run) {
  namespace fs = std::filesystem;
  const std::string dir = options.out_dir + "/" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  Outcome outcome{name, {}};
  if (ec) {
    outcome.report.Check(false, "cannot create " + dir);
    return outcome;
  }
  Tracer tracer(options.trace);
  {
    ScopedSpan root(&tracer, "workload", 0);
    outcome.report = run(RunContext{options, &tracer, root.id(), dir});
  }
  Report& report = outcome.report;
  const std::vector<MetricSpec>& specs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricSpec& spec : specs) {
    auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end()) {
      // A layer off this workload's path reports 0; an end-to-end metric
      // is never missing unless the run failed.
      if (!options.trace) {
        report.Check(false, "no value for " + std::string(spec.name));
      }
      report.metrics[spec.name] = 0.0;
    } else if (!std::isfinite(it->second)) {
      report.Check(false, std::string(spec.name) + " is not finite");
    }
  }
  if (options.trace) {
    const std::string path = options.out_dir + "/trace_" + name + ".json";
    const Status written = tracer.WriteJson(path, name, Fingerprint());
    report.Check(written.ok(), "trace: " + written.ToString());
    std::fprintf(stderr, "[%s] wrote %s (%zu spans)\n", name.c_str(),
                 path.c_str(), tracer.num_spans());
    for (const auto& [span, t] : tracer.Totals()) {
      std::fprintf(stderr,
                   "[%s] span %-28s n=%-7llu total %9.4f s  self %9.4f s\n",
                   name.c_str(), span.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_s,
                   t.self_s);
    }
  }
  return outcome;
}

void PrintHuman(const Options& options, const Outcome& o) {
  const std::vector<MetricSpec>& specs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  const char* name = o.workload.c_str();
  for (const MetricSpec& spec : specs) {
    std::fprintf(stderr, "[%s] %-32s %16.6f %s\n", name, spec.name,
                 o.report.metrics.at(spec.name), spec.unit);
  }
  for (const auto& [note, value] : o.report.notes) {
    std::fprintf(stderr, "[%s] note %-27s %16.6f\n", name, note.c_str(), value);
  }
  std::fprintf(stderr, "[%s] attempted %llu, failed %llu, %s\n", name,
               static_cast<unsigned long long>(o.report.attempted),
               static_cast<unsigned long long>(o.report.failed),
               o.report.correct() ? "all checks passed" : "CHECKS FAILED");
  for (const std::string& problem : o.report.problems) {
    std::fprintf(stderr, "[%s] problem: %s\n", name, problem.c_str());
  }
  for (const std::string& warning : o.report.warnings) {
    std::fprintf(stderr, "[%s] warning: %s\n", name, warning.c_str());
  }
}

std::string MetricsJson(const Options& options,
                        const std::vector<Outcome>& outcomes) {
  const std::vector<MetricSpec>& specs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string out = "{";
  bool first = true;
  for (const Outcome& o : outcomes) {
    const std::string prefix = outcomes.size() > 1 ? o.workload + "." : "";
    for (const MetricSpec& spec : specs) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + prefix + spec.name + "\": {\"value\": " +
             JsonNumber(o.report.metrics.at(spec.name)) + ", \"unit\": \"" +
             spec.unit + "\"}";
    }
  }
  return out + "}";
}

bool WriteReport(const std::string& path, const Options& options,
                 const std::vector<Outcome>& outcomes) {
  std::ofstream out(path);
  out << "{\n\"seed\": " << options.seed << ",\n\"seconds\": "
      << JsonNumber(options.seconds) << ",\n\"trace\": " << options.trace
      << ",\n\"fingerprint\": {";
  const auto fingerprint = Fingerprint();
  for (size_t i = 0; i < fingerprint.size(); ++i) {
    out << (i ? ", " : "") << '"' << fingerprint[i].first << "\": \""
        << fingerprint[i].second << '"';
  }
  out << "},\n\"workloads\": {";
  for (size_t w = 0; w < outcomes.size(); ++w) {
    const Report& r = outcomes[w].report;
    out << (w ? ",\n" : "\n") << "\"" << outcomes[w].workload
        << "\": {\"correct\": " << (r.correct() ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"notes\": {";
    bool first = true;
    for (const auto& [note, value] : r.notes) {
      out << (first ? "" : ", ") << '"' << note << "\": " << JsonNumber(value);
      first = false;
    }
    out << "}, \"metrics\": " << MetricsJson(options, {outcomes[w]}) << "}";
  }
  out << "\n}\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string json_path;
  if (!ParseArgs(argc, argv, &options, &json_path)) {
    return Usage("bad or missing arguments");
  }
  std::vector<std::pair<std::string, WorkloadFn>> selected;
  for (const auto& workload : Workloads()) {
    if (options.workload == "all" || options.workload == workload.first) {
      selected.push_back(workload);
    }
  }
  if (selected.empty()) return Usage("unknown workload");

  for (const auto& [key, value] : Fingerprint()) {
    std::fprintf(stderr, "fingerprint %s: %s\n", key.c_str(), value.c_str());
  }
  std::vector<Outcome> outcomes;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const auto& [name, run] : selected) {
    outcomes.push_back(RunOne(options, name, run));
    PrintHuman(options, outcomes.back());
    correct = correct && outcomes.back().report.correct();
    attempted += outcomes.back().report.attempted;
    failed += outcomes.back().report.failed;
  }
  if (!json_path.empty() && !WriteReport(json_path, options, outcomes)) {
    std::fprintf(stderr, "targad_bench: cannot write %s\n", json_path.c_str());
    correct = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed),
              MetricsJson(options, outcomes).c_str());
  return correct ? 0 : 1;
}
