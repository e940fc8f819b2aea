// Open-loop replay load generator for the TCP serving front-end.
//
// Requests are scheduled by a fixed-rate arrival process (Poisson or
// uniform) and every latency is measured from the request's SCHEDULED
// arrival time, not from when the socket accepted the bytes — the standard
// defence against coordinated omission: if the server stalls, queued
// arrivals keep their old timestamps and the stall shows up in the tail
// percentiles instead of silently slowing the offered load.
//
// Two modes:
//   self-serve (default)    trains a small pipeline, freezes it at
//                           float64, starts an in-process
//                           net::TcpServer on an ephemeral loopback port,
//                           and replays against it — hermetic, used by the
//                           bench trajectory and net_loadgen_test.sh.
//   external (--host/--port) replays against an already-running
//                           `targad serve --tcp` (rows come from --in).
//
// Output: a summary line per run on stdout and a JSON record
// (net_loadgen.json by default) with offered rate, achieved rows/sec, and
// p50/p99/p999 latencies for tools/bench_delta.py.
//
//   bench_net_loadgen [--rate 2000] [--duration-s 3] [--connections 4]
//                     [--dist poisson|uniform] [--seed 1] [--queue 4096]
//                     [--workers 2] [--batch 64]
//                     [--host H --port P [--in rows.csv]]
//                     [--json net_loadgen.json]

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "net/client.h"
#include "net/metrics.h"
#include "net/server.h"
#include "serve/batch_scorer.h"

using namespace targad;  // NOLINT(build/namespaces)

namespace {

using Clock = std::chrono::steady_clock;

struct LoadgenConfig {
  std::string host;  // empty = self-serve
  int port = 0;
  double rate = 2000.0;  // requests/sec across all connections
  double duration_s = 3.0;
  size_t connections = 4;
  std::string dist = "poisson";
  uint64_t seed = 1;
  std::string in_path;
  std::string json_path = "net_loadgen.json";
  // Self-serve scorer knobs (ignored with --host).
  size_t queue = 4096;
  size_t workers = 2;
  size_t batch = 64;
};

struct WorkerResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;       // ERR overloaded — valid load-shedding outcome
  uint64_t errors = 0;     // any other ERR, or malformed replies
  uint64_t lost = 0;       // no reply before the post-run grace expired
  std::vector<uint64_t> latencies_us;  // scheduled arrival -> reply
};

/// One connection's open-loop replay at `rate` requests/sec. Sends are
/// driven purely by the arrival schedule; replies are matched FIFO (the
/// server guarantees per-connection request order).
WorkerResult RunConnection(const std::string& host, uint16_t port,
                           const std::vector<std::string>& request_lines,
                           double rate, double duration_s, bool poisson,
                           uint64_t seed, Clock::time_point start) {
  WorkerResult result;
  net::LineClient client;
  Status status = client.Connect(host, port);
  if (!status.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", status.ToString().c_str());
    result.errors = 1;
    return result;
  }

  // Nonblocking: a stalled server must never block the sender — queued
  // arrivals keep aging against their scheduled timestamps instead.
  (void)::fcntl(client.fd(), F_SETFL,
                ::fcntl(client.fd(), F_GETFL, 0) | O_NONBLOCK);

  Rng rng(seed);
  auto next_gap = [&]() -> double {
    return poisson ? rng.Exponential(rate) : 1.0 / rate;
  };

  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(duration_s));
  auto next_arrival =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(next_gap()));

  std::string outbuf;
  std::deque<Clock::time_point> awaiting;  // scheduled time, FIFO
  size_t next_line = 0;
  std::string reply;
  bool dead = false;

  auto handle_reply = [&](const std::string& text) {
    if (awaiting.empty()) {
      ++result.errors;  // unsolicited reply
      return;
    }
    const Clock::time_point scheduled = awaiting.front();
    awaiting.pop_front();
    if (text.rfind("OK ", 0) == 0) {
      ++result.ok;
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - scheduled);
      result.latencies_us.push_back(
          us.count() < 0 ? 0 : static_cast<uint64_t>(us.count()));
    } else if (text.rfind("ERR overloaded", 0) == 0) {
      ++result.shed;
    } else {
      ++result.errors;
    }
  };

  const auto grace = std::chrono::seconds(5);
  while (!dead) {
    const auto now = Clock::now();
    const bool still_sending = now < end;
    if (!still_sending && awaiting.empty() && outbuf.empty()) break;
    if (!still_sending && now > end + grace) {
      result.lost += awaiting.size();
      break;
    }

    // Emit every arrival whose scheduled time has come (they queue up
    // behind a stalled socket WITH their original timestamps).
    while (still_sending && next_arrival <= now) {
      outbuf += request_lines[next_line % request_lines.size()];
      ++next_line;
      ++result.sent;
      awaiting.push_back(next_arrival);
      next_arrival += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(next_gap()));
    }

    // Block until the next scheduled arrival or socket readiness.
    int timeout_ms = 50;
    if (still_sending) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_arrival - Clock::now());
      timeout_ms = static_cast<int>(
          std::min<int64_t>(50, std::max<int64_t>(0, until.count())));
    }
    pollfd p{client.fd(), POLLIN, 0};
    if (!outbuf.empty()) p.events |= POLLOUT;
    (void)::poll(&p, 1, timeout_ms);

    if (!outbuf.empty() && (p.revents & POLLOUT)) {
      const ssize_t n =
          ::send(client.fd(), outbuf.data(), outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        outbuf.erase(0, static_cast<size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        dead = true;
      }
    }
    if (p.revents & POLLIN) {
      // Drain replies through the client's frame decoder via RecvLine
      // with a zero timeout (data is already readable).
      for (;;) {
        Result<std::string> next = client.RecvLine(0);
        if (!next.ok()) {
          if (next.status().message().find("closed") != std::string::npos) {
            dead = true;
          }
          break;
        }
        handle_reply(*next);
      }
    }
    if (p.revents & (POLLERR | POLLHUP)) dead = true;
  }
  result.lost += dead ? awaiting.size() : 0;
  return result;
}

uint64_t Percentile(std::vector<uint64_t>* sorted, double p) {
  if (sorted->empty()) return 0;
  const size_t index = std::min(
      sorted->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted->size())));
  return (*sorted)[index];
}

data::RawTable MakeTrainingTable(uint64_t seed, size_t normals) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"amount", "rate", "channel", "label"};
  for (size_t i = 0; i < normals; ++i) {
    const bool mode = rng.Bernoulli(0.5);
    table.rows.push_back({FormatDouble(rng.Normal(mode ? 20.0 : 60.0, 4.0), 6),
                          FormatDouble(rng.Normal(0.3, 0.05), 6),
                          mode ? "web" : "pos", ""});
  }
  for (size_t i = 0; i < normals / 16 + 8; ++i) {
    table.rows.push_back({FormatDouble(rng.Normal(150.0, 5.0), 6),
                          FormatDouble(rng.Normal(0.9, 0.03), 6), "web",
                          "fraud"});
  }
  return table;
}

/// "SCORE default <csv>\n" request lines from synthetic feature rows.
std::vector<std::string> MakeRequestLines(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::string> lines;
  lines.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const char* channel = i % 3 == 0 ? "web" : (i % 3 == 1 ? "pos" : "app");
    lines.push_back("SCORE default " +
                    FormatDouble(rng.Normal(50.0, 30.0), 6) + "," +
                    FormatDouble(rng.Normal(0.5, 0.2), 6) + "," + channel +
                    "\n");
  }
  return lines;
}

/// Request lines from a CSV file (header skipped, rows used verbatim).
std::vector<std::string> LoadRequestLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (header) {
      header = false;
      continue;
    }
    if (!line.empty()) lines.push_back("SCORE default " + line + "\n");
  }
  return lines;
}

bool ParseArgs(int argc, char** argv, LoadgenConfig* config) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    double num = 0.0;
    const bool numeric = ParseDouble(value, &num);
    if (key == "--host") {
      config->host = value;
    } else if (key == "--port" && numeric) {
      config->port = static_cast<int>(num);
    } else if (key == "--rate" && numeric) {
      config->rate = num;
    } else if (key == "--duration-s" && numeric) {
      config->duration_s = num;
    } else if (key == "--connections" && numeric) {
      config->connections = static_cast<size_t>(num);
    } else if (key == "--dist") {
      config->dist = value;
    } else if (key == "--seed" && numeric) {
      config->seed = static_cast<uint64_t>(num);
    } else if (key == "--in") {
      config->in_path = value;
    } else if (key == "--json") {
      config->json_path = value;
    } else if (key == "--queue" && numeric) {
      config->queue = static_cast<size_t>(num);
    } else if (key == "--workers" && numeric) {
      config->workers = static_cast<size_t>(num);
    } else if (key == "--batch" && numeric) {
      config->batch = static_cast<size_t>(num);
    } else {
      std::fprintf(stderr, "loadgen: bad flag/value '%s %s'\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (config->dist != "poisson" && config->dist != "uniform") {
    std::fprintf(stderr, "loadgen: --dist must be poisson|uniform\n");
    return false;
  }
  if (config->connections == 0 || config->rate <= 0.0 ||
      config->duration_s <= 0.0) {
    std::fprintf(stderr, "loadgen: rate, duration, connections must be > 0\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenConfig config;
  if (!ParseArgs(argc, argv, &config)) return 2;

  // Self-serve scaffolding lives here so it outlives the replay threads.
  std::shared_ptr<const core::RowScorer> frozen;
  std::unique_ptr<serve::BatchScorer> scorer;
  std::unique_ptr<net::NetMetrics> net_metrics;
  std::unique_ptr<net::TcpServer> server;

  std::string host = config.host;
  uint16_t port = static_cast<uint16_t>(config.port);
  std::vector<std::string> request_lines;

  if (config.host.empty()) {
    const double scale = bench::BenchScale(0.1);
    const size_t n_train = static_cast<size_t>(4000 * scale) + 200;
    core::PipelineConfig pipeline_config;
    pipeline_config.model.seed = 7;
    pipeline_config.model.selection.k = 2;
    pipeline_config.model.selection.autoencoder.epochs = 10;
    pipeline_config.model.epochs = 15;
    // Served frozen at float64, as the registry serves a text model.
    frozen = std::make_shared<const core::FrozenScorer>(
        core::TargAdPipeline::Train(MakeTrainingTable(7, n_train),
                                    pipeline_config)
            .ValueOrDie()
            .Freeze(nn::Dtype::kFloat64)
            .ValueOrDie());

    serve::BatchScorerOptions scorer_options;
    scorer_options.max_batch_size = config.batch;
    scorer_options.max_queue_delay_us = 200;
    scorer_options.num_workers = config.workers;
    scorer_options.max_queue_rows = config.queue;
    scorer = std::make_unique<serve::BatchScorer>(
        serve::BatchScorer::NamedSnapshotProvider(
            [&frozen](const std::string&) { return frozen; }),
        scorer_options);

    net_metrics = std::make_unique<net::NetMetrics>();
    net::TcpServerOptions server_options;
    server_options.port = 0;
    server = std::make_unique<net::TcpServer>(scorer.get(), net_metrics.get(),
                                              server_options);
    TARGAD_CHECK_OK(server->Start());
    host = "127.0.0.1";
    port = server->port();
    request_lines = MakeRequestLines(config.seed + 100, 4096);
  } else {
    if (config.in_path.empty()) {
      std::fprintf(stderr, "loadgen: external mode needs --in <rows.csv>\n");
      return 2;
    }
    request_lines = LoadRequestLines(config.in_path);
    if (request_lines.empty()) {
      std::fprintf(stderr, "loadgen: no request rows in %s\n",
                   config.in_path.c_str());
      return 2;
    }
  }

  const bool poisson = config.dist == "poisson";
  const double per_connection_rate =
      config.rate / static_cast<double>(config.connections);
  std::printf(
      "net loadgen: %s:%u, %.0f req/s (%s) x %.1fs over %zu connections\n",
      host.c_str(), static_cast<unsigned>(port), config.rate,
      config.dist.c_str(), config.duration_s, config.connections);

  std::vector<WorkerResult> results(config.connections);
  std::vector<std::thread> threads;
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  for (size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      results[c] =
          RunConnection(host, port, request_lines, per_connection_rate,
                        config.duration_s, poisson, config.seed + c, start);
    });
  }
  for (auto& t : threads) t.join();

  WorkerResult total;
  for (const WorkerResult& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.shed += r.shed;
    total.errors += r.errors;
    total.lost += r.lost;
    total.latencies_us.insert(total.latencies_us.end(),
                              r.latencies_us.begin(), r.latencies_us.end());
  }
  std::sort(total.latencies_us.begin(), total.latencies_us.end());
  const uint64_t p50 = Percentile(&total.latencies_us, 0.50);
  const uint64_t p99 = Percentile(&total.latencies_us, 0.99);
  const uint64_t p999 = Percentile(&total.latencies_us, 0.999);
  const double rows_per_sec =
      static_cast<double>(total.ok) / config.duration_s;

  std::printf(
      "  sent %llu, ok %llu, shed %llu, errors %llu, lost %llu\n"
      "  throughput %.0f rows/sec, latency p50 %llu us, p99 %llu us, "
      "p999 %llu us\n",
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.shed),
      static_cast<unsigned long long>(total.errors),
      static_cast<unsigned long long>(total.lost), rows_per_sec,
      static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p99),
      static_cast<unsigned long long>(p999));

  if (server != nullptr) {
    server->BeginDrain();
    server->Wait();
    std::printf("%s", net_metrics->Report().c_str());
    scorer->Shutdown();
  }

  std::ofstream json(config.json_path);
  json << "{\n  \"bench\": \"net_loadgen\",\n"
       << "  \"mode\": \"" << (config.host.empty() ? "self-serve" : "external")
       << "\",\n"
       << "  \"dist\": \"" << config.dist << "\",\n"
       << "  \"rate_target\": " << FormatDouble(config.rate, 1) << ",\n"
       << "  \"duration_s\": " << FormatDouble(config.duration_s, 2) << ",\n"
       << "  \"connections\": " << config.connections << ",\n"
       << "  \"sent\": " << total.sent << ",\n"
       << "  \"ok\": " << total.ok << ",\n"
       << "  \"shed\": " << total.shed << ",\n"
       << "  \"errors\": " << total.errors << ",\n"
       << "  \"lost\": " << total.lost << ",\n"
       << "  \"rows_per_sec\": " << FormatDouble(rows_per_sec, 1) << ",\n"
       << "  \"p50_us\": " << p50 << ",\n"
       << "  \"p99_us\": " << p99 << ",\n"
       << "  \"p999_us\": " << p999 << "\n}\n";
  json.close();
  std::printf("wrote %s\n", config.json_path.c_str());

  // Lost replies or non-shed errors mean the run was not clean; fail so
  // CI and the shell test notice.
  return (total.errors == 0 && total.lost == 0) ? 0 : 1;
}
