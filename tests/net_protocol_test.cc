// Tests for the TCP serving front-end: the wire protocol pieces in
// isolation (FrameDecoder, ParseRequest, reply formatting, the shared CSV
// row splitter, a Session's reply ring) and the full server over real
// sockets — partial frames, unknown-model routing, forced admission
// exhaustion ("ERR overloaded"), per-connection reply ordering, several
// connections sending and reading at once, idle timeout, connection caps,
// and graceful drain with rows still in flight (the TSan-critical
// handshake).

#include "net/protocol.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/scorer.h"
#include "metrics_check.h"
#include "net/client.h"
#include "net/metrics.h"
#include "net/server.h"
#include "serve/batch_scorer.h"
#include "serve/metrics.h"
#include "serve/row_parse.h"

namespace targad {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// FrameDecoder

TEST(FrameDecoderTest, SplitsLinesAndStripsCr) {
  FrameDecoder decoder(64);
  const std::string input = "PING\r\nSTATS\nQUIT\n";
  decoder.Append(input.data(), input.size());
  std::string line;
  ASSERT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kLine);
  EXPECT_EQ(line, "PING");
  ASSERT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kLine);
  EXPECT_EQ(line, "STATS");
  ASSERT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kLine);
  EXPECT_EQ(line, "QUIT");
  EXPECT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, ReassemblesAcrossArbitraryAppendBoundaries) {
  const std::string wire = "SCORE default 1.5,2.5\nPING\n";
  // Every split point must produce the same two lines.
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    FrameDecoder decoder(256);
    decoder.Append(wire.data(), cut);
    std::string line;
    // Drain whatever is complete before the second half arrives.
    std::vector<std::string> lines;
    while (decoder.ReadLine(&line) == FrameDecoder::Outcome::kLine) {
      lines.push_back(line);
    }
    decoder.Append(wire.data() + cut, wire.size() - cut);
    while (decoder.ReadLine(&line) == FrameDecoder::Outcome::kLine) {
      lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(lines[0], "SCORE default 1.5,2.5");
    EXPECT_EQ(lines[1], "PING");
  }
}

TEST(FrameDecoderTest, OversizedLineWithoutNewlinePoisons) {
  FrameDecoder decoder(8);
  const std::string blob(9, 'x');  // no newline, over the cap
  decoder.Append(blob.data(), blob.size());
  std::string line;
  EXPECT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kOversized);
  // Poisoned: even a newline arriving later cannot resync.
  decoder.Append("\nPING\n", 6);
  EXPECT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kOversized);
}

TEST(FrameDecoderTest, OversizedTerminatedLineAlsoRejected) {
  FrameDecoder decoder(4);
  const std::string wire = "toolongline\n";
  decoder.Append(wire.data(), wire.size());
  std::string line;
  EXPECT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kOversized);
}

TEST(FrameDecoderTest, ExactLimitLineIsAccepted) {
  FrameDecoder decoder(4);
  decoder.Append("abcd\n", 5);
  std::string line;
  ASSERT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kLine);
  EXPECT_EQ(line, "abcd");
}

TEST(FrameDecoderTest, SlowTrickleStaysLinear) {
  // A long line fed one byte at a time; mostly a smoke test that the
  // scan high-water mark keeps this fast, plus correctness at the end.
  FrameDecoder decoder(1 << 20);
  std::string line;
  for (int i = 0; i < 50000; ++i) {
    decoder.Append("a", 1);
    ASSERT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kNeedMore);
  }
  decoder.Append("\n", 1);
  ASSERT_EQ(decoder.ReadLine(&line), FrameDecoder::Outcome::kLine);
  EXPECT_EQ(line.size(), 50000u);
}

// ---------------------------------------------------------------------------
// ParseRequest / formatting

TEST(ParseRequestTest, BareCommands) {
  ASSERT_TRUE(ParseRequest("PING").ok());
  EXPECT_EQ(ParseRequest("PING").ValueOrDie().kind, Request::Kind::kPing);
  EXPECT_EQ(ParseRequest("STATS").ValueOrDie().kind, Request::Kind::kStats);
  EXPECT_EQ(ParseRequest("QUIT").ValueOrDie().kind, Request::Kind::kQuit);
  EXPECT_FALSE(ParseRequest("PING now").ok());
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("ping").ok());  // commands are case-sensitive
  EXPECT_FALSE(ParseRequest("NOPE 1,2").ok());
}

TEST(ParseRequestTest, ScoreSplitsModelAndCells) {
  auto request = ParseRequest("SCORE fraud-v2 1.5,\"a,b\",3");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->kind, Request::Kind::kScore);
  EXPECT_EQ(request->model, "fraud-v2");
  EXPECT_EQ(request->cells_csv, "1.5,\"a,b\",3");
  EXPECT_FALSE(ParseRequest("SCORE").ok());
  EXPECT_FALSE(ParseRequest("SCORE model-only").ok());
  EXPECT_FALSE(ParseRequest("SCORE  1,2").ok());  // empty model token
}

TEST(FormattingTest, RepliesAreSingleFrames) {
  EXPECT_EQ(FormatPong(), "PONG\n");
  EXPECT_EQ(FormatOk("bye"), "OK bye\n");
  EXPECT_EQ(FormatOkScore(7.0), "OK " + FormatDouble(7.0, 6) + "\n");
  // Embedded newlines must never split a reply into two frames.
  EXPECT_EQ(FormatErr(kErrInternal, "a\nb\rc"), "ERR internal a b c\n");
}

TEST(FormattingTest, WireCodeMapsStatusCodes) {
  EXPECT_STREQ(WireCode(StatusCode::kResourceExhausted), kErrOverloaded);
  EXPECT_STREQ(WireCode(StatusCode::kNotFound), kErrNotFound);
  EXPECT_STREQ(WireCode(StatusCode::kInvalidArgument), kErrBadRequest);
  EXPECT_STREQ(WireCode(StatusCode::kOutOfRange), kErrBadRequest);
  EXPECT_STREQ(WireCode(StatusCode::kFailedPrecondition), kErrUnavailable);
  EXPECT_STREQ(WireCode(StatusCode::kInternal), kErrInternal);
}

// ---------------------------------------------------------------------------
// Seeded mutation pass: request streams built from this file's request
// lines, mutated with a fixed seed and budget, framed by a FrameDecoder fed
// in random chunks and parsed by ParseRequest, each compared with a simple
// oracle. Under check-asan and check-ubsan it is a fuzz pass.

// The frames a decoder must produce from `wire`: the whole buffer split on
// '\n', one trailing '\r' stripped per line. A line longer than `limit`
// (counting its '\r'), or an unterminated tail longer than `limit`, poisons
// the decoder, and nothing after it is framed.
struct Frames {
  std::vector<std::string> lines;
  bool oversized = false;
  size_t tail = 0;  ///< Unterminated bytes left over, unless oversized.
};

Frames ReferenceFrames(const std::string& wire, size_t limit) {
  Frames frames;
  size_t begin = 0;
  for (size_t nl = wire.find('\n'); nl != std::string::npos;
       nl = wire.find('\n', begin)) {
    if (nl - begin > limit) {
      frames.oversized = true;
      return frames;
    }
    const size_t end = nl > begin && wire[nl - 1] == '\r' ? nl - 1 : nl;
    frames.lines.push_back(wire.substr(begin, end - begin));
    begin = nl + 1;
  }
  const size_t tail = wire.size() - begin;
  frames.oversized = tail > limit;
  if (!frames.oversized) frames.tail = tail;
  return frames;
}

// `wire` through a FrameDecoder, appended in chunks of 1 byte to 8 KiB
// (log-uniform, so short chunks are common), draining after each.
Frames DecodeInChunks(const std::string& wire, size_t limit, Rng* rng) {
  FrameDecoder decoder(limit);
  Frames frames;
  std::string line;
  for (size_t at = 0; at < wire.size() && !frames.oversized;) {
    const size_t cap = size_t{1} << rng->UniformInt(14);
    const size_t n = std::min(wire.size() - at, 1 + rng->UniformInt(cap));
    decoder.Append(wire.data() + at, n);
    at += n;
    FrameDecoder::Outcome outcome;
    while ((outcome = decoder.ReadLine(&line)) ==
           FrameDecoder::Outcome::kLine) {
      frames.lines.push_back(line);
    }
    frames.oversized = outcome == FrameDecoder::Outcome::kOversized;
  }
  if (!frames.oversized) frames.tail = decoder.buffered();
  return frames;
}

// ParseRequest as written when this pass was added, kept verbatim as the
// parse oracle.
Result<Request> ReferenceParseRequest(const std::string& line) {
  if (line.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  const size_t first_space = line.find(' ');
  const std::string command = line.substr(0, first_space);
  if (command == "PING" || command == "STATS" || command == "QUIT") {
    if (first_space != std::string::npos) {
      return Status::InvalidArgument(command, " takes no arguments");
    }
    Request request;
    request.kind = command == "PING"    ? Request::Kind::kPing
                   : command == "STATS" ? Request::Kind::kStats
                                        : Request::Kind::kQuit;
    return request;
  }
  if (command == "SCORE") {
    if (first_space == std::string::npos) {
      return Status::InvalidArgument("SCORE requires a model and a CSV row");
    }
    const size_t model_begin = first_space + 1;
    const size_t second_space = line.find(' ', model_begin);
    if (second_space == std::string::npos || second_space == model_begin) {
      return Status::InvalidArgument(
          "SCORE requires two arguments: SCORE <model> <csv-cells>");
    }
    Request request;
    request.kind = Request::Kind::kScore;
    request.model = line.substr(model_begin, second_space - model_begin);
    request.cells_csv = line.substr(second_space + 1);
    if (request.cells_csv.empty()) {
      return Status::InvalidArgument("SCORE row has no cells");
    }
    return request;
  }
  return Status::InvalidArgument("unknown command '", command,
                                 "' (SCORE|PING|STATS|QUIT)");
}

// A request stream: 1-12 of this file's request lines, each ended by "\n"
// or "\r\n", then 1-6 insertions, deletions or replacements of
// protocol-significant bytes at random offsets.
std::string MutatedStream(Rng* rng) {
  static const std::vector<std::string> kLines = {
      "PING", "STATS", "QUIT", "SCORE default 1.5,2.5",
      "SCORE fraud-v2 1.5,\"a,b\",3", "SCORE default model=triple,2,0",
      "SCORE nosuch 1,0", "SCORE default 4.5,0", "SCORE", "SCORE model-only",
      "SCORE  1,2", "NOPE 1,2", "ping", "PING now"};
  static const std::vector<std::string> kPieces = {
      "\r", "\n", "\r\n", " ", "  ", std::string(1, '\0'), "SCORE", "SCORE ",
      "PING", "model=", "model=alt,", ",", "\"", "QUIT", "STATS"};
  std::string wire;
  const size_t lines = 1 + rng->UniformInt(12);
  for (size_t i = 0; i < lines; ++i) {
    wire += kLines[rng->UniformInt(kLines.size())];
    wire += rng->UniformInt(2) == 0 ? "\n" : "\r\n";
  }
  const size_t edits = 1 + rng->UniformInt(6);
  for (size_t e = 0; e < edits; ++e) {
    std::string piece = kPieces[rng->UniformInt(kPieces.size())];
    if (rng->UniformInt(6) == 0) {  // A long run of one byte.
      const char run[] = {'x', ' ', '\r', ',', '\0'};
      piece.assign(1 + rng->UniformInt(600), run[rng->UniformInt(5)]);
    }
    const size_t at = rng->UniformInt(wire.size() + 1);
    const size_t span = std::min(wire.size() - at, 1 + rng->UniformInt(16));
    switch (rng->UniformInt(3)) {
      case 0:
        wire.insert(at, piece);
        break;
      case 1:
        wire.erase(at, span);
        break;
      default:
        wire.replace(at, span, piece);
        break;
    }
  }
  return wire;
}

// A line limit near the length of one of the stream's raw lines (its '\r'
// included) half the time, so the off-by-one boundary is hit; otherwise
// anywhere up to 1 KiB.
size_t PickLimit(const std::string& wire, Rng* rng) {
  if (rng->UniformInt(2) == 0) return rng->UniformInt(1025);
  std::vector<size_t> lengths;
  size_t begin = 0;
  for (size_t nl = wire.find('\n'); nl != std::string::npos;
       nl = wire.find('\n', begin)) {
    lengths.push_back(nl - begin);
    begin = nl + 1;
  }
  lengths.push_back(wire.size() - begin);
  const size_t length = lengths[rng->UniformInt(lengths.size())];
  return length + rng->UniformInt(3) - std::min<size_t>(length, 1);
}

constexpr int kMutationBudget = 3000;

TEST(ProtocolMutationTest, ChunkedFramingMatchesWholeBufferSplit) {
  Rng rng(20261019);
  size_t oversized = 0;
  size_t lines = 0;
  for (int round = 0; round < kMutationBudget; ++round) {
    const std::string wire = MutatedStream(&rng);
    const size_t limit = PickLimit(wire, &rng);
    const Frames expected = ReferenceFrames(wire, limit);
    const Frames actual = DecodeInChunks(wire, limit, &rng);
    ASSERT_EQ(actual.oversized, expected.oversized)
        << "round " << round << ", limit " << limit;
    ASSERT_EQ(actual.lines, expected.lines)
        << "round " << round << ", limit " << limit;
    ASSERT_EQ(actual.tail, expected.tail)
        << "round " << round << ", limit " << limit;
    oversized += expected.oversized ? 1 : 0;
    lines += expected.lines.size();
  }
  // The budget reaches both outcomes, not only one.
  EXPECT_GT(oversized, static_cast<size_t>(kMutationBudget) / 10);
  EXPECT_LT(oversized, static_cast<size_t>(kMutationBudget) * 9 / 10);
  EXPECT_GT(lines, static_cast<size_t>(kMutationBudget));
}

TEST(ProtocolMutationTest, ParseMatchesReferenceParser) {
  Rng rng(20261020);
  size_t scores = 0;
  size_t errors = 0;
  for (int round = 0; round < kMutationBudget; ++round) {
    for (const std::string& line :
         ReferenceFrames(MutatedStream(&rng), SIZE_MAX).lines) {
      const Result<Request> expected = ReferenceParseRequest(line);
      const Result<Request> actual = ParseRequest(line);
      ASSERT_EQ(actual.ok(), expected.ok()) << "line '" << line << "'";
      if (!expected.ok()) {
        ++errors;
        EXPECT_EQ(actual.status().code(), expected.status().code());
        EXPECT_EQ(actual.status().message(), expected.status().message());
        continue;
      }
      scores += expected->kind == Request::Kind::kScore ? 1 : 0;
      EXPECT_EQ(actual->kind, expected->kind) << "line '" << line << "'";
      EXPECT_EQ(actual->model, expected->model) << "line '" << line << "'";
      EXPECT_EQ(actual->cells_csv, expected->cells_csv)
          << "line '" << line << "'";
    }
  }
  EXPECT_GT(scores, static_cast<size_t>(kMutationBudget));
  EXPECT_GT(errors, static_cast<size_t>(kMutationBudget));
}

// ---------------------------------------------------------------------------
// serve::SplitDataRecord (shared stdio/TCP row splitter)

TEST(RowParseTest, SplitsCellsAndRoutingPrefix) {
  serve::DataRecord plain = serve::SplitDataRecord("1,2,3", -1);
  EXPECT_FALSE(plain.routed);
  EXPECT_EQ(plain.cells, (std::vector<std::string>{"1", "2", "3"}));

  serve::DataRecord routed = serve::SplitDataRecord("model=alt,1,2", -1);
  EXPECT_TRUE(routed.routed);
  EXPECT_EQ(routed.model, "alt");
  EXPECT_EQ(routed.cells, (std::vector<std::string>{"1", "2"}));

  // The label column index counts data cells, after the routing cell.
  serve::DataRecord labeled = serve::SplitDataRecord("model=alt,1,y,2", 1);
  EXPECT_EQ(labeled.cells, (std::vector<std::string>{"1", "2"}));
}

// ---------------------------------------------------------------------------
// Session reply ring, driven directly (no socket: fd -1)

TEST(SessionTest, ReleasesNothingUntilTheFrontCompletes) {
  Session session(-1, 64);
  constexpr uint64_t kRequests = 256;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(session.BeginRequest(), i);
  }
  std::string sink;
  for (uint64_t seq = kRequests - 1; seq > 0; --seq) {
    session.Complete(seq, "reply " + std::to_string(seq) + "\n");
    ASSERT_EQ(session.CollectReady(&sink, nullptr), 0u) << "seq " << seq;
  }
  EXPECT_TRUE(sink.empty());
  EXPECT_FALSE(session.ReplyQueueEmpty());

  session.Complete(0, "reply 0\n");
  EXPECT_EQ(session.CollectReady(&sink, nullptr), kRequests);
  std::string expected;
  for (uint64_t seq = 0; seq < kRequests; ++seq) {
    expected += "reply " + std::to_string(seq) + "\n";
  }
  EXPECT_EQ(sink, expected);
  EXPECT_EQ(session.inflight(), 0u);
  EXPECT_TRUE(session.ReplyQueueEmpty());
}

TEST(SessionTest, CompleteAsksForOneFlushPerCollect) {
  Session session(-1, 64);
  for (int i = 0; i < 4; ++i) session.BeginRequest();
  std::string sink;
  EXPECT_TRUE(session.Complete(1, "b\n"));
  EXPECT_FALSE(session.Complete(2, "c\n"));
  // Seq 0 is still out, so nothing is released, but the request is spent.
  EXPECT_EQ(session.CollectReady(&sink, nullptr), 0u);
  EXPECT_TRUE(session.Complete(0, "a\n"));
  EXPECT_EQ(session.CollectReady(&sink, nullptr), 3u);
  EXPECT_TRUE(session.Complete(3, "d\n"));
  EXPECT_EQ(session.CollectReady(&sink, nullptr), 1u);
  EXPECT_EQ(sink, "a\nb\nc\nd\n");
}

TEST(SessionTest, CompletionsAfterCloseSettleButAreDropped) {
  Session session(-1, 64);
  for (int i = 0; i < 3; ++i) session.BeginRequest();
  EXPECT_TRUE(session.Complete(1, "b\n"));
  session.Close();
  EXPECT_FALSE(session.ReplyQueueEmpty());  // Seqs 0 and 2 are still out.
  EXPECT_FALSE(session.Complete(0, "a\n"));
  EXPECT_FALSE(session.Complete(2, "c\n"));
  EXPECT_EQ(session.inflight(), 0u);
  EXPECT_TRUE(session.ReplyQueueEmpty());
  std::string sink;
  EXPECT_EQ(session.CollectReady(&sink, nullptr), 0u);
  EXPECT_TRUE(sink.empty());
}

TEST(SessionTest, InlineRepliesKeepTheirPlaceAmongWorkerReplies) {
  // The poll thread answers PING-like requests at once while scored rows
  // before and after them are still with the workers.
  Session session(-1, 64);
  const uint64_t row0 = session.BeginRequest();
  session.Complete(session.BeginRequest(), "PONG\n");
  const uint64_t row2 = session.BeginRequest();
  session.Complete(session.BeginRequest(), "ERR bad-request x\n");
  const uint64_t row4 = session.BeginRequest();
  std::string sink;
  EXPECT_EQ(session.CollectReady(&sink, nullptr), 0u);
  session.Complete(row4, "OK 4\n");
  session.Complete(row2, "OK 2\n");
  EXPECT_EQ(session.CollectReady(&sink, nullptr), 0u);
  session.Complete(row0, "OK 0\n");
  EXPECT_EQ(session.CollectReady(&sink, nullptr), 5u);
  EXPECT_EQ(sink, "OK 0\nPONG\nOK 2\nERR bad-request x\nOK 4\n");
  EXPECT_TRUE(session.ReplyQueueEmpty());
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets

/// Blocks scorer worker threads inside Score until opened, and lets the
/// test wait until a worker has actually entered (for deterministic
/// overload / drain-while-in-flight schedules).
class Gate {
 public:
  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ > 0; });
  }

  void BlockHere() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

  void Open() {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

// Every row of the net table renders exactly once, with its own value, in
// the exit report and in the STATS line form. Each counter and histogram
// gets a distinct, non-zero value, so a row that printed another row's
// value would not parse back.
TEST(NetMetricsTest, EveryKeyRendersOnceWithItsValue) {
  NetMetrics metrics;
  const auto repeat = [](int n, const auto& record) {
    for (int i = 0; i < n; ++i) record();
  };
  repeat(9, [&] { metrics.RecordAccepted(); });
  repeat(5, [&] { metrics.RecordClosed(); });  // 4 stay active.
  repeat(2, [&] { metrics.RecordRejected(); });
  repeat(3, [&] { metrics.RecordIdleClosed(); });
  repeat(12, [&] { metrics.RecordRowIn(); });
  metrics.RecordRowsOut(13);
  repeat(6, [&] { metrics.RecordShed(); });
  repeat(7, [&] { metrics.RecordProtocolError(); });
  repeat(8, [&] { metrics.RecordOversized(); });
  metrics.RecordDrain();
  for (uint64_t us : {1, 3, 40}) metrics.RecordParseUs(us);
  for (uint64_t us : {100, 200, 5000}) metrics.RecordScoreUs(us);
  for (uint64_t us : {0, 7}) metrics.RecordRespondUs(us);

  const NetMetricsSnapshot s = metrics.Snapshot();
  testing::ExpectEveryRowOnce in_report(metrics.Report());
  s.ForEach(in_report);

  serve::MetricsText line(serve::MetricsText::Layout::kLine);
  s.ForEach(line);
  testing::ExpectEveryRowOnce in_line(line.str());
  s.ForEach(in_line);
  EXPECT_EQ(testing::MetricValues(line.str()).size(), in_line.rows());
}

/// Deterministic scorer: score = multiplier * first cell. Optionally gated.
class FakeScorer : public core::RowScorer {
 public:
  FakeScorer(double multiplier, Gate* gate)
      : multiplier_(multiplier), gate_(gate) {}

  Result<std::vector<double>> Score(
      const data::RawTable& table) const override {
    if (gate_ != nullptr) gate_->BlockHere();
    std::vector<double> out;
    out.reserve(table.rows.size());
    for (const auto& row : table.rows) {
      double v = 0.0;
      if (row.empty() || !ParseDouble(row[0], &v)) {
        return Status::InvalidArgument("fake scorer: bad cell");
      }
      out.push_back(multiplier_ * v);
    }
    return out;
  }

  const std::vector<std::string>& feature_columns() const override {
    static const std::vector<std::string> kColumns = {"x", "y"};
    return kColumns;
  }

  const std::string& label_column() const override {
    static const std::string kLabel = "label";
    return kLabel;
  }

 private:
  const double multiplier_;
  Gate* const gate_;
};

/// One running server on an ephemeral loopback port: "default" doubles the
/// first cell, "triple" triples it, any other model is unknown. The scorer
/// records into `net_options.serve_metrics` when it is set.
class TestServer {
 public:
  explicit TestServer(TcpServerOptions net_options = {},
                      serve::BatchScorerOptions scorer_options = {},
                      Gate* gate = nullptr)
      : default_model_(std::make_shared<FakeScorer>(2.0, gate)),
        triple_model_(std::make_shared<FakeScorer>(3.0, nullptr)),
        scorer_(
            serve::BatchScorer::NamedSnapshotProvider(
                [this](const std::string& name)
                    -> std::shared_ptr<const core::RowScorer> {
                  if (name == serve::BatchScorer::kDefaultModel) {
                    return default_model_;
                  }
                  if (name == "triple") return triple_model_;
                  return nullptr;
                }),
            scorer_options, net_options.serve_metrics),
        server_(&scorer_, &metrics_, net_options) {
    TARGAD_CHECK_OK(server_.Start());
  }

  TcpServer& server() { return server_; }
  NetMetrics& metrics() { return metrics_; }
  uint16_t port() const { return server_.port(); }

  LineClient Connect() {
    LineClient client;
    TARGAD_CHECK_OK(client.Connect("127.0.0.1", port()));
    return client;
  }

 private:
  std::shared_ptr<FakeScorer> default_model_;
  std::shared_ptr<FakeScorer> triple_model_;
  NetMetrics metrics_;
  serve::BatchScorer scorer_;
  TcpServer server_;  // last: drains before the scorer dies
};

std::string OkScore(double v) {
  return "OK " + FormatDouble(v, 6);
}

TEST(TcpServerTest, PingStatsScoreQuit) {
  TestServer fixture;
  LineClient client = fixture.Connect();

  ASSERT_TRUE(client.SendLine("PING").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), "PONG");

  ASSERT_TRUE(client.SendLine("SCORE default 4.5,0").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(9.0));

  ASSERT_TRUE(client.SendLine("SCORE triple 4.5,0").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(13.5));

  // The model= routing cell (shared with the stdio dialect) wins over the
  // SCORE token.
  ASSERT_TRUE(client.SendLine("SCORE default model=triple,2,0").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(6.0));

  ASSERT_TRUE(client.SendLine("STATS").ok());
  const std::string stats = client.RecvLine().ValueOrDie();
  EXPECT_EQ(stats.rfind("OK accepted=1 ", 0), 0u) << stats;
  EXPECT_NE(stats.find(" draining=0"), std::string::npos) << stats;

  ASSERT_TRUE(client.SendLine("QUIT").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), "OK bye");
  // Server closes after flushing the QUIT reply.
  EXPECT_FALSE(client.RecvLine().ok());
}

// A live STATS reply reads back by key: the net table, the server's two
// gauges and the attached serve table, each key once. After 3 PINGs and 1
// SCORE, rows_in counts the one SCORE and rows_out all 4 replies released
// before the STATS line was built.
TEST(TcpServerTest, StatsReplyReadsBackByKey) {
  serve::ServeMetrics serve_metrics;
  serve_metrics.RecordRegistryLoad(250);  // As the CLI's startup load does.
  TcpServerOptions options;
  options.serve_metrics = &serve_metrics;
  TestServer fixture(options);
  LineClient client = fixture.Connect();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.SendLine("PING").ok());
    ASSERT_EQ(client.RecvLine().ValueOrDie(), "PONG");
  }
  ASSERT_TRUE(client.SendLine("SCORE default 4.5,0").ok());
  ASSERT_EQ(client.RecvLine().ValueOrDie(), OkScore(9.0));

  ASSERT_TRUE(client.SendLine("STATS").ok());
  const std::string stats = client.RecvLine().ValueOrDie();
  ASSERT_EQ(stats.rfind("OK ", 0), 0u) << stats;
  const auto values = testing::MetricValues(stats.substr(3));
  for (const auto& [key, seen] : values) {
    EXPECT_EQ(seen.size(), 1u) << key << " in " << stats;
  }
  // Every key STATS printed before the metrics tables, in the same order.
  size_t at = 0;
  for (const char* key :
       {"OK accepted=", " active=", " rejected=", " closed=", " rows_in=",
        " rows_out=", " shed=", " protocol_errors=", " score_p99_us=",
        " inflight=", " draining=", " reg_hits=", " reg_misses=",
        " reg_evictions=", " reg_loads=", " reg_load_p99_us="}) {
    const size_t found = stats.find(key, at);
    ASSERT_NE(found, std::string::npos) << key << " in " << stats;
    at = found;
  }
  // `inflight` may still read 1: the score callback releases its row
  // after the reply is queued.
  const auto value = [&](const std::string& key) {
    const auto it = values.find(key);
    return it == values.end() ? "(missing)" : it->second.front();
  };
  EXPECT_EQ(value("accepted"), "1");
  EXPECT_EQ(value("active"), "1");
  EXPECT_EQ(value("rows_in"), "1");
  EXPECT_EQ(value("rows_out"), "4");
  EXPECT_EQ(value("protocol_errors"), "0");
  EXPECT_EQ(value("shed"), "0");
  EXPECT_NE(value("score_p99_us"), "0");
  EXPECT_EQ(value("draining"), "0");
  EXPECT_EQ(value("requests_submitted"), "1");
  EXPECT_EQ(value("requests_completed"), "1");
  EXPECT_EQ(value("rows_scored"), "1");
  EXPECT_EQ(value("reg_loads"), "1");
  EXPECT_EQ(value("reg_load_p99_us"), "256");
  EXPECT_EQ(value("reg_refresh_polls"), "0");
}

TEST(TcpServerTest, PartialFramesAcrossWriteBoundaries) {
  TestServer fixture;
  LineClient client = fixture.Connect();
  // One logical stream, delivered in awkward pieces: a request split
  // mid-token, a second request sharing a segment with the first's tail.
  ASSERT_TRUE(client.SendRaw("SCO").ok());
  ASSERT_TRUE(client.SendRaw("RE default 1.").ok());
  ASSERT_TRUE(client.SendRaw("5,0\nPI").ok());
  ASSERT_TRUE(client.SendRaw("NG\n").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(3.0));
  EXPECT_EQ(client.RecvLine().ValueOrDie(), "PONG");
}

TEST(TcpServerTest, MalformedLinesGetErrAndConnectionSurvives) {
  TestServer fixture;
  LineClient client = fixture.Connect();
  ASSERT_TRUE(client.SendLine("FROB 1,2").ok());
  std::string reply = client.RecvLine().ValueOrDie();
  EXPECT_EQ(reply.rfind("ERR bad-request ", 0), 0u) << reply;
  ASSERT_TRUE(client.SendLine("SCORE").ok());
  reply = client.RecvLine().ValueOrDie();
  EXPECT_EQ(reply.rfind("ERR bad-request ", 0), 0u) << reply;
  // Still alive.
  ASSERT_TRUE(client.SendLine("PING").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), "PONG");
  EXPECT_EQ(fixture.metrics().Snapshot().protocol_errors, 2u);
}

TEST(TcpServerTest, UnknownModelFailsOnlyThatRow) {
  TestServer fixture;
  LineClient client = fixture.Connect();
  ASSERT_TRUE(client.SendLine("SCORE nosuch 1,0").ok());
  const std::string reply = client.RecvLine().ValueOrDie();
  EXPECT_EQ(reply.rfind("ERR not-found ", 0), 0u) << reply;
  ASSERT_TRUE(client.SendLine("SCORE default 1,0").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(2.0));
}

TEST(TcpServerTest, OversizedLineRepliesTooLongAndCloses) {
  TcpServerOptions options;
  options.max_line_bytes = 32;
  TestServer fixture(options);
  LineClient client = fixture.Connect();
  ASSERT_TRUE(client.SendRaw(std::string(64, 'x')).ok());
  const std::string reply = client.RecvLine().ValueOrDie();
  EXPECT_EQ(reply.rfind("ERR too-long ", 0), 0u) << reply;
  EXPECT_FALSE(client.RecvLine().ok());  // connection closed
  EXPECT_EQ(fixture.metrics().Snapshot().oversized_lines, 1u);
}

TEST(TcpServerTest, AdmissionExhaustionShedsWithErrOverloadedInOrder) {
  // One worker blocked inside Score + a one-row queue: the third SCORE hits
  // bounded admission and must come back "ERR overloaded" — after the two
  // admitted replies, because write-back is ordered per connection.
  Gate gate;
  serve::BatchScorerOptions scorer_options;
  scorer_options.num_workers = 1;
  scorer_options.max_batch_size = 1;
  scorer_options.max_queue_rows = 1;
  TestServer fixture({}, scorer_options, &gate);
  LineClient client = fixture.Connect();

  ASSERT_TRUE(client.SendLine("SCORE default 1,0").ok());
  gate.WaitUntilEntered();  // row 1 is now inside Score, not in the queue
  ASSERT_TRUE(client.SendLine("SCORE default 2,0").ok());
  // Wait until row 2 occupies the one queue slot.
  while (fixture.server().inflight_rows() < 2) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(client.SendLine("SCORE default 3,0").ok());
  // Row 3's rejection resolves immediately, but its reply may only be
  // flushed after rows 1 and 2 — which are still gated. Release them.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();

  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(2.0));
  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(4.0));
  const std::string reply = client.RecvLine().ValueOrDie();
  EXPECT_EQ(reply.rfind("ERR overloaded ", 0), 0u) << reply;
  EXPECT_EQ(fixture.metrics().Snapshot().shed, 1u);
}

TEST(TcpServerTest, ConnectionLimitRejectsWithErrOverloaded) {
  TcpServerOptions options;
  options.max_connections = 1;
  TestServer fixture(options);
  LineClient first = fixture.Connect();
  ASSERT_TRUE(first.SendLine("PING").ok());
  EXPECT_EQ(first.RecvLine().ValueOrDie(), "PONG");

  LineClient second = fixture.Connect();
  const std::string reply = second.RecvLine().ValueOrDie();
  EXPECT_EQ(reply.rfind("ERR overloaded ", 0), 0u) << reply;
  EXPECT_FALSE(second.RecvLine().ok());
  EXPECT_EQ(fixture.metrics().Snapshot().connections_rejected, 1u);

  // The first connection is unaffected.
  ASSERT_TRUE(first.SendLine("PING").ok());
  EXPECT_EQ(first.RecvLine().ValueOrDie(), "PONG");
}

TEST(TcpServerTest, IdleTimeoutClosesQuietConnections) {
  TcpServerOptions options;
  options.idle_timeout_ms = 80;
  TestServer fixture(options);
  LineClient client = fixture.Connect();
  ASSERT_TRUE(client.SendLine("PING").ok());
  EXPECT_EQ(client.RecvLine().ValueOrDie(), "PONG");
  // No further traffic: the server must close the connection on its own.
  EXPECT_FALSE(client.RecvLine(2000).ok());
  // The counter is recorded before the close() the client just observed,
  // but give a scheduling-starved poll thread a moment regardless.
  for (int i = 0; i < 100 && fixture.metrics().Snapshot().idle_closed == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.metrics().Snapshot().idle_closed, 1u);
}

TEST(TcpServerTest, DrainWhileRowsInFlightFlushesEverything) {
  Gate gate;
  serve::BatchScorerOptions scorer_options;
  scorer_options.num_workers = 1;
  scorer_options.max_batch_size = 1;
  TestServer fixture({}, scorer_options, &gate);
  LineClient client = fixture.Connect();

  ASSERT_TRUE(client.SendLine("SCORE default 5,0").ok());
  ASSERT_TRUE(client.SendLine("SCORE default 6,0").ok());
  gate.WaitUntilEntered();
  // Draining stops reads, so wait until the poll thread has ingested BOTH
  // rows (row 2 may still be in the kernel buffer when row 1 hits Score);
  // a drain that starts earlier would legitimately drop the unread row.
  while (fixture.server().inflight_rows() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Drain starts with one row blocked inside Score and one queued. Both
  // replies must still be delivered before the connection closes.
  fixture.server().BeginDrain();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();

  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(10.0));
  EXPECT_EQ(client.RecvLine().ValueOrDie(), OkScore(12.0));
  EXPECT_FALSE(client.RecvLine().ok());  // drained connection closes

  fixture.server().Wait();
  EXPECT_EQ(fixture.server().inflight_rows(), 0u);
  const NetMetricsSnapshot snapshot = fixture.metrics().Snapshot();
  EXPECT_EQ(snapshot.drains, 1u);
  EXPECT_EQ(snapshot.rows_in, 2u);
  EXPECT_EQ(snapshot.shed, 0u);
}

TEST(TcpServerTest, ManyRowsKeepPerConnectionOrder) {
  serve::BatchScorerOptions scorer_options;
  scorer_options.num_workers = 4;
  scorer_options.max_batch_size = 4;
  TestServer fixture({}, scorer_options);
  LineClient client = fixture.Connect();
  constexpr int kRows = 200;
  for (int i = 0; i < kRows; ++i) {
    const char* model = (i % 3 == 0) ? "triple" : "default";
    ASSERT_TRUE(client
                    .SendLine("SCORE " + std::string(model) + " " +
                              std::to_string(i) + ",0")
                    .ok());
  }
  for (int i = 0; i < kRows; ++i) {
    const double expected = (i % 3 == 0) ? 3.0 * i : 2.0 * i;
    ASSERT_EQ(client.RecvLine().ValueOrDie(), OkScore(expected))
        << "row " << i;
  }
}

TEST(TcpServerTest, ScheduledConnectionsGetEveryReplyWhileSending) {
  // Several connections score at once. Each sends on a fixed schedule from
  // its own thread while another thread reads its replies, so replies are
  // written back while later requests are still arriving. A LineClient's
  // sending and receiving halves share only the socket.
  serve::BatchScorerOptions scorer_options;
  scorer_options.num_workers = 2;
  scorer_options.max_batch_size = 8;
  TestServer fixture({}, scorer_options);
  constexpr int kConnections = 3;
  constexpr int kRows = 300;
  constexpr auto kInterval = std::chrono::microseconds(400);
  auto request = [](int conn, int row) {
    const char* model = (row % 3 == 0) ? "triple" : "default";
    return "SCORE " + std::string(model) + " " +
           std::to_string(1000 * conn + row) + ",0";
  };
  auto reply = [](int conn, int row) {
    return OkScore(((row % 3 == 0) ? 3.0 : 2.0) * (1000 * conn + row));
  };

  std::vector<LineClient> clients;
  clients.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) clients.push_back(fixture.Connect());
  std::vector<std::string> send_errors(kConnections);
  std::vector<std::string> recv_errors(kConnections);
  std::vector<int> received(kConnections, 0);
  std::vector<std::thread> threads;
  const auto start =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kRows; ++i) {
        std::this_thread::sleep_until(start + i * kInterval);
        const Status st = clients[c].SendLine(request(c, i));
        if (!st.ok()) {
          send_errors[c] = "row " + std::to_string(i) + ": " + st.ToString();
          return;
        }
      }
    });
    threads.emplace_back([&, c] {
      for (int i = 0; i < kRows; ++i) {
        const Result<std::string> line = clients[c].RecvLine();
        if (!line.ok() || *line != reply(c, i)) {
          recv_errors[c] = "row " + std::to_string(i) + ": " +
                           (line.ok() ? *line : line.status().ToString());
          return;
        }
        ++received[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kConnections; ++c) {
    EXPECT_EQ(send_errors[c], "") << "connection " << c;
    EXPECT_EQ(recv_errors[c], "") << "connection " << c;
    EXPECT_EQ(received[c], kRows) << "connection " << c;
  }
  const NetMetricsSnapshot snapshot = fixture.metrics().Snapshot();
  EXPECT_EQ(snapshot.protocol_errors, 0u);
  EXPECT_EQ(snapshot.shed, 0u);
  EXPECT_EQ(snapshot.rows_in, static_cast<uint64_t>(kConnections * kRows));
}

TEST(TcpServerTest, PipelineBurstBeyondInflightCapAnswersEveryRequest) {
  // Regression: the whole burst lands in the server's decoder at once and
  // the client then only reads. Lines beyond max_inflight_rows are parked
  // with no further readable event coming, so only the loop's parse
  // re-entry pass can dispatch them once completions reopen the gate. The
  // tight idle timeout guards the old failure mode, where the parked
  // session looked settled and was idle-closed with requests still queued.
  TcpServerOptions options;
  options.max_inflight_rows = 4;
  options.idle_timeout_ms = 200;
  serve::BatchScorerOptions scorer_options;
  scorer_options.num_workers = 2;
  scorer_options.max_batch_size = 2;
  TestServer fixture(options, scorer_options);
  LineClient client = fixture.Connect();

  constexpr int kRows = 64;
  std::string burst;
  for (int i = 0; i < kRows; ++i) {
    burst += "SCORE default " + std::to_string(i) + ",0\n";
  }
  burst += "QUIT\n";  // also parked beyond the cap; must still be reached
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_EQ(client.RecvLine().ValueOrDie(), OkScore(2.0 * i))
        << "row " << i;
  }
  EXPECT_EQ(client.RecvLine().ValueOrDie(), "OK bye");
  EXPECT_FALSE(client.RecvLine().ok());  // server closes after QUIT
  EXPECT_EQ(fixture.metrics().Snapshot().rows_in,
            static_cast<uint64_t>(kRows));
}

}  // namespace
}  // namespace net
}  // namespace targad
