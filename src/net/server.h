// TcpServer: the staged TCP serving front-end. One poll()-based event-loop
// thread runs the ingest, parse, and respond stages for every connection;
// the score stage is BatchScorer's existing worker pool, reached through
// its callback Submit. The stages hand off explicitly:
//
//   ingest   poll thread: accept(), nonblocking read() into each session's
//            FrameDecoder, gated per connection at max_inflight_rows
//   parse    poll thread: FrameDecoder lines -> ParseRequest ->
//            serve::PeelRoute (shared with the stdio path)
//   score    BatchScorer workers: bounded admission (a full queue becomes
//            "ERR overloaded" — the load-shedding path), micro-batching,
//            model routing, hot-swap-safe snapshots, record splitting
//   respond  completion callbacks park replies on their Session; the first
//            one since the session's last flush nudges the poll thread
//            through a wake pipe; the poll thread flushes the contiguous
//            completed prefix, so replies stay in request order per
//            connection
//
// Graceful drain (BeginDrain, or a byte on Options::drain_fd — the CLI's
// SIGTERM self-pipe): stop accepting, stop reading, let every in-flight
// row complete and flush, then close. Sessions that cannot flush within
// drain_grace_ms are force-closed, but the server ALWAYS waits for every
// outstanding scorer callback before Wait() returns — a callback's last
// act is to release the global in-flight count, so "in-flight == 0" proves
// no thread will touch the server again.

#ifndef TARGAD_NET_SERVER_H_
#define TARGAD_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/metrics.h"
#include "net/session.h"
#include "serve/batch_scorer.h"

namespace targad {
namespace net {

struct TcpServerOptions {
  /// Address to bind; the default keeps the listener loopback-only.
  std::string bind_address = "127.0.0.1";
  /// Port to bind; 0 picks an ephemeral port (reported by port()).
  uint16_t port = 0;
  /// Accept cap: further connections get "ERR overloaded" and are closed.
  size_t max_connections = 1024;
  /// Per-connection request line cap; an oversized line is answered with
  /// "ERR too-long" and the connection is closed (no reliable resync).
  size_t max_line_bytes = 64 * 1024;
  /// Per-connection in-flight row cap; reads pause (TCP backpressure) while
  /// a connection has this many rows awaiting scores.
  size_t max_inflight_rows = 256;
  /// Close connections idle this long (no reads, nothing in flight).
  /// 0 disables the idle timeout.
  int64_t idle_timeout_ms = 0;
  /// During drain, force-close sessions that have not flushed after this.
  int64_t drain_grace_ms = 5000;
  /// Optional readable fd (e.g. a signal handler's self-pipe): one readable
  /// byte triggers BeginDrain. Not owned; -1 disables.
  int drain_fd = -1;
  /// Optional serving-side metrics sink; when set, the STATS reply appends
  /// its table (TARGAD_SERVE_METRICS). Not owned; must outlive the server.
  serve::ServeMetrics* serve_metrics = nullptr;
};

class TcpServer {
 public:
  /// `scorer` and `metrics` must outlive the server; both are shared with
  /// the callers (the CLI reports `metrics` on exit).
  TcpServer(serve::BatchScorer* scorer, NetMetrics* metrics,
            TcpServerOptions options);

  /// Drains and joins if still running.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the event-loop thread.
  [[nodiscard]] Status Start();

  /// Bound port (valid after Start; useful with Options::port == 0).
  uint16_t port() const { return port_; }

  /// Starts a graceful drain from any thread. Idempotent.
  void BeginDrain();

  /// Blocks until the drain completes and the event loop exits.
  void Wait();

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Rows submitted to the scorer whose completion callback has not yet
  /// finished (across all sessions, including force-closed ones).
  uint64_t inflight_rows() const {
    return inflight_rows_.load(std::memory_order_acquire);
  }

 private:
  void Loop();
  void AcceptAll();
  /// Reads, frames, parses, and dispatches everything available on `s`.
  void HandleReadable(const std::shared_ptr<Session>& s);
  /// Parse stage: dispatches buffered complete lines while the in-flight
  /// gate admits them. Called from HandleReadable after a read, and again
  /// from the loop whenever completions reopen a session's gate (a client
  /// that pipelines past max_inflight_rows produces lines no readable
  /// event will ever revisit).
  void ParseAndDispatch(const std::shared_ptr<Session>& s,
                        std::chrono::steady_clock::time_point ingest_start);
  /// Executes one request line (immediate replies or a scorer submit).
  /// Immediate replies complete on the poll thread and ignore Complete's
  /// flush request: every caller flushes the session in the same loop pass.
  void DispatchLine(const std::shared_ptr<Session>& s,
                    const std::string& line,
                    std::chrono::steady_clock::time_point ingest_start);
  /// Collects completed replies into the session backlog and writes as much
  /// as the kernel accepts. Returns false when the connection died.
  bool FlushSession(const std::shared_ptr<Session>& s);
  void CloseSession(int fd, bool idle);
  /// Makes poll() return promptly (callback threads -> poll thread).
  void WakeLoop();
  void DrainWakePipe();

  serve::BatchScorer* const scorer_;
  NetMetrics* const metrics_;
  const TcpServerOptions options_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< [0] read end (polled), [1] write end.
  uint16_t port_ = 0;
  std::thread loop_;
  bool started_ = false;

  std::atomic<bool> draining_{false};
  /// Coalesces WakeLoop() writes so a burst of completions costs one byte.
  std::atomic<bool> wake_pending_{false};
  /// Release/acquire drain handshake; see the file comment.
  std::atomic<uint64_t> inflight_rows_{0};

  /// Poll-thread-only: fd -> session. shared_ptr because in-flight scorer
  /// callbacks hold a reference; the map erase is not the last owner.
  std::map<int, std::shared_ptr<Session>> sessions_;

  RankedMutex ready_mu_{LockRank::kNetReady};
  /// Sessions with newly completed replies, parked by callbacks for the
  /// poll thread to flush: one push per Session flush request (a rare
  /// duplicate is harmless; flush is idempotent).
  std::vector<std::shared_ptr<Session>> ready_ TARGAD_GUARDED_BY(ready_mu_);
};

}  // namespace net
}  // namespace targad

#endif  // TARGAD_NET_SERVER_H_
