#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/hot_path.h"
#include "common/logging.h"
#include "net/protocol.h"
#include "serve/row_parse.h"

namespace targad {
namespace net {

namespace {

/// poll() tick while serving / draining. Coarse on purpose: all latency-
/// sensitive wakeups come through the wake pipe; the tick only bounds how
/// stale the idle-timeout and drain-deadline checks can get.
constexpr int kServeTickMs = 100;
constexpr int kDrainTickMs = 20;

Status ErrnoStatus(const char* what) {
  return Status::IOError(what, ": ", std::string(strerror(errno)));
}

bool WouldBlock(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

/// Best-effort blocking-ish write of a canned reply to a socket we are
/// about to close (rejection path: the session never enters the poll set).
void SendFinalReply(int fd, const std::string& reply) {
  (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
}

}  // namespace

TcpServer::TcpServer(serve::BatchScorer* scorer, NetMetrics* metrics,
                     TcpServerOptions options)
    : scorer_(scorer), metrics_(metrics), options_(std::move(options)) {
  TARGAD_CHECK(scorer_ != nullptr);
  TARGAD_CHECK(metrics_ != nullptr);
}

TcpServer::~TcpServer() {
  if (started_) {
    BeginDrain();
    Wait();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

Status TcpServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");

  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '",
                                   options_.bind_address, "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return ErrnoStatus("listen");

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) < 0) {
    return ErrnoStatus("pipe2");
  }

  loop_ = std::thread(&TcpServer::Loop, this);
  started_ = true;
  return Status::OK();
}

void TcpServer::BeginDrain() {
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true,
                                        std::memory_order_relaxed)) {
    metrics_->RecordDrain();
  }
  WakeLoop();
}

void TcpServer::Wait() {
  if (loop_.joinable()) loop_.join();
}

void TcpServer::WakeLoop() {
  // One pending byte is enough; coalesce the rest of the burst.
  bool expected = false;
  if (!wake_pending_.compare_exchange_strong(expected, true,
                                             std::memory_order_release)) {
    return;
  }
  const char byte = 1;
  (void)::write(wake_fds_[1], &byte, 1);
}

void TcpServer::DrainWakePipe() {
  char buf[64];
  while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
  }
  // Clear the flag only AFTER the pipe is dry. A WakeLoop that lands
  // between the last read and this store loses its CAS and writes no byte,
  // but its work was already queued and this iteration's respond stage
  // picks it up. The reverse order can consume a byte written after the
  // clear, stranding wake_pending_==true with an empty pipe — after which
  // no WakeLoop ever writes again and every completion waits out the poll
  // tick. (The release fence keeps the reads ordered before the store.)
  wake_pending_.store(false, std::memory_order_release);
}

// TARGAD_POLL_THREAD: everything reachable from here runs on the poll
// thread; targad-lint's reachability pass holds it to non-blocking calls,
// session/ready-rank locks only, and reset-per-iteration buffers.
TARGAD_POLL_THREAD void TcpServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Session>> polled;
  std::chrono::steady_clock::time_point drain_started{};
  bool drain_observed = false;

  for (;;) {
    const bool draining = draining_.load(std::memory_order_relaxed);
    if (draining && !drain_observed) {
      drain_observed = true;
      drain_started = std::chrono::steady_clock::now();
    }

    // Exit once drained: no sessions left and every scorer callback has
    // finished (acquire pairs with the callback's final release-decrement,
    // so nothing touches this object after Loop returns).
    if (draining && sessions_.empty() &&
        inflight_rows_.load(std::memory_order_acquire) == 0) {
      return;
    }

    fds.clear();
    polled.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (options_.drain_fd >= 0 && !draining) {
      fds.push_back({options_.drain_fd, POLLIN, 0});
    }
    const size_t first_session = fds.size();
    if (!draining) {
      fds.push_back({listen_fd_, POLLIN, 0});
      polled.push_back(nullptr);
    }
    for (auto& [fd, session] : sessions_) {
      short events = 0;
      if (!draining && !session->quitting() && !session->peer_eof() &&
          session->inflight() < options_.max_inflight_rows) {
        events |= POLLIN;
      }
      if (!session->out().empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      polled.push_back(session);
    }

    const int tick = draining ? kDrainTickMs : kServeTickMs;
    const int n = ::poll(fds.data(), fds.size(), tick);
    if (n < 0 && errno != EINTR) {
      TARGAD_LOG(Error) << "net: poll(): " << strerror(errno);
    }

    // Unconditionally, not only on POLLIN: one spare read() per tick buys
    // independence from revents, so a wake can never be missed outright.
    DrainWakePipe();
    if (options_.drain_fd >= 0 && !draining) {
      // fds[1] is the drain fd exactly when it was registered above.
      if (fds[1].revents & (POLLIN | POLLERR | POLLHUP)) BeginDrain();
    }

    // Respond stage: flush every session a completion callback parked.
    {
      std::vector<std::shared_ptr<Session>> ready;
      {
        MutexLock lock(&ready_mu_);
        ready.swap(ready_);
      }
      for (const auto& session : ready) {
        if (session->fd() >= 0) (void)FlushSession(session);
      }
    }

    // Ingest stage: socket events.
    for (size_t i = first_session; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      const std::shared_ptr<Session>& session = polled[i - first_session];
      if (session == nullptr) {
        if (p.revents & POLLIN) AcceptAll();
        continue;
      }
      if (session->fd() < 0) continue;
      if (p.revents & (POLLERR | POLLNVAL)) {
        CloseSession(session->fd(), /*idle=*/false);
        continue;
      }
      if (p.revents & (POLLIN | POLLHUP)) HandleReadable(session);
      if (session->fd() >= 0 && (p.revents & POLLOUT)) {
        (void)FlushSession(session);
      }
    }

    // Parse re-entry: a pipelining client can buffer more complete lines
    // than max_inflight_rows admits in one HandleReadable pass, and
    // completions reopen the gate without producing a readable event.
    // Re-dispatch here so those lines are answered (and the session never
    // looks settled/idle while requests are still parked). During drain
    // undispatched lines are intentionally abandoned ("stop reading").
    if (!draining) {
      std::vector<std::shared_ptr<Session>> parked;
      for (auto& [fd, session] : sessions_) {
        if (session->quitting() || session->decoder().buffered() == 0) {
          continue;
        }
        if (session->inflight() >= options_.max_inflight_rows) continue;
        parked.push_back(session);
      }
      // Two passes: FlushSession may CloseSession, which erases from
      // sessions_ and would invalidate the iterator above.
      const auto reentry_start = std::chrono::steady_clock::now();
      for (const auto& session : parked) {
        if (session->fd() < 0) continue;
        ParseAndDispatch(session, reentry_start);
        if (session->fd() >= 0) (void)FlushSession(session);
      }
    }

    // Lifecycle sweep: quit/EOF/drain completion and idle timeouts.
    const auto now = std::chrono::steady_clock::now();
    std::vector<int> to_close;
    std::vector<int> to_close_idle;
    for (auto& [fd, session] : sessions_) {
      const bool settled =
          session->ReplyQueueEmpty() && session->out().empty();
      if (settled &&
          (session->quitting() || session->peer_eof() || draining)) {
        to_close.push_back(fd);
        continue;
      }
      if (draining && drain_observed && options_.drain_grace_ms >= 0 &&
          now - drain_started >=
              std::chrono::milliseconds(options_.drain_grace_ms)) {
        // Past the grace window: give up on this session's unflushed
        // bytes. Its in-flight callbacks still complete (and are still
        // counted) — only the socket goes away early.
        to_close.push_back(fd);
        continue;
      }
      if (!draining && options_.idle_timeout_ms > 0 && settled &&
          now - session->last_active() >=
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        to_close_idle.push_back(fd);
      }
    }
    for (int fd : to_close) CloseSession(fd, /*idle=*/false);
    for (int fd : to_close_idle) CloseSession(fd, /*idle=*/true);
  }
}

void TcpServer::AcceptAll() {
  for (;;) {
    // The listener was opened with SOCK_NONBLOCK (Start()), so accept4
    // returns EAGAIN instead of blocking; the loop drains the backlog and
    // exits on it.  targad-lint: allow(poll-thread-block)
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (WouldBlock(errno) || errno == EINTR) return;
      TARGAD_LOG(Error) << "net: accept(): " << strerror(errno);
      return;
    }
    if (sessions_.size() >= options_.max_connections) {
      metrics_->RecordRejected();
      SendFinalReply(fd, FormatErr(kErrOverloaded, "connection limit"));
      ::close(fd);
      continue;
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    metrics_->RecordAccepted();
    sessions_.emplace(fd,
                      std::make_shared<Session>(fd, options_.max_line_bytes));
  }
}

void TcpServer::HandleReadable(const std::shared_ptr<Session>& s) {
  const auto ingest_start = std::chrono::steady_clock::now();
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(s->fd(), buf, sizeof(buf));
    if (n > 0) {
      s->decoder().Append(buf, static_cast<size_t>(n));
      s->Touch();
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      s->set_peer_eof();
      break;
    }
    if (WouldBlock(errno) || errno == EINTR) break;
    CloseSession(s->fd(), /*idle=*/false);
    return;
  }

  ParseAndDispatch(s, ingest_start);
  if (s->fd() >= 0) (void)FlushSession(s);
}

void TcpServer::ParseAndDispatch(const std::shared_ptr<Session>& s,
                                 std::chrono::steady_clock::time_point
                                     ingest_start) {
  // Dispatch every complete line, re-checking the in-flight gate so a
  // burst that was already buffered cannot blow past the cap by more than
  // one read's worth of lines. Lines left behind by a closed gate are
  // re-dispatched by the loop's parse re-entry pass once completions
  // reopen it — no readable event will ever revisit them.
  std::string line;
  while (!s->quitting() &&
         s->inflight() < options_.max_inflight_rows) {
    const FrameDecoder::Outcome outcome = s->decoder().ReadLine(&line);
    if (outcome == FrameDecoder::Outcome::kNeedMore) break;
    if (outcome == FrameDecoder::Outcome::kOversized) {
      metrics_->RecordOversized();
      const uint64_t seq = s->BeginRequest();
      s->Complete(seq, FormatErr(kErrTooLong, "request line exceeds limit"));
      s->set_quitting();
      break;
    }
    DispatchLine(s, line, ingest_start);
  }
  // Score stage: the pass's SCORE rows reach the scorer in one call, which
  // delivers each shed row's "ERR overloaded" through its callback before
  // returning. No session lock may be held here: that callback re-locks
  // its session.
  if (!pass_rows_.empty()) {
    scorer_->Submit(&pass_rows_);
    pass_rows_.clear();
  }
}

void TcpServer::DispatchLine(const std::shared_ptr<Session>& s,
                             const std::string& line,
                             std::chrono::steady_clock::time_point
                                 ingest_start) {
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    metrics_->RecordProtocolError();
    const uint64_t seq = s->BeginRequest();
    s->Complete(seq, FormatErrStatus(parsed.status()));
    return;
  }
  Request& request = *parsed;
  switch (request.kind) {
    case Request::Kind::kPing: {
      const uint64_t seq = s->BeginRequest();
      s->Complete(seq, FormatPong());
      return;
    }
    case Request::Kind::kStats: {
      // The net table, the server's two gauges, then the serve table when
      // a serve sink is attached (DESIGN.md §8, "Metrics schema").
      const uint64_t seq = s->BeginRequest();
      serve::MetricsText stats(serve::MetricsText::Layout::kLine);
      metrics_->Snapshot().ForEach(stats);
      stats("inflight", "rows",
            inflight_rows_.load(std::memory_order_relaxed));
      stats("draining", "flag", uint64_t{draining() ? 1u : 0u});
      if (options_.serve_metrics != nullptr) {
        options_.serve_metrics->Table().ForEach(stats);
      }
      s->Complete(seq, FormatOk(stats.str()));
      return;
    }
    case Request::Kind::kQuit: {
      const uint64_t seq = s->BeginRequest();
      s->Complete(seq, FormatOk("bye"));
      s->set_quitting();
      return;
    }
    case Request::Kind::kScore:
      break;
  }

  // A SCORE row. It may carry a model=<name> routing cell (shared dialect
  // with the stdio path); it overrides the SCORE <model> token. The scoring
  // worker splits the rest of the record.
  serve::RoutedRecord peeled =
      serve::PeelRoute(request.cells_csv, /*label_col=*/-1);
  std::string model =
      peeled.routed ? std::move(peeled.model) : std::move(request.model);
  std::string record = peeled.routed ? std::string(peeled.record.text)
                                     : std::move(request.cells_csv);

  const uint64_t seq = s->BeginRequest();
  metrics_->RecordRowIn();
  metrics_->RecordParseUs(serve::ElapsedUs(ingest_start));
  inflight_rows_.fetch_add(1, std::memory_order_relaxed);
  const auto parsed_at = std::chrono::steady_clock::now();

  // The row joins its pass's hand-off (ParseAndDispatch).
  std::shared_ptr<Session> session = s;
  pass_rows_.push_back(
      {std::move(model), std::move(record), peeled.record.label_col,
       [this, session, seq, parsed_at](Result<double> result) {
         std::string reply;
         if (result.ok()) {
           reply = FormatOkScore(*result);
         } else {
           if (result.status().code() == StatusCode::kResourceExhausted) {
             metrics_->RecordShed();
           }
           reply = FormatErrStatus(result.status());
         }
         metrics_->RecordScoreUs(serve::ElapsedUs(parsed_at));
         if (session->Complete(seq, std::move(reply))) {
           {
             MutexLock lock(&ready_mu_);
             ready_.push_back(session);
           }
           WakeLoop();
         }
         // Must be the callback's LAST touch of the server: the release
         // pairs with the drain loop's acquire-load of zero, which is the
         // proof that no callback still runs.
         inflight_rows_.fetch_sub(1, std::memory_order_release);
       }});
}

bool TcpServer::FlushSession(const std::shared_ptr<Session>& s) {
  std::string& out = s->out();
  size_t& flushed = s->out_flushed();
  // Compact lazily, like FrameDecoder::Append on the read side: only once
  // the sent prefix dominates. Erasing it per send() would memmove the
  // whole backlog on every partial write — O(backlog^2) against a slow
  // reader sitting at the in-flight cap.
  if (flushed > 4096 && flushed > out.size() / 2) {
    out.erase(0, flushed);
    flushed = 0;
  }
  const size_t released = s->CollectReady(&out, metrics_);
  if (released > 0) metrics_->RecordRowsOut(released);
  while (flushed < out.size()) {
    const ssize_t n = ::send(s->fd(), out.data() + flushed,
                             out.size() - flushed, MSG_NOSIGNAL);
    if (n > 0) {
      flushed += static_cast<size_t>(n);
      s->Touch();
      continue;
    }
    if (n < 0 && (WouldBlock(errno) || errno == EINTR)) return true;
    CloseSession(s->fd(), /*idle=*/false);
    return false;
  }
  out.clear();
  flushed = 0;
  return true;
}

void TcpServer::CloseSession(int fd, bool idle) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  // Count first: the close() below is the client-visible event, and a
  // client that sees EOF may immediately read a metrics snapshot.
  metrics_->RecordClosed();
  if (idle) metrics_->RecordIdleClosed();
  it->second->Close();
  sessions_.erase(it);
}

}  // namespace net
}  // namespace targad
