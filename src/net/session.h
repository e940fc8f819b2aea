// Session: per-connection state of the TCP front-end. One Session is owned
// by the server's poll (ingest) thread, which runs the read/parse/write
// stages; scoring-completion callbacks running on BatchScorer workers hand
// their replies back through Complete(). The contract that makes replies
// come out in request order on every connection:
//
//  - the poll thread assigns each request a monotonically increasing
//    sequence number at parse time (BeginRequest),
//  - callbacks complete sequence numbers in ANY order (batches for
//    different models finish whenever they finish),
//  - CollectReady only releases the longest contiguous completed prefix,
//    so the write stage emits reply seq 0, 1, 2, ... regardless of
//    completion order.
//
// Replies wait in a ring of slots indexed by seq - next_flush_seq_: the
// sequence numbers are dense and at most max_inflight_rows plus the poll
// thread's own inline replies are outstanding, so the ring stays small and
// a slot is found without a search. CollectReady pops done slots off the
// front.
//
// Flush requests: Complete returns true only for the first completion
// since the last CollectReady, and only then does the caller ask the poll
// thread to flush the session (one ready-queue push and wake per flush, not
// per reply). A later completion needs no request of its own: the pending
// one triggers a CollectReady that runs after it, because CollectReady
// clears the flag under the same mutex. Every Complete the poll thread
// makes itself (PING, STATS, QUIT and ERR lines) is followed by a flush of
// that session in the same loop pass, so the flag never strands a reply.
//
// Thread ownership: fields above mu_ are poll-thread-only (the read buffer,
// the socket, flush backlog, lifecycle flags). Fields below mu_ are the
// cross-thread reply handoff, guarded by the kNetSession rank.

#ifndef TARGAD_NET_SESSION_H_
#define TARGAD_NET_SESSION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "net/metrics.h"
#include "net/protocol.h"

namespace targad {
namespace net {

class Session {
 public:
  /// Takes ownership of the connected socket `fd` (nonblocking).
  Session(int fd, size_t max_line_bytes)
      : fd_(fd),
        decoder_(max_line_bytes),
        last_active_(std::chrono::steady_clock::now()) {}

  ~Session() { Close(); }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- Poll-thread-only surface -----------------------------------------

  int fd() const { return fd_; }

  FrameDecoder& decoder() { return decoder_; }

  /// Write backlog: bytes collected from completed replies. The prefix
  /// [0, out_flushed()) has already been accepted by the kernel; the flush
  /// path compacts it lazily (erasing eagerly per send() would be
  /// O(backlog^2) against a slow reader). Empty iff nothing is pending:
  /// the flush path clears both together once fully sent.
  std::string& out() { return out_; }
  size_t& out_flushed() { return out_flushed_; }

  bool quitting() const { return quitting_; }
  void set_quitting() { quitting_ = true; }

  bool peer_eof() const { return peer_eof_; }
  void set_peer_eof() { peer_eof_ = true; }

  std::chrono::steady_clock::time_point last_active() const {
    return last_active_;
  }
  void Touch() { last_active_ = std::chrono::steady_clock::now(); }

  /// Closes the socket (idempotent) and stops Complete() from buffering
  /// further reply bytes for it.
  void Close() TARGAD_EXCLUDES(mu_);

  // ---- Cross-thread surface ---------------------------------------------

  /// Registers the next request: returns its sequence number and counts it
  /// in flight until the matching Complete.
  uint64_t BeginRequest() TARGAD_EXCLUDES(mu_);

  /// Hands back the reply for `seq`, which must be outstanding. Any thread;
  /// replies may complete out of order. Returns true when the caller must
  /// ask the poll thread to flush this session: this is the first
  /// completion since the last CollectReady (see the file comment). False
  /// after Close, when the reply is dropped.
  bool Complete(uint64_t seq, std::string reply) TARGAD_EXCLUDES(mu_);

  /// Requests begun but not yet completed.
  size_t inflight() const TARGAD_EXCLUDES(mu_);

  /// True when no request is in flight and every completed reply has been
  /// collected (the session can be closed without losing replies).
  bool ReplyQueueEmpty() const TARGAD_EXCLUDES(mu_);

  /// Appends the longest contiguous run of completed replies to *sink (in
  /// sequence order) and returns how many replies were released. Records
  /// the respond-stage wait of each released reply in `metrics` (nullable).
  /// Clears the flush request, so the next Complete asks for a flush again.
  size_t CollectReady(std::string* sink, NetMetrics* metrics)
      TARGAD_EXCLUDES(mu_);

 private:
  /// Hot inner loop of CollectReady, factored out so the per-reply work is
  /// purity-checked without the lock acquisition (the caller holds mu_).
  size_t CollectReadyLocked(std::string* sink, NetMetrics* metrics)
      TARGAD_REQUIRES(mu_);

  struct Reply {
    std::string text;
    std::chrono::steady_clock::time_point done_at;
    bool done = false;
  };

  // Poll-thread-owned (unguarded by convention: declared above the mutex).
  int fd_;
  FrameDecoder decoder_;
  std::string out_;
  size_t out_flushed_ = 0;
  bool quitting_ = false;
  bool peer_eof_ = false;
  std::chrono::steady_clock::time_point last_active_;
  uint64_t next_seq_ = 0;

  mutable RankedMutex mu_{LockRank::kNetSession};
  /// Slot i holds the reply of seq next_flush_seq_ + i.
  std::deque<Reply> ring_ TARGAD_GUARDED_BY(mu_);
  uint64_t next_flush_seq_ TARGAD_GUARDED_BY(mu_) = 0;
  /// A completion since the last CollectReady has asked for a flush.
  bool flush_requested_ TARGAD_GUARDED_BY(mu_) = false;
  size_t inflight_ TARGAD_GUARDED_BY(mu_) = 0;
  /// Set by Close: late completions still settle the in-flight count but
  /// their reply text is discarded (nobody will read it).
  bool closed_ TARGAD_GUARDED_BY(mu_) = false;
};

}  // namespace net
}  // namespace targad

#endif  // TARGAD_NET_SESSION_H_
