#include "net/session.h"

#include <unistd.h>

#include "common/hot_path.h"
#include "common/logging.h"

namespace targad {
namespace net {

void Session::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  MutexLock lock(&mu_);
  closed_ = true;
  ring_.clear();
}

uint64_t Session::BeginRequest() {
  const uint64_t seq = next_seq_++;
  MutexLock lock(&mu_);
  ++inflight_;
  return seq;
}

bool Session::Complete(uint64_t seq, std::string reply) {
  MutexLock lock(&mu_);
  --inflight_;
  if (closed_) return false;
  // Each seq completes once: never after its slot was collected, and
  // never twice while it waits.
  TARGAD_DCHECK(seq >= next_flush_seq_);
  const size_t index = seq - next_flush_seq_;
  if (index >= ring_.size()) ring_.resize(index + 1);
  Reply& slot = ring_[index];
  TARGAD_DCHECK(!slot.done);
  slot.text = std::move(reply);
  slot.done_at = std::chrono::steady_clock::now();
  slot.done = true;
  const bool first = !flush_requested_;
  flush_requested_ = true;
  return first;
}

size_t Session::inflight() const {
  MutexLock lock(&mu_);
  return inflight_;
}

bool Session::ReplyQueueEmpty() const {
  MutexLock lock(&mu_);
  // With nothing in flight every slot is done, so an empty ring means
  // every reply has been collected.
  return inflight_ == 0 && ring_.empty();
}

size_t Session::CollectReady(std::string* sink, NetMetrics* metrics) {
  MutexLock lock(&mu_);
  return CollectReadyLocked(sink, metrics);
}

TARGAD_HOT_PATH size_t Session::CollectReadyLocked(std::string* sink,
                                                   NetMetrics* metrics) {
  size_t released = 0;
  while (!ring_.empty() && ring_.front().done) {
    const Reply& reply = ring_.front();
    if (metrics != nullptr) {
      metrics->RecordRespondUs(serve::ElapsedUs(reply.done_at));
    }
    sink->append(reply.text);
    ring_.pop_front();
    ++next_flush_seq_;
    ++released;
  }
  flush_requested_ = false;
  return released;
}

}  // namespace net
}  // namespace targad
