// Runtime lock-rank (lock-ordering) checking, the dynamic half of the lock
// discipline (common/thread_annotations.h is the static half). Every mutex
// in the library is a RankedMutex carrying a rank from the table below; a
// thread may only acquire a mutex whose rank is STRICTLY GREATER than every
// rank it already holds. That makes the "who may be held while taking what"
// policy executable: any out-of-order acquisition — the raw material of a
// deadlock cycle — aborts immediately on the first bad schedule instead of
// deadlocking on the unlucky one.
//
// The checks live behind TARGAD_DCHECK_ENABLED (on in debug and sanitizer
// trees, compiled out of Release), so a RankedMutex in a Release build is
// exactly a std::mutex plus one stored enum. The rank bookkeeping is a
// thread-local vector of held ranks; acquisition order is validated against
// the maximum held rank, so releasing out of LIFO order (e.g. unique-lock
// juggling) stays legal as long as acquisition order was.
//
// The table is the single source of truth for lock ordering, consumed by
// this runtime checker, targad-lint's lock-order pass and the human
// reading DESIGN.md §11. Ranks and names must be unique — unique integer
// ranks are a total order, so the acquire-ascending policy is acyclic by
// construction; the compiler enforces both (see below the enum).

#ifndef TARGAD_COMMON_LOCK_RANK_H_
#define TARGAD_COMMON_LOCK_RANK_H_

#include <cstddef>
#include <iterator>
#include <mutex>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace targad {

// Lock-rank table: acquisition order ascends, so a row may be acquired
// while holding any row above it, never one below. Gaps are deliberate —
// new locks slot in without renumbering. Names and ranks stay unique: the
// enum rejects a repeated name, the static_assert below it a repeated rank.
//
//   rank | lock                           | held while calling
//   -----+--------------------------------+-----------------------------
//    10  | ThreadPool::mu_                | nothing (leaf of the pool)
//    14  | net::Session::mu_              | logging at most. NEVER held
//         |                                | across BatchScorer::Submit — a
//         |                                | shed row's completion callback
//         |                                | runs synchronously and re-locks
//         |                                | the session.
//    16  | net::TcpServer::ready_mu_      | logging at most (push/swap of
//         |                                | the completion ready-list)
//    20  | serve::BatchScorer::mu_        | nothing today; may precede any
//         |                                | row below (snapshot/swap/metrics)
//    30  | serve::ModelRegistry::mu_      | nothing (snapshot fetch is leaf)
//    40  | serve::BatchScorer::swap_mu_   | ServeMetrics counters, logging
//    50  | serve::ServeMetrics::model_mu_ | logging at most
//    60  | logging sink                   | nothing (innermost of all)
#define TARGAD_LOCK_RANK_TABLE(X) \
  X(kThreadPool, 10)              \
  X(kNetSession, 14)              \
  X(kNetReady, 16)                \
  X(kBatchScorerQueue, 20)        \
  X(kModelRegistry, 30)           \
  X(kBatchScorerSwap, 40)         \
  X(kServeMetrics, 50)            \
  X(kLogging, 60)

enum class LockRank : int {
#define TARGAD_LOCK_RANK_ENUM_ENTRY(name, value) name = value,
  TARGAD_LOCK_RANK_TABLE(TARGAD_LOCK_RANK_ENUM_ENTRY)
#undef TARGAD_LOCK_RANK_ENUM_ENTRY
};

namespace internal {

// A repeated name redeclares an enumerator. A repeated rank is caught
// here, where the table is defined, and not only by LockRankName's switch
// in lock_rank.cc (two equal case values).
constexpr bool LockRanksAreUnique() {
  constexpr int kRanks[] = {
#define TARGAD_LOCK_RANK_VALUE_ENTRY(name, value) value,
      TARGAD_LOCK_RANK_TABLE(TARGAD_LOCK_RANK_VALUE_ENTRY)
#undef TARGAD_LOCK_RANK_VALUE_ENTRY
  };
  for (size_t i = 0; i < std::size(kRanks); ++i) {
    for (size_t j = i + 1; j < std::size(kRanks); ++j) {
      if (kRanks[i] == kRanks[j]) return false;
    }
  }
  return true;
}

}  // namespace internal

static_assert(internal::LockRanksAreUnique(),
              "TARGAD_LOCK_RANK_TABLE: two locks share a rank; ranks must be "
              "unique so acquire-ascending is a total order");

/// Table name of `rank` ("kThreadPool"), or "?" for an unknown value.
const char* LockRankName(LockRank rank);

namespace internal {

// Validates that `rank` is strictly greater than every rank the calling
// thread holds, then records it as held. Aborts (raw stderr + abort, not
// TARGAD_LOG — the logging sink is itself a ranked lock) on a violation.
void NoteLockAcquired(LockRank rank);

// Records a successful try_lock. Same ordering contract as a blocking
// acquire: an out-of-order try_lock cannot deadlock by itself, but the
// ranks it smuggles into the held set would make every later blocking
// acquire unverifiable, so it is held to the same rule.
void NoteLockAcquiredTry(LockRank rank);

// Removes `rank` from the calling thread's held set (any position, not
// just the top — release order is unconstrained). Aborts if not held.
void NoteLockReleased(LockRank rank);

// Number of ranks the calling thread currently holds (for tests).
int HeldRankCount();

}  // namespace internal

/// A std::mutex with a capability annotation and a table rank. Satisfies
/// Lockable, so std::scoped_lock / std::condition_variable_any work — but
/// prefer MutexLock below, which Clang's analysis understands.
class TARGAD_CAPABILITY("mutex") RankedMutex {
 public:
  explicit RankedMutex(LockRank rank) : rank_(rank) {}

  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() TARGAD_ACQUIRE() {
#if TARGAD_DCHECK_ENABLED
    // Checked BEFORE blocking: the point is to abort on the schedule that
    // could deadlock, not to deadlock first.
    internal::NoteLockAcquired(rank_);
#endif
    mu_.lock();  // targad-lint: allow(raw-mutex-lock)
  }

  void unlock() TARGAD_RELEASE() {
    mu_.unlock();  // targad-lint: allow(raw-mutex-lock)
#if TARGAD_DCHECK_ENABLED
    internal::NoteLockReleased(rank_);
#endif
  }

  bool try_lock() TARGAD_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;  // targad-lint: allow(raw-mutex-lock)
#if TARGAD_DCHECK_ENABLED
    internal::NoteLockAcquiredTry(rank_);
#endif
    return true;
  }

  LockRank rank() const { return rank_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
};

/// RAII guard over a RankedMutex, annotated as a scoped capability so
/// Clang's thread-safety analysis tracks it (libstdc++'s std::lock_guard /
/// std::unique_lock are unannotated and invisible to the analysis). The
/// lowercase lock()/unlock() make it BasicLockable, so it doubles as the
/// lock argument of std::condition_variable_any::wait — the wait's internal
/// unlock/relock flows through the rank bookkeeping like any other.
class TARGAD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(RankedMutex* mu) TARGAD_ACQUIRE(mu) : mu_(mu) {
    mu_->lock();  // targad-lint: allow(raw-mutex-lock)
    held_ = true;
  }

  ~MutexLock() TARGAD_RELEASE() {
    if (held_) mu_->unlock();  // targad-lint: allow(raw-mutex-lock)
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Manual unlock/relock window (and the BasicLockable surface used by
  /// condition_variable_any). The destructor only releases if held.
  void unlock() TARGAD_RELEASE() {
    held_ = false;
    mu_->unlock();  // targad-lint: allow(raw-mutex-lock)
  }
  void lock() TARGAD_ACQUIRE() {
    mu_->lock();  // targad-lint: allow(raw-mutex-lock)
    held_ = true;
  }

 private:
  RankedMutex* const mu_;
  bool held_ = false;
};

}  // namespace targad

#endif  // TARGAD_COMMON_LOCK_RANK_H_
