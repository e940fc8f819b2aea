// Hot-path purity bans: functions annotated TARGAD_HOT_PATH (see
// src/common/hot_path.h for the contract) must not allocate, build strings,
// take locks, log, or block. This header owns the token-level ban scanner;
// the whole-program transitive pass in tools/lint/graph.h decides WHICH
// bodies to scan (every function reachable from a hot root over the
// cross-TU call graph).
//
// Rule ids (one per ban family, so findings read precisely and self-tests
// can seed each independently):
//
//   hot-path-alloc   new / make_unique / make_shared / malloc family /
//                    push_back / emplace_back / resize / reserve — anything
//                    that can grow the heap. (append on a reused buffer is
//                    deliberately legal: capacity amortizes to zero.)
//   hot-path-string  std::string construction, to_string, stringstreams.
//   hot-path-lock    MutexLock / lock_guard / unique_lock / scoped_lock —
//                    ranked-mutex acquisition is a blocking rendezvous.
//   hot-path-log     TARGAD_LOG (TARGAD_CHECK/TARGAD_DCHECK stay legal:
//                    they are branch-and-abort, not I/O, on the hot path).
//   hot-path-block   sleep/poll/select/epoll_wait/accept/connect and
//                    blocking stdio reads.

#ifndef TARGAD_TOOLS_LINT_PURITY_H_
#define TARGAD_TOOLS_LINT_PURITY_H_

#include <string>
#include <vector>

#include "tools/lint/findings.h"
#include "tools/lint/lexer.h"

namespace targad {
namespace lint {

/// Scans the code-token span [body_begin, body_end) of one function body
/// for hot-path ban violations (preprocessor tokens ignored). `suffix` is
/// appended to every message — it names the scanned function and the hot
/// root that reaches it. Findings are returned un-filtered; the caller
/// applies the allow() hatch.
void ScanHotPathBans(const std::string& rel, const std::vector<Token>& code,
                     size_t body_begin, size_t body_end,
                     const std::string& suffix, std::vector<Finding>* out);

}  // namespace lint
}  // namespace targad

#endif  // TARGAD_TOOLS_LINT_PURITY_H_
