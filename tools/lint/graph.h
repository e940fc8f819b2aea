// Cross-TU program model for targad-lint: links the per-file symbol tables
// (tools/lint/symbols.h) into a whole-program call graph, then mounts the
// three analysis passes on it:
//
//   lock-order              the static twin of the runtime rank checker in
//                           common/lock_rank.cc. Every `MutexLock` on a
//                           RankedMutex resolves to its TARGAD_LOCK_RANK_TABLE
//                           rank; held-rank sets propagate along call edges
//                           (TARGAD_REQUIRES counts as held on entry,
//                           TARGAD_ACQUIRE as acquired by the call); any path
//                           that could acquire a rank <= one already held is
//                           a finding. src/ modules only — tests seed
//                           deliberate inversions to exercise the runtime
//                           checker.
//   hot-path-*              transitive purity: the TARGAD_HOT_PATH bans
//                           (tools/lint/purity.h) applied over full
//                           call-graph reachability instead of one level
//                           inside one TU. Nothing reachable is exempt: a
//                           static's one-time initializer is scanned too.
//   poll-thread-block       no TARGAD_POLL_THREAD-reachable function may
//                           call a blocking syscall (the root's own poll()
//                           is the one exemption: it IS the event wait).
//   poll-thread-lock        poll-thread-reachable lock acquisitions must
//                           stay inside the declared session/ready ranks
//                           (kNetSession, kNetReady) — anything else can
//                           stall every connection behind one slow path.
//   poll-thread-alloc-loop  no unbounded growth (`push_back` et al. inside
//                           `for(;;)` / `while(true)`) on the poll thread
//                           unless the buffer is visibly reset (cleared,
//                           swapped, assigned, or declared) each iteration.
//
// Resolution is name-based and deliberately conservative: calls that cannot
// be resolved to a unique definition get no edge (see DESIGN.md §16 for the
// rules and the known soundness limits).

#ifndef TARGAD_TOOLS_LINT_GRAPH_H_
#define TARGAD_TOOLS_LINT_GRAPH_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/findings.h"
#include "tools/lint/symbols.h"

namespace targad {
namespace lint {

/// Position of one function in the flattened program model.
struct FnRef {
  size_t file = 0;  // Index into ProgramModel::files.
  size_t fn = 0;    // Index into FileSymbols::fns.
};

struct ProgramModel {
  std::vector<FileSymbols> files;
  std::map<std::string, int> rank_table;  // Merged across files.
  std::vector<FnRef> fns;                 // Flattened function list.
  /// (class, name) -> indices into `fns`; free functions under class "".
  std::map<std::pair<std::string, std::string>, std::vector<size_t>>
      by_cls_name;
  // Merged per-file maps (first definition wins on conflicts):
  std::map<std::pair<std::string, std::string>, std::string> mutex_ranks;
  std::map<std::pair<std::string, std::string>, std::string> member_types;
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      decl_requires;
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      decl_acquires;
  /// edges[fn][call_site] -> resolved callee indices into `fns` (empty when
  /// the call does not resolve).
  std::vector<std::vector<std::vector<size_t>>> edges;

  const FnSym& fn(size_t i) const {
    return files[fns[i].file].fns[fns[i].fn];
  }
  const FileSymbols& file_of(size_t i) const { return files[fns[i].file]; }
};

/// Links per-file symbol tables into the whole-program model: merges the
/// rank table and annotation maps, resolves every lock acquisition to its
/// declared rank, folds declaration-site TARGAD_REQUIRES into definitions,
/// and resolves call edges.
ProgramModel BuildProgramModel(std::vector<FileSymbols> files);

/// Static lock-order verification (rule `lock-order`). Findings are
/// unfiltered; the caller applies the allow() hatch.
std::vector<Finding> CheckLockOrder(const ProgramModel& pm);

/// Transitive hot-path purity (rules `hot-path-*`).
std::vector<Finding> CheckTransitivePurity(const ProgramModel& pm);

/// Poll-thread blocking-call / lock-rank / alloc-loop reachability (rules
/// `poll-thread-block`, `poll-thread-lock`, `poll-thread-alloc-loop`).
std::vector<Finding> CheckPollThreadReachability(const ProgramModel& pm);

}  // namespace lint
}  // namespace targad

#endif  // TARGAD_TOOLS_LINT_GRAPH_H_
