// Per-file symbol extraction for the cross-TU program model: function
// definitions (with hot-path / poll-thread annotations and lock
// acquisitions), RankedMutex declarations with their table ranks, member
// and local variable types for receiver resolution, method-declaration
// TARGAD_REQUIRES annotations, and the TARGAD_LOCK_RANK_TABLE entries.
//
// Everything here is token-based and purely syntactic — one file in, one
// FileSymbols out, no cross-file knowledge. tools/lint/graph.h links the
// per-file results into a whole-program call graph and runs the three
// analysis passes (lock-order, transitive purity, poll-thread
// reachability) over it.

#ifndef TARGAD_TOOLS_LINT_SYMBOLS_H_
#define TARGAD_TOOLS_LINT_SYMBOLS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/lexer.h"

namespace targad {
namespace lint {

/// One `MutexLock guard(&mu)` acquisition inside a function body.
struct LockAcquire {
  std::string mutex;  // Last identifier of the mutex argument ("mu_").
  int line = 0;
  /// Indices (into FnSym::acquires) of guards still held when this one is
  /// taken — the within-function "held while acquiring" relation.
  std::vector<size_t> held_before;
  // Resolved by the graph from the declaration + rank table:
  std::string rank_name;  // Table entry name ("kNetReady"), "" unknown.
  int rank = -1;          // Table value, -1 unknown.
};

/// One call site inside a function body.
struct CallSite {
  std::string name;      // Callee identifier.
  std::string receiver;  // Receiver variable or scope qualifier, "" none.
  bool via_member = false;  // Spelled recv.name(...) / recv->name(...).
  bool via_scope = false;   // Spelled Qual::name(...).
  int line = 0;
  /// Indices (into FnSym::acquires) of guards held at this call site.
  std::vector<size_t> held;
};

/// One function definition (a body at namespace/class scope).
struct FnSym {
  std::string name;  // Unqualified name (Foo::Bar -> Bar, "~Foo" dtors).
  std::string cls;   // Enclosing or qualifying class, "" for free functions.
  int line = 0;
  bool hot = false;        // TARGAD_HOT_PATH before the body.
  bool poll_root = false;  // TARGAD_POLL_THREAD (event-loop root).
  size_t body_begin = 0;   // Code-token index of the body's '{'.
  size_t body_end = 0;     // One past the body's '}'.
  std::vector<std::string> requires_mutexes;  // TARGAD_REQUIRES(...) args.
  std::vector<LockAcquire> acquires;
  std::vector<CallSite> calls;
  /// Local variable name -> type identifier, from simple declarations
  /// (`Type v`, `Type* v`, `std::shared_ptr<Type> v`) in the body.
  std::map<std::string, std::string> local_types;
};

/// Everything the program model needs from one file.
struct FileSymbols {
  std::string rel;     // Root-relative path.
  std::string module;  // Layering module of the file.
  /// Non-owning view of the file's code tokens (body spans index into it).
  const std::vector<Token>* code = nullptr;
  std::vector<FnSym> fns;
  /// (class, member) -> LockRank entry name for RankedMutex declarations;
  /// class "" holds file-scope mutexes (e.g. logging's sink mutex).
  std::map<std::pair<std::string, std::string>, std::string> mutex_ranks;
  /// (class, member) -> type identifier, for method-call receiver
  /// resolution (smart-pointer members resolve to their pointee type).
  std::map<std::pair<std::string, std::string>, std::string> member_types;
  /// (class, method) -> TARGAD_REQUIRES args found on in-class method
  /// DECLARATIONS (the definition may live in another file).
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      decl_requires;
  /// (class, method) -> TARGAD_ACQUIRE args on in-class declarations: the
  /// method acquires those mutexes when called.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      decl_acquires;
  /// TARGAD_LOCK_RANK_TABLE entries defined in this file: name -> value.
  std::map<std::string, int> rank_table;
};

/// Extracts the symbol-level view of one lexed file. `code` must outlive
/// the result (the FnSym body spans index into it).
FileSymbols ExtractFileSymbols(const std::string& rel,
                               const std::string& module,
                               const std::vector<Token>& code);

}  // namespace lint
}  // namespace targad

#endif  // TARGAD_TOOLS_LINT_SYMBOLS_H_
