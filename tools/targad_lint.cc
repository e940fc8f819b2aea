// targad-lint: project-rule source checker for things the compiler cannot
// see. v5 is built on a real C++ lexer (tools/lint/lexer.h): comments,
// string/char literals, raw strings, and preprocessor lines are tokenized
// once (with universal phase-2 line splicing), and every rule runs over
// token-derived views — so prose in a comment or a raw string can never
// trip a rule, and the allow() escape hatch reads actual comment tokens.
//
// Per-file rules (tools/lint/driver.cc):
//
//   include-guard          .h guard must be TARGAD_<PATH>_H_ (path relative
//                          to the repo layout, uppercased, non-alnum -> '_'),
//                          with a matching #define and a closing #endif.
//   using-namespace-header no `using namespace` in headers.
//   banned-rand            no rand()/srand() in library code — randomness
//                          goes through common/rng.h for reproducibility.
//   banned-io              no std::cout/std::cerr/printf/fprintf logging in
//                          library code — use TARGAD_LOG (snprintf-style
//                          pure formatting is fine).
//   naked-throw            no `throw` — the library is exception-free at
//                          its boundaries; fallible APIs return Status.
//   mutex-guarded-by       in a header, every member field declared after a
//                          mutex member must carry TARGAD_GUARDED_BY.
//   raw-mutex-lock         no .lock()/.unlock()/.try_lock() on a mutex-
//                          named receiver — locking goes through MutexLock.
//   raw-dense-loop         no hand-rolled dense math outside nn/kernels/.
//
// Include-tree passes:
//
//   include-layering       the module DAG (tools/lint/layering.cc): a file
//                          may only include modules at the same or a lower
//                          layer of common -> nn -> data -> cluster -> eval
//                          -> core -> baselines -> serve -> net -> aux.
//   include-cycle          no include cycles among scanned files.
//   include-cc             no #include of .cc/.cpp files.
//   unused-include         IWYU-lite: a project header none of whose
//                          symbols appear in the including TU (src/ only;
//                          `// IWYU pragma: keep|export` exempts a line).
//                          Macro invocations count as uses.
//
// Whole-program passes new in v5 (tools/lint/symbols.cc extracts per-file
// symbols, tools/lint/graph.cc links the cross-TU call graph and runs):
//
//   lock-order             static rank-ordering over the lock table in
//                          common/lock_rank.h: a function may not acquire a
//                          rank <= one already held, where "held" merges
//                          active MutexLock guards, TARGAD_REQUIRES entry
//                          annotations, and ranks propagated transitively
//                          through resolvable calls (TARGAD_ACQUIRE
//                          declares an acquisition the body delegates).
//   hot-path-*             the purity contract (common/hot_path.h) enforced
//                          over full call-graph reachability from every
//                          TARGAD_HOT_PATH function, across translation
//                          units, with no exempt callee.
//   poll-thread-block      nothing reachable from a TARGAD_POLL_THREAD
//   poll-thread-lock       event-loop root may block, take a lock outside
//   poll-thread-alloc-loop the kNetSession/kNetReady ranks, or grow a
//                          buffer inside the unbounded loop without a
//                          per-iteration reset.
//
// Library-code rules (banned-*, naked-throw, mutex-guarded-by,
// raw-mutex-lock, raw-dense-loop) apply to the src/ modules;
// tools/, bench/, tests/, and examples/ are leaf consumers where printf
// tables and hand-rolled reference kernels are the point. lock-order and
// the poll-thread-* rules also scope to src/ (tests seed inversions on
// purpose); the hot-path purity contract applies everywhere scanned.
//
// Escape hatch: a `// targad-lint: allow(<rule>[,<rule>...])` comment on
// the offending line or the line directly above suppresses those rules for
// that line (`allow(*)` suppresses everything).
//
// Usage:
//   targad_lint --root <dir> [path...]   scan (default path: the root)
//   targad_lint --analyze                run ONLY the whole-program passes
//                                        (lock-order, transitive purity,
//                                        poll-thread reachability)
//   targad_lint --format=github          emit findings as GitHub Actions
//                                        workflow annotations
//   targad_lint --self-test              seed violations in a temp tree and
//                                        assert every rule fires (and that
//                                        allow() suppresses); exits 0/1.
//
// Exit status: 0 clean, 1 findings (or self-test failure), 2 usage error.

#include <cstdio>
#include <string>
#include <vector>

#include "tools/lint/driver.h"
#include "tools/lint/layering.h"
#include "tools/lint/selftest.h"

int main(int argc, char** argv) {
  std::string root;
  std::vector<std::string> paths;
  targad::lint::LintOptions options;
  bool github = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return targad::lint::RunSelfTest();
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "targad_lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--analyze") {
      options.per_file = false;
      options.analyze = true;
    } else if (arg == "--format=github") {
      github = true;
    } else if (arg == "--help") {
      std::fprintf(stderr,
                   "usage: targad_lint --root <dir> [--analyze] "
                   "[--format=github] [path...] | --self-test\n");
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (root.empty()) {
    std::fprintf(stderr, "targad_lint: --root <dir> is required\n");
    return 2;
  }
  if (paths.empty()) paths.push_back(root);

  const std::vector<targad::lint::Finding> findings =
      targad::lint::RunLint(root, paths, options);
  for (const targad::lint::Finding& f : findings) {
    if (github) {
      // GitHub Actions workflow-command annotation format; shows up inline
      // on the PR diff. Findings carry include-path-form paths (relative to
      // --root, i.e. src/), so restore the workspace-relative prefix for
      // library modules — aux trees (tools/ tests/ ...) are already
      // repo-relative.
      std::string file = f.file;
      if (targad::lint::IsSrcModule(targad::lint::ModuleOf(file))) {
        file = "src/" + file;
      }
      std::printf("::error file=%s,line=%d,title=targad-lint %s::[%s] %s\n",
                  file.c_str(), f.line, f.rule.c_str(), f.rule.c_str(),
                  f.message.c_str());
    } else {
      std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "targad_lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
