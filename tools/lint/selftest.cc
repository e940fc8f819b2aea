#include "tools/lint/selftest.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/driver.h"

namespace targad {
namespace lint {
namespace {

namespace fs = std::filesystem;

struct SelfCase {
  std::string file;
  std::string contents;
  // Rules this file must trip, as (rule, line) pairs; empty = must be clean.
  std::vector<std::pair<std::string, int>> expect;
};

std::vector<SelfCase> Cases() {
  return {
      {"sub/bad_guard.h",
       "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n#endif\n",
       {{"include-guard", 1}}},
      {"sub/no_define.h",
       "#ifndef TARGAD_SUB_NO_DEFINE_H_\n#define SOMETHING_ELSE\n#endif\n",
       {{"include-guard", 1}}},
      {"sub/using_ns.h",
       "#ifndef TARGAD_SUB_USING_NS_H_\n#define TARGAD_SUB_USING_NS_H_\n"
       "using namespace std;\n#endif\n",
       {{"using-namespace-header", 3}}},
      {"sub/banned.cc",
       "int f() {\n"
       "  int x = rand();\n"
       "  printf(\"%d\", x);\n"
       "  std::cout << x;\n"
       "  if (x < 0) throw 1;\n"
       "  return x;\n}\n",
       {{"banned-rand", 2},
        {"banned-io", 3},
        {"banned-io", 4},
        {"naked-throw", 5}}},
      // The escape hatch silences the named rule(s) on that line (same line
      // or the line directly above)...
      {"sub/allowed.cc",
       "int g() {\n"
       "  return rand();  // targad-lint: allow(banned-rand)\n}\n"
       "int h() {\n"
       "  // targad-lint: allow(banned-io,banned-rand)\n"
       "  printf(\"%d\", rand());\n}\n",
       {}},
      // ...but only the named rule.
      {"sub/allow_wrong_rule.cc",
       "int g() {\n"
       "  return rand();  // targad-lint: allow(banned-io)\n}\n",
       {{"banned-rand", 2}}},
      // ...and an allow() spelled inside a STRING is inert (the hatch reads
      // comment tokens, not raw text).
      {"sub/allow_in_string.cc",
       "const char* fake = \"targad-lint: allow(banned-rand)\";\n"
       "int g() {\n"
       "  return rand();\n}\n",
       {{"banned-rand", 3}}},
      // mutex-guarded-by: `depth_` sits below the mutex without an
      // annotation (line 8). Everything around it is exempt: fields above
      // the mutex, condition variables, annotated fields, statics,
      // atomics, and an allow()ed line. The `};` closes the scope, so the
      // trailing `after_` is clean.
      {"sub/guarded.h",
       "#ifndef TARGAD_SUB_GUARDED_H_\n"
       "#define TARGAD_SUB_GUARDED_H_\n"
       "class Pool {\n"
       " private:\n"
       "  const int capacity_ = 4;\n"
       "  mutable RankedMutex mu_{LockRank::kThreadPool};\n"
       "  std::condition_variable_any cv_;\n"
       "  int depth_ = 0;\n"
       "  int safe_ TARGAD_GUARDED_BY(mu_) = 0;\n"
       "  static int counter_;\n"
       "  std::atomic<int> hits_{0};\n"
       "  int waived_;  // targad-lint: allow(mutex-guarded-by)\n"
       "};\n"
       "int after_ = 0;\n"
       "#endif\n",
       {{"mutex-guarded-by", 8}}},
      // raw-mutex-lock: direct lock calls on mutex-named receivers (member
      // access or pointer) are flagged; the same calls on a MutexLock
      // guard named `lock` are the blessed manual-window form, and the
      // escape hatch still works.
      {"sub/rawlock.cc",
       "void f() {\n"
       "  mu_.lock();\n"
       "  mu_.unlock();\n"
       "  if (g_mutex->try_lock()) return;\n"
       "  lock.unlock();\n"
       "  swap_mu_.lock();  // targad-lint: allow(raw-mutex-lock)\n"
       "}\n",
       {{"raw-mutex-lock", 2},
        {"raw-mutex-lock", 3},
        {"raw-mutex-lock", 4}}},
      // raw-dense-loop: a hand-written triple-loop matmul fires (line 5, on
      // the accumulate line), as does a braceless nested accumulation over
      // At() (line 10); the escape hatch still works (line 13).
      {"sub/dense.cc",
       "void MatMul(double* c, const double* a, const double* b, int n) {\n"
       "  for (int i = 0; i < n; ++i) {\n"
       "    for (int j = 0; j < n; ++j) {\n"
       "      for (int k = 0; k < n; ++k) {\n"
       "        c[i * n + j] += a[i * n + k] * b[k * n + j];\n"
       "      }\n"
       "    }\n"
       "  }\n"
       "  for (int i = 0; i < n; ++i)\n"
       "    for (int j = 0; j < n; ++j) out.At(i, j) += x.At(i, j) * w[j];\n"
       "  for (int i = 0; i < n; ++i) {\n"
       "    for (int j = 0; j < n; ++j) {\n"
       "      c[i] += a[i * n + j] * b[j];  // targad-lint: allow(raw-dense-loop)\n"
       "    }\n"
       "  }\n"
       "}\n",
       {{"raw-dense-loop", 5}, {"raw-dense-loop", 10}}},
      // ...the kernel layer itself is exempt by path...
      {"nn/kernels/fast.cc",
       "void Gemm(double* c, const double* a, const double* b, int n) {\n"
       "  for (int i = 0; i < n; ++i) {\n"
       "    for (int j = 0; j < n; ++j) {\n"
       "      c[i * n + j] += a[i * n + j] * b[j * n + i];\n"
       "    }\n"
       "  }\n"
       "}\n",
       {}},
      // ...and legitimate shapes stay clean: a depth-1 dot product, a
      // nested sum without multiplication, and a single-subscript weighted
      // reduction over a hoisted scalar.
      {"sub/dense_ok.cc",
       "double f(const double* a, const double* b, double* s, int n) {\n"
       "  double dot = 0.0;\n"
       "  for (int i = 0; i < n; ++i) dot += a[i] * b[i];\n"
       "  for (int i = 0; i < n; ++i) {\n"
       "    for (int j = 0; j < n; ++j) s[j] += a[i * n + j];\n"
       "    const double r = b[i];\n"
       "    for (int j = 0; j < n; ++j) {\n"
       "      const double diff = a[i * n + j];\n"
       "      s[j] += r * diff * diff;\n"
       "    }\n"
       "  }\n"
       "  return dot;\n"
       "}\n",
       {}},
      // Comments and strings never trip rules; snprintf is not printf.
      {"sub/immune.cc",
       "// rand() and printf() and throw, discussed in prose.\n"
       "/* std::cout << rand(); */\n"
       "const char* s = \"printf(rand()) throw\";\n"
       "int n = snprintf(buf, 4, \"x\");\n",
       {}},
      // Raw strings are fully opaque to every rule — this is the false-
      // positive class the v3 blanking pass got wrong (it ended the string
      // at the first inner quote, exposing the rest as code).
      {"sub/rawstr.cc",
       "const char* r = R\"(say \"hi\" rand() and printf( and throw)\";\n"
       "const char* t = R\"tag(std::cout << mu_.lock();)tag\";\n"
       "int k = 0;\n",
       {}},
      // ---- include-layering: a lower layer including a higher one is a
      // back-edge; the reverse direction is clean.
      {"common/uses_serve.cc", "#include \"serve/api.h\"\n",
       {{"include-layering", 1}}},
      {"net/uses_serve.cc", "#include \"serve/api.h\"\n", {}},
      // ---- include-cc: implementation files are not includable.
      {"sub/incl_cc.cc", "#include \"sub/other.cc\"\n", {{"include-cc", 1}}},
      // ---- include-cycle: a.h -> b.h -> a.h closes a cycle at b.h:3.
      {"sub/cyc_a.h",
       "#ifndef TARGAD_SUB_CYC_A_H_\n#define TARGAD_SUB_CYC_A_H_\n"
       "#include \"sub/cyc_b.h\"\n#endif\n",
       {}},
      {"sub/cyc_b.h",
       "#ifndef TARGAD_SUB_CYC_B_H_\n#define TARGAD_SUB_CYC_B_H_\n"
       "#include \"sub/cyc_a.h\"\n#endif\n",
       {{"include-cycle", 3}}},
      // ---- unused-include: unused.h's symbols never appear in the TU
      // (line 2 fires); used.h is consumed, kept.h carries an IWYU pragma,
      // and impl.cc includes its own header — all clean.
      {"common/used.h",
       "#ifndef TARGAD_COMMON_USED_H_\n#define TARGAD_COMMON_USED_H_\n"
       "struct UsedThing { int v; };\n#endif\n",
       {}},
      {"common/unused.h",
       "#ifndef TARGAD_COMMON_UNUSED_H_\n#define TARGAD_COMMON_UNUSED_H_\n"
       "struct NeverMentioned { int w; };\n#endif\n",
       {}},
      {"common/kept.h",
       "#ifndef TARGAD_COMMON_KEPT_H_\n#define TARGAD_COMMON_KEPT_H_\n"
       "struct KeptThing { int u; };\n#endif\n",
       {}},
      {"serve/consumer.cc",
       "#include \"common/kept.h\"  // IWYU pragma: keep\n"
       "#include \"common/unused.h\"\n"
       "#include \"common/used.h\"\n"
       "UsedThing MakeThing() { return UsedThing{}; }\n",
       {{"unused-include", 2}}},
      {"serve/impl.h",
       "#ifndef TARGAD_SERVE_IMPL_H_\n#define TARGAD_SERVE_IMPL_H_\n"
       "struct ImplOnly { int z; };\n#endif\n",
       {}},
      {"serve/impl.cc",
       "#include \"serve/impl.h\"\nint Standalone() { return 3; }\n", {}},
      // ---- hot-path purity: one violation per rule id, plus one-level
      // propagation into a same-file helper; an unannotated function that
      // allocates stays clean.
      {"serve/hot.cc",
       "TARGAD_HOT_PATH int HotAlloc(int n) {\n"
       "  int* p = new int[n];\n"
       "  return p[0];\n"
       "}\n"
       "TARGAD_HOT_PATH void HotGrow(Vec* v) {\n"
       "  v->push_back(1);\n"
       "}\n"
       "TARGAD_HOT_PATH void HotString() {\n"
       "  std::string s(16, 'x');\n"
       "}\n"
       "TARGAD_HOT_PATH void HotLock() {\n"
       "  MutexLock lock(&reg_mu_);\n"
       "}\n"
       "TARGAD_HOT_PATH void HotLog(int x) {\n"
       "  TARGAD_LOG(\"x=%d\", x);\n"
       "}\n"
       "TARGAD_HOT_PATH int HotBlock(int fd) {\n"
       "  return poll(nullptr, 0, fd);\n"
       "}\n"
       "TARGAD_HOT_PATH int HotCallsHelper(int n) { return ScratchHelper(n); }\n"
       "int ScratchHelper(int n) {\n"
       "  Vec tmp;\n"
       "  tmp.reserve(n);\n"
       "  return n;\n"
       "}\n"
       "int ColdAllocates(int n) { return *(new int(n)); }\n",
       {{"hot-path-alloc", 2},
        {"hot-path-alloc", 6},
        {"hot-path-string", 9},
        {"hot-path-lock", 12},
        {"hot-path-log", 15},
        {"hot-path-block", 18},
        {"hot-path-alloc", 23}}},
      // The purity contract's legal forms: subscript writes into sized
      // buffers, arithmetic, TARGAD_DCHECK, and append into a reused
      // buffer (capacity amortizes; growth-by-construction is what's
      // banned).
      {"serve/hot_ok.cc",
       "TARGAD_HOT_PATH double HotClean(const double* a, double* out,\n"
       "                                int n, Buf* sink) {\n"
       "  double acc = 0.0;\n"
       "  for (int i = 0; i < n; ++i) acc += a[i];\n"
       "  out[0] = acc;\n"
       "  TARGAD_DCHECK(n > 0);\n"
       "  sink->append(out, 1);\n"
       "  return acc;\n"
       "}\n"
       "TARGAD_HOT_PATH size_t HotNpos(const std::string& buf) {\n"
       "  const size_t p = buf.find(0);\n"
       "  return p == std::string::npos ? 0 : p;\n"
       "}\n"
       "int ColdFine(int n) { return *(new int(n)); }\n",
       {}},
      // ---- whole-program passes (tools/lint/graph.h). The fixture rank
      // table plays the role common/lock_rank.h plays in the real tree;
      // kNetSession/kNetReady are spelled exactly because the poll pass's
      // allowed-rank set is name-based.
      {"common/ranks_fixture.h",
       "#ifndef TARGAD_COMMON_RANKS_FIXTURE_H_\n"
       "#define TARGAD_COMMON_RANKS_FIXTURE_H_\n"
       "#define TARGAD_LOCK_RANK_TABLE(X) \\\n"
       "  X(kLow, 10)                     \\\n"
       "  X(kNetSession, 14)              \\\n"
       "  X(kNetReady, 16)                \\\n"
       "  X(kMid, 20)                     \\\n"
       "  X(kHigh, 30)\n"
       "#endif\n",
       {}},
      // lock-order, same-TU: a direct rank inversion under an active guard
      // (line 11) and an inversion against a TARGAD_REQUIRES entry-held
      // rank merged from the in-class declaration (line 14).
      {"serve/lockorder.cc",
       "class Inverted {\n"
       " public:\n"
       "  void Bad();\n"
       "  void BadLocked() TARGAD_REQUIRES(high_);\n"
       " private:\n"
       "  RankedMutex low_{LockRank::kLow};\n"
       "  RankedMutex high_{LockRank::kHigh};\n"
       "};\n"
       "void Inverted::Bad() {\n"
       "  MutexLock a(&high_);\n"
       "  MutexLock b(&low_);\n"
       "}\n"
       "void Inverted::BadLocked() {\n"
       "  MutexLock c(&low_);\n"
       "}\n",
       {{"lock-order", 11}, {"lock-order", 14}}},
      // lock-order, clean: ascending acquisition, a scoped guard that pops
      // before the next acquire, and an unlock() window — re-acquiring kLow
      // at line 15 is legal only because `lock` released it at line 14.
      {"serve/lockorder_ok.cc",
       "class Ordered {\n"
       " public:\n"
       "  void Fine();\n"
       "  void Sweep() TARGAD_REQUIRES(low_);\n"
       " private:\n"
       "  RankedMutex low_{LockRank::kLow};\n"
       "  RankedMutex high_{LockRank::kHigh};\n"
       "};\n"
       "void Ordered::Fine() {\n"
       "  MutexLock lock(&low_);\n"
       "  {\n"
       "    MutexLock b(&high_);\n"
       "  }\n"
       "  lock.unlock();\n"
       "  MutexLock c(&low_);\n"
       "}\n"
       "void Ordered::Sweep() {\n"
       "  MutexLock d(&high_);\n"
       "}\n",
       {}},
      // lock-order, cross-TU: callees in xtu_b.cc acquire ranks; callers in
      // xtu_a.cc hold kMid at the call. The free-function chain (line 4)
      // propagates a body acquire; the method call (line 5) propagates a
      // TARGAD_ACQUIRE annotation through receiver-type resolution. The
      // ascending call at line 9 stays clean.
      {"net/xtu_b.cc",
       "RankedMutex g_xtu_low{LockRank::kLow};\n"
       "RankedMutex g_xtu_high{LockRank::kHigh};\n"
       "void XtuAcquireLow() {\n"
       "  MutexLock lock(&g_xtu_low);\n"
       "}\n"
       "void XtuAcquireHigh() {\n"
       "  MutexLock lock(&g_xtu_high);\n"
       "}\n"
       "class XtuReady {\n"
       " public:\n"
       "  void Publish() TARGAD_ACQUIRE(ready_mu_);\n"
       " private:\n"
       "  RankedMutex ready_mu_{LockRank::kNetReady};\n"
       "};\n"
       "void XtuReady::Publish() {}\n",
       {}},
      {"net/xtu_a.cc",
       "RankedMutex g_xtu_mid{LockRank::kMid};\n"
       "void StageUnderMid(XtuReady* rs) {\n"
       "  MutexLock lock(&g_xtu_mid);\n"
       "  XtuAcquireLow();\n"
       "  rs->Publish();\n"
       "}\n"
       "void StageClean() {\n"
       "  MutexLock lock(&g_xtu_mid);\n"
       "  XtuAcquireHigh();\n"
       "}\n",
       {{"lock-order", 4}, {"lock-order", 5}}},
      // Transitive purity, cross-TU: the hot entry is clean itself but
      // reaches an allocating helper DEFINED IN ANOTHER FILE; the finding
      // lands in the helper's file.
      {"nn/kernels/chain_a.cc",
       "int DeepScratch(int n);\n"
       "TARGAD_HOT_PATH int HotEntry(int n) { return DeepScratch(n); }\n",
       {}},
      {"nn/kernels/chain_b.cc",
       "int DeepScratch(int n) {\n"
       "  int* p = new int[n];\n"
       "  return p[0];\n"
       "}\n",
       {{"hot-path-alloc", 2}}},
      // A static's one-time initializer is scanned too: the hot entry
      // reaches DispatchTable(), whose static is built by an allocating
      // helper (the shape of nn/kernels' State() and MakeState()).
      {"nn/kernels/static_init.cc",
       "int* BuildDispatchTable(int n) { return new int[n]; }\n"
       "int* DispatchTable() {\n"
       "  static int* table = BuildDispatchTable(8);\n"
       "  return table;\n"
       "}\n"
       "TARGAD_HOT_PATH int HotViaStatic(int i) { return DispatchTable()[i]; }\n",
       {{"hot-path-alloc", 1}}},
      // Poll-thread reachability: the TARGAD_POLL_THREAD root's own poll()
      // is the event wait (exempt, line 6) and kNetSession is an allowed
      // rank (line 7); but the reachable helper takes kMid (line 13) and
      // blocks (line 14), and `backlog` grows without a per-iteration reset
      // (line 9). The allow() hatch still applies (line 15).
      {"net/pollroot.cc",
       "RankedMutex g_sess_mu{LockRank::kNetSession};\n"
       "RankedMutex g_reg_mu{LockRank::kMid};\n"
       "TARGAD_POLL_THREAD void EventLoop(int nfds) {\n"
       "  std::vector<int> backlog;\n"
       "  for (;;) {\n"
       "    poll(nullptr, 0, nfds);\n"
       "    MutexLock lock(&g_sess_mu);\n"
       "    PumpOne(nfds);\n"
       "    backlog.push_back(nfds);\n"
       "  }\n"
       "}\n"
       "void PumpOne(int fd) {\n"
       "  MutexLock lock(&g_reg_mu);\n"
       "  usleep(fd);\n"
       "  nanosleep(0, 0);  // targad-lint: allow(poll-thread-block)\n"
       "}\n",
       {{"poll-thread-alloc-loop", 9},
        {"poll-thread-lock", 13},
        {"poll-thread-block", 14}}},
      // ...and the clean shape: kNetReady guard, batch buffer reset every
      // iteration before it grows.
      {"net/pollroot_ok.cc",
       "RankedMutex g_ready_mu{LockRank::kNetReady};\n"
       "TARGAD_POLL_THREAD void DrainLoop(int nfds) {\n"
       "  std::vector<int> batch;\n"
       "  for (;;) {\n"
       "    poll(nullptr, 0, nfds);\n"
       "    MutexLock lock(&g_ready_mu);\n"
       "    batch.clear();\n"
       "    batch.push_back(nfds);\n"
       "  }\n"
       "}\n",
       {}},
      // IWYU-lite regression: the included header's only symbol is consumed
      // via a macro invocation SPLICED across physical lines. Universal
      // phase-2 splicing makes it one identifier token, so the include is
      // used — the v4 lexer spliced only inside directives and flagged it.
      {"common/splice_macro.h",
       "#ifndef TARGAD_COMMON_SPLICE_MACRO_H_\n"
       "#define TARGAD_COMMON_SPLICE_MACRO_H_\n"
       "#define SPLICE_DCHECK(x) ((void)(x))\n"
       "#endif\n",
       {}},
      {"serve/splice_user.cc",
       "#include \"common/splice_macro.h\"\n"
       "void SpliceUser(int v) {\n"
       "  SPLICE_\\\n"
       "DCHECK(v);\n"
       "}\n",
       {}},
  };
}

}  // namespace

int RunSelfTest() {
  int failures = RunLexerSelfTest();

  const fs::path dir =
      fs::temp_directory_path() /
      ("targad_lint_selftest_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "sub");
  fs::create_directories(dir / "nn" / "kernels");
  fs::create_directories(dir / "common");
  fs::create_directories(dir / "serve");
  fs::create_directories(dir / "net");

  const std::vector<SelfCase> cases = Cases();
  for (const SelfCase& c : cases) {
    std::ofstream out(dir / c.file, std::ios::binary);
    out << c.contents;
  }

  const std::vector<Finding> findings = RunLint(dir, {dir.string()});

  std::set<std::pair<std::string, std::string>> got;  // (file:line, rule)
  for (const Finding& f : findings) {
    got.insert({f.file + ":" + std::to_string(f.line), f.rule});
  }
  std::set<std::pair<std::string, std::string>> expected;
  for (const SelfCase& c : cases) {
    for (const auto& [rule, line] : c.expect) {
      expected.insert({c.file + ":" + std::to_string(line), rule});
    }
  }
  for (const auto& e : expected) {
    if (got.count(e) == 0) {
      std::fprintf(stderr, "SELF-TEST FAIL: expected %s at %s, not reported\n",
                   e.second.c_str(), e.first.c_str());
      ++failures;
    }
  }
  for (const auto& g : got) {
    if (expected.count(g) == 0) {
      std::fprintf(stderr, "SELF-TEST FAIL: unexpected %s at %s\n",
                   g.second.c_str(), g.first.c_str());
      ++failures;
    }
  }
  fs::remove_all(dir);
  if (failures == 0) {
    std::fprintf(stderr,
                 "targad_lint self-test PASSED (%zu seeded findings, "
                 "suppression and immunity verified)\n",
                 expected.size());
    return 0;
  }
  return 1;
}

}  // namespace lint
}  // namespace targad
