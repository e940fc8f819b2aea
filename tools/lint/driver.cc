#include "tools/lint/driver.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "tools/lint/graph.h"
#include "tools/lint/layering.h"
#include "tools/lint/symbols.h"

namespace targad {
namespace lint {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Finds `word` in `line` as a whole identifier (no word char on either
// side). Returns npos if absent.
size_t FindWord(const std::string& line, const std::string& word,
                size_t from = 0) {
  size_t pos = line.find(word, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsWordChar(line[end]);
    if (left_ok && right_ok) return pos;
    pos = line.find(word, pos + 1);
  }
  return std::string::npos;
}

// True when `word` at `pos` is followed (after spaces) by an open paren —
// i.e. it is spelled as a call.
bool IsCallAt(const std::string& line, size_t pos, const std::string& word) {
  size_t i = pos + word.size();
  while (i < line.size() && line[i] == ' ') ++i;
  return i < line.size() && line[i] == '(';
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

class Linter {
 public:
  explicit Linter(fs::path root) : root_(std::move(root)) {}

  void CheckFile(const FileData& fd) {
    cur_toks_ = &fd.toks;
    const std::vector<std::string> clean_lines = SplitLines(fd.clean);
    const std::string& rel = fd.rel;
    const bool is_header = fd.path.extension() == ".h";
    // Library-code rules do not apply to the leaf-consumer modules: benches
    // printf their tables, tests hand-roll reference kernels to compare
    // against, and the lint tool itself logs with fprintf.
    const bool library = !IsAuxModule(fd.module);

    if (is_header) CheckIncludeGuard(rel, clean_lines);

    for (size_t i = 0; i < clean_lines.size(); ++i) {
      const std::string& line = clean_lines[i];
      const int ln = static_cast<int>(i) + 1;

      if (is_header && FindWord(line, "using") != std::string::npos) {
        const size_t u = FindWord(line, "using");
        const size_t n = FindWord(line, "namespace", u);
        if (n != std::string::npos &&
            line.find_first_not_of(' ', u + 5) == n) {
          Report(rel, ln, "using-namespace-header",
                 "`using namespace` in a header leaks into every includer");
        }
      }

      if (!library) continue;

      for (const char* fn : {"rand", "srand"}) {
        const size_t pos = FindWord(line, fn);
        if (pos != std::string::npos && IsCallAt(line, pos, fn)) {
          Report(rel, ln, "banned-rand",
                 std::string(fn) +
                     "() is banned; use common/rng.h (seeded, reproducible)");
        }
      }

      for (const char* io : {"printf", "fprintf"}) {
        const size_t pos = FindWord(line, io);
        if (pos != std::string::npos && IsCallAt(line, pos, io)) {
          Report(rel, ln, "banned-io",
                 std::string(io) + "() logging is banned; use TARGAD_LOG");
        }
      }
      for (const char* stream : {"std::cout", "std::cerr"}) {
        if (line.find(stream) != std::string::npos) {
          Report(rel, ln, "banned-io",
                 std::string(stream) + " logging is banned; use TARGAD_LOG");
        }
      }

      if (FindWord(line, "throw") != std::string::npos) {
        Report(rel, ln, "naked-throw",
               "`throw` is banned; fallible APIs return Status/Result");
      }

      CheckRawMutexLock(rel, ln, line);
    }

    if (library) {
      if (is_header) CheckMutexGuardedBy(rel, clean_lines);
      CheckRawDenseLoop(rel, clean_lines);
    }
    cur_toks_ = nullptr;
  }

  // -------------------------------------------------------------------------
  // Tree-wide include passes: layering back-edges, .cc includes, cycles,
  // unused includes.
  // -------------------------------------------------------------------------
  void CheckIncludeTree(const std::vector<FileData>& files) {
    std::map<std::string, const FileData*> by_rel;
    for (const FileData& fd : files) by_rel.emplace(fd.rel, &fd);

    // Resolve an include path to a scanned file: as written first, then
    // relative to the includer's own directory (tests/ includes
    // "test_util.h" with no prefix).
    auto resolve = [&by_rel](const FileData& fd,
                             const std::string& path) -> const FileData* {
      auto it = by_rel.find(path);
      if (it != by_rel.end()) return it->second;
      const size_t slash = fd.rel.rfind('/');
      if (slash != std::string::npos) {
        it = by_rel.find(fd.rel.substr(0, slash + 1) + path);
        if (it != by_rel.end()) return it->second;
      }
      return nullptr;
    };

    // Lazily computed IWYU-lite ingredients.
    std::map<const FileData*, std::set<std::string>> header_symbols;
    std::map<const FileData*, std::set<std::string>> used_idents;
    auto symbols_of = [&](const FileData* h) -> const std::set<std::string>& {
      auto it = header_symbols.find(h);
      if (it == header_symbols.end()) {
        it = header_symbols.emplace(h, CollectHeaderSymbols(h->toks.code()))
                 .first;
      }
      return it->second;
    };
    auto used_of = [&](const FileData* f) -> const std::set<std::string>& {
      auto it = used_idents.find(f);
      if (it == used_idents.end()) {
        it = used_idents.emplace(f, CollectUsedIdentifiers(f->toks.code()))
                 .first;
      }
      return it->second;
    };

    for (const FileData& fd : files) {
      cur_toks_ = &fd.toks;
      const int my_layer = ModuleLayer(fd.module);
      for (const IncludeDirective& inc : fd.includes) {
        if (inc.system) continue;

        if (EndsWith(inc.path, ".cc") || EndsWith(inc.path, ".cpp")) {
          Report(fd.rel, inc.line, "include-cc",
                 "#include of an implementation file (" + inc.path +
                     ") — move shared code into a header");
        }

        const FileData* target = resolve(fd, inc.path);
        const std::string target_module =
            target != nullptr ? target->module : ModuleOf(inc.path);
        const int target_layer = ModuleLayer(target_module);
        if (my_layer >= 0 && target_layer >= 0 && target_layer > my_layer) {
          Report(fd.rel, inc.line, "include-layering",
                 fd.module + " (layer " + std::to_string(my_layer) +
                     ") must not include " + target_module + " (layer " +
                     std::to_string(target_layer) +
                     ") — the declared order is common -> nn -> data -> "
                     "cluster -> eval -> core -> baselines -> serve -> net "
                     "-> aux (tools/lint/layering.cc)");
        }

        // IWYU-lite: a project header none of whose public symbols appear
        // in this TU is dead weight. Generous symbol model ⇒ a report
        // means the include really is unused. src-only: aux TUs include
        // umbrella-style on purpose.
        if (IsSrcModule(fd.module) && !inc.exempt && target != nullptr &&
            target->path.extension() == ".h") {
          const bool own_header =
              fd.rel.size() > 3 && EndsWith(fd.rel, ".cc") &&
              fd.rel.compare(0, fd.rel.size() - 3, target->rel, 0,
                             target->rel.size() - 2) == 0;
          const std::set<std::string>& symbols = symbols_of(target);
          if (!own_header && !symbols.empty()) {
            const std::set<std::string>& used = used_of(&fd);
            bool any = false;
            for (const std::string& s : symbols) {
              if (used.count(s) > 0) {
                any = true;
                break;
              }
            }
            if (!any) {
              Report(fd.rel, inc.line, "unused-include",
                     inc.path +
                         " is included but none of its symbols are used "
                         "here; drop it (or mark `// IWYU pragma: keep`)");
            }
          }
        }
      }
      cur_toks_ = nullptr;
    }

    CheckIncludeCycles(files, by_rel);
  }

  const std::vector<Finding>& findings() const { return findings_; }

  std::string Relative(const fs::path& path) const {
    std::error_code ec;
    const fs::path rel = fs::relative(path, root_, ec);
    std::string s =
        (ec || rel.empty()) ? path.generic_string() : rel.generic_string();
    // Sibling trees of --root (tools/, tests/, bench/, examples/) come out
    // as "../tools/...": strip to the repo-relative form, which is also the
    // include-guard convention those trees use (TARGAD_TESTS_..._H_).
    while (s.rfind("../", 0) == 0) s = s.substr(3);
    return s;
  }

 private:
  static std::string ExpectedGuard(const std::string& rel) {
    std::string macro = "TARGAD_";
    for (const char c : rel) {
      macro += IsWordChar(c)
                   ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                   : '_';
    }
    return macro + "_";  // common/status.h -> TARGAD_COMMON_STATUS_H_
  }

  void CheckIncludeGuard(const std::string& rel,
                         const std::vector<std::string>& clean_lines) {
    const std::string expected = ExpectedGuard(rel);
    int ifndef_line = 0;
    std::string got;
    for (size_t i = 0; i < clean_lines.size(); ++i) {
      std::istringstream in(clean_lines[i]);
      std::string tok, macro;
      in >> tok;
      if (tok.empty() || tok[0] != '#') continue;
      if (tok != "#ifndef") break;  // Some other directive came first.
      in >> macro;
      ifndef_line = static_cast<int>(i) + 1;
      got = macro;
      // The next preprocessor token must be the matching #define.
      for (size_t j = i + 1; j < clean_lines.size(); ++j) {
        std::istringstream in2(clean_lines[j]);
        std::string tok2, macro2;
        in2 >> tok2;
        if (tok2.empty() || tok2[0] != '#') continue;
        if (tok2 != "#define") got.clear();
        in2 >> macro2;
        if (macro2 != got) got.clear();
        break;
      }
      break;
    }
    if (got != expected) {
      Report(rel, std::max(ifndef_line, 1), "include-guard",
             "expected include guard " + expected +
                 (got.empty() ? " (missing or #define mismatch)"
                              : ", found " + got));
    }
  }

  // True when `name` reads as a mutex: `mu`, a `mu_`/`_mu` prefix/suffix
  // convention, or "mutex" anywhere (case-insensitive).
  static bool LooksLikeMutexName(const std::string& name) {
    if (name == "mu" || name == "mu_") return true;
    if (EndsWith(name, "mu_") || EndsWith(name, "_mu")) return true;
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
      return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    });
    return lower.find("mutex") != std::string::npos;
  }

  // raw-mutex-lock: .lock()/.unlock()/.try_lock() spelled directly on a
  // mutex-named receiver. RAII guards (MutexLock) are the only blessed way
  // to lock — they are what Clang's thread-safety analysis can follow, and
  // what the rank checker instruments. Calls on non-mutex receivers (e.g. a
  // MutexLock named `lock`) are fine.
  void CheckRawMutexLock(const std::string& rel, int ln,
                         const std::string& line) {
    for (const char* method : {"lock", "unlock", "try_lock"}) {
      size_t pos = FindWord(line, method);
      while (pos != std::string::npos) {
        if (IsCallAt(line, pos, method)) {
          size_t recv_end = std::string::npos;
          if (pos >= 1 && line[pos - 1] == '.') {
            recv_end = pos - 1;
          } else if (pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>') {
            recv_end = pos - 2;
          }
          if (recv_end != std::string::npos) {
            size_t recv_begin = recv_end;
            while (recv_begin > 0 && IsWordChar(line[recv_begin - 1])) {
              --recv_begin;
            }
            const std::string recv =
                line.substr(recv_begin, recv_end - recv_begin);
            if (!recv.empty() && LooksLikeMutexName(recv)) {
              Report(rel, ln, "raw-mutex-lock",
                     recv + "." + std::string(method) +
                         "() bypasses RAII locking; hold mutexes via "
                         "MutexLock (common/lock_rank.h)");
            }
          }
        }
        pos = FindWord(line, method, pos + 1);
      }
    }
  }

  // mutex-guarded-by: inside a class body, every member field declared
  // BELOW a mutex member must carry TARGAD_GUARDED_BY. The project
  // convention is: mutex first, its guarded fields directly below it;
  // unguarded fields (ctor-immutable configuration, externally serialized
  // state) go ABOVE the mutex. Exempt: condition variables (waiting is not
  // guarded state), atomics (their own synchronization), other mutexes,
  // and static/constexpr/const/using/typedef/friend declarations.
  void CheckMutexGuardedBy(const std::string& rel,
                           const std::vector<std::string>& clean_lines) {
    bool in_mutex_scope = false;
    for (size_t i = 0; i < clean_lines.size(); ++i) {
      const std::string& line = clean_lines[i];
      const size_t first = line.find_first_not_of(" \t");
      if (first == std::string::npos) continue;
      if (line.compare(first, 2, "};") == 0) {
        in_mutex_scope = false;  // End of the (possibly nested) class body.
        continue;
      }
      const size_t last = line.find_last_not_of(" \t");
      const bool is_mutex_decl =
          (FindWord(line, "RankedMutex") != std::string::npos ||
           line.find("std::mutex") != std::string::npos) &&
          line.find('*') == std::string::npos &&
          line.find('&') == std::string::npos &&
          line.find('(') == std::string::npos &&
          last != std::string::npos && line[last] == ';';
      if (is_mutex_decl) {
        in_mutex_scope = true;
        continue;
      }
      if (!in_mutex_scope) continue;
      if (line.find("TARGAD_GUARDED_BY") != std::string::npos ||
          line.find("TARGAD_PT_GUARDED_BY") != std::string::npos ||
          line.find("condition_variable") != std::string::npos ||
          line.find("std::atomic") != std::string::npos ||
          FindWord(line, "static") != std::string::npos ||
          FindWord(line, "constexpr") != std::string::npos ||
          FindWord(line, "using") != std::string::npos ||
          FindWord(line, "typedef") != std::string::npos ||
          FindWord(line, "friend") != std::string::npos ||
          line.compare(first, 6, "const ") == 0) {
        continue;
      }
      const std::string field = FieldNameIfDecl(line);
      if (!field.empty()) {
        Report(rel, static_cast<int>(i) + 1, "mutex-guarded-by",
               "member `" + field +
                   "` is declared below a mutex but lacks "
                   "TARGAD_GUARDED_BY; unguarded fields go above the mutex");
      }
    }
  }

  // Returns the member field a line declares — an identifier ending in `_`
  // whose next non-space character is `;`, `=`, or `{` — or "" when the
  // line does not read as a field declaration. Method declarations never
  // match: method names do not end in `_`, and a trailing annotation
  // argument like EXCLUDES(mu_) leaves `mu_` followed by `)`.
  static std::string FieldNameIfDecl(const std::string& line) {
    for (size_t i = 0; i < line.size();) {
      if (!IsWordChar(line[i])) {
        ++i;
        continue;
      }
      size_t end = i;
      while (end < line.size() && IsWordChar(line[end])) ++end;
      if (line[end - 1] == '_') {
        size_t k = end;
        while (k < line.size() && line[k] == ' ') ++k;
        if (k < line.size() &&
            (line[k] == ';' || line[k] == '=' || line[k] == '{')) {
          return line.substr(i, end - i);
        }
      }
      i = end;
    }
    return std::string();
  }

  // raw-dense-loop: flags multiply-accumulate lines over subscripted
  // operands inside >= 2 nested `for` loops — the signature of a matmul /
  // distance computation written by hand instead of through nn/kernels.
  //
  // The nesting tracker is character-level: it follows brace depth and a
  // stack of for-scopes, handling both braced bodies (popped when their
  // closing brace arrives) and braceless bodies (popped at the next `;` at
  // parenthesis depth zero — a chain of braceless `for`s collapses at one
  // statement). A line fires when, at any point on it, the for-stack is at
  // least two deep AND it contains `+=` whose right-hand side multiplies
  // (`*`) AND it references two or more subscripted operands (`x[...]` or
  // `At(...)`). Single-subscript accumulations over a hoisted scalar
  // (`var[j] += r * diff * diff`) stay legal: one indexed operand is a
  // weighted reduction, not a dense kernel.
  void CheckRawDenseLoop(const std::string& rel,
                         const std::vector<std::string>& clean_lines) {
    if (rel.find("nn/kernels/") != std::string::npos) return;
    struct ForScope {
      bool braced = false;
      int body_brace_depth = 0;
    };
    std::vector<ForScope> stack;
    int brace_depth = 0;
    int paren_depth = 0;
    int header_depth = -1;  // Paren depth inside a pending for-header, or -1.
    bool awaiting_body = false;
    for (size_t i = 0; i < clean_lines.size(); ++i) {
      const std::string& line = clean_lines[i];
      size_t max_for_depth = stack.size();
      for (size_t p = 0; p < line.size(); ++p) {
        const char c = line[p];
        if (awaiting_body && c != ' ' && c != '\t') {
          awaiting_body = false;
          if (c == '{') {
            stack.back().braced = true;
            stack.back().body_brace_depth = ++brace_depth;
            continue;
          }
          // Braceless body: the scope pops at the statement-ending `;`.
        }
        if (IsWordChar(c)) {
          size_t e = p;
          while (e < line.size() && IsWordChar(line[e])) ++e;
          if (e - p == 3 && line.compare(p, 3, "for") == 0 &&
              header_depth == -1) {
            const size_t q = line.find_first_not_of(' ', e);
            if (q != std::string::npos && line[q] == '(') {
              header_depth = paren_depth + 1;  // Depth once '(' is consumed.
            }
          }
          p = e - 1;
          continue;
        }
        if (c == '(') {
          ++paren_depth;
          continue;
        }
        if (c == ')') {
          --paren_depth;
          if (header_depth != -1 && paren_depth < header_depth) {
            header_depth = -1;
            awaiting_body = true;
            stack.push_back(ForScope{});
            max_for_depth = std::max(max_for_depth, stack.size());
          }
          continue;
        }
        if (c == '{') {
          ++brace_depth;
          continue;
        }
        if (c == '}') {
          --brace_depth;
          while (!stack.empty() && stack.back().braced &&
                 stack.back().body_brace_depth > brace_depth) {
            stack.pop_back();
            // A braceless parent's body was that braced statement.
            while (!stack.empty() && !stack.back().braced) stack.pop_back();
          }
          continue;
        }
        if (c == ';' && paren_depth == 0 && header_depth == -1) {
          while (!stack.empty() && !stack.back().braced) stack.pop_back();
          continue;
        }
      }
      if (max_for_depth < 2) continue;
      const size_t plus_eq = line.find("+=");
      if (plus_eq == std::string::npos) continue;
      // A `*` at subscript/argument depth is index arithmetic
      // (`a[i * n + j]`), not a value multiply; only a top-level `*` on the
      // right-hand side makes this a multiply-accumulate.
      bool multiplies = false;
      int rhs_depth = 0;
      for (size_t p = plus_eq + 2; p < line.size(); ++p) {
        if (line[p] == '[' || line[p] == '(') ++rhs_depth;
        if (line[p] == ']' || line[p] == ')') --rhs_depth;
        if (line[p] == '*' && rhs_depth == 0) {
          multiplies = true;
          break;
        }
      }
      if (!multiplies) continue;
      size_t subscripts = 0;
      for (size_t p = 1; p < line.size(); ++p) {
        if (line[p] == '[' &&
            (IsWordChar(line[p - 1]) || line[p - 1] == ']' ||
             line[p - 1] == ')')) {
          ++subscripts;
        }
      }
      size_t at_pos = FindWord(line, "At");
      while (at_pos != std::string::npos) {
        if (IsCallAt(line, at_pos, "At")) ++subscripts;
        at_pos = FindWord(line, "At", at_pos + 1);
      }
      if (subscripts < 2) continue;
      Report(rel, static_cast<int>(i) + 1, "raw-dense-loop",
             "multiply-accumulate over subscripted operands inside nested "
             "loops — use the nn/kernels primitives (Gemm, "
             "FusedAffineActivation, SquaredDistances, Axpy)");
    }
  }

  // Depth-first search for include cycles among the scanned files. A
  // back-edge to a file on the current stack is reported once, at the
  // include that closes the cycle, with the full chain in the message.
  void CheckIncludeCycles(const std::vector<FileData>& files,
                          const std::map<std::string, const FileData*>& by_rel) {
    enum class Color { kWhite, kGray, kBlack };
    std::map<const FileData*, Color> color;
    std::vector<const FileData*> chain;

    auto resolve = [&by_rel](const FileData& fd,
                             const std::string& path) -> const FileData* {
      auto it = by_rel.find(path);
      if (it != by_rel.end()) return it->second;
      const size_t slash = fd.rel.rfind('/');
      if (slash != std::string::npos) {
        it = by_rel.find(fd.rel.substr(0, slash + 1) + path);
        if (it != by_rel.end()) return it->second;
      }
      return nullptr;
    };

    std::function<void(const FileData*)> visit = [&](const FileData* fd) {
      color[fd] = Color::kGray;
      chain.push_back(fd);
      for (const IncludeDirective& inc : fd->includes) {
        if (inc.system) continue;
        const FileData* target = resolve(*fd, inc.path);
        if (target == nullptr) continue;
        const Color c =
            color.count(target) > 0 ? color[target] : Color::kWhite;
        if (c == Color::kGray) {
          std::string cycle;
          bool in_cycle = false;
          for (const FileData* f : chain) {
            if (f == target) in_cycle = true;
            if (in_cycle) cycle += f->rel + " -> ";
          }
          cycle += target->rel;
          cur_toks_ = &fd->toks;
          Report(fd->rel, inc.line, "include-cycle",
                 "include cycle: " + cycle);
          cur_toks_ = nullptr;
        } else if (c == Color::kWhite) {
          visit(target);
        }
      }
      chain.pop_back();
      color[fd] = Color::kBlack;
    };

    for (const FileData& fd : files) {
      if (color.count(&fd) == 0) visit(&fd);
    }
  }

  // Applies the allow() escape hatch, then records the finding.
  void Report(const std::string& rel, int ln, const std::string& rule,
              const std::string& message) {
    if (cur_toks_ != nullptr && IsAllowed(*cur_toks_, ln, rule)) return;
    findings_.push_back({rel, ln, rule, message});
  }

  fs::path root_;
  const TokenFile* cur_toks_ = nullptr;
  std::vector<Finding> findings_;
};

bool IsSourceFile(const fs::path& path) {
  return path.extension() == ".h" || path.extension() == ".cc" ||
         path.extension() == ".cpp";
}

std::vector<fs::path> GatherFiles(const std::vector<std::string>& paths) {
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    if (fs::is_directory(p)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && IsSourceFile(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(p)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "targad_lint: no such path: %s\n", p.c_str());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::vector<Finding> RunLint(const fs::path& root,
                             const std::vector<std::string>& paths) {
  return RunLint(root, paths, LintOptions{});
}

std::vector<Finding> RunLint(const fs::path& root,
                             const std::vector<std::string>& paths,
                             const LintOptions& options) {
  Linter linter(root);
  std::vector<FileData> data;
  for (const fs::path& f : GatherFiles(paths)) {
    FileData fd;
    fd.path = f;
    fd.rel = linter.Relative(f);
    fd.module = ModuleOf(fd.rel);
    const std::string raw = ReadFile(f);
    std::vector<Token> tokens = Lex(raw);
    fd.clean = CleanText(raw, tokens);
    fd.toks = TokenFile(std::move(tokens));
    fd.includes = ExtractIncludes(fd.toks);
    data.push_back(std::move(fd));
  }
  if (options.per_file) {
    for (const FileData& fd : data) linter.CheckFile(fd);
    linter.CheckIncludeTree(data);
  }
  std::vector<Finding> findings = linter.findings();

  if (options.analyze) {
    // Whole-program passes: extract per-file symbols, link the cross-TU
    // model, run the three analyses, then apply the allow() hatch against
    // each finding's OWN file (the passes cross file boundaries, so the
    // current-file token stream the per-file rules use does not apply).
    std::vector<FileSymbols> symbols;
    symbols.reserve(data.size());
    for (const FileData& fd : data) {
      symbols.push_back(ExtractFileSymbols(fd.rel, fd.module, fd.toks.code()));
    }
    const ProgramModel pm = BuildProgramModel(std::move(symbols));
    std::map<std::string, const TokenFile*> toks_by_rel;
    for (const FileData& fd : data) toks_by_rel.emplace(fd.rel, &fd.toks);
    auto add_filtered = [&](const std::vector<Finding>& raw_findings) {
      for (const Finding& f : raw_findings) {
        auto it = toks_by_rel.find(f.file);
        if (it != toks_by_rel.end() && IsAllowed(*it->second, f.line, f.rule)) {
          continue;
        }
        findings.push_back(f);
      }
    };
    add_filtered(CheckLockOrder(pm));
    add_filtered(CheckTransitivePurity(pm));
    add_filtered(CheckPollThreadReachability(pm));
  }
  return findings;
}

}  // namespace lint
}  // namespace targad
