#include "tools/lint/symbols.h"

#include <cstdlib>
#include <set>

namespace targad {
namespace lint {
namespace {

bool IsControlKeyword(const std::string& s) {
  static const std::set<std::string> kControl = {
      "if",     "for",   "while", "switch", "do",
      "else",   "try",   "catch", "return", "co_return",
  };
  return kControl.count(s) > 0;
}

bool IsTypeKeyword(const std::string& s) {
  return s == "class" || s == "struct" || s == "union" || s == "enum";
}

bool IsCallLikeKeyword(const std::string& s) {
  static const std::set<std::string> kNotCalls = {
      "if",         "for",
      "while",      "switch",
      "return",     "sizeof",
      "alignof",    "catch",
      "new",        "delete",
      "static_cast", "reinterpret_cast",
      "const_cast", "dynamic_cast",
      "decltype",   "noexcept",
      "assert",     "defined",
  };
  return kNotCalls.count(s) > 0;
}

bool IsCvOrStorage(const std::string& s) {
  return s == "const" || s == "volatile" || s == "mutable" ||
         s == "static" || s == "constexpr" || s == "inline" ||
         s == "explicit" || s == "virtual";
}

// The same statement/scope classifier purity.cc uses: a '{' is classified
// from the tokens accumulated since the last statement boundary.
enum class ScopeKind { kNamespace, kType, kFunction, kOther };

struct Scope {
  ScopeKind kind;
  size_t fn_index;   // Valid when kind == kFunction.
  std::string name;  // Type name when kind == kType.
};

// Extracts the type name from a class-head statement: the first identifier
// after the class/struct/union/enum keyword that is not an attribute-style
// macro invocation (`TARGAD_CAPABILITY("mutex")`), a cv/storage keyword, or
// the `class` of `enum class`.
std::string TypeNameFromStmt(const std::vector<Token>& code,
                             const std::vector<size_t>& orig,
                             const std::vector<size_t>& stmt) {
  size_t k = 0;
  while (k < stmt.size() && !(code[orig[stmt[k]]].kind == Tok::kIdent &&
                              IsTypeKeyword(code[orig[stmt[k]]].text))) {
    ++k;
  }
  for (++k; k < stmt.size(); ++k) {
    const Token& t = code[orig[stmt[k]]];
    if (IsPunct(t, ":")) return "";  // Anonymous / base clause reached.
    if (t.kind != Tok::kIdent) continue;
    if (t.text == "class" || IsCvOrStorage(t.text)) continue;
    // Macro invocation in attribute position: skip the balanced parens.
    if (k + 1 < stmt.size() && IsPunct(code[orig[stmt[k + 1]]], "(")) {
      int depth = 0;
      for (++k; k < stmt.size(); ++k) {
        if (IsPunct(code[orig[stmt[k]]], "(")) ++depth;
        if (IsPunct(code[orig[stmt[k]]], ")") && --depth == 0) break;
      }
      continue;
    }
    if (t.text == "alignas") continue;
    return t.text;
  }
  return "";
}

// Collects the identifier arguments of every `MACRO(...)` invocation named
// `macro` inside the statement.
std::vector<std::string> MacroArgs(const std::vector<Token>& code,
                                   const std::vector<size_t>& orig,
                                   const std::vector<size_t>& stmt,
                                   const char* macro) {
  std::vector<std::string> args;
  for (size_t k = 0; k + 1 < stmt.size(); ++k) {
    if (!IsIdent(code[orig[stmt[k]]], macro)) continue;
    if (!IsPunct(code[orig[stmt[k + 1]]], "(")) continue;
    int depth = 0;
    for (size_t j = k + 1; j < stmt.size(); ++j) {
      const Token& t = code[orig[stmt[j]]];
      if (IsPunct(t, "(")) ++depth;
      if (IsPunct(t, ")") && --depth == 0) break;
      if (t.kind == Tok::kIdent) args.push_back(t.text);
    }
  }
  return args;
}

// Parses one variable declaration from a token window (a class-member
// statement or a parameter). Returns (name, type); type follows the
// receiver-resolution rules: plain `T v` / `T* v` / `T& v` give T, and
// `std::shared_ptr<T> v` / `std::unique_ptr<T> v` give the pointee T.
// Returns empty name when the window does not look like a declaration.
struct VarDecl {
  std::string name;
  std::string type;
};

VarDecl ParseVarDecl(const std::vector<const Token*>& w) {
  VarDecl out;
  if (w.size() < 2) return out;
  // Name: the last identifier in the window.
  size_t ni = w.size();
  for (size_t k = w.size(); k-- > 0;) {
    if (w[k]->kind == Tok::kIdent && !IsCvOrStorage(w[k]->text)) {
      ni = k;
      break;
    }
  }
  if (ni == w.size() || ni == 0) return out;
  out.name = w[ni]->text;
  // Type: back-walk over cv-qualifiers, `*`, `&`, `&&`; then either a plain
  // identifier or a closing template angle.
  size_t k = ni;
  while (k > 0) {
    const Token& t = *w[k - 1];
    if (IsPunct(t, "*") || IsPunct(t, "&") || IsPunct(t, "&&") ||
        (t.kind == Tok::kIdent && IsCvOrStorage(t.text))) {
      --k;
      continue;
    }
    break;
  }
  if (k == 0) return VarDecl{};
  const Token& prev = *w[k - 1];
  if (prev.kind == Tok::kIdent) {
    out.type = prev.text;
    return out;
  }
  if (IsPunct(prev, ">")) {
    // Balanced back-walk to the matching '<'.
    int angle = 0;
    size_t open = w.size();
    std::string inner_last;
    for (size_t j = k; j-- > 0;) {
      if (IsPunct(*w[j], ">")) ++angle;
      if (IsPunct(*w[j], "<") && --angle == 0) {
        open = j;
        break;
      }
      if (angle == 1 && w[j]->kind == Tok::kIdent && inner_last.empty()) {
        inner_last = w[j]->text;  // Last identifier inside the angles.
      }
    }
    if (open == w.size() || open == 0) return VarDecl{};
    const Token& tmpl = *w[open - 1];
    if (tmpl.kind != Tok::kIdent) return VarDecl{};
    if (tmpl.text == "shared_ptr" || tmpl.text == "unique_ptr") {
      out.type = inner_last;
    } else {
      out.type = tmpl.text;  // Container itself; rarely a call receiver.
    }
    return out;
  }
  return VarDecl{};
}

// Parses the TARGAD_LOCK_RANK_TABLE X-macro definition (if present) out of
// the preprocessor token stream: `#define TARGAD_LOCK_RANK_TABLE(X)
// X(kName, value) ...`.
void ExtractRankTable(const std::vector<Token>& code,
                      std::map<std::string, int>* table) {
  for (size_t i = 0; i + 2 < code.size(); ++i) {
    if (!code[i].pp || !IsIdent(code[i], "define")) continue;
    if (!IsIdent(code[i + 1], "TARGAD_LOCK_RANK_TABLE")) continue;
    size_t j = i + 2;
    if (j < code.size() && IsPunct(code[j], "(")) {
      while (j < code.size() && code[j].pp && !IsPunct(code[j], ")")) ++j;
      ++j;  // Past the parameter list's ')'.
    }
    // Repeated `X(kName, value)` groups until the directive ends.
    while (j + 5 < code.size() && code[j].pp &&
           code[j].kind == Tok::kIdent && IsPunct(code[j + 1], "(") &&
           code[j + 2].kind == Tok::kIdent && IsPunct(code[j + 3], ",") &&
           code[j + 4].kind == Tok::kNumber && IsPunct(code[j + 5], ")")) {
      (*table)[code[j + 2].text] = std::atoi(code[j + 4].text.c_str());
      j += 6;
    }
    return;
  }
}

// Scans one function body: lock acquisitions with guard lifetime tracking
// (brace scopes plus explicit guard.unlock()/guard.lock() windows), call
// sites with receiver spelling and held-guard sets, and simple local
// variable declarations for receiver typing.
void ScanFnBody(const std::vector<Token>& code, FnSym* fn) {
  struct Guard {
    std::string var;
    size_t acquire;  // Index into fn->acquires.
    int depth;       // Brace depth at declaration; popped when left.
    bool active;
  };
  std::vector<Guard> guards;
  int depth = 0;

  auto held_now = [&]() {
    std::vector<size_t> held;
    for (const Guard& g : guards) {
      if (g.active) held.push_back(g.acquire);
    }
    return held;
  };

  // Indices of non-pp tokens in [body_begin, body_end).
  std::vector<size_t> idx;
  for (size_t i = fn->body_begin; i < fn->body_end; ++i) {
    if (!code[i].pp) idx.push_back(i);
  }

  size_t stmt_start = 0;  // Into idx: first token of the current statement.
  for (size_t p = 0; p < idx.size(); ++p) {
    const Token& t = code[idx[p]];
    if (IsPunct(t, "{")) {
      ++depth;
      stmt_start = p + 1;
      continue;
    }
    if (IsPunct(t, "}")) {
      --depth;
      for (Guard& g : guards) {
        if (g.depth > depth) g.active = false;
      }
      while (!guards.empty() && guards.back().depth > depth) {
        guards.pop_back();
      }
      stmt_start = p + 1;
      continue;
    }
    if (IsPunct(t, ";")) {
      // Statement boundary: try a local variable declaration parse over the
      // window (only windows without parens or '=' initializer clutter).
      std::vector<const Token*> w;
      bool plain = true;
      for (size_t q = stmt_start; q < p; ++q) {
        const Token& u = code[idx[q]];
        if (IsPunct(u, "=")) break;  // `T v = init;` — type is before '='.
        if (IsPunct(u, "(") || IsPunct(u, ")") || IsPunct(u, ",") ||
            IsPunct(u, ".") || IsPunct(u, "->")) {
          plain = false;
          break;
        }
        w.push_back(&u);
      }
      if (plain && w.size() >= 2) {
        const VarDecl d = ParseVarDecl(w);
        if (!d.name.empty() && !d.type.empty() && d.type != "auto" &&
            !IsControlKeyword(d.type)) {
          fn->local_types.emplace(d.name, d.type);
        }
      }
      stmt_start = p + 1;
      continue;
    }
    if (t.kind != Tok::kIdent) continue;

    // `MutexLock guard(&mu_);` — a scoped acquisition.
    if (t.text == "MutexLock" && p + 2 < idx.size() &&
        code[idx[p + 1]].kind == Tok::kIdent &&
        IsPunct(code[idx[p + 2]], "(")) {
      const std::string var = code[idx[p + 1]].text;
      std::string mutex;
      int pd = 0;
      size_t q = p + 2;
      for (; q < idx.size(); ++q) {
        const Token& u = code[idx[q]];
        if (IsPunct(u, "(")) ++pd;
        if (IsPunct(u, ")") && --pd == 0) break;
        if (u.kind == Tok::kIdent && u.text != "this") mutex = u.text;
      }
      LockAcquire acq;
      acq.mutex = mutex;
      acq.line = t.line;
      acq.held_before = held_now();
      const size_t acq_index = fn->acquires.size();
      fn->acquires.push_back(std::move(acq));
      guards.push_back(Guard{var, acq_index, depth, true});
      p = q;  // Past the ')': the guard decl is not a call site.
      continue;
    }

    // `guard.unlock()` / `guard.lock()` — an explicit release/reacquire
    // window on a named guard.
    if (p + 3 < idx.size() && IsPunct(code[idx[p + 1]], ".") &&
        code[idx[p + 2]].kind == Tok::kIdent &&
        IsPunct(code[idx[p + 3]], "(")) {
      const std::string& m = code[idx[p + 2]].text;
      if (m == "unlock" || m == "lock") {
        Guard* g = nullptr;
        for (Guard& cand : guards) {
          if (cand.var == t.text) g = &cand;
        }
        if (g != nullptr) {
          g->active = (m == "lock");
          p += 3;
          continue;
        }
      }
    }

    // Generic call site: identifier followed by '('.
    if (p + 1 < idx.size() && IsPunct(code[idx[p + 1]], "(") &&
        !IsCallLikeKeyword(t.text)) {
      CallSite cs;
      cs.name = t.text;
      cs.line = t.line;
      cs.held = held_now();
      if (p >= 2) {
        const Token& sep = code[idx[p - 1]];
        const Token& recv = code[idx[p - 2]];
        if (IsPunct(sep, ".") || IsPunct(sep, "->")) {
          cs.via_member = true;
          if (recv.kind == Tok::kIdent) cs.receiver = recv.text;
          if (recv.kind == Tok::kIdent && p >= 4 &&
              (IsPunct(code[idx[p - 3]], ".") ||
               IsPunct(code[idx[p - 3]], "->")) &&
              code[idx[p - 4]].kind == Tok::kIdent) {
            cs.outer = code[idx[p - 4]].text;
          }
        } else if (IsPunct(sep, "::")) {
          cs.via_scope = true;
          if (recv.kind == Tok::kIdent) cs.receiver = recv.text;
        }
      }
      fn->calls.push_back(std::move(cs));
      continue;
    }
  }
}

}  // namespace

FileSymbols ExtractFileSymbols(const std::string& rel,
                               const std::string& module,
                               const std::vector<Token>& code) {
  FileSymbols fs;
  fs.rel = rel;
  fs.module = module;
  fs.code = &code;
  ExtractRankTable(code, &fs.rank_table);

  // Non-preprocessor view, with indices back into the original stream.
  std::vector<size_t> orig;
  orig.reserve(code.size());
  for (size_t i = 0; i < code.size(); ++i) {
    if (!code[i].pp) orig.push_back(i);
  }

  std::vector<Scope> stack;
  std::vector<size_t> stmt;  // Indices into `orig` since the last boundary.
  int paren = 0;

  auto innermost_type = [&]() -> std::string {
    for (size_t k = stack.size(); k-- > 0;) {
      if (stack[k].kind == ScopeKind::kType) return stack[k].name;
    }
    return "";
  };
  auto in_body = [&]() {
    for (const Scope& s : stack) {
      if (s.kind == ScopeKind::kFunction || s.kind == ScopeKind::kOther) {
        return true;
      }
    }
    return false;
  };
  auto at_type_scope = [&]() {
    return !stack.empty() && stack.back().kind == ScopeKind::kType;
  };

  auto classify = [&](const std::vector<size_t>& s) -> ScopeKind {
    if (!stack.empty() && (stack.back().kind == ScopeKind::kFunction ||
                           stack.back().kind == ScopeKind::kOther)) {
      return ScopeKind::kOther;
    }
    if (s.empty()) return ScopeKind::kOther;
    const Token& first = code[orig[s[0]]];
    if (IsIdent(first, "namespace")) return ScopeKind::kNamespace;
    for (size_t k : s) {
      const Token& t = code[orig[k]];
      if (IsPunct(t, "(")) break;
      if (t.kind == Tok::kIdent && IsTypeKeyword(t.text)) {
        return ScopeKind::kType;
      }
    }
    if (first.kind == Tok::kIdent && IsControlKeyword(first.text)) {
      return ScopeKind::kOther;
    }
    int depth = 0;
    bool has_call_shape = false;
    for (size_t j = 0; j < s.size(); ++j) {
      const Token& t = code[orig[s[j]]];
      if (IsPunct(t, "(")) {
        ++depth;
        if (!has_call_shape && j > 0 &&
            code[orig[s[j - 1]]].kind == Tok::kIdent) {
          has_call_shape = true;
        }
        continue;
      }
      if (IsPunct(t, ")")) {
        --depth;
        continue;
      }
      if (depth == 0 && IsPunct(t, "=")) return ScopeKind::kOther;
    }
    return has_call_shape ? ScopeKind::kFunction : ScopeKind::kOther;
  };

  // Builds the FnSym for a function-classified '{' from its signature
  // statement: name, qualifier class, annotations, and parameter types.
  auto make_fn = [&](const std::vector<size_t>& s, size_t body) -> FnSym {
    FnSym fn;
    fn.line = code[orig[s[0]]].line;
    fn.body_begin = body;
    fn.body_end = code.size();  // Patched when the scope pops.
    size_t name_j = s.size();
    for (size_t j = 0; j + 1 < s.size(); ++j) {
      const Token& t = code[orig[s[j]]];
      if (t.kind == Tok::kIdent && !IsCallLikeKeyword(t.text) &&
          IsPunct(code[orig[s[j + 1]]], "(")) {
        fn.name = t.text;
        name_j = j;
        break;
      }
    }
    // Out-of-line qualifier: `Cls::Name(` or `ClsT<T>::Name(`; the class is
    // the innermost (last) qualifier component. A '~' marks a destructor.
    if (name_j != s.size() && name_j >= 1 &&
        IsPunct(code[orig[s[name_j - 1]]], "~")) {
      fn.name = "~" + fn.name;
      --name_j;
    }
    if (name_j != s.size() && name_j >= 2 &&
        IsPunct(code[orig[s[name_j - 1]]], "::")) {
      size_t q = name_j - 1;  // At the '::'.
      if (q >= 1) {
        const Token& before = code[orig[s[q - 1]]];
        if (before.kind == Tok::kIdent) {
          fn.cls = before.text;
        } else if (IsPunct(before, ">")) {
          int angle = 0;
          for (size_t j = q; j-- > 0;) {
            if (IsPunct(code[orig[s[j]]], ">")) ++angle;
            if (IsPunct(code[orig[s[j]]], "<") && --angle == 0) {
              if (j >= 1 && code[orig[s[j - 1]]].kind == Tok::kIdent) {
                fn.cls = code[orig[s[j - 1]]].text;
              }
              break;
            }
          }
        }
      }
    }
    if (fn.cls.empty()) fn.cls = innermost_type();
    for (size_t j : s) {
      const Token& t = code[orig[j]];
      if (IsIdent(t, "TARGAD_HOT_PATH")) fn.hot = true;
      if (IsIdent(t, "TARGAD_POLL_THREAD")) fn.poll_root = true;
    }
    fn.requires_mutexes = MacroArgs(code, orig, s, "TARGAD_REQUIRES");
    // Parameter types feed receiver resolution: split the first top-level
    // paren group on commas and parse each piece as a declaration.
    if (name_j != s.size()) {
      std::vector<const Token*> piece;
      int depth = 0;
      for (size_t j = name_j + 1; j < s.size(); ++j) {
        const Token& t = code[orig[s[j]]];
        if (IsPunct(t, "(")) {
          if (++depth == 1) continue;
        }
        if ((IsPunct(t, ")") && --depth == 0) ||
            (IsPunct(t, ",") && depth == 1)) {
          const VarDecl d = ParseVarDecl(piece);
          if (!d.name.empty() && !d.type.empty()) {
            fn.local_types.emplace(d.name, d.type);
          }
          piece.clear();
          if (depth == 0) break;
          continue;
        }
        if (depth >= 1) piece.push_back(&t);
      }
    }
    return fn;
  };

  for (size_t i = 0; i < orig.size(); ++i) {
    const Token& t = code[orig[i]];

    // RankedMutex declarations are captured by direct lookahead, outside
    // the statement machine: a brace-initialized member (`RankedMutex
    // mu_{LockRank::kX};`) would otherwise be split by the '{' scope push.
    if (t.kind == Tok::kIdent && t.text == "RankedMutex" && !in_body() &&
        i + 2 < orig.size()) {
      const Token& name_t = code[orig[i + 1]];
      const Token& open = code[orig[i + 2]];
      if (name_t.kind == Tok::kIdent &&
          (IsPunct(open, "{") || IsPunct(open, "("))) {
        std::string rank;
        for (size_t j = i + 3; j < orig.size() && j < i + 10; ++j) {
          const Token& u = code[orig[j]];
          if (IsPunct(u, "}") || IsPunct(u, ")")) break;
          if (u.kind == Tok::kIdent) rank = u.text;
        }
        if (!rank.empty()) {
          fs.mutex_ranks[{innermost_type(), name_t.text}] = rank;
        }
      }
    }

    if (IsPunct(t, "(")) {
      ++paren;
      stmt.push_back(i);
      continue;
    }
    if (IsPunct(t, ")")) {
      --paren;
      stmt.push_back(i);
      continue;
    }
    if (paren > 0) {
      stmt.push_back(i);
      continue;
    }
    if (IsPunct(t, ";")) {
      // Class-scope statements carry member declarations and method
      // declarations with lock annotations.
      if (at_type_scope() && !stmt.empty()) {
        const std::string cls = stack.back().name;
        bool has_paren = false;
        for (size_t j : stmt) {
          if (IsPunct(code[orig[j]], "(")) {
            has_paren = true;
            break;
          }
        }
        if (has_paren) {
          // Method declaration: record TARGAD_REQUIRES / TARGAD_ACQUIRE.
          std::string mname;
          for (size_t j = 0; j + 1 < stmt.size(); ++j) {
            const Token& u = code[orig[stmt[j]]];
            if (u.kind == Tok::kIdent && !IsCallLikeKeyword(u.text) &&
                u.text.rfind("TARGAD_", 0) != 0 &&
                IsPunct(code[orig[stmt[j + 1]]], "(")) {
              mname = u.text;
              break;
            }
          }
          if (!mname.empty()) {
            auto req = MacroArgs(code, orig, stmt, "TARGAD_REQUIRES");
            if (!req.empty()) fs.decl_requires[{cls, mname}] = req;
            auto acq = MacroArgs(code, orig, stmt, "TARGAD_ACQUIRE");
            if (!acq.empty()) fs.decl_acquires[{cls, mname}] = acq;
          }
        } else {
          // Member declaration: record its type for receiver resolution.
          std::vector<const Token*> w;
          for (size_t j : stmt) {
            const Token& u = code[orig[j]];
            if (IsPunct(u, "=")) break;
            if (u.kind == Tok::kIdent && u.text.rfind("TARGAD_", 0) == 0) {
              break;  // Trailing annotation (GUARDED_BY etc.).
            }
            w.push_back(&u);
          }
          const VarDecl d = ParseVarDecl(w);
          if (!d.name.empty() && !d.type.empty()) {
            fs.member_types.emplace(std::make_pair(cls, d.name), d.type);
          }
        }
      }
      stmt.clear();
      continue;
    }
    if (IsPunct(t, "{")) {
      const ScopeKind kind = classify(stmt);
      Scope scope{kind, 0, ""};
      if (kind == ScopeKind::kType) {
        scope.name = TypeNameFromStmt(code, orig, stmt);
      } else if (kind == ScopeKind::kFunction) {
        scope.fn_index = fs.fns.size();
        fs.fns.push_back(make_fn(stmt, orig[i]));
      }
      stack.push_back(std::move(scope));
      stmt.clear();
      continue;
    }
    if (IsPunct(t, "}")) {
      if (!stack.empty()) {
        if (stack.back().kind == ScopeKind::kFunction) {
          fs.fns[stack.back().fn_index].body_end = orig[i] + 1;
        }
        stack.pop_back();
      }
      stmt.clear();
      continue;
    }
    stmt.push_back(i);
  }

  for (FnSym& fn : fs.fns) ScanFnBody(code, &fn);
  return fs;
}

}  // namespace lint
}  // namespace targad
