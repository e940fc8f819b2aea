#include "tools/lint/graph.h"

#include <climits>
#include <deque>
#include <set>

#include "tools/lint/layering.h"
#include "tools/lint/purity.h"

namespace targad {
namespace lint {
namespace {

std::string QualName(const FnSym& fn) {
  return fn.cls.empty() ? fn.name + "()" : fn.cls + "::" + fn.name + "()";
}

// Resolves a mutex name in the context of `cls`: a member of that class
// first, then a file-scope/global mutex. Returns the rank-table entry name,
// or "" when unknown.
std::string MutexRankName(const ProgramModel& pm, const std::string& cls,
                          const std::string& mutex) {
  auto it = pm.mutex_ranks.find({cls, mutex});
  if (it == pm.mutex_ranks.end()) it = pm.mutex_ranks.find({"", mutex});
  return it == pm.mutex_ranks.end() ? "" : it->second;
}

int RankValue(const ProgramModel& pm, const std::string& rank_name) {
  auto it = pm.rank_table.find(rank_name);
  return it == pm.rank_table.end() ? -1 : it->second;
}

// Ranks held on entry to `fi` per its TARGAD_REQUIRES annotations (merged
// declaration + definition sites). Unresolvable mutexes are skipped.
std::vector<std::pair<std::string, int>> EntryHeld(const ProgramModel& pm,
                                                   size_t fi) {
  std::vector<std::pair<std::string, int>> held;
  const FnSym& fn = pm.fn(fi);
  for (const std::string& m : fn.requires_mutexes) {
    const std::string name = MutexRankName(pm, fn.cls, m);
    const int rank = RankValue(pm, name);
    if (rank >= 0) held.push_back({name, rank});
  }
  return held;
}

// Resolves one call site to callee indices. The chain is deliberately
// conservative: no unique target, no edge.
std::vector<size_t> ResolveCall(const ProgramModel& pm, size_t fi,
                                const CallSite& cs) {
  const FnSym& fn = pm.fn(fi);
  auto methods = [&pm](const std::string& cls,
                       const std::string& name) -> std::vector<size_t> {
    auto it = pm.by_cls_name.find({cls, name});
    return it == pm.by_cls_name.end() ? std::vector<size_t>{} : it->second;
  };

  // The type of a name the caller can see: `this`, a local variable, or a
  // member of the caller's class; "" when unknown.
  auto type_of = [&pm, &fn](const std::string& name) -> std::string {
    if (name == "this") return fn.cls;
    if (name.empty()) return "";
    auto lt = fn.local_types.find(name);
    if (lt != fn.local_types.end()) return lt->second;
    auto mt = pm.member_types.find({fn.cls, name});
    return mt == pm.member_types.end() ? "" : mt->second;
  };

  if (cs.via_member) {
    std::string cls;
    if (cs.outer.empty()) {
      cls = type_of(cs.receiver);
    } else {
      // outer.receiver->name(): the receiver is a member of outer's type.
      const std::string outer_cls = type_of(cs.outer);
      auto mt = pm.member_types.find({outer_cls, cs.receiver});
      if (!outer_cls.empty() && mt != pm.member_types.end()) cls = mt->second;
    }
    if (cls.empty()) return {};
    return methods(cls, cs.name);
  }

  if (cs.via_scope && !cs.receiver.empty()) {
    if (cs.receiver == "std") return {};
    std::vector<size_t> m = methods(cs.receiver, cs.name);
    if (!m.empty()) return m;
    // Namespace-qualified free call: fall through to free resolution.
  }

  if (!cs.via_member) {
    if (!fn.cls.empty()) {
      std::vector<size_t> m = methods(fn.cls, cs.name);
      if (!m.empty()) return m;
    }
    // Same-file free function beats a global search.
    const FileSymbols& fs = pm.files[pm.fns[fi].file];
    std::vector<size_t> same_file;
    for (size_t t = 0; t < pm.fns.size(); ++t) {
      if (pm.fns[t].file != pm.fns[fi].file) continue;
      const FnSym& cand = pm.fn(t);
      if (cand.cls.empty() && cand.name == cs.name && t != fi) {
        same_file.push_back(t);
      }
    }
    (void)fs;
    if (!same_file.empty()) return same_file;
    // Globally unique free function; ambiguous names get no edge.
    std::vector<size_t> frees = methods("", cs.name);
    std::vector<size_t> others;
    for (size_t t : frees) {
      if (t != fi) others.push_back(t);
    }
    if (others.size() == 1) return others;
  }
  return {};
}

// Breadth-first reachability from `root` over the call graph, recording the
// parent of each first visit. Returns visit order (root first).
std::vector<size_t> Reach(const ProgramModel& pm, size_t root,
                          std::map<size_t, size_t>* parent) {
  std::vector<size_t> order;
  std::set<size_t> seen{root};
  std::deque<size_t> queue{root};
  while (!queue.empty()) {
    const size_t fi = queue.front();
    queue.pop_front();
    order.push_back(fi);
    for (const std::vector<size_t>& targets : pm.edges[fi]) {
      for (size_t t : targets) {
        if (seen.insert(t).second) {
          (*parent)[t] = fi;
          queue.push_back(t);
        }
      }
    }
  }
  return order;
}

}  // namespace

ProgramModel BuildProgramModel(std::vector<FileSymbols> files) {
  ProgramModel pm;
  pm.files = std::move(files);

  for (size_t f = 0; f < pm.files.size(); ++f) {
    const FileSymbols& fs = pm.files[f];
    for (const auto& [name, value] : fs.rank_table) {
      pm.rank_table.emplace(name, value);
    }
    for (const auto& kv : fs.mutex_ranks) pm.mutex_ranks.insert(kv);
    for (const auto& kv : fs.member_types) pm.member_types.insert(kv);
    for (const auto& kv : fs.decl_requires) pm.decl_requires.insert(kv);
    for (const auto& kv : fs.decl_acquires) pm.decl_acquires.insert(kv);
    for (size_t i = 0; i < fs.fns.size(); ++i) {
      pm.by_cls_name[{fs.fns[i].cls, fs.fns[i].name}].push_back(
          pm.fns.size());
      pm.fns.push_back(FnRef{f, i});
    }
  }

  // Fold declaration-site REQUIRES into definitions (the header declares,
  // the .cc defines), and resolve every acquisition to its table rank.
  for (const FnRef& ref : pm.fns) {
    FnSym& fn = pm.files[ref.file].fns[ref.fn];
    auto dr = pm.decl_requires.find({fn.cls, fn.name});
    if (dr != pm.decl_requires.end()) {
      for (const std::string& m : dr->second) {
        bool have = false;
        for (const std::string& own : fn.requires_mutexes) {
          if (own == m) have = true;
        }
        if (!have) fn.requires_mutexes.push_back(m);
      }
    }
    for (LockAcquire& acq : fn.acquires) {
      acq.rank_name = MutexRankName(pm, fn.cls, acq.mutex);
      acq.rank = RankValue(pm, acq.rank_name);
    }
  }

  pm.edges.resize(pm.fns.size());
  for (size_t fi = 0; fi < pm.fns.size(); ++fi) {
    const FnSym& fn = pm.fn(fi);
    pm.edges[fi].reserve(fn.calls.size());
    for (const CallSite& cs : fn.calls) {
      pm.edges[fi].push_back(ResolveCall(pm, fi, cs));
    }
  }
  return pm;
}

std::vector<Finding> CheckLockOrder(const ProgramModel& pm) {
  std::vector<Finding> out;

  // Minimum rank each function can acquire, directly or transitively, with
  // a witness for the message. TARGAD_ACQUIRE-annotated methods count as
  // acquiring their declared mutexes.
  struct MinAcq {
    int rank = INT_MAX;
    std::string desc;  // "kX (rank N; file:line)" of the witness acquire.
    std::string via;   // First callee on the path, "" when direct.
  };
  std::vector<MinAcq> min_acq(pm.fns.size());
  for (size_t fi = 0; fi < pm.fns.size(); ++fi) {
    const FnSym& fn = pm.fn(fi);
    const FileSymbols& fs = pm.file_of(fi);
    for (const LockAcquire& acq : fn.acquires) {
      if (acq.rank >= 0 && acq.rank < min_acq[fi].rank) {
        min_acq[fi] = {acq.rank,
                       acq.rank_name + " (rank " + std::to_string(acq.rank) +
                           "; " + fs.rel + ":" + std::to_string(acq.line) +
                           ")",
                       ""};
      }
    }
    auto da = pm.decl_acquires.find({fn.cls, fn.name});
    if (da != pm.decl_acquires.end()) {
      for (const std::string& m : da->second) {
        const std::string name = MutexRankName(pm, fn.cls, m);
        const int rank = RankValue(pm, name);
        if (rank >= 0 && rank < min_acq[fi].rank) {
          min_acq[fi] = {rank,
                         name + " (rank " + std::to_string(rank) +
                             "; TARGAD_ACQUIRE on " + QualName(fn) + ")",
                         ""};
        }
      }
    }
  }
  // Fixpoint: propagate the minimum acquirable rank backwards along edges.
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t fi = 0; fi < pm.fns.size(); ++fi) {
      for (const std::vector<size_t>& targets : pm.edges[fi]) {
        for (size_t t : targets) {
          if (min_acq[t].rank < min_acq[fi].rank) {
            min_acq[fi] = {min_acq[t].rank, min_acq[t].desc,
                           QualName(pm.fn(t))};
            changed = true;
          }
        }
      }
    }
  }

  std::set<std::string> reported;
  auto report = [&](const std::string& rel, int line,
                    const std::string& message) {
    if (reported.insert(rel + ":" + std::to_string(line) + ":" + message)
            .second) {
      out.push_back({rel, line, "lock-order", message});
    }
  };

  for (size_t fi = 0; fi < pm.fns.size(); ++fi) {
    const FnSym& fn = pm.fn(fi);
    const FileSymbols& fs = pm.file_of(fi);
    if (!IsSrcModule(fs.module)) continue;  // Tests seed inversions.
    const std::vector<std::pair<std::string, int>> entry = EntryHeld(pm, fi);

    // Direct acquisitions: every rank already held must be strictly lower.
    for (const LockAcquire& acq : fn.acquires) {
      if (acq.rank < 0) continue;
      std::vector<std::pair<std::string, int>> held = entry;
      for (size_t h : acq.held_before) {
        const LockAcquire& prev = fn.acquires[h];
        if (prev.rank >= 0) held.push_back({prev.rank_name, prev.rank});
      }
      for (const auto& [hname, hrank] : held) {
        if (hrank >= acq.rank) {
          report(fs.rel, acq.line,
                 QualName(fn) + " acquires " + acq.rank_name + " (rank " +
                     std::to_string(acq.rank) + ") while holding " + hname +
                     " (rank " + std::to_string(hrank) +
                     "); lock ranks must strictly ascend "
                     "(common/lock_rank.h)");
        }
      }
    }

    // Call sites: nothing reachable from the callee may acquire a rank <=
    // one held at the call.
    for (size_t ci = 0; ci < fn.calls.size(); ++ci) {
      const CallSite& cs = fn.calls[ci];
      std::vector<std::pair<std::string, int>> held = entry;
      for (size_t h : cs.held) {
        const LockAcquire& prev = fn.acquires[h];
        if (prev.rank >= 0) held.push_back({prev.rank_name, prev.rank});
      }
      if (held.empty()) continue;
      for (size_t t : pm.edges[fi][ci]) {
        if (min_acq[t].rank == INT_MAX) continue;
        for (const auto& [hname, hrank] : held) {
          if (min_acq[t].rank <= hrank) {
            const std::string via =
                min_acq[t].via.empty() ? "" : " via " + min_acq[t].via;
            report(fs.rel, cs.line,
                   QualName(fn) + " calls " + QualName(pm.fn(t)) +
                       " while holding " + hname + " (rank " +
                       std::to_string(hrank) + "), which can acquire " +
                       min_acq[t].desc + via +
                       "; lock ranks must strictly ascend "
                       "(common/lock_rank.h)");
          }
        }
      }
    }
  }
  return out;
}

std::vector<Finding> CheckTransitivePurity(const ProgramModel& pm) {
  std::vector<Finding> out;
  std::vector<size_t> roots;
  for (size_t fi = 0; fi < pm.fns.size(); ++fi) {
    if (pm.fn(fi).hot) roots.push_back(fi);
  }

  std::set<size_t> scanned;
  for (size_t root : roots) {
    std::map<size_t, size_t> parent;
    for (size_t fi : Reach(pm, root, &parent)) {
      if (!scanned.insert(fi).second) continue;
      const FnSym& fn = pm.fn(fi);
      const FileSymbols& fs = pm.file_of(fi);
      std::string suffix;
      if (fi == root) {
        suffix = " in TARGAD_HOT_PATH function " + fn.name + "()";
      } else if (parent.count(fi) > 0 && parent.at(fi) == root) {
        suffix = " in " + fn.name + "(), called from TARGAD_HOT_PATH " +
                 pm.fn(root).name + "()";
      } else {
        suffix = " in " + QualName(fn) + ", reachable from TARGAD_HOT_PATH " +
                 QualName(pm.fn(root));
      }
      ScanHotPathBans(fs.rel, *fs.code, fn.body_begin, fn.body_end, suffix,
                      &out);
    }
  }
  return out;
}

std::vector<Finding> CheckPollThreadReachability(const ProgramModel& pm) {
  std::vector<Finding> out;
  std::set<std::string> reported;
  auto report = [&](const std::string& rel, int line, const char* rule,
                    const std::string& message) {
    if (reported.insert(rel + ":" + std::to_string(line) + ":" + rule)
            .second) {
      out.push_back({rel, line, rule, message});
    }
  };

  static const std::set<std::string> kBlocking = {
      "sleep_for", "sleep_until", "usleep",     "nanosleep",
      "poll",      "select",      "epoll_wait", "accept",
      "accept4",   "connect",     "getline",    "fread",
      "fgets",
  };
  static const std::set<std::string> kGrowth = {
      "push_back", "emplace_back", "resize", "reserve",
  };
  static const std::set<std::string> kAllowedRanks = {
      "kNetSession",
      "kNetReady",
  };

  std::vector<size_t> roots;
  for (size_t fi = 0; fi < pm.fns.size(); ++fi) {
    if (pm.fn(fi).poll_root) roots.push_back(fi);
  }

  for (size_t root : roots) {
    const std::string root_desc =
        "the poll thread (TARGAD_POLL_THREAD root " +
        QualName(pm.fn(root)) + ")";
    std::map<size_t, size_t> parent;
    for (size_t fi : Reach(pm, root, &parent)) {
      const FnSym& fn = pm.fn(fi);
      const FileSymbols& fs = pm.file_of(fi);
      if (!IsSrcModule(fs.module)) continue;
      const std::string here =
          fi == root ? ";" : " in " + QualName(fn) + ";";

      // Blocking calls. The root's own poll() is the event wait itself.
      for (const CallSite& cs : fn.calls) {
        if (kBlocking.count(cs.name) == 0) continue;
        if (fi == root && cs.name == "poll") continue;
        report(fs.rel, cs.line, "poll-thread-block",
               cs.name + "() can block" + here + " reachable from " +
                   root_desc);
      }

      // Lock acquisitions outside the declared session/ready ranks.
      for (const LockAcquire& acq : fn.acquires) {
        if (acq.rank_name.empty()) {
          report(fs.rel, acq.line, "poll-thread-lock",
                 "acquires mutex `" + acq.mutex +
                     "` with no resolvable LockRank" + here +
                     " reachable from " + root_desc);
          continue;
        }
        if (kAllowedRanks.count(acq.rank_name) == 0) {
          report(fs.rel, acq.line, "poll-thread-lock",
                 "acquires " + acq.rank_name + " (rank " +
                     std::to_string(acq.rank) + ")" + here +
                     " reachable from " + root_desc +
                     "; only kNetSession/kNetReady may be taken on the "
                     "poll thread");
        }
      }

      // Unbounded growth loops: `push_back` et al. inside `for(;;)` /
      // `while(true)` where the buffer is not visibly reset per iteration.
      const std::vector<Token>& code = *fs.code;
      std::vector<size_t> idx;
      for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
        if (!code[i].pp) idx.push_back(i);
      }
      auto is_unbounded_loop = [&](size_t p, size_t* after) {
        // for ( ; ; )  |  while ( true )  |  while ( 1 )
        if (IsIdent(code[idx[p]], "for") && p + 4 < idx.size() &&
            IsPunct(code[idx[p + 1]], "(") && IsPunct(code[idx[p + 2]], ";") &&
            IsPunct(code[idx[p + 3]], ";") && IsPunct(code[idx[p + 4]], ")")) {
          *after = p + 5;
          return true;
        }
        if (IsIdent(code[idx[p]], "while") && p + 3 < idx.size() &&
            IsPunct(code[idx[p + 1]], "(") &&
            (IsIdent(code[idx[p + 2]], "true") ||
             (code[idx[p + 2]].kind == Tok::kNumber &&
              code[idx[p + 2]].text == "1")) &&
            IsPunct(code[idx[p + 3]], ")")) {
          *after = p + 4;
          return true;
        }
        return false;
      };
      for (size_t p = 0; p < idx.size(); ++p) {
        size_t body = 0;
        if (!is_unbounded_loop(p, &body)) continue;
        // Loop body span [body, close) in idx coordinates.
        size_t close = idx.size();
        if (body < idx.size() && IsPunct(code[idx[body]], "{")) {
          int d = 0;
          for (size_t q = body; q < idx.size(); ++q) {
            if (IsPunct(code[idx[q]], "{")) ++d;
            if (IsPunct(code[idx[q]], "}") && --d == 0) {
              close = q;
              break;
            }
          }
        } else {
          for (size_t q = body; q < idx.size(); ++q) {
            if (IsPunct(code[idx[q]], ";")) {
              close = q;
              break;
            }
          }
        }
        auto reset_in_span = [&](const std::string& recv) {
          for (size_t q = body; q < close; ++q) {
            const Token& u = code[idx[q]];
            if (!IsIdent(u, recv.c_str())) continue;
            // `recv.clear(` / `recv.swap(` / `recv = ...`
            if (q + 2 < close && IsPunct(code[idx[q + 1]], ".") &&
                (IsIdent(code[idx[q + 2]], "clear") ||
                 IsIdent(code[idx[q + 2]], "swap"))) {
              return true;
            }
            if (q + 1 < close && IsPunct(code[idx[q + 1]], "=")) return true;
            // A declaration inside the loop: `Type recv`, `...> recv`,
            // `Type* recv`, `Type& recv`.
            if (q >= 1 && (code[idx[q - 1]].kind == Tok::kIdent ||
                           IsPunct(code[idx[q - 1]], ">") ||
                           IsPunct(code[idx[q - 1]], "*") ||
                           IsPunct(code[idx[q - 1]], "&"))) {
              return true;
            }
          }
          return false;
        };
        for (size_t q = body; q + 1 < close; ++q) {
          const Token& u = code[idx[q]];
          if (u.kind != Tok::kIdent || kGrowth.count(u.text) == 0) continue;
          if (!IsPunct(code[idx[q + 1]], "(")) continue;
          std::string recv;
          if (q >= 2 && (IsPunct(code[idx[q - 1]], ".") ||
                         IsPunct(code[idx[q - 1]], "->")) &&
              code[idx[q - 2]].kind == Tok::kIdent) {
            recv = code[idx[q - 2]].text;
          }
          if (!recv.empty() && reset_in_span(recv)) continue;
          report(fs.rel, u.line, "poll-thread-alloc-loop",
                 (recv.empty() ? std::string("a buffer")
                               : "`" + recv + "`") +
                     " grows via " + u.text +
                     "() inside an unbounded loop" + here +
                     " reachable from " + root_desc +
                     "; reset it each iteration or size it up front");
        }
        p = close;
      }
    }
  }
  return out;
}

}  // namespace lint
}  // namespace targad
