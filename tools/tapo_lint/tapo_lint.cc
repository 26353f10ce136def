// tapo_lint — project-specific static checks the type system alone cannot
// express, as a single self-contained token-level pass (no libclang).
//
// v2 is symbol-aware: before the per-line rules run, a structural pass
// builds a per-class member table (class spans by brace depth, mutex-typed
// members, and the capability names referenced by TAPO_* thread-safety
// annotations anywhere in the class body). Rules that need to know "which
// class am I in" and "what does it guard" consume that table instead of
// squinting at single lines.
//
// Rules (see DESIGN.md "Static analysis & invariants" for rationale):
//
//   relaxed-atomic     memory_order_relaxed outside src/telemetry/. The
//                      telemetry fast path owns the only sanctioned relaxed
//                      atomics; anywhere else it is usually an unintended
//                      consistency bug.
//   raw-rand           rand()/srand()/random() or a default-seeded standard
//                      engine (std::mt19937 g;) outside src/workload/.
//                      Experiments must be reproducible from an explicit
//                      seed (util::Rng).
//   trace-side-effect  Side effects (++ / -- / assignment) inside
//                      TAPO_TRACE(...) arguments. The macro evaluates its
//                      arguments only while tracing is switched on at run
//                      time, so a side effect there makes traced and
//                      untraced runs behave differently.
//   pragma-once        Header files must start their preprocessor life with
//                      #pragma once (the project's include-guard idiom).
//   naked-parse        atoi/strtoul/std::stoul-family calls outside
//                      src/util/. CLI/env numbers must go through the
//                      validated util parse helpers (util::parse_u64,
//                      util::env_positive_size, ...) so malformed input
//                      warns instead of silently truncating to 0.
//   raw-struct-io      fwrite()/fread() calls, or memcpy() with a sizeof
//                      operand (a struct image copied to/from a byte
//                      buffer), outside src/net/ and src/fleet/. Raw struct
//                      images are unversioned, unchecksummed and padding/
//                      endianness-dependent; persistent or wire data must
//                      go through the fleet record codec (versioned +
//                      CRC-framed) or the net/ packet codecs.
//   trace-retain       A PacketTrace pointer/reference stored in a member
//                      variable (trailing-underscore identifier) outside
//                      src/net/. In the streaming pipeline the arena behind
//                      such a pointer can be a sealed chunk or an evicted
//                      flow that is gone by the time the member is used;
//                      long-lived capture state must go through
//                      net::TraceBuilder (which survives arena hand-offs)
//                      or copy into an owned trace. Documented borrow-views
//                      whose lifetime contract is explicit suppress with
//                      tapo-lint: allow(trace-retain).
//   mutex-annotation   A class in src/ (outside src/util/, the annotated
//                      wrapper's home) declares a mutex-typed member that
//                      no TAPO_GUARDED_BY / TAPO_REQUIRES / TAPO_ACQUIRE /
//                      TAPO_EXCLUDES / ... annotation in the class body
//                      references. An unreferenced capability guards
//                      nothing -Wthread-safety can check: the lock exists
//                      but the invariant it protects was never written
//                      down.
//   lock-discipline    Raw std::mutex / std::lock_guard / std::unique_lock
//                      / std::scoped_lock / std::condition_variable outside
//                      util/ paths. Everything else must go through the
//                      annotated util::Mutex / util::MutexLock / util::
//                      CondVar (src/util/mutex.h) so Clang's thread-safety
//                      analysis sees every acquisition.
//   invariant-pure     A non-const reference or pointer to an observed
//                      protocol object (TcpSender, TcpReceiver, Scoreboard,
//                      RtoEstimator, CongestionControl) in the invariant
//                      monitor's files (src/tcp/invariants.*). Invariant
//                      checks are pure observers: a mutable handle would
//                      let a check perturb the very state machine it
//                      audits, and the zero-cost-when-off contract (hooks
//                      are side-effect-free) would silently break.
//   stale-allow        A `tapo-lint: allow(<rule>)` pragma that suppresses
//                      nothing — the named rule does not fire on that line
//                      or the line below — or that names a rule this
//                      linter does not have. Dead suppressions rot: the
//                      next real finding on that line would be silently
//                      swallowed. stale-allow findings are themselves
//                      unsuppressable.
//
// Suppressions: a comment containing `tapo-lint: allow(<rule>)` disables
// that rule on the same line and on the line directly below (so a
// standalone comment can annotate the statement it precedes). Every
// suppression should say why.
//
// Modes:
//   tapo_lint <file>...            lint files; findings to stdout; exit 1
//   tapo_lint --recurse <dir>...   lint every *.h/*.cc under the trees
//   tapo_lint --self-test <dir>    fixture mode: every `// expect-lint: r`
//                                  annotation must produce finding r on
//                                  that line, and no unannotated finding
//                                  may appear. Prints a one-line per-rule
//                                  coverage summary and fails if any
//                                  registered rule has no bad fixture
//                                  exercising it; exit 1 on any mismatch.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// One scanned file: per-line code with comments, string and char literals
/// blanked out (so token rules never fire inside them), plus the raw lines
/// (for suppression / fixture annotations).
struct FileText {
  std::string path;
  std::vector<std::string> raw;
  std::vector<std::string> code;
};

FileText strip_comments(const std::string& path, const std::string& text) {
  FileText out;
  out.path = path;
  std::string raw_line, code_line;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State st = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      out.raw.push_back(raw_line);
      out.code.push_back(code_line);
      raw_line.clear();
      code_line.clear();
      if (st == State::kLineComment) st = State::kCode;
      continue;
    }
    raw_line += c;
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLineComment;
          code_line += ' ';
        } else if (c == '/' && next == '*') {
          st = State::kBlockComment;
          code_line += ' ';
        } else if (c == '"') {
          st = State::kString;
          code_line += ' ';
        } else if (c == '\'') {
          st = State::kChar;
          code_line += ' ';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        code_line += ' ';
        break;
      case State::kBlockComment:
        code_line += ' ';
        if (c == '*' && next == '/') {
          st = State::kCode;
          ++i;
          raw_line += '/';
          code_line += ' ';
        }
        break;
      case State::kString:
        code_line += ' ';
        if (c == '\\') {
          ++i;
          if (i < text.size() && text[i] != '\n') {
            raw_line += text[i];
            code_line += ' ';
          }
        } else if (c == '"') {
          st = State::kCode;
        }
        break;
      case State::kChar:
        code_line += ' ';
        if (c == '\\') {
          ++i;
          if (i < text.size() && text[i] != '\n') {
            raw_line += text[i];
            code_line += ' ';
          }
        } else if (c == '\'') {
          st = State::kCode;
        }
        break;
    }
  }
  if (!raw_line.empty() || !code_line.empty()) {
    out.raw.push_back(raw_line);
    out.code.push_back(code_line);
  }
  return out;
}

std::string normalized(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool path_contains(const std::string& path, const std::string& piece) {
  return normalized(path).find(piece) != std::string::npos;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --------------------------------------------------- class/member table

bool word_at(const std::string& line, std::size_t pos,
             const std::string& word) {
  if (line.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && is_ident_char(line[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  if (end < line.size() && is_ident_char(line[end])) return false;
  return true;
}

/// One class/struct definition found by the structural pass.
struct ClassInfo {
  std::string name;
  int body_depth = 0;  // brace depth inside the class body
  /// Mutex-typed members: {identifier, 0-based declaration line}.
  std::vector<std::pair<std::string, std::size_t>> mutex_members;
  /// Every identifier referenced inside a TAPO_* thread-safety annotation
  /// argument list anywhere in the class body (mu_, other.mu_, ...).
  std::set<std::string> annotation_refs;
};

/// One file as every rule sees it: its text plus the symbol tables built
/// once per file.
struct FileAnalysis {
  FileText text;
  std::vector<ClassInfo> classes;
};

/// Records a mutex-typed member declared on `line` (a line whose start sits
/// at the class's body depth): optional `mutable`, a mutex type, one
/// identifier, and a terminating ';'. Pointer/reference members are skipped
/// — a borrowed mutex is annotated where it lives.
void scan_mutex_member(const std::string& line, std::size_t n,
                       ClassInfo& cls) {
  std::size_t i = line.find_first_not_of(' ');
  if (i == std::string::npos) return;
  if (word_at(line, i, "mutable")) {
    i += std::string("mutable").size();
    while (i < line.size() && line[i] == ' ') ++i;
  }
  static const std::vector<std::string> kTypes = {
      "std::mutex",        "std::timed_mutex", "std::recursive_mutex",
      "std::shared_mutex", "util::Mutex",      "Mutex"};
  for (const auto& type : kTypes) {
    if (line.compare(i, type.size(), type) != 0) continue;
    std::size_t j = i + type.size();
    if (j >= line.size() || line[j] != ' ') continue;  // Mutex& / MutexLock
    while (j < line.size() && line[j] == ' ') ++j;
    const std::size_t id_start = j;
    while (j < line.size() && is_ident_char(line[j])) ++j;
    if (j == id_start) continue;
    if (line.find(';', j) == std::string::npos) continue;  // not a decl
    cls.mutex_members.push_back({line.substr(id_start, j - id_start), n});
    return;
  }
}

/// Adds every identifier inside a TAPO_*(...) annotation argument list on
/// `line` to the class's reference set.
void collect_annotation_refs(const std::string& line, ClassInfo& cls) {
  static const std::vector<std::string> kMacros = {
      "TAPO_GUARDED_BY",  "TAPO_PT_GUARDED_BY",     "TAPO_REQUIRES",
      "TAPO_ACQUIRE",     "TAPO_RELEASE",           "TAPO_EXCLUDES",
      "TAPO_TRY_ACQUIRE", "TAPO_ASSERT_CAPABILITY", "TAPO_RETURN_CAPABILITY"};
  for (const auto& mac : kMacros) {
    for (std::size_t pos = line.find(mac); pos != std::string::npos;
         pos = line.find(mac, pos + 1)) {
      if (!word_at(line, pos, mac)) continue;
      std::size_t i = pos + mac.size();
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size() || line[i] != '(') continue;
      int depth = 0;
      for (; i < line.size(); ++i) {
        if (line[i] == '(') {
          ++depth;
        } else if (line[i] == ')') {
          if (--depth == 0) break;
        } else if (is_ident_char(line[i])) {
          const std::size_t s = i;
          while (i + 1 < line.size() && is_ident_char(line[i + 1])) ++i;
          cls.annotation_refs.insert(line.substr(s, i - s + 1));
        }
      }
    }
  }
}

/// Structural pass: tracks brace depth line by line and collects every
/// class/struct definition with its mutex members and annotation
/// references. Token-level like everything else here — template parameter
/// lists (`template <class T>`) and enum classes are recognized and
/// skipped; pathological constructs a real frontend would need are out of
/// scope for this codebase's style.
std::vector<ClassInfo> build_class_table(const FileText& f) {
  std::vector<ClassInfo> done;
  std::vector<ClassInfo> stack;
  int depth = 0;
  bool pending = false;      // saw a class/struct head, awaiting '{' or ';'
  bool name_locked = false;  // past ':' — identifiers now name bases
  std::string pending_name;
  int pending_parens = 0;  // attribute-macro args in the head
  std::string prev_tok;
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& line = f.code[n];
    if (!stack.empty()) {
      // Members sit at the innermost class's body depth; annotations can
      // sit anywhere in its span (inline method bodies included).
      if (depth == stack.back().body_depth) {
        scan_mutex_member(line, n, stack.back());
      }
      collect_annotation_refs(line, stack.back());
    }
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (is_ident_char(c)) {
        const std::size_t s = i;
        while (i < line.size() && is_ident_char(line[i])) ++i;
        const std::string tok = line.substr(s, i - s);
        if ((tok == "class" || tok == "struct") && prev_tok != "enum") {
          pending = true;
          name_locked = false;
          pending_name.clear();
          pending_parens = 0;
        } else if (pending && !name_locked && pending_parens == 0 &&
                   tok != "final" && tok != "alignas") {
          pending_name = tok;  // last head identifier wins (skips macros)
        }
        prev_tok = tok;
        continue;
      }
      if (pending) {
        if (c == '(') {
          ++pending_parens;
        } else if (c == ')') {
          if (pending_parens > 0) --pending_parens;
        } else if (pending_parens == 0) {
          const char prev = i > 0 ? line[i - 1] : '\0';
          const char next = i + 1 < line.size() ? line[i + 1] : '\0';
          if (c == ';') {
            pending = false;  // forward declaration
          } else if (c == ':' && prev != ':' && next != ':') {
            name_locked = true;  // base clause begins
          } else if ((c == '<' || c == '>' || c == '=') && !name_locked) {
            pending = false;  // `template <class T>` / alias, not a head
          } else if (c == '{') {
            ++depth;
            ClassInfo ci;
            ci.name = pending_name.empty() ? "<anonymous>" : pending_name;
            ci.body_depth = depth;
            stack.push_back(std::move(ci));
            pending = false;
            ++i;
            continue;
          }
        }
      }
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        if (!stack.empty() && depth < stack.back().body_depth) {
          done.push_back(std::move(stack.back()));
          stack.pop_back();
        }
      }
      ++i;
    }
  }
  // Unterminated classes (truncated file): keep what was collected.
  for (auto& ci : stack) done.push_back(std::move(ci));
  return done;
}

void rule_relaxed_atomic(const FileAnalysis& a, std::vector<Finding>& out) {
  const FileText& f = a.text;
  if (path_contains(f.path, "src/telemetry/")) return;
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    if (f.code[n].find("memory_order_relaxed") != std::string::npos) {
      out.push_back({f.path, n + 1, "relaxed-atomic",
                     "memory_order_relaxed outside src/telemetry/; justify "
                     "with a tapo-lint: allow(relaxed-atomic) comment or use "
                     "a stronger ordering"});
    }
  }
}

bool word_then_paren(const std::string& line, const std::string& word) {
  for (std::size_t pos = line.find(word); pos != std::string::npos;
       pos = line.find(word, pos + 1)) {
    if (!word_at(line, pos, word)) continue;
    std::size_t i = pos + word.size();
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '(') return true;
  }
  return false;
}

void rule_raw_rand(const FileAnalysis& a, std::vector<Finding>& out) {
  const FileText& f = a.text;
  if (path_contains(f.path, "src/workload/")) return;
  static const std::vector<std::string> kCalls = {"rand", "srand", "random",
                                                  "drand48"};
  static const std::vector<std::string> kEngines = {
      "mt19937", "mt19937_64", "minstd_rand", "default_random_engine"};
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& line = f.code[n];
    for (const auto& call : kCalls) {
      if (word_then_paren(line, call)) {
        out.push_back({f.path, n + 1, "raw-rand",
                       call + "() is unseeded/global; use util::Rng with an "
                              "explicit seed"});
        break;
      }
    }
    for (const auto& eng : kEngines) {
      for (std::size_t pos = line.find(eng); pos != std::string::npos;
           pos = line.find(eng, pos + 1)) {
        if (!word_at(line, pos, eng)) continue;
        // `std::mt19937 g;` (no seed argument) is a fixed-sequence RNG.
        std::size_t i = pos + eng.size();
        while (i < line.size() && line[i] == ' ') ++i;
        const std::size_t id_start = i;
        while (i < line.size() && is_ident_char(line[i])) ++i;
        if (i == id_start) continue;
        while (i < line.size() && line[i] == ' ') ++i;
        if (i < line.size() && line[i] == ';') {
          out.push_back({f.path, n + 1, "raw-rand",
                         "default-constructed " + eng +
                             " has a fixed seed; pass an explicit seed "
                             "(util::Rng) so runs are reproducible on "
                             "purpose"});
        }
      }
    }
  }
}

void rule_trace_side_effect(const FileAnalysis& a, std::vector<Finding>& out) {
  // TAPO_TRACE argument lists are evaluated only while tracing is switched
  // on at run time. Find each invocation, collect the balanced argument
  // text (possibly spanning lines), and flag mutations inside it. The
  // macro definition itself (src/telemetry/) is exempt.
  const FileText& f = a.text;
  if (path_contains(f.path, "src/telemetry/")) return;
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& line = f.code[n];
    // Any TAPO_TRACE* variant counts; all of them gate their arguments.
    const std::size_t pos = line.find("TAPO_TRACE");
    if (pos == std::string::npos) continue;
    if (pos > 0 && is_ident_char(line[pos - 1])) continue;
    // Collect text until the invocation's parentheses balance out.
    std::string args;
    int depth = 0;
    bool started = false;
    for (std::size_t m = n; m < f.code.size() && (!started || depth > 0);
         ++m) {
      const std::string& l = f.code[m];
      for (std::size_t i = m == n ? pos : 0; i < l.size(); ++i) {
        if (l[i] == '(') {
          ++depth;
          started = true;
        } else if (l[i] == ')') {
          --depth;
          if (started && depth == 0) break;
        } else if (started && depth > 0) {
          args += l[i];
        }
      }
    }
    bool mutation = false;
    for (std::size_t i = 0; i < args.size() && !mutation; ++i) {
      const char c = args[i];
      const char prev = i > 0 ? args[i - 1] : '\0';
      const char next = i + 1 < args.size() ? args[i + 1] : '\0';
      if ((c == '+' && next == '+') || (c == '-' && next == '-')) {
        mutation = true;
      }
      // '=' that is not part of ==, !=, <=, >= is an assignment (compound
      // assignments like += keep their '=' and are caught here too).
      if (c == '=' && next != '=' && prev != '=' && prev != '!' &&
          prev != '<' && prev != '>') {
        mutation = true;
      }
    }
    if (mutation) {
      out.push_back({f.path, n + 1, "trace-side-effect",
                     "side effect inside TAPO_TRACE arguments; they run "
                     "only while tracing is on, so traced and untraced runs "
                     "would behave differently"});
    }
  }
}

void rule_pragma_once(const FileAnalysis& a, std::vector<Finding>& out) {
  const FileText& f = a.text;
  if (!ends_with(normalized(f.path), ".h")) return;
  for (const std::string& line : f.code) {
    const std::size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    if (line[first] != '#') {
      break;  // real code before any directive: no guard at all
    }
    if (line.find("#pragma") != std::string::npos &&
        line.find("once") != std::string::npos) {
      return;  // guarded
    }
    break;  // the first directive is something else (#include, #ifndef...)
  }
  out.push_back({f.path, 1, "pragma-once",
                 "header does not start with #pragma once (the project's "
                 "include-guard idiom)"});
}

void rule_naked_parse(const FileAnalysis& a, std::vector<Finding>& out) {
  const FileText& f = a.text;
  if (path_contains(f.path, "src/util/")) return;
  static const std::vector<std::string> kParsers = {
      "atoi", "atol", "atoll", "strtol", "strtoul", "strtoull",
      "stoi", "stol", "stoll", "stoul", "stoull"};
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    for (const auto& p : kParsers) {
      if (word_then_paren(f.code[n], p)) {
        out.push_back({f.path, n + 1, "naked-parse",
                       p + "() accepts malformed input silently; use the "
                           "validated util parse helpers (util::parse_u64, "
                           "util::env_positive_size, ...)"});
        break;
      }
    }
  }
}

void rule_raw_struct_io(const FileAnalysis& a, std::vector<Finding>& out) {
  // src/net/ (the packet wire codecs) and src/fleet/ (the versioned,
  // CRC-framed record serializer) are the sanctioned homes of binary
  // struct I/O; anywhere else a raw struct image on disk or in a buffer is
  // an unversioned format waiting to corrupt silently.
  const FileText& f = a.text;
  if (path_contains(f.path, "src/net/") ||
      path_contains(f.path, "src/fleet/")) {
    return;
  }
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& line = f.code[n];
    bool hit = false;
    for (const char* call : {"fwrite", "fread"}) {
      if (word_then_paren(line, call)) {
        out.push_back({f.path, n + 1, "raw-struct-io",
                       std::string(call) +
                           "() of a raw struct image is unversioned and "
                           "unchecksummed; serialize through the fleet "
                           "record codec (src/fleet/record.h) instead"});
        hit = true;
        break;
      }
    }
    if (!hit && word_then_paren(line, "memcpy") &&
        line.find("sizeof") != std::string::npos) {
      out.push_back({f.path, n + 1, "raw-struct-io",
                     "memcpy() of sizeof(...) bytes copies a struct image "
                     "with padding and native endianness; encode fields "
                     "explicitly (src/fleet/record.h, src/net/) instead"});
    }
  }
}

void rule_trace_retain(const FileAnalysis& a, std::vector<Finding>& out) {
  // src/net/ is the trace/chunk layer itself: TraceBuilder's attachment
  // pointer and ChunkedTrace's internals are the sanctioned retention
  // points whose lifetimes the layer manages. Anywhere else, a member
  // (trailing-underscore identifier) holding `PacketTrace*` or
  // `PacketTrace&` can dangle once streaming seals/evicts the arena it
  // points into. src/ only: tests and benches pin traces on the stack.
  const FileText& f = a.text;
  if (!path_contains(f.path, "src/") || path_contains(f.path, "src/net/")) {
    return;
  }
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& line = f.code[n];
    for (std::size_t pos = line.find("PacketTrace"); pos != std::string::npos;
         pos = line.find("PacketTrace", pos + 1)) {
      if (!word_at(line, pos, "PacketTrace")) continue;
      std::size_t i = pos + std::string("PacketTrace").size();
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size() || (line[i] != '*' && line[i] != '&')) continue;
      while (i < line.size() && (line[i] == '*' || line[i] == '&' ||
                                 line[i] == ' ')) {
        ++i;
      }
      const std::size_t id_start = i;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      if (i == id_start) continue;
      const std::string id = line.substr(id_start, i - id_start);
      if (id.back() != '_') continue;  // locals/parameters don't outlive
      out.push_back(
          {f.path, n + 1, "trace-retain",
           "member `" + id +
               "` retains a PacketTrace pointer/reference that can outlive "
               "the chunk or flow arena backing it; hold a net::TraceBuilder "
               "or copy into an owned trace, or document the borrow with "
               "tapo-lint: allow(trace-retain)"});
      break;  // one finding per line is enough
    }
  }
}

void rule_invariant_pure(const FileAnalysis& a, std::vector<Finding>& out) {
  // The invariant monitor observes the TCP machinery; it must never be able
  // to mutate it. Inside src/tcp/invariants.* any reference/pointer to an
  // observed protocol type has to be const — a mutable handle would let a
  // "check" perturb the state machine it audits.
  const FileText& f = a.text;
  if (!path_contains(f.path, "src/tcp/invariants")) return;
  static const std::vector<std::string> kObserved = {
      "TcpSender", "TcpReceiver", "Scoreboard", "RtoEstimator",
      "CongestionControl"};
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& line = f.code[n];
    for (const auto& type : kObserved) {
      bool hit = false;
      for (std::size_t pos = line.find(type); pos != std::string::npos;
           pos = line.find(type, pos + 1)) {
        if (!word_at(line, pos, type)) continue;
        // `TypeName&` / `TypeName*` (a handle, not a value or mention)?
        std::size_t i = pos + type.size();
        while (i < line.size() && line[i] == ' ') ++i;
        if (i >= line.size() || (line[i] != '&' && line[i] != '*')) continue;
        // Walk left over namespace qualifiers to the word before the type;
        // `const tcp::TcpSender&` is the sanctioned observer shape.
        std::size_t j = pos;
        while (j > 0 && (is_ident_char(line[j - 1]) || line[j - 1] == ':')) {
          --j;
        }
        while (j > 0 && line[j - 1] == ' ') --j;
        std::size_t word_end = j;
        while (j > 0 && is_ident_char(line[j - 1])) --j;
        if (line.substr(j, word_end - j) == "const") continue;
        out.push_back(
            {f.path, n + 1, "invariant-pure",
             "non-const " + type +
                 (line[i] == '&' ? "&" : "*") +
                 " in the invariant monitor; checks are pure observers — "
                 "take `const " + type + "&` so a check cannot mutate the "
                 "state machine it audits"});
        hit = true;
        break;  // one finding per line per type is enough
      }
      if (hit) break;
    }
  }
}

void rule_mutex_annotation(const FileAnalysis& a, std::vector<Finding>& out) {
  // src/util/ hosts the annotated wrapper itself (util::Mutex's own
  // std::mutex member is the one sanctioned raw lock); everywhere else in
  // src/ a mutex member that no annotation references is a capability the
  // analysis cannot check anything against.
  const FileText& f = a.text;
  if (!path_contains(f.path, "src/") || path_contains(f.path, "util/")) {
    return;
  }
  for (const auto& cls : a.classes) {
    for (const auto& [name, line] : cls.mutex_members) {
      if (cls.annotation_refs.count(name) > 0) continue;
      out.push_back(
          {f.path, line + 1, "mutex-annotation",
           "class " + cls.name + " declares mutex member `" + name +
               "` but no TAPO_GUARDED_BY/TAPO_REQUIRES/TAPO_ACQUIRE/"
               "TAPO_EXCLUDES annotation in the class references it; an "
               "unreferenced capability guards nothing -Wthread-safety can "
               "check (see src/util/thread_annotations.h)"});
    }
  }
}

void rule_lock_discipline(const FileAnalysis& a, std::vector<Finding>& out) {
  // util/ paths (src/util/) are the sanctioned home of the raw
  // primitives: the annotated wrappers must be built out of something.
  const FileText& f = a.text;
  if (path_contains(f.path, "util/")) return;
  static const std::vector<std::string> kPrimitives = {
      "std::mutex",       "std::timed_mutex",
      "std::recursive_mutex", "std::shared_mutex",
      "std::lock_guard",  "std::unique_lock",
      "std::scoped_lock", "std::condition_variable"};
  for (std::size_t n = 0; n < f.code.size(); ++n) {
    const std::string& line = f.code[n];
    for (const auto& prim : kPrimitives) {
      const std::size_t pos = line.find(prim);
      if (pos == std::string::npos) continue;
      if (pos > 0 && is_ident_char(line[pos - 1])) continue;
      out.push_back(
          {f.path, n + 1, "lock-discipline",
           prim + " outside util/; use the annotated util::Mutex/"
                  "util::MutexLock/util::CondVar (src/util/mutex.h) so "
                  "Clang's -Wthread-safety sees the acquisition"});
      break;  // one finding per line is enough
    }
  }
}

// ------------------------------------------------------------ registry

using RuleFn = void (*)(const FileAnalysis&, std::vector<Finding>&);

struct RuleSpec {
  const char* name;
  RuleFn fn;
};

/// Every per-file rule, in execution order. stale-allow is not here: it is
/// a post-pass over the other rules' pre-suppression output (and over the
/// pragma text itself), run last by lint_file().
const std::vector<RuleSpec>& rule_registry() {
  static const std::vector<RuleSpec> kRules = {
      {"relaxed-atomic", rule_relaxed_atomic},
      {"raw-rand", rule_raw_rand},
      {"trace-side-effect", rule_trace_side_effect},
      {"pragma-once", rule_pragma_once},
      {"naked-parse", rule_naked_parse},
      {"raw-struct-io", rule_raw_struct_io},
      {"trace-retain", rule_trace_retain},
      {"invariant-pure", rule_invariant_pure},
      {"mutex-annotation", rule_mutex_annotation},
      {"lock-discipline", rule_lock_discipline},
  };
  return kRules;
}

/// Every rule name a pragma or fixture may legally reference.
std::vector<std::string> all_rule_names() {
  std::vector<std::string> names;
  for (const auto& rule : rule_registry()) names.emplace_back(rule.name);
  names.emplace_back("stale-allow");
  return names;
}

/// Post-pass: audits every `tapo-lint: allow(<rule>)` pragma against the
/// pre-suppression findings in `out`. A pragma naming an unknown rule, or
/// one whose rule fires neither on its own line nor the line below, is a
/// stale-allow finding at the pragma's line. Must run after every rule in
/// the registry; its findings are exempt from suppression (allowing away
/// the suppression auditor would defeat it).
void rule_stale_allow(const FileText& f, std::vector<Finding>& out) {
  static const std::set<std::string> kKnown = [] {
    const auto names = all_rule_names();
    return std::set<std::string>(names.begin(), names.end());
  }();
  const std::size_t pre_existing = out.size();
  const std::string kKey = "tapo-lint: allow(";
  for (std::size_t m = 0; m < f.raw.size(); ++m) {
    const std::string& line = f.raw[m];
    for (std::size_t pos = line.find(kKey); pos != std::string::npos;
         pos = line.find(kKey, pos + 1)) {
      const std::size_t start = pos + kKey.size();
      const std::size_t end = line.find(')', start);
      if (end == std::string::npos) continue;
      const std::string rule = line.substr(start, end - start);
      if (kKnown.count(rule) == 0) {
        out.push_back({f.path, m + 1, "stale-allow",
                       "allow(" + rule +
                           ") names a rule this linter does not have; fix "
                           "the name or delete the pragma"});
        continue;
      }
      bool live = false;
      for (std::size_t k = 0; k < pre_existing && !live; ++k) {
        live = out[k].rule == rule &&
               (out[k].line == m + 1 || out[k].line == m + 2);
      }
      if (!live) {
        out.push_back({f.path, m + 1, "stale-allow",
                       "allow(" + rule +
                           ") suppresses nothing — the rule does not fire "
                           "on this line or the one below; delete the "
                           "pragma so suppressions cannot rot"});
      }
    }
  }
}

/// Rules suppressed on line `n` (0-based) via `tapo-lint: allow(<rule>)` on
/// the same line or the line directly above.
std::set<std::string> suppressions_for_line(const FileText& f, std::size_t n) {
  std::set<std::string> rules;
  for (std::size_t m = n == 0 ? 0 : n - 1; m <= n && m < f.raw.size(); ++m) {
    const std::string& line = f.raw[m];
    const std::string kKey = "tapo-lint: allow(";
    for (std::size_t pos = line.find(kKey); pos != std::string::npos;
         pos = line.find(kKey, pos + 1)) {
      const std::size_t start = pos + kKey.size();
      const std::size_t end = line.find(')', start);
      if (end != std::string::npos) {
        rules.insert(line.substr(start, end - start));
      }
    }
  }
  return rules;
}

std::vector<Finding> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, "io-error", "cannot open file"}};
  }
  std::stringstream ss;
  ss << in.rdbuf();
  FileAnalysis a;
  a.text = strip_comments(path, ss.str());
  a.classes = build_class_table(a.text);
  const FileText& f = a.text;

  std::vector<Finding> found;
  for (const auto& rule : rule_registry()) rule.fn(a, found);
  rule_stale_allow(f, found);  // audits the pre-suppression output; last

  std::vector<Finding> kept;
  for (const auto& finding : found) {
    if (finding.rule != "stale-allow" && finding.line > 0) {
      const auto allowed = suppressions_for_line(f, finding.line - 1);
      if (allowed.count(finding.rule) > 0) continue;
    }
    kept.push_back(finding);
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return a.line < b.line;
  });
  return kept;
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

std::vector<std::string> collect_tree(const std::string& root) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && lintable(entry.path())) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int run_lint(const std::vector<std::string>& files) {
  std::size_t count = 0;
  for (const auto& file : files) {
    for (const auto& f : lint_file(file)) {
      std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
      ++count;
    }
  }
  if (count > 0) {
    std::printf("tapo_lint: %zu finding%s\n", count, count == 1 ? "" : "s");
    return 1;
  }
  return 0;
}

/// Fixture mode: `// expect-lint: <rule>` marks the line where a finding
/// must fire. Any missing expected finding or any unexpected finding
/// fails. On top of the per-line matching, every registered rule must be
/// exercised by at least one bad fixture — a rule nothing triggers is a
/// rule whose regressions nothing would catch — and the per-rule counts
/// are printed as a one-line coverage summary.
int run_self_test(const std::string& dir) {
  int failures = 0;
  std::size_t checked = 0;
  std::map<std::string, std::size_t> coverage;
  for (const auto& name : all_rule_names()) coverage[name] = 0;
  for (const auto& file : collect_tree(dir)) {
    std::ifstream in(file, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    const FileText f = strip_comments(file, ss.str());

    std::set<std::pair<std::size_t, std::string>> expected;
    const std::string kKey = "expect-lint:";
    for (std::size_t n = 0; n < f.raw.size(); ++n) {
      std::size_t pos = f.raw[n].find(kKey);
      if (pos == std::string::npos) continue;
      pos += kKey.size();
      while (pos < f.raw[n].size() && f.raw[n][pos] == ' ') ++pos;
      std::size_t end = pos;
      while (end < f.raw[n].size() &&
             (is_ident_char(f.raw[n][end]) || f.raw[n][end] == '-')) {
        ++end;
      }
      expected.insert({n + 1, f.raw[n].substr(pos, end - pos)});
    }

    std::set<std::pair<std::size_t, std::string>> actual;
    for (const auto& finding : lint_file(file)) {
      actual.insert({finding.line, finding.rule});
    }

    for (const auto& [line, rule] : expected) {
      ++checked;
      if (coverage.count(rule) == 0) {
        std::printf(
            "SELF-TEST FAIL %s:%zu: expectation names unknown rule [%s]\n",
            file.c_str(), line, rule.c_str());
        ++failures;
      }
      if (actual.count({line, rule}) == 0) {
        std::printf("SELF-TEST FAIL %s:%zu: expected [%s], not reported\n",
                    file.c_str(), line, rule.c_str());
        ++failures;
      } else if (coverage.count(rule) > 0) {
        ++coverage[rule];  // exercised: expected AND actually fired
      }
    }
    for (const auto& [line, rule] : actual) {
      if (expected.count({line, rule}) == 0) {
        std::printf("SELF-TEST FAIL %s:%zu: unexpected [%s]\n", file.c_str(),
                    line, rule.c_str());
        ++failures;
      }
    }
  }
  std::string summary = "tapo_lint rule coverage:";
  for (const auto& name : all_rule_names()) {
    summary += " " + name + "=" + std::to_string(coverage[name]);
    if (coverage[name] == 0) {
      std::printf(
          "SELF-TEST FAIL rule [%s] has no bad fixture exercising it\n",
          name.c_str());
      ++failures;
    }
  }
  std::printf("%s\n", summary.c_str());
  std::printf("tapo_lint self-test: %zu expectation%s, %d failure%s\n",
              checked, checked == 1 ? "" : "s", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: tapo_lint <file>... | --recurse <dir>... | "
                 "--self-test <dir>\n");
    return 2;
  }
  if (args[0] == "--self-test") {
    if (args.size() != 2) {
      std::fprintf(stderr, "usage: tapo_lint --self-test <fixture-dir>\n");
      return 2;
    }
    return run_self_test(args[1]);
  }
  std::vector<std::string> files;
  if (args[0] == "--recurse") {
    for (std::size_t i = 1; i < args.size(); ++i) {
      const auto tree = collect_tree(args[i]);
      files.insert(files.end(), tree.begin(), tree.end());
    }
  } else {
    files = args;
  }
  return run_lint(files);
}
