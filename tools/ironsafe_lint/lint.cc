#include "tools/ironsafe_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace ironsafe::lint {
namespace {

// ---------------------------------------------------------------------------
// Lexer: strips comments and literals, tokenizes identifiers and single
// punctuation (with "::" and "->" kept whole), and records preprocessor
// directives and `// ironsafe-lint: allow(...)` suppressions separately.
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct Directive {
  enum class Kind { kInclude, kIfndef, kDefine, kPragmaOnce, kOther };
  Kind kind;
  std::string arg;    // include target / macro name
  bool angled = false;  // <...> vs "..." for includes
  int line;
};

struct Lexed {
  std::vector<Token> tokens;
  std::vector<Directive> directives;
  /// Lines on which diagnostics of a given rule are suppressed.
  std::set<std::pair<int, std::string>> suppressed;
  /// Line of the first token or directive, 0 if the file is empty.
  int first_code_line = 0;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses "rule1, rule2" out of a comment containing the marker
/// `ironsafe-lint: allow(...)` and suppresses those rules on `line` and
/// the following line (so a comment on its own line covers the code
/// under it).
void RecordSuppression(std::string_view comment, int line, Lexed* out) {
  static constexpr std::string_view kMarker = "ironsafe-lint: allow(";
  size_t at = comment.find(kMarker);
  if (at == std::string_view::npos) return;
  size_t open = at + kMarker.size();
  size_t close = comment.find(')', open);
  if (close == std::string_view::npos) return;
  std::string_view list = comment.substr(open, close - open);
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    std::string_view rule = list.substr(pos, comma - pos);
    while (!rule.empty() && rule.front() == ' ') rule.remove_prefix(1);
    while (!rule.empty() && rule.back() == ' ') rule.remove_suffix(1);
    if (!rule.empty()) {
      out->suppressed.emplace(line, std::string(rule));
      out->suppressed.emplace(line + 1, std::string(rule));
    }
    pos = comma + 1;
  }
}

/// Consumes a preprocessor directive starting at `i` (just past '#').
size_t LexDirective(std::string_view s, size_t i, int line, Lexed* out) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  size_t word_start = i;
  while (i < s.size() && IsIdentChar(s[i])) ++i;
  std::string_view word = s.substr(word_start, i - word_start);

  Directive d;
  d.line = line;
  d.kind = Directive::Kind::kOther;
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  if (word == "include") {
    d.kind = Directive::Kind::kInclude;
    if (i < s.size() && (s[i] == '"' || s[i] == '<')) {
      char closer = s[i] == '<' ? '>' : '"';
      d.angled = s[i] == '<';
      size_t start = ++i;
      while (i < s.size() && s[i] != closer && s[i] != '\n') ++i;
      d.arg = std::string(s.substr(start, i - start));
      if (i < s.size() && s[i] == closer) ++i;
    }
  } else if (word == "ifndef" || word == "define") {
    d.kind = word == "ifndef" ? Directive::Kind::kIfndef
                              : Directive::Kind::kDefine;
    size_t start = i;
    while (i < s.size() && IsIdentChar(s[i])) ++i;
    d.arg = std::string(s.substr(start, i - start));
  } else if (word == "pragma") {
    size_t start = i;
    while (i < s.size() && IsIdentChar(s[i])) ++i;
    if (s.substr(start, i - start) == "once") d.kind = Directive::Kind::kPragmaOnce;
  }
  out->directives.push_back(std::move(d));
  if (out->first_code_line == 0) out->first_code_line = line;
  // Skip the rest of the directive line, honoring backslash continuations
  // but still peeling off trailing // comments for suppression markers.
  while (i < s.size() && s[i] != '\n') {
    if (s[i] == '\\' && i + 1 < s.size() && s[i + 1] == '\n') {
      i += 2;
      continue;
    }
    if (s[i] == '/' && i + 1 < s.size() && s[i + 1] == '/') break;
    ++i;
  }
  return i;
}

Lexed Lex(std::string_view s) {
  Lexed out;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline
  size_t i = 0;
  while (i < s.size()) {
    char c = s[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
      size_t start = i;
      while (i < s.size() && s[i] != '\n') ++i;
      RecordSuppression(s.substr(start, i - start), line, &out);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
      size_t start = i;
      int start_line = line;
      i += 2;
      while (i + 1 < s.size() && !(s[i] == '*' && s[i + 1] == '/')) {
        if (s[i] == '\n') ++line;
        ++i;
      }
      i = std::min(i + 2, s.size());
      RecordSuppression(s.substr(start, i - start), start_line, &out);
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < s.size() && s[i + 1] == '"') {
      size_t dstart = i + 2;
      size_t paren = s.find('(', dstart);
      if (paren != std::string_view::npos && paren - dstart <= 16) {
        std::string closer = ")" + std::string(s.substr(dstart, paren - dstart)) + "\"";
        size_t end = s.find(closer, paren + 1);
        for (size_t j = i; j < std::min(end, s.size()); ++j)
          if (s[j] == '\n') ++line;
        i = end == std::string_view::npos ? s.size() : end + closer.size();
        at_line_start = false;
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      while (i < s.size() && s[i] != quote && s[i] != '\n') {
        if (s[i] == '\\' && i + 1 < s.size()) ++i;
        ++i;
      }
      if (i < s.size() && s[i] == quote) ++i;
      at_line_start = false;
      continue;
    }
    // Preprocessor directive.
    if (c == '#' && at_line_start) {
      i = LexDirective(s, i + 1, line, &out);
      continue;
    }
    at_line_start = false;
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < s.size() && IsIdentChar(s[i])) ++i;
      out.tokens.push_back(
          {Token::Kind::kIdent, std::string(s.substr(start, i - start)), line});
      if (out.first_code_line == 0) out.first_code_line = line;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (i < s.size() && (IsIdentChar(s[i]) || s[i] == '.')) ++i;
      if (out.first_code_line == 0) out.first_code_line = line;
      continue;  // numbers never matter to any rule
    }
    // Punctuation; keep "::" and "->" whole so scope resolution and
    // member access are single tokens.
    std::string punct(1, c);
    if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
      punct = "::";
      ++i;
    } else if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
      punct = "->";
      ++i;
    }
    out.tokens.push_back({Token::Kind::kPunct, std::move(punct), line});
    if (out.first_code_line == 0) out.first_code_line = line;
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule tables.
// ---------------------------------------------------------------------------

/// Direct dependencies of each src/ module, mirroring the
/// target_link_libraries edges in src/*/CMakeLists.txt. The checker
/// takes the transitive closure, so a module may include anything it
/// links against directly or indirectly.
const std::map<std::string, std::vector<std::string>>& ModuleDeps() {
  static const std::map<std::string, std::vector<std::string>> kDeps = {
      {"common", {}},
      {"crypto", {"common"}},
      {"sim", {"common"}},
      {"obs", {"common", "sim"}},
      {"storage", {"common", "sim"}},
      {"tee", {"common", "crypto", "obs", "sim"}},
      {"securestore", {"common", "crypto", "storage", "tee"}},
      {"sql", {"common", "sim", "obs", "storage", "securestore"}},
      {"tpch", {"common", "sql"}},
      {"net", {"common", "crypto", "obs", "sim", "sql"}},
      {"policy", {"common", "sql"}},
      {"monitor", {"common", "crypto", "obs", "policy", "tee", "sql"}},
      {"engine",
       {"common", "obs", "sql", "net", "monitor", "policy", "tee",
        "securestore"}},
      // The distributed fleet generalizes engine's single-node testbed;
      // it may not include tpch (partition specs flow through
      // sql/partition.h) nor server.
      {"dist", {"common", "obs", "sim", "net", "engine"}},
      // The serving layer sits on top of everything; no lower module may
      // include server (enforced by its absence from their dep lists).
      {"server", {"common", "obs", "net", "engine"}},
  };
  return kDeps;
}

/// Transitive closure of ModuleDeps() plus self, computed once.
const std::map<std::string, std::set<std::string>>& ModuleClosure() {
  static const std::map<std::string, std::set<std::string>> kClosure = [] {
    std::map<std::string, std::set<std::string>> closure;
    for (const auto& [mod, _] : ModuleDeps()) {
      std::set<std::string>& reach = closure[mod];
      std::vector<std::string> stack = {mod};
      while (!stack.empty()) {
        std::string cur = stack.back();
        stack.pop_back();
        if (!reach.insert(cur).second) continue;
        auto it = ModuleDeps().find(cur);
        if (it == ModuleDeps().end()) continue;
        for (const std::string& dep : it->second) stack.push_back(dep);
      }
    }
    return closure;
  }();
  return kClosure;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}
bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// src/<module>/... -> module; anything else (bench, tests, examples,
/// tools) is unrestricted and returns "".
std::string ModuleOf(std::string_view rel_path) {
  if (!StartsWith(rel_path, "src/")) return "";
  std::string_view rest = rel_path.substr(4);
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return "";
  return std::string(rest.substr(0, slash));
}

bool IsHeader(std::string_view rel_path) { return EndsWith(rel_path, ".h"); }

bool IsSecureWorld(std::string_view rel_path) {
  return StartsWith(rel_path, "src/tee/") ||
         StartsWith(rel_path, "src/securestore/");
}

/// Files whose serialized output order is observable: trace/metric
/// exporters, the JSON writer, and the wire format.
bool IsOrderedOutputFile(std::string_view rel_path) {
  if (StartsWith(rel_path, "src/obs/")) return true;
  std::string p(rel_path);
  for (const char* needle : {"wire", "export", "serial", "writer", "trace"})
    if (p.find(needle) != std::string::npos) return true;
  return false;
}

/// Files allowed to read real clocks: the bench wall-clock shim and the
/// thread-pool timing shim. Everything else must use simulated time (or
/// carry an explicit allow() with its justification).
bool IsTimingShim(std::string_view rel_path) {
  return rel_path == "bench/bench_util.h" ||
         rel_path == "src/common/thread_pool.cc";
}

/// True when `toks[i]` followed by '(' reads as a *call* of toks[i].
/// Member access (x.time(), x->printf()) and qualification by anything
/// but std (foo::time()) belong to someone else; an identifier before it
/// (`void printf(`, `long time(`) makes it a declaration, which no rule
/// bans.
bool LooksLikeCall(const std::vector<Token>& toks, size_t i) {
  if (i + 1 >= toks.size() || toks[i + 1].text != "(") return false;
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  if (prev.kind == Token::Kind::kPunct) {
    if (prev.text == "." || prev.text == "->") return false;
    if (prev.text == "::") return i >= 2 && toks[i - 2].text == "std";
    return true;
  }
  static const std::set<std::string> kCallKeywords = {"return", "case", "else",
                                                      "do", "throw"};
  return kCallKeywords.count(prev.text) > 0;
}

struct Checker {
  std::string_view rel_path;
  const Lexed& lx;
  std::vector<Diagnostic>* diags;

  void Emit(const char* rule, int line, std::string message) {
    if (lx.suppressed.count({line, rule})) return;
    diags->push_back({rule, std::string(rel_path), line, std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// Rule: layering.
// ---------------------------------------------------------------------------

void CheckLayering(Checker& c) {
  std::string mod = ModuleOf(c.rel_path);
  if (mod.empty()) return;
  auto closure_it = ModuleClosure().find(mod);
  if (closure_it == ModuleClosure().end()) {
    c.Emit("layering", c.lx.first_code_line == 0 ? 1 : c.lx.first_code_line,
           "src module '" + mod +
               "' is not declared in the layering DAG (tools/ironsafe_lint)");
    return;
  }
  for (const Directive& d : c.lx.directives) {
    if (d.kind != Directive::Kind::kInclude || d.angled) continue;
    size_t slash = d.arg.find('/');
    // Same-directory quoted include ("foo.h") stays inside the module.
    if (slash == std::string::npos) continue;
    std::string target = d.arg.substr(0, slash);
    if (closure_it->second.count(target)) continue;
    if (ModuleClosure().count(target)) {
      c.Emit("layering", d.line,
             "module '" + mod + "' must not include '" + d.arg +
                 "': '" + target + "' is not in its dependency closure");
    } else {
      c.Emit("layering", d.line,
             "module '" + mod + "' includes '" + d.arg +
                 "' from outside the src library DAG");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: enclave-boundary.
// ---------------------------------------------------------------------------

void CheckEnclaveBoundary(Checker& c) {
  if (!IsSecureWorld(c.rel_path)) return;
  for (const Directive& d : c.lx.directives) {
    if (d.kind != Directive::Kind::kInclude) continue;
    bool banned = EndsWith(d.arg, "logging.h") || d.arg == "iostream" ||
                  d.arg == "fstream" || d.arg == "cstdio" ||
                  d.arg == "stdio.h" || d.arg == "ostream" ||
                  d.arg == "iosfwd";
    if (banned) {
      c.Emit("enclave-boundary", d.line,
             "secure-world file includes untrusted I/O header <" + d.arg +
                 ">; enclave code must not perform host I/O");
    }
  }
  static const std::set<std::string> kPrintfFamily = {
      "printf", "fprintf",  "sprintf", "snprintf", "vprintf",
      "vfprintf", "vsnprintf", "puts",  "fputs",   "putchar"};
  const auto& toks = c.lx.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || !kPrintfFamily.count(toks[i].text))
      continue;
    if (!LooksLikeCall(toks, i)) continue;
    c.Emit("enclave-boundary", toks[i].line,
           "secure-world file calls '" + toks[i].text +
               "'; enclave code must not perform host I/O");
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism.
// ---------------------------------------------------------------------------

void CheckDeterminismClocks(Checker& c) {
  if (IsTimingShim(c.rel_path)) return;
  static const std::set<std::string> kBannedIdents = {
      "random_device", "system_clock", "steady_clock",
      "high_resolution_clock", "gettimeofday", "clock_gettime"};
  static const std::set<std::string> kBannedCalls = {"rand", "srand", "time",
                                                     "clock", "localtime",
                                                     "gmtime"};
  const auto& toks = c.lx.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& id = toks[i].text;
    if (kBannedIdents.count(id)) {
      // Member access (x.system_clock) would be a false positive, but
      // scope-qualified std::chrono::system_clock must still fire.
      if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
        continue;
      c.Emit("determinism", toks[i].line,
             "'" + id +
                 "' breaks run-to-run determinism; use sim::CostModel time "
                 "or common/random.h seeded PRNG");
      continue;
    }
    if (kBannedCalls.count(id) && LooksLikeCall(toks, i)) {
      c.Emit("determinism", toks[i].line,
             "'" + id +
                 "(' is nondeterministic; use sim::CostModel time or "
                 "common/random.h seeded PRNG");
    }
  }
}

/// In ordered-output files, find identifiers declared as
/// unordered_map/unordered_set and flag range-fors (and .begin() walks)
/// over them: hash order must never reach serialized output.
void CheckDeterminismUnorderedIteration(Checker& c) {
  if (!IsOrderedOutputFile(c.rel_path)) return;
  const auto& toks = c.lx.tokens;

  // Pass 1: collect declared unordered container variable names.
  std::set<std::string> unordered_vars;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (toks[i].text != "unordered_map" && toks[i].text != "unordered_set")
      continue;
    size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "<") continue;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].text == "<") ++depth;
      if (toks[j].text == ">") {
        if (--depth == 0) break;
      }
    }
    // After the closing '>': optional &/* then the declared name.
    for (++j; j < toks.size() && (toks[j].text == "&" || toks[j].text == "*");
         ++j) {
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent)
      unordered_vars.insert(toks[j].text);
  }
  if (unordered_vars.empty()) return;

  // Pass 2: range-fors whose range expression names a tracked variable.
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
    int depth = 0;
    size_t colon = 0, close = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (toks[j].text == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0) continue;
    // Flag only a bare variable / member chain (`m`, `this->m_`, `obj.m`);
    // a call like `SortedKeys(m)` is how the fix is spelled, so any '('
    // in the range expression exempts it.
    bool plain_chain = true;
    std::string flagged;
    int flagged_line = 0;
    for (size_t j = colon + 1; j < close; ++j) {
      const std::string& t = toks[j].text;
      if (toks[j].kind == Token::Kind::kIdent) {
        if (unordered_vars.count(t)) {
          flagged = t;
          flagged_line = toks[j].line;
        }
        continue;
      }
      if (t != "." && t != "->" && t != "::" && t != "*" && t != "&") {
        plain_chain = false;
        break;
      }
    }
    if (plain_chain && !flagged.empty()) {
      c.Emit("determinism", flagged_line,
             "iteration over unordered container '" + flagged +
                 "' in an ordered-output file serializes hash order; "
                 "iterate sorted keys instead");
    }
  }

  // Pass 3: explicit iterator walks, `v.begin(`.
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent &&
        unordered_vars.count(toks[i].text) &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin") &&
        toks[i + 3].text == "(") {
      c.Emit("determinism", toks[i].line,
             "iteration over unordered container '" + toks[i].text +
                 "' in an ordered-output file serializes hash order; "
                 "iterate sorted keys instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-status.
// ---------------------------------------------------------------------------

/// Modules carrying fault-injection sites (docs/FAULT_INJECTION.md): a
/// discarded Status/Result from a fallible call here silently swallows an
/// injected — or real — fault.
bool IsFaultInjectableModule(std::string_view rel_path) {
  return StartsWith(rel_path, "src/net/") || StartsWith(rel_path, "src/tee/") ||
         StartsWith(rel_path, "src/securestore/");
}

/// Method/function names in the fault-injectable modules that return
/// Status or Result<T>. Void-returning writers (WriteFrame, WriteMetadata,
/// Append) are deliberately absent.
const std::set<std::string>& FallibleCallNames() {
  static const std::set<std::string> kNames = {
      "Send",        "Receive",   "AuthenticatedWrite", "ProgramKey",
      "Provision",   "Write",     "Read",               "ReadPage",
      "WritePage",   "ReadFrame", "CommitRoot",         "VerifyRoot",
      "Initialize",  "EndBatch",  "Persist",            "EnterExit",
      "GetDataKey",  "VerifyLeaf", "Seal",              "Unseal",
      "Open"};
  return kNames;
}

/// Flags statement-position calls (chain of idents joined by ::/./->
/// directly between statement boundaries, immediately followed by an
/// argument list and ';') whose final callee is a known fallible name.
/// `return f();`, assignments, and `(void)f();` casts all break the
/// statement-position pattern and are exempt.
void CheckUncheckedStatus(Checker& c) {
  if (!IsFaultInjectableModule(c.rel_path)) return;
  const auto& toks = c.lx.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (i > 0) {
      const Token& prev = toks[i - 1];
      if (prev.kind != Token::Kind::kPunct ||
          (prev.text != ";" && prev.text != "{" && prev.text != "}"))
        continue;
    }
    if (toks[i].kind != Token::Kind::kIdent) continue;
    size_t j = i;
    std::string callee = toks[j].text;
    while (j + 2 < toks.size() && toks[j + 1].kind == Token::Kind::kPunct &&
           (toks[j + 1].text == "::" || toks[j + 1].text == "." ||
            toks[j + 1].text == "->") &&
           toks[j + 2].kind == Token::Kind::kIdent) {
      j += 2;
      callee = toks[j].text;
    }
    if (j + 1 >= toks.size() || toks[j + 1].text != "(") continue;
    if (!FallibleCallNames().count(callee)) continue;
    int depth = 0;
    size_t k = j + 1;
    for (; k < toks.size(); ++k) {
      if (toks[k].text == "(") {
        ++depth;
      } else if (toks[k].text == ")" && --depth == 0) {
        break;
      }
    }
    if (k + 1 >= toks.size() || toks[k + 1].text != ";") continue;
    c.Emit("unchecked-status", toks[i].line,
           "result of fallible call '" + callee +
               "' is discarded; fault-injectable modules must check every "
               "Status/Result (RETURN_IF_ERROR or explicit handling)");
  }
}

// ---------------------------------------------------------------------------
// Rule: vector-kernel-boxing.
// ---------------------------------------------------------------------------

/// The vectorized engine's innermost kernels (sql/vector_kernels.*) work
/// on raw payload arrays; touching the boxed Value type there would
/// reintroduce per-row allocation on the hottest loops.
bool IsVectorKernelFile(std::string_view rel_path) {
  return rel_path.find("vector_kernels") != std::string_view::npos;
}

void CheckVectorKernelBoxing(Checker& c) {
  if (!IsVectorKernelFile(c.rel_path)) return;
  for (const Token& t : c.lx.tokens) {
    if (t.kind == Token::Kind::kIdent && t.text == "Value") {
      c.Emit("vector-kernel-boxing", t.line,
             "vector kernels must stay unboxed: 'Value' is banned in "
             "vector_kernels files; operate on raw payload arrays and let "
             "vector_eval.cc do any boxing");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: oblivious-branching.
// ---------------------------------------------------------------------------

/// The oblivious mode's innermost kernels (sql/oblivious_kernels.*) must
/// be branch-free: their control flow may depend only on public shapes
/// (element counts, network size, limits), never on decrypted values.
/// Data-dependent decisions have to go through arithmetic selects — a
/// conditional branch would leak the decision through the instruction
/// and data access stream. for/while loops over public bounds are the
/// only allowed control flow.
bool IsObliviousKernelFile(std::string_view rel_path) {
  return rel_path.find("oblivious_kernels") != std::string_view::npos;
}

void CheckObliviousBranching(Checker& c) {
  if (!IsObliviousKernelFile(c.rel_path)) return;
  static const std::set<std::string> kBannedKeywords = {
      "if", "else", "switch", "case", "goto", "break", "continue"};
  for (const Token& t : c.lx.tokens) {
    bool banned =
        (t.kind == Token::Kind::kIdent && kBannedKeywords.count(t.text) > 0) ||
        (t.kind == Token::Kind::kPunct && t.text == "?");
    if (banned) {
      c.Emit("oblivious-branching", t.line,
             "data-dependent branching ('" + t.text +
                 "') is banned in oblivious_kernels files; the access "
                 "sequence must be a pure function of public shapes — use "
                 "arithmetic selects and fixed-trip loops instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: hygiene.
// ---------------------------------------------------------------------------

void CheckHygiene(Checker& c) {
  if (!IsHeader(c.rel_path)) return;
  const auto& dirs = c.lx.directives;
  bool guarded = false;
  for (const Directive& d : dirs) {
    if (d.kind == Directive::Kind::kPragmaOnce) guarded = true;
  }
  if (!guarded && dirs.size() >= 2 &&
      dirs[0].kind == Directive::Kind::kIfndef &&
      dirs[1].kind == Directive::Kind::kDefine && dirs[0].arg == dirs[1].arg &&
      !dirs[0].arg.empty()) {
    // The guard must open the file: no code tokens before the #ifndef.
    guarded = c.lx.tokens.empty() || c.lx.tokens[0].line >= dirs[0].line;
  }
  if (!guarded) {
    c.Emit("hygiene", 1,
           "header lacks an include guard (#ifndef/#define pair or "
           "#pragma once)");
  }

  const auto& toks = c.lx.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text == "using" && toks[i + 1].text == "namespace" &&
        toks[i + 2].text == "std") {
      c.Emit("hygiene", toks[i].line,
             "'using namespace std;' in a header pollutes every includer");
    }
  }
}

// ---------------------------------------------------------------------------
// Tree walk + include-cycle detection.
// ---------------------------------------------------------------------------

bool IsCppFile(const std::filesystem::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

std::string ReadFile(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Resolves a quoted include to a scanned file's root-relative path.
/// Quoted includes resolve against src/ (the include root), the repo
/// root (bench/ headers), and the includer's own directory.
std::string ResolveInclude(const std::set<std::string>& files,
                           const std::string& includer,
                           const std::string& inc) {
  std::string candidates[3];
  candidates[0] = "src/" + inc;
  candidates[1] = inc;
  size_t slash = includer.rfind('/');
  candidates[2] =
      slash == std::string::npos ? inc : includer.substr(0, slash + 1) + inc;
  for (const std::string& cand : candidates)
    if (files.count(cand)) return cand;
  return "";
}

void CheckIncludeCycles(
    const std::map<std::string, std::vector<std::string>>& graph,
    std::vector<Diagnostic>* diags) {
  // Iterative three-color DFS; a back edge closes a cycle.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  for (const auto& [start, _] : graph) {
    if (color[start] != 0) continue;
    std::vector<std::pair<std::string, size_t>> stack = {{start, 0}};
    std::vector<std::string> path = {start};
    color[start] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto& edges = graph.at(node);
      if (next < edges.size()) {
        std::string child = edges[next++];
        if (!graph.count(child)) continue;
        if (color[child] == 1) {
          auto at = std::find(path.begin(), path.end(), child);
          std::string chain;
          for (auto it = at; it != path.end(); ++it) chain += *it + " -> ";
          chain += child;
          diags->push_back({"layering", node, 1,
                            "include cycle: " + chain});
          continue;
        }
        if (color[child] == 0) {
          color[child] = 1;
          stack.emplace_back(child, 0);
          path.push_back(child);
        }
      } else {
        color[node] = 2;
        stack.pop_back();
        path.pop_back();
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> LintSource(std::string_view rel_path,
                                   std::string_view text) {
  Lexed lx = Lex(text);
  std::vector<Diagnostic> diags;
  Checker c{rel_path, lx, &diags};
  CheckLayering(c);
  CheckEnclaveBoundary(c);
  CheckDeterminismClocks(c);
  CheckDeterminismUnorderedIteration(c);
  CheckUncheckedStatus(c);
  CheckVectorKernelBoxing(c);
  CheckObliviousBranching(c);
  CheckHygiene(c);
  return diags;
}

Report LintTree(const Options& opts) {
  namespace fs = std::filesystem;
  Report report;
  fs::path root = fs::path(opts.tree_root);

  std::vector<std::string> rel_paths;
  for (const std::string& sub : opts.roots) {
    fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !IsCppFile(entry.path())) continue;
      std::string rel = fs::relative(entry.path(), root).generic_string();
      bool excluded = false;
      for (const std::string& needle : opts.exclude_substrings)
        if (rel.find(needle) != std::string::npos) excluded = true;
      if (!excluded) rel_paths.push_back(std::move(rel));
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  std::set<std::string> file_set(rel_paths.begin(), rel_paths.end());
  std::map<std::string, std::vector<std::string>> include_graph;
  for (const std::string& rel : rel_paths) {
    std::string text = ReadFile(root / rel);
    ++report.files_scanned;
    Lexed lx = Lex(text);
    Checker c{rel, lx, &report.diagnostics};
    CheckLayering(c);
    CheckEnclaveBoundary(c);
    CheckDeterminismClocks(c);
    CheckDeterminismUnorderedIteration(c);
    CheckUncheckedStatus(c);
    CheckVectorKernelBoxing(c);
    CheckObliviousBranching(c);
    CheckHygiene(c);

    std::vector<std::string>& edges = include_graph[rel];
    for (const Directive& d : lx.directives) {
      if (d.kind != Directive::Kind::kInclude || d.angled) continue;
      std::string target = ResolveInclude(file_set, rel, d.arg);
      if (!target.empty() && target != rel) edges.push_back(target);
    }
  }
  CheckIncludeCycles(include_graph, &report.diagnostics);

  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return report;
}

std::string ReportToJson(const Report& report) {
  std::ostringstream out;
  out << "{\"version\":1,\"files_scanned\":" << report.files_scanned
      << ",\"violation_count\":" << report.diagnostics.size()
      << ",\"diagnostics\":[";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i) out << ",";
    out << "{\"rule\":" << obs::JsonQuote(d.rule)
        << ",\"file\":" << obs::JsonQuote(d.file) << ",\"line\":" << d.line
        << ",\"message\":" << obs::JsonQuote(d.message) << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace ironsafe::lint
