#include "plf_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json_util.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace plf::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Two-character operators we must not split (":" ":" would break the
/// "std :: thread" match; "=" "=" would make every assignment look like a
/// comparison). Everything else tokenizes one char at a time.
constexpr const char* kTwoCharOps[] = {"::", "==", "!=", "<=", ">=", "&&",
                                       "||", "->", "++", "--", "+=", "-=",
                                       "*=", "/=", "|=", "&=", "^="};

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    // Raw string literal R"delim(...)delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t p = i + 2;
      while (p < n && src[p] != '(') ++p;
      const std::string close =
          ")" + std::string(src.substr(i + 2, p - (i + 2))) + "\"";
      const std::size_t end = src.find(close, p);
      const std::size_t stop = end == std::string_view::npos ? n : end + close.size();
      const int start_line = line;
      for (std::size_t q = i; q < stop; ++q) {
        if (src[q] == '\n') ++line;
      }
      out.push_back(Token{Token::Kind::kString,
                          std::string(src.substr(i, stop - i)), start_line});
      i = stop;
      continue;
    }
    // String / char literals.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t p = i + 1;
      while (p < n && src[p] != quote) {
        if (src[p] == '\\' && p + 1 < n) ++p;
        ++p;
      }
      p = std::min(n, p + 1);
      out.push_back(Token{quote == '"' ? Token::Kind::kString : Token::Kind::kChar,
                          std::string(src.substr(i, p - i)), line});
      i = p;
      continue;
    }
    if (ident_start(c)) {
      std::size_t p = i + 1;
      while (p < n && ident_char(src[p])) ++p;
      out.push_back(Token{Token::Kind::kIdent, std::string(src.substr(i, p - i)),
                          line});
      i = p;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      // Consume the pp-number: digits, hex, separators, suffixes, and
      // exponent signs (the char after e/E/p/P may be +/-).
      std::size_t p = i;
      while (p < n) {
        const char d = src[p];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++p;
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && p < n &&
              (src[p] == '+' || src[p] == '-') &&
              !(src.substr(i, 2) == "0x" || src.substr(i, 2) == "0X")) {
            ++p;
          }
          continue;
        }
        break;
      }
      out.push_back(Token{Token::Kind::kNumber, std::string(src.substr(i, p - i)),
                          line});
      i = p;
      continue;
    }
    // Punctuation: try two-char ops first.
    if (i + 1 < n) {
      const std::string two(src.substr(i, 2));
      for (const char* op : kTwoCharOps) {
        if (two == op) {
          out.push_back(Token{Token::Kind::kPunct, two, line});
          i += 2;
          goto next;
        }
      }
    }
    out.push_back(Token{Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  next:;
  }
  return out;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "kernel-contract", "prof-name-constant", "raw-thread", "float-equality",
      "atomic-memory-order", "arena-contract", "checkpoint-serializer"};
  return names;
}

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}
bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Index of the matching closer for the opener at `open`, or tokens.size().
std::size_t match_forward(const std::vector<Token>& t, std::size_t open,
                          const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kPunct) continue;
    if (t[i].text == opener) ++depth;
    if (t[i].text == closer && --depth == 0) return i;
  }
  return t.size();
}

bool is_float_literal(const Token& t) {
  if (t.kind != Token::Kind::kNumber) return false;
  const std::string& s = t.text;
  if (starts_with(s, "0x") || starts_with(s, "0X")) return false;
  if (s.find('.') != std::string::npos) return true;
  if (s.find('e') != std::string::npos || s.find('E') != std::string::npos) {
    return true;
  }
  return ends_with(s, "f") || ends_with(s, "F");
}

const std::set<std::string>& stmt_keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",        "switch",  "catch",
      "return", "sizeof", "alignof",      "decltype", "noexcept",
      "static_assert"};
  return kw;
}

/// std::atomic member-function calls whose default memory order is the rule's
/// target. wait/notify are excluded (no order parameter worth forcing).
const std::set<std::string>& atomic_ops() {
  static const std::set<std::string> ops = {
      "load",        "store",       "exchange",     "fetch_add",
      "fetch_sub",   "fetch_and",   "fetch_or",     "fetch_xor",
      "compare_exchange_strong",    "compare_exchange_weak"};
  return ops;
}

/// Collect variable names declared as std::atomic<...> (or atomic<...>).
void collect_atomic_names(const std::vector<Token>& t,
                          std::set<std::string>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || t[i].text != "atomic") continue;
    std::size_t p = i + 1;
    if (p < t.size() && t[p].kind == Token::Kind::kPunct && t[p].text == "<") {
      // Skip the template argument list (no >> splitting needed: the
      // tokenizer never folds >>).
      int depth = 0;
      for (; p < t.size(); ++p) {
        if (t[p].kind != Token::Kind::kPunct) continue;
        if (t[p].text == "<") ++depth;
        if (t[p].text == ">" && --depth == 0) {
          ++p;
          break;
        }
      }
    }
    if (p < t.size() && t[p].kind == Token::Kind::kIdent) {
      const std::string& name = t[p].text;
      // Require a declarator ending: initialization or end of member.
      if (p + 1 < t.size() && t[p + 1].kind == Token::Kind::kPunct &&
          (t[p + 1].text == "{" || t[p + 1].text == ";" ||
           t[p + 1].text == "=" || t[p + 1].text == "(")) {
        out.insert(name);
      }
    }
  }
}

/// Collect names declared float/double in this file (parameters, locals,
/// members): keyword float|double, optional cv/ref/pointer sigils, name.
void collect_float_names(const std::vector<Token>& t,
                         std::set<std::string>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        (t[i].text != "float" && t[i].text != "double")) {
      continue;
    }
    // References carry the value; pointers do not (p == nullptr is fine).
    std::size_t p = i + 1;
    while (p < t.size() && t[p].kind == Token::Kind::kPunct && t[p].text == "&") {
      ++p;
    }
    if (p < t.size() && t[p].kind == Token::Kind::kIdent &&
        t[p].text != "const") {
      out.insert(t[p].text);
    }
  }
}

// --- rule: kernel-contract -------------------------------------------------

struct KernelRule {
  const char* arg_type;
  std::vector<const char*> allowed_checks;
};

const std::vector<KernelRule>& kernel_rules() {
  static const std::vector<KernelRule> rules = {
      {"DownArgs", {"check_down", "check_down_aligned"}},
      {"RootArgs", {"check_root", "check_root_aligned"}},
      {"ScaleArgs", {"check_scale"}},
      {"RootReduceArgs", {"check_root_reduce"}},
      {"CumArgs", {"check_cum"}},
      {"PlfPlan", {"check_plan"}},
  };
  return rules;
}

void rule_kernel_contract(std::string_view relpath, const std::vector<Token>& t,
                          std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    // Candidate function definition: ident '(' ... ')' [const|noexcept] '{'.
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (stmt_keywords().count(t[i].text) != 0) continue;
    if (i + 1 >= t.size() || t[i + 1].kind != Token::Kind::kPunct ||
        t[i + 1].text != "(") {
      continue;
    }
    const std::size_t open = i + 1;
    const std::size_t close = match_forward(t, open, "(", ")");
    if (close >= t.size()) continue;
    std::size_t body = close + 1;
    while (body < t.size() && t[body].kind == Token::Kind::kIdent &&
           (t[body].text == "const" || t[body].text == "noexcept" ||
            t[body].text == "override")) {
      ++body;
    }
    if (body >= t.size() || t[body].kind != Token::Kind::kPunct ||
        t[body].text != "{") {
      continue;
    }
    // First parameter: tokens up to the first top-level comma.
    std::size_t first_end = close;
    int depth = 0;
    for (std::size_t p = open + 1; p < close; ++p) {
      if (t[p].kind != Token::Kind::kPunct) continue;
      if (t[p].text == "(" || t[p].text == "<" || t[p].text == "[") ++depth;
      if (t[p].text == ")" || t[p].text == ">" || t[p].text == "]") --depth;
      if (t[p].text == "," && depth == 0) {
        first_end = p;
        break;
      }
    }
    const KernelRule* rule = nullptr;
    for (std::size_t p = open + 1; p < first_end && rule == nullptr; ++p) {
      if (t[p].kind != Token::Kind::kIdent) continue;
      for (const KernelRule& kr : kernel_rules()) {
        if (t[p].text == kr.arg_type) {
          rule = &kr;
          break;
        }
      }
    }
    if (rule == nullptr) continue;
    const std::size_t body_end = match_forward(t, body, "{", "}");
    bool checked = false;
    for (std::size_t p = body + 1; p < body_end && !checked; ++p) {
      if (t[p].kind != Token::Kind::kIdent) continue;
      if (p + 1 >= t.size() || t[p + 1].text != "(") continue;
      for (const char* name : rule->allowed_checks) {
        if (t[p].text == name) {
          checked = true;
          break;
        }
      }
    }
    if (!checked) {
      std::ostringstream msg;
      msg << "kernel entry '" << t[i].text << "' takes " << rule->arg_type
          << " but never calls its contract check (";
      for (std::size_t k = 0; k < rule->allowed_checks.size(); ++k) {
        msg << (k != 0 ? " or " : "") << rule->allowed_checks[k];
      }
      msg << "); see src/core/kernel_contracts.hpp";
      out.push_back(Finding{std::string(relpath), t[i].line, "kernel-contract",
                            msg.str()});
    }
    i = body;  // resume after the header; nested scans are fine to skip
  }
}

// --- rule: arena-contract ----------------------------------------------------

/// ClvArena methods that mutate eviction state. Every one must re-validate
/// the arena invariants (budget ceiling, LRU-list/flag consistency) before
/// returning, by calling check_arena — the same closed check set the engine
/// and the kernels rely on (src/core/kernel_contracts.hpp).
const std::set<std::string>& arena_entry_points() {
  static const std::set<std::string> names = {
      "init", "acquire",           "pin",
      "unpin", "release_eval_pins", "evict_slot_for_test"};
  return names;
}

void rule_arena_contract(std::string_view relpath, const std::vector<Token>& t,
                         std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    // Candidate method definition: ClvArena '::' <name> '(' ... ')'
    // [const|noexcept] '{'.
    if (t[i].kind != Token::Kind::kIdent || t[i].text != "ClvArena") continue;
    if (t[i + 1].kind != Token::Kind::kPunct || t[i + 1].text != "::") continue;
    if (t[i + 2].kind != Token::Kind::kIdent) continue;
    const std::string& name = t[i + 2].text;
    if (t[i + 3].kind != Token::Kind::kPunct || t[i + 3].text != "(") continue;
    if (arena_entry_points().count(name) == 0) continue;
    const std::size_t close = match_forward(t, i + 3, "(", ")");
    if (close >= t.size()) continue;
    std::size_t body = close + 1;
    while (body < t.size() && t[body].kind == Token::Kind::kIdent &&
           (t[body].text == "const" || t[body].text == "noexcept")) {
      ++body;
    }
    if (body >= t.size() || t[body].kind != Token::Kind::kPunct ||
        t[body].text != "{") {
      continue;  // declaration or out-of-line signature only
    }
    const std::size_t body_end = match_forward(t, body, "{", "}");
    bool checked = false;
    for (std::size_t p = body + 1; p < body_end; ++p) {
      if (t[p].kind == Token::Kind::kIdent && t[p].text == "check_arena" &&
          p + 1 < t.size() && t[p + 1].kind == Token::Kind::kPunct &&
          t[p + 1].text == "(") {
        checked = true;
        break;
      }
    }
    if (!checked) {
      out.push_back(Finding{
          std::string(relpath), t[i + 2].line, "arena-contract",
          "arena entry point 'ClvArena::" + name + "' mutates eviction "
          "state but never calls check_arena; every mutating entry must "
          "re-validate the budget/LRU invariants before returning (see "
          "src/core/kernel_contracts.hpp)"});
    }
    i = body;
  }
}

// --- rule: prof-name-constant ----------------------------------------------

void rule_prof_name(std::string_view relpath, const std::vector<Token>& t,
                    std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& name = t[i].text;
    if (name != "PLF_PROF_SCOPE" && name != "PLF_PROF_COUNT" &&
        name != "PLF_PROF_GAUGE") {
      continue;
    }
    if (t[i + 1].kind != Token::Kind::kPunct || t[i + 1].text != "(") continue;
    const Token& arg = t[i + 2];
    if (arg.kind == Token::Kind::kString) {
      out.push_back(Finding{
          std::string(relpath), arg.line, "prof-name-constant",
          name + " called with string literal " + arg.text +
              "; use an interned obs::k* constant from src/obs/names.hpp "
              "so the report/trace name set stays closed"});
    }
  }
  // The MetricsRegistry interning calls are the same surface without the
  // macro: registry.counter("lit") / .gauge("lit") / .timer("lit") mint a
  // metric name the report and telemetry consumers can't find in
  // obs/names.hpp. Names built from the k* prefix constants pass (the first
  // argument token is then an identifier, not a string literal).
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kPunct ||
        (t[i].text != "." && t[i].text != "->")) {
      continue;
    }
    if (t[i + 1].kind != Token::Kind::kIdent) continue;
    const std::string& method = t[i + 1].text;
    if (method != "counter" && method != "gauge" && method != "timer") continue;
    if (t[i + 2].kind != Token::Kind::kPunct || t[i + 2].text != "(") continue;
    const Token& arg = t[i + 3];
    if (arg.kind == Token::Kind::kString) {
      out.push_back(Finding{
          std::string(relpath), arg.line, "prof-name-constant",
          "MetricsRegistry::" + method + " called with string literal " +
              arg.text +
              "; intern through an obs::k* constant from src/obs/names.hpp "
              "(prefix constants + a dynamic suffix are fine)"});
    }
  }
}

// --- rule: raw-thread ------------------------------------------------------

void rule_raw_thread(std::string_view relpath, const std::vector<Token>& t,
                     std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || t[i].text != "std") continue;
    if (t[i + 1].kind != Token::Kind::kPunct || t[i + 1].text != "::") continue;
    const std::string& name = t[i + 2].text;
    if (name != "thread" && name != "async" && name != "jthread") continue;
    // std::thread::id / std::thread::hardware_concurrency are type-level
    // uses, not thread creation; only flag the bare type/function.
    if (name == "thread" && i + 3 < t.size() &&
        t[i + 3].kind == Token::Kind::kPunct && t[i + 3].text == "::") {
      continue;
    }
    out.push_back(Finding{
        std::string(relpath), t[i].line, "raw-thread",
        "raw std::" + name + " outside src/par/ or src/exec/; all "
        "parallelism must go through par::ThreadPool or the instance "
        "scheduler so region accounting and the timing model stay complete"});
  }
}

// --- rule: checkpoint-serializer --------------------------------------------

void rule_checkpoint_serializer(std::string_view relpath,
                                const std::vector<Token>& t,
                                std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& name = t[i].text;
    if (t[i + 1].kind != Token::Kind::kPunct || t[i + 1].text != "(") continue;
    if (name == "fwrite" || name == "fread") {
      out.push_back(Finding{
          std::string(relpath), t[i].line, "checkpoint-serializer",
          "ad-hoc std::" + name + " outside src/util/serialize.cpp; "
          "persistent binary state must go through util::BinaryWriter/"
          "BinaryReader so every checkpoint carries the versioned header "
          "and stays restorable across releases"});
      continue;
    }
    // Pattern: <stream>.write(reinterpret_cast<...>(...), n) — the classic
    // raw-struct dump. Plain text stream writes don't match.
    if ((name == "write" || name == "read") && i >= 1 &&
        t[i - 1].kind == Token::Kind::kPunct &&
        (t[i - 1].text == "." || t[i - 1].text == "->") &&
        i + 2 < t.size() && t[i + 2].kind == Token::Kind::kIdent &&
        t[i + 2].text == "reinterpret_cast") {
      out.push_back(Finding{
          std::string(relpath), t[i].line, "checkpoint-serializer",
          "raw stream ." + name + "(reinterpret_cast<...>) outside "
          "src/util/serialize.cpp; persistent binary state must go through "
          "util::BinaryWriter/BinaryReader so every checkpoint carries the "
          "versioned header and stays restorable across releases"});
    }
  }
}

// --- rule: float-equality --------------------------------------------------

void rule_float_equality(std::string_view relpath, const std::vector<Token>& t,
                         std::vector<Finding>& out) {
  std::set<std::string> float_names;
  collect_float_names(t, float_names);
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kPunct ||
        (t[i].text != "==" && t[i].text != "!=")) {
      continue;
    }
    const Token& lhs = t[i - 1];
    const Token& rhs = t[i + 1];
    // A nullptr comparand means a pointer test, never a value comparison.
    if (lhs.text == "nullptr" || rhs.text == "nullptr") continue;
    const auto is_float_operand = [&](const Token& tok) {
      if (is_float_literal(tok)) return true;
      return tok.kind == Token::Kind::kIdent && float_names.count(tok.text) != 0;
    };
    if (is_float_operand(lhs) || is_float_operand(rhs)) {
      out.push_back(Finding{
          std::string(relpath), t[i].line, "float-equality",
          "floating-point " + t[i].text + " ('" + lhs.text + "' " + t[i].text +
              " '" + rhs.text + "'); use plf::num::exactly_equal / "
              "is_exactly_zero / nearly_equal from src/numerics/ulp.hpp to "
              "name the intent"});
    }
  }
}

// --- rule: atomic-memory-order ---------------------------------------------

void rule_atomic_order(std::string_view relpath, const std::vector<Token>& t,
                       const std::set<std::string>& atomic_names,
                       std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    // Pattern: <atomic-name> '.' <op> '(' args ')' — args must mention a
    // memory_order.
    if (t[i].kind != Token::Kind::kIdent || atomic_names.count(t[i].text) == 0) {
      continue;
    }
    if (t[i + 1].kind != Token::Kind::kPunct || t[i + 1].text != ".") continue;
    if (t[i + 2].kind != Token::Kind::kIdent ||
        atomic_ops().count(t[i + 2].text) == 0) {
      continue;
    }
    if (t[i + 3].kind != Token::Kind::kPunct || t[i + 3].text != "(") continue;
    const std::size_t close = match_forward(t, i + 3, "(", ")");
    bool has_order = false;
    for (std::size_t p = i + 4; p < close; ++p) {
      if (t[p].kind == Token::Kind::kIdent &&
          starts_with(t[p].text, "memory_order")) {
        has_order = true;
        break;
      }
    }
    if (!has_order) {
      out.push_back(Finding{
          std::string(relpath), t[i].line, "atomic-memory-order",
          "'" + t[i].text + "." + t[i + 2].text + "' without an explicit "
          "std::memory_order; the seq_cst default either hides a cost or an "
          "unconsidered ordering decision — state one"});
    }
  }
}

}  // namespace

void scan_context(std::string_view text, Context& ctx) {
  const std::vector<Token> t = tokenize(text);
  collect_atomic_names(t, ctx.atomic_names);
}

std::vector<Finding> lint_source(std::string_view relpath, std::string_view text,
                                 const Context* ctx) {
  const std::vector<Token> t = tokenize(text);
  std::vector<Finding> out;

  const bool in_src = starts_with(relpath, "src/");
  // The kernel entries: the per-variant files and the header whose template
  // builds the shared checked range entries.
  const bool kernels_file = (starts_with(relpath, "src/core/kernels_") &&
                             ends_with(relpath, ".cpp")) ||
                            relpath == "src/core/kernel_entries.hpp";
  // src/exec/ owns the multi-instance driver threads (exec/scheduler.cpp);
  // like the pool itself, it is the sanctioned home for std::thread.
  const bool in_pool_layer = starts_with(relpath, "src/par/") ||
                             starts_with(relpath, "src/exec/");
  const bool numeric_scope = (starts_with(relpath, "src/core/") ||
                              starts_with(relpath, "src/numerics/")) &&
                             relpath != "src/numerics/ulp.hpp";

  const bool arena_file = relpath == "src/core/clv_arena.cpp";

  if (kernels_file) rule_kernel_contract(relpath, t, out);
  if (arena_file) rule_arena_contract(relpath, t, out);
  if (in_src) rule_prof_name(relpath, t, out);
  if (in_src && !in_pool_layer) rule_raw_thread(relpath, t, out);
  if (in_src && relpath != "src/util/serialize.cpp") {
    rule_checkpoint_serializer(relpath, t, out);
  }
  if (numeric_scope) rule_float_equality(relpath, t, out);
  if (in_src) {
    std::set<std::string> atomic_names;
    collect_atomic_names(t, atomic_names);
    if (ctx != nullptr) {
      atomic_names.insert(ctx->atomic_names.begin(), ctx->atomic_names.end());
    }
    rule_atomic_order(relpath, t, atomic_names, out);
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

std::vector<Suppression> load_suppressions(const std::string& path) {
  const json::Value doc = json::parse_file(path);
  std::vector<Suppression> out;
  for (const json::Value& entry : doc.at("suppressions").as_array()) {
    Suppression s;
    s.rule = entry.at("rule").as_string();
    s.file = entry.at("file").as_string();
    s.reason = entry.at("reason").as_string();
    if (const json::Value* line = entry.find("line")) {
      s.line = static_cast<int>(line->as_number());
    }
    if (s.reason.empty()) {
      throw Error("suppression for " + s.file + " has an empty reason");
    }
    if (std::find(rule_names().begin(), rule_names().end(), s.rule) ==
        rule_names().end()) {
      throw Error("suppression names unknown rule '" + s.rule + "'");
    }
    out.push_back(std::move(s));
  }
  return out;
}

void apply_suppressions(std::vector<Finding>& findings,
                        const std::vector<Suppression>& sups) {
  for (Finding& f : findings) {
    for (const Suppression& s : sups) {
      if (s.rule != f.rule) continue;
      const bool file_match =
          f.file == s.file || ends_with(f.file, "/" + s.file);
      if (!file_match) continue;
      if (s.line != -1 && s.line != f.line) continue;
      f.suppressed = true;
      break;
    }
  }
}

std::string findings_to_json(const std::vector<Finding>& findings) {
  using obs::detail::json_escape;
  std::ostringstream os;
  os << "{\"schema\":\"plf-lint-v1\",\"findings\":[";
  std::size_t suppressed = 0;
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (f.suppressed) ++suppressed;
    os << (i != 0 ? "," : "") << "{\"file\":\"" << json_escape(f.file)
       << "\",\"line\":" << f.line << ",\"rule\":\"" << json_escape(f.rule)
       << "\",\"message\":\"" << json_escape(f.message)
       << "\",\"suppressed\":" << (f.suppressed ? "true" : "false") << "}";
  }
  os << "],\"counts\":{\"total\":" << findings.size()
     << ",\"suppressed\":" << suppressed << "}}";
  return os.str();
}

}  // namespace plf::lint
