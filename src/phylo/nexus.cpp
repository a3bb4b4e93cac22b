#include "phylo/nexus.hpp"

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

#include "util/error.hpp"

namespace plf::phylo {

namespace {

/// Remove bracket comments (nesting tolerated), preserving line structure.
std::string strip_comments(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  int depth = 0;
  for (char c : text) {
    if (c == '[') {
      ++depth;
    } else if (c == ']') {
      if (depth > 0) --depth;
    } else if (depth == 0) {
      out += c;
    }
  }
  if (depth != 0) throw ParseError("NEXUS: unterminated [comment]");
  return out;
}

std::string upper(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

/// Cursor-based scanner over comment-stripped NEXUS text.
class Scanner {
 public:
  explicit Scanner(std::string text) : text_(std::move(text)) {}

  bool eof() {
    skip_ws();
    return pos_ >= text_.size();
  }

  /// Next token: ';' ',' '=' as single characters, otherwise a word.
  std::string next() {
    skip_ws();
    if (pos_ >= text_.size()) throw ParseError("NEXUS: unexpected end of file");
    const char c = text_[pos_];
    if (c == ';' || c == ',' || c == '=') {
      ++pos_;
      return std::string(1, c);
    }
    std::string word;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(ch)) || ch == ';' ||
          ch == ',' || ch == '=') {
        break;
      }
      word += ch;
      ++pos_;
    }
    return word;
  }

  /// Everything up to (not including) the next ';', raw.
  std::string until_semicolon() {
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != ';') out += text_[pos_++];
    if (pos_ >= text_.size()) throw ParseError("NEXUS: missing ';'");
    ++pos_;  // consume ';'
    return out;
  }

  /// Rest of the current line (for line-structured MATRIX rows).
  std::string rest_of_line() {
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '\n' && text_[pos_] != ';') {
      out += text_[pos_++];
    }
    return out;
  }

  /// Skip spaces/tabs but NOT newlines (matrix row scanning).
  void skip_blanks() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool at_newline() { return pos_ < text_.size() && text_[pos_] == '\n'; }
  void consume_newline() {
    if (at_newline()) ++pos_;
  }
  char peek_char() { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void consume_char() {
    if (pos_ < text_.size()) ++pos_;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  std::string text_;
  std::size_t pos_ = 0;
};

void skip_block(Scanner& sc) {
  for (;;) {
    const std::string t = upper(sc.next());
    if (t == "END" || t == "ENDBLOCK") {
      if (sc.next() != ";") throw ParseError("NEXUS: END without ';'");
      return;
    }
  }
}

/// DATA/CHARACTERS block.
void parse_data_block(Scanner& sc, NexusFile& out) {
  std::size_t ntax = 0, nchar = 0;

  // Names in first-appearance order; sequences accumulated per name.
  std::vector<std::string> order;
  std::map<std::string, std::string> seqs;

  for (;;) {
    const std::string cmd = upper(sc.next());
    if (cmd == "END" || cmd == "ENDBLOCK") {
      if (sc.next() != ";") throw ParseError("NEXUS: END without ';'");
      break;
    }
    if (cmd == "DIMENSIONS") {
      const std::string body = sc.until_semicolon();
      std::istringstream is(body);
      std::string item;
      while (is >> item) {
        const std::string u = upper(item);
        const auto eq = u.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = u.substr(0, eq);
        const std::string val = u.substr(eq + 1);
        if (key == "NTAX") ntax = std::stoul(val);
        if (key == "NCHAR") nchar = std::stoul(val);
      }
    } else if (cmd == "FORMAT") {
      const std::string body = upper(sc.until_semicolon());
      if (body.find("DATATYPE") != std::string::npos &&
          body.find("DNA") == std::string::npos &&
          body.find("NUCLEOTIDE") == std::string::npos &&
          body.find("RNA") == std::string::npos) {
        throw ParseError("NEXUS: only DNA/RNA data is supported");
      }
      // INTERLEAVE needs no special handling: rows are line-structured and
      // accumulated per taxon name either way.
    } else if (cmd == "MATRIX") {
      // Line-structured rows: `name chunk chunk...`, repeated (interleaved
      // files repeat the names; sequential files list each taxon once).
      for (;;) {
        sc.skip_blanks();
        while (sc.at_newline()) {
          sc.consume_newline();
          sc.skip_blanks();
        }
        if (sc.peek_char() == ';') {
          sc.next();  // consume ';'
          break;
        }
        if (sc.peek_char() == '\0') throw ParseError("NEXUS: unterminated MATRIX");
        // Name = first word on the line.
        std::string name;
        while (sc.peek_char() != '\0' && sc.peek_char() != ' ' &&
               sc.peek_char() != '\t' && sc.peek_char() != '\n' &&
               sc.peek_char() != ';') {
          name += sc.peek_char();
          sc.consume_char();
        }
        const std::string rest = sc.rest_of_line();
        if (name.empty()) throw ParseError("NEXUS: empty taxon name in MATRIX");
        if (!seqs.count(name)) order.push_back(name);
        std::string& seq = seqs[name];
        for (char c : rest) {
          if (!std::isspace(static_cast<unsigned char>(c))) seq += c;
        }
      }
    } else {
      // Unknown command: swallow to ';'.
      sc.until_semicolon();
    }
  }

  PLF_CHECK(!order.empty(), "NEXUS: DATA block has no MATRIX rows");
  if (ntax != 0) {
    PLF_CHECK(order.size() == ntax, "NEXUS: NTAX does not match MATRIX rows");
  }
  std::vector<std::string> sequences;
  for (const auto& name : order) {
    const std::string& s = seqs[name];
    if (nchar != 0) {
      PLF_CHECK(s.size() == nchar,
                "NEXUS: sequence length != NCHAR for taxon " + name);
    }
    sequences.push_back(s);
  }
  out.alignment = Alignment(order, sequences);
  out.has_alignment = true;
}

}  // namespace

NexusFile parse_nexus(const std::string& text) {
  Scanner sc(strip_comments(text));
  const std::string magic = sc.next();
  if (upper(magic) != "#NEXUS") {
    throw ParseError("NEXUS: file must start with #NEXUS");
  }

  NexusFile out;
  while (!sc.eof()) {
    const std::string kw = upper(sc.next());
    if (kw != "BEGIN") throw ParseError("NEXUS: expected BEGIN, got " + kw);
    const std::string block = upper(sc.next());
    if (sc.next() != ";") throw ParseError("NEXUS: BEGIN without ';'");
    if (block == "DATA" || block == "CHARACTERS") {
      parse_data_block(sc, out);
    } else {
      skip_block(sc);
    }
  }
  return out;
}

NexusFile read_nexus_file(const std::string& path) {
  std::ifstream f(path);
  PLF_CHECK(f.good(), "cannot open NEXUS file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_nexus(buf.str());
}

}  // namespace plf::phylo
