#include "sweep/bench_json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/check.h"

namespace saf::sweep {

// --- writer ------------------------------------------------------------

void JsonWriter::comma_and_indent() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows "key": directly
  }
  if (!first_in_scope_.empty()) {
    if (!first_in_scope_.back()) out_ += ',';
    first_in_scope_.back() = false;
    out_ += '\n';
    out_.append(2 * first_in_scope_.size(), ' ');
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_and_indent();
  out_ += '{';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  SAF_CHECK(!first_in_scope_.empty());
  const bool empty = first_in_scope_.back();
  first_in_scope_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * first_in_scope_.size(), ' ');
  }
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_and_indent();
  out_ += '[';
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  SAF_CHECK(!first_in_scope_.empty());
  const bool empty = first_in_scope_.back();
  first_in_scope_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * first_in_scope_.size(), ' ');
  }
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma_and_indent();
  out_ += '"';
  out_ += k;
  out_ += "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma_and_indent();
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.1f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_and_indent();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_and_indent();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_and_indent();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma_and_indent();
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
  return *this;
}

// --- reader ------------------------------------------------------------

namespace {

/// Recursive-descent parser that records only numeric leaves. The
/// dotted path of the value being parsed lives in one buffer that each
/// object key or array index extends and then truncates, so a key costs
/// one string copy: the map node's.
class FlatParser {
 public:
  explicit FlatParser(std::string_view text) : s_(text) {}

  FlatJson parse() {
    skip_ws();
    parse_value();
    skip_ws();
    if (at_ != s_.size()) fail("trailing characters");
    return std::move(out_);
  }

 private:
  void parse_value() {
    skip_ws();
    if (at_ >= s_.size()) fail("unexpected end of input");
    const char c = s_[at_];
    if (c == '{') {
      parse_object();
    } else if (c == '[') {
      parse_array();
    } else if (c == '"') {
      parse_string(nullptr);  // discarded
    } else if (c == 't') {
      expect("true");
      record(1);
    } else if (c == 'f') {
      expect("false");
      record(0);
    } else if (c == 'n') {
      expect("null");
    } else {
      parse_number();
    }
  }

  /// An object's fields mostly sort in document order, so each key is
  /// tried right after the previous one before a full descent.
  void record(double v) {
    if (path_.empty()) return;
    last_ = out_.insert_or_assign(
        last_ == out_.end() ? last_ : std::next(last_), path_, v);
  }

  void parse_object() {
    ++at_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++at_;
      return;
    }
    const std::size_t base = path_.size();
    for (;;) {
      skip_ws();
      if (base != 0) path_ += '.';
      parse_string(&path_);
      skip_ws();
      if (peek() != ':') fail("expected ':'");
      ++at_;
      parse_value();
      path_.resize(base);
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      if (peek() == '}') {
        ++at_;
        return;
      }
      fail("expected ',' or '}'");
    }
  }

  void parse_array() {
    ++at_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++at_;
      return;
    }
    const std::size_t base = path_.size();
    for (std::size_t i = 0;; ++i) {
      char digits[24];
      const auto conv = std::to_chars(digits, digits + sizeof digits, i);
      path_ += '.';
      path_.append(digits, conv.ptr);
      parse_value();
      path_.resize(base);
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      if (peek() == ']') {
        ++at_;
        return;
      }
      fail("expected ',' or ']'");
    }
  }

  /// Consumes a string token, appending its unescaped text to `out`
  /// when given.
  void parse_string(std::string* out) {
    if (peek() != '"') fail("expected string");
    ++at_;
    while (at_ < s_.size() && s_[at_] != '"') {
      if (s_[at_] == '\\' && at_ + 1 < s_.size()) ++at_;
      if (out != nullptr) *out += s_[at_];
      ++at_;
    }
    if (at_ >= s_.size()) fail("unterminated string");
    ++at_;
  }

  /// A number token is a run of sign, digit, '.', 'e' and 'E'
  /// characters, and all of it must convert: "1.2.3" or "5-" is
  /// malformed, not a prefix to keep.
  void parse_number() {
    const std::size_t start = at_;
    while (at_ < s_.size() && ((s_[at_] >= '0' && s_[at_] <= '9') ||
                               s_[at_] == '-' || s_[at_] == '+' ||
                               s_[at_] == '.' || s_[at_] == 'e' ||
                               s_[at_] == 'E')) {
      ++at_;
    }
    if (at_ == start) fail("expected a value");
    const char* first = s_.data() + start;
    const char* last = s_.data() + at_;
    // from_chars takes no leading '+'; a sign after it stays an error.
    if (*first == '+' && last - first > 1 && first[1] != '-' &&
        first[1] != '+') {
      ++first;
    }
    double v = 0;
    const auto conv = std::from_chars(first, last, v);
    if (conv.ec != std::errc() || conv.ptr != last) {
      fail("bad number '" + std::string(s_.substr(start, at_ - start)) +
           "'");
    }
    record(v);
  }

  void expect(std::string_view word) {
    if (s_.compare(at_, word.size(), word) != 0) {
      fail(std::string("expected '") + std::string(word) + "'");
    }
    at_ += word.size();
  }

  char peek() const { return at_ < s_.size() ? s_[at_] : '\0'; }
  /// std::isspace's set in the "C" locale, without its per-character
  /// locale lookup: result files are mostly indentation.
  void skip_ws() {
    while (at_ < s_.size() &&
           (s_[at_] == ' ' || (s_[at_] >= '\t' && s_[at_] <= '\r'))) {
      ++at_;
    }
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(at_));
  }

  std::string_view s_;
  std::size_t at_ = 0;
  std::string path_;  ///< dotted path of the value being parsed
  FlatJson out_;
  FlatJson::iterator last_ = out_.end();  ///< the latest key recorded
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Only throughput metrics gate: wall-time percentiles vary with the
/// machine and are recorded as diagnostics, not compared.
bool gates(std::string_view key) { return ends_with(key, "_per_sec"); }

}  // namespace

FlatJson parse_json_numbers(const std::string& text) {
  return FlatParser(text).parse();
}

FlatJson load_json_numbers(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("cannot size " + path);
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), static_cast<std::streamsize>(text.size()))) {
    throw std::runtime_error("cannot read " + path);
  }
  return parse_json_numbers(text);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
  if (!text.empty() && text.back() != '\n') out << '\n';
}

void write_file_atomic(const std::string& path, const std::string& text) {
  // Same directory as the target so the rename cannot cross devices.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out << text;
    if (!text.empty() && text.back() != '\n') out << '\n';
    out.flush();
    if (!out) throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

RegressionReport compare_benchmarks(const FlatJson& baseline,
                                    const FlatJson& current,
                                    double tolerance) {
  RegressionReport report;
  for (const auto& [key, base] : baseline) {
    if (!gates(key)) continue;
    const auto it = current.find(key);
    if (it == current.end()) {
      report.missing.push_back(key);
      continue;
    }
    const double cur = it->second;
    if (base <= 0) continue;  // degenerate baseline: nothing to gate on
    const double ratio = cur / base;
    if (ratio < 1.0 - tolerance) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " (%+.1f%%)", (ratio - 1.0) * 100.0);
      std::ostringstream line;
      line << key << ": " << base << " -> " << cur << buf;
      report.regressions.push_back(line.str());
    }
  }
  return report;
}

}  // namespace saf::sweep
