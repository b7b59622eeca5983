#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

namespace saf::util {

template <typename Int>
bool parse_int(std::string_view text, Int lo, Int* out) {
  Int v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo) return false;
  *out = v;
  return true;
}

template bool parse_int(std::string_view, int, int*);
template bool parse_int(std::string_view, std::int64_t, std::int64_t*);
template bool parse_int(std::string_view, std::uint64_t, std::uint64_t*);
template bool parse_int(std::string_view, std::uint16_t, std::uint16_t*);

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  for (std::size_t at = 0;;) {
    const std::size_t comma = text.find(',', at);
    items.emplace_back(text.substr(at, comma - at));
    if (comma == std::string_view::npos) return items;
    at = comma + 1;
  }
}

Flags::Flags(std::string tool, std::string notes)
    : tool_(std::move(tool)), notes_(std::move(notes)) {}

Flags& Flags::add(const char* name, std::string metavar, Setter set) {
  flags_.push_back({name, std::move(metavar), std::move(set)});
  return *this;
}

template <typename Int>
Flags& Flags::integer(const char* name, const char* metavar, Int* out,
                      std::type_identity_t<Int> lo) {
  return add(name, metavar, [out, lo](const std::string& v) {
    if (parse_int(v, lo, out)) return std::string();
    return "expects an integer in [" + std::to_string(lo) + ", " +
           std::to_string(std::numeric_limits<Int>::max()) + "], got '" + v +
           "'";
  });
}

template Flags& Flags::integer(const char*, const char*, int*, int);
template Flags& Flags::integer(const char*, const char*, std::int64_t*,
                               std::int64_t);
template Flags& Flags::integer(const char*, const char*, std::uint64_t*,
                               std::uint64_t);
template Flags& Flags::integer(const char*, const char*, std::uint16_t*,
                               std::uint16_t);

Flags& Flags::integers(const char* name, const char* metavar,
                       std::vector<int>* out, int lo) {
  return add(name, metavar, [out, lo](const std::string& v) {
    std::vector<int> parsed;
    for (const std::string& item : split_list(v)) {
      int x = 0;
      if (!parse_int(item, lo, &x)) {
        return "expects a comma list of integers >= " + std::to_string(lo) +
               ", got '" + v + "'";
      }
      parsed.push_back(x);
    }
    *out = std::move(parsed);
    return std::string();
  });
}

Flags& Flags::real(const char* name, const char* metavar, double* out,
                   double lo) {
  return add(name, metavar, [out, lo](const std::string& v) {
    double x = 0;
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, x);
    if (ec != std::errc() || ptr != end || !std::isfinite(x) || x < lo) {
      std::ostringstream msg;
      msg << "expects a number >= " << lo << ", got '" << v << "'";
      return msg.str();
    }
    *out = x;
    return std::string();
  });
}

Flags& Flags::text(const char* name, const char* metavar, std::string* out) {
  return add(name, metavar, [out](const std::string& v) {
    *out = v;
    return std::string();
  });
}

Flags& Flags::names(const char* name, const char* metavar,
                    std::vector<std::string>* out) {
  return add(name, metavar, [out](const std::string& v) {
    out->clear();
    for (std::string& item : split_list(v)) {
      if (!item.empty()) out->push_back(std::move(item));
    }
    return std::string();
  });
}

Flags& Flags::choice(const char* name, std::vector<std::string> options,
                     std::string* out) {
  std::string metavar;
  for (const std::string& o : options) {
    metavar += (metavar.empty() ? "" : "|") + o;
  }
  return add(name, metavar,
             [out, options = std::move(options), metavar](const std::string& v) {
               for (const std::string& o : options) {
                 if (v == o) {
                   *out = v;
                   return std::string();
                 }
               }
               return "expects " + metavar + ", got '" + v + "'";
             });
}

Flags& Flags::toggle(const char* name, bool* out) {
  return add(name, "", [out](const std::string&) {
    *out = true;
    return std::string();
  });
}

Flags& Flags::required() {
  flags_.back().required = true;
  return *this;
}

Flags& Flags::operands(const char* metavar, std::vector<std::string>* out) {
  operands_metavar_ = metavar;
  operands_ = out;
  return *this;
}

std::optional<int> Flags::parse(int argc, const char* const* argv,
                                std::ostream& out, std::ostream& err) const {
  std::vector<bool> seen(flags_.size(), false);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(out);
      return 0;
    }
    std::size_t f = 0;
    while (f < flags_.size() && flags_[f].name != arg) ++f;
    if (f == flags_.size()) {
      if (operands_ != nullptr && (arg.empty() || arg[0] != '-')) {
        operands_->push_back(arg);
        continue;
      }
      return fail("unknown flag " + arg, err);
    }
    const Flag& flag = flags_[f];
    std::string value;
    if (!flag.metavar.empty()) {
      if (i + 1 >= argc) return fail(flag.name + " needs a value", err);
      value = argv[++i];
    }
    const std::string problem = flag.set(value);
    if (!problem.empty()) return fail(flag.name + " " + problem, err);
    seen[f] = true;
  }
  for (std::size_t f = 0; f < flags_.size(); ++f) {
    if (flags_[f].required && !seen[f]) {
      return fail(flags_[f].name + " is required", err);
    }
  }
  return std::nullopt;
}

int Flags::fail(const std::string& error, std::ostream& err) const {
  if (!error.empty()) err << tool_ << ": " << error << "\n";
  print_usage(err);
  return 2;
}

void Flags::print_usage(std::ostream& os) const {
  constexpr std::size_t kWidth = 78;
  const std::string lead = "usage: " + tool_ + " ";
  std::string line = lead;
  auto put = [&](const std::string& item) {
    if (line.size() > lead.size()) {
      if (line.size() + 1 + item.size() > kWidth) {
        os << line << "\n";
        line.assign(lead.size(), ' ');
      } else {
        line += ' ';
      }
    }
    line += item;
  };
  if (!operands_metavar_.empty()) put(operands_metavar_);
  for (const Flag& f : flags_) {
    const std::string item =
        f.metavar.empty() ? f.name : f.name + " " + f.metavar;
    put(f.required ? item : "[" + item + "]");
  }
  put("[--help]");
  os << line << "\n" << notes_;
}

}  // namespace saf::util
