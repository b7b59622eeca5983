// Command-line flags: each CLI declares its flags once, in one table,
// and every CLI shares one grammar and one exit contract.
//
//   saf::util::Flags flags("rt_node", kNotes);
//   flags.integer("--id", "I", &cfg.id, 0).required()
//       .integer("--base-port", "P", &cfg.base_port, 1024)
//       .choice("--protocol", {"kset", "wheels"}, &cfg.protocol)
//       .text("--out", "FILE", &cfg.result_path);
//   if (const auto rc = flags.parse(argc, argv)) return *rc;
//
// Grammar: `--flag value` (no `--flag=value`). An integer is strict
// decimal (no sign other than a leading '-', no spaces, no suffix), at
// least the flag's lower bound and at most its field type's maximum. A
// later occurrence of a flag replaces an earlier one. On any error
// parse() prints `<tool>: <error>` and the usage on stderr and returns
// 2; -h/--help prints the usage on stdout and returns 0. The usage is a
// synopsis generated from the table followed by the tool's own notes.
#pragma once

#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace saf::util {

/// Strict decimal parse of all of `text` into `*out`; false (and `*out`
/// untouched) unless lo <= value <= the type's maximum. Defined for
/// int, std::int64_t, std::uint64_t and std::uint16_t.
template <typename Int>
bool parse_int(std::string_view text, Int lo, Int* out);

/// Splits "a,b,,c" at every comma, keeping empty items: {a, b, "", c}.
std::vector<std::string> split_list(std::string_view text);

class Flags {
 public:
  /// `notes` is printed verbatim after the synopsis.
  explicit Flags(std::string tool, std::string notes = "");

  /// An integer flag; the field's type bounds it from above.
  template <typename Int>
  Flags& integer(const char* name, const char* metavar, Int* out,
                 std::type_identity_t<Int> lo);
  /// A comma list of integers, each >= lo; an empty item is refused.
  Flags& integers(const char* name, const char* metavar,
                  std::vector<int>* out, int lo);
  /// A finite decimal number >= lo.
  Flags& real(const char* name, const char* metavar, double* out, double lo);
  Flags& text(const char* name, const char* metavar, std::string* out);
  /// A comma list of names; empty items are dropped.
  Flags& names(const char* name, const char* metavar,
               std::vector<std::string>* out);
  /// One of `options`, shown as the metavar "a|b|c".
  Flags& choice(const char* name, std::vector<std::string> options,
                std::string* out);
  /// A switch: sets `*out` to true, takes no value.
  Flags& toggle(const char* name, bool* out);
  /// Marks the flag declared last as required.
  Flags& required();
  /// Collects non-flag arguments into `*out`; without this, any
  /// argument that is not a declared flag is an error.
  Flags& operands(const char* metavar, std::vector<std::string>* out);

  /// Parses argv[1..argc). nullopt: go on; otherwise the exit status.
  std::optional<int> parse(int argc, const char* const* argv,
                           std::ostream& out = std::cout,
                           std::ostream& err = std::cerr) const;
  /// Prints `<tool>: <error>` (unless empty) and the usage; returns 2.
  int fail(const std::string& error, std::ostream& err = std::cerr) const;
  void print_usage(std::ostream& os) const;

 private:
  /// Stores a flag's value; returns what was wrong with it, or "".
  using Setter = std::function<std::string(const std::string&)>;
  struct Flag {
    std::string name;
    std::string metavar;  ///< empty for a switch
    Setter set;
    bool required = false;
  };

  Flags& add(const char* name, std::string metavar, Setter set);

  std::string tool_;
  std::string notes_;
  std::vector<Flag> flags_;
  std::string operands_metavar_;
  std::vector<std::string>* operands_ = nullptr;
};

}  // namespace saf::util
