/// \file cli.hpp
/// \brief Minimal command-line flag parsing for the tools and examples.
///
/// Supports `--name=value` and `--name value` forms, `--flag` for
/// booleans, typed accessors with defaults, `--help` text generation, and
/// strict rejection of unknown flags.  No dependencies; deliberately tiny.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace urn {

/// Declarative flag set + parser.
class CliFlags {
 public:
  /// Declare flags before parsing. `help` is shown by usage().
  void add_string(const std::string& name, std::string default_value,
                  std::string help);
  void add_int(const std::string& name, std::int64_t default_value,
               std::string help);
  void add_double(const std::string& name, double default_value,
                  std::string help);
  void add_bool(const std::string& name, bool default_value,
                std::string help);

  /// Parse argv. Returns false (and sets error()) on unknown flags,
  /// missing values, or unparsable numbers.  `--help` sets help_requested.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  [[nodiscard]] bool help_requested() const { return help_requested_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Human-readable flag summary.
  [[nodiscard]] std::string usage(const std::string& program) const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string value;  // current (default or parsed), textual
    std::string default_value;
    std::string help;
  };

  [[nodiscard]] const Flag& require(const std::string& name,
                                    Type type) const;
  bool assign(const std::string& name, const std::string& value);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  bool help_requested_ = false;
  std::string error_;
};

/// A tool's `main`: returns `body(argc, argv)`, except that a
/// `urn::CheckError` escaping it (a reader or library precondition
/// refusing the input) becomes one `error:` line on stderr and exit
/// status 2.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace urn
