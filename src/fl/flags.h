// The run_experiment command-line surface, as data.
//
// Every flag the driver accepts is registered here once; the --help text is
// generated from the same table the parser is checked against, so the two
// can never drift apart again (they did once: the PR-2 scheduler flags were
// added to the parser but not everywhere in the docs). tests/fl/flags_test
// asserts the generated usage mentions every registered flag, and
// run_experiment refuses to start if its handler table and this registry
// disagree.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace fedtrip::fl {

struct FlagSpec {
  /// Flag name including the leading dashes, e.g. "--method".
  const char* name;
  /// Placeholder for the value in the help text ("NAME", "N", "X", ...);
  /// nullptr for boolean flags that take no value.
  const char* value_name;
  /// One-line description shown by --help.
  const char* help;
};

/// Every flag run_experiment accepts, in help order.
const std::vector<FlagSpec>& experiment_flags();

/// The full --help text, generated from experiment_flags().
std::string experiment_usage();

/// Every flag fl_worker accepts, in help order (connection mode, the
/// serve-loop knobs and the deterministic chaos-injection switches —
/// net/elastic/chaos.h). tests/fl/flags_test asserts the usage text
/// mentions every entry.
const std::vector<FlagSpec>& worker_flags();

/// The full fl_worker --help text, generated from worker_flags().
std::string worker_usage();

/// Parses an unsigned decimal no larger than `max`, or a finite decimal
/// number; the whole of `text` must parse. Throws std::invalid_argument
/// otherwise. parse_flag<T> picks one by T.
std::uint64_t parse_count(const char* text, std::uint64_t max);
double parse_number(const char* text);

/// Strict flag-value parsing: an integral T is a count (digits only: no
/// sign, blanks or suffix, and it must fit T); a floating T is a finite
/// number, read as a double and then narrowed, so a float flag gets the
/// same bits as static_cast<float>(std::atof(text)).
template <typename T>
T parse_flag(const char* text) {
  if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(parse_count(text, std::numeric_limits<T>::max()));
  } else {
    return static_cast<T>(parse_number(text));
  }
}

}  // namespace fedtrip::fl
