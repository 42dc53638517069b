// Command-line flag parsing shared by every binary: one `--flag value` /
// `--flag=value` matcher and strict value parses. A bad value throws
// std::invalid_argument naming the flag, so a main turns it into its
// usage message and exit 2 — never a wrapped negative ("-1" as 2^64-1),
// a value cut at trailing text ("2x" as 2) or an uncaught exception.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace abenc {

/// True when argv[i] is `flag` (e.g. "--length") followed by a value,
/// or `flag=value`; `value` receives the value and, in the first form,
/// `i` advances past it. Throws std::invalid_argument when `flag` is
/// the last argument.
bool MatchFlag(std::string_view flag, int argc, char** argv, int& i,
               std::string& value);

/// Base-10 digits only, the whole text, at most `max` ("-1", "2x", "",
/// "+3" and out-of-range values throw).
std::uint64_t ParseCount(std::string_view flag, std::string_view text,
                         std::uint64_t max);

/// MatchFlag, then the value parsed by ParseCount up to T's maximum.
template <std::unsigned_integral T>
bool MatchCount(std::string_view flag, int argc, char** argv, int& i, T& out) {
  std::string value;
  if (!MatchFlag(flag, argc, argv, i, value)) return false;
  out = static_cast<T>(ParseCount(flag, value, std::numeric_limits<T>::max()));
  return true;
}

/// MatchCount of a millisecond count (at most 2^32 - 1).
bool MatchMillis(std::string_view flag, int argc, char** argv, int& i,
                 std::chrono::milliseconds& out);

/// MatchFlag, then a number parsed in full: in [0, 1] ("0.5x", "nan"
/// and "1.5" throw), or any finite number of seconds >= 0.
bool MatchFraction(std::string_view flag, int argc, char** argv, int& i,
                   double& out);
bool MatchSeconds(std::string_view flag, int argc, char** argv, int& i,
                  double& out);

}  // namespace abenc
