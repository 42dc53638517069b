#include "core/cli_flags.h"

#include <charconv>
#include <stdexcept>

namespace abenc {
namespace {

[[noreturn]] void BadValue(std::string_view flag, std::string_view text,
                           const std::string& expected) {
  throw std::invalid_argument(std::string(flag) + " expects " + expected +
                              ", got '" + std::string(text) + "'");
}

template <typename T>
bool ParseWhole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return !text.empty() && ec == std::errc{} && ptr == end;
}

/// A number in [0, max]; NaN and infinities never pass.
bool MatchReal(std::string_view flag, int argc, char** argv, int& i,
               double& out, double max, const char* expected) {
  std::string value;
  if (!MatchFlag(flag, argc, argv, i, value)) return false;
  if (!ParseWhole(value, out) || !(out >= 0.0 && out <= max)) {
    BadValue(flag, value, expected);
  }
  return true;
}

}  // namespace

bool MatchFlag(std::string_view flag, int argc, char** argv, int& i,
               std::string& value) {
  const std::string_view arg = argv[i];
  if (arg == flag) {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(flag) + " requires a value");
    }
    value = argv[++i];
    return true;
  }
  if (arg.size() > flag.size() && arg.starts_with(flag) &&
      arg[flag.size()] == '=') {
    value = std::string(arg.substr(flag.size() + 1));
    return true;
  }
  return false;
}

std::uint64_t ParseCount(std::string_view flag, std::string_view text,
                         std::uint64_t max) {
  std::uint64_t value = 0;
  if (!ParseWhole(text, value) || value > max) {
    BadValue(flag, text, "an integer from 0 to " + std::to_string(max));
  }
  return value;
}

bool MatchMillis(std::string_view flag, int argc, char** argv, int& i,
                 std::chrono::milliseconds& out) {
  std::uint32_t ms = 0;
  if (!MatchCount(flag, argc, argv, i, ms)) return false;
  out = std::chrono::milliseconds(ms);
  return true;
}

bool MatchFraction(std::string_view flag, int argc, char** argv, int& i,
                   double& out) {
  return MatchReal(flag, argc, argv, i, out, 1.0, "a fraction in [0, 1]");
}

bool MatchSeconds(std::string_view flag, int argc, char** argv, int& i,
                  double& out) {
  return MatchReal(flag, argc, argv, i, out,
                   std::numeric_limits<double>::max(),
                   "a number of seconds >= 0");
}

}  // namespace abenc
