#include "util/env.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <system_error>

#include "util/logging.h"

namespace tapo::util {

std::optional<std::size_t> parse_positive_size(const std::string& text) {
  const auto value = parse_u64(text);
  if (!value || *value == 0 ||
      *value > std::numeric_limits<std::size_t>::max()) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(*value);
}

std::size_t env_positive_size(const char* name, std::size_t dflt) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return dflt;
  if (const auto parsed = parse_positive_size(raw)) return *parsed;
  TAPO_WARN << name << "='" << raw
            << "' is not a positive integer; using default " << dflt;
  return dflt;
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> parse_double(const std::string& text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint16_t> parse_hex_u16(const std::string& text) {
  if (text.empty() || text.size() > 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const char c : text) {
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint32_t>(c - 'A') + 10;
    } else {
      return std::nullopt;
    }
    value = value * 16 + digit;
  }
  return static_cast<std::uint16_t>(value);
}

std::size_t env_size(const char* name, std::size_t dflt) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return dflt;
  if (const auto parsed = parse_u64(raw)) {
    if (*parsed <= std::numeric_limits<std::size_t>::max()) {
      return static_cast<std::size_t>(*parsed);
    }
  }
  TAPO_WARN << name << "='" << raw
            << "' is not a non-negative integer; using default " << dflt;
  return dflt;
}

}  // namespace tapo::util
