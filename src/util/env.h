// Validated environment-variable parsing for the knobs bench binaries and
// examples expose (TAPO_BENCH_FLOWS, TAPO_BENCH_THREADS, ...). Malformed
// values must never silently change an experiment: they warn and fall back
// to the caller's default instead of relying on strtol's lenient parsing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace tapo::util {

/// Strict parse of a positive decimal size. Rejects empty strings, signs,
/// non-digit characters (including trailing junk), zero, and values that
/// overflow std::size_t.
std::optional<std::size_t> parse_positive_size(const std::string& text);

/// Reads env var `name` as a positive size. Unset -> `dflt`; malformed or
/// zero -> warning on stderr + `dflt`.
std::size_t env_positive_size(const char* name, std::size_t dflt);

/// Strict parse of an unsigned decimal integer. Unlike parse_positive_size
/// it accepts zero; it still rejects empty strings, signs, trailing junk,
/// and overflow.
std::optional<std::uint64_t> parse_u64(const std::string& text);

/// Strict parse of a finite decimal floating-point number ("2", "-0.5",
/// "1e-3"). Rejects empty strings, leading whitespace or '+', trailing
/// junk, "inf" and "nan", and literals outside double's range instead of
/// rounding them to infinity or zero.
std::optional<double> parse_double(const std::string& text);

/// Strict parse of 1-4 hexadecimal digits (no 0x prefix, either case).
/// Rejects empty strings, longer inputs, and any non-hex character.
std::optional<std::uint16_t> parse_hex_u16(const std::string& text);

/// Reads env var `name` as a non-negative size (zero allowed). Unset ->
/// `dflt`; malformed -> warning on stderr + `dflt`.
std::size_t env_size(const char* name, std::size_t dflt);

}  // namespace tapo::util
