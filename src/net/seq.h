// Seq32: the TCP sequence-number domain type, plus the only sanctioned
// vocabulary for comparing sequence numbers.
//
// Raw `uint32_t` sequence comparisons are a latent correctness bug: any
// flow whose byte stream crosses the 2^32 wrap (a >4 GB cloud-storage
// upload, Table 1) silently misorders snd_una/snd_nxt/SACK edges under
// `<` / `>=`, and the analyzer then misclassifies its stalls. Linux bans
// such comparisons with before()/after() serial arithmetic; here the type
// system bans them — Seq32 does not convert to or from integers, so every
// comparison and every advance goes through wraparound-safe operations.
//
// The type carries the guarantee: a Seq32 never compares with a raw
// integer, and its relational operators are wrap-safe (tests/seq_test.cc
// pins both at compile time). Project style inside src/ still prefers the
// named helpers below — before(), after(), at_or_before(), at_or_after() —
// which read like the Linux code they mirror; the operators serve generic
// code and tests.
//
// Distances: distance(from, to) is the forward byte count (mod 2^32) and
// is the wrap-safe spelling of `to - from`; the subtraction operator
// yields the signed serial difference. Both are exact while the values
// span less than 2^31 bytes, which TCP's window rules guarantee.
#pragma once

#include <cstdint>
#include <string>

#include "util/strong_types.h"

namespace tapo::net {

/// TCP sequence number (RFC 793 §3.3 sequence space, RFC 1982 ordering).
using Seq32 = util::SerialNumber<struct Seq32Tag, std::uint32_t>;

/// `a` is strictly earlier in the stream than `b` (Linux before()).
constexpr bool before(Seq32 a, Seq32 b) {
  return util::serial_before(a.raw(), b.raw());
}

/// `a` is strictly later in the stream than `b` (Linux after()).
constexpr bool after(Seq32 a, Seq32 b) {
  return util::serial_after(a.raw(), b.raw());
}

/// a == b || before(a, b) — the wrap-safe `<=`.
constexpr bool at_or_before(Seq32 a, Seq32 b) { return !after(a, b); }

/// a == b || after(a, b) — the wrap-safe `>=`.
constexpr bool at_or_after(Seq32 a, Seq32 b) { return !before(a, b); }

/// Forward byte count from `from` to `to` (mod 2^32). The wrap-safe
/// spelling of `to - from` for ranges known to run forward.
constexpr std::uint32_t distance(Seq32 from, Seq32 to) {
  return static_cast<std::uint32_t>(to.raw() - from.raw());
}

/// `s` advanced by `n` bytes (mod 2^32). Accepts 64-bit counts so stream
/// offsets can be folded in directly.
constexpr Seq32 advance(Seq32 s, std::uint64_t n) {
  return Seq32(static_cast<std::uint32_t>(s.raw() + n));
}

/// Later / earlier of two sequence numbers under serial ordering — the
/// wrap-safe std::max / std::min.
constexpr Seq32 seq_max(Seq32 a, Seq32 b) { return after(a, b) ? a : b; }
constexpr Seq32 seq_min(Seq32 a, Seq32 b) { return before(a, b) ? a : b; }

/// `s` in [start, end) under serial ordering.
constexpr bool seq_in_range(Seq32 s, Seq32 start, Seq32 end) {
  return at_or_after(s, start) && before(s, end);
}

/// Comparator for ordered containers (std::set, std::sort). A strict weak
/// ordering as long as all stored values span < 2^31 bytes — true for any
/// per-flow working set (sequence windows are far smaller than 2 GB).
struct SeqLess {
  constexpr bool operator()(Seq32 a, Seq32 b) const { return before(a, b); }
};

inline std::string to_string(Seq32 s) { return std::to_string(s.raw()); }

}  // namespace tapo::net
