// Strong-type machinery for compile-time invariant enforcement.
//
// Two bug classes motivate this header (DESIGN.md "Static analysis &
// invariants"):
//
//  1. Wrapping counters compared with ordinary relational operators. A TCP
//     sequence number is a *serial number* (RFC 1982): a flow that crosses
//     the 2^32 wrap (any upload past 4 GB — routine for the paper's
//     cloud-storage service, Table 1) makes `seq_a < seq_b` on raw uint32_t
//     silently wrong, which misorders snd_una/snd_nxt/SACK edges and
//     misclassifies stalls. Linux bans raw comparisons with before()/
//     after(); SerialNumber<> makes the *compiler* ban them: no implicit
//     conversion to or from integers, and all comparisons go through
//     signed-difference serial arithmetic.
//
//  2. Unit mixups between integral quantities (milliseconds fed where
//     microseconds are expected, and vice versa). util/time.h's Duration /
//     TimePoint already enforce this for time; SerialNumber provides the
//     same discipline for wrap-prone counters (TCP sequence numbers via
//     net::Seq32, and any future wrapping 32-bit counter such as TCP
//     timestamp clocks).
//
// The free functions (serial_diff / serial_before / ...) are usable on raw
// unsigned values when a strong type is not warranted; SerialNumber wraps
// them into a distinct, trivially copyable value type.
#pragma once

#include <cstdint>
#include <type_traits>

namespace tapo::util {

// ---------------------------------------------------------------------------
// RFC 1982 serial-number arithmetic over any unsigned integer type.
// ---------------------------------------------------------------------------

/// Signed difference a - b in serial arithmetic: positive when `a` is ahead
/// of `b`, negative when behind. Well-defined for distances under half the
/// number space (2^31 for uint32_t) — exactly the window TCP guarantees.
template <typename UInt>
constexpr std::make_signed_t<UInt> serial_diff(UInt a, UInt b) {
  static_assert(std::is_unsigned_v<UInt>, "serial arithmetic needs an "
                                          "unsigned representation");
  return static_cast<std::make_signed_t<UInt>>(static_cast<UInt>(a - b));
}

/// Linux's before(): `a` is strictly earlier than `b` across wraparound.
template <typename UInt>
constexpr bool serial_before(UInt a, UInt b) {
  return serial_diff(a, b) < 0;
}

/// Linux's after(): `a` is strictly later than `b` across wraparound.
template <typename UInt>
constexpr bool serial_after(UInt a, UInt b) {
  return serial_diff(a, b) > 0;
}

// ---------------------------------------------------------------------------
// SerialNumber<Tag, UInt>: a wrap-safe strong serial-number type.
// ---------------------------------------------------------------------------

/// A distinct, trivially copyable serial-number type.
///
///  - Construction from the raw representation is explicit; there is no
///    conversion back (use raw()). Mixing with integers or with a
///    SerialNumber of a different Tag does not compile.
///  - operator< / <= / > / >= implement wraparound-safe serial comparison.
///    Note they are NOT a total order over the whole number space (serial
///    comparison cannot be); they are a strict weak ordering over any set
///    of values spanning less than half the space, which TCP windows
///    guarantee. Project style in src/ prefers the named helpers (seq.h's
///    before()/after()/...); the operators are equally wrap-safe and serve
///    generic code, tests and assertions.
///  - operator+/-(UInt) advance/retreat along the stream (mod 2^N);
///    operator-(SerialNumber) yields the signed serial difference.
template <typename Tag, typename UInt>
class SerialNumber {
  static_assert(std::is_unsigned_v<UInt>);

 public:
  using rep = UInt;
  using difference_type = std::make_signed_t<UInt>;

  constexpr SerialNumber() = default;
  constexpr explicit SerialNumber(UInt raw) : raw_(raw) {}

  constexpr UInt raw() const { return raw_; }

  constexpr bool operator==(const SerialNumber&) const = default;

  friend constexpr bool operator<(SerialNumber a, SerialNumber b) {
    return serial_before(a.raw_, b.raw_);
  }
  friend constexpr bool operator>(SerialNumber a, SerialNumber b) {
    return serial_after(a.raw_, b.raw_);
  }
  friend constexpr bool operator<=(SerialNumber a, SerialNumber b) {
    return !serial_after(a.raw_, b.raw_);
  }
  friend constexpr bool operator>=(SerialNumber a, SerialNumber b) {
    return !serial_before(a.raw_, b.raw_);
  }

  /// Advance / retreat along the stream; wraps mod 2^N by construction.
  friend constexpr SerialNumber operator+(SerialNumber s, UInt n) {
    return SerialNumber(static_cast<UInt>(s.raw_ + n));
  }
  friend constexpr SerialNumber operator-(SerialNumber s, UInt n) {
    return SerialNumber(static_cast<UInt>(s.raw_ - n));
  }
  constexpr SerialNumber& operator+=(UInt n) {
    raw_ = static_cast<UInt>(raw_ + n);
    return *this;
  }
  constexpr SerialNumber& operator-=(UInt n) {
    raw_ = static_cast<UInt>(raw_ - n);
    return *this;
  }

  /// Signed serial difference (ahead-of distance; see serial_diff).
  friend constexpr difference_type operator-(SerialNumber a, SerialNumber b) {
    return serial_diff(a.raw_, b.raw_);
  }

 private:
  UInt raw_ = 0;
};

}  // namespace tapo::util
