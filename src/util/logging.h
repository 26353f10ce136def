// Warning log, the one level the library uses: TAPO_WARN << ...; writes
// one "[WARN] <message>" line to stderr.
#pragma once

#include <sstream>

namespace tapo::internal {

/// Collects one warning line and writes it to stderr when destroyed.
class WarnLine {
 public:
  WarnLine() = default;
  ~WarnLine();
  WarnLine(const WarnLine&) = delete;
  WarnLine& operator=(const WarnLine&) = delete;

  template <typename T>
  WarnLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace tapo::internal

#define TAPO_WARN ::tapo::internal::WarnLine()
