#include "util/logging.h"

#include <cstdio>

namespace tapo::internal {

WarnLine::~WarnLine() {
  std::fprintf(stderr, "[WARN] %s\n", stream_.str().c_str());
}

}  // namespace tapo::internal
