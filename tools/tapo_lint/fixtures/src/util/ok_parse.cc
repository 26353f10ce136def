// Fixture: src/util/ implements the validated parse helpers, so the
// naked-parse rule must not fire on the primitives it wraps.
#include <cstdlib>

namespace fixture {
long primitive(const char* s) { return std::strtol(s, nullptr, 10); }
double real_primitive(const char* s) { return std::strtod(s, nullptr); }
}  // namespace fixture
