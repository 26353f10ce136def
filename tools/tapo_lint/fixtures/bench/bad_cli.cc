// Fixture: bench binaries must route CLI/env numbers through the util
// validated-parse helpers.
#include <cstdlib>
#include <string>

namespace fixture {
int flows(const char* arg) {
  return std::atoi(arg);  // expect-lint: naked-parse
}
double tau(const char* arg) {
  return std::atof(arg);  // expect-lint: naked-parse
}
double loss(const char* arg) {
  return std::strtod(arg, nullptr);  // expect-lint: naked-parse
}
float rate(const char* arg) {
  return std::strtof(arg, nullptr);  // expect-lint: naked-parse
}
double ratio(const std::string& arg) {
  return std::stod(arg);  // expect-lint: naked-parse
}
float share(const std::string& arg) {
  return std::stof(arg);  // expect-lint: naked-parse
}
}  // namespace fixture
