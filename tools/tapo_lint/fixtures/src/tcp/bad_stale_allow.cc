// Fixture: suppression pragmas that suppress nothing (the named rule does
// not fire on the pragma's line or the one below) or name a rule the
// linter does not have, next to a live suppression that stays silent.
#include <atomic>

namespace fixture {

// tapo-lint: allow(raw-rand) — nothing here draws random numbers;  expect-lint: stale-allow
int idle() { return 0; }

// tapo-lint: allow(no-such-rule) — misspelled rule name;  expect-lint: stale-allow
int also_idle() { return 1; }

int live(std::atomic<int>& v) {
  // tapo-lint: allow(relaxed-atomic) — fixture: live suppression, no stale-allow
  return v.load(std::memory_order_relaxed);
}

}  // namespace fixture
