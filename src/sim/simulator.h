// Discrete-event simulation core.
//
// A single-threaded event loop with microsecond virtual time. Events
// scheduled for the same instant fire in scheduling order (FIFO), which
// keeps runs fully deterministic. Timers are cancellable handles — TCP
// rearms/cancels its RTO, delayed-ACK, probe and persist timers constantly,
// so cancellation is O(1). Handlers live in a slot vector that a free list
// recycles, so scheduling allocates nothing once the slots have grown. An
// EventId names a (slot, generation) pair: firing or cancelling an event
// frees its slot and bumps the slot's generation, so a stale id matches
// nothing, and the queue entries it leaves behind are dropped lazily at pop
// time. A slot is pending exactly while its generation matches an id that
// was handed out.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "util/time.h"

namespace tapo::sim {

using EventFn = std::function<void()>;

/// Identifies a scheduled event: its slot in the low 32 bits, the slot's
/// generation (never 0) in the high 32. 0 is never a valid id.
using EventId = std::uint64_t;

class Simulator {
 public:
  TimePoint now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to now.
  EventId schedule(Duration delay, EventFn fn);
  EventId schedule_at(TimePoint when, EventFn fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown id is a
  /// no-op (timers race with the events that cancel them).
  void cancel(EventId id);

  /// Runs until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= deadline.
  std::size_t run_until(TimePoint deadline);

  /// Watchdog variant: runs events with timestamp <= deadline, but at most
  /// `max_events` of them. Returns the number executed; a return value equal
  /// to `max_events` with runnable work still pending (next_event_time() at
  /// or before the deadline) means the budget tripped — the caller decides
  /// whether that is divergence. Event order is identical to the unbudgeted
  /// overload, so a budget that never trips changes nothing.
  std::size_t run_until(TimePoint deadline, std::size_t max_events);

  /// Timestamp of the earliest pending (non-cancelled) event, if any.
  /// Non-const: lazily drops cancelled tombstones off the queue head.
  std::optional<TimePoint> next_event_time();

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

 private:
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
  };
  struct Event {
    TimePoint when;
    std::uint64_t seq;  // scheduling order
    std::uint32_t slot;
    std::uint32_t generation;
    // Heap entry ordering: earliest time first; FIFO among equal times.
    bool operator>(const Event& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  /// Drops cancelled entries off the top of the queue until the head is a
  /// live event (it stays queued, so callers can peek the deadline first)
  /// or the queue is exhausted.
  bool peek_runnable();
  /// Pops the head (a live event), advances the clock to it and runs it.
  void fire_head();
  /// Destroys the slot's handler and recycles the slot under a new
  /// generation. A slot whose generation would wrap to 0 is retired.
  void release(std::uint32_t slot);

  TimePoint now_ = TimePoint::epoch();
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// A self-rearming timer bound to one Simulator. Guarantees at most one
/// pending expiry; arm() while pending reschedules.
class Timer {
 public:
  Timer(Simulator& sim, EventFn on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void arm(Duration delay);
  void cancel();
  bool armed() const { return pending_ != 0; }
  TimePoint deadline() const { return deadline_; }

 private:
  Simulator& sim_;
  EventFn on_fire_;
  EventId pending_ = 0;
  TimePoint deadline_;
};

}  // namespace tapo::sim
