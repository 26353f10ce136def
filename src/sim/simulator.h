// Discrete-event simulation core.
//
// A single-threaded event loop with microsecond virtual time. Every event
// has a key, (time, sequence number), the sequence number drawn from one
// counter when the event is scheduled; events fire in key order, so events
// at the same instant fire in scheduling order and runs are fully
// deterministic. The binary heap holds a few entries per connection rather
// than one per event, because two kinds of source keep their own events:
//  - A `Timer` keeps its expiry key in place. A re-arm to a later key leaves
//    the timer's queued entry alone: when that entry reaches the head it
//    re-checks the timer and re-pushes itself at the new key. Only a re-arm
//    to an earlier key pushes a new entry, and an entry that no longer
//    stands for its timer's expiry is dropped at the head without firing or
//    counting. TCP re-arms its retransmission timer on every ACK, so this
//    leaves one entry where cancel-and-reschedule left a tombstone per ACK.
//  - A `Link` (link.h) keeps its in-order packets in a FIFO ring sorted by
//    key and only the ring's head in the heap.
// Any other event is a one-shot closure whose handler lives in a slot that
// a free list recycles, so scheduling allocates nothing once the slots have
// grown. Closures cannot be cancelled; a `Timer` can.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/time.h"

namespace tapo::sim {

using EventFn = std::function<void()>;

class Link;
class Timer;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return clock_.when; }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to now.
  void schedule(Duration delay, EventFn fn);
  void schedule_at(TimePoint when, EventFn fn);

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

  /// Timestamp of the earliest pending event, if any. Non-const: settles
  /// stale timer entries at the queue head first.
  std::optional<TimePoint> next_event_time();

  /// Pending events: closures, armed timers and packets on link rings.
  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

 private:
  friend class Link;
  friend class Timer;

  /// An event's place in the order: earliest time first, then scheduling
  /// order.
  struct Key {
    TimePoint when;
    std::uint64_t seq = 0;
    auto operator<=>(const Key&) const = default;
  };
  /// Greater than every key that is drawn: a timer with no queued entry.
  static constexpr Key kNoKey{TimePoint::max(), UINT64_MAX};

  enum class Kind : std::uint8_t { kClosure, kTimer, kLink, kDropped };
  struct Entry {
    Key key;
    void* owner = nullptr;  // the Timer or Link
    std::uint32_t slot = 0;  // kClosure: index into slots_
    Kind kind = Kind::kClosure;
  };

  /// The key of an event scheduled now for `when` (clamped to now).
  Key take_key(TimePoint when) {
    return Key{when < clock_.when ? clock_.when : when, next_seq_++};
  }
  /// True if an event with key `k` would already have fired: it orders
  /// before the event now running or, between runs, before the point the
  /// last run reached.
  bool past(const Key& k) const { return k < clock_; }
  void push(const Entry& e);
  void pop();
  /// Marks every queued entry of a destroyed Timer or Link as dropped.
  void drop(const void* owner);

  /// Settles stale timer entries and drops dead ones off the top of the
  /// queue until the head is a live event (it stays queued, so callers can
  /// peek the deadline first) or the queue is exhausted.
  bool peek_runnable();
  /// Pops the head (a live event), advances the clock to it and runs it.
  void fire_head();

#ifdef NDEBUG
  void check_pending() const {}
#else
  /// Recounts pending_ from the queue: live closure slots, armed timers and
  /// the packets on each queued link ring.
  void check_pending() const;
#endif

  /// The key of the event now running; between runs, the point the last
  /// run reached.
  Key clock_{TimePoint::epoch(), 0};
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  std::vector<Entry> heap_;  // a min-heap on Entry::key
  std::vector<EventFn> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// A self-rearming timer bound to one Simulator, which must outlive it.
/// Guarantees at most one pending expiry; arm() while pending reschedules.
class Timer {
 public:
  Timer(Simulator& sim, EventFn on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void arm(Duration delay);
  void cancel();
  bool armed() const { return armed_; }
  TimePoint deadline() const { return expiry_.when; }

 private:
  friend class Simulator;

  Simulator& sim_;
  EventFn on_fire_;
  bool armed_ = false;
  Simulator::Key expiry_;                     // valid while armed
  Simulator::Key entry_ = Simulator::kNoKey;  // the entry that stands for it
};

}  // namespace tapo::sim
