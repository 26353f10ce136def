#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/link.h"
#include "telemetry/telemetry.h"

namespace tapo::sim {

namespace {

/// Batched event accounting: one registry add per run()/run_until() call,
/// never per event, so the event loop's hot path is untouched.
void count_executed(std::size_t executed) {
  if (executed == 0 || !telemetry::metrics_enabled()) return;
  static auto& events =
      telemetry::Registry::instance().counter("tapo_sim_events_total");
  events.add(executed);
}

// std::*_heap build a max-heap, so "less" is "fires later".
constexpr auto fires_later = [](const auto& a, const auto& b) {
  return b.key < a.key;
};

}  // namespace

void Simulator::schedule(Duration delay, EventFn fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  schedule_at(now() + delay, std::move(fn));
}

void Simulator::schedule_at(TimePoint when, EventFn fn) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  push(Entry{.key = take_key(when), .slot = slot});
  ++pending_;
}

void Simulator::push(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), fires_later);
}

void Simulator::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), fires_later);
  heap_.pop_back();
}

void Simulator::drop(const void* owner) {
  // Marking leaves every key in place, so the heap order holds.
  for (Entry& e : heap_) {
    if (e.owner == owner) e.kind = Kind::kDropped;
  }
}

bool Simulator::peek_runnable() {
  while (!heap_.empty()) {
    const Entry& head = heap_.front();
    if (head.kind != Kind::kTimer && head.kind != Kind::kDropped) return true;
    if (head.kind == Kind::kTimer) {
      Timer& t = *static_cast<Timer*>(head.owner);
      // Any other entry of the timer was superseded by an earlier re-arm.
      if (head.key == t.entry_) {
        if (t.armed_ && t.expiry_ == head.key) return true;
        if (t.armed_) {
          // Re-armed later since this entry was pushed: move it there.
          Entry moved = head;
          moved.key = t.entry_ = t.expiry_;
          pop();
          push(moved);
          continue;
        }
        t.entry_ = kNoKey;  // cancelled
      }
    }
    pop();
  }
  return false;
}

void Simulator::fire_head() {
  check_pending();
  const Entry head = heap_.front();
  pop();
  clock_ = head.key;
  switch (head.kind) {
    case Kind::kClosure: {
      // Free the slot before the handler runs: it may schedule into it.
      EventFn fn = std::move(slots_[head.slot]);
      free_slots_.push_back(head.slot);
      --pending_;
      fn();
      break;
    }
    case Kind::kTimer: {
      Timer& t = *static_cast<Timer*>(head.owner);
      t.entry_ = kNoKey;
      t.armed_ = false;
      --pending_;
      t.on_fire_();
      break;
    }
    case Kind::kLink:
      static_cast<Link*>(head.owner)->deliver_head();
      break;
    case Kind::kReordered:
      static_cast<Link*>(head.owner)->deliver_held(head.slot);
      break;
    case Kind::kDropped:
      break;  // peek_runnable never leaves one at the head
  }
}

#ifndef NDEBUG
void Simulator::check_pending() const {
  std::size_t closures = 0;
  std::size_t timers = 0;
  std::size_t packets = 0;
  for (const Entry& e : heap_) {
    switch (e.kind) {
      case Kind::kClosure: ++closures; break;
      case Kind::kTimer: {
        const Timer& t = *static_cast<const Timer*>(e.owner);
        if (t.armed_ && e.key == t.entry_) ++timers;
        break;
      }
      case Kind::kLink:
        packets += static_cast<const Link*>(e.owner)->wire_.size();
        break;
      case Kind::kReordered: ++packets; break;
      case Kind::kDropped: break;
    }
  }
  assert(closures == slots_.size() - free_slots_.size());
  assert(closures + timers + packets == pending_);
}
#endif

std::size_t Simulator::run(std::size_t limit) {
  std::size_t executed = 0;
  while (executed < limit && peek_runnable()) {
    fire_head();
    ++executed;
  }
  count_executed(executed);
  return executed;
}

std::size_t Simulator::run_until(TimePoint deadline) {
  return run_until(deadline, SIZE_MAX);
}

std::size_t Simulator::run_until(TimePoint deadline, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && peek_runnable()) {
    // Beyond the deadline: leave it queued for a later run call — no
    // re-push needed since we only peeked.
    if (heap_.front().key.when > deadline) break;
    fire_head();
    ++executed;
  }
  // Budget exhaustion leaves virtual time at the last executed event, so a
  // tripped watchdog reports where the run stuck rather than the deadline.
  const bool exhausted = executed >= max_events && peek_runnable() &&
                         heap_.front().key.when <= deadline;
  // Otherwise everything up to the deadline has run, bottleneck departures
  // that Link settles lazily included.
  if (!exhausted && now() <= deadline) clock_ = Key{deadline, next_seq_};
  count_executed(executed);
  return executed;
}

std::optional<TimePoint> Simulator::next_event_time() {
  if (!peek_runnable()) return std::nullopt;
  return heap_.front().key.when;
}

Timer::~Timer() {
  cancel();
  sim_.drop(this);
}

void Timer::arm(Duration delay) {
  if (!armed_) ++sim_.pending_;
  armed_ = true;
  expiry_ = sim_.take_key(sim_.now() + delay);
  // A queued entry at or before the new expiry re-pushes itself when it
  // reaches the head; only an earlier expiry needs an entry of its own.
  if (expiry_ < entry_) {
    entry_ = expiry_;
    sim_.push(Simulator::Entry{
        .key = expiry_, .owner = this, .kind = Simulator::Kind::kTimer});
  }
}

void Timer::cancel() {
  // The queued entry stays; it is dropped when it reaches the head, or
  // reused by the next arm.
  if (!armed_) return;
  armed_ = false;
  --sim_.pending_;
}

}  // namespace tapo::sim
