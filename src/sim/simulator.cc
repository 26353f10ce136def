#include "sim/simulator.h"

#include <utility>

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

}  // namespace

EventId Simulator::schedule(Duration delay, EventFn fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(TimePoint when, EventFn fn) {
  if (when < now_) when = now_;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  queue_.push(Event{when, next_seq_++, slot, s.generation});
  ++pending_;
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

void Simulator::cancel(EventId id) {
  // The queue entry becomes a stale tombstone, dropped by peek_runnable.
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation != 0 && slot < slots_.size() &&
      slots_[slot].generation == generation) {
    release(slot);
  }
}

void Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  --pending_;
  if (++s.generation != 0) free_slots_.push_back(slot);
}

bool Simulator::peek_runnable() {
  while (!queue_.empty()) {
    const Event& ev = queue_.top();
    if (slots_[ev.slot].generation == ev.generation) return true;
    queue_.pop();  // cancelled: its slot has moved on to a new generation
  }
  return false;
}

void Simulator::fire_head() {
  const Event ev = queue_.top();
  queue_.pop();
  now_ = ev.when;
  // Free the slot before the handler runs: it may schedule into it, and a
  // cancel of its own id is then a no-op.
  EventFn fn = std::move(slots_[ev.slot].fn);
  release(ev.slot);
  fn();
}

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
    // Beyond the deadline: leave it queued (handler intact) for a later
    // run call — no re-push needed since we only peeked.
    if (queue_.top().when > deadline) break;
    fire_head();
    ++executed;
  }
  // Budget exhaustion leaves virtual time at the last executed event, so a
  // tripped watchdog reports where the run stuck rather than the deadline.
  const bool exhausted = executed >= max_events && peek_runnable() &&
                         queue_.top().when <= deadline;
  if (!exhausted && now_ < deadline) now_ = deadline;
  count_executed(executed);
  return executed;
}

std::optional<TimePoint> Simulator::next_event_time() {
  if (!peek_runnable()) return std::nullopt;
  return queue_.top().when;
}

void Timer::arm(Duration delay) {
  cancel();
  deadline_ = sim_.now() + delay;
  pending_ = sim_.schedule(delay, [this] {
    pending_ = 0;
    on_fire_();
  });
}

void Timer::cancel() {
  if (pending_ != 0) {
    sim_.cancel(pending_);
    pending_ = 0;
  }
}

}  // namespace tapo::sim
