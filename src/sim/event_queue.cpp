#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace cellrel {

ScheduledEvent Simulator::schedule_at(SimTime at, Callback fn) {
  if (at < now_) throw std::invalid_argument("Simulator: cannot schedule in the past");
  std::uint32_t index;
  if (free_slots_.empty()) {
    CELLREL_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max())
        << "event slab is full";
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.gen = seq;
  heap_.push_back(Key{at, seq, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return ScheduledEvent{this, index, seq};
}

ScheduledEvent Simulator::schedule_after(SimDuration delay, Callback fn) {
  if (delay.is_negative()) throw std::invalid_argument("Simulator: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

Simulator::Key Simulator::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  return key;
}

bool Simulator::fire(const Key& key) {
  Slot& slot = slots_[key.slot];
  CELLREL_CHECK(slot.gen == key.seq)
      << "event #" << key.seq << " lost its slot " << key.slot << " (slot generation "
      << slot.gen << ")";
  CELLREL_CHECK(key.time >= now_) << "simulation clock would run backwards: event at "
                                  << to_string(key.time) << ", clock at " << to_string(now_);
  // The popped key must still be the (time, seq) minimum of what remains.
  CELLREL_DCHECK(heap_.empty() || heap_.front().time > key.time ||
                 (heap_.front().time == key.time && heap_.front().seq > key.seq))
      << "event heap order violated";
  now_ = key.time;
  // Free the slot before running: the callback may schedule (reusing the
  // slot or growing the slab, which moves every slot), and its own handle
  // must already read as not pending.
  Callback fn = std::move(slot.fn);
  const bool cancelled = slot.cancelled;
  slot.gen = kFreeSlot;
  slot.cancelled = false;
  free_slots_.push_back(key.slot);
  if (cancelled) return false;
  fn();
  return true;
}

std::size_t Simulator::run() {
  std::size_t fired = 0;
  while (!heap_.empty()) {
    if (fire(pop())) ++fired;
  }
  return fired;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().time <= deadline) {
    if (fire(pop())) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

bool Simulator::step() {
  while (!heap_.empty()) {
    if (fire(pop())) return true;
  }
  return false;
}

}  // namespace cellrel
