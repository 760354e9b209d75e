// Discrete-event simulation engine.
//
// A Simulator owns a priority queue of timestamped events. Components
// schedule callbacks at absolute times or after delays and receive a
// ScheduledEvent handle that can cancel the callback (e.g. a Data_Stall
// recovery probation that is aborted because the stall resolved on its own).
// Ties are broken by insertion order so runs are fully deterministic.
//
// Scheduling, firing and cancelling do not allocate once the engine has
// warmed up: the heap holds small {time, seq, slot} keys, each callback
// lives inline in a slot of a slab owned by the Simulator, and freed slots
// are recycled through a free list. A slot's generation is the seq of the
// event occupying it; handles carry that generation, so a handle to an event
// that already fired or was popped never matches the slot's next occupant.

#ifndef CELLREL_SIM_EVENT_QUEUE_H
#define CELLREL_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace cellrel {

/// A move-only `void()` callable stored inline, with no heap fallback. The
/// capacity fits the largest capture scheduled in src/ (radio/ril.cpp's
/// ModemResult plus a std::function response callback); a larger capture
/// is a compile error.
class Callback {
 public:
  static constexpr std::size_t kCapacity = 56;

  Callback() = default;

  /// Implicit, so lambdas convert at schedule_at/schedule_after call sites.
  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, Callback> && std::is_invocable_r_v<void, Fn&>)
  Callback(F&& f) {
    static_assert(sizeof(Fn) <= kCapacity, "capture too large for Callback's inline buffer");
    static_assert(alignof(Fn) <= alignof(std::max_align_t), "over-aligned capture");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "Callback relocates captures with a noexcept move");
    std::construct_at(static_cast<Fn*>(static_cast<void*>(buf_)), std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Precondition: holds a callable.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable at `to` and destroys the one at `from`.
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static Fn* get(void* p) {
    return std::launder(static_cast<Fn*>(p));
  }

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* self) { (*get<Fn>(self))(); },
      [](void* to, void* from) noexcept {
        std::construct_at(static_cast<Fn*>(to), std::move(*get<Fn>(from)));
        std::destroy_at(get<Fn>(from));
      },
      [](void* self) noexcept { std::destroy_at(get<Fn>(self)); },
  };

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

class Simulator;

/// A cancellable handle to a scheduled callback. Copies refer to the same
/// event; cancelling any copy cancels the event. A handle must not be used
/// after its Simulator is destroyed.
class ScheduledEvent {
 public:
  ScheduledEvent() = default;

  /// Prevents the callback from running; a no-op if it already ran.
  void cancel();

  /// True if the callback has neither run (or started running) nor been
  /// cancelled.
  bool pending() const;

 private:
  friend class Simulator;
  ScheduledEvent(Simulator* sim, std::uint32_t slot, std::uint64_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

/// The simulation clock and event dispatcher.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now).
  ScheduledEvent schedule_at(SimTime at, Callback fn);

  /// Schedules `fn` to run after `delay` (>= 0).
  ScheduledEvent schedule_after(SimDuration delay, Callback fn);

  /// Runs events until the queue drains. Returns the number of events fired.
  std::size_t run();

  /// Runs events with time <= deadline; the clock ends at `deadline` even if
  /// the queue drained earlier. Returns the number of events fired.
  std::size_t run_until(SimTime deadline);

  /// Fires at most one event. Cancelled entries popped on the way still
  /// advance the clock. Returns false if the queue is empty.
  bool step();

  /// Queued entries, cancelled ones included until they are popped.
  std::size_t pending_events() const { return heap_.size(); }

 private:
  friend class ScheduledEvent;

  /// Generation of a slot that holds no event; seqs never reach it.
  static constexpr std::uint64_t kFreeSlot = std::numeric_limits<std::uint64_t>::max();

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    std::uint64_t gen = kFreeSlot;
    bool cancelled = false;
  };

  Key pop();
  bool fire(const Key& key);

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::vector<Key> heap_;  // min-heap on (time, seq) via Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

inline void ScheduledEvent::cancel() {
  if (sim_ == nullptr) return;
  Simulator::Slot& slot = sim_->slots_[slot_];
  if (slot.gen == gen_) slot.cancelled = true;
}

inline bool ScheduledEvent::pending() const {
  if (sim_ == nullptr) return false;
  const Simulator::Slot& slot = sim_->slots_[slot_];
  return slot.gen == gen_ && !slot.cancelled;
}

}  // namespace cellrel

#endif  // CELLREL_SIM_EVENT_QUEUE_H
