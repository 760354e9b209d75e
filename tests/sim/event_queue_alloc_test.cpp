// The event engine's allocation contract: once its slab, heap and free list
// have grown to a workload's peak, scheduling, cancelling and firing never
// touch the heap. This binary replaces the global operator new to count
// every allocation the process makes, so it is kept apart from cellrel_tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.h"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cellrel {
namespace {

struct MixCounts {
  std::uint64_t ops = 0;  // schedules + cancels + fires
  std::uint64_t fired = 0;
  std::uint64_t cancelled_ran = 0;
};

/// Rounds of a stall-like mix until `counts.ops` reaches `min_ops`: a
/// probation timer, a check and a probe answer are scheduled, the probation
/// is cancelled (the stall resolved on its own), and the other two fire.
void run_mix(Simulator& sim, std::uint64_t min_ops, MixCounts& counts) {
  while (counts.ops < min_ops) {
    ScheduledEvent probation = sim.schedule_after(SimDuration::seconds(60.0),
                                                  [&counts] { ++counts.cancelled_ran; });
    sim.schedule_after(SimDuration::seconds(1.0), [&counts] { ++counts.fired; });
    sim.schedule_after(SimDuration::seconds(2.5), [&counts, &sim, sent = sim.now()] {
      if (sim.now() > sent) ++counts.fired;
    });
    probation.cancel();
    counts.ops += 4;
    counts.ops += sim.run_until(sim.now() + SimDuration::seconds(120.0));
  }
}

TEST(SimulatorAllocation, CounterSeesAllocations) {
  const std::uint64_t before = g_allocations;
  void* p = ::operator new(16);
  ::operator delete(p);
  EXPECT_EQ(g_allocations - before, 1u);
}

TEST(SimulatorAllocation, ScheduleCancelFireAllocateNothingAfterWarmUp) {
  Simulator sim;
  MixCounts warm_up;
  run_mix(sim, 100, warm_up);  // grows the slab, heap and free list to their peak

  MixCounts counts;
  const std::uint64_t before = g_allocations;
  run_mix(sim, 10'000, counts);
  const std::uint64_t allocations = g_allocations - before;

  EXPECT_GE(counts.ops, 10'000u);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(counts.fired, counts.ops / 6 * 2);
  EXPECT_EQ(counts.cancelled_ran, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace cellrel
