#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "net/network_stack.h"
#include "net/tcp_stats.h"
#include "sim/event_queue.h"
#include "telephony/data_stall.h"

namespace cellrel {
namespace {

// --- TCP segment accounting ---

TEST(TcpStats, WindowCountsAndExpiry) {
  TcpSegmentCounters tcp{SimDuration::minutes(1)};
  SimTime t = SimTime::origin();
  for (int i = 0; i < 5; ++i) {
    tcp.on_segment_sent(t);
    t += SimDuration::seconds(10);
  }
  EXPECT_EQ(tcp.sent_in_window(t), 5u);
  // 61 s after the first send it falls out of the window.
  EXPECT_EQ(tcp.sent_in_window(SimTime::origin() + SimDuration::seconds(61)), 4u);
  EXPECT_EQ(tcp.total_sent(), 5u);
}

TEST(TcpStats, StallPredicateMatchesAndroidRule) {
  // ">10 outbound and not a single inbound TCP segment during the last
  // minute" (§2.1).
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  for (int i = 0; i < 10; ++i) {
    tcp.on_segment_sent(t);
    t += SimDuration::seconds(1);
  }
  EXPECT_FALSE(tcp.stall_suspected(t));  // exactly 10 is not "over 10"
  tcp.on_segment_sent(t);
  EXPECT_TRUE(tcp.stall_suspected(t));
  tcp.on_segment_received(t);
  EXPECT_FALSE(tcp.stall_suspected(t));
}

TEST(TcpStats, InboundExpiryReenablesSuspicion) {
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  tcp.on_segment_received(t);
  for (int i = 0; i < 30; ++i) {
    tcp.on_segment_sent(t);
    t += SimDuration::seconds(1);
  }
  // At t = 30 s the received segment is still inside the window.
  EXPECT_FALSE(tcp.stall_suspected(t));
  // Past 60 s, only sends remain.
  EXPECT_TRUE(tcp.stall_suspected(SimTime::origin() + SimDuration::seconds(61)));
}

TEST(TcpStats, CustomThreshold) {
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  for (int i = 0; i < 4; ++i) tcp.on_segment_sent(t);
  EXPECT_FALSE(tcp.stall_suspected(t, 4));  // "over" is strict
  EXPECT_TRUE(tcp.stall_suspected(t, 3));
}

// --- Periodic flows ---

constexpr SimDuration kPeriod = SimDuration::seconds(2.5);

SimTime at_s(double s) { return SimTime::from_seconds(s); }

TEST(TcpFlow, SegmentAtNowIsNotYetCounted) {
  TcpSegmentCounters tcp;
  tcp.start_flow(SimTime::origin(), kPeriod);
  EXPECT_EQ(tcp.sent_in_window(SimTime::origin()), 1u);  // t0 counts at once
  EXPECT_EQ(tcp.received_in_window(SimTime::origin()), 1u);
  // At a grid instant the segment due "now" has not been sent yet.
  EXPECT_EQ(tcp.sent_in_window(at_s(2.5)), 1u);
  EXPECT_EQ(tcp.sent_in_window(at_s(2.5) + SimDuration::microseconds(1)), 2u);
  EXPECT_EQ(tcp.sent_in_window(at_s(10.0)), 4u);
  EXPECT_EQ(tcp.total_sent(), 4u);
  EXPECT_TRUE(tcp.flow_running());
}

TEST(TcpFlow, GateChangeAtGridInstantAppliesToThatSegment) {
  TcpSegmentCounters tcp;
  tcp.start_flow(SimTime::origin(), kPeriod);
  tcp.set_inbound_open(at_s(10.0), false);  // segments 0..7.5 s were received
  EXPECT_EQ(tcp.sent_in_window(at_s(12.5)), 5u);
  EXPECT_EQ(tcp.received_in_window(at_s(12.5)), 4u);  // 10 s segment was not
  tcp.set_inbound_open(at_s(20.0), true);
  EXPECT_EQ(tcp.sent_in_window(at_s(20.0) + SimDuration::microseconds(1)), 9u);
  EXPECT_EQ(tcp.received_in_window(at_s(20.0) + SimDuration::microseconds(1)), 5u);
  EXPECT_EQ(tcp.total_received(), 5u);
}

TEST(TcpFlow, NoSegmentAtOrAfterStop) {
  TcpSegmentCounters tcp;
  tcp.start_flow(SimTime::origin(), kPeriod);
  tcp.stop_flow(at_s(7.5));  // 0, 2.5 and 5 s only
  EXPECT_FALSE(tcp.flow_running());
  EXPECT_EQ(tcp.sent_in_window(at_s(30.0)), 3u);
  EXPECT_EQ(tcp.total_sent(), 3u);
  EXPECT_EQ(tcp.sent_in_window(at_s(66.0)), 0u);  // and they age out
}

TEST(TcpFlow, RestartWithinWindowSeesPreviousFlow) {
  TcpSegmentCounters tcp;
  tcp.set_inbound_open(SimTime::origin(), false);  // every segment unanswered
  tcp.start_flow(SimTime::origin(), kPeriod);
  tcp.stop_flow(at_s(25.0));                       // 0 .. 22.5 s: 10 segments
  tcp.start_flow(at_s(40.0), kPeriod);
  EXPECT_EQ(tcp.sent_in_window(at_s(40.0)), 11u);
  EXPECT_TRUE(tcp.stall_suspected(at_s(40.0)));
  // At 61 s the 0 s segment has aged out: 9 old + 40 .. 60 s new.
  EXPECT_EQ(tcp.sent_in_window(at_s(61.0)), 18u);
  EXPECT_EQ(tcp.received_in_window(at_s(61.0)), 0u);
}

TEST(TcpFlow, NetworkStackDrivesTheGate) {
  Simulator sim;
  TcpSegmentCounters tcp;
  NetworkStack stack(sim, Rng{8}, &tcp);
  for (const NetworkFault f : kAllNetworkFaults) {
    stack.inject_fault(f);
    EXPECT_EQ(tcp.inbound_open(), f == NetworkFault::kNone) << to_string(f);
  }
  // The gate closes at the fault's own instant, so a grid segment that
  // coincides with it goes unanswered.
  stack.inject_fault(NetworkFault::kNone);
  tcp.start_flow(sim.now(), kPeriod);
  sim.schedule_at(at_s(5.0), [&] { stack.inject_fault(NetworkFault::kNetworkStall); });
  sim.run_until(at_s(8.0));
  EXPECT_EQ(tcp.sent_in_window(sim.now()), 4u);
  EXPECT_EQ(tcp.received_in_window(sim.now()), 2u);
}

// Differential check: the per-segment ticker the campaign used to run (one
// Simulator event every 2.5 s, inbound iff the fault is kNone at that
// instant) and the lazy flow must drive Android's detector to the same
// episode starts and clears, fault changes on grid instants included.

struct FaultChange {
  SimTime at;
  NetworkFault fault;
};

struct FlowCase {
  SimTime start;
  SimTime stop;
  SimTime end;
  std::vector<FaultChange> faults;
};

FlowCase random_flow_case(std::uint64_t seed) {
  Rng rng(seed);
  FlowCase c;
  c.start = SimTime::origin() + SimDuration::microseconds(rng.uniform_int(0, 30'000'000));
  const std::int64_t ticks = rng.uniform_int(40, 600);
  const auto grid = [&](std::int64_t k) { return c.start + kPeriod * static_cast<double>(k); };
  c.stop = rng.bernoulli(0.5)
               ? grid(ticks)
               : grid(ticks) + SimDuration::microseconds(rng.uniform_int(1, 2'499'999));
  c.end = c.stop + SimDuration::minutes(3);
  const std::int64_t changes = rng.uniform_int(1, 40);
  for (std::int64_t i = 0; i < changes; ++i) {
    const std::int64_t k = rng.uniform_int(0, ticks + 10);
    const SimTime at =
        rng.bernoulli(0.5) ? grid(k)
                           : grid(k) + SimDuration::microseconds(rng.uniform_int(1, 2'499'999));
    const NetworkFault f =
        rng.bernoulli(0.5) ? NetworkFault::kNone
                           : kAllNetworkFaults[static_cast<std::size_t>(rng.uniform_int(1, 5))];
    c.faults.push_back({at, f});
  }
  return c;
}

class EpisodeLog final : public FailureEventListener {
 public:
  void on_failure_event(const FailureEvent& event) override {
    if (event.type == FailureType::kDataStall) log.emplace_back(true, event.at);
  }
  void on_failure_cleared(FailureType type, SimTime at) override {
    if (type == FailureType::kDataStall) log.emplace_back(false, at);
  }
  std::vector<std::pair<bool, SimTime>> log;
};

/// Runs one case; `use_flow` picks the lazy flow over the per-segment ticker.
std::vector<std::pair<bool, SimTime>> run_flow_case(const FlowCase& c, bool use_flow) {
  Simulator sim;
  TcpSegmentCounters tcp;
  // Only the flow reads the gate; the ticker looks at the fault itself.
  NetworkStack stack(sim, Rng{9}, use_flow ? &tcp : nullptr);
  DataStallDetector detector(sim, tcp, stack);
  EpisodeLog episodes;
  detector.add_listener(&episodes);
  // Fault changes are scheduled first, as the campaign schedules them more
  // than one period ahead: at a shared instant they run before the segment.
  for (const FaultChange& f : c.faults) {
    sim.schedule_at(f.at, [&stack, fault = f.fault] { stack.inject_fault(fault); });
  }
  bool ticking = false;
  std::function<void()> tick = [&] {
    if (!ticking) return;
    tcp.on_segment_sent(sim.now());
    if (stack.fault() == NetworkFault::kNone) tcp.on_segment_received(sim.now());
    sim.schedule_after(kPeriod, [&tick] { tick(); });
  };
  sim.schedule_at(c.start, [&] {
    if (use_flow) {
      tcp.start_flow(sim.now(), kPeriod);
    } else {
      ticking = true;
      tick();
    }
    detector.start();
  });
  sim.schedule_at(c.stop, [&] {
    if (use_flow) {
      tcp.stop_flow(sim.now());
    } else {
      ticking = false;
    }
  });
  sim.run_until(c.end);
  detector.stop();
  return episodes.log;
}

TEST(TcpFlow, MatchesPerSegmentTickerUnderRandomFaultSchedules) {
  std::size_t episodes = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FlowCase c = random_flow_case(seed);
    const auto ticker = run_flow_case(c, false);
    const auto flow = run_flow_case(c, true);
    EXPECT_EQ(flow, ticker);
    episodes += ticker.size();
  }
  EXPECT_GT(episodes, 200u);  // the schedules do open and close episodes
}

// --- Network stack probing semantics ---

struct ProbeResult {
  bool done = false;
  bool answered = false;
};

ProbeResult run_probe(Simulator& sim, NetworkStack& stack,
                      void (NetworkStack::*probe)(std::size_t, SimDuration,
                                                  NetworkStack::ProbeCallback),
                      SimDuration timeout) {
  ProbeResult result;
  (stack.*probe)(0, timeout, [&](const ProbeOutcome& o) {
    result.done = true;
    result.answered = o.answered;
  });
  sim.run();
  return result;
}

TEST(NetworkStack, HealthyAnswersEverything) {
  Simulator sim;
  NetworkStack stack(sim, Rng{1});
  bool local = false;
  stack.icmp_localhost(SimDuration::seconds(1), [&](const ProbeOutcome& o) {
    local = o.answered;
  });
  sim.run();
  EXPECT_TRUE(local);
  EXPECT_TRUE(run_probe(sim, stack, &NetworkStack::icmp_dns_server, SimDuration::seconds(1))
                  .answered);
  EXPECT_TRUE(run_probe(sim, stack, &NetworkStack::dns_query, SimDuration::seconds(5))
                  .answered);
}

TEST(NetworkStack, NetworkStallBlocksOutboundOnly) {
  Simulator sim;
  NetworkStack stack(sim, Rng{2});
  stack.inject_fault(NetworkFault::kNetworkStall);
  bool local = false;
  stack.icmp_localhost(SimDuration::seconds(1), [&](const ProbeOutcome& o) {
    local = o.answered;
  });
  sim.run();
  EXPECT_TRUE(local);  // loopback unaffected
  EXPECT_FALSE(run_probe(sim, stack, &NetworkStack::icmp_dns_server, SimDuration::seconds(1))
                   .answered);
  EXPECT_FALSE(run_probe(sim, stack, &NetworkStack::dns_query, SimDuration::seconds(5))
                   .answered);
}

TEST(NetworkStack, SystemSideFaultsBlockLocalhost) {
  for (NetworkFault f : {NetworkFault::kFirewallMisconfig, NetworkFault::kProxyBroken,
                         NetworkFault::kModemDriverWedged}) {
    Simulator sim;
    NetworkStack stack(sim, Rng{3});
    stack.inject_fault(f);
    EXPECT_TRUE(is_system_side(f));
    bool answered = true;
    stack.icmp_localhost(SimDuration::seconds(1), [&](const ProbeOutcome& o) {
      answered = o.answered;
    });
    sim.run();
    EXPECT_FALSE(answered) << to_string(f);
  }
}

TEST(NetworkStack, DnsOutageKeepsIcmpWorking) {
  Simulator sim;
  NetworkStack stack(sim, Rng{4});
  stack.inject_fault(NetworkFault::kDnsOutage);
  EXPECT_FALSE(is_system_side(NetworkFault::kDnsOutage));
  EXPECT_TRUE(run_probe(sim, stack, &NetworkStack::icmp_dns_server, SimDuration::seconds(1))
                  .answered);
  EXPECT_FALSE(run_probe(sim, stack, &NetworkStack::dns_query, SimDuration::seconds(5))
                   .answered);
}

TEST(NetworkStack, TimeoutBoundsElapsedTime) {
  Simulator sim;
  NetworkStack stack(sim, Rng{5});
  stack.inject_fault(NetworkFault::kNetworkStall);
  SimDuration elapsed;
  stack.dns_query(0, SimDuration::seconds(5), [&](const ProbeOutcome& o) {
    elapsed = o.elapsed;
    EXPECT_FALSE(o.answered);
  });
  const SimTime start = sim.now();
  sim.run();
  EXPECT_EQ(elapsed, SimDuration::seconds(5));
  EXPECT_EQ(sim.now() - start, SimDuration::seconds(5));
}

TEST(NetworkStack, ProbeCounterIncrements) {
  Simulator sim;
  NetworkStack stack(sim, Rng{6});
  EXPECT_EQ(stack.probes_sent(), 0u);
  stack.icmp_localhost(SimDuration::seconds(1), [](const ProbeOutcome&) {});
  stack.dns_query(0, SimDuration::seconds(5), [](const ProbeOutcome&) {});
  EXPECT_EQ(stack.probes_sent(), 2u);
  sim.run();
}

TEST(NetworkStack, FaultRecoveryRestoresService) {
  Simulator sim;
  NetworkStack stack(sim, Rng{7});
  stack.inject_fault(NetworkFault::kNetworkStall);
  stack.inject_fault(NetworkFault::kNone);
  EXPECT_TRUE(run_probe(sim, stack, &NetworkStack::dns_query, SimDuration::seconds(5))
                  .answered);
}

}  // namespace
}  // namespace cellrel
