// Kernel-style TCP segment accounting.
//
// Android's Data_Stall detector is driven by the Linux kernel's per-window
// TCP statistics: "over 10 outbound TCP segments but not a single inbound
// TCP segment during the last minute" (§2.1). This class reproduces that
// accounting: callers report segment sends/receives with timestamps and the
// detector queries counts over a trailing window.
//
// Steady app traffic is a periodic flow rather than one call per segment:
// start_flow() sends a segment every `period`, each one received while the
// inbound gate is open (NetworkStack::inject_fault drives the gate). Flow
// segments are added lazily: a query, a gate change or a stop at `now` first
// adds the segments at instants strictly before `now`, so the segment due at
// `now` itself sees every same-instant gate change.

#ifndef CELLREL_NET_TCP_STATS_H
#define CELLREL_NET_TCP_STATS_H

#include <cstdint>
#include <deque>

#include "common/sim_time.h"

namespace cellrel {

/// Sliding-window counters of TCP segments seen by the network stack.
class TcpSegmentCounters {
 public:
  /// `window`: how far back queries look (Android uses one minute).
  explicit TcpSegmentCounters(SimDuration window = SimDuration::minutes(1));

  void on_segment_sent(SimTime now);
  void on_segment_received(SimTime now);

  /// Starts a periodic flow with segments at `t0 + k·period`, k >= 0; the
  /// segment at `t0` is counted at once. A running flow is stopped at `t0`
  /// first.
  void start_flow(SimTime t0, SimDuration period);
  /// Ends the flow: no segment at or after `now` is added.
  void stop_flow(SimTime now);
  bool flow_running() const { return flow_period_ > SimDuration::zero(); }

  /// Whether flow segments are received. Set by the owning NetworkStack on
  /// every fault change: open iff the data path works end to end.
  void set_inbound_open(SimTime now, bool open);
  bool inbound_open() const { return inbound_open_; }

  /// Counts within (now - window, now].
  std::uint64_t sent_in_window(SimTime now) const;
  std::uint64_t received_in_window(SimTime now) const;

  /// Android's stall predicate: > `sent_threshold` outbound and zero inbound
  /// segments within the window.
  bool stall_suspected(SimTime now, std::uint64_t sent_threshold = 10) const;

  /// Segments added so far (flow segments count once they are added).
  std::uint64_t total_sent() const { return total_sent_; }
  std::uint64_t total_received() const { return total_received_; }

  SimDuration window() const { return window_; }

 private:
  /// Adds the flow segments due strictly before `now`, then drops what fell
  /// out of the window.
  void advance(SimTime now) const;
  void add_flow_segment(SimTime at) const;

  SimDuration window_;
  mutable std::deque<SimTime> sent_;
  mutable std::deque<SimTime> received_;
  mutable std::uint64_t total_sent_ = 0;
  mutable std::uint64_t total_received_ = 0;
  // Flow state; zero period = no flow. next_flow_segment_ is the first
  // instant not yet added.
  SimDuration flow_period_ = SimDuration::zero();
  mutable SimTime next_flow_segment_;
  bool inbound_open_ = true;
};

}  // namespace cellrel

#endif  // CELLREL_NET_TCP_STATS_H
