#include "net/tcp_stats.h"

#include "common/check.h"

namespace cellrel {

TcpSegmentCounters::TcpSegmentCounters(SimDuration window) : window_(window) {}

void TcpSegmentCounters::add_flow_segment(SimTime at) const {
  sent_.push_back(at);
  ++total_sent_;
  if (inbound_open_) {
    received_.push_back(at);
    ++total_received_;
  }
}

void TcpSegmentCounters::advance(SimTime now) const {
  if (flow_running()) {
    for (; next_flow_segment_ < now; next_flow_segment_ += flow_period_) {
      add_flow_segment(next_flow_segment_);
    }
  }
  const SimTime cutoff = now - window_;
  while (!sent_.empty() && sent_.front() <= cutoff) sent_.pop_front();
  while (!received_.empty() && received_.front() <= cutoff) received_.pop_front();
}

void TcpSegmentCounters::on_segment_sent(SimTime now) {
  advance(now);
  sent_.push_back(now);
  ++total_sent_;
}

void TcpSegmentCounters::on_segment_received(SimTime now) {
  advance(now);
  received_.push_back(now);
  ++total_received_;
}

void TcpSegmentCounters::start_flow(SimTime t0, SimDuration period) {
  CELLREL_CHECK(period > SimDuration::zero()) << "period=" << to_string(period);
  stop_flow(t0);
  add_flow_segment(t0);
  flow_period_ = period;
  next_flow_segment_ = t0 + period;
}

void TcpSegmentCounters::stop_flow(SimTime now) {
  advance(now);
  flow_period_ = SimDuration::zero();
}

void TcpSegmentCounters::set_inbound_open(SimTime now, bool open) {
  advance(now);
  inbound_open_ = open;
}

std::uint64_t TcpSegmentCounters::sent_in_window(SimTime now) const {
  advance(now);
  return sent_.size();
}

std::uint64_t TcpSegmentCounters::received_in_window(SimTime now) const {
  advance(now);
  return received_.size();
}

bool TcpSegmentCounters::stall_suspected(SimTime now, std::uint64_t sent_threshold) const {
  advance(now);
  return sent_.size() > sent_threshold && received_.empty();
}

}  // namespace cellrel
