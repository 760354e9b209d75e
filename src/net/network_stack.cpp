#include "net/network_stack.h"

#include <algorithm>

namespace cellrel {

std::string_view to_string(NetworkFault fault) {
  switch (fault) {
    case NetworkFault::kNone: return "none";
    case NetworkFault::kNetworkStall: return "network-stall";
    case NetworkFault::kFirewallMisconfig: return "firewall-misconfig";
    case NetworkFault::kProxyBroken: return "proxy-broken";
    case NetworkFault::kModemDriverWedged: return "modem-driver-wedged";
    case NetworkFault::kDnsOutage: return "dns-outage";
  }
  return "?";
}

std::optional<NetworkFault> parse_network_fault(std::string_view name) {
  for (const NetworkFault f : kAllNetworkFaults) {
    if (name == to_string(f)) return f;
  }
  return std::nullopt;
}

NetworkStack::NetworkStack(Simulator& sim, Rng rng, TcpSegmentCounters* segments)
    : sim_(sim), rng_(rng), segments_(segments) {}

void NetworkStack::inject_fault(NetworkFault fault) {
  fault_ = fault;
  // Inbound traffic flows only while the data path works end to end.
  if (segments_) segments_->set_inbound_open(sim_.now(), fault == NetworkFault::kNone);
}

void NetworkStack::answer(bool reachable, SimDuration rtt_mean, SimDuration timeout,
                          ProbeCallback cb) {
  ++probes_sent_;
  if (!reachable) {
    sim_.schedule_after(timeout, [cb = std::move(cb), timeout] {
      cb(ProbeOutcome{false, timeout});
    });
    return;
  }
  SimDuration rtt = SimDuration::seconds(rng_.exponential(rtt_mean.to_seconds()));
  if (rtt >= timeout) {
    // Late answers count as timeouts, exactly as the prober perceives them.
    sim_.schedule_after(timeout, [cb = std::move(cb), timeout] {
      cb(ProbeOutcome{false, timeout});
    });
    return;
  }
  sim_.schedule_after(rtt, [cb = std::move(cb), rtt] { cb(ProbeOutcome{true, rtt}); });
}

void NetworkStack::icmp_localhost(SimDuration timeout, ProbeCallback cb) {
  // The loopback probe fails only for system-side faults.
  const bool reachable = !is_system_side(fault_);
  answer(reachable, SimDuration::milliseconds(1), timeout, std::move(cb));
}

void NetworkStack::icmp_dns_server(std::size_t /*server*/, SimDuration timeout,
                                   ProbeCallback cb) {
  // Reaching the resolver requires a working data path; a pure DNS outage
  // leaves ICMP fine. System-side faults block everything outbound too.
  const bool reachable = fault_ == NetworkFault::kNone || fault_ == NetworkFault::kDnsOutage;
  answer(reachable, SimDuration::milliseconds(45), timeout, std::move(cb));
}

void NetworkStack::dns_query(std::size_t /*server*/, SimDuration timeout, ProbeCallback cb) {
  const bool reachable = fault_ == NetworkFault::kNone;
  answer(reachable, SimDuration::milliseconds(60), timeout, std::move(cb));
}

}  // namespace cellrel
