#include "probes.h"

#include <string>

#include "analysis/batch.h"
#include "analysis/csv_io.h"
#include "analysis/string_pool.h"
#include "common/rng.h"
#include "core/prober.h"
#include "net/network_stack.h"
#include "net/tcp_stats.h"
#include "sim/event_queue.h"
#include "trace.h"

namespace cellbench {

using namespace cellrel;

namespace {

// Keeps the compiler from discarding a probe's result.
volatile std::uint64_t g_sink = 0;

}  // namespace

std::vector<double> probe_schedule_fire_ns(std::uint64_t seed) {
  constexpr int kReps = 25;
  constexpr int kEvents = 20'000;
  Rng rng(seed);
  std::vector<double> out;
  for (int rep = 0; rep < kReps; ++rep) {
    // Times drawn up front so the loop measures the queue, not the RNG.
    std::vector<SimTime> at(kEvents);
    for (SimTime& t : at) t = SimTime::from_seconds(rng.uniform(0.0, 86'400.0));
    std::uint64_t fired = 0;
    const double t0 = now_s();
    Simulator sim;
    for (const SimTime t : at) sim.schedule_at(t, [&fired] { ++fired; });
    sim.run();
    out.push_back((now_s() - t0) * 1e9 / kEvents);
    g_sink = g_sink + fired;
  }
  return out;
}

std::vector<double> probe_tcp_window_op_ns() {
  constexpr int kReps = 20;
  constexpr int kOps = 200'000;
  std::vector<double> out;
  for (int rep = 0; rep < kReps; ++rep) {
    TcpSegmentCounters tcp;
    SimTime t = SimTime::origin();
    std::uint64_t suspected = 0;
    const double t0 = now_s();
    for (int i = 0; i < kOps; ++i) {
      t += SimDuration::seconds(1.0);
      tcp.on_segment_sent(t);
      suspected += tcp.stall_suspected(t) ? 1 : 0;
    }
    out.push_back((now_s() - t0) * 1e9 / kOps);
    g_sink = g_sink + suspected;
  }
  return out;
}

std::vector<double> probe_probe_ladder_us() {
  constexpr int kEpisodes = 200;
  std::vector<double> out;
  for (int rep = 0; rep < kEpisodes; ++rep) {
    const double t0 = now_s();
    Simulator sim;
    NetworkStack stack(sim, Rng{static_cast<std::uint64_t>(rep) + 7});
    stack.inject_fault(NetworkFault::kNetworkStall);
    sim.schedule_after(SimDuration::seconds(40.0),
                       [&stack] { stack.inject_fault(NetworkFault::kNone); });
    NetworkStateProber prober(sim, stack);
    bool done = false;
    prober.start(SimTime::origin(), [&done](const NetworkStateProber::Report&) { done = true; });
    sim.run();
    out.push_back((now_s() - t0) * 1e6);
    g_sink = g_sink + (done ? 1 : 0);
  }
  return out;
}

std::vector<double> probe_enumerate_candidates_us(const BsRegistry& registry,
                                                  std::uint64_t seed) {
  constexpr int kReps = 25;
  constexpr int kCalls = 2'000;
  Rng rng(seed);
  std::vector<double> out;
  const auto last = static_cast<std::int64_t>(registry.size()) - 1;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<BsIndex> picks(kCalls);
    for (BsIndex& b : picks) b = static_cast<BsIndex>(rng.uniform_int(0, last));
    std::size_t cells = 0;
    const double t0 = now_s();
    for (const BsIndex b : picks) cells += registry.enumerate_candidates(b, true, rng).size();
    out.push_back((now_s() - t0) * 1e6 / kCalls);
    g_sink = g_sink + cells;
  }
  return out;
}

std::vector<double> probe_batch_push_ns(const TraceDataset& dataset) {
  constexpr int kReps = 15;
  std::vector<double> out;
  if (dataset.records.empty()) return out;
  for (int rep = 0; rep < kReps; ++rep) {
    StringPool apns;
    RecordBatch batch(4096);
    const double t0 = now_s();
    for (const TraceRecord& r : dataset.records) {
      if (batch.full()) batch.clear();
      batch.push(r, apns);
    }
    out.push_back((now_s() - t0) * 1e9 / static_cast<double>(dataset.records.size()));
    g_sink = g_sink + batch.size();
  }
  return out;
}

std::vector<double> probe_spill_read_ns_per_row(const std::filesystem::path& spill_dir,
                                                std::uint64_t* rows) {
  constexpr int kReps = 5;
  std::vector<double> out;
  for (int rep = 0; rep < kReps; ++rep) {
    StringPool apns;
    std::uint64_t n = 0;
    const double t0 = now_s();
    for (std::size_t shard = 0;
         std::filesystem::exists(spill_dir / spill_shard_file(shard)); ++shard) {
      read_spill_batches(spill_dir / spill_shard_file(shard), 4096, apns,
                         [&n](const RecordBatch& batch) { n += batch.size(); });
    }
    const double dt = now_s() - t0;
    if (n > 0) out.push_back(dt * 1e9 / static_cast<double>(n));
    *rows = n;
  }
  return out;
}

}  // namespace cellbench
