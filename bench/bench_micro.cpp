// Micro-benchmarks (google-benchmark): throughput of the hot simulation and
// analysis paths. These guard the bench-scale campaign runtimes.

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/full_report.h"
#include "common/rng.h"
#include "core/prober.h"
#include "net/tcp_stats.h"
#include "sim/event_queue.h"
#include "timp/recovery_optimizer.h"
#include "timp/timp_model.h"
#include "workload/calibration.h"
#include "workload/campaign.h"

namespace cellrel {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(SimTime::from_seconds(static_cast<double>(i % 97)),
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// Steady-state schedule/cancel/fire with the shape of a paper-campaign
// stall episode: a few events in flight, and about 1 in 180 scheduled
// events (0.55%: ~2.2 of ~390 per episode, seed 20200101) is a probation
// or retry timer cancelled before it fires.
void BM_EventQueueCancelMix(benchmark::State& state) {
  constexpr std::size_t kCancelEvery = 180;
  constexpr std::size_t kInFlight = 8;
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<SimDuration> delays(n);
  for (SimDuration& d : delays) d = SimDuration::seconds(rng.exponential(2.0));
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < kInFlight; ++i) {
      sim.schedule_after(delays[i], [&fired] { ++fired; });
    }
    ScheduledEvent probation;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % kCancelEvery == 0) {
        probation = sim.schedule_after(SimDuration::seconds(60.0), [&fired] { fired += 2; });
      } else if (i % kCancelEvery == kCancelEvery / 2) {
        probation.cancel();
      }
      sim.schedule_after(delays[i], [&fired] { ++fired; });
      sim.step();
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueCancelMix)->Arg(100000);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(42);
  double sink = 0.0;
  for (auto _ : state) sink += rng.lognormal(0.0, 1.1);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngLognormal);

void BM_TcpWindowAccounting(benchmark::State& state) {
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  for (auto _ : state) {
    t += SimDuration::seconds(1.0);
    tcp.on_segment_sent(t);
    benchmark::DoNotOptimize(tcp.stall_suspected(t));
  }
}
BENCHMARK(BM_TcpWindowAccounting);

// The net layer as a stall episode drives it: a 10-minute periodic flow
// (2.5 s period) whose inbound gate closes once mid-flow, polled by the
// Data_Stall detector every 10 s. Items are polls.
void BM_TcpPeriodicFlowPoll(benchmark::State& state) {
  const SimDuration period = SimDuration::seconds(2.5);
  const SimDuration poll = SimDuration::seconds(10.0);
  const SimTime stop = SimTime::origin() + SimDuration::minutes(10.0);
  const SimTime gate_closes = SimTime::from_seconds(241.3);
  std::int64_t polls = 0;
  for (auto _ : state) {
    TcpSegmentCounters tcp;
    tcp.start_flow(SimTime::origin(), period);
    bool gated = false;
    for (SimTime t = SimTime::origin() + poll; t <= stop; t += poll) {
      if (!gated && gate_closes < t) {
        tcp.set_inbound_open(gate_closes, false);
        gated = true;
      }
      benchmark::DoNotOptimize(tcp.stall_suspected(t));
      ++polls;
    }
    tcp.stop_flow(stop);
  }
  state.SetItemsProcessed(polls);
}
BENCHMARK(BM_TcpPeriodicFlowPoll);

void BM_ProberEpisode(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    NetworkStack stack(sim, Rng{7});
    stack.inject_fault(NetworkFault::kNetworkStall);
    sim.schedule_after(SimDuration::seconds(40.0),
                       [&] { stack.inject_fault(NetworkFault::kNone); });
    NetworkStateProber prober(sim, stack);
    bool done = false;
    prober.start(SimTime::origin(), [&](const NetworkStateProber::Report&) { done = true; });
    sim.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_ProberEpisode);

void BM_SmallCampaign(benchmark::State& state) {
  for (auto _ : state) {
    Scenario sc;
    sc.device_count = static_cast<std::uint32_t>(state.range(0));
    sc.deployment.bs_count = 1000;
    sc.seed = 5;
    Campaign campaign(sc);
    const CampaignResult r = campaign.run();
    benchmark::DoNotOptimize(r.dataset.records.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SmallCampaign)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_Aggregation(benchmark::State& state) {
  Scenario sc;
  sc.device_count = 400;
  sc.deployment.bs_count = 1500;
  Campaign campaign(sc);
  const CampaignResult r = campaign.run();
  for (auto _ : state) {
    const Aggregator agg(r.dataset);
    benchmark::DoNotOptimize(agg.overall().failures);
    benchmark::DoNotOptimize(agg.normalized_prevalence_by_level());
    benchmark::DoNotOptimize(agg.by_model().size());
  }
}
BENCHMARK(BM_Aggregation)->Unit(benchmark::kMillisecond);

// The whole §3 report from a dataset: the fold plus all of its queries,
// the work cellbench's `report_s` times on a 4,000-device paper campaign.
void BM_AggregatorFullReport(benchmark::State& state) {
  Scenario sc;
  sc.device_count = 4000;
  sc.deployment.bs_count = 8000;
  sc.threads = 0;  // set-up only; the dataset is the same for every value
  Campaign campaign(sc);
  const CampaignResult r = campaign.run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(render_full_report(Aggregator(r.dataset)).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(r.dataset.records.size()));
}
BENCHMARK(BM_AggregatorFullReport)->Unit(benchmark::kMillisecond);

// An empirical auto-recovery curve of 16,000 calibrated stall durations,
// about the number of Data_Stall records a 4,000-device campaign measures.
AutoRecoveryCurve empirical_stall_curve() {
  Rng rng(3);
  std::vector<double> durations;
  const auto& cdf = default_calibration().stall_auto_recovery_cdf;
  for (int i = 0; i < 16'000; ++i) durations.push_back(cdf.sample(rng));
  return AutoRecoveryCurve::from_durations(durations);
}

// One Eq. 1 evaluation, the annealer's objective, at the paper's optimum.
void BM_TimpExpectedRecovery(benchmark::State& state) {
  const TimpModel model(empirical_stall_curve(), TimpModel::Params{});
  std::array<double, 3> probations = {21.0, 6.0, 16.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(probations);
    benchmark::DoNotOptimize(model.expected_recovery_time(probations));
  }
}
BENCHMARK(BM_TimpExpectedRecovery)->Unit(benchmark::kMicrosecond);

// The whole §4.2 anneal (about 4,800 evaluations) on the same curve: the
// work cellbench's `timp_optimize_s` times.
void BM_RecoveryOptimizeEmpirical(benchmark::State& state) {
  const RecoveryOptimizer optimizer(TimpModel(empirical_stall_curve(), TimpModel::Params{}));
  for (auto _ : state) benchmark::DoNotOptimize(optimizer.optimize().evaluations);
}
BENCHMARK(BM_RecoveryOptimizeEmpirical)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cellrel

BENCHMARK_MAIN();
