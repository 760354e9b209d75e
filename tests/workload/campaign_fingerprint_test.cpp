// Stored campaign fingerprints: the merged-trace digest of two pinned
// 500-device campaigns, written down as hex. The bit-identity batteries
// compare a run with itself (other thread counts, merge modes, sources);
// these pins compare it with history, so a change that moves any record or
// transition bit fails here without a build of the parent commit.
//
// A change that moves the bits on purpose re-pins the digests and says why
// in CHANGES.md. Changes that only remove or add simulator events keep the
// digests and re-pin the event counts.

#include "workload/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/trace_digest.h"

namespace cellrel {
namespace {

Scenario paper_scenario() {
  Scenario sc;
  sc.device_count = 500;
  sc.seed = 20200101;
  sc.threads = 1;
  return sc;
}

/// Mobility, regional outage with national roaming, a degradation wave and
/// the TIMP recovery schedule, on 4 threads.
Scenario pack_scenario() {
  Scenario sc = paper_scenario();
  sc.threads = 4;
  sc.mobility.enabled = true;
  sc.recovery = RecoveryVariant::kTimpOptimized;
  const double start = sc.campaign_days * 0.25;
  const double span = sc.campaign_days * 0.5;
  sc.incident.outage = true;
  sc.incident.national_roaming = true;
  sc.incident.outage_start_day = start;
  sc.incident.outage_days = span;
  sc.incident.degraded_clusters = 6;
  sc.incident.degradation_start_day = start;
  sc.incident.degradation_days = span;
  return sc;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

class CampaignFingerprint : public ::testing::Test {
 protected:
  void SetUp() override { ::unsetenv("CELLREL_THREADS"); }
};

TEST_F(CampaignFingerprint, PaperSeed20200101OneThread) {
  const CampaignResult r = Campaign(paper_scenario()).run();
  EXPECT_EQ(hex(test_support::trace_digest(r.dataset)), "0x1a30bc7d6de8b6d6");
  EXPECT_EQ(r.dataset.records.size(), 4867u);
}

TEST_F(CampaignFingerprint, MobilityOutageRoamingDegradationTimpFourThreads) {
  const CampaignResult r = Campaign(pack_scenario()).run();
  EXPECT_EQ(hex(test_support::trace_digest(r.dataset)), "0xf4aaf0112bfc974b");
  EXPECT_EQ(r.dataset.records.size(), 5155u);
}

// Simulator work, pinned exactly: every fired event of every device. It
// moves when the engine's event schedule changes even though the digests
// above do not.
TEST_F(CampaignFingerprint, SimulatedEvents) {
  EXPECT_EQ(Campaign(paper_scenario()).run().simulated_events, 382'738u);
  EXPECT_EQ(Campaign(pack_scenario()).run().simulated_events, 297'096u);
}

}  // namespace
}  // namespace cellrel
