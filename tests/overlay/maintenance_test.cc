// Probe-based Chord maintenance (ChordMaintenance behind ChordOverlay's
// plan/execute/finish contract), driven through the base class's inline
// StructuredOverlay::RunMaintenanceRound helper.

#include "overlay/dht/maintenance.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace pdht::overlay {
namespace {

struct MaintFixture {
  MaintFixture(uint32_t n, double env)
      : net(&counters), chord(&net), env(env) {
    std::vector<net::PeerId> members;
    for (uint32_t i = 0; i < n; ++i) {
      members.push_back(i);
      net.SetOnline(i, true);
    }
    chord.SetMembers(members);
  }
  void Round() { chord.RunMaintenanceRound(env); }
  void Rejoin(net::PeerId peer) {
    Rng rng(peer);
    chord.RejoinNode(peer, rng);
  }
  const MaintenanceStats& stats() const { return chord.maintenance_stats(); }

  pdht::CounterRegistry counters;
  net::Network net;
  ChordOverlay chord;
  double env;
};

TEST(MaintenanceTest, ProbeVolumeMatchesEnvBudget) {
  // Per peer per round the prober sends env * tableSize messages; over R
  // rounds and n peers the total must match within rounding.
  constexpr uint32_t kN = 128;
  constexpr double kEnv = 1.0 / 14.0;
  MaintFixture f(kN, kEnv);
  double expected_per_round = 0.0;
  for (uint32_t i = 0; i < kN; ++i) {
    expected_per_round += kEnv * static_cast<double>(f.chord.TableOf(i)->size());
  }
  constexpr int kRounds = 100;
  for (int r = 0; r < kRounds; ++r) f.Round();
  double expected = expected_per_round * kRounds;
  double actual = static_cast<double>(f.stats().probes_sent);
  EXPECT_NEAR(actual, expected, expected * 0.02 + kN);
}

TEST(MaintenanceTest, ProbesAppearOnMaintCounter) {
  MaintFixture f(64, 1.0);
  f.Round();
  EXPECT_EQ(f.counters.Value("msg.maint.probe"),
            f.stats().probes_sent);
}

TEST(MaintenanceTest, NoProbesWhenEnvZero) {
  MaintFixture f(64, 0.0);
  for (int r = 0; r < 10; ++r) f.Round();
  EXPECT_EQ(f.stats().probes_sent, 0u);
}

TEST(MaintenanceTest, DetectsAndRepairsStaleEntries) {
  MaintFixture f(200, 2.0);  // aggressive probing for fast convergence
  // Kill 30% of members.
  Rng off(11);
  for (uint32_t i = 0; i < 200; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  double before = f.chord.StaleFingerFraction();
  ASSERT_GT(before, 0.1);
  for (int r = 0; r < 30; ++r) f.Round();
  double after = f.chord.StaleFingerFraction();
  EXPECT_LT(after, before * 0.35);
  EXPECT_GT(f.stats().stale_detected, 0u);
  EXPECT_EQ(f.stats().repairs, f.stats().stale_detected);
}

TEST(MaintenanceTest, OfflinePeersDoNotProbe) {
  MaintFixture f(32, 1.0);
  for (uint32_t i = 0; i < 32; ++i) f.net.SetOnline(i, false);
  f.Round();
  EXPECT_EQ(f.stats().probes_sent, 0u);
}

TEST(MaintenanceTest, RejoinRefreshesTable) {
  MaintFixture f(100, 0.5);
  // Peer 3 goes offline; others churn around it so its table goes stale.
  f.net.SetOnline(3, false);
  Rng off(17);
  for (uint32_t i = 10; i < 60; ++i) f.net.SetOnline(i, false);
  // Peer 3 returns: refresh must leave it with live fingers only.
  f.net.SetOnline(3, true);
  f.Rejoin(3);
  const FingerTable* t = f.chord.TableOf(3);
  ASSERT_NE(t, nullptr);
  // Lookup from the refreshed node succeeds.
  LookupResult r = f.chord.Lookup(3, 424242);
  EXPECT_TRUE(r.success);
}

TEST(MaintenanceTest, SteadyChurnReachesEquilibriumStaleness) {
  // Alternate killing/reviving random peers and probing; staleness must
  // stay bounded well below the no-maintenance level.
  MaintFixture f(300, 1.0);
  Rng churn(21);
  double worst = 0.0;
  for (int round = 0; round < 60; ++round) {
    // ~2% of peers flip per round.
    for (int k = 0; k < 6; ++k) {
      uint32_t p = static_cast<uint32_t>(churn.UniformU64(300));
      f.net.SetOnline(p, !f.net.IsOnline(p));
      if (f.net.IsOnline(p)) f.Rejoin(p);
    }
    f.Round();
    if (round > 20) worst = std::max(worst, f.chord.StaleFingerFraction());
  }
  EXPECT_LT(worst, 0.35);
}

}  // namespace
}  // namespace pdht::overlay
