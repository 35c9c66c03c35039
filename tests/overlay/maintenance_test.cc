// Probe-based Chord maintenance under churn: stale-entry repair, rejoin
// and steady-state staleness, driven through the base class's inline
// StructuredOverlay::RunMaintenanceRound helper.  The Eq. 8 probe budget
// itself is checked for every backend in backend_parity_test.

#include "overlay/dht/chord.h"

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
  /// Runs one round; returns its probes sent.
  uint64_t Round() { return chord.RunMaintenanceRound(env); }
  void Rejoin(net::PeerId peer) {
    Rng rng(peer);
    chord.RejoinNode(peer, rng);
  }

  pdht::CounterRegistry counters;
  net::Network net;
  ChordOverlay chord;
  double env;
};

TEST(MaintenanceTest, DetectsAndRepairsStaleEntries) {
  MaintFixture f(200, 2.0);  // aggressive probing for fast convergence
  // Kill 30% of members.
  Rng off(11);
  for (uint32_t i = 0; i < 200; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  double before = f.chord.StaleFingerFraction();
  ASSERT_GT(before, 0.1);
  uint64_t probes = 0;
  for (int r = 0; r < 30; ++r) probes += f.Round();
  double after = f.chord.StaleFingerFraction();
  EXPECT_LT(after, before * 0.35);
  EXPECT_GT(probes, 0u);
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
