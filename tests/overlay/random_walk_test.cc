#include "overlay/unstructured/random_walk.h"

#include <gtest/gtest.h>

#include "overlay/unstructured/replication.h"
#include "stats/histogram.h"

namespace pdht::overlay {
namespace {

struct WalkFixture {
  WalkFixture(uint32_t n, uint32_t repl, RandomWalkConfig cfg = {},
              uint64_t seed = 1)
      : rng(seed),
        graph(n, 6.0, &rng),
        net(&counters),
        placement(n, repl, Rng(seed + 1)),
        walk(&graph, &net,
             [this](net::PeerId p, uint64_t k) {
               return placement.PeerHoldsKey(p, k);
             },
             cfg, Rng(seed + 2)) {
    for (uint32_t i = 0; i < n; ++i) net.SetOnline(i, true);
  }
  Rng rng;
  RandomGraph graph;
  pdht::CounterRegistry counters;
  net::Network net;
  ReplicaPlacement placement;
  RandomWalkSearch walk;
};

/// The lowest-numbered peer holding `key`.
net::PeerId FirstHolder(const ReplicaPlacement& placement, uint64_t key) {
  net::PeerId p = 0;
  while (!placement.PeerHoldsKey(p, key)) ++p;
  return p;
}

TEST(RandomWalkTest, FindsWellReplicatedKey) {
  WalkFixture f(1000, 50);
  f.placement.PlaceKeys(2);
  WalkResult r = f.walk.Search(0, 1);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(f.placement.PeerHoldsKey(r.found_at, 1));
}

TEST(RandomWalkTest, LocalHitIsFree) {
  WalkFixture f(200, 20);
  f.placement.PlaceKeys(3);
  net::PeerId holder = FirstHolder(f.placement, 2);
  WalkResult r = f.walk.Search(holder, 2);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.messages, 0u);
}

TEST(RandomWalkTest, FallbackGuaranteesSuccessForExistingKeys) {
  // Even with a starved walker budget, the flood fallback preserves the
  // paper's "search finds any key that exists" assumption.
  RandomWalkConfig cfg;
  cfg.num_walkers = 1;
  cfg.max_steps_per_walker = 1;
  cfg.flood_fallback = true;
  WalkFixture f(300, 3, cfg);
  f.placement.PlaceKeys(10);
  WalkResult r = f.walk.Search(0, 9);
  EXPECT_TRUE(r.found);
}

TEST(RandomWalkTest, NoFallbackCanFail) {
  RandomWalkConfig cfg;
  cfg.num_walkers = 1;
  cfg.max_steps_per_walker = 1;
  cfg.flood_fallback = false;
  WalkFixture f(300, 1, cfg);
  f.placement.PlaceKeys(10);
  int failures = 0;
  for (uint64_t k = 0; k < 20; ++k) {
    WalkResult r = f.walk.Search(0, 9);
    if (!r.found) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST(RandomWalkTest, MissingKeyTriggersFallbackAndFails) {
  WalkFixture f(200, 10);
  WalkResult r = f.walk.Search(0, 31337);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.used_flood_fallback);
}

TEST(RandomWalkTest, CostScalesInverselyWithReplication) {
  // Eq. 6: cSUnstr ~ numPeers / repl.  Quadrupling the replication factor
  // should cut the expected walk cost by roughly 4x.
  constexpr uint32_t kN = 2000;
  auto mean_cost = [&](uint32_t repl, uint64_t seed) {
    RandomWalkConfig cfg;
    cfg.check_interval = 0;  // isolate pure walk cost
    WalkFixture f(kN, repl, cfg, seed);
    f.placement.PlaceKeys(20);
    pdht::Histogram h;
    for (int trial = 0; trial < 150; ++trial) {
      uint64_t key = static_cast<uint64_t>(trial) % 20;
      WalkResult r = f.walk.Search(
          static_cast<net::PeerId>((trial * 131) % kN), key);
      EXPECT_TRUE(r.found);
      h.Add(static_cast<double>(r.walk_steps));
    }
    return h.mean();
  };
  double cost_lo = mean_cost(10, 11);
  double cost_hi = mean_cost(40, 12);
  double ratio = cost_lo / cost_hi;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 8.0);
}

TEST(RandomWalkTest, CheckMessagesAccrue) {
  RandomWalkConfig with_checks;
  with_checks.check_interval = 2;
  WalkFixture f(1000, 5, with_checks, 21);
  f.placement.PlaceKeys(10);
  // Across several searches, walks that last past the check interval must
  // emit kWalkCheck traffic (a single lucky first-step hit would not).
  for (uint64_t k = 0; k < 10; ++k) {
    f.walk.Search(static_cast<net::PeerId>(k * 97 % 1000), k);
  }
  EXPECT_GT(f.net.MessagesOfType(net::MessageType::kWalkCheck), 0u);
}

TEST(RandomWalkTest, DistinctPeersTracked) {
  WalkFixture f(500, 2);
  f.placement.PlaceKeys(7);
  WalkResult r = f.walk.Search(0, 6);
  EXPECT_GE(r.distinct_peers, 1u);
  EXPECT_LE(r.distinct_peers, 500u);
}

TEST(RandomWalkTest, OfflineOriginFails) {
  WalkFixture f(100, 10);
  f.placement.PlaceKeys(2);
  f.net.SetOnline(0, false);
  WalkResult r = f.walk.Search(0, 1);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.messages, 0u);
}

TEST(RandomWalkTest, SurvivesModerateChurnOfflineFraction) {
  WalkFixture f(1000, 50);
  f.placement.PlaceKeys(2);
  Rng off(5);
  for (uint32_t i = 0; i < 1000; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  int found = 0;
  for (int trial = 0; trial < 20; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>((trial * 37) % 1000);
    if (!f.net.IsOnline(origin)) continue;
    if (f.walk.Search(origin, 1).found) ++found;
  }
  EXPECT_GT(found, 0);
}

}  // namespace
}  // namespace pdht::overlay
