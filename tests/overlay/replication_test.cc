#include "overlay/unstructured/replication.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace pdht::overlay {
namespace {

/// Every peer holding `key`, in peer order.
std::vector<net::PeerId> Holders(const ReplicaPlacement& p, uint64_t key) {
  std::vector<net::PeerId> out;
  for (net::PeerId peer = 0; peer < p.num_peers(); ++peer) {
    if (p.PeerHoldsKey(peer, key)) out.push_back(peer);
  }
  return out;
}

TEST(ReplicaPlacementTest, PlacesExactlyReplReplicas) {
  ReplicaPlacement p(1000, 50, Rng(1));
  p.PlaceKeys(8);
  EXPECT_EQ(Holders(p, 7).size(), 50u);
}

TEST(ReplicaPlacementTest, ReplicasAreDistinctPeers) {
  // 50 draws over 100 peers repeat a peer; repeats must be redrawn.
  ReplicaPlacement p(100, 50, Rng(2));
  p.PlaceKeys(2);
  EXPECT_EQ(Holders(p, 1).size(), 50u);
}

TEST(ReplicaPlacementTest, ReplClampedToPopulation) {
  ReplicaPlacement p(10, 50, Rng(3));
  p.PlaceKeys(2);
  EXPECT_EQ(Holders(p, 1).size(), 10u);
}

TEST(ReplicaPlacementTest, PlacementFollowsTheDrawSequence) {
  // Key by key, uniform draws over the population, redrawing peers the
  // key already has: the placement every seeded run depends on.
  ReplicaPlacement p(500, 20, Rng(4));
  p.PlaceKeys(200);
  Rng draws(4);
  for (uint64_t k = 0; k < 200; ++k) {
    std::vector<net::PeerId> expected;
    while (expected.size() < 20) {
      auto peer = static_cast<net::PeerId>(draws.UniformU64(500));
      if (std::ranges::find(expected, peer) == expected.end()) {
        expected.push_back(peer);
      }
    }
    EXPECT_TRUE(std::ranges::equal(p.HoldersOf(k), expected)) << "key " << k;
    std::ranges::sort(expected);
    EXPECT_EQ(Holders(p, k), expected) << "key " << k;
  }
}

TEST(ReplicaPlacementTest, PlaceKeysBulk) {
  ReplicaPlacement p(200, 5, Rng(6));
  p.PlaceKeys(100);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(Holders(p, k).size(), 5u) << "key " << k;
  }
  EXPECT_TRUE(Holders(p, 100).empty());
}

TEST(ReplicaPlacementTest, UnknownKeyQueries) {
  ReplicaPlacement p(100, 10, Rng(8));
  p.PlaceKeys(2);
  EXPECT_TRUE(Holders(p, 99).empty());
  EXPECT_FALSE(p.PeerHoldsKey(100, 1));  // beyond the population
}

TEST(ReplicaPlacementTest, PlacementIsRoughlyUniform) {
  // With 1000 keys * 10 replicas over 100 peers, each peer should hold
  // ~100 keys.
  ReplicaPlacement p(100, 10, Rng(9));
  p.PlaceKeys(1000);
  for (uint32_t peer = 0; peer < 100; ++peer) {
    int held = 0;
    for (uint64_t k = 0; k < 1000; ++k) {
      if (p.PeerHoldsKey(peer, k)) ++held;
    }
    EXPECT_GT(held, 50);
    EXPECT_LT(held, 170);
  }
}

}  // namespace
}  // namespace pdht::overlay
