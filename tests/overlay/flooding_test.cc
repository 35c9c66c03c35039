#include "overlay/unstructured/flooding.h"

#include <gtest/gtest.h>

#include "overlay/unstructured/replication.h"

namespace pdht::overlay {
namespace {

struct FloodFixture {
  FloodFixture(uint32_t n, uint32_t repl, uint64_t seed = 1)
      : rng(seed),
        graph(n, 6.0, &rng),
        net(&counters),
        placement(n, repl, Rng(seed + 1)),
        flood(&graph, &net,
              [this](net::PeerId p, uint64_t k) {
                return placement.PeerHoldsKey(p, k);
              }) {
    for (uint32_t i = 0; i < n; ++i) net.SetOnline(i, true);
  }
  Rng rng;
  RandomGraph graph;
  pdht::CounterRegistry counters;
  net::Network net;
  ReplicaPlacement placement;
  FloodSearch flood;
};

/// The lowest-numbered peer holding `key`.
net::PeerId FirstHolder(const ReplicaPlacement& placement, uint64_t key) {
  net::PeerId p = 0;
  while (!placement.PeerHoldsKey(p, key)) ++p;
  return p;
}

TEST(FloodSearchTest, FindsReplicatedKey) {
  FloodFixture f(500, 25);
  f.placement.PlaceKey(7);
  FloodResult r = f.flood.Search(0, 7, /*ttl_hops=*/10);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(f.placement.PeerHoldsKey(r.found_at, 7));
}

TEST(FloodSearchTest, LocalHitCostsNothing) {
  FloodFixture f(100, 10);
  f.placement.PlaceKey(3);
  net::PeerId holder = FirstHolder(f.placement, 3);
  FloodResult r = f.flood.Search(holder, 3, 10);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.found_at, holder);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(r.hops_to_hit, 0u);
}

TEST(FloodSearchTest, MissingKeyNotFound) {
  FloodFixture f(200, 10);
  FloodResult r = f.flood.Search(0, 999, 20);
  EXPECT_FALSE(r.found);
  // But the whole network was flooded at full cost.
  EXPECT_GT(r.messages, 200u);
}

TEST(FloodSearchTest, TtlZeroSearchesOnlyOrigin) {
  FloodFixture f(100, 5);
  f.placement.PlaceKey(1);
  FloodResult r = f.flood.Search(0, 1, 0);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(r.peers_reached, 1u);
}

TEST(FloodSearchTest, TtlBoundsReach) {
  FloodFixture f(1000, 1);
  FloodResult r1 = f.flood.Search(0, 12345, 1);
  // TTL 1 reaches exactly the neighbors.
  EXPECT_EQ(r1.peers_reached, 1 + f.graph.Neighbors(0).size());
}

TEST(FloodSearchTest, DuplicateTransmissionsCounted) {
  // In a connected graph with average degree d, a full flood sends ~ n*d/1
  // directed transmissions while reaching only n peers: messages >
  // peers_reached demonstrates the dup overhead of Eq. 6.
  FloodFixture f(300, 1);
  FloodResult r = f.flood.Search(0, 4242, 30);
  EXPECT_GT(r.messages, static_cast<uint64_t>(r.peers_reached));
}

TEST(FloodSearchTest, OfflinePeersBlockPropagation) {
  FloodFixture f(100, 5);
  f.placement.PlaceKey(1);
  // Take the whole network offline except the origin.
  for (uint32_t i = 1; i < 100; ++i) f.net.SetOnline(i, false);
  bool origin_holds = f.placement.PeerHoldsKey(0, 1);
  FloodResult r = f.flood.Search(0, 1, 10);
  EXPECT_EQ(r.found, origin_holds);
  // Transmissions to offline neighbors are still paid for.
  if (!origin_holds) {
    EXPECT_EQ(r.messages, f.graph.Neighbors(0).size());
  }
}

TEST(FloodSearchTest, OfflineOriginFindsNothing) {
  FloodFixture f(100, 5);
  f.placement.PlaceKey(1);
  f.net.SetOnline(0, false);
  FloodResult r = f.flood.Search(0, 1, 10);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.messages, 0u);
}

TEST(FloodSearchTest, MessagesLandOnNetworkCounters) {
  FloodFixture f(100, 5);
  f.flood.Search(0, 777, 3);
  EXPECT_EQ(f.counters.Value("msg.unstructured.flood"),
            f.net.MessagesOfType(net::MessageType::kFloodQuery));
  EXPECT_GT(f.counters.Value("msg.total"), 0u);
}

TEST(FloodSearchTest, OracleIsNotAskedAfterTheHit) {
  Rng rng(1);
  RandomGraph graph(500, 6.0, &rng);
  pdht::CounterRegistry counters;
  net::Network net(&counters);
  for (uint32_t i = 0; i < 500; ++i) net.SetOnline(i, true);
  constexpr net::PeerId kHolder = 250;
  uint32_t asked = 0;
  uint32_t asked_after_hit = 0;
  bool hit = false;
  FloodSearch flood(&graph, &net, [&](net::PeerId p, uint64_t) {
    ++asked;
    if (hit) ++asked_after_hit;
    hit = hit || p == kHolder;
    return p == kHolder;
  });
  FloodResult r = flood.Search(0, 1, 30);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.found_at, kHolder);
  EXPECT_EQ(asked_after_hit, 0u);
  // The flood itself went on past the hit.
  EXPECT_GT(r.peers_reached, asked);
}

TEST(FloodSearchTest, ResponseSentOnHit) {
  FloodFixture f(200, 20);
  f.placement.PlaceKey(5);
  FloodResult r = f.flood.Search(1, 5, 10);
  if (r.found && r.found_at != 1) {
    EXPECT_EQ(f.net.MessagesOfType(net::MessageType::kQueryResponse), 1u);
  }
}

}  // namespace
}  // namespace pdht::overlay
