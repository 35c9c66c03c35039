#include "overlay/unstructured/flooding.h"

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "net/delivery_model.h"
#include "overlay/unstructured/replication.h"
#include "sim/event_queue.h"

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
  f.placement.PlaceKeys(8);
  FloodResult r = f.flood.Search(0, 7, /*ttl_hops=*/10);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(f.placement.PeerHoldsKey(r.found_at, 7));
}

TEST(FloodSearchTest, LocalHitCostsNothing) {
  FloodFixture f(100, 10);
  f.placement.PlaceKeys(4);
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
  f.placement.PlaceKeys(2);
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
  f.placement.PlaceKeys(2);
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
  f.placement.PlaceKeys(2);
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
  f.placement.PlaceKeys(6);
  FloodResult r = f.flood.Search(1, 5, 10);
  if (r.found && r.found_at != 1) {
    EXPECT_EQ(f.net.MessagesOfType(net::MessageType::kQueryResponse), 1u);
  }
}

/// A plain deque BFS with one Send-equivalent per copy, written apart
/// from FloodSearch: the contract the flood's per-search counts and its
/// deliveries must reproduce.
struct ReferenceFlood {
  bool found = false;
  net::PeerId found_at = net::kInvalidPeer;
  uint32_t hops_to_hit = 0;
  uint32_t peers_reached = 0;
  uint64_t sent = 0;
  uint64_t lost = 0;
  /// Every delivered message in send order: the online copies, and the
  /// response right after the copy that reached the holder.
  std::vector<std::pair<net::PeerId, net::PeerId>> delivered;
};

ReferenceFlood RunReference(const RandomGraph& graph, const net::Network& net,
                            const ReplicaPlacement& placement,
                            net::PeerId origin, uint64_t key, uint32_t ttl) {
  ReferenceFlood ref;
  std::vector<bool> seen(graph.num_nodes(), false);
  seen[origin] = true;
  ref.peers_reached = 1;
  if (placement.PeerHoldsKey(origin, key)) {
    ref.found = true;
    ref.found_at = origin;
    return ref;
  }
  std::deque<std::pair<net::PeerId, uint32_t>> queue{{origin, 0}};
  while (!queue.empty()) {
    auto [u, depth] = queue.front();
    queue.pop_front();
    if (depth >= ttl) continue;
    for (net::PeerId v : graph.Neighbors(u)) {
      ++ref.sent;
      if (!net.IsOnline(v)) {
        ++ref.lost;
        continue;
      }
      ref.delivered.emplace_back(u, v);
      if (seen[v]) continue;
      seen[v] = true;
      ++ref.peers_reached;
      if (!ref.found && placement.PeerHoldsKey(v, key)) {
        ref.found = true;
        ref.found_at = v;
        ref.hops_to_hit = depth + 1;
        ref.delivered.emplace_back(v, origin);
      }
      queue.emplace_back(v, depth + 1);
    }
  }
  return ref;
}

/// 2,000 peers, degree 6, ~30% offline (the origin, peer 0, stays on).
struct ChurnedFloodFixture {
  static constexpr uint32_t kPeers = 2000;
  static constexpr uint64_t kKeys = 20;
  ChurnedFloodFixture()
      : rng(31),
        graph(kPeers, 6.0, &rng),
        net(&counters),
        placement(kPeers, 5, Rng(32)),
        flood(&graph, &net, [this](net::PeerId p, uint64_t k) {
          return placement.PeerHoldsKey(p, k);
        }) {
    placement.PlaceKeys(kKeys);
    Rng off(33);
    for (uint32_t i = 0; i < kPeers; ++i) {
      net.SetOnline(i, i == 0 || !off.Bernoulli(0.3));
    }
  }
  Rng rng;
  RandomGraph graph;
  pdht::CounterRegistry counters;
  net::Network net;
  ReplicaPlacement placement;
  FloodSearch flood;
};

TEST(FloodSearchTest, CountsMatchAnIndependentBfs) {
  ChurnedFloodFixture f;
  EXPECT_GT(f.net.online_count(), 1200u);
  EXPECT_LT(f.net.online_count(), 1600u);
  bool some_hit_away_from_origin = false;
  for (uint32_t ttl : {ChurnedFloodFixture::kPeers, 2u}) {
    // Key 7 is placed; key 999 is held by nobody.
    for (uint64_t key : {uint64_t{7}, uint64_t{999}}) {
      SCOPED_TRACE(::testing::Message() << "ttl " << ttl << " key " << key);
      const ReferenceFlood ref =
          RunReference(f.graph, f.net, f.placement, 0, key, ttl);
      const uint64_t flood_before = f.counters.Value("msg.unstructured.flood");
      const uint64_t total_before = f.counters.Value("msg.total");
      const uint64_t lost_before = f.counters.Value("net.lost");
      const FloodResult r = f.flood.Search(0, key, ttl);
      EXPECT_EQ(r.found, ref.found);
      EXPECT_EQ(r.found_at, ref.found_at);
      EXPECT_EQ(r.hops_to_hit, ref.hops_to_hit);
      EXPECT_EQ(r.peers_reached, ref.peers_reached);
      EXPECT_EQ(r.messages, ref.sent);
      const uint64_t responses = ref.found && ref.found_at != 0 ? 1 : 0;
      some_hit_away_from_origin |= responses == 1;
      EXPECT_EQ(f.counters.Value("msg.unstructured.flood") - flood_before,
                ref.sent);
      EXPECT_EQ(f.counters.Value("msg.total") - total_before,
                ref.sent + responses);
      EXPECT_EQ(f.counters.Value("net.lost") - lost_before, ref.lost);
      EXPECT_GT(ref.lost, 0u);
    }
  }
  EXPECT_TRUE(some_hit_away_from_origin);
}

TEST(FloodSearchTest, LatencyDeliveryKeepsTheSendOrder) {
  ChurnedFloodFixture f;
  sim::EventQueue events;
  net::LatencyDelivery model(net::LatencyConfig{}, 34);
  f.net.SetDeliveryModel(&model, &events);
  const ReferenceFlood ref = RunReference(
      f.graph, f.net, f.placement, 0, 7, ChurnedFloodFixture::kPeers);
  ASSERT_TRUE(ref.found);
  ASSERT_NE(ref.found_at, 0u);
  const FloodResult r = f.flood.Search(0, 7, ChurnedFloodFixture::kPeers);
  EXPECT_EQ(r.found_at, ref.found_at);
  // Every online copy and the one response is deferred...
  EXPECT_EQ(f.net.DeferredCount(), ref.delivered.size());
  EXPECT_EQ(f.net.DeferredCount(), ref.sent - ref.lost + 1);
  // ...in the reference order: the floating-point latency sum is
  // order-sensitive, so bit equality pins the order.
  double expected_s = 0.0;
  for (auto [from, to] : ref.delivered) {
    expected_s += model.LinkDelaySeconds(from, to);
  }
  EXPECT_EQ(f.net.total_latency_s(), expected_s);
}

}  // namespace
}  // namespace pdht::overlay
