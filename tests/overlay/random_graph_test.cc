#include "overlay/unstructured/random_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace pdht::overlay {
namespace {

TEST(RandomGraphTest, SingleNodeGraph) {
  Rng rng(1);
  RandomGraph g(1, 0.0, &rng);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(RandomGraphTest, AlwaysConnected) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    RandomGraph g(500, 4.0, &rng);
    EXPECT_TRUE(g.IsConnected()) << "seed " << seed;
  }
}

TEST(RandomGraphTest, AverageDegreeNearTarget) {
  Rng rng(2);
  RandomGraph g(2000, 6.0, &rng);
  EXPECT_NEAR(g.AverageDegree(), 6.0, 0.5);
}

TEST(RandomGraphTest, EdgesAreSymmetric) {
  Rng rng(3);
  RandomGraph g(100, 4.0, &rng);
  for (uint32_t u = 0; u < 100; ++u) {
    for (net::PeerId v : g.Neighbors(u)) {
      EXPECT_TRUE(g.HasEdge(v, u)) << u << "-" << v;
    }
  }
}

TEST(RandomGraphTest, NoSelfLoops) {
  Rng rng(4);
  RandomGraph g(200, 5.0, &rng);
  for (uint32_t u = 0; u < 200; ++u) {
    for (net::PeerId v : g.Neighbors(u)) {
      EXPECT_NE(u, v);
    }
  }
}

TEST(RandomGraphTest, DeterministicForSameSeed) {
  Rng r1(7);
  Rng r2(7);
  RandomGraph a(100, 4.0, &r1);
  RandomGraph b(100, 4.0, &r2);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (uint32_t u = 0; u < 100; ++u) {
    EXPECT_TRUE(std::ranges::equal(a.Neighbors(u), b.Neighbors(u)));
  }
}

TEST(RandomGraphTest, NeighbourListsKeepTheDrawOrder) {
  // The construction redone with growable lists from the same draws: a
  // random spanning tree, then random extra edges without repeats.  Each
  // list must come out in the order its edges were drawn.
  constexpr uint32_t kN = 500;
  constexpr double kDegree = 6.0;
  Rng build_rng(11);
  RandomGraph g(kN, kDegree, &build_rng);

  Rng rng(11);
  std::vector<std::vector<net::PeerId>> adj(kN);
  uint64_t edges = 0;
  auto add = [&](uint32_t a, uint32_t b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
    ++edges;
  };
  for (uint32_t i = 1; i < kN; ++i) {
    add(i, static_cast<uint32_t>(rng.UniformU64(i)));
  }
  const uint64_t target = static_cast<uint64_t>(kN * kDegree / 2.0);
  for (uint64_t attempts = 0;
       edges < target && attempts < target * 20 + 100; ++attempts) {
    uint32_t a = static_cast<uint32_t>(rng.UniformU64(kN));
    uint32_t b = static_cast<uint32_t>(rng.UniformU64(kN));
    if (a == b || std::ranges::find(adj[a], b) != adj[a].end()) continue;
    add(a, b);
  }

  EXPECT_EQ(g.num_edges(), edges);
  for (uint32_t u = 0; u < kN; ++u) {
    EXPECT_TRUE(std::ranges::equal(g.Neighbors(u), adj[u])) << "node " << u;
  }
  // Both sides consumed the same draws.
  EXPECT_EQ(build_rng.Next(), rng.Next());
}

TEST(RandomGraphTest, DistanceBasics) {
  Rng rng(5);
  RandomGraph g(50, 4.0, &rng);
  EXPECT_EQ(g.Distance(0, 0), 0u);
  // Any neighbor is at distance 1.
  ASSERT_FALSE(g.Neighbors(0).empty());
  EXPECT_EQ(g.Distance(0, g.Neighbors(0)[0]), 1u);
}

TEST(RandomGraphTest, DiameterIsLogarithmic) {
  // Random graphs with constant degree have O(log n) diameter; check a
  // loose bound that still catches pathological chains.
  Rng rng(6);
  RandomGraph g(1000, 6.0, &rng);
  uint32_t max_dist = 0;
  for (uint32_t v = 1; v < 100; ++v) {
    max_dist = std::max(max_dist, g.Distance(0, v * 10 - 1));
  }
  EXPECT_LT(max_dist, 20u);
}

TEST(RandomGraphTest, ConnectivityAmongSubset) {
  Rng rng(8);
  RandomGraph g(100, 6.0, &rng);
  std::vector<bool> alive(100, true);
  EXPECT_TRUE(g.IsConnectedAmong(alive));
  // All dead: trivially connected (empty).
  std::vector<bool> none(100, false);
  EXPECT_TRUE(g.IsConnectedAmong(none));
}

TEST(RandomGraphTest, HeavyChurnCanPartition) {
  // With 90% of peers removed, a sparse graph usually partitions --
  // IsConnectedAmong must detect that (not loop forever / crash).
  Rng rng(9);
  RandomGraph g(500, 4.0, &rng);
  std::vector<bool> alive(500, false);
  Rng pick(10);
  for (int i = 0; i < 50; ++i) {
    alive[pick.UniformU64(500)] = true;
  }
  // Either outcome is legal; the call must simply terminate correctly.
  (void)g.IsConnectedAmong(alive);
}

}  // namespace
}  // namespace pdht::overlay
