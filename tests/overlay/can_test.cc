#include "overlay/can/can.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "stats/histogram.h"

namespace pdht::overlay {
namespace {

TEST(CanZoneTest, ContainsRespectsHalfOpenBounds) {
  CanZone z;
  z.lo = {0.25, 0.5};
  z.hi = {0.5, 1.0};
  EXPECT_TRUE(z.Contains(CanPoint{{0.25, 0.5}}));
  EXPECT_TRUE(z.Contains(CanPoint{{0.4, 0.9}}));
  EXPECT_FALSE(z.Contains(CanPoint{{0.5, 0.6}}));   // hi exclusive
  EXPECT_FALSE(z.Contains(CanPoint{{0.1, 0.6}}));
}

TEST(CanZoneTest, CenterAndVolume) {
  CanZone z;
  z.lo = {0.0, 0.0};
  z.hi = {0.5, 0.25};
  CanPoint c = z.Center();
  EXPECT_DOUBLE_EQ(c.x[0], 0.25);
  EXPECT_DOUBLE_EQ(c.x[1], 0.125);
  EXPECT_DOUBLE_EQ(z.Volume(), 0.125);
}

TEST(CanZoneTest, NeighborsShareFaces) {
  CanZone a;
  a.lo = {0.0, 0.0};
  a.hi = {0.5, 0.5};
  CanZone b;
  b.lo = {0.5, 0.0};
  b.hi = {1.0, 0.5};
  CanZone c;
  c.lo = {0.5, 0.5};
  c.hi = {1.0, 1.0};
  EXPECT_TRUE(a.IsNeighbor(b));   // share the x = 0.5 face
  EXPECT_TRUE(b.IsNeighbor(c));   // share the y = 0.5 face
  // a and c touch only at a corner: abutting in both dims but overlapping
  // in neither -- not neighbors.
  EXPECT_FALSE(a.IsNeighbor(c));
}

TEST(CanZoneTest, TorusWrapAdjacency) {
  CanZone a;
  a.lo = {0.0, 0.0};
  a.hi = {0.25, 1.0};
  CanZone b;
  b.lo = {0.75, 0.0};
  b.hi = {1.0, 1.0};
  EXPECT_TRUE(a.IsNeighbor(b));  // wrap at x = 0/1
}

struct CanFixture {
  explicit CanFixture(uint32_t n, uint64_t seed = 1)
      : net(&counters), can(&net, Rng(seed)) {
    std::vector<net::PeerId> members;
    for (uint32_t i = 0; i < n; ++i) {
      members.push_back(i);
      net.SetOnline(i, true);
    }
    can.SetMembers(members);
  }
  pdht::CounterRegistry counters;
  net::Network net;
  CanOverlay can;
};

TEST(CanOverlayTest, InvariantsAfterConstruction) {
  for (uint32_t n : {1u, 2u, 3u, 7u, 64u, 100u}) {
    CanFixture f(n, n);
    EXPECT_EQ(f.can.CheckInvariants(), "") << "n=" << n;
    EXPECT_EQ(f.can.num_members(), n);
  }
}

TEST(CanOverlayTest, EveryKeyHasExactlyOneOwner) {
  CanFixture f(50);
  for (uint64_t key = 0; key < 300; ++key) {
    net::PeerId owner = f.can.ResponsibleMember(key);
    ASSERT_NE(owner, net::kInvalidPeer);
    EXPECT_TRUE(f.can.ZoneOf(owner).Contains(CanOverlay::KeyToPoint(key)));
  }
}

TEST(CanOverlayTest, NeighborListsAreSymmetric) {
  CanFixture f(40);
  for (net::PeerId a : f.can.members()) {
    for (net::PeerId b : f.can.NeighborsOf(a)) {
      const auto& back = f.can.NeighborsOf(b);
      EXPECT_NE(std::find(back.begin(), back.end(), a), back.end())
          << a << " <-> " << b;
    }
  }
}

TEST(CanOverlayTest, LookupReachesOwner) {
  CanFixture f(100, 3);
  for (uint64_t key = 0; key < 60; ++key) {
    LookupResult r = f.can.Lookup(0, key);
    ASSERT_TRUE(r.success) << "key " << key;
    EXPECT_EQ(r.terminus, f.can.ResponsibleMember(key));
  }
}

TEST(CanOverlayTest, LocalLookupIsFree) {
  CanFixture f(30);
  uint64_t key = 5;
  net::PeerId owner = f.can.ResponsibleMember(key);
  LookupResult r = f.can.Lookup(owner, key);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.messages, 0u);
}

TEST(CanOverlayTest, HopsScaleAsSqrtN) {
  // d = 2: expected path length ~ (1/2) * sqrt(n) for greedy routing.
  CanFixture f(256, 5);
  pdht::Histogram hops;
  Rng pick(7);
  for (int trial = 0; trial < 400; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(256));
    LookupResult r = f.can.Lookup(origin, pick.Next());
    ASSERT_TRUE(r.success);
    hops.Add(static_cast<double>(r.hops));
  }
  double sqrt_n = std::sqrt(256.0);  // 16
  EXPECT_GT(hops.mean(), sqrt_n * 0.25);
  EXPECT_LT(hops.mean(), sqrt_n * 1.5);
}

TEST(CanOverlayTest, RoutesAroundOfflineZones) {
  CanFixture f(144, 9);
  Rng off(11);
  std::vector<bool> down(144, false);
  for (uint32_t i = 0; i < 144; ++i) {
    if (off.Bernoulli(0.15)) {
      f.net.SetOnline(i, false);
      down[i] = true;
    }
  }
  Rng pick(13);
  int attempts = 0;
  int ok = 0;
  for (int trial = 0; trial < 150; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(144));
    if (down[origin]) continue;
    uint64_t key = pick.Next();
    net::PeerId owner = f.can.ResponsibleMember(key);
    if (down[owner]) continue;  // unreachable by definition
    ++attempts;
    if (f.can.Lookup(origin, key).success) ++ok;
  }
  ASSERT_GT(attempts, 50);
  // Greedy CAN routing has genuine dead ends under churn (no
  // backtracking), but most lookups must still get through.
  EXPECT_GT(static_cast<double>(ok) / attempts, 0.75);
}

TEST(CanOverlayTest, RandomOnlineMemberSkipsOffline) {
  CanFixture f(16);
  for (uint32_t i = 0; i < 16; ++i) {
    if (i != 3) f.net.SetOnline(i, false);
  }
  Rng rng(17);
  EXPECT_EQ(f.can.RandomOnlineMember(rng), 3u);
}

TEST(CanOverlayTest, SingleMemberOwnsEverything) {
  CanFixture f(1);
  EXPECT_EQ(f.can.ResponsibleMember(42), 0u);
  LookupResult r = f.can.Lookup(0, 42);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.messages, 0u);
}

TEST(CanOverlayTest, KeyToPointDeterministicAndSpread) {
  std::set<std::pair<int, int>> cells;
  for (uint64_t k = 0; k < 1000; ++k) {
    CanPoint p = CanOverlay::KeyToPoint(k);
    ASSERT_GE(p.x[0], 0.0);
    ASSERT_LT(p.x[0], 1.0);
    ASSERT_GE(p.x[1], 0.0);
    ASSERT_LT(p.x[1], 1.0);
    cells.insert({static_cast<int>(p.x[0] * 8),
                  static_cast<int>(p.x[1] * 8)});
  }
  // 1000 keys over an 8x8 grid must fill every cell.
  EXPECT_EQ(cells.size(), 64u);
}

}  // namespace
}  // namespace pdht::overlay
