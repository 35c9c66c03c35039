#include "overlay/dht/chord.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "overlay/dht/id.h"
#include "stats/histogram.h"

namespace pdht::overlay {
namespace {

struct ChordFixture {
  explicit ChordFixture(uint32_t n)
      : net(&counters), chord(&net) {
    std::vector<net::PeerId> members;
    for (uint32_t i = 0; i < n; ++i) {
      members.push_back(i);
      net.SetOnline(i, true);
    }
    chord.SetMembers(members);
  }
  pdht::CounterRegistry counters;
  net::Network net;
  ChordOverlay chord;
};

TEST(RingIdTest, RingDistanceWraps) {
  EXPECT_EQ(RingDistance(5, 10), 5u);
  EXPECT_EQ(RingDistance(10, 5), ~uint64_t{0} - 4);
  EXPECT_EQ(RingDistance(7, 7), 0u);
}

TEST(RingIdTest, IntervalOpenClosed) {
  EXPECT_TRUE(InIntervalOpenClosed(5, 1, 10));
  EXPECT_TRUE(InIntervalOpenClosed(10, 1, 10));  // closed right end
  EXPECT_FALSE(InIntervalOpenClosed(1, 1, 10));  // open left end
  EXPECT_FALSE(InIntervalOpenClosed(11, 1, 10));
  // Wrapping interval.
  EXPECT_TRUE(InIntervalOpenClosed(2, ~uint64_t{0} - 5, 10));
  // a == b means the full ring.
  EXPECT_TRUE(InIntervalOpenClosed(123, 7, 7));
}

TEST(RingIdTest, IntervalOpen) {
  EXPECT_TRUE(InIntervalOpen(5, 1, 10));
  EXPECT_FALSE(InIntervalOpen(10, 1, 10));
  EXPECT_FALSE(InIntervalOpen(1, 1, 10));
}

TEST(RingIdTest, PeerIdsWellSpread) {
  // Node ids must not collide for realistic populations.
  std::set<NodeId> ids;
  for (uint32_t p = 0; p < 50000; ++p) {
    ASSERT_TRUE(ids.insert(PeerToNodeId(p)).second) << p;
  }
}

TEST(ChordTest, InvariantsAfterConstruction) {
  ChordFixture f(256);
  EXPECT_EQ(f.chord.CheckInvariants(), "");
  EXPECT_EQ(f.chord.num_members(), 256u);
}

TEST(ChordTest, ResponsibleMemberIsDeterministic) {
  ChordFixture f(64);
  for (uint64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(f.chord.ResponsibleMember(key),
              f.chord.ResponsibleMember(key));
  }
}

TEST(ChordTest, ResponsibilityPartitionsKeySpace) {
  // Every key has exactly one responsible member; responsibilities over
  // many keys should cover many members (load balance sanity).
  ChordFixture f(128);
  std::set<net::PeerId> owners;
  for (uint64_t key = 0; key < 2000; ++key) {
    net::PeerId owner = f.chord.ResponsibleMember(key);
    ASSERT_NE(owner, net::kInvalidPeer);
    owners.insert(owner);
  }
  EXPECT_GT(owners.size(), 64u);
}

TEST(ChordTest, LookupReachesResponsible) {
  ChordFixture f(200);
  for (uint64_t key = 0; key < 50; ++key) {
    LookupResult r = f.chord.Lookup(5, key);
    EXPECT_TRUE(r.success) << "key " << key;
    EXPECT_EQ(r.terminus, f.chord.ResponsibleMember(key));
    EXPECT_TRUE(r.responsible_online);
  }
}

TEST(ChordTest, LookupFromOwnerIsLocal) {
  ChordFixture f(100);
  uint64_t key = 7;
  net::PeerId owner = f.chord.ResponsibleMember(key);
  LookupResult r = f.chord.Lookup(owner, key);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.messages, 0u);
}

TEST(ChordTest, LookupHopsAreLogarithmic) {
  // Eq. 7: expected lookup cost ~ 0.5*log2(n) hops.  Allow generous slack
  // for the ring's randomness but pin the order of magnitude.
  constexpr uint32_t kN = 1024;
  ChordFixture f(kN);
  pdht::Histogram hops;
  Rng pick(17);
  for (int trial = 0; trial < 500; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(kN));
    uint64_t key = pick.Next();
    LookupResult r = f.chord.Lookup(origin, key);
    ASSERT_TRUE(r.success);
    hops.Add(static_cast<double>(r.hops));
  }
  double expected = 0.5 * std::log2(static_cast<double>(kN));  // = 5
  EXPECT_GT(hops.mean(), expected * 0.5);
  EXPECT_LT(hops.mean(), expected * 2.0);
}

TEST(ChordTest, LookupCountsMessagesOnNetwork) {
  ChordFixture f(128);
  uint64_t before = f.net.TotalMessages();
  LookupResult r = f.chord.Lookup(0, 12345);
  EXPECT_EQ(f.net.TotalMessages() - before, r.messages);
}

TEST(ChordTest, LookupRoutesAroundOfflineOwner) {
  ChordFixture f(64);
  uint64_t key = 3;
  net::PeerId owner = f.chord.ResponsibleMember(key);
  f.net.SetOnline(owner, false);
  LookupResult r = f.chord.Lookup((owner + 1) % 64 == owner ? 1 : (owner + 1) % 64, key);
  EXPECT_FALSE(r.responsible_online);
  EXPECT_EQ(r.responsible, owner);
  EXPECT_NE(r.terminus, owner);
  EXPECT_TRUE(f.net.IsOnline(r.terminus));
}

TEST(ChordTest, LookupSurvivesStaleFingersUnderChurn) {
  ChordFixture f(256);
  // Knock 25% of members offline without any repair.
  Rng off(9);
  std::vector<bool> down(256, false);
  for (uint32_t i = 0; i < 256; ++i) {
    if (off.Bernoulli(0.25)) {
      f.net.SetOnline(i, false);
      down[i] = true;
    }
  }
  int successes = 0;
  int attempts = 0;
  Rng pick(11);
  for (int trial = 0; trial < 100; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(256));
    if (down[origin]) continue;
    ++attempts;
    LookupResult r = f.chord.Lookup(origin, pick.Next());
    if (r.success) ++successes;
  }
  ASSERT_GT(attempts, 0);
  // Routing around failures must succeed for the vast majority.
  EXPECT_GT(static_cast<double>(successes) / attempts, 0.9);
}

TEST(ChordTest, FailedProbesCostMessages) {
  ChordFixture f(128);
  Rng off(13);
  for (uint32_t i = 0; i < 128; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  uint64_t total_failed = 0;
  Rng pick(15);
  for (int trial = 0; trial < 50; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(128));
    if (!f.net.IsOnline(origin)) continue;
    LookupResult r = f.chord.Lookup(origin, pick.Next());
    total_failed += r.failed_probes;
    EXPECT_GE(r.messages, r.hops);  // failures add messages beyond hops
  }
  EXPECT_GT(total_failed, 0u);
}

TEST(ChordTest, RandomOnlineMemberSkipsOffline) {
  ChordFixture f(16);
  for (uint32_t i = 0; i < 16; ++i) {
    if (i != 7) f.net.SetOnline(i, false);
  }
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    EXPECT_EQ(f.chord.RandomOnlineMember(rng), 7u);
  }
}

TEST(ChordTest, RandomOnlineMemberAllOffline) {
  ChordFixture f(8);
  for (uint32_t i = 0; i < 8; ++i) f.net.SetOnline(i, false);
  Rng rng(4);
  EXPECT_EQ(f.chord.RandomOnlineMember(rng), net::kInvalidPeer);
}

TEST(ChordTest, StaleFingerFractionTracksChurn) {
  ChordFixture f(200);
  EXPECT_DOUBLE_EQ(f.chord.StaleFingerFraction(), 0.0);
  Rng off(5);
  for (uint32_t i = 0; i < 200; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  double stale = f.chord.StaleFingerFraction();
  EXPECT_GT(stale, 0.15);
  EXPECT_LT(stale, 0.45);
}

TEST(ChordTest, TinyRings) {
  ChordFixture f(2);
  LookupResult r = f.chord.Lookup(0, 99);
  EXPECT_TRUE(r.success);
  ChordFixture g(1);
  LookupResult r1 = g.chord.Lookup(0, 5);
  EXPECT_TRUE(r1.success);
  EXPECT_EQ(r1.terminus, 0u);
}

// Parameterized: lookup success and hop bound across ring sizes.
class ChordSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ChordSizeSweep, AllLookupsSucceedOnStaticRing) {
  uint32_t n = GetParam();
  ChordFixture f(n);
  Rng pick(n * 3 + 1);
  for (int trial = 0; trial < 60; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(n));
    LookupResult r = f.chord.Lookup(origin, pick.Next());
    ASSERT_TRUE(r.success);
    ASSERT_LE(r.hops, 4u * static_cast<uint32_t>(std::log2(n + 1)) + 16u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChordSizeSweep,
                         ::testing::Values(2, 3, 5, 8, 16, 64, 256, 1000));

}  // namespace
}  // namespace pdht::overlay
