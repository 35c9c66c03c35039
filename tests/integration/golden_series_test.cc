// Golden per-round series: proof that the allocation-free accounting
// overhaul (interned counter handles, prefix groups, scratch replica
// buffers, templated eviction callbacks, rejection-loop sizing) changed
// the simulator's *cost*, not its *semantics*.
//
// The expected values below were recorded by running the exact
// configurations in GoldenConfig and printing every kSeries* series at
// full double precision.  The simulator must reproduce them bit-for-bit:
// every counted message, every RNG draw and every eviction/order decision
// has to be identical for these to match over a churned 24-round run.
//
// Last re-recorded when the legacy serial round loop was deleted and the
// plan/execute/publish engine became the only one, with query waves (an
// intentional stream change): queries are planned per online peer from
// (seed, round, chunk) streams, each task draws from its own derived Rng,
// and the first query of each key executes and publishes before that
// key's repeats.  Maintenance runs as per-member tasks drawing from
// per-chunk derived streams, and rejoins rebuild from per-peer streams.
// The main stream lost the fork of the deleted serial walk searcher, so
// the DHT member sample changed too; the churn-driven online fraction is
// unchanged.
//
// If a future PR changes behaviour *intentionally* (new message type on a
// counted path, different routing decision), re-record with the
// documented procedure below and say so in the PR:
//   run a PdhtSystem at GoldenConfig(strategy) for kGoldenRounds, print
//   engine().Series(name) for each series with %.17g.
//
// The recordings run the default engine setting (sim_threads = 1, every
// phase inline); sharded_determinism_test.cc in this directory gates that
// every other thread/shard setting reproduces the same stream bit for
// bit.

#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/pdht_system.h"
#include "exp/experiment.h"
#include "exp/parallel_runner.h"

namespace pdht::core {
namespace {

constexpr uint64_t kGoldenRounds = 24;

SystemConfig GoldenConfig(Strategy strategy) {
  SystemConfig c;
  c.params.num_peers = 200;
  c.params.keys = 400;
  c.params.stor = 20;
  c.params.repl = 10;
  c.params.f_qry = 1.0 / 5.0;
  c.params.f_upd = 1.0 / 20.0;  // visible proactive-update traffic
  c.strategy = strategy;
  c.churn.enabled = true;  // exercise probe failures, repairs, rejoins
  c.churn.mean_online_s = 600.0;
  c.churn.mean_offline_s = 120.0;
  c.seed = 987654321;
  return c;
}

struct GoldenSeries {
  const char* name;
  std::vector<double> values;
};

void ExpectGolden(Strategy strategy, const std::vector<GoldenSeries>& golden,
                  const std::function<void(SystemConfig&)>& patch = {}) {
  SystemConfig config = GoldenConfig(strategy);
  if (patch) patch(config);
  PdhtSystem system(config);
  system.RunRounds(kGoldenRounds);
  for (const GoldenSeries& g : golden) {
    ASSERT_TRUE(system.engine().HasSeries(g.name)) << g.name;
    const auto& ts = system.engine().Series(g.name);
    ASSERT_EQ(ts.size(), g.values.size()) << g.name;
    for (size_t i = 0; i < g.values.size(); ++i) {
      // Exact equality on purpose: these are integer message counts and
      // deterministically derived ratios, and "bit-identical" is the
      // claim under test.
      EXPECT_EQ(ts.at(i), g.values[i])
          << g.name << " diverged at round " << i;
    }
  }
}

/// The partialTtl golden recording, shared by the plain run and the
/// delivery-model variants below.
const std::vector<GoldenSeries>& PartialTtlGolden() {
  static const std::vector<GoldenSeries> golden = {
      {PdhtSystem::kSeriesMsgTotal,
       {2995, 2619, 3814, 4585, 3523,
        2180, 1073, 2135, 2031, 1990,
        721, 2017, 775, 768, 1043,
        999, 3102, 704, 1144, 964,
        578, 969, 1004, 1014}},
      {PdhtSystem::kSeriesMsgDht,
       {354, 348, 388, 392, 312,
        333, 304, 291, 341, 287,
        236, 212, 221, 241, 299,
        263, 232, 194, 270, 274,
        250, 364, 401, 412}},
      {PdhtSystem::kSeriesMsgUnstructured,
       {1812, 1514, 2687, 3472, 2543,
        1288, 264, 1228, 1130, 1178,
        87, 1280, 138, 147, 149,
        267, 2361, 130, 272, 181,
        0, 206, 96, 48}},
      {PdhtSystem::kSeriesMsgReplica,
       {756, 684, 666, 648, 522,
        486, 432, 542, 486, 378,
        324, 450, 342, 306, 450,
        396, 434, 306, 454, 434,
        252, 324, 432, 414}},
      {PdhtSystem::kSeriesMsgMaint,
       {73, 73, 73, 73, 146,
        73, 73, 74, 74, 147,
        74, 75, 74, 74, 145,
        73, 75, 74, 148, 75,
        76, 75, 75, 140}},
      {PdhtSystem::kSeriesHitRate,
       {0.45454545454545453, 0.59459459459459463, 0.65789473684210531,
        0.80000000000000004, 0.625, 0.82222222222222219,
        0.86046511627906974, 0.78048780487804881, 0.92452830188679247,
        0.85365853658536583, 0.91891891891891897, 0.76666666666666672,
        0.92500000000000004, 0.92500000000000004, 0.86363636363636365,
        0.84615384615384615, 0.79411764705882348, 0.83870967741935487,
        0.8571428571428571, 0.84615384615384615, 1,
        0.90000000000000002, 0.875, 0.97872340425531912}},
      {PdhtSystem::kSeriesIndexSize,
       {18, 33, 46, 55, 67,
        75, 81, 90, 94, 100,
        103, 110, 113, 116, 122,
        128, 135, 140, 146, 152,
        152, 156, 162, 163}},
      {PdhtSystem::kSeriesOnlineFraction,
       {0.81499999999999995, 0.81499999999999995, 0.81000000000000005,
        0.81000000000000005, 0.81000000000000005, 0.81000000000000005,
        0.80500000000000005, 0.81000000000000005, 0.81000000000000005,
        0.80500000000000005, 0.80500000000000005, 0.80500000000000005,
        0.81000000000000005, 0.81000000000000005, 0.80500000000000005,
        0.80500000000000005, 0.81000000000000005, 0.81000000000000005,
        0.81999999999999995, 0.81499999999999995, 0.81000000000000005,
        0.80500000000000005, 0.80000000000000004, 0.80000000000000004}},
  };
  return golden;
}

TEST(GoldenSeriesTest, PartialTtlRunIsBitIdenticalToRecording) {
  ExpectGolden(Strategy::kPartialTtl, PartialTtlGolden());
}

// --- Delivery-model variants (the PR 4 refactor's core claim) ----------
//
// Network now routes every send through a pluggable DeliveryModel.  The
// default ImmediateDelivery must be a true no-op -- the same golden
// series, bit for bit -- and LatencyDelivery must change *when* handlers
// run (and what latency is measured) without perturbing a single counted
// message or RNG draw.

TEST(GoldenSeriesTest, ExplicitImmediateDeliveryMatchesGolden) {
  ExpectGolden(Strategy::kPartialTtl, PartialTtlGolden(),
               [](SystemConfig& c) {
                 c.delivery_model = net::DeliveryModelKind::kImmediate;
               });
}

TEST(GoldenSeriesTest, LatencyDeliveryKeepsMessageCountsBitIdentical) {
  // Deferred delivery with proximity routing off: the coordinate space is
  // a pure hash (no Rng stream consumed) and deliveries have no behaviour
  // feedback, so every message-count and hit-rate series must equal the
  // immediate-mode golden recording exactly, while the latency axis
  // opens up (non-empty lookup RTT histogram).
  SystemConfig config = GoldenConfig(Strategy::kPartialTtl);
  config.delivery_model = net::DeliveryModelKind::kLatency;
  config.proximity_routing = false;
  PdhtSystem system(config);
  system.RunRounds(kGoldenRounds);
  for (const GoldenSeries& g : PartialTtlGolden()) {
    ASSERT_TRUE(system.engine().HasSeries(g.name)) << g.name;
    const auto& ts = system.engine().Series(g.name);
    ASSERT_EQ(ts.size(), g.values.size()) << g.name;
    for (size_t i = 0; i < g.values.size(); ++i) {
      EXPECT_EQ(ts.at(i), g.values[i]) << g.name << " diverged at round "
                                       << i << " under LatencyDelivery";
    }
  }
  EXPECT_GT(system.lookup_rtt_ms().count(), 0u);
  EXPECT_GT(system.lookup_rtt_ms().mean(), 0.0);
  EXPECT_TRUE(system.engine().HasSeries(PdhtSystem::kSeriesDeferredRate));
  // The deferred deliveries really went through the boundary drain.
  EXPECT_GE(system.engine().total_events_run(),
            system.network().DeferredCount());
}

TEST(GoldenSeriesTest, LatencyDeliveryIsDeterministicAcrossThreadCounts) {
  // Same seed => identical latency histograms (surfaced as the
  // lookup.rtt.* / lookup.stretch metrics) no matter how many experiment
  // threads executed the cells.
  exp::ExperimentSpec spec;
  spec.name = "latency_determinism";
  spec.base = GoldenConfig(Strategy::kPartialTtl);
  spec.base.delivery_model = net::DeliveryModelKind::kLatency;
  spec.base.backend = DhtBackend::kKademlia;
  spec.rounds = 12;
  spec.tail = 4;
  spec.seeds_per_cell = 2;
  exp::Axis prox{"proximity",
                 {{"blind",
                   [](SystemConfig& c) { c.proximity_routing = false; }},
                  {"pns",
                   [](SystemConfig& c) { c.proximity_routing = true; }}}};
  spec.axes = {prox};

  exp::ParallelRunner one({1});
  exp::ParallelRunner four({4});
  auto r1 = one.Run(spec);
  auto r4 = four.Run(spec);
  ASSERT_EQ(r1.size(), r4.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].error, "");
    EXPECT_EQ(r1[i].metrics, r4[i].metrics) << "cell " << i;
    // The latency metrics are actually present and populated.
    ASSERT_TRUE(r1[i].metrics.count(PdhtSystem::kMetricLookupRttMean));
    EXPECT_GT(r1[i].metrics.at(PdhtSystem::kMetricLookupRttCount), 0.0);
  }
}

TEST(GoldenSeriesTest, IndexAllRunIsBitIdenticalToRecording) {
  const std::vector<GoldenSeries> golden = {
      {PdhtSystem::kSeriesMsgTotal,
       {1050, 1141, 1104, 1422, 1107,
        1287, 1227, 1239, 1371, 1189,
        1288, 1043, 1187, 1204, 1376,
        1177, 1114, 1268, 1079, 1181,
        1237, 1466, 1304, 1405}},
      {PdhtSystem::kSeriesMsgDht,
       {347, 366, 384, 396, 351,
        387, 400, 356, 435, 362,
        354, 288, 339, 340, 371,
        331, 302, 298, 353, 348,
        355, 427, 476, 504}},
      {PdhtSystem::kSeriesMsgUnstructured,
       {0, 0, 0, 0, 0,
        0, 0, 0, 0, 0,
        0, 0, 0, 0, 0,
        0, 0, 0, 0, 0,
        0, 0, 0, 0}},
      {PdhtSystem::kSeriesMsgReplica,
       {540, 612, 558, 702, 594,
        738, 666, 560, 774, 666,
        612, 594, 686, 702, 684,
        684, 650, 648, 562, 668,
        720, 720, 666, 740}},
      {PdhtSystem::kSeriesMsgMaint,
       {163, 163, 162, 324, 162,
        162, 161, 323, 162, 161,
        322, 161, 162, 162, 321,
        162, 162, 322, 164, 165,
        162, 319, 162, 161}},
      {PdhtSystem::kSeriesHitRate,
       {1, 1, 1,
        1, 1, 1,
        1, 1, 1,
        1, 1, 1,
        1, 1, 1,
        1, 1, 1,
        1, 1, 1,
        1, 1, 1}},
      {PdhtSystem::kSeriesIndexSize,
       {400, 400, 400, 400, 400,
        400, 400, 400, 400, 400,
        400, 400, 400, 400, 400,
        400, 400, 400, 400, 400,
        400, 400, 400, 400}},
      {PdhtSystem::kSeriesOnlineFraction,
       {0.81499999999999995, 0.81499999999999995, 0.81000000000000005,
        0.81000000000000005, 0.81000000000000005, 0.81000000000000005,
        0.80500000000000005, 0.81000000000000005, 0.81000000000000005,
        0.80500000000000005, 0.80500000000000005, 0.80500000000000005,
        0.81000000000000005, 0.81000000000000005, 0.80500000000000005,
        0.80500000000000005, 0.81000000000000005, 0.81000000000000005,
        0.81999999999999995, 0.81499999999999995, 0.81000000000000005,
        0.80500000000000005, 0.80000000000000004, 0.80000000000000004}},
  };
  ExpectGolden(Strategy::kIndexAll, golden);
}

}  // namespace
}  // namespace pdht::core
