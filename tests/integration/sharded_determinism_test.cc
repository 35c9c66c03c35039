// Determinism contract of the round engine: every recorded series,
// every snapshot metric and every routing-table bit is a pure function of
// (config, seed) -- the thread count and the shard count only choose how
// the same work is scheduled.  The default config (sim_threads = 1,
// sim_shards = 0: every phase inline on the caller) is one cell of the
// matrix, so the stream the golden-series recordings pin is the same
// stream every parallel run reproduces.
//
// The engine earns this by splitting every phase into PLAN (task lists
// from per-chunk streams or fixed-order main-stream draws), EXECUTE
// (per-task derived Rng streams, per-worker counter lanes, buffered
// mutations) and PUBLISH (order-sensitive effects replayed in task
// order); queries do it in two waves (first task of each key, then the
// repeats).  See docs/architecture.md "Round engine".  These tests run
// the same configuration at several sim_threads / sim_shards settings
// and require bit-identical results, for all four backends, under both
// delivery models and under trace replay.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pdht_system.h"
#include "metadata/trace.h"
#include "metadata/workload.h"
#include "model/selection_model.h"

namespace pdht::core {
namespace {

constexpr uint64_t kRounds = 24;
constexpr size_t kTail = 8;

SystemConfig BaseConfig(Strategy strategy) {
  SystemConfig c;
  c.params.num_peers = 200;
  c.params.keys = 400;
  c.params.stor = 20;
  c.params.repl = 10;
  c.params.f_qry = 1.0 / 5.0;
  c.params.f_upd = 1.0 / 20.0;
  c.strategy = strategy;
  c.churn.enabled = true;  // exercise rejoins + probe failures in-phase
  c.churn.mean_online_s = 600.0;
  c.churn.mean_offline_s = 120.0;
  c.seed = 987654321;
  return c;
}

/// Every per-round series plus the end-of-run snapshot, as plain values.
struct RunRecord {
  std::map<std::string, std::vector<double>> series;
  RunSnapshot snap;
  /// Order-sensitive hash over every member's routing table at the end
  /// of the run (0 when the backend doesn't implement it, and for
  /// kNoIndex).  The series above can't see a table whose *contents*
  /// differ but whose message counts happen to agree; this can.
  uint64_t fingerprint = 0;
};

RunRecord RunOnce(const SystemConfig& config, bool shuffle_publish = false) {
  PdhtSystem system(config);
  system.SetShufflePublishForTesting(shuffle_publish);
  system.RunRounds(kRounds);
  RunRecord rec;
  for (const std::string& name : system.engine().SeriesNames()) {
    const auto& ts = system.engine().Series(name);
    std::vector<double>& out = rec.series[name];
    out.reserve(ts.size());
    for (size_t i = 0; i < ts.size(); ++i) out.push_back(ts.at(i));
  }
  rec.snap = system.Snapshot(kTail);
  if (system.dht_overlay() != nullptr) {
    rec.fingerprint = system.dht_overlay()->RoutingFingerprint();
  }
  return rec;
}

void ExpectIdentical(const RunRecord& a, const RunRecord& b,
                     const std::string& label) {
  ASSERT_EQ(a.series.size(), b.series.size()) << label;
  for (const auto& [name, values] : a.series) {
    auto it = b.series.find(name);
    ASSERT_NE(it, b.series.end()) << label << ": missing series " << name;
    ASSERT_EQ(values.size(), it->second.size()) << label << ": " << name;
    for (size_t i = 0; i < values.size(); ++i) {
      // Exact equality on purpose: bit-identical is the claim under test.
      EXPECT_EQ(values[i], it->second[i])
          << label << ": series " << name << " diverged at round " << i;
    }
  }
  EXPECT_EQ(a.snap.series_tail, b.snap.series_tail) << label;
  EXPECT_EQ(a.snap.index_keys, b.snap.index_keys) << label;
  EXPECT_EQ(a.snap.effective_key_ttl, b.snap.effective_key_ttl) << label;
  EXPECT_EQ(a.snap.dht_members, b.snap.dht_members) << label;
  EXPECT_EQ(a.snap.latency, b.snap.latency) << label;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << label << ": routing tables";
}

SystemConfig Engine(SystemConfig c, uint32_t threads, uint32_t shards) {
  c.sim_threads = threads;
  c.sim_shards = shards;
  return c;
}

/// Runs `base` at its default engine setting (sim_threads = 1,
/// sim_shards = 0) and at sim_threads {2, 4} x sim_shards {default, 4},
/// requiring every cell to match the default bit for bit.  Returns the
/// default run.
RunRecord ExpectThreadInvariant(const SystemConfig& base,
                                const std::string& label) {
  RunRecord ref = RunOnce(Engine(base, 1, 0));
  for (uint32_t threads : {2u, 4u}) {
    for (uint32_t shards : {0u, 4u}) {
      ExpectIdentical(ref, RunOnce(Engine(base, threads, shards)),
                      label + " threads " + std::to_string(threads) +
                          " shards " + std::to_string(shards));
    }
  }
  return ref;
}

SystemConfig Latency(SystemConfig c) {
  c.delivery_model = net::DeliveryModelKind::kLatency;
  return c;
}

TEST(ShardedDeterminismTest, ImmediateThreadCountsAreBitIdentical) {
  ExpectThreadInvariant(BaseConfig(Strategy::kPartialTtl), "immediate");
}

TEST(ShardedDeterminismTest, LatencyThreadCountsAreBitIdentical) {
  // Deferred delivery is the hard case: per-message latencies are
  // float-summed and histogrammed, so publish order must be exact --
  // lane buffers replay in task order, not completion order.
  SystemConfig base = Latency(BaseConfig(Strategy::kPartialTtl));
  base.proximity_routing = false;
  const RunRecord ref = ExpectThreadInvariant(base, "latency");
  // The latency axis is genuinely exercised, not trivially empty.
  EXPECT_GT(ref.snap.latency.at(PdhtSystem::kMetricLookupRttCount), 0.0);
}

TEST(ShardedDeterminismTest, ShardCountsAreBitIdentical) {
  // The shard count partitions eviction, the per-origin tally and the
  // boundary drain; their effects commute, so any partition must produce
  // the same run.  Covers both delivery models.
  const SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  ExpectIdentical(RunOnce(Engine(base, 2, 1)), RunOnce(Engine(base, 2, 4)),
                  "immediate shards 1 vs 4");
  SystemConfig lat = Latency(base);
  lat.proximity_routing = false;
  ExpectIdentical(RunOnce(Engine(lat, 2, 1)), RunOnce(Engine(lat, 2, 4)),
                  "latency shards 1 vs 4");
}

TEST(ShardedDeterminismTest, UnstructuredOnlyStrategyIsThreadInvariant) {
  // kNoIndex runs pure random-walk queries -- the per-task Rng plus
  // per-worker searcher path with no DHT routing at all.
  ExpectThreadInvariant(BaseConfig(Strategy::kNoIndex), "noindex");
}

/// Maintenance and churn rejoins mutate routing tables from worker
/// threads; the fingerprint (an order-sensitive hash over every member's
/// table) must be bit-identical across the threads x shards matrix under
/// both delivery models.  Churn is on in BaseConfig, so both the
/// probe/repair path and the rejoin-rebuild path run.
void ExpectBackendMatrix(DhtBackend backend) {
  SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  base.backend = backend;
  const std::string name = DhtBackendName(backend);
  const RunRecord ref = ExpectThreadInvariant(base, name + " immediate");
  EXPECT_NE(ref.fingerprint, 0u) << name;
  ExpectThreadInvariant(Latency(base), name + " latency");
}

TEST(ShardedDeterminismTest, MaintenanceFingerprintMatrixChord) {
  ExpectBackendMatrix(DhtBackend::kChord);
}

TEST(ShardedDeterminismTest, MaintenanceFingerprintMatrixPGrid) {
  // Each task writes only its own member's refs; candidate scans and
  // rejoin rebuilds read the other members' frozen paths.
  ExpectBackendMatrix(DhtBackend::kPGrid);
}

TEST(ShardedDeterminismTest, MaintenanceFingerprintMatrixCan) {
  // Probe-only maintenance over static zones: the fingerprint doubles as
  // a check that the parallel phase never mutates shared geometry.
  ExpectBackendMatrix(DhtBackend::kCan);
}

TEST(ShardedDeterminismTest, MaintenanceFingerprintMatrixKademlia) {
  // Rejoin rebuild *draws* (bucket shuffles) run on worker threads under
  // per-peer derived streams; with latency + PNS the bucket contents come
  // from RTT sorts instead.
  ExpectBackendMatrix(DhtBackend::kKademlia);
}

TEST(ShardedDeterminismTest, ShuffledPublishOrderIsBitIdentical) {
  // The shuffle test hook perturbs every *commutative* publish slice --
  // lane counter merges run last-to-first, the per-origin tally visits
  // shards in reversed order -- while leaving the ordered replay alone.
  // Bit-identical results prove the commutative/ordered split is sound.
  // Covers both delivery models (deferred delivery additionally routes
  // boundary-drain drop tallies through the lanes).
  const SystemConfig base = Engine(BaseConfig(Strategy::kPartialTtl), 4, 4);
  ExpectIdentical(RunOnce(base), RunOnce(base, /*shuffle_publish=*/true),
                  "immediate shuffled publish");
  SystemConfig lat = Latency(base);
  lat.proximity_routing = false;
  ExpectIdentical(RunOnce(lat), RunOnce(lat, /*shuffle_publish=*/true),
                  "latency shuffled publish");
}

TEST(ShardedDeterminismTest, ProactiveUpdatesAreThreadInvariant) {
  // kIndexAll exercises the proactive-update phase (plan draws ranks
  // serially, lookups + flood costing run parallel, replica Puts publish
  // in task order) together with maintenance.
  const SystemConfig base = BaseConfig(Strategy::kIndexAll);
  const RunRecord ref = ExpectThreadInvariant(base, "indexAll");
  // Updates actually flowed: the replica-push series is non-trivial.
  EXPECT_GT(ref.snap.series_tail.at(PdhtSystem::kSeriesMsgReplica), 0.0);
  SystemConfig lat = Latency(base);
  lat.proximity_routing = false;
  ExpectThreadInvariant(lat, "indexAll latency");
}

TEST(ShardedDeterminismTest, TraceReplayIsThreadInvariant) {
  // Trace replay plans from the trace instead of the per-peer Zipf
  // streams; each entry's origin comes off its own derived stream, so
  // the plan is thread-invariant too.
  SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  metadata::QueryWorkload workload(base.params.keys, base.params.alpha,
                                   Rng(321));
  const metadata::QueryTrace trace = metadata::QueryTrace::Synthesize(
      workload, kRounds, base.params.num_peers, base.params.f_qry);
  base.trace = &trace;
  const RunRecord ref = ExpectThreadInvariant(base, "trace");
  EXPECT_GT(ref.snap.series_tail.at(PdhtSystem::kSeriesHitRate), 0.0);
  ExpectThreadInvariant(Latency(base), "trace latency");
}

TEST(ShardedDeterminismTest, PerStrategySanityBandAgainstModel) {
  // Aggregate sanity against the analytical model, catching dropped or
  // double-counted queries and hits: the per-origin tallies must add up
  // to the planned query volume (num_peers * f_qry per round in
  // expectation), and each strategy's hit rate must sit where the model
  // puts it.  Runs at 4 threads -- the matrix above ties every thread
  // count to the same numbers.
  constexpr uint64_t kBandRounds = 60;
  for (Strategy strategy : {Strategy::kNoIndex, Strategy::kIndexAll,
                            Strategy::kPartialIdeal, Strategy::kPartialTtl}) {
    const SystemConfig config = Engine(BaseConfig(strategy), 4, 0);
    PdhtSystem system(config);
    system.RunRounds(kBandRounds);
    uint64_t queries = 0;
    uint64_t hits = 0;
    for (net::PeerId peer = 0; peer < config.params.num_peers; ++peer) {
      queries += system.NodeOf(peer).queries_sent();
      hits += system.NodeOf(peer).hits();
    }
    const std::string name = StrategyName(strategy);
    const double expected_queries = static_cast<double>(kBandRounds) *
                                    static_cast<double>(
                                        config.params.num_peers) *
                                    config.params.f_qry;
    EXPECT_NEAR(static_cast<double>(queries), expected_queries,
                0.1 * expected_queries)
        << name;
    const double hit_rate =
        static_cast<double>(hits) / static_cast<double>(queries);
    const model::SelectionModel sel(config.params);
    switch (strategy) {
      case Strategy::kNoIndex:
        EXPECT_EQ(hits, 0u) << name;
        break;
      case Strategy::kIndexAll:
        EXPECT_GT(hit_rate, 0.9) << name;
        break;
      case Strategy::kPartialIdeal:
        // Index-first queries are exactly the top OracleMaxRank keys,
        // each preloaded forever: the hit rate is their Zipf mass.
        EXPECT_NEAR(hit_rate,
                    sel.cost_model().zipf().Cdf(system.OracleMaxRank()),
                    0.1)
            << name;
        break;
      case Strategy::kPartialTtl:
        // Eq. 14: the query-weighted probability a key is indexed, which
        // the cold start and churn can only pull down.
        EXPECT_GT(hit_rate, 0.5) << name;
        EXPECT_LT(hit_rate,
                  sel.PIndxd(config.params.f_qry, system.EffectiveKeyTtl()) +
                      0.1)
            << name;
        break;
    }
  }
}

}  // namespace
}  // namespace pdht::core
