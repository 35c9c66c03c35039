// google-benchmark microbenchmarks for the hot primitives of the library:
// RNG, Zipf sampling, TTL-index operations, Chord lookups, analytical
// model evaluation, and the unstructured search (flood, content oracle,
// content placement).  These guard the simulator's throughput (a
// 20,000-peer run issues millions of these operations).

#include <benchmark/benchmark.h>

#include "core/ttl_index.h"
#include "model/cost_model.h"
#include "model/selection_model.h"
#include "net/network.h"
#include "overlay/dht/chord.h"
#include "overlay/unstructured/flooding.h"
#include "overlay/unstructured/random_graph.h"
#include "overlay/unstructured/replication.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace {

using namespace pdht;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngUniformBounded(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformU64(12345));
  }
}
BENCHMARK(BM_RngUniformBounded);

void BM_ZipfTableSample(benchmark::State& state) {
  ZipfSampler z(static_cast<uint64_t>(state.range(0)), 1.2);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Sample(rng));
  }
}
BENCHMARK(BM_ZipfTableSample)->Arg(1000)->Arg(40000);

void BM_ZipfRejectionSample(benchmark::State& state) {
  ZipfRejectionSampler z(static_cast<uint64_t>(state.range(0)), 1.2);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Sample(rng));
  }
}
BENCHMARK(BM_ZipfRejectionSample)->Arg(1000)->Arg(40000);

void BM_TtlIndexPutTouch(benchmark::State& state) {
  core::TtlIndex idx(static_cast<uint64_t>(state.range(0)));
  Rng rng(5);
  double now = 0.0;
  for (auto _ : state) {
    now += 0.001;
    uint64_t key = rng.UniformU64(1000);
    if (!idx.Touch(key, now, 100.0)) {
      idx.Put(key, now, 100.0);
    }
  }
}
BENCHMARK(BM_TtlIndexPutTouch)->Arg(0)->Arg(100);

void BM_TtlIndexEvictExpired(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::TtlIndex idx;
    for (uint64_t k = 0; k < 1000; ++k) {
      idx.Put(k, 0.0, 1.0 + static_cast<double>(k % 10));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(idx.EvictExpired(100.0));
  }
}
BENCHMARK(BM_TtlIndexEvictExpired);

void BM_ChordLookup(benchmark::State& state) {
  CounterRegistry counters;
  net::Network net(&counters);
  overlay::ChordOverlay chord(&net);
  uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<net::PeerId> members;
  for (uint32_t i = 0; i < n; ++i) {
    members.push_back(i);
    net.SetOnline(i, true);
  }
  chord.SetMembers(members);
  Rng pick(7);
  for (auto _ : state) {
    overlay::LookupResult r = chord.Lookup(
        static_cast<net::PeerId>(pick.UniformU64(n)), pick.Next());
    benchmark::DoNotOptimize(r.hops);
  }
}
BENCHMARK(BM_ChordLookup)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CostModelEvaluate(benchmark::State& state) {
  model::ScenarioParams p;
  model::CostModel m(p);
  double f = 1.0 / 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Evaluate(f).partial);
  }
}
BENCHMARK(BM_CostModelEvaluate);

void BM_SelectionModelEvaluate(benchmark::State& state) {
  model::ScenarioParams p;
  model::SelectionModel sel(p);
  double f = 1.0 / 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.Evaluate(f).partial);
  }
}
BENCHMARK(BM_SelectionModelEvaluate);

// Table 1's peers and replication (20,000 peers, repl 50).
constexpr uint32_t kTable1Peers = 20000;
constexpr uint32_t kTable1Repl = 50;

// One unbounded flood over 20,000 peers (degree 6, a third offline) from
// a rotating online origin.  Arg 0 floods for an absent key (no hit, the
// oracle is asked at every fresh peer); arg 1 for a key with 50 holders
// (a hit early on, then the flood only spreads).  Items are copies sent.
void BM_FloodSearch(benchmark::State& state) {
  Rng rng(11);
  overlay::RandomGraph graph(kTable1Peers, 6.0, &rng);
  CounterRegistry counters;
  net::Network net(&counters);
  Rng off(12);
  std::vector<net::PeerId> origins;
  for (uint32_t i = 0; i < kTable1Peers; ++i) {
    const bool online = off.UniformU64(3) != 0;
    net.SetOnline(i, online);
    if (online && origins.size() < 64) origins.push_back(i);
  }
  overlay::ReplicaPlacement placement(kTable1Peers, kTable1Repl, Rng(13));
  placement.PlaceKeys(1);  // key 0 has 50 holders; key 1 has none
  overlay::FloodSearch flood(
      &graph, &net, [&placement](net::PeerId peer, uint64_t key) {
        return placement.PeerHoldsKey(peer, key);
      });
  const uint64_t key = state.range(0) == 0 ? 1 : 0;
  uint64_t copies = 0;
  size_t next = 0;
  for (auto _ : state) {
    overlay::FloodResult r =
        flood.Search(origins[next++ % origins.size()], key, kTable1Peers);
    copies += r.messages;
    benchmark::DoNotOptimize(r.peers_reached);
  }
  state.SetItemsProcessed(static_cast<int64_t>(copies));
}
BENCHMARK(BM_FloodSearch)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The content oracle at Table 1's placement (40,000 keys), random peer
// and key.
void BM_PeerHoldsKey(benchmark::State& state) {
  constexpr uint64_t kKeys = 40000;
  overlay::ReplicaPlacement placement(kTable1Peers, kTable1Repl, Rng(14));
  placement.PlaceKeys(kKeys);
  Rng pick(15);
  for (auto _ : state) {
    const auto peer = static_cast<net::PeerId>(pick.UniformU64(kTable1Peers));
    benchmark::DoNotOptimize(
        placement.PeerHoldsKey(peer, pick.UniformU64(kKeys)));
  }
}
BENCHMARK(BM_PeerHoldsKey);

// Placing 40,000 keys x 50 holders over 20,000 peers (Table 1's setup).
void BM_PlaceKeys(benchmark::State& state) {
  for (auto _ : state) {
    overlay::ReplicaPlacement placement(kTable1Peers, kTable1Repl, Rng(16));
    placement.PlaceKeys(40000);
    benchmark::DoNotOptimize(placement.PeerHoldsKey(0, 0));
  }
}
BENCHMARK(BM_PlaceKeys)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
