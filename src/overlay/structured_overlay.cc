#include "overlay/structured_overlay.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "overlay/can/can.h"
#include "overlay/dht/chord.h"
#include "overlay/dht/kademlia.h"
#include "overlay/pgrid/pgrid.h"
#include "util/hash.h"

namespace pdht::overlay {

StructuredOverlay::StructuredOverlay(net::Network* network)
    : network_(network), driver_(network) {
  assert(network != nullptr);
}

LookupResult StructuredOverlay::Lookup(net::PeerId origin, uint64_t key) {
  return driver_.Route(*this, origin, key);
}

uint32_t StructuredOverlay::PlanMaintenanceRound(double env) {
  maint_tasks_.clear();
  const std::vector<net::PeerId>& mem = members();
  for (uint32_t i = 0; i < mem.size(); ++i) {
    const net::PeerId peer = mem[i];
    if (!network_->IsOnline(peer)) continue;
    const size_t table = TableSize(peer);
    if (table == 0) continue;
    double& carry = maint_carry_[peer];
    carry += env * static_cast<double>(table);
    // The whole-probe count is frozen here, at the round-start table
    // size (repairs that shrink a table mid-round don't shift this
    // round's budget).
    const uint32_t probes = static_cast<uint32_t>(carry);
    carry -= static_cast<double>(probes);
    if (probes > 0) maint_tasks_.push_back(MaintenanceTask{peer, i, probes});
  }
  maint_sent_.assign(maint_tasks_.size(), 0);
  return static_cast<uint32_t>(maint_tasks_.size());
}

void StructuredOverlay::ExecuteMaintenanceChunk(uint64_t seed,
                                                uint32_t chunk) {
  Rng rng(Mix64(HashCombine(seed, chunk)));
  const size_t end = std::min<size_t>(maint_tasks_.size(),
                                      (chunk + 1) * kMaintenanceChunk);
  for (size_t task = chunk * kMaintenanceChunk; task < end; ++task) {
    maint_sent_[task] = ProbeMember(maint_tasks_[task], rng);
  }
}

uint64_t StructuredOverlay::FinishMaintenanceRound() {
  uint64_t sent = 0;
  for (uint32_t s : maint_sent_) sent += s;
  maint_tasks_.clear();
  maint_sent_.clear();
  return sent;
}

uint64_t StructuredOverlay::RunMaintenanceRound(double env) {
  const uint32_t tasks = PlanMaintenanceRound(env);
  const uint64_t seed =
      Mix64(HashCombine(0x6d61696e74ULL, maint_rounds_++));  // "maint"
  for (uint32_t c = 0; c * kMaintenanceChunk < tasks; ++c) {
    ExecuteMaintenanceChunk(seed, c);
  }
  return FinishMaintenanceRound();
}

net::PeerId StructuredOverlay::RandomOnlineMember(Rng& rng) const {
  const std::vector<net::PeerId>& mem = members();
  if (mem.empty()) return net::kInvalidPeer;
  for (int attempt = 0; attempt < 64; ++attempt) {
    net::PeerId p = mem[rng.UniformU64(mem.size())];
    if (network_->IsOnline(p)) return p;
  }
  for (net::PeerId p : mem) {
    if (network_->IsOnline(p)) return p;
  }
  return net::kInvalidPeer;
}

void StructuredOverlay::ResponsiblePeersInto(
    uint64_t key, uint32_t count, std::vector<net::PeerId>* out) const {
  // "Index and content are replicated with the same factor" (Section 4)
  // and content replication is random.  The responsible member (the
  // lookup terminus) is replica 0 -- the insertion point -- and the
  // remaining count-1 replicas are hash-derived members, which spreads
  // the storage load uniformly.
  out->clear();
  const std::vector<net::PeerId>& mem = members();
  net::PeerId responsible = ResponsibleMember(key);
  if (responsible == net::kInvalidPeer || mem.empty()) return;
  uint32_t want = static_cast<uint32_t>(
      std::min<uint64_t>(count, mem.size()));
  out->reserve(want);
  out->push_back(responsible);
  uint64_t salt = 0;
  while (out->size() < want && salt < 16ull * want) {
    net::PeerId cand = mem[Mix64(HashCombine(key, ++salt)) % mem.size()];
    if (std::find(out->begin(), out->end(), cand) == out->end()) {
      out->push_back(cand);
    }
  }
}

namespace {

std::unique_ptr<StructuredOverlay> MakeChord(net::Network* network,
                                             const OverlayParams& /*params*/,
                                             Rng /*rng*/) {
  return std::make_unique<ChordOverlay>(network);
}

std::unique_ptr<StructuredOverlay> MakePGrid(net::Network* network,
                                             const OverlayParams& params,
                                             Rng rng) {
  PGridConfig pc;
  pc.refs_per_level = 4;
  uint64_t population = std::max<uint64_t>(params.num_peers, 1);
  pc.max_leaf_peers = static_cast<uint32_t>(
      std::max<uint64_t>(1, std::min(params.repl, population)));
  return std::make_unique<PGridOverlay>(network, rng, pc);
}

std::unique_ptr<StructuredOverlay> MakeCan(net::Network* network,
                                           const OverlayParams& /*params*/,
                                           Rng rng) {
  return std::make_unique<CanOverlay>(network, rng);
}

std::unique_ptr<StructuredOverlay> MakeKademlia(net::Network* network,
                                                const OverlayParams& params,
                                                Rng rng) {
  return std::make_unique<KademliaOverlay>(
      network, rng, std::max<uint32_t>(1, params.kademlia_bucket_size),
      std::max<uint32_t>(1, params.kademlia_alpha));
}

/// Enum-keyed factory table.  A function-local static (not per-TU static
/// registrar objects) so registration survives static-library linking and
/// has no initialization-order hazards.
std::map<core::DhtBackend, OverlayFactory>& Registry() {
  static std::map<core::DhtBackend, OverlayFactory> registry = {
      {core::DhtBackend::kChord, &MakeChord},
      {core::DhtBackend::kPGrid, &MakePGrid},
      {core::DhtBackend::kCan, &MakeCan},
      {core::DhtBackend::kKademlia, &MakeKademlia},
  };
  return registry;
}

}  // namespace

bool RegisterOverlay(core::DhtBackend backend, OverlayFactory factory) {
  if (factory == nullptr) return false;
  return Registry().emplace(backend, factory).second;
}

bool IsRegisteredBackend(core::DhtBackend backend) {
  return Registry().count(backend) > 0;
}

std::vector<core::DhtBackend> RegisteredBackends() {
  std::vector<core::DhtBackend> out;
  out.reserve(Registry().size());
  for (const auto& [backend, factory] : Registry()) {
    (void)factory;
    out.push_back(backend);
  }
  return out;
}

std::unique_ptr<StructuredOverlay> MakeOverlay(core::DhtBackend backend,
                                               net::Network* network,
                                               const OverlayParams& params,
                                               Rng rng) {
  auto it = Registry().find(backend);
  if (it == Registry().end()) return nullptr;
  return it->second(network, params, rng);
}

std::unique_ptr<StructuredOverlay> MakeOverlay(const std::string& name,
                                               net::Network* network,
                                               const OverlayParams& params,
                                               Rng rng) {
  core::DhtBackend backend;
  if (!core::ParseDhtBackend(name, &backend)) return nullptr;
  return MakeOverlay(backend, network, params, rng);
}

}  // namespace pdht::overlay
