// Shared hop-by-hop routing engine for the structured overlays.
//
// Every backend used to bury its lookup walk inside a monolithic
// Lookup(origin, key), so cross-cutting routing policies (latency-aware
// next-hop choice, timeout-aware failed-probe costing, per-hop
// instrumentation) would have had to be implemented four times.  This is
// the same seam move as net::DeliveryModel one layer up: backends are now
// pure *candidate generators* -- "from this peer, try these next hops, in
// this order" -- and RoutingDriver owns the walk itself: it probes
// candidates (one kDhtLookup per attempt on the shared Network, design
// decision #5), advances to the first online one, applies the
// cross-backend policies, and assembles the LookupResult under one
// documented contract (see structured_overlay.h).
//
// The walk, per hop:
//  1. destination check (StructuredOverlay::AtDestination) and hop budget
//     (LookupHopLimit);
//  2. primary candidates (NextHops), probed in emission order -- in
//     batches of LookupParallelism() when the backend requests a bounded
//     alpha-concurrent walk (Kademlia);
//  3. on exhaustion, fallback candidates (FallbackHop), generated one at
//     a time so O(n) recovery scans stay lazy exactly like the monolithic
//     walks they replaced.  A fallback candidate equal to the current
//     peer means "the walk ends here" (Kademlia's closest-online stand-in
//     terminates without a message).
//
// Policies (RoutingPolicy, installed by PdhtSystem from SystemConfig):
//  * proximity -- route-time PNS, two modes chosen by the backend's
//    ProgressWeightMs(): at 0 (default), within each maximal run of
//    *equal-progress* primary candidates, probe the lowest-RTT link
//    first -- never reordering across progress groups; at > 0
//    (weighted mode, Chord), primary candidates re-sort globally by
//    one-way RTT + weight * progress, so a backend must only opt in
//    when any primary-candidate order is correct.  Fallback candidates
//    are never reordered in either mode, so correctness-ordering of
//    the recovery scans (Chord's ring scan, Kademlia's XOR-order
//    stand-in scan) is preserved.
//  * timeout_costing -- a probe to an offline peer is no longer free in
//    latency terms: each fully-failed probe round charges the delivery
//    model's ProbeTimeoutSeconds through Network::ChargeProbeTimeout
//    (counted under "net.timeout" and folded into the per-lookup RTT
//    brackets).  With parallelism > 1 the alpha probes of a batch time
//    out concurrently, so a fully-failed batch charges one timeout, not
//    alpha.  With an adaptive RTO estimator installed on the delivery
//    model (net/rtt_estimator.h) the charged wait is per-link, not the
//    fixed LatencyConfig::timeout_ms.
//  * replica_route -- latency-aware replica failover at the terminal
//    hop: when a hop is about to end the walk (a terminal candidate, or
//    the responsible member itself, leads the candidate list), the
//    driver instead probes the key's replica group (StructuredOverlay::
//    ResponsiblePeersInto) cheapest-live-link-first and advances to the
//    first live replica as a terminal step; dead replicas are skipped
//    (tallied under "net.failover" and LookupResult::failovers) instead
//    of failing the lookup, and a walk whose candidates are exhausted
//    gets one replica pass as a rescue before being declared dead.
//    Probing runs in the same alpha batches as the primary phase, so a
//    fully-dead batch charges ONE shared timeout.
//
// With both policies off and parallelism 1 the driver reproduces every
// backend's pre-refactor walk bit-for-bit: same probe order, same
// messages, same hops (enforced by the recorded checksums in
// tests/overlay/backend_parity_test.cc and the golden-series suite).
// Scratch buffers are reused across hops and lookups, so steady-state
// routing does not allocate (bench_perf_roundloop guards this).

#ifndef PDHT_OVERLAY_ROUTING_DRIVER_H_
#define PDHT_OVERLAY_ROUTING_DRIVER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/network.h"

namespace pdht::overlay {

class StructuredOverlay;
struct LookupResult;

/// Lookup slots: concurrent lookups (the round engine's parallel
/// query phase) each run under a distinct slot index, selected per worker
/// thread via this thread-local.  All per-lookup state -- the driver's
/// candidate scratch and every backend's StartLookup-scoped fields --
/// lives in per-slot arrays indexed by CurrentLookupSlot(), so workers
/// never touch each other's walks while sharing one overlay instance
/// (whose tables they only read).  Slot 0 is the default; single-threaded
/// code never needs to call these.
uint32_t CurrentLookupSlot();
void SetCurrentLookupSlot(uint32_t slot);

/// One next-hop proposal from a backend's candidate generator.
struct RouteCandidate {
  net::PeerId peer = net::kInvalidPeer;
  /// Backend-defined progress metric, lower = better.  In the default
  /// route-PNS mode candidates with *equal* progress are interchangeable
  /// (the unit the policy may reorder within) and unequal values are
  /// never compared -- probe preference is emission order.  Backends
  /// opting into weighted route-PNS (ProgressWeightMs() > 0) instead
  /// have all primary candidates scored as rtt + weight * progress.
  /// Blind walks never read it.
  double progress = 0.0;
  /// Advancing to this candidate ends routing (Chord's ring-scan step at
  /// or past the target lands on the owner's live successor).
  bool terminal = false;
};

/// Per-lookup walk state handed to the candidate generators.
struct RouteState {
  net::PeerId origin = net::kInvalidPeer;
  net::PeerId cur = net::kInvalidPeer;
  uint32_t hops = 0;  ///< successful advances so far (== probe tag)
};

/// Cross-backend routing policies; installed once per overlay by
/// PdhtSystem (StructuredOverlay::SetRoutingPolicy).  Defaults reproduce
/// the blind pre-refactor walk.
struct RoutingPolicy {
  /// Route-time proximity next-hop selection (PNS at lookup time): prefer
  /// the lowest-RTT candidate among equal-progress next hops.  Requires
  /// `rtt`.
  bool proximity = false;
  /// Charge the delivery model's probe timeout for failed probe rounds
  /// (Network::ChargeProbeTimeout); off = failed probes cost messages but
  /// no latency, the pre-refactor behaviour.
  bool timeout_costing = false;
  /// Latency-aware replica failover at the terminal hop (see the header
  /// comment): route to the cheapest live replica of the key's group and
  /// fail over past dead ones instead of failing the lookup.  Requires
  /// replica_count > 0; cheapest-first ordering needs `rtt` (the group's
  /// own order, responsible member first, is used without it).
  bool replica_route = false;
  /// Replica-group size consulted by replica_route (the system's
  /// replication factor).  0 disables the policy.
  uint32_t replica_count = 0;
  /// Link-RTT oracle in milliseconds (symmetric), e.g. DeliveryModel::
  /// RttMs.  Consulted per candidate per hop when `proximity`, per
  /// replica at terminal hops when `replica_route`, and -- whenever
  /// installed -- once per advance to record LookupResult's per-hop RTT
  /// trace.
  std::function<double(net::PeerId, net::PeerId)> rtt;
};

/// The shared iterative walk.  One driver instance lives inside each
/// StructuredOverlay; Route is re-entrant per overlay instance only in
/// the sense the simulator needs (single-threaded per system).
class RoutingDriver {
 public:
  /// `network` must outlive the driver (it is the overlay's network).
  explicit RoutingDriver(net::Network* network);

  void set_policy(RoutingPolicy policy) { policy_ = std::move(policy); }
  const RoutingPolicy& policy() const { return policy_; }

  /// Sizes the per-slot scratch (see CurrentLookupSlot above); keeps at
  /// least one slot.
  void SetSlots(uint32_t n);
  uint32_t num_slots() const {
    return static_cast<uint32_t>(slots_.size());
  }

  /// Routes from `origin` (must be a member of `overlay`) toward `key`'s
  /// owner.  Implements StructuredOverlay::Lookup; see the LookupResult
  /// contract in structured_overlay.h.
  LookupResult Route(StructuredOverlay& overlay, net::PeerId origin,
                     uint64_t key);

 private:
  // Scratch reused across hops/lookups: routing never allocates in the
  // steady state.  One Scratch per lookup slot (concurrent walks).
  struct Scratch {
    std::vector<RouteCandidate> candidates;
    std::vector<std::pair<double, uint32_t>> rank;
    std::vector<RouteCandidate> reorder;
    std::vector<net::PeerId> replicas;       ///< key's replica group
    std::vector<net::PeerId> replica_order;  ///< cheapest-first probe order
  };

  /// Within each maximal run of equal-progress candidates, reorder by
  /// (rtt, emission order) -- deterministic under RTT ties.
  void ReorderEqualProgressByRtt(Scratch& s, net::PeerId cur);

  /// Weighted route-PNS (ProgressWeightMs() > 0 backends): stable-sort
  /// all primary candidates by one-way RTT + weight * progress, so the
  /// walk trades progress for cheap links only when it pays.
  void SortByLatencyCost(Scratch& s, net::PeerId cur, double weight_ms);

  net::Network* network_;  ///< not owned
  RoutingPolicy policy_;
  std::vector<Scratch> slots_;
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_ROUTING_DRIVER_H_
