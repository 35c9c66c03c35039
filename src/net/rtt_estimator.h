// Per-peer adaptive retransmission-timeout (RTO) estimation.
//
// The fixed LatencyConfig::timeout_ms makes timeout-aware routing
// pathological under churn: every failed probe charges the full global
// detection timeout, no matter how cheap the link actually is
// (BENCH_latency.json: CAN mean lookup RTT 434 -> 1702 ms at 185k
// timeouts).  Real transports size the wait to the path: this is the
// Jacobson/Karels estimator of RFC 6298, kept per *destination* peer:
//
//   first sample:  srtt = R,             rttvar = R / 2
//   thereafter:    rttvar = 3/4 rttvar + 1/4 |srtt - R|   (before srtt)
//                  srtt   = 7/8 srtt   + 1/8 R
//   RTO = srtt + 4 * rttvar, clamped to [min_ms, max_ms]
//
// Samples come from observed link delays (Network feeds every deferred
// delivery's charged delay back as a round-trip proxy); probes that time
// out contribute no sample (Karn's rule -- a timeout tells us nothing
// about the path's true RTT).  Before the first sample for a destination
// the estimate is seeded from the delivery model's PeerRtt oracle
// (RTO = 3 * oracle RTT, the "no rttvar yet" convention), and with no
// oracle installed it degrades to `fallback_ms` -- configured to the
// fixed timeout_ms, so the unseeded estimator is bit-identical to the
// pre-adaptive behaviour (tests/overlay/backend_parity_test.cc).
//
// Determinism contract: Observe() is only called at serial points of the
// round loop (Network::SendDeferred outside lane mode; CommitDeferred's
// publish replay, which runs in global task order), never from a worker
// inside a parallel phase -- lane-mode sends log their delay and observe
// at commit.  RtoMs() is read-only and may be called from parallel
// phases (the lane path of ChargeProbeTimeout evaluates it at execute
// time); the state it reads is frozen for the phase, so results are
// bit-identical at any --sim-threads/shard count.

#ifndef PDHT_NET_RTT_ESTIMATOR_H_
#define PDHT_NET_RTT_ESTIMATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/message.h"

namespace pdht::net {

struct RtoConfig {
  /// RTO floor in milliseconds: never declare a probe dead faster than
  /// this (spurious-timeout guard).
  double min_ms = 10.0;
  /// RTO ceiling in milliseconds; the fixed timeout_ms is the natural
  /// choice, which guarantees adaptive waits never exceed the fixed ones.
  double max_ms = 250.0;
  /// Returned when a destination has no samples and no seed oracle is
  /// installed.  Configured to the fixed timeout_ms so the unseeded
  /// estimator degrades bit-identically to pre-adaptive behaviour.
  double fallback_ms = 250.0;
};

class PeerRtoEstimator {
 public:
  /// RTT seed oracle in milliseconds (e.g. DeliveryModel::RttMs), used
  /// for destinations with no samples yet.  May be null: unseeded,
  /// unsampled destinations fall back to config.fallback_ms.
  using SeedFn = std::function<double(PeerId, PeerId)>;

  explicit PeerRtoEstimator(const RtoConfig& config, SeedFn seed = nullptr);

  /// Folds one round-trip sample (milliseconds) for destination `to`
  /// into its smoothed state.  Serial points only (see header comment).
  void Observe(PeerId to, double rtt_ms);

  /// The sender's detection timeout for a probe from `from` to `to`,
  /// in milliseconds.  Sampled destinations use srtt + 4 * rttvar;
  /// unsampled ones use 3 * seed RTT; both clamped to
  /// [min_ms, max_ms].  No oracle and no samples = fallback_ms.
  /// Read-only (safe from parallel phases while Observe is quiescent).
  double RtoMs(PeerId from, PeerId to) const;

  uint64_t samples() const { return samples_; }
  const RtoConfig& config() const { return config_; }

 private:
  /// rttvar_ms < 0 marks a never-sampled destination.
  struct State {
    float srtt_ms = 0.0f;
    float rttvar_ms = -1.0f;
  };

  double Clamp(double rto_ms) const;

  RtoConfig config_;
  SeedFn seed_;
  std::vector<State> state_;  ///< indexed by destination PeerId
  uint64_t samples_ = 0;
};

}  // namespace pdht::net

#endif  // PDHT_NET_RTT_ESTIMATOR_H_
