// Probe-based routing table maintenance (paper Section 3.3.1, Eq. 8).
//
// "One possible strategy is to probe routing entries with a given rate to
// detect offline peers [MaCa03] ... we need only messages to detect stale
// routing entries (by probing) but assume no additional messages to repair
// those routing entries" (piggybacked repair).
//
// Each online member probes `env` messages per routing entry per round:
// with a table of size ~log2(numActivePeers), that is env * log2(nap)
// probe messages per peer per round, i.e. exactly the cRtn numerator of
// Eq. 8.  A probe that hits an offline target detects the stale entry,
// which is then repaired for free (RepairFinger), per the paper's
// piggybacking assumption.  Fractional probe budgets accumulate across
// rounds so env < 1 is honoured exactly in expectation.

#ifndef PDHT_OVERLAY_DHT_MAINTENANCE_H_
#define PDHT_OVERLAY_DHT_MAINTENANCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "overlay/dht/chord.h"
#include "util/rng.h"

namespace pdht::overlay {

struct MaintenanceStats {
  uint64_t probes_sent = 0;
  uint64_t stale_detected = 0;
  uint64_t repairs = 0;
};

class ChordMaintenance {
 public:
  /// `env`: probe messages per routing entry per round.
  ChordMaintenance(ChordOverlay* overlay, net::Network* network, double env);

  // The StructuredOverlay maintenance contract (plan/execute/finish),
  // implemented here so the fractional budget map stays in one place.
  // PlanRound consumes budgets serially (unordered_map insertion is not
  // thread-safe) in ring order and freezes each member's probe count at
  // its round-start table size; ExecuteTask probes/repairs one member's
  // table with the caller's Rng -- repairs write only that member's
  // table, so distinct tasks are race-free -- accumulating stats into a
  // per-task slot; FinishRound merges the slots in task order.

  /// Serial PLAN: accrues env * table_size per online member, emits one
  /// task per member with >= 1 whole probe.  Returns the task count.
  uint32_t PlanRound();

  /// Parallel EXECUTE of task `task` (in [0, PlanRound())), drawing only
  /// from `rng`.  Safe to call concurrently for distinct tasks.
  void ExecuteTask(uint32_t task, Rng& rng);

  /// Serial FINISH: folds per-task stats into stats(); returns the
  /// round's probes sent.
  uint64_t FinishRound();

  const MaintenanceStats& stats() const { return stats_; }
  double env() const { return env_; }
  /// Adjusts the probe rate without resetting accumulated fractional
  /// budgets or stats (env may vary per round through StructuredOverlay).
  void set_env(double env) { env_ = env; }

 private:
  struct MaintTask {
    net::PeerId peer = net::kInvalidPeer;
    /// The member's table, resolved at plan time (the ring is not
    /// resized during a round, so the pointer stays valid).
    FingerTable* table = nullptr;
    uint32_t probes = 0;  ///< whole probes granted at plan time
  };
  struct TaskStats {
    uint32_t probes = 0;
    uint32_t stale = 0;
    uint32_t repairs = 0;
  };

  ChordOverlay* overlay_;
  net::Network* network_;
  double env_;
  MaintenanceStats stats_;
  std::unordered_map<net::PeerId, double> budget_;  // fractional carry-over
  std::vector<MaintTask> tasks_;       // the round's plan
  std::vector<TaskStats> task_stats_;  // parallel to tasks_
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_DHT_MAINTENANCE_H_
