// Round-based simulation driver.
//
// The paper measures everything in messages per round (one round = one
// second).  RoundEngine advances simulated time one round at a time,
// invoking registered per-round actors in a fixed order and recording
// per-round metric deltas into time series.  Fine-grained events within a
// round live in the embedded EventQueue -- including deferred message
// deliveries scheduled by a non-immediate net::DeliveryModel: the engine
// drains the queue up to every round boundary, so in-flight messages land
// at their scheduled time inside the round (metric probes run after the
// drain and therefore observe a quiesced round).  A delivery scheduled
// past the boundary stays queued and lands in the round it belongs to.

#ifndef PDHT_SIM_ROUND_ENGINE_H_
#define PDHT_SIM_ROUND_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "stats/counter.h"
#include "stats/time_series.h"

namespace pdht::sim {

/// Context handed to actors each round.
struct RoundContext {
  uint64_t round = 0;      ///< 0-based round index.
  double time = 0.0;       ///< simulated seconds at the start of the round.
  EventQueue* events = nullptr;
  CounterRegistry* counters = nullptr;
};

using RoundActor = std::function<void(RoundContext&)>;

/// Per-round metric probe: returns the value to append to the named series
/// at the end of each round.
using MetricProbe = std::function<double(const RoundContext&)>;

class RoundEngine {
 public:
  explicit RoundEngine(double round_length_s = 1.0);

  /// Registers an actor called once per round, in registration order.
  void AddActor(std::string name, RoundActor actor);

  /// Registers a named end-of-round metric probe; its samples accumulate in
  /// Series(name).
  void AddMetric(std::string name, MetricProbe probe);

  /// Convenience: records the per-round delta of a counter-registry prefix
  /// (e.g. "msg.") as a metric, which yields messages-per-round directly.
  /// The prefix is resolved to an interned counter group at registration
  /// time and the metric's last-value slot lives in the probe itself, so
  /// the per-round cost is an O(group size) integer sum -- no string work,
  /// no map lookups.
  void AddCounterRateMetric(std::string name, std::string counter_prefix);

  /// Single-counter variant: the per-round delta of one interned counter
  /// (e.g. a Network outcome tally like "net.timeout"), one array read
  /// per round instead of a group sum.
  void AddCounterRateMetric(std::string name, CounterId counter);

  /// Opt-in per-phase wall-clock instrumentation: declares one series
  /// "round.phase.<name>.ms" per phase.  Actors report measured
  /// milliseconds into AddPhaseMs during the round; the engine appends
  /// each phase's accumulated value (0.0 when it never ran) after the
  /// metric probes and resets the accumulators.  Off by default -- the
  /// series would carry wall-clock noise into snapshots and break the
  /// bit-identity the determinism suite asserts, so only explicitly
  /// instrumented runs (bench_perf_roundloop --phase-times) pay for it.
  void EnablePhaseTiming(std::vector<std::string> phases);
  bool phase_timing() const { return !phase_series_.empty(); }

  /// Accumulates `ms` into declared phase `phase` (index into the
  /// EnablePhaseTiming list) for the current round.  No-op guard is the
  /// caller's job: check phase_timing() before measuring.
  void AddPhaseMs(size_t phase, double ms) { phase_pending_[phase] += ms; }

  /// The series name a phase records under ("round.phase.<name>.ms").
  static std::string PhaseSeriesName(const std::string& phase) {
    return "round.phase." + phase + ".ms";
  }

  /// Installs a replacement for the round-boundary drain -- the round
  /// engine's partitioned drain (EventQueue::DrainBoundaryPartitioned)
  /// plugs in here.  The drainer is called once per round with the
  /// boundary time and returns the number of events run; it must leave
  /// the queue in the same state DrainBoundary(until) would (same events
  /// run, now() advanced to the boundary).  nullptr restores the
  /// built-in serial drain.
  void SetBoundaryDrainer(std::function<uint64_t(double until)> drainer) {
    boundary_drainer_ = std::move(drainer);
  }

  /// Runs `rounds` rounds.  Each round: actors fire, then intra-round
  /// events up to the round boundary, then metric probes.
  void Run(uint64_t rounds);

  uint64_t current_round() const { return round_; }
  /// Events drained by the most recent round's boundary drain (deferred
  /// deliveries, probe timeouts, ...) and the running total across the
  /// run.  Cheap observability for delivery-model experiments.
  uint64_t last_round_events() const { return last_round_events_; }
  uint64_t total_events_run() const { return total_events_run_; }
  double now() const { return queue_.now(); }
  EventQueue& events() { return queue_; }
  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }

  const TimeSeries& Series(const std::string& name) const;
  bool HasSeries(const std::string& name) const;
  std::vector<std::string> SeriesNames() const;

 private:
  double round_length_;
  uint64_t round_ = 0;
  uint64_t last_round_events_ = 0;
  uint64_t total_events_run_ = 0;
  EventQueue queue_;
  CounterRegistry counters_;
  std::vector<std::pair<std::string, RoundActor>> actors_;
  struct Metric {
    std::string name;
    MetricProbe probe;
    TimeSeries* series;  ///< cached &series_[name]; map nodes are stable
  };
  std::vector<Metric> metrics_;
  std::map<std::string, TimeSeries> series_;
  // Phase timing (EnablePhaseTiming): per-phase pending accumulators and
  // their series, appended/reset once per round.
  std::vector<double> phase_pending_;
  std::vector<TimeSeries*> phase_series_;
  /// Index of the declared phase named "drain", if any: the engine times
  /// its own boundary drain into it (actors can't -- the drain runs after
  /// them).  SIZE_MAX = not declared.
  size_t drain_phase_ = SIZE_MAX;
  std::function<uint64_t(double)> boundary_drainer_;
};

}  // namespace pdht::sim

#endif  // PDHT_SIM_ROUND_ENGINE_H_
