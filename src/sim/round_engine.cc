#include "sim/round_engine.h"

#include <cassert>
#include <chrono>
#include <stdexcept>

namespace pdht::sim {

RoundEngine::RoundEngine(double round_length_s)
    : round_length_(round_length_s) {
  assert(round_length_s > 0.0);
}

void RoundEngine::AddActor(std::string name, RoundActor actor) {
  actors_.emplace_back(std::move(name), std::move(actor));
}

void RoundEngine::AddMetric(std::string name, MetricProbe probe) {
  auto [it, inserted] = series_.emplace(name, TimeSeries(name));
  (void)inserted;
  metrics_.push_back(Metric{std::move(name), std::move(probe), &it->second});
}

void RoundEngine::AddCounterRateMetric(std::string name,
                                       std::string counter_prefix) {
  // Resolve the prefix to an interned group once; the last-value slot
  // lives in the closure, so each round is GroupSum + a subtraction.
  GroupId group = counters_.InternPrefix(counter_prefix);
  AddMetric(std::move(name),
            [this, group, last = uint64_t{0}](const RoundContext&) mutable {
              uint64_t total = counters_.GroupSum(group);
              uint64_t delta = total - last;
              last = total;
              return static_cast<double>(delta);
            });
}

void RoundEngine::AddCounterRateMetric(std::string name, CounterId counter) {
  AddMetric(std::move(name),
            [this, counter, last = uint64_t{0}](const RoundContext&) mutable {
              uint64_t total = counters_.Value(counter);
              uint64_t delta = total - last;
              last = total;
              return static_cast<double>(delta);
            });
}

void RoundEngine::EnablePhaseTiming(std::vector<std::string> phases) {
  phase_pending_.assign(phases.size(), 0.0);
  phase_series_.clear();
  phase_series_.reserve(phases.size());
  drain_phase_ = SIZE_MAX;
  for (size_t i = 0; i < phases.size(); ++i) {
    const std::string name = PhaseSeriesName(phases[i]);
    auto [it, inserted] = series_.emplace(name, TimeSeries(name));
    (void)inserted;
    phase_series_.push_back(&it->second);
    // The boundary drain runs inside Run(), after the actors; a declared
    // "drain" phase is therefore timed by the engine itself.
    if (phases[i] == "drain") drain_phase_ = i;
  }
}

void RoundEngine::Run(uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    RoundContext ctx;
    ctx.round = round_;
    ctx.time = static_cast<double>(round_) * round_length_;
    ctx.events = &queue_;
    ctx.counters = &counters_;
    for (auto& [name, actor] : actors_) actor(ctx);
    // Boundary drain: every intra-round event -- deferred deliveries
    // included -- runs before the metric probes observe the round.  An
    // installed drainer (the round engine's partitioned drain) replaces
    // the built-in serial one.
    const double boundary = ctx.time + round_length_;
    if (drain_phase_ != SIZE_MAX) {
      const auto start = std::chrono::steady_clock::now();
      last_round_events_ = boundary_drainer_ ? boundary_drainer_(boundary)
                                             : queue_.DrainBoundary(boundary);
      AddPhaseMs(drain_phase_,
                 std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    } else {
      last_round_events_ = boundary_drainer_ ? boundary_drainer_(boundary)
                                             : queue_.DrainBoundary(boundary);
    }
    total_events_run_ += last_round_events_;
    for (auto& m : metrics_) {
      m.series->Append(m.probe(ctx));
    }
    for (size_t p = 0; p < phase_series_.size(); ++p) {
      phase_series_[p]->Append(phase_pending_[p]);
      phase_pending_[p] = 0.0;
    }
    ++round_;
  }
}

const TimeSeries& RoundEngine::Series(const std::string& name) const {
  auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range("no such series: " + name);
  }
  return it->second;
}

bool RoundEngine::HasSeries(const std::string& name) const {
  return series_.count(name) > 0;
}

std::vector<std::string> RoundEngine::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) names.push_back(name);
  return names;
}

}  // namespace pdht::sim
