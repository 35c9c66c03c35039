// Named message/event counters.
//
// The paper's cost metric is "number of messages sent per second"; the
// simulator attributes every message to a named counter (per message type
// and per strategy) so experiments can print exactly the series the paper
// plots.  CounterRegistry owns a set of monotonically increasing counters
// addressed by name, with snapshot/delta support for per-round rates.
//
// Hot path: names are *interned once* -- Intern(name) returns a dense
// CounterId indexing a flat vector<uint64_t> -- so per-message accounting
// (Network::Send) is a plain array increment with zero string work.
// Prefix sums ("msg.dht." -> messages-per-round series) go through
// *prefix groups*: InternPrefix(prefix) registers the prefix once,
// membership is resolved at intern time (including counters interned
// after the group), and GroupSum is an O(group size) integer sum.  The
// string-keyed API (Get/Value/SumWithPrefix) survives as a thin
// compatibility layer over the intern table.

#ifndef PDHT_STATS_COUNTER_H_
#define PDHT_STATS_COUNTER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace pdht {

class CounterRegistry;

/// Dense handle of an interned counter: index into the registry's flat
/// value array.  Ids are assigned 0,1,2,... in intern order and never
/// change for the registry's lifetime.
using CounterId = uint32_t;

/// Handle of an interned prefix group (see CounterRegistry::InternPrefix).
using GroupId = uint32_t;

/// A single monotonically increasing counter.
///
/// Standalone Counter objects own their value.  Counters returned by
/// CounterRegistry::Get are handles forwarding to the registry's flat
/// value array (the registry is the single source of truth shared with
/// the CounterId fast path), with the same stable-reference guarantee as
/// before.
class Counter {
 public:
  Counter() = default;
  inline void Add(uint64_t n = 1);
  inline uint64_t value() const;
  inline void Reset();

 private:
  friend class CounterRegistry;
  Counter(CounterRegistry* registry, CounterId id)
      : registry_(registry), id_(id) {}

  CounterRegistry* registry_ = nullptr;  ///< null = standalone counter
  CounterId id_ = 0;
  uint64_t value_ = 0;  ///< storage for standalone counters only
};

/// Registry of named counters.  Names are hierarchical by convention, e.g.
/// "msg.unstructured.walk" or "msg.dht.lookup".
class CounterRegistry {
 public:
  CounterRegistry() = default;
  // The registry is self-referential (compat handles store `this`,
  // id->name pointers alias the intern-map keys), so copying or moving
  // it would leave handles mutating the source registry.
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  // --- Interned fast path ----------------------------------------------

  /// Interns `name`, returning its dense id (idempotent: the same name
  /// always yields the same id).  Ids index a flat value array; intern
  /// once at setup, then use Add(id)/Value(id) per event.
  CounterId Intern(const std::string& name);

  /// Increments counter `id` (must come from Intern) by `n`.
  void Add(CounterId id, uint64_t n = 1) { values_[id] += n; }

  /// Current value of counter `id`.
  uint64_t Value(CounterId id) const { return values_[id]; }

  /// Name that `id` was interned under.
  const std::string& NameOf(CounterId id) const { return *names_[id]; }

  /// Number of interned counters (ids are 0..NumCounters()-1).
  size_t NumCounters() const { return values_.size(); }

  /// Interns a prefix group (idempotent per prefix string).  The group's
  /// members are all counters whose name starts with `prefix` --
  /// including counters interned *after* the group is created.
  GroupId InternPrefix(const std::string& prefix);

  /// Sum over the group's member counters: the O(group size) integer
  /// equivalent of SumWithPrefix(prefix), with zero string work.
  uint64_t GroupSum(GroupId group) const {
    uint64_t sum = 0;
    for (CounterId id : groups_[group].members) sum += values_[id];
    return sum;
  }

  /// Member ids of `group`, in intern order (test support).
  const std::vector<CounterId>& GroupMembers(GroupId group) const {
    return groups_[group].members;
  }

  /// Adds `delta[id]` to each counter id in one pass.  `delta` is a flat
  /// per-id accumulation buffer (a shard lane) sized at most NumCounters();
  /// integer adds commute, so lanes can be merged in any order.  Used by
  /// the round engine to fold per-shard message accounting back
  /// into the registry at a phase barrier.
  void MergeDelta(const std::vector<uint64_t>& delta) {
    size_t n = delta.size() < values_.size() ? delta.size() : values_.size();
    for (size_t i = 0; i < n; ++i) values_[i] += delta[i];
  }

  // --- String-keyed compatibility layer --------------------------------

  /// Returns the counter registered under `name`, creating it on first
  /// use.  The returned reference stays valid for the registry's
  /// lifetime and shares storage with the interned id.  Use it by
  /// reference: a by-value copy is still a *handle* (it aliases the
  /// registry slot and must not outlive the registry), not a snapshot.
  Counter& Get(const std::string& name);

  /// Value of `name`, or 0 if the counter does not exist.
  uint64_t Value(const std::string& name) const;

  /// Sum of all counters whose name starts with `prefix`.
  uint64_t SumWithPrefix(const std::string& prefix) const;

  /// Total across all counters.
  uint64_t Total() const;

  /// Resets every counter to zero (names, ids and groups are retained).
  void ResetAll();

  /// Returns (name, value) pairs sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Snapshot() const;

  /// Renders a human-readable multi-line report.
  std::string Report() const;

 private:
  friend class Counter;

  void Set(CounterId id, uint64_t v) { values_[id] = v; }

  struct PrefixGroup {
    std::string prefix;
    std::vector<CounterId> members;
  };

  std::map<std::string, CounterId> ids_;   ///< intern table (name->id),
                                           ///< ordered for reports
  std::vector<uint64_t> values_;           ///< id -> value (the hot array)
  std::vector<const std::string*> names_;  ///< id -> name (map keys: stable)
  std::deque<Counter> handles_;            ///< id -> compat handle (stable
                                           ///< references across growth)
  std::vector<PrefixGroup> groups_;
};

inline void Counter::Add(uint64_t n) {
  if (registry_ != nullptr) {
    registry_->Add(id_, n);
  } else {
    value_ += n;
  }
}

inline uint64_t Counter::value() const {
  return registry_ != nullptr ? registry_->Value(id_) : value_;
}

inline void Counter::Reset() {
  if (registry_ != nullptr) {
    registry_->Set(id_, 0);
  } else {
    value_ = 0;
  }
}

}  // namespace pdht

#endif  // PDHT_STATS_COUNTER_H_
