// Benchmark driver: runs ONE workload of the benchmark of record per
// process and prints one JSON object with its measurements on stdout.
// benchmark/run.py builds it, runs it, aggregates and checks the results;
// see benchmark/README.md for the metric definitions.
//
//   pdht_bench --workload <name> --seed <n> --seconds <s>
//              [--reps <n>] [--probes <n>] [--check] [--smoke]
//              [--trace-out <path>]
//
// The driver measures every layer from outside the library.  It times
// calls into public entry points only -- the PdhtSystem constructor,
// RunRounds(1) and ExecuteQuery -- and reads the per-round series and
// counters the library already records.  With --trace-out it turns on
// SystemConfig::phase_timing, keeps spans in memory and writes them as
// JSONL when the run ends; the per-phase children of each round span are
// derived from the round.phase.*.ms series (marked "derived").
//
// One run: --reps reps, each construct + warm-up + timed window over its
// own seed derived from --seed, then --probes probe queries through
// ExecuteQuery on rep 0's system.  Simulated statistics are the mean over
// the reps' seeds; host times are the median over the reps.  The window's
// round count is a pure function of (workload, --seconds, --reps) -- the
// reference rate below times --seconds / --reps -- so both commits of a
// comparison simulate exactly the same rounds and every simulated
// statistic repeats for a given seed.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pdht_system.h"
#include "model/selection_model.h"
#include "net/delivery_model.h"
#include "sim/round_engine.h"
#include "sim/scenario.h"

namespace {

using pdht::core::PdhtSystem;
using pdht::core::Strategy;
using pdht::core::SystemConfig;
using Clock = std::chrono::steady_clock;

/// Phases of the round loop in actor order (the EnablePhaseTiming list in
/// core/pdht_system.cc); derived child spans are laid out in this order.
constexpr const char* kPhases[] = {"churn",   "maint",  "plan",  "query",
                                   "publish", "update", "evict", "drain"};

/// Rounds of the fingerprint cross-check (a second system at another
/// thread count runs warm-up + this many rounds); also the least timed
/// window.
constexpr uint64_t kCheckRounds = 10;

struct Workload {
  std::string name;
  SystemConfig config;  ///< seed and outage window are set per run
  uint64_t warmup = 0;
  /// Timed rounds per second of --seconds: the rate measured on the
  /// reference host (4 cores), so the reps' windows add up to about
  /// --seconds there.
  double rounds_per_second = 0.0;
  /// Thread count of the fingerprint cross-check; 0 = none (the serial
  /// engine forms its own random stream, so it has no thread twin).
  uint32_t check_threads = 0;
};

SystemConfig PaperTable1() {
  SystemConfig c;  // Table 1: 20,000 peers, 40,000 keys, stor 100, repl 50
  c.params.f_qry = 1.0 / 30.0;
  c.strategy = Strategy::kPartialTtl;
  c.backend = pdht::core::DhtBackend::kChord;
  c.churn.enabled = true;
  return c;
}

SystemConfig Scale1M() {
  SystemConfig c;
  c.params.num_peers = 1000000;
  c.params.keys = 2000000;
  c.params.stor = 20;
  c.params.repl = 10;
  c.params.f_qry = 1.0 / 1000.0;
  c.strategy = Strategy::kPartialTtl;
  c.churn.enabled = true;
  // Walkers die on an offline neighbour.  At the paper's 67% availability
  // a 1M-peer walk finds content ~0.03% of the time, so the index holds a
  // handful of keys and the hit rate hinges on whether the top Zipf key
  // was found (0.01-0.27 across seeds).  98% availability keeps churn
  // (flips, rejoin rebuilds) while walks feed the index.
  c.churn.mean_offline_s = 60.0;
  // A miss that floods 1M peers costs O(peers); bounded walks keep
  // maintenance, not search, the dominant phase.
  c.walk.num_walkers = 16;
  c.walk.max_steps_per_walker = 128;
  c.walk.flood_fallback = false;
  c.sim_threads = 4;
  c.sim_shards = 16;
  return c;
}

SystemConfig LatencyOutage() {
  SystemConfig c;
  c.params.num_peers = 4000;
  c.params.keys = 8000;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 30.0;
  c.strategy = Strategy::kPartialTtl;
  c.backend = pdht::core::DhtBackend::kCan;
  c.churn.enabled = true;
  c.delivery_model = pdht::net::DeliveryModelKind::kLatency;
  c.latency.topology = pdht::net::LatencyTopology::kTransitStub;
  c.proximity_routing = true;
  c.route_proximity = true;
  c.timeout_costing = true;
  c.adaptive_rto = true;
  c.replica_route = true;
  c.scenario.kind = pdht::sim::ScenarioKind::kClusterOutage;
  c.sim_threads = 2;
  c.sim_shards = 8;
  return c;
}

SystemConfig UpdateHeavy() {
  SystemConfig c;  // Table 1 scale; ~667 updates and ~667 queries a round
  c.params.f_qry = 1.0 / 30.0;
  c.params.f_upd = 1.0 / 60.0;
  c.strategy = Strategy::kIndexAll;
  c.churn.enabled = true;
  c.sim_threads = 2;
  c.sim_shards = 8;
  return c;
}

std::vector<Workload> Workloads() {
  return {
      {"paper_table1", PaperTable1(), 6, 4.4, 0},
      {"scale_1m", Scale1M(), 10, 3.6, 2},
      {"latency_outage", LatencyOutage(), 6, 13.5, 1},
      {"update_heavy", UpdateHeavy(), 10, 100.0, 1},
  };
}

// --- measurement helpers ----------------------------------------------

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t Ns(Clock::time_point t, Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Resets the process's resident-set high-water mark (VmHWM).
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Resident-set high-water mark since the last ResetPeakRss, in MiB.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double CurrentRssMiB() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over 64-bit words.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void Add(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  void Add(const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ULL;
    }
  }
};

/// Point-in-time state folded into a fingerprint.
struct StateMark {
  uint64_t routing = 0;
  uint64_t indexed_keys = 0;
  uint64_t total_messages = 0;
};

StateMark MarkState(PdhtSystem& sys) {
  StateMark m;
  m.routing = sys.dht_overlay() ? sys.dht_overlay()->RoutingFingerprint() : 0;
  m.indexed_keys = sys.IndexedKeyCount();
  m.total_messages = sys.network().TotalMessages();
  return m;
}

/// Simulated-statistics fingerprint: every recorded series except the
/// wall-clock round.phase.* ones over rounds [first, last), plus the
/// state mark taken at round `last`.
uint64_t Fingerprint(const PdhtSystem& sys, size_t first, size_t last,
                     const StateMark& mark) {
  Fnv f;
  for (const std::string& name : sys.engine().SeriesNames()) {
    if (name.rfind("round.phase.", 0) == 0) continue;
    f.Add(name);
    const std::vector<double>& v = sys.engine().Series(name).values();
    for (size_t i = first; i < last && i < v.size(); ++i) f.Add(v[i]);
  }
  f.Add(mark.routing);
  f.Add(mark.indexed_keys);
  f.Add(mark.total_messages);
  return f.h;
}

double WindowMean(const PdhtSystem& sys, const char* series, size_t first,
                  size_t last) {
  if (!sys.engine().HasSeries(series)) return 0.0;
  return sys.engine().Series(series).MeanOver(first, last);
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- tracing ----------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool derived = false;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }
  /// Records a span (no-op when tracing is off); returns its id.
  uint64_t Add(uint64_t parent, std::string name, Clock::time_point start,
               Clock::time_point end) {
    if (!on_) return 0;
    return AddNs(parent, std::move(name), Ns(start, origin_), Ns(end, origin_),
                 false);
  }
  uint64_t AddNs(uint64_t parent, std::string name, int64_t start_ns,
                 int64_t end_ns, bool derived) {
    if (!on_) return 0;
    spans_.push_back({spans_.size() + 1, parent, std::move(name), start_ns,
                      end_ns, derived});
    return spans_.size();
  }
  int64_t ToNs(Clock::time_point t) const { return Ns(t, origin_); }
  /// Reserves the root span's id before its children are recorded.
  uint64_t Open(std::string name) {
    return AddNs(0, std::move(name), 0, 0, false);
  }
  void Close(uint64_t id, Clock::time_point start, Clock::time_point end) {
    if (!on_ || id == 0) return;
    spans_[id - 1].start_ns = Ns(start, origin_);
    spans_[id - 1].end_ns = Ns(end, origin_);
  }
  bool Write(const std::string& path, const std::string& run_id) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"run\": \"%s\", "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"derived\": %s}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), run_id.c_str(),
                   s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   s.derived ? "true" : "false");
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- JSON output --------------------------------------------------------

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    return Raw(key, s + "]");
  }
  JsonObject& Strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      s += (i ? ", \"" : "\"") + v[i] + "\"";
    }
    return Raw(key, s + "]");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& o) {
    return Raw(key, o.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

/// The configuration the program receives, as the manifest records it
/// (run.py hashes this object into the workload's config hash).
JsonObject DescribeConfig(const Workload& w, const SystemConfig& c,
                          uint64_t timed_rounds) {
  JsonObject o;
  o.Int("num_peers", c.params.num_peers)
      .Int("keys", c.params.keys)
      .Int("stor", c.params.stor)
      .Int("repl", c.params.repl)
      .Num("alpha", c.params.alpha)
      .Num("f_qry", c.params.f_qry)
      .Num("f_upd", c.params.f_upd)
      .Str("strategy", pdht::core::StrategyName(c.strategy))
      .Str("backend", pdht::core::DhtBackendName(c.backend))
      .Bool("churn", c.churn.enabled)
      .Num("mean_offline_s", c.churn.mean_offline_s)
      .Int("walkers", c.walk.num_walkers)
      .Int("walk_steps", c.walk.max_steps_per_walker)
      .Bool("flood_fallback", c.walk.flood_fallback)
      .Str("delivery",
           c.delivery_model == pdht::net::DeliveryModelKind::kLatency
               ? "latency"
               : "immediate")
      .Bool("timeout_costing", c.timeout_costing)
      .Bool("adaptive_rto", c.adaptive_rto)
      .Bool("replica_route", c.replica_route)
      .Str("scenario", pdht::sim::ScenarioKindName(c.scenario.kind))
      .Int("outage_start_round", c.scenario.outage_start_round)
      .Int("outage_end_round", c.scenario.outage_end_round)
      .Int("sim_threads", c.sim_threads)
      .Int("sim_shards", c.sim_shards)
      .Int("seed", c.seed)
      .Int("warmup_rounds", w.warmup)
      .Int("timed_rounds", timed_rounds);
  return o;
}

// --- the run ------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 12345;
  double seconds = 10.0;
  uint32_t reps = 3;
  uint32_t probes = 1000;
  bool check = false;
  bool smoke = false;  ///< warm-up cut to 1/10 for a quick sanity pass
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (a != name || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--workload")) {
      f->workload = v;
    } else if (const char* v = value("--seed")) {
      f->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      f->seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--reps")) {
      f->reps = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--probes")) {
      f->probes = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--trace-out")) {
      f->trace_out = v;
    } else if (a == "--check") {
      f->check = true;
    } else if (a == "--smoke") {
      f->smoke = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", a.c_str());
      return false;
    }
  }
  if (!(f->seconds > 0.0) || f->seconds > 3600.0 || f->reps == 0 ||
      f->reps > 20 || f->probes > 1000000) {
    std::fprintf(stderr, "flag out of range (seconds in (0, 3600], reps "
                         "in [1, 20], probes <= 1e6)\n");
    return false;
  }
  return true;
}

/// Builds a system at `config`, runs `rounds` rounds and returns its
/// fingerprint over the last `tail` of them (the cross-check twin).
uint64_t TwinFingerprint(const SystemConfig& config, uint64_t rounds,
                         uint64_t tail) {
  PdhtSystem sys(config);
  sys.RunRounds(rounds);
  return Fingerprint(sys, rounds - tail, rounds, MarkState(sys));
}

/// The seed of rep `k` of a run: the run's seed for rep 0, then the
/// SplitMix64 sequence.
uint64_t RepSeed(uint64_t seed, uint32_t k) {
  return seed + k * 0x9E3779B97F4A7C15ULL;
}

/// What one rep measured.
struct Rep {
  double construct_s = 0.0;
  double warmup_s = 0.0;
  double window_s = 0.0;
  double rss_after_setup_mb = 0.0;
  double rss_end_mb = 0.0;
  double peak_rss_mb = 0.0;
  /// Simulated statistics of the window, keyed as in the output's "sim".
  std::map<std::string, double> sim;
  uint64_t fingerprint = 0;
  uint64_t check_fingerprint = 0;  ///< over the first kCheckRounds rounds
};

/// One rep: construct, warm up, then the timed window as a closed loop of
/// RunRounds(1) calls.  Returns the system so the caller can probe it.
std::unique_ptr<PdhtSystem> RunRep(const SystemConfig& config, uint64_t warmup,
                                   uint64_t timed, Tracer& tracer,
                                   uint64_t root, Rep* rep) {
  ResetPeakRss();
  const Clock::time_point t0 = Clock::now();
  auto sys = std::make_unique<PdhtSystem>(config);
  const Clock::time_point t1 = Clock::now();
  sys->RunRounds(warmup);
  const Clock::time_point t2 = Clock::now();
  tracer.Add(root, "setup.construct", t0, t1);
  tracer.Add(root, "setup.warmup", t1, t2);
  rep->construct_s = Seconds(t0, t1);
  rep->warmup_s = Seconds(t1, t2);
  rep->rss_after_setup_mb = CurrentRssMiB();

  StateMark check_mark;
  uint64_t events = 0;
  for (uint64_t r = 0; r < timed; ++r) {
    const Clock::time_point r0 = Clock::now();
    sys->RunRounds(1);
    const Clock::time_point r1 = Clock::now();
    rep->window_s += Seconds(r0, r1);
    events += sys->engine().last_round_events();
    if (tracer.on()) {
      const uint64_t id = tracer.Add(root, "round", r0, r1);
      int64_t at = tracer.ToNs(r0);
      for (const char* phase : kPhases) {
        const std::string series = pdht::sim::RoundEngine::PhaseSeriesName(phase);
        const double ms = sys->engine().Series(series).values().back();
        const int64_t len = std::llround(ms * 1e6);
        tracer.AddNs(id, phase, at, at + len, /*derived=*/true);
        at += len;
      }
    }
    if (r + 1 == kCheckRounds) check_mark = MarkState(*sys);
  }
  rep->rss_end_mb = CurrentRssMiB();
  rep->peak_rss_mb = PeakRssMiB();
  const size_t first = warmup;
  const size_t last = warmup + timed;
  rep->fingerprint = Fingerprint(*sys, first, last, MarkState(*sys));
  rep->check_fingerprint =
      Fingerprint(*sys, first, first + kCheckRounds, check_mark);

  const pdht::core::RunSnapshot snap = sys->Snapshot(timed);
  auto latency = [&](const char* key) {
    auto it = snap.latency.find(key);
    return it == snap.latency.end() ? 0.0 : it->second;
  };
  auto window = [&](const char* series) {
    return WindowMean(*sys, series, first, last);
  };
  const pdht::model::SelectionBreakdown model =
      pdht::model::SelectionModel(config.params).Evaluate(config.params.f_qry);
  rep->sim = {
      {"msgs_per_round", window(PdhtSystem::kSeriesMsgTotal)},
      {"hit_rate", window(PdhtSystem::kSeriesHitRate)},
      {"lookup_rtt_mean_ms", sys->lookup_rtt_ms().mean()},
      {"lookup_rtt_n", static_cast<double>(sys->lookup_rtt_ms().count())},
      {"lookup_rtt_p50_ms", latency(PdhtSystem::kMetricLookupRttP50)},
      {"lookup_rtt_p99_ms", latency(PdhtSystem::kMetricLookupRttP99)},
      {"lookup_hops_mean", latency(PdhtSystem::kMetricLookupHopsMean)},
      {"link_delay_mean_ms", latency(PdhtSystem::kMetricLinkDelayMean)},
      {"failovers", latency(PdhtSystem::kMetricLookupFailovers)},
      {"events_per_round",
       static_cast<double>(events) / static_cast<double>(timed)},
      {"deferred_per_round", window(PdhtSystem::kSeriesDeferredRate)},
      {"timeouts_per_round", window(PdhtSystem::kSeriesTimeoutRate)},
      {"failovers_per_round", window(PdhtSystem::kSeriesFailoverRate)},
      {"maint_msgs_per_round", window(PdhtSystem::kSeriesMsgMaint)},
      {"dht_msgs_per_round", window(PdhtSystem::kSeriesMsgDht)},
      {"unstructured_msgs_per_round",
       window(PdhtSystem::kSeriesMsgUnstructured)},
      {"replica_msgs_per_round", window(PdhtSystem::kSeriesMsgReplica)},
      {"index_keys", static_cast<double>(sys->IndexedKeyCount())},
      {"model_msgs_per_round", config.strategy == Strategy::kIndexAll
                                   ? model.index_all
                                   : model.partial},
  };
  return sys;
}

/// Frees a finished rep's system and hands its heap back to the OS, so
/// the next rep's memory high-water mark starts from a clean slate.
void Release(std::unique_ptr<PdhtSystem>& sys) {
  sys.reset();
  malloc_trim(0);
}

int Run(const Flags& flags) {
  Workload w;
  bool known = false;
  std::vector<std::string> names;
  for (const Workload& cand : Workloads()) {
    names.push_back(cand.name);
    if (cand.name == flags.workload) {
      w = cand;
      known = true;
    }
  }
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 flags.workload.c_str());
    for (const std::string& n : names) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (flags.smoke) w.warmup = std::max<uint64_t>(1, w.warmup / 10);

  const uint64_t timed = std::max<uint64_t>(
      kCheckRounds,
      std::llround(w.rounds_per_second * flags.seconds / flags.reps));
  SystemConfig config = w.config;
  config.seed = flags.seed;
  if (config.scenario.kind == pdht::sim::ScenarioKind::kClusterOutage) {
    // The outage covers the middle third of the timed window.
    config.scenario.outage_start_round = w.warmup + timed / 3;
    config.scenario.outage_end_round = w.warmup + 2 * timed / 3;
  }
  const bool tracing = !flags.trace_out.empty();
  config.phase_timing = tracing;
  const std::string err = config.Validate();
  if (!err.empty()) {
    std::fprintf(stderr, "invalid config for %s: %s\n", w.name.c_str(),
                 err.c_str());
    return 2;
  }

  std::vector<std::string> failures;
  Tracer tracer(tracing);
  const uint64_t root = tracer.Open("workload");
  const Clock::time_point run_start = Clock::now();

  // Reps: the same workload over --reps seeds derived from --seed, one
  // system alive at a time.  The probes run on rep 0's system.
  std::vector<Rep> reps(flags.reps);
  uint64_t not_found = 0, from_index = 0, violations = 0;
  for (uint32_t k = 0; k < flags.reps; ++k) {
    SystemConfig c = config;
    c.seed = RepSeed(flags.seed, k);
    std::unique_ptr<PdhtSystem> sys =
        RunRep(c, w.warmup, timed, tracer, root, &reps[k]);
    if (k == 0) {
      // Probe queries: the benchmark's operations.
      for (uint32_t i = 0; i < flags.probes; ++i) {
        const uint64_t key = sys->workload().SampleKey();
        const Clock::time_point t0 = Clock::now();
        const pdht::core::QueryOutcome out = sys->ExecuteQuery(key);
        const Clock::time_point t1 = Clock::now();
        tracer.Add(root, "probe.query", t0, t1);
        not_found += out.found ? 0 : 1;
        from_index += out.answered_from_index ? 1 : 0;
        // Contract of an index-first query: it ran from a live origin, an
        // index answer is a found answer, and exactly one of index answer
        // / unstructured search produced the outcome.
        const bool ok = out.origin != pdht::net::kInvalidPeer &&
                        (!out.answered_from_index || out.found) &&
                        (out.answered_from_index != out.used_unstructured);
        violations += ok ? 0 : 1;
      }
    }
    Release(sys);
  }
  tracer.Close(root, run_start, Clock::now());

  // Simulated statistics: the mean over the reps' seeds.
  std::map<std::string, double> sim;
  for (const Rep& rep : reps) {
    for (const auto& [key, value] : rep.sim) sim[key] += value / reps.size();
  }
  std::vector<double> construct_s, warmup_s, setup_s, rates, peaks;
  double rss_after_setup = 0.0, rss_end = 0.0;
  Fnv prints;
  for (const Rep& rep : reps) {
    construct_s.push_back(rep.construct_s);
    warmup_s.push_back(rep.warmup_s);
    setup_s.push_back(rep.construct_s + rep.warmup_s);
    rates.push_back(static_cast<double>(timed) / rep.window_s);
    peaks.push_back(rep.peak_rss_mb);
    rss_after_setup += rep.rss_after_setup_mb / reps.size();
    rss_end += rep.rss_end_mb / reps.size();
    prints.Add(rep.fingerprint);
  }

  // Shape checks: the workload still loads the layer it exists for.
  if (!(sim["msgs_per_round"] > 0.0)) failures.push_back("no_messages");
  if (w.name == "paper_table1" && !(sim["hit_rate"] >= 0.75)) {
    failures.push_back("hit_rate_below_0.75");
  }
  if (w.name == "update_heavy") {
    if (sim["hit_rate"] != 1.0) failures.push_back("hit_rate_not_1");
    if (from_index != flags.probes) {
      failures.push_back("probe_not_answered_from_index");
    }
  }
  if (w.name == "latency_outage") {
    for (const Rep& rep : reps) {
      if (rep.sim.at("lookup_rtt_n") == 0.0) {
        failures.push_back("no_rtt_samples");
      }
      if (rep.sim.at("failovers") == 0.0) failures.push_back("no_failovers");
    }
  }

  // Tracing overhead: rep 0 again with phase timing off.  Same seed, same
  // work -- and the same fingerprint, or profiling perturbed the run.
  double untraced_rate = 0.0;
  if (tracing) {
    SystemConfig plain = config;
    plain.phase_timing = false;
    Tracer off(false);
    Rep rep;
    std::unique_ptr<PdhtSystem> sys =
        RunRep(plain, w.warmup, timed, off, 0, &rep);
    Release(sys);
    untraced_rate = static_cast<double>(timed) / rep.window_s;
    if (rep.fingerprint != reps[0].fingerprint) {
      failures.push_back("fingerprint_differs_with_tracing");
    }
  }

  // Cross-check: the same shards at another thread count must reproduce
  // rep 0's first kCheckRounds rounds bit for bit.
  JsonObject check;
  if (flags.check && w.check_threads != 0) {
    SystemConfig twin = config;
    twin.sim_threads = w.check_threads;
    twin.phase_timing = false;
    const bool match =
        TwinFingerprint(twin, w.warmup + kCheckRounds, kCheckRounds) ==
        reps[0].check_fingerprint;
    check.Int("threads", w.check_threads)
        .Int("rounds", kCheckRounds)
        .Bool("match", match);
    if (!match) failures.push_back("thread_count_fingerprint_mismatch");
  }

  if (tracing &&
      !tracer.Write(flags.trace_out,
                    w.name + "-" + std::to_string(flags.seed))) {
    std::fprintf(stderr, "cannot write trace to %s\n",
                 flags.trace_out.c_str());
    return 1;
  }

  JsonObject sim_json;
  for (const auto& [key, value] : sim) sim_json.Num(key, value);
  JsonObject out;
  out.Str("workload", w.name)
      .Int("seed", flags.seed)
      .Obj("config", DescribeConfig(w, config, timed))
      .Int("warmup_rounds", w.warmup)
      .Int("timed_rounds", timed)
      .Nums("construct_s", construct_s)
      .Nums("warmup_s", warmup_s)
      .Num("setup_s", Median(setup_s))
      .Nums("rep_rounds_per_s", rates)
      .Num("rounds_per_s", Median(rates))
      .Num("untraced_rounds_per_s", untraced_rate)
      .Nums("rep_peak_rss_mb", peaks)
      .Num("peak_rss_mb", Median(peaks))
      .Num("rss_after_setup_mb", rss_after_setup)
      .Num("rss_end_mb", rss_end)
      .Obj("sim", sim_json)
      .Obj("probes", JsonObject()
                         .Int("attempted", flags.probes)
                         .Int("not_found", not_found)
                         .Int("from_index", from_index)
                         .Int("contract_violations", violations))
      .Str("fingerprint", Hex(prints.h))
      .Obj("check", check)
      .Strs("failures", failures);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags) || flags.workload.empty()) {
    std::fprintf(stderr,
                 "usage: pdht_bench --workload <name> [--seed n] "
                 "[--seconds s] [--reps n] [--probes n] [--check] "
                 "[--smoke] [--trace-out path]\n");
    return 2;
  }
  return Run(flags);
}
