#!/usr/bin/env python3
"""Benchmark of record for the PDHT simulator (stdlib only).

Builds benchmark/pdht_bench into build-bench/, runs workloads, aggregates
and checks the results, and compares two result files.  See
benchmark/README.md for the workloads and metric definitions.

  python3 benchmark/run.py                      # every workload, 3 runs
  python3 benchmark/run.py --trace              # + traced run, per-layer table
  python3 benchmark/run.py --smoke              # quick sanity pass
  python3 benchmark/run.py --compare A.json B.json [--claim METRIC@WORKLOAD]
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

The last form runs one workload once and prints, as its last line, one
JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-bench"
DRIVER = BUILD_DIR / "pdht_bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

WORKLOADS = ["paper_table1", "scale_1m", "latency_outage", "update_heavy"]
DEFAULT_SEED = 12345
DRIVER_TIMEOUT_S = 170

# Round-loop phases (derived child spans of each round span) and the layer
# metric each one feeds, in actor order.
PHASE_METRICS = {
    "churn": "sim.churn_ms",
    "maint": "overlay.maint_ms",
    "plan": "core.plan_ms",
    "query": "core.query_ms",
    "publish": "core.publish_ms",
    "update": "core.update_ms",
    "evict": "core.evict_ms",
    "drain": "sim.drain_ms",
}

# Per-layer metrics read straight from pdht_bench's "sim" block.
SIM_METRICS = {
    "sim.events_per_round": "events_per_round",
    "net.deferred_per_round": "deferred_per_round",
    "net.timeouts_per_round": "timeouts_per_round",
    "net.failovers_per_round": "failovers_per_round",
    "overlay.lookup_hops_mean": "lookup_hops_mean",
    "net.link_delay_mean_ms": "link_delay_mean_ms",
    "net.lookup_rtt_mean_ms": "lookup_rtt_mean_ms",
    "net.lookup_rtt_p50_ms": "lookup_rtt_p50_ms",
    "net.lookup_rtt_p99_ms": "lookup_rtt_p99_ms",
    "overlay.maint_msgs_per_round": "maint_msgs_per_round",
    "overlay.dht_msgs_per_round": "dht_msgs_per_round",
    "overlay.unstructured_msgs_per_round": "unstructured_msgs_per_round",
    "core.replica_msgs_per_round": "replica_msgs_per_round",
    "core.index_keys": "index_keys",
}

# The layer each workload exists to load, and the least share of the
# round (traced self times) it must take for the workload to do its job.
LOADED_LAYERS = {
    "paper_table1": (["core.query_ms"], 0.85),
    "scale_1m": (["overlay.maint_ms"], 0.70),
    "latency_outage": (["core.publish_ms", "sim.drain_ms"], 0.50),
    "update_heavy": (["core.update_ms"], 0.50),
}


def fail(msg, code=2):
    print(msg, file=sys.stderr)
    sys.exit(code)


def spec_metrics(kind):
    return {m["name"]: m for m in SPEC[kind]}


# --- build ------------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "core" / "pdht_system.h").is_file():
        fail(f"no PDHT source tree at {ROOT} (need CMakeLists.txt and src/)")
    if SPEC is None:
        fail(f"missing {ROOT / 'BENCHMARK.json'}")
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "pdht_bench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail), 1)


def build_manifest():
    cache = {}
    cache_file = BUILD_DIR / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, _, value = line.partition("=")
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha, dirty = "unknown", None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            sha = git.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "flags": cache.get("CMAKE_CXX_FLAGS_RELEASE", "unknown"),
        "git_sha": sha,
        "git_dirty": dirty,
    }


# --- running the driver -----------------------------------------------------

def run_driver(workload, seed, seconds, reps=3, probes=1000, check=False,
               trace_out=None, smoke=False):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--reps", str(reps),
           "--probes", str(probes)]
    if check:
        cmd.append("--check")
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s", 1)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{workload}: driver exited {proc.returncode}\n{proc.stderr}", 1)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["config_hash"] = hashlib.sha256(
        json.dumps(result["config"], sort_keys=True).encode()).hexdigest()[:16]
    return result


def end_to_end(result):
    """The end-to-end metrics of one untraced driver run."""
    sim = result["sim"]
    return {
        "rounds_per_s": result["rounds_per_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "sim_msgs_per_round": sim["msgs_per_round"],
        "sim_hit_rate": sim["hit_rate"],
    }


def failures(result):
    """CHECK FAIL reasons of one driver run."""
    out = list(result["failures"])
    if result["probes"]["contract_violations"]:
        out.append("probe_contract_violations")
    return out


def percentile(values, p):
    """The p-th percentile (1..99) of a list of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summarize(values):
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "runs": values}


# --- tracing ----------------------------------------------------------------

def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def layer_metrics(spans, traced):
    """Per-layer metrics from a traced run's spans and driver result."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end_ns"] - s["start_ns"]

    def self_ns(s):
        # Duration minus the union of the child intervals inside it.
        covered, cursor = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return dur(s) - covered

    rounds = [s for s in spans if s["name"] == "round"]
    probes = [s for s in spans if s["name"] == "probe.query"]
    n = len(rounds)
    m = {}
    phase_ns = {name: 0 for name in PHASE_METRICS}
    for r in rounds:
        for c in children.get(r["id"], []):
            phase_ns[c["name"]] += dur(c)
    for phase, name in PHASE_METRICS.items():
        m[name] = phase_ns[phase] / n / 1e6
    m["sim.engine_ms"] = sum(self_ns(r) for r in rounds) / n / 1e6
    round_ms = [dur(r) / 1e6 for r in rounds]
    m["sim.round_ms_p50"] = percentile(round_ms, 50)
    m["sim.round_ms_p90"] = percentile(round_ms, 90)
    probe_us = [dur(p) / 1e3 for p in probes]
    m["core.query_us_p50"] = percentile(probe_us, 50)
    m["core.query_us_p99"] = percentile(probe_us, 99)
    m["setup.construct_s"] = statistics.median(
        dur(s) / 1e9 for s in spans if s["name"] == "setup.construct")
    m["setup.warmup_s"] = statistics.median(
        dur(s) / 1e9 for s in spans if s["name"] == "setup.warmup")
    sim = traced["sim"]
    for name, key in SIM_METRICS.items():
        m[name] = sim[key]
    m["core.probe_not_found_frac"] = \
        traced["probes"]["not_found"] / max(1, traced["probes"]["attempted"])
    m["mem.rss_after_setup_mb"] = traced["rss_after_setup_mb"]
    m["mem.rss_growth_mb"] = traced["rss_end_mb"] - traced["rss_after_setup_mb"]
    m["model.sim_over_model"] = sim["msgs_per_round"] / sim["model_msgs_per_round"]
    # pdht_bench's untraced rep repeats rep 0: same seed, same work.
    m["trace.overhead_frac"] = 1.0 - traced["rep_rounds_per_s"][0] / \
        traced["untraced_rounds_per_s"]
    return m


def layer_failures(workload, m):
    names, least = LOADED_LAYERS[workload]
    round_ms = sum(m[n] for n in PHASE_METRICS.values()) + m["sim.engine_ms"]
    share = sum(m[n] for n in names) / round_ms
    if share < least:
        return [f"{'+'.join(names)}_share_{share:.3f}_below_{least}"]
    return []


def traced_run(workload, seed, seconds, smoke=False):
    """Traced run with the thread-count cross-check; returns (per-layer
    metrics, driver result, CHECK FAIL reasons)."""
    trace_dir = BUILD_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{workload}-{seed}.jsonl"
    result = run_driver(workload, seed, seconds, reps=1 if smoke else 3,
                        check=True, trace_out=path, smoke=smoke)
    m = layer_metrics(read_spans(path), result)
    reasons = failures(result)
    if not smoke:
        reasons += layer_failures(workload, m)
    return m, result, reasons


# --- modes ------------------------------------------------------------------

def single_run(args):
    """One run, printed as the single-run JSON object."""
    build()
    if args.trace:
        m, result, reasons = traced_run(args.workload, args.seed, args.seconds)
        specs = spec_metrics("per_layer")
    else:
        result = run_driver(args.workload, args.seed, args.seconds)
        m, reasons = end_to_end(result), failures(result)
        specs = spec_metrics("end_to_end")
    missing = sorted(set(specs) - set(m))
    if missing:
        fail(f"metrics missing from the run: {missing}", 1)
    for r in reasons:
        print(f"CHECK FAIL {args.workload} {r}")
    for name, spec in specs.items():
        print(f"{args.workload} {name} {m[name]:.6g} {spec['unit']}")
    probes = result["probes"]
    print(json.dumps({
        "correct": not reasons,
        "attempted": probes["attempted"],
        "failed": probes["contract_violations"],
        "metrics": {name: {"value": m[name], "unit": spec["unit"]}
                    for name, spec in specs.items()},
    }))
    return 0


def full_pass(args):
    build()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        fail(f"unknown workloads {unknown}; known: {WORKLOADS}")
    seconds = args.seconds if args.seconds else SPEC["run_seconds"]
    driver_reps, probes, reps = 3, 1000, args.reps
    if args.smoke:
        seconds, driver_reps, probes, reps = seconds / 10.0, 1, 200, 1
    e2e_spec = spec_metrics("end_to_end")
    load_before = os.getloadavg()
    runs = {w: [] for w in workloads}
    check_fail = []
    for rep in range(reps):
        # Rotate the order so a slow host episode lands on different
        # workloads in different reps.
        order = workloads[rep % len(workloads):] + workloads[:rep % len(workloads)]
        for w in order:
            r = run_driver(w, args.seed, seconds, driver_reps, probes,
                           check=args.check, smoke=args.smoke)
            runs[w].append(r)
            check_fail += [(w, x) for x in failures(r)]
            print(f"ran {w} run {rep + 1}/{reps}: "
                  f"{r['rounds_per_s']:.4g} rounds/s", flush=True)

    report = {"manifest": build_manifest(), "workloads": {}}
    report["manifest"].update({
        "seed": args.seed, "seconds": seconds, "reps": reps,
        "smoke": args.smoke, "load_before": load_before,
        "timestamp": datetime.datetime.now().isoformat(timespec="seconds"),
    })
    for w in workloads:
        rs = runs[w]
        if len({r["fingerprint"] for r in rs}) != 1:
            check_fail.append((w, "fingerprint_differs_across_reps"))
        entry = {
            "config": rs[0]["config"],
            "config_hash": rs[0]["config_hash"],
            "fingerprint": rs[0]["fingerprint"],
            "timed_rounds": rs[0]["timed_rounds"],
            "probes": rs[0]["probes"],
            "metrics": {},
        }
        per_run = [end_to_end(r) for r in rs]
        for name, spec in e2e_spec.items():
            s = summarize([p[name] for p in per_run])
            s["unit"] = spec["unit"]
            entry["metrics"][name] = s
            print(f"{w} {name} {s['median']:.6g} {spec['unit']} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
        report["workloads"][w] = entry

    if args.trace:
        layer_spec = spec_metrics("per_layer")
        for w in workloads:
            m, traced, reasons = traced_run(w, args.seed, seconds, args.smoke)
            check_fail += [(w, x) for x in reasons]
            report["workloads"][w]["per_layer"] = m
            report["workloads"][w]["check"] = traced["check"]
            for name, spec in layer_spec.items():
                print(f"{w} {name} {m[name]:.6g} {spec['unit']} (traced, n=1)")
            print(f"{w} trace written to build-bench/trace/{w}-{args.seed}.jsonl")

    report["manifest"]["load_after"] = os.getloadavg()
    report["check_failures"] = [f"{w} {x}" for w, x in check_fail]
    results = BUILD_DIR / "results"
    results.mkdir(exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.seed}-{stamp}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"results written to {path.relative_to(ROOT)}")
    for w, x in check_fail:
        print(f"CHECK FAIL {w} {x}")
    return 1 if check_fail else 0


def compare(args):
    if SPEC is None:
        fail(f"missing {ROOT / 'BENCHMARK.json'}")
    a = json.loads(Path(args.compare[0]).read_text())
    b = json.loads(Path(args.compare[1]).read_text())
    e2e_spec = spec_metrics("end_to_end")
    any_worse = False
    print(f"A = {args.compare[0]} ({a['manifest']['git_sha'][:12]}), "
          f"B = {args.compare[1]} ({b['manifest']['git_sha'][:12]})")
    for w in a["workloads"]:
        if w not in b["workloads"]:
            print(f"{w}: only in A")
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        same = wa["fingerprint"] == wb["fingerprint"]
        print(f"{w}: fingerprint {'identical' if same else 'DIFFERS'} "
              f"({wa['fingerprint']} vs {wb['fingerprint']})")
        for name, spec in e2e_spec.items():
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            bound = spec["bound"]
            sign = 1 if spec["better"] == "higher" else -1
            # Relative change from A to B, positive when B is worse.
            delta = sign * (ma["median"] - mb["median"]) / ma["median"] \
                if ma["median"] else 0.0
            spread = max((m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0
                         for m in (ma, mb))
            b_all_better = min(sign * x for x in mb["runs"]) > \
                max(sign * x for x in ma["runs"])
            b_all_worse = max(sign * x for x in mb["runs"]) < \
                min(sign * x for x in ma["runs"])
            if spread > bound and not b_all_better and \
                    not (b_all_worse and delta > bound):
                verdict = "unresolved"
            elif delta > bound:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "ok"
            print(f"  {name:20s} A {ma['median']:.6g} [{ma['q1']:.6g}, "
                  f"{ma['q3']:.6g}] n={ma['n']}  B {mb['median']:.6g} "
                  f"[{mb['q1']:.6g}, {mb['q3']:.6g}] n={mb['n']}  "
                  f"{-delta:+.2%} (bound {bound:.0%}) {verdict}")
    if args.claim:
        claim(a, b, args.claim, e2e_spec)
    return 1 if any_worse else 0


def claim(a, b, claim_arg, e2e_spec):
    """The rule for claiming a gain: B wins >= 9/10 of the pairs and the
    medians differ by more than A's interquartile range."""
    metric, _, workload = claim_arg.partition("@")
    if metric not in e2e_spec or workload not in a["workloads"] or \
            workload not in b["workloads"]:
        fail(f"--claim {claim_arg}: unknown metric or workload")
    ma = a["workloads"][workload]["metrics"][metric]
    mb = b["workloads"][workload]["metrics"][metric]
    sign = 1 if e2e_spec[metric]["better"] == "higher" else -1
    pairs = list(zip(ma["runs"], mb["runs"]))
    wins = sum(1 for x, y in pairs if sign * y > sign * x)
    iqr = ma["q3"] - ma["q1"]
    gap = sign * (mb["median"] - ma["median"])
    met = pairs and wins >= 0.9 * len(pairs) and gap > iqr
    print(f"claim {metric}@{workload}: B wins {wins}/{len(pairs)} pairs; "
          f"median gain {gap:.6g} vs parent IQR {iqr:.6g}: "
          f"{'met' if met else 'NOT met'}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="run one workload once (single-run form)")
    p.add_argument("--workloads", help="comma list for a full pass")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="traced run and per-layer metrics")
    p.add_argument("--reps", type=int, default=3,
                   help="driver runs per workload in a full pass")
    p.add_argument("--check", action="store_true",
                   help="thread-count fingerprint cross-check on every run")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at ~1/10 of its rounds, one rep")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--claim", metavar="METRIC@WORKLOAD")
    args = p.parse_args()
    if args.compare:
        return compare(args)
    if args.workload:
        if args.workload not in WORKLOADS:
            fail(f"unknown workload {args.workload}; known: {WORKLOADS}")
        if args.seconds is None:
            args.seconds = SPEC["run_seconds"] if SPEC else 10
        if not 0 < args.seconds <= 600:
            fail("--seconds must be in (0, 600]")
        return single_run(args)
    if args.reps < 1:
        fail("--reps must be >= 1")
    return full_pass(args)


if __name__ == "__main__":
    sys.exit(main())
