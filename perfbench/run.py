#!/usr/bin/env python3
"""wob's benchmark: three verifier workloads, timed from outside the library.

    python3 perfbench/run.py --workload recognize|chain|rpi|all \
        --seed N --seconds S --trace 0|1

One workload runs in one process, so its peak memory is its own; `all`
runs each workload in a child process and prints them together.  Every job
is checked against a reference that does not use the code under test (see
`workloads.py`); a job that raises or disagrees counts as failed and makes
the command exit 1.

With `--trace 0` a run does a fixed number of passes over the workload,
`round(S / NOMINAL_PASS_S)`, so a run measures about S seconds at the seed
commit and the same work on every later commit.  Each pass loads fresh
inputs, and a full garbage collection runs before each job, off the
clock, so no job pays for the garbage of the one drawn before it.  Times
are given in seconds at a fixed host speed (see `speed.py`): each job's
time is scaled by the host speed sampled around it.  The raw times are
printed beside them.  The metrics are:

  setup_s         median over SETUP_PROBES fresh interpreters of importing
                  wob (from a bytecode cache under perfbench/out/), parsing
                  the corpus manifests or the .tm file and building one
                  pass's job list
  wall_s          median over passes of the summed job times of a pass
  verdict_p50_s   median over job kinds (job names) of each kind's median
                  time to a verdict; with a pooled median a little noise
                  can make it jump between two kinds of different cost
  verdict_tail_s  the highest percentile with ten samples beyond it
  ok_rate         jobs with a correct verdict / jobs attempted (1 - error_rate)
  peak_rss_mb     peak resident memory of the process

With `--trace 1` a run does one untraced pass and then one traced pass on
the same seed, and prints the per-layer metrics of the traced pass (see
`tracer.py`); spans are written to `perfbench/out/`.  With `--workload all
--trace 1` each workload is traced twice in separate processes and every
count must agree; a difference is reported as a defect.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

# Rough seconds per pass at the seed commit (2 vCPUs, Python 3.11.7; the
# machine's speed drifts by up to 1.5x).  They only size a run: kept fixed,
# they make every commit do the same work for a given --seconds.
NOMINAL_PASS_S = {"recognize": 5.0, "chain": 8.5, "rpi": 14.0}
SETUP_PROBES = 7
TAIL_BEYOND = 10
# per-layer metrics that are not counts, so two traced runs may differ in them
TIMED_SUFFIXES = ("self_s", "overhead_s")


@dataclass
class Pass:
    names: list = field(default_factory=list)  # job kind per job
    times: list = field(default_factory=list)  # raw seconds per job
    spans: list = field(default_factory=list)  # (start, end) per job
    failures: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.times)


def load_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports wob

    return workloads


def probe_setup(name: str, seed: int) -> tuple:
    """(raw, scaled) set-up time in this fresh interpreter: import wob and
    the workloads, then build one pass's job list."""
    before = speed.sample_now()
    start = time.perf_counter()
    load_workloads().SETUP[name](random.Random(seed))
    raw = time.perf_counter() - start
    return raw, raw * speed.REF_LOOP_S / statistics.median([before, speed.sample_now()])


def measure_setup(name: str, seed: int) -> tuple:
    """(raw, scaled) medians over SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    # Probes share a bytecode cache of their own, so they import compiled
    # modules, as an installed wob does, whatever PYTHONDONTWRITEBYTECODE says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    probes = [
        json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=120, env=env).stdout)
        for _ in range(SETUP_PROBES)
    ]
    return tuple(statistics.median(p[i] for p in probes) for i in (0, 1))


def run_pass(setup, rng, tracer=None, sampler=None) -> Pass:
    jobs = setup(rng)
    result = Pass()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{i}:{job.name}"
        gc.collect()
        stolen = sampler.stolen_s if sampler else 0.0
        t = time.perf_counter()
        try:
            job.run()
        except Exception as exc:  # a failed job is counted, and the run goes on
            result.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        result.times.append(end - t - ((sampler.stolen_s - stolen) if sampler else 0.0))
        result.spans.append((t, end))
        result.names.append(job.name)
    return result


def tail(times: list) -> tuple:
    """(value, percentile, samples): the highest percentile that still has
    TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * (k + 1) / n, n


def times_of(passes: list, per_pass: list) -> dict:
    """wall_s, verdict_p50_s and verdict_tail_s of per-pass job times."""
    times = [t for p in per_pass for t in p]
    kinds: dict = {}
    for p, ts in zip(passes, per_pass):
        for name, t in zip(p.names, ts):
            kinds.setdefault(name, []).append(t)
    return {
        "wall_s": statistics.median(sum(p) for p in per_pass),
        "verdict_p50_s": statistics.median(statistics.median(ts) for ts in kinds.values()),
        "verdict_tail_s": tail(times)[0],
    }


def end_to_end(setup: tuple, passes: list, sampler) -> tuple:
    raw = [p.times for p in passes]
    scaled = [[t * sampler.scale(*span) for t, span in zip(p.times, p.spans)] for p in passes]
    n = sum(map(len, raw))
    failed = sum(len(p.failures) for p in passes)
    values = {
        "setup_s": setup[1],
        **times_of(passes, scaled),
        "ok_rate": 1.0 - failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _, pct, _ = tail([t for p in raw for t in p])
    notes = [
        f"error_rate {failed / n:.6f} ratio ({failed} of {n} jobs)",
        f"verdict_tail_s is p{pct:.1f} of {n} samples over {len(passes)} passes",
        f"host speed: {len(sampler.loop_s)} loop samples, median "
        f"{statistics.median(sampler.loop_s) * 1e3:.4f} ms against {speed.REF_LOOP_S * 1e3:.4f} ms",
        "raw " + ", ".join(f"{k} {v:.6f} s" for k, v in
                           [("setup_s", setup[0])] + list(times_of(passes, raw).items())),
    ]
    return values, notes


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> dict:
    setup = load_workloads().SETUP[name]
    if not trace:
        rng = random.Random(seed)
        sampler = speed.SpeedSampler()
        sampler.start()
        try:
            passes = [run_pass(setup, rng, sampler=sampler)
                      for _ in range(max(1, round(seconds / NOMINAL_PASS_S[name])))]
            time.sleep(speed.MARGIN_S)  # samples after the last job
        finally:
            sampler.stop()
        values, notes = end_to_end(measure_setup(name, seed), passes, sampler)
        listed = spec["end_to_end"]
    else:
        from tracer import Tracer, layer_metrics

        untraced = run_pass(setup, random.Random(seed))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(setup, random.Random(seed), tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        listed = spec["per_layer"]
        values = layer_metrics(tracer, [m["name"] for m in listed], traced.wall_s - untraced.wall_s)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}-pid{os.getpid()}.jsonl"
        tracer.write(spans)
        notes = [f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}",
                 f"untraced wall_s {untraced.wall_s:.4f} s, traced wall_s {traced.wall_s:.4f} s"]
    failures = [f for p in passes for f in p.failures]
    return {
        "correct": not failures,
        "attempted": sum(len(p.times) for p in passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
        "notes": notes,
        "failures": failures,
    }


def _child(name: str, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def count_defects(name: str, first: dict, second: dict) -> list:
    return [
        f"{name} {metric}: {first[metric]['value']} vs {second.get(metric, {}).get('value')}"
        for metric in first
        if not metric.endswith(TIMED_SUFFIXES) and first[metric] != second.get(metric)
    ]


def run_all(spec: dict, args) -> int:
    results, defects = {}, []
    for w in spec["workloads"]:
        results[w["name"]] = _child(w["name"], args)
        if args.trace:
            again = _child(w["name"], args)
            defects += count_defects(w["name"], results[w["name"]]["metrics"], again["metrics"])
    for d in defects:
        print(f"DEFECT: two traced runs disagree on {d}")
    failed = sum(r["failed"] for r in results.values()) + len(defects)
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (SPEC, ROOT / "src" / "wob", ROOT / "corpus") if not p.exists()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a wob checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(spec, args)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names + ['all'])}")
    if args.setup_probe:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0

    result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, v in result["metrics"].items():
        value = v["value"]
        print(f"{args.workload} {metric} {value:.6f} {v['unit']}" if isinstance(value, float)
              else f"{args.workload} {metric} {value} {v['unit']}")
    for line in result.pop("notes") + [f"FAILED {f}" for f in result.pop("failures")]:
        print(f"{args.workload} {line}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
