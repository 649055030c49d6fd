"""Benchmark of onsk's exact certificate jobs (stdlib only).

    python3 perfbench/run.py --workload chain --seed 0 --seconds 40 --trace 0

Workloads are chain, spectrum and series (see README.md); --workload all,
the default, runs the three in turn.  With --trace 0 the run prints the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics from a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

A run is a closed loop with one client and no threads: whole rounds of
a workload's operations, one after another, each round in a fresh
process (worker.py), for about --seconds.  Times are medians
over rounds; ref_wall_s and ref_cpu_s are a round's time divided by the
host slowdown that probe.py measures during it.  Set-up time runs from launching a process until it reports
that onsk is imported and the inputs are generated; it is sampled in
every round's process and in set-up-only processes, and the median is
reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import KNOWN_FAULTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15        # set-up times per run; set-up-only processes make up the rest
DEADLINE_S = 170          # per workload, including set-up probes


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, deadline: float, *flags) -> tuple:
    """Launch one worker; return (set-up seconds, its parsed result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *flags]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - start
            if line.strip() != "ready":
                proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
                raise BenchError(f"{args.workload} worker did not start "
                                 f"(exit status {proc.returncode})")
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args.workload} worker passed the {DEADLINE_S} s "
                             "deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited with status {proc.returncode}")
    if "--setup-only" in flags:
        return setup, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} worker printed no result")
    return setup, json.loads(lines[-1])


def run_workload(args, spec: dict, deadline: float) -> dict:
    """Worker processes, one round each (two when traced), for about --seconds."""
    setups, rounds, spans = [], [], []
    start = time.perf_counter()
    # Another round starts only if it should end within half a round of
    # --seconds, so that a run lasts about --seconds whatever its round length.
    while not rounds or (time.perf_counter() - start
                         + statistics.median(spans) / 2 <= args.seconds):
        began = time.perf_counter()
        setup, res = _worker(args, deadline, *([] if rounds else ["--controls"]))
        spans.append(time.perf_counter() - began)
        setups.append(setup)
        rounds.append(res)
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(args, deadline, "--setup-only")[0])

    first = rounds[0]
    failures = {k: v for r in rounds for k, v in r["failures"].items()}
    unexpected = {k: v for k, v in failures.items() if k not in KNOWN_FAULTS}
    missed = [name for name, caught in first["controls"] if not caught]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        values = {k: statistics.median(r["layer"][k] for r in rounds) for k in first["layer"]}
        wanted = spec["per_layer"]
    else:
        values = {k: statistics.median(r[k] for r in rounds)
                  for k in ("ref_wall_s", "ref_cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  point {first['point']}")
    print(f"  processes {len(rounds)}  attempted {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:>16.6f} {m['unit']}")
    print("  as measured, median over rounds: " + "  ".join(
        f"{k} {statistics.median(r[k] for r in rounds):.6f}"
        for k in ("wall_s", "cpu_s", "slowdown")))
    print("  untraced seconds per operation (median over rounds):")
    for op in first["op_wall_s"]:
        print(f"    {statistics.median(r['op_wall_s'][op] for r in rounds):9.4f}  {op}")
    for op, problem in failures.items():
        tag = "known fault" if op in KNOWN_FAULTS else "FAILED"
        print(f"  {tag}: {op}: {problem}")
    print(f"  negative controls caught: {len(first['controls']) - len(missed)} "
          f"of {len(first['controls'])}")
    for name in missed:
        print(f"  negative control NOT caught: {name}")
    print("  samples " + json.dumps({
        "setup_s": setups, **{k: [r[k] for r in rounds] for k in (
            "ref_wall_s", "ref_cpu_s", "wall_s", "cpu_s", "slowdown", "peak_rss_mb")}}))
    return {"correct": not unexpected and not missed, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per workload; default from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        print("provenance " + json.dumps({
            "git": git_revision(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpus": os.cpu_count(), "platform": platform.platform(),
            "seed": args.seed, "workload": args.workload}))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            args.workload = name
            deadline = start + DEADLINE_S * (names.index(name) + 1)
            results[name] = run_workload(args, spec, deadline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
