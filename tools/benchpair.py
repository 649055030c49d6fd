"""The parent-against-change part of every BENCH_*.json script.

Standard library only.  A script under tools/ names its label, its
perfbench runs and its own layer rows, and calls `main`; this module
runs in-tree snippets and perfbench on a checkout of the parent commit
and of the change, pairs the perfbench runs and writes the document:

* a snippet runs in a fresh process with PYTHONPATH=<tree>/src, and its
  last line of output is read as JSON;
* perfbench runs untraced, in pairs whose first side alternates, parent
  first in pair 1.  The fastest round (undivided wall_s) of each run is
  kept, and a run that exits non-zero is recorded in `refused` with its
  exit status and last line of stderr; it is not retried, and its pair
  leaves `pairs` and the summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 40      # perfbench run length
SIDES = ("parent", "change")
METRICS = ("ref_wall_s", "ref_cpu_s", "peak_rss_mb", "setup_s")
UNTRACED = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0"


def src_env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def last_json(tree: Path, argv) -> dict:
    """The last line of an in-tree snippet's output, as JSON: argv is the
    snippet and its arguments."""
    out = subprocess.run([sys.executable, "-c", *argv], cwd=tree, env=src_env(tree),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def perfbench(tree: Path, workload: str, seed: int, seconds: int = SECONDS,
              trace: int = 0) -> dict:
    """One perfbench run: its last JSON line with the fastest round added,
    or its exit status and last line of stderr if it exits non-zero."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        return {"exit": out.returncode, "error": (out.stderr.strip().splitlines() or [""])[-1]}
    lines = out.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    samples = [json.loads(line.split("samples ", 1)[1]) for line in lines
               if line.strip().startswith("samples ")]
    if samples:
        doc["fastest_round_wall_s"] = round(min(samples[0]["wall_s"]), 4)
    return doc


def summary(values) -> dict:
    if not values:
        return {"n": 0}
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(values)}


def pairs(trees: dict, workload: str, seed: int, count: int) -> dict:
    """count pairs of untraced runs, the side run first alternating, parent first in pair 1."""
    rows = []
    for i in range(count):
        order = SIDES[::-1] if i % 2 else SIDES
        got = {side: perfbench(trees[side], workload, seed) for side in order}
        rows.append(got)
        print(workload, seed, i, {k: v.get("metrics", {}).get("ref_wall_s", v)
                                  for k, v in got.items()}, file=sys.stderr, flush=True)
    ok = [r for r in rows if all("metrics" in r[s] for s in SIDES)]
    out = {"refused": [{"pair": i + 1, **{s: r[s] for s in SIDES if "exit" in r[s]}}
                       for i, r in enumerate(rows) if r not in ok],
           "correct": all(r[s]["correct"] for r in ok for s in SIDES),
           "failed": {s: sum(r[s]["failed"] for r in ok) for s in SIDES},
           "attempted": {s: sum(r[s]["attempted"] for r in ok) for s in SIDES},
           "fastest_round_wall_s": {s: [r[s].get("fastest_round_wall_s") for r in ok]
                                    for s in SIDES},
           "pairs": [{s: {k: round(v["value"], 4) for k, v in r[s]["metrics"].items()}
                      for s in SIDES} for r in ok]}
    for metric in METRICS:
        out[metric] = {s: summary([p[s][metric] for p in out["pairs"]]) for s in SIDES}
    wall = [(p["parent"]["ref_wall_s"], p["change"]["ref_wall_s"]) for p in out["pairs"]]
    out["change_wins_ref_wall_s"] = f"{sum(c < p for p, c in wall)} of {len(wall)}"
    return out


def commit(tree: Path) -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                         text=True)
    return out.stdout.strip() or "unknown"


def main(doc: str, label: str, what: str, commands: dict, runs, layers) -> int:
    """The --parent/--change/--out entry point of a script whose docstring
    is doc.  layers(trees) returns the script's own rows, keyed by name;
    runs lists the perfbench (workload, seed, pair count) triples."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", default=Path("."), type=Path, help="checkout of the change")
    ap.add_argument("--out", default=Path(f"BENCH_{label}.json"), type=Path)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = {
        "label": label,
        "what": what,
        "commands": {"untraced": UNTRACED, **commands,
                     "script": f"python3 tools/bench_{label}.py --parent PARENT"},
        "host": (f"{os.cpu_count()} vCPUs, {platform.python_implementation()} "
                 f"{platform.python_version()}, {platform.system()} {platform.machine()}; "
                 "ref_* are divided by the host slowdown perfbench measures"),
        "parent_commit": commit(trees["parent"]),
        "change_commit": commit(trees["change"]),
        **layers(trees),
        "perfbench": {f"{w}_seed{s}": pairs(trees, w, s, n) for w, s, n in runs},
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0
