#!/usr/bin/env python3
"""Write BENCH_modular_kernels.json: kernels from modular images against
the exact elimination of the parent commit.

Standard library only.  From the root of a checkout of the change, with a
checkout of the parent commit in PARENT:

    python3 tools/bench_modular_kernels.py --parent PARENT

Every measurement runs in a fresh process, on the parent and on the
change in turn:

* layers, in process: the kernels of K_(1,1)(z) - lam*I for the n+1
  closed-form eigenvalues lam (n = 4, 5, 6), and the D2 (1,1)
  exchange-relation solve (n = 4, 5), at sample_params(0); building K
  is outside the timed region, and every kernel dimension must agree;
* end to end: the last JSON line of perfbench/run.py for `chain`,
  `spectrum` and `series`, in pairs whose first side alternates.

Writes the JSON to --out (default BENCH_modular_kernels.json).
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

LAYER = r"""
import json, sys, time
from onsk.field import sample_params
from onsk.kmatrix import build_kkk, solve_intertwiner_space
from onsk.linalg import Operator, kernel
from onsk.onsager import CoidealSpec
from onsk.spectra import eval_lambda_k11
from onsk.spinrep import Family

what, n, reps = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
params = sample_params(0)
runs = []
for _ in range(reps):
    if what == "k11":
        a = build_kkk(1, 1, n, params.z, params).operator
        eye = Operator.identity(a.nrows)
        shifted = [(a - eye.scale(eval_lambda_k11(n, l, params.z, params))).rows
                   for l in range(n + 1)]
        t = time.perf_counter()
        dims = [len(kernel(rows.values(), a.ncols)) for rows in shifted]
    else:
        spec = CoidealSpec(Family("D2", n), 1, 1)
        t = time.perf_counter()
        dims = [len(solve_intertwiner_space(spec, params))]
    runs.append(time.perf_counter() - t)
print(json.dumps({"runs_s": runs, "dims": dims}))
"""

LAYERS = (("K11 eigenbasis kernels", "k11", ((4, 5), (5, 3), (6, 1))),
          ("D2 (1,1) exchange solve", "solve", ((4, 5), (5, 3))))
SECONDS = 40      # perfbench run length
PAIRS = 10        # spectrum pairs at seed 0, the claimed metric
OTHER_PAIRS = 3   # chain and series at seed 0, spectrum at seed 1
PERFBENCH = f"python3 perfbench/run.py --workload {{w}} --seed {{s}} --seconds {SECONDS} --trace 0"


def run(tree: Path, argv, env=None) -> dict:
    """The last line of the command's output, as JSON."""
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def layer(tree: Path, what: str, n: int, reps: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    doc = run(tree, [sys.executable, "-c", LAYER, what, str(n), str(reps)], env)
    return {"median_s": round(statistics.median(doc["runs_s"]), 4),
            "runs_s": [round(x, 4) for x in doc["runs_s"]], "dims": doc["dims"]}


def perfbench(tree: Path, workload: str, seed: int) -> dict:
    argv = PERFBENCH.format(w=workload, s=seed).split()
    return run(tree, [sys.executable] + argv[1:])


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(values)}


def pairs(parent: Path, change: Path, workload: str, seed: int, count: int) -> dict:
    """count pairs of runs, the side run first alternating, parent first in pair 1."""
    rows = []
    for i in range(count):
        sides = [("parent", parent), ("change", change)]
        if i % 2:
            sides.reverse()
        got = {name: perfbench(tree, workload, seed) for name, tree in sides}
        rows.append(got)
        print(workload, seed, i, {k: v["metrics"]["ref_wall_s"]["value"] for k, v in got.items()},
              file=sys.stderr, flush=True)
    out = {"pairs": [], "correct": all(r[s]["correct"] for r in rows for s in r),
           "failed": {s: sum(r[s]["failed"] for r in rows) for s in ("parent", "change")},
           "attempted": {s: sum(r[s]["attempted"] for r in rows) for s in ("parent", "change")}}
    for r in rows:
        out["pairs"].append({s: {k: round(v["value"], 4) for k, v in r[s]["metrics"].items()}
                             for s in ("parent", "change")})
    for metric in ("ref_wall_s", "ref_cpu_s", "peak_rss_mb", "setup_s"):
        out[metric] = {s: summary([p[s][metric] for p in out["pairs"]])
                       for s in ("parent", "change")}
    wall = [(p["parent"]["ref_wall_s"], p["change"]["ref_wall_s"]) for p in out["pairs"]]
    out["change_wins_ref_wall_s"] = f"{sum(c < p for p, c in wall)} of {len(wall)}"
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", default=Path("."), type=Path, help="checkout of the change")
    ap.add_argument("--out", default=Path("BENCH_modular_kernels.json"), type=Path)
    args = ap.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()

    def commit(tree):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                             text=True)
        return out.stdout.strip() or "unknown"

    doc = {
        "label": "modular_kernels",
        "what": ("linalg.kernel from images mod 62-bit primes, rebuilt by CRT and rational "
                 "reconstruction and checked exactly, against the parent's exact elimination"),
        "commands": {
            "untraced": PERFBENCH.format(w="W", s="S"),
            "layer": ("in process, PYTHONPATH=<tree>/src; 'K11 eigenbasis kernels': "
                      "linalg.kernel of K_(1,1)(z) - lam*I for lam = eval_lambda_k11(n, l, z), "
                      "l = 0..n, K built outside the timed region; 'D2 (1,1) exchange solve': "
                      "kmatrix.solve_intertwiner_space; both at sample_params(0); median of the "
                      "runs listed"),
            "script": "python3 tools/bench_modular_kernels.py --parent PARENT",
        },
        "host": (f"{os.cpu_count()} vCPUs, {platform.python_implementation()} "
                 f"{platform.python_version()}, {platform.system()} {platform.machine()}; "
                 "ref_* are divided by the host slowdown perfbench measures"),
        "parent_commit": commit(parent),
        "change_commit": commit(change),
        "layers": {},
    }
    for name, what, sizes in LAYERS:
        rows = {}
        for n, reps in sizes:
            got = {"parent": layer(parent, what, n, reps), "change": layer(change, what, n, reps)}
            if got["parent"]["dims"] != got["change"]["dims"]:
                raise SystemExit(f"{name} n={n}: kernel dimensions differ: {got}")
            rows[f"n{n}"] = got
            print(name, n, {k: v["median_s"] for k, v in got.items()}, file=sys.stderr,
                  flush=True)
        doc["layers"][name] = rows
    doc["perfbench"] = {
        "spectrum_seed0": pairs(parent, change, "spectrum", 0, PAIRS),
        "spectrum_seed1": pairs(parent, change, "spectrum", 1, OTHER_PAIRS),
        "chain_seed0": pairs(parent, change, "chain", 0, OTHER_PAIRS),
        "series_seed0": pairs(parent, change, "series", 0, OTHER_PAIRS),
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
