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
* end to end: perfbench `chain`, `spectrum` and `series` in pairs, run
  and recorded by tools/benchpair.py.

Writes the JSON to --out (default BENCH_modular_kernels.json).
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import benchpair

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
# spectrum at seed 0 is the claimed metric
RUNS = (("spectrum", 0, 10), ("spectrum", 1, 3), ("chain", 0, 3), ("series", 0, 3))


def layer(tree: Path, what: str, n: int, reps: int) -> dict:
    doc = benchpair.last_json(tree, [LAYER, what, str(n), str(reps)])
    return {"median_s": round(statistics.median(doc["runs_s"]), 4),
            "runs_s": [round(x, 4) for x in doc["runs_s"]], "dims": doc["dims"]}


def layers(trees: dict) -> dict:
    out = {}
    for name, what, sizes in LAYERS:
        rows = {}
        for n, reps in sizes:
            got = {side: layer(tree, what, n, reps) for side, tree in trees.items()}
            if got["parent"]["dims"] != got["change"]["dims"]:
                raise SystemExit(f"{name} n={n}: kernel dimensions differ: {got}")
            rows[f"n{n}"] = got
            print(name, n, {k: v["median_s"] for k, v in got.items()}, file=sys.stderr,
                  flush=True)
        out[name] = rows
    return {"layers": out}


def main() -> int:
    return benchpair.main(
        __doc__, "modular_kernels",
        ("linalg.kernel from images mod 62-bit primes, rebuilt by CRT and rational "
         "reconstruction and checked exactly, against the parent's exact elimination"),
        {"layer": ("in process, PYTHONPATH=<tree>/src; 'K11 eigenbasis kernels': "
                   "linalg.kernel of K_(1,1)(z) - lam*I for lam = eval_lambda_k11(n, l, z), "
                   "l = 0..n, K built outside the timed region; 'D2 (1,1) exchange solve': "
                   "kmatrix.solve_intertwiner_space; both at sample_params(0); median of the "
                   "runs listed")},
        RUNS, layers)


if __name__ == "__main__":
    sys.exit(main())
