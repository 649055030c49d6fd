#!/usr/bin/env python3
"""Write BENCH_integer_oracle.json: the series oracle summed over integer
numerators against the parent commit's Fraction prefix tables.

Standard library only.  From the root of a checkout of the change, with a
checkout of the parent commit in PARENT:

    python3 tools/bench_integer_oracle.py --parent PARENT

Every measurement runs in a fresh process, on the parent and on the
change in turn:

* words: `boundary_contract_oracle` alone on the 80 `series` words of
  perfbench seeds 0-9 (the exact contraction and the normal ordering are
  outside the timed region), best of three, with a digest of every
  (value, bound) or exception, which must agree between the trees;
* z=4/5: one oracle call at t=1/3, z=4/5, word `k`, pair (1,1), under
  tracemalloc: peak traced memory and time;
* tier-1: the call durations of the four oracle tests, from pytest;
* reach: the functions of `qboson.py` from its `# --- summed-series
  oracle` line down that one `chain` and one `spectrum` round call, seed 0,
  listed with sys.setprofile; both lists must be empty;
* end to end: perfbench `series` (the claimed metric), `chain` and
  `spectrum`, at seed 0 and at seed 11, in pairs run and recorded by
  tools/benchpair.py, and one traced `series` run per side for the
  per-layer `qboson.oracle_s`.

Writes the JSON to --out (default BENCH_integer_oracle.json).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import benchpair

WORDS = r"""
import hashlib, json, random, sys, time
sys.path.insert(0, "perfbench")
import workloads
from onsk import qboson
cases = []
for seed in range(10):
    rng = random.Random(f"perfbench:series:{seed}")
    pt = workloads.Point(rng, workloads.SERIES_T_BAND, workloads.SERIES_Z_BAND)
    params = pt.params()
    for bra, ket in workloads.PAIRS:
        for _ in range(workloads.WORDS_PER_PAIR):
            word = workloads.random_word(rng)
            engine = qboson.QBosonEngine(params)
            letters = {"+": engine.ap, "-": engine.am, "k": engine.kdiag}
            nf = engine.mulseq([engine.marker(params.z)] + [letters[x]() for x in word])
            cases.append((params, nf, bra, ket))
runs, outcomes = [], []
for _ in range(3):
    outcomes = []
    start = time.perf_counter()
    for params, nf, bra, ket in cases:
        try:
            pair = qboson.boundary_contract_oracle(params, nf, bra, ket)
            # hexadecimal: decimal str() of an int is capped at 4300 digits
            outcomes.append(" ".join(f"{x.numerator:x}/{x.denominator:x}" for x in pair))
        except ArithmeticError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    runs.append(time.perf_counter() - start)
digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
print(json.dumps({"words": len(cases), "runs_s": runs, "digest": digest}))
"""

POINT = r"""
import hashlib, json, time, tracemalloc
from onsk.field import Scalar, make_params
from onsk.qboson import QBosonEngine, boundary_contract_oracle
params = make_params(Scalar(1, 0, 3), Scalar(4, 0, 5))
engine = QBosonEngine(params)
nf = engine.mul(engine.marker(params.z), engine.kdiag())
tracemalloc.start()
start = time.perf_counter()
value, bound = boundary_contract_oracle(params, nf, 1, 1)
elapsed = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
text = " ".join(f"{x.numerator:x}/{x.denominator:x}" for x in (value, bound))
digest = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps({"peak_mb": peak / 1e6, "traced_s": elapsed, "digest": digest}))
"""

REACH = r"""
import json, sys
sys.path.insert(0, "perfbench")
import workloads
src = open("src/onsk/qboson.py").read().splitlines()
marker = next(i for i, line in enumerate(src, 1) if line.startswith("# --- summed-series oracle"))
out = {}
for workload in ("chain", "spectrum"):
    reached = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.endswith("qboson.py")
                and code.co_firstlineno > marker):
            reached.add(code.co_name)
    _, ops = workloads.build(workload, 0)
    sys.setprofile(hook)
    try:
        for op in ops:
            op.run()
    finally:
        sys.setprofile(None)
    out[workload] = sorted(reached)
print(json.dumps(out))
"""

ORACLE_TESTS = (
    "tests/test_acceptance.py::test_10_engine_vs_series_oracle",
    "tests/test_qboson.py::test_oracle_tables_match_per_component_reference",
    "tests/test_qboson.py::test_oracle_agrees_with_closed_forms",
    "tests/test_kmatrix.py::test_entries_recheck_against_oracle",
)
RUNS = (("series", 0, 10), ("series", 11, 3), ("chain", 0, 3), ("chain", 11, 3),
        ("spectrum", 0, 5), ("spectrum", 11, 3))


def oracle_tests(tree: Path) -> dict:
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--durations=0", *ORACLE_TESTS], cwd=tree,
                         env=benchpair.src_env(tree), capture_output=True, text=True)
    got = {m.group(2).split("::")[-1]: float(m.group(1))
           for m in re.finditer(r"^([\d.]+)s call\s+(\S+)$", out.stdout, re.M)}
    return {"passed": out.returncode == 0, "call_s": got,
            "total_s": round(sum(got.values()), 2)}


def layers(trees: dict) -> dict:
    doc = {}
    for name, script in (("words", WORDS), ("z=4/5", POINT), ("reach", REACH)):
        doc[name] = {side: benchpair.last_json(tree, [script]) for side, tree in trees.items()}
        print(name, doc[name], file=sys.stderr, flush=True)
    for side in trees:
        runs = doc["words"][side].pop("runs_s")
        doc["words"][side]["best_s"] = round(min(runs), 4)
    for name in ("words", "z=4/5"):
        if doc[name]["parent"]["digest"] != doc[name]["change"]["digest"]:
            raise SystemExit(f"{name}: (value, bound) differ between the trees")
    if any(doc["reach"][side][w] for side in trees for w in ("chain", "spectrum")):
        raise SystemExit(f"a chain or spectrum round reaches the oracle: {doc['reach']}")
    doc["tier1_oracle_tests"] = {side: oracle_tests(tree) for side, tree in trees.items()}
    print("tier1", doc["tier1_oracle_tests"], file=sys.stderr, flush=True)
    doc["traced_series"] = {}
    for side, tree in trees.items():
        got = benchpair.perfbench(tree, "series", 0, 10, 1)
        doc["traced_series"][side] = {k: round(v["value"], 4)
                                      for k, v in got.get("metrics", {}).items()} or got
    return doc


def main() -> int:
    return benchpair.main(
        __doc__, "integer_oracle",
        ("qboson.boundary_contract_oracle sums each Fock series in plain ints over "
         "one growing denominator and a power of qd and reduces it once, against "
         "the parent's Fraction prefix tables; same (value, bound)"),
        {"traced": "python3 perfbench/run.py --workload series --seed 0 --seconds 10 --trace 1",
         "tier1": "python -m pytest -q --durations=0 " + " ".join(ORACLE_TESTS)},
        RUNS, layers)


if __name__ == "__main__":
    sys.exit(main())
