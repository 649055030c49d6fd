"""Workload process: set up one workload, run one round, check every output.

Started by run.py, once per round, so that every round pays for a fresh
process as a user of the onsk command does and nothing cached by one
round can speed up the next.  It prints "ready" once onsk is imported
and the inputs are generated (run.py times set-up up to that line);
then, unless --setup-only, it runs the round and prints one JSON line.

The untraced round runs under the speed probe of probe.py and reports
its own time both as measured and divided by the probe's slowdown.
With --trace 1 the untraced round is followed by a traced one, whose
spans are reduced to per-layer metrics; the untraced round is the
reference for the tracing overhead.  Outputs are checked after the
round, outside the timed region, and with --controls each check is also
shown to fail on a perturbed copy of the real output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from probe import Probe


def _run_round(ops, op_times: dict, tracer=None) -> tuple:
    """Run each operation once; return (outputs, wall, cpu, probe).

    The untraced round runs under a speed probe, and its wall, cpu and
    op_times leave out the time of the probe's calls; the traced round
    runs without one, so that no probe call falls inside a span.
    """
    probe = Probe() if tracer is None else None
    outputs = []
    with probe or contextlib.nullcontext():
        w0, c0 = time.perf_counter(), time.process_time()
        for op in ops:
            t0, p0 = time.perf_counter(), probe.spent()[0] if probe else 0.0
            try:
                out = op.run() if tracer is None else tracer.root(op.name, op.run)
            except Exception as exc:    # an operation that raises counts as failed
                out = exc
            op_times[op.name] = (time.perf_counter() - t0
                                 - (probe.spent()[0] - p0 if probe else 0.0))
            outputs.append(out)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if probe:
        spent_wall, spent_cpu = probe.spent()
        wall, cpu = wall - spent_wall, cpu - spent_cpu
    return outputs, wall, cpu, probe


def _check_round(ops, outputs, failures: dict) -> int:
    """Record the first problem of each failed operation; count them."""
    failed = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            problems = op.check(out)
        if problems:
            failed += 1
            failures.setdefault(op.name, problems[0])
    return failed


def _controls(ops, outputs) -> list:
    from checks import controls
    return [(f"{op.name}: {name}", caught)
            for op, out in zip(ops, outputs) if not isinstance(out, Exception)
            for name, caught in controls(op.kind, out)]


def _scalar_timing(pt) -> dict:
    """ns per Scalar mul and add on operands built from the sample point."""
    from onsk.field import Scalar
    t, z = Scalar.from_fraction(pt.t), Scalar.from_fraction(pt.z)
    q = -(t * t)
    xs = [t, z, q, q * z + t, (q * q - z) * t, q ** 3 * z - 1]
    pairs = [(a, b) for a in xs for b in xs] * 200
    out = {}
    for name, fn in (("field.mul_ns", lambda a, b: a * b), ("field.add_ns", lambda a, b: a + b)):
        batches, base = [], []
        for _ in range(7):
            s = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            batches.append((time.perf_counter() - s) / len(pairs) * 1e9)
            s = time.perf_counter()
            for a, b in pairs:
                pass
            base.append((time.perf_counter() - s) / len(pairs) * 1e9)
        # loop overhead of the harness itself is taken back off
        out[name] = statistics.median(batches) - statistics.median(base)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--controls", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.environ.pop("ONSK_SEED", None)     # the seed comes from the benchmark only
    import workloads
    pt, ops = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    failures: dict = {}
    op_times: dict = {}
    outputs, wall, cpu, probe = _run_round(ops, op_times)
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = _check_round(ops, outputs, failures)
    slowdown = probe.slowdown(0)
    result = {"point": pt.describe(), "attempted": len(ops), "failed": failed,
              "wall_s": wall, "cpu_s": cpu, "slowdown": slowdown,
              "ref_wall_s": wall / slowdown, "ref_cpu_s": cpu / probe.slowdown(1),
              "peak_rss_mb": peak, "op_wall_s": op_times, "failures": failures}
    if args.controls:
        result["controls"] = _controls(ops, outputs)
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        traced_outputs, traced_wall, _, _ = _run_round(ops, {}, tracer)
        tracer.uninstall()
        layer = layer_metrics(tracer, traced_wall, tracer.scalar_ops())
        layer["trace.overhead"] = traced_wall / wall - 1
        layer.update(_scalar_timing(pt))
        result["attempted"] += len(ops)
        result["failed"] += _check_round(ops, traced_outputs, failures)
        result["layer"] = layer
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
