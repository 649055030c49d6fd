"""tools/benchpair.py, the parent-against-change driver of the BENCH
scripts, on canned perfbench results: no test starts perfbench."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import benchpair  # noqa: E402

TREES = {"parent": Path("/parent"), "change": Path("/change")}


def result(wall):
    metrics = {m: {"value": wall if m == "ref_wall_s" else 1.0, "unit": "s"}
               for m in benchpair.METRICS}
    return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics,
            "fastest_round_wall_s": wall / 2}


REFUSED = {"exit": 1, "error": "perfbench: round too short for the speed probe"}


def canned(monkeypatch, outcomes):
    """Replace the perfbench runner: outcomes[side] lists what each of
    that side's runs returns; the calls are logged as (side, workload, seed)."""
    calls = []
    left = {side: list(runs) for side, runs in outcomes.items()}

    def fake(tree, workload, seed):
        side = tree.name
        calls.append((side, workload, seed))
        return left[side].pop(0)

    monkeypatch.setattr(benchpair, "perfbench", fake)
    return calls


def test_pairs_alternate_the_first_side(monkeypatch):
    calls = canned(monkeypatch, {s: [result(1.0)] * 3 for s in benchpair.SIDES})
    benchpair.pairs(TREES, "spectrum", 7, 3)
    assert calls == [(s, "spectrum", 7) for s in
                     ("parent", "change", "change", "parent", "parent", "change")]


def test_a_refused_run_is_recorded_and_left_out(monkeypatch):
    canned(monkeypatch, {"parent": [result(1.0), result(2.0), result(3.0)],
                         "change": [result(0.5), REFUSED, result(2.5)]})
    out = benchpair.pairs(TREES, "spectrum", 0, 3)
    assert out["refused"] == [{"pair": 2, "change": REFUSED}]
    assert [p["parent"]["ref_wall_s"] for p in out["pairs"]] == [1.0, 3.0]
    assert [out["ref_wall_s"]["change"][k] for k in ("median", "n")] == [1.5, 2]
    assert out["fastest_round_wall_s"] == {"parent": [0.5, 1.5], "change": [0.25, 1.25]}
    assert (out["correct"], out["attempted"]) == (True, {"parent": 10, "change": 10})
    assert out["change_wins_ref_wall_s"] == "2 of 2"


def test_every_run_refused_leaves_empty_summaries(monkeypatch):
    canned(monkeypatch, {"parent": [REFUSED], "change": [result(1.0)]})
    out = benchpair.pairs(TREES, "chain", 0, 1)
    assert out["refused"] == [{"pair": 1, "parent": REFUSED}]
    assert out["pairs"] == [] and out["setup_s"]["parent"] == {"n": 0}
    assert out["change_wins_ref_wall_s"] == "0 of 0"


def test_one_value_summary():
    assert benchpair.summary([0.1234567]) == {"median": 0.1235, "q1": 0.1235,
                                              "q3": 0.1235, "n": 1}


def test_wins_are_strict(monkeypatch):
    canned(monkeypatch, {"parent": [result(1.0), result(1.0), result(1.0)],
                         "change": [result(0.9), result(1.0), result(1.1)]})
    assert benchpair.pairs(TREES, "series", 0, 3)["change_wins_ref_wall_s"] == "1 of 3"


@pytest.mark.parametrize("returncode, stdout, stderr, want", [
    (1, "", "Traceback\nperfbench: round too short for the speed probe\n", REFUSED),
    (0, 'workload series\n  samples {"wall_s": [0.31, 0.2999]}\n{"correct": true}\n', "",
     {"correct": True, "fastest_round_wall_s": 0.2999}),
], ids=["refused", "ran"])
def test_perfbench_reads_the_run(monkeypatch, returncode, stdout, stderr, want):
    argvs = []

    def fake_run(argv, **kwargs):
        argvs.append(argv[1:])
        return subprocess.CompletedProcess(argv, returncode, stdout, stderr)

    monkeypatch.setattr(benchpair.subprocess, "run", fake_run)
    assert benchpair.perfbench(Path("/tree"), "series", 3) == want
    assert argvs == [["perfbench/run.py", "--workload", "series", "--seed", "3",
                      "--seconds", str(benchpair.SECONDS), "--trace", "0"]]


def test_main_writes_header_layers_and_pairs(monkeypatch, tmp_path):
    canned(monkeypatch, {s: [result(1.0)] for s in benchpair.SIDES})
    monkeypatch.setattr(benchpair, "commit", lambda tree: f"{tree.name}-sha")
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_x.py", "--parent", "/x/parent",
                                      "--change", "/x/change", "--out", str(out)])
    rc = benchpair.main("Write BENCH_x.json.\n", "x", "what", {"layer": "snippet"},
                        (("chain", 0, 1),), lambda trees: {"layers": sorted(trees)})
    doc = json.loads(out.read_text())
    assert rc == 0
    assert list(doc) == ["label", "what", "commands", "host", "parent_commit",
                         "change_commit", "layers", "perfbench"]
    assert list(doc["commands"]) == ["untraced", "layer", "script"]
    assert doc["commands"]["script"] == "python3 tools/bench_x.py --parent PARENT"
    assert (doc["parent_commit"], doc["change_commit"]) == ("parent-sha", "change-sha")
    assert doc["layers"] == ["change", "parent"]
    assert list(doc["perfbench"]) == ["chain_seed0"]
    assert list(doc["perfbench"]["chain_seed0"]) == [
        "refused", "correct", "failed", "attempted", "fastest_round_wall_s", "pairs",
        "ref_wall_s", "ref_cpu_s", "peak_rss_mb", "setup_s", "change_wins_ref_wall_s"]
