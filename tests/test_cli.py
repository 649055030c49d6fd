import json
from collections import Counter
from pathlib import Path

import pytest

from onsk.cli import _second_point, build_parser, main, resolve
from onsk.field import format_scalar, make_params, parse_scalar, sample_params
from onsk.kmatrix import build_kkk, build_ktr
from onsk.linalg import Operator
from onsk.onsager import CoidealSpec, hamiltonian
from onsk.report import Report
from onsk.spectra import eval_lambda_k11, eval_lambda_k21
from onsk.spinrep import Family


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_all_bounded_family(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "all", "--family", "D2",
                       "--n", "2", "--k", "1", "--kp", "1", "--seed", "7")
    assert rc == 0
    assert err == ""
    assert "checks passed" in out
    assert "fail" not in out.splitlines()[-1]


def test_verify_spectra_defaults_to_csv(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "spectra", "--family", "A",
                     "--n", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,family,l,j,value,observed,expected,status"
    # middle sector multiplicities 1, 3 and 2 across j = 0, 1, 2
    middle = {}
    for line in lines[1:]:
        n, fam, l, j, value, obs, exp, status = line.split(",")
        assert status == "pass"
        if fam == "tr" and l == "2":
            middle[int(j)] = int(exp)
    assert middle == {0: 1, 1: 3, 2: 2}


def test_verify_sp4_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "sp4", "--trunc", "10")
    assert rc == 0
    assert "annihilates Xi(1,1)" in out
    assert "annihilates Xi(2,2)" in out


def test_verify_json_schema(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "kmatrix", "--family", "B1",
                     "--n", "3", "--format", "json", "--seed", "2")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == ["suite", "family", "n", "params", "checks",
                         "elapsed_ms"]
    assert doc["family"] == "B1"
    assert set(doc["params"]) == {"t", "z", "eps", "mu"}
    assert doc["checks"]
    for check in doc["checks"]:
        assert set(check) == {"name", "status", "detail"}
        assert check["status"] == "pass"


def test_verify_csv_check_table(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "defining-relations",
                     "--family", "D2", "--n", "2", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,status,detail"
    assert all(",pass," in line or line.endswith(",pass") or ",pass," in line
               for line in lines[1:])


def test_seed_determinism_and_env_override(capsys, monkeypatch):
    args = ("verify", "--suite", "defining-relations", "--family", "D2",
            "--n", "2")
    _, first, _ = run(capsys, *args, "--seed", "3")
    _, second, _ = run(capsys, *args, "--seed", "3")
    assert first == second
    monkeypatch.setenv("ONSK_SEED", "3")
    _, via_env, _ = run(capsys, *args, "--seed", "7")
    assert via_env == first
    monkeypatch.delenv("ONSK_SEED")
    _, plain7, _ = run(capsys, *args, "--seed", "7")
    assert plain7 != first


def test_json_deterministic_apart_from_timing(capsys):
    args = ("verify", "--suite", "onsager", "--family", "BT1", "--n", "3",
            "--format", "json", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert d1 == d2


def test_dump_kmatrix_matches_library(capsys):
    rc, out, _ = run(capsys, "dump", "kmatrix", "--family", "A", "--n", "3",
                     "--z", "5/7", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["family"] == "A1" and doc["shape"] == [8, 8]
    base = sample_params(0)
    params = make_params(base.t, parse_scalar("5/7"), base.eps, base.mu)
    expected = build_ktr(3, params.z, params).operator
    got = {(r, c): v for r, c, v in doc["entries"]}
    assert got == {(r, c): format_scalar(v) for r, c, v in expected.entries()}
    coords = [(r, c) for r, c, _ in doc["entries"]]
    assert coords == sorted(coords)


def test_dump_kmatrix_boundary_labels_default(capsys):
    rc, out, _ = run(capsys, "dump", "kmatrix", "--family", "B1", "--n", "3",
                     "--seed", "4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["k"], doc["kp"]) == (2, 1)
    params = sample_params(4)
    expected = build_kkk(2, 1, 3, params.z, params).operator
    assert len(doc["entries"]) == sum(1 for _ in expected.entries())


def test_dump_hamiltonian_matches_library(capsys):
    rc, out, _ = run(capsys, "dump", "hamiltonian", "--family", "D1",
                     "--n", "3", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    params = sample_params(0)
    expected = hamiltonian(CoidealSpec(Family("D1", 3), 2, 2), params)
    got = {(r, c): v for r, c, v in doc["entries"]}
    assert got == {(r, c): format_scalar(v) for r, c, v in expected.entries()}


def test_dump_generators(capsys):
    rc, out, _ = run(capsys, "dump", "generators", "--family", "B1", "--n", "3",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    names = [g["name"] for g in doc["generators"]]
    assert names[:4] == ["e0", "f0", "kplus0", "kminus0"]
    assert len(names) == 16
    for g in doc["generators"]:
        assert g["entries"], f"{g['name']} dumped empty"


def test_spectrum_subcommand(capsys):
    rc, out, _ = run(capsys, "spectrum", "--n", "3", "--family", "D1",
                     "--seed", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,family,l,j,value,observed,expected,status"
    fams = {line.split(",")[1] for line in lines[1:]}
    assert fams == {"k12", "k22"}


def test_spectrum_applies_no_matrix_to_its_eigenvectors(capsys, monkeypatch):
    # linalg.kernel's exact check proves each eigenvector, so no
    # certificate applies the matrix to a kernel vector
    calls = []
    apply = Operator.apply

    def counted_apply(op, vec):
        calls.append(None)
        return apply(op, vec)

    monkeypatch.setattr(Operator, "apply", counted_apply)
    rc, out, _ = run(capsys, "spectrum", "--n", "3")
    assert rc == 0 and ",fail" not in out
    assert calls == []


# Reports of the Lagrange-projector certificates that preceded the kernel
# bases, and (n=5) of the exactly eliminated kernel bases that preceded the
# modular ones, saved from the CLI with elapsed_ms removed from the JSON.
GOLDEN = (
    ("spectrum_n4_t37-41_z29-47_seed7.csv",
     ("spectrum", "--n", "4", "--t", "37/41", "--z", "29/47", "--seed", "7")),
    ("spectrum_n4_t37-41_z29-47_seed7.json",
     ("spectrum", "--n", "4", "--t", "37/41", "--z", "29/47", "--seed", "7",
      "--format", "json")),
    ("spectrum_D2_n3_seed0.json",
     ("spectrum", "--family", "D2", "--n", "3", "--format", "json", "--seed", "0")),
    ("spectrum_n3_seed0.json",
     ("spectrum", "--n", "3", "--seed", "0", "--format", "json")),
    ("spectrum_n5_seed0.json",
     ("spectrum", "--n", "5", "--seed", "0", "--format", "json")),
)


@pytest.mark.parametrize("name, argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_spectrum_matches_golden_output(capsys, name, argv):
    assert_golden(capsys, name, argv)


def assert_golden(capsys, name, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    # verify and spectrum documents end with their wall-clock timing; dumps have none
    if name.endswith(".json") and argv[0] != "dump":
        doc = json.loads(out)
        assert isinstance(doc.pop("elapsed_ms"), int)
        out = json.dumps(doc, indent=2) + "\n"
    assert out == (DATA / name).read_text()


# one report per output format that no other golden covers, saved from the
# CLI while spectra still wrote its own CSV and every Report had a title
FORMAT_GOLDEN = (
    ("verify_spectra_D1_n3_seed0.csv",
     ("verify", "--suite", "spectra", "--family", "D1", "--n", "3", "--format", "csv",
      "--seed", "0")),
    ("spectrum_BT1_n3_seed0.txt",
     ("spectrum", "--family", "BT1", "--n", "3", "--format", "text", "--seed", "0")),
) + tuple(
    (f"dump_kmatrix_D2_n3_k2_kp2_seed0.{ext}",
     ("dump", "kmatrix", "--family", "D2", "--n", "3", "--k", "2", "--kp", "2",
      "--format", fmt, "--seed", "0"))
    for fmt, ext in (("json", "json"), ("text", "txt"))) + tuple(
    (f"dump_generators_B1_n3_seed0.{ext}",
     ("dump", "generators", "--family", "B1", "--n", "3", "--format", fmt, "--seed", "0"))
    for fmt, ext in (("text", "txt"), ("json", "json"), ("csv", "csv")))


@pytest.mark.parametrize("name, argv", FORMAT_GOLDEN, ids=[g[0] for g in FORMAT_GOLDEN])
def test_format_matches_golden_output(capsys, name, argv):
    assert_golden(capsys, name, argv)


def test_spectral_csv_lines_are_the_json_rows(capsys):
    # the CSV header is the JSON row keys, and each line holds its row's values
    args = ("spectrum", "--n", "2", "--seed", "3")
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    rows = json.loads(run(capsys, *args, "--format", "json")[1])["rows"]
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(rows[0]) == "n,family,l,j,value,observed,expected,status"
    assert len(lines) == len(rows) + 1
    assert all(line.count(",") == lines[0].count(",") for line in lines)
    assert lines[1:] == [",".join("" if v is None else str(v) for v in row.values())
                         for row in rows]


# kmatrix suite reports and K matrix dumps saved from the CLI while every
# check still built its own matrices, with elapsed_ms removed from the JSON.
KMATRIX_GOLDEN = tuple(
    (f"verify_kmatrix_{fam}_n3_seed0.json",
     ("verify", "--suite", "kmatrix", "--family", fam, "--n", "3",
      "--format", "json", "--seed", "0"))
    for fam in ("A", "D2", "B1", "BT1", "D1")) + tuple(
    (f"dump_kmatrix_{fam}_n3_seed0.csv",
     ("dump", "kmatrix", "--family", fam, "--n", "3", "--format", "csv",
      "--seed", "0"))
    for fam in ("A", "D1"))


@pytest.mark.parametrize("name, argv", KMATRIX_GOLDEN, ids=[g[0] for g in KMATRIX_GOLDEN])
def test_kmatrix_matches_golden_output(capsys, name, argv):
    assert_golden(capsys, name, argv)


# defining-relations and onsager suite reports saved from the CLI while
# serre_residual still expanded each relation into powers of x_i, with
# elapsed_ms removed from the JSON.
RELATIONS_GOLDEN = tuple(
    (f"verify_{short}_{fam}_n3_seed0.json",
     ("verify", "--suite", suite, "--family", fam, "--n", "3", "--format", "json",
      "--seed", "0"))
    for suite, short in (("defining-relations", "defining"), ("onsager", "onsager"))
    for fam in ("A", "D2", "B1", "BT1", "D1"))


@pytest.mark.parametrize("name, argv", RELATIONS_GOLDEN,
                         ids=[g[0] for g in RELATIONS_GOLDEN])
def test_relations_match_golden_output(capsys, name, argv):
    assert_golden(capsys, name, argv)


def test_sp4_matches_golden_output(capsys):
    # saved from the CLI while _pure_sum_zero still echelonised dense rows,
    # with elapsed_ms removed from the JSON
    assert_golden(capsys, "verify_sp4_trunc10_seed0.json",
                  ("verify", "--suite", "sp4", "--trunc", "10", "--format", "json",
                   "--seed", "0"))


# sp4 suite reports saved from the CLI while every printed identity was
# still typed beside the terms it checks
SP4_GOLDEN = (
    ("verify_sp4_trunc14_seed1.txt",
     ("verify", "--suite", "sp4", "--trunc", "14", "--seed", "1")),
    ("verify_sp4_trunc10_t1-2+1-3i_z2-7+1-5i.csv",
     ("verify", "--suite", "sp4", "--trunc", "10", "--t", "1/2+1/3*i",
      "--z", "2/7+1/5*i", "--format", "csv")),
)


@pytest.mark.parametrize("name, argv", SP4_GOLDEN, ids=[g[0] for g in SP4_GOLDEN])
def test_sp4_matches_rendered_golden_output(capsys, name, argv):
    assert_golden(capsys, name, argv)


@pytest.mark.parametrize("argv, want", [
    (("verify", "--suite", "kmatrix", "--family", "A", "--n", "3"),
     {"build_ktr": 3, "build_kkk": 2}),
    (("verify", "--suite", "kmatrix", "--family", "D1", "--n", "3"),
     {"build_kkk": 1}),
    (("spectrum", "--family", "A", "--n", "3"), {"build_ktr": 2}),
], ids=["verify-kmatrix-A", "verify-kmatrix-D1", "spectrum-A"])
def test_each_k_matrix_built_once(capsys, monkeypatch, argv, want):
    # K_tr at z, 1/z and w and K_(1,1) at z and w for family A; one
    # bounded K; K_tr(z) and K_tr(w) for every weight sector
    import onsk.cli as cli
    import onsk.kmatrix as kmatrix
    import onsk.spectra as spectra
    builds = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            builds[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (kmatrix, cli, spectra):
        for name in ("build_ktr", "build_kkk"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    assert builds == want


@pytest.mark.parametrize("suite, products, builds", [
    ("defining-relations", 324, 0),
    ("onsager", 72, 1),
])
def test_relation_suites_count_products(capsys, monkeypatch, suite, products, builds):
    # D2 at n=5: computing each commuting pair's residual for (i, j) and
    # again for (j, i) made 384 and 102 products; forming x_i x_j and
    # x_j x_i again for the (j, i) row of a cubic or quartic pair made 344
    # and 82
    import onsk.cli as cli
    import onsk.onsager as onsager
    calls = Counter()
    matmul = Operator.__matmul__
    build = onsager.onsager_generators

    def counted_matmul(a, b):
        calls["matmul"] += 1
        return matmul(a, b)

    def counted_build(spec, params):
        calls["onsager_generators"] += 1
        return build(spec, params)

    monkeypatch.setattr(Operator, "__matmul__", counted_matmul)
    for module in (cli, onsager):
        monkeypatch.setattr(module, "onsager_generators", counted_build)
    rc, _, _ = run(capsys, "verify", "--suite", suite, "--family", "D2", "--n", "5")
    assert rc == 0
    assert calls["matmul"] == products < {"defining-relations": 384, "onsager": 102}[suite]
    assert calls["onsager_generators"] == builds


@pytest.mark.parametrize("family, products", [
    ("A", 33), ("D2", 32), ("B1", 32), ("BT1", 32), ("D1", 32),
])
def test_kmatrix_suite_counts_products(capsys, monkeypatch, family, products):
    # at n=5 no product forms a gauge or the spin flip: the diagonal gauge
    # products and the flip product made 35 for the bounded families and
    # 34 for A
    calls = []
    matmul = Operator.__matmul__

    def counted_matmul(a, b):
        calls.append(None)
        return matmul(a, b)

    monkeypatch.setattr(Operator, "__matmul__", counted_matmul)
    rc, _, _ = run(capsys, "verify", "--suite", "kmatrix", "--family", family, "--n", "5")
    assert rc == 0
    assert len(calls) == products


def test_spectral_rows_at_reported_point(capsys):
    # every certificate row is the closed form at the point the report names
    rc, out, _ = run(capsys, "spectrum", "--family", "D2", "--n", "3",
                     "--format", "json", "--seed", "0")
    assert rc == 0
    doc = json.loads(out)
    p = doc["params"]
    params = make_params(parse_scalar(p["t"]), parse_scalar(p["z"]),
                         p["eps"], p["mu"])
    w = parse_scalar(doc["w"])
    assert w != params.z
    fams = set()
    for row in doc["rows"]:
        fams.add(row["family"])
        if row["family"] == "k11":
            want = eval_lambda_k11(3, row["l"], params.z, params)
        else:
            want = eval_lambda_k21(3, row["l"], w, params)
        assert row["value"] == format_scalar(want), row
    assert fams == {"k11", "k21"}
    # verify's JSON names the same second point
    rc, out, _ = run(capsys, "verify", "--suite", "spectra", "--family", "D2",
                     "--n", "3", "--format", "json", "--seed", "0")
    assert rc == 0
    assert json.loads(out)["w"] == doc["w"]


def test_degenerate_spectral_point_exits_2(capsys, monkeypatch):
    # at z = 1 every K_(1,1) eigenvalue is 1: a configuration error, found
    # before any K matrix is built
    import onsk.spectra as spectra
    builds = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            builds.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectra, "build_kkk", counted(spectra.build_kkk))
    monkeypatch.setattr(spectra, "build_ktr", counted(spectra.build_ktr))
    for argv in (("spectrum",), ("verify", "--suite", "spectra")):
        rc, out, err = run(capsys, *argv, "--family", "D2", "--n", "3",
                           "--z", "1")
        assert rc == 2
        assert out == ""
        assert f"z={format_scalar(parse_scalar('1'))}" in err
    assert builds == []


def test_second_point_skips_z_and_its_inverse():
    cfg = resolve(build_parser().parse_args(["spectrum", "--n", "3", "--seed", "0"]))
    base = sample_params(0)
    z1, z2 = sample_params(1).z, sample_params(2).z
    assert z2 not in (z1, z1.inverse())
    assert _second_point(cfg, base.with_z(z1 + 1)) == z1
    assert _second_point(cfg, base.with_z(z1)) == z2
    assert _second_point(cfg, base.with_z(z1.inverse())) == z2


def test_config_errors_exit_2(capsys):
    assert run(capsys, "verify", "--suite", "onsager")[0] == 2
    assert run(capsys, "verify", "--suite", "kmatrix", "--family", "Q",
               "--n", "3")[0] == 2
    assert run(capsys, "verify", "--suite", "onsager", "--family", "A",
               "--n", "3", "--k", "1")[0] == 2
    assert run(capsys, "verify", "--suite", "sp4", "--trunc", "8")[0] == 2
    assert run(capsys, "verify", "--suite", "onsager", "--family", "D2",
               "--n", "2", "--t", "1/1")[0] == 2
    assert run(capsys, "verify", "--suite", "onsager", "--family", "D2",
               "--n", "2", "--k", "3", "--kp", "1")[0] == 2
    rc, _, err = run(capsys, "verify", "--suite", "onsager", "--family", "D2",
                     "--n", "1")
    assert rc == 2 and "error:" in err
    # no spectral certificate without sites; the message names n, not a wedge slot
    for argv in (("spectrum", "--n", "0"), ("verify", "--suite", "spectra", "--n", "0")):
        assert run(capsys, *argv) == (2, "", "error: need n >= 1, got 0\n")


@pytest.mark.parametrize("argv, flag", [
    (("--suite", "sp4", "--family", "D2", "--n", "-5", "--k", "2"), "--family"),
    (("--suite", "sp4", "--n", "-5"), "--n"),
    (("--suite", "defining-relations", "--family", "A", "--n", "3", "--k", "1",
      "--trunc", "3"), "--k"),
    (("--suite", "defining-relations", "--family", "D2", "--n", "2", "--kp", "1"), "--kp"),
    (("--suite", "defining-relations", "--family", "D2", "--n", "2", "--trunc", "12"),
     "--trunc"),
    (("--suite", "kmatrix", "--family", "D2", "--n", "2", "--trunc", "10"), "--trunc"),
    (("--suite", "spectra", "--n", "2", "--k", "1"), "--k"),
])
def test_verify_refuses_flags_no_suite_reads(capsys, argv, flag):
    rc, out, err = run(capsys, "verify", *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} is not read by the {argv[1]} suite\n"


def test_verify_all_keeps_every_flag(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "all", "--family", "D2", "--n", "2",
                       "--k", "1", "--kp", "1", "--trunc", "10")
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "verify all family=D2 n=2 seed=0"


def test_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ONSK_SEED", "abc")
    rc, _, err = run(capsys, "verify", "--suite", "sp4")
    assert rc == 2
    assert "ONSK_SEED" in err


def test_bad_dump_target_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump", "badtarget", "--family", "A", "--n", "3"])
    assert exc.value.code == 2


def test_bad_literal_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump", "kmatrix", "--family", "A", "--n", "3", "--z", "bogus"])
    assert exc.value.code == 2


def test_failing_check_exits_1_and_names_it(capsys, monkeypatch):
    import onsk.cli as cli

    def broken(kz, kinv):
        rep = Report()
        rep.add("K(z) K(1/z) = id", False, "forced failure")
        return rep

    monkeypatch.setattr(cli, "check_unitarity", broken)
    rc, out, err = run(capsys, "verify", "--suite", "kmatrix", "--family", "A",
                       "--n", "3")
    assert rc == 1
    assert "FAIL: K(z) K(1/z) = id" in err
    assert "fail" in out


def test_kmatrix_suite_refuses_a_pair_without_recipe_before_any_work(capsys, monkeypatch):
    import onsk.cli as cli
    import onsk.kmatrix as kmatrix

    def built(*args):
        raise AssertionError("a K matrix or generator set was built")

    for mod, name in ((cli, "kmatrix_for"), (cli, "build_ktr"), (cli, "build_kkk"),
                      (kmatrix, "onsager_generators")):
        monkeypatch.setattr(mod, name, built)
    rc, out, err = run(capsys, "verify", "--suite", "kmatrix", "--family", "D2",
                       "--n", "3", "--k", "2", "--kp", "2")
    assert (rc, out) == (2, "")
    assert err == "error: fixed recipe needs (k, kp) = (1, 1), got (2, 2)\n"


def test_all_suites_refuse_a_pair_without_recipe_before_any_suite(capsys, monkeypatch):
    import onsk.cli as cli

    def ran(*args):
        raise AssertionError("a suite ran")

    for name in ("_suite_defining", "_suite_onsager", "_suite_kmatrix"):
        monkeypatch.setattr(cli, name, ran)
    rc, out, err = run(capsys, "verify", "--suite", "all", "--family", "D2",
                       "--n", "3", "--k", "2", "--kp", "2")
    assert (rc, out) == (2, "")
    assert err == "error: fixed recipe needs (k, kp) = (1, 1), got (2, 2)\n"


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.txt"
    rc, out, _ = run(capsys, "verify", "--suite", "defining-relations",
                     "--family", "D2", "--n", "2", "--output", str(path))
    assert rc == 0
    assert out == ""
    assert "checks passed" in path.read_text()


def test_resolve_canonicalizes_family():
    parser = build_parser()
    for given, tag in (("a", "A1"), ("a1", "A1"), ("bt1", "BT1"), ("D2", "D2")):
        cfg = resolve(parser.parse_args(
            ["verify", "--suite", "onsager", "--family", given, "--n", "4"]))
        assert cfg.family == tag
    assert cfg.format == "text"
    cfg = resolve(parser.parse_args(
        ["verify", "--suite", "spectra", "--family", "A", "--n", "4"]))
    assert cfg.format == "csv"
    with pytest.raises(SystemExit):     # there is no --jobs flag
        parser.parse_args(["verify", "--suite", "all", "--jobs", "1"])


def test_unknown_family_exits_2(capsys):
    for given in ("Q", "A2", "bt"):
        rc, out, err = run(capsys, "verify", "--suite", "onsager", "--family", given,
                           "--n", "3")
        assert (rc, out) == (2, "")
        assert err == (f"error: unknown family {given!r}; "
                       "choose from A, D2, B1, BT1, D1\n")
