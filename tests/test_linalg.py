import ast
import random
from pathlib import Path

import pytest

from onsk.field import Scalar
from onsk.linalg import (
    Operator,
    _echelon_insert,
    _nullspace,
    commutator,
    first_entry,
    inverse,
    kernel,
    pivot_columns,
    rank,
    rank_rows,
)
from onsk.report import Report

ONE = Scalar(1)
I = Scalar(0, 1, 1)


def mat(rows):
    out = Operator(len(rows), len(rows[0]))
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                out.set(r, c, Scalar(v) if not isinstance(v, Scalar) else v)
    return out


def test_basic_ops():
    a = mat([[1, 2], [0, 3]])
    b = mat([[0, 1], [1, 0]])
    assert (a + b) == mat([[1, 3], [1, 3]])
    assert (a - a).is_zero()
    assert (a @ b) == mat([[2, 1], [3, 0]])
    assert a.scale(Scalar(2)) == mat([[2, 4], [0, 6]])
    assert (-a) == mat([[-1, -2], [0, -3]])
    assert Operator.identity(2) @ a == a
    c = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    got = c.block([2, 0], [1, 2])
    assert (got.nrows, got.ncols) == (2, 2)
    assert got == mat([[8, 9], [2, 3]])
    assert c.block([1], [0, 2]) == mat([[4, 6]])
    sparse = mat([[0, 1], [0, 0]])
    assert sparse.block([0, 1], [0]).is_zero()
    got = sparse.block([1, 0], [1])
    assert (got.nrows, got.ncols) == (2, 1)
    assert got.rows == {1: {0: ONE}}


def test_from_rows():
    got = Operator.from_rows([{1: ONE}, {}, {0: Scalar(2), 2: I}], 3)
    assert (got.nrows, got.ncols) == (3, 3)
    assert got == mat([[0, 1, 0], [0, 0, 0], [2, 0, I]])
    rows = [{0: ONE}]
    Operator.from_rows(rows, 1).set(0, 0, Scalar(5))
    assert rows == [{0: ONE}]


def test_set_prunes_zeros():
    a = Operator(2)
    a.set(0, 0, ONE)
    a.set(0, 0, Scalar(0))
    assert a.is_zero()
    a.add_to(1, 1, ONE)
    a.add_to(1, 1, -ONE)
    assert a.is_zero()


def test_apply():
    a = mat([[1, 2], [3, 4]])
    out = a.apply({0: ONE, 1: Scalar(10)})
    assert out == {0: Scalar(21), 1: Scalar(43)}
    assert mat([[1, -1], [0, 0]]).apply({0: ONE, 1: ONE}) == {}


def test_transpose_dagger():
    a = Operator(2)
    a.set(0, 1, I)
    assert a.transpose().get(1, 0) == I
    assert a.dagger().get(1, 0) == -I


def test_commutator():
    sx = mat([[0, 1], [1, 0]])
    sz = mat([[-1, 0], [0, 1]])
    got = commutator(sz, sx)
    assert got == mat([[0, -2], [2, 0]])
    assert commutator(sx, sx).is_zero()


ROWS = [
    {0: Scalar(1), 1: Scalar(2), 2: Scalar(3)},
    {0: Scalar(2), 1: Scalar(4), 2: Scalar(6)},
    {1: Scalar(1), 2: Scalar(1)},
]


def _pivots(rows):
    pivots = {}
    for row in rows:
        _echelon_insert(pivots, row)
    return pivots


def test_echelon_insert_rank():
    pivots = _pivots(ROWS)
    # the second row reduces to zero; rows stay normalised at their pivot
    assert sorted(pivots) == [0, 1]
    assert pivots[0] == {0: ONE, 1: Scalar(2), 2: Scalar(3)}
    assert pivots[1] == {1: ONE, 2: ONE}
    row = {1: Scalar(3), 2: Scalar(6)}
    fresh = {}
    _echelon_insert(fresh, row)
    assert fresh == {1: {1: ONE, 2: Scalar(2)}}
    assert row == {1: Scalar(3), 2: Scalar(6)}
    _echelon_insert(fresh, {})
    assert len(fresh) == 1
    assert rank_rows(ROWS) == 2
    # pivot columns depend on the span, not on the order of the rows
    assert pivot_columns(ROWS) == [0, 1]
    assert pivot_columns([ROWS[2], ROWS[1]]) == [0, 1]
    assert pivot_columns([{2: Scalar(4)}, {}]) == [2]
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[0, 0, 5], [0, 3, 1], [0, 6, 2]])) == 2
    assert rank(Operator.identity(4)) == 4
    assert rank(Operator(3)) == 0


def test_nullspace():
    rows = [ROWS[0], ROWS[2]]
    basis = kernel(rows, 3)
    assert len(basis) == 1
    assert all(_dot(row, basis[0]).is_zero() for row in rows)
    assert kernel([{0: ONE}, {1: ONE}], 2) == []
    # back-substitution: 1 at the free column, solved upwards from there
    assert _nullspace(_pivots(ROWS), 3) == [{2: ONE, 1: -ONE, 0: -ONE}]
    assert kernel(ROWS, 3) == [{0: -ONE, 1: -ONE, 2: ONE}]
    assert _nullspace({}, 2) == [{0: ONE}, {1: ONE}]
    assert kernel([], 2) == [{0: ONE}, {1: ONE}]


def test_inverse():
    a = mat([[1, 2], [3, 4]])
    inv = inverse(a)
    assert inv == mat([[-2, 1], [Scalar(3, 0, 2), Scalar(-1, 0, 2)]])
    assert inv @ a == Operator.identity(2)
    assert inverse(mat([[0, I], [1, 0]])) == mat([[0, 1], [-I, 0]])
    assert inverse(mat([[1, 2], [2, 4]])) is None
    assert inverse(Operator(2)) is None
    assert inverse(Operator(0)) == Operator(0)
    with pytest.raises(ValueError):
        inverse(mat([[1, 2]]))


# ---------------------------------------------------------------------------
# properties on seeded random sparse Gaussian-rational rows


def _gauss(rng):
    return Scalar(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 5))


def _row(rng, ncols, density=0.5):
    row = {}
    for c in range(ncols):
        if rng.random() < density:
            x = _gauss(rng)
            if not x.is_zero():
                row[c] = x
    return row


def _combination(rng, rows):
    """A random combination of the given rows, zeros dropped."""
    out = {}
    for row in rows:
        f = _gauss(rng)
        for c, x in row.items():
            out[c] = out.get(c, Scalar(0)) + f * x
    return {c: x for c, x in out.items() if not x.is_zero()}


def _random_rows(rng):
    ncols = rng.randint(1, 7)
    rows = [_row(rng, ncols) for _ in range(rng.randint(0, 6))]
    # dependent rows make the rank deficient
    for _ in range(rng.randint(0, 2)):
        if rows:
            rows.append(_combination(rng, rng.sample(rows, min(2, len(rows)))))
    rng.shuffle(rows)
    return rows, ncols


def _dot(row, v):
    s = Scalar(0)
    for c, x in row.items():
        s = s + x * v.get(c, Scalar(0))
    return s


def test_kernel_rank_and_pivots_properties():
    for seed in range(40):
        rng = random.Random(seed)
        rows, ncols = _random_rows(rng)
        basis = kernel(rows, ncols)
        for v in basis:
            assert v and all(not x.is_zero() for x in v.values())
            for row in rows:
                assert _dot(row, v).is_zero(), seed
        assert rank_rows(basis) == len(basis)
        assert rank_rows(rows) + len(basis) == ncols, seed
        pivots = pivot_columns(rows)
        assert len(pivots) == rank_rows(rows)
        # canonical: row order and repeated rows change nothing
        again = rows + rows[: rng.randint(0, len(rows))]
        rng.shuffle(again)
        assert kernel(again, ncols) == basis, seed
        assert pivot_columns(again) == pivots, seed


def test_inverse_properties():
    for seed in range(20):
        rng = random.Random(100 + seed)
        k = rng.randint(1, 5)
        op = Operator.from_rows([_row(rng, k, 0.7) for _ in range(k)], k)
        inv = inverse(op)
        if rank(op) == k:
            assert inv @ op == Operator.identity(k), seed
            assert op @ inv == Operator.identity(k), seed
        else:
            assert inv is None, seed
        # a row replaced by a combination of the others: rank deficient
        rows = [op.rows.get(i, {}) for i in range(k)]
        i = rng.randrange(k)
        rows[i] = _combination(rng, rows[:i] + rows[i + 1:])
        assert inverse(Operator.from_rows(rows, k)) is None, seed


def test_first_entry():
    a = Operator(3)
    assert first_entry(a) is None
    a.set(2, 0, Scalar(5))
    a.set(1, 2, Scalar(7))
    assert first_entry(a) == (1, 2, Scalar(7))
    a.set(1, 1, Scalar(9))
    assert first_entry(a) == (1, 1, Scalar(9))


def test_report_add_zero_names_first_residual():
    rep = Report("witness")
    assert rep.add_zero("vanishes", Operator(3))
    a = Operator(3)
    a.set(2, 0, Scalar(5))
    a.set(1, 2, Scalar(7))
    a.set(1, 1, Scalar(9))
    assert not rep.add_zero("residual", a)
    ok, bad = rep.checks
    assert ok.ok and ok.detail == ""
    assert bad.status == "fail"
    assert bad.detail == f"residual at (1,1): {Scalar(9)}"
    assert rep.failures() == [bad]


# ---------------------------------------------------------------------------
# only linalg knows the echelon form

SRC = Path(__file__).resolve().parent.parent / "src" / "onsk"
HIDDEN = {"echelon_insert", "nullspace"}


def _hidden(name):
    return name.startswith("_") or name in HIDDEN


def linalg_leaks(src):
    """(module, name) for each import of a private or echelon-level linalg
    name, or attribute read of one through the module, outside linalg.py."""
    leaks = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module == "linalg")
                    or (node.level == 0 and node.module == "onsk.linalg")):
                leaks += [(path.stem, a.name) for a in node.names if _hidden(a.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "linalg" and _hidden(node.attr)):
                leaks.append((path.stem, node.attr))
    return leaks


def test_only_linalg_knows_the_echelon(tmp_path):
    assert {"kmatrix", "spectra", "sp4"} <= {p.stem for p in SRC.glob("*.py")}
    assert linalg_leaks(SRC) == []
    # the guard sees each way in
    (tmp_path / "a.py").write_text("from .linalg import kernel, echelon_insert\n")
    (tmp_path / "b.py").write_text("from onsk.linalg import _reduce as r\n")
    (tmp_path / "c.py").write_text("from . import linalg\nx = linalg.nullspace\n")
    (tmp_path / "linalg.py").write_text("from .linalg import _reduce\n")
    assert linalg_leaks(tmp_path) == [("a", "echelon_insert"), ("b", "_reduce"),
                                      ("c", "nullspace")]
