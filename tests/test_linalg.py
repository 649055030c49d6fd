import ast
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from onsk import linalg
from onsk.field import Scalar, make_params
from onsk.kmatrix import KMatrix, build_kkk, build_ktr, check_commutativity
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


# ---------------------------------------------------------------------------
# products over integer numerators against the Scalar-by-Scalar reference


def _reference_matmul(a, b):
    """Rows of a @ b summed Scalar by Scalar, one mul and one add per term."""
    out = {}
    for r, cols in a.rows.items():
        acc = {}
        for k, v in cols.items():
            for c, w in b.rows.get(k, {}).items():
                acc[c] = acc[c] + v * w if c in acc else v * w
        acc = {c: x for c, x in acc.items() if not x.is_zero()}
        if acc:
            out[r] = acc
    return out


def _triples(rows):
    return {r: {c: (x.a, x.b, x.d) for c, x in row.items()} for r, row in rows.items()}


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _complex(rng):
    """A nonzero Gaussian rational over a product of up to three random primes."""
    while True:
        d = 1
        for p in rng.sample(PRIMES, rng.randint(0, 3)):
            d *= p ** rng.randint(1, 2)
        x = Scalar(rng.randint(-50, 50), rng.randint(-50, 50), d)
        if not x.is_zero():
            return x


def _sparse(rng, nrows, ncols, empty_rows, empty_cols):
    rows = []
    for r in range(nrows):
        row = {}
        if r not in empty_rows:
            for c in range(ncols):
                if c not in empty_cols and rng.random() < 0.6:
                    row[c] = _complex(rng)
        rows.append(row)
    return Operator.from_rows(rows, ncols)


def _cancelling_pair(rng):
    """(a, b) with planted exact cancellations in a @ b.

    Row 1 of b is x times row 0, so a row of a that weighs them y and
    -y/x cancels their contributions: a's row 0 sums to zero outright, and
    a's row 1 keeps only the columns of b's row 2.  Row m-1 and column
    l-1 of a, row l-2 and column p-1 of b are empty.
    """
    m, l, p = rng.randint(4, 8), rng.randint(5, 8), rng.randint(4, 8)
    a = _sparse(rng, m, l, {m - 1}, {l - 1})
    b = _sparse(rng, l, p, {l - 2}, {p - 1})
    x, y = _complex(rng), _complex(rng)
    b.rows[0] = {c: _complex(rng) for c in range(p - 1)}
    b.rows[1] = {c: x * v for c, v in b.rows[0].items()}
    b.rows[2] = {c: _complex(rng) for c in range(0, p - 1, 2)}
    a.rows[0] = {0: y, 1: -y / x}
    a.rows[1] = {0: y, 1: -y / x, 2: _complex(rng)}
    return a, b


def _assert_canonical(rows):
    for row in rows.values():
        assert row
        for x in row.values():
            assert not x.is_zero()
            assert x.d > 0 and gcd(x.a, x.b, x.d) == 1


@pytest.mark.parametrize("seed", range(12))
def test_matmul_matches_scalar_reference(seed):
    rng = random.Random(f"matmul:{seed}")
    a, b = _cancelling_pair(rng)
    got = a @ b
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    want = _reference_matmul(a, b)
    assert _triples(got.rows) == _triples(want)
    assert list(got.rows) == list(want)
    assert all(list(got.rows[r]) == list(want[r]) for r in want)
    _assert_canonical(got.rows)
    # the planted cancellations happened and left nothing stored
    assert 0 not in got.rows
    assert set(got.rows[1]) == set(b.rows[2])
    assert a.nrows - 1 not in got.rows
    assert all(b.ncols - 1 not in row for row in got.rows.values())


@pytest.mark.parametrize("seed", range(12))
def test_apply_matches_scalar_reference(seed):
    rng = random.Random(f"apply:{seed}")
    a, b = _cancelling_pair(rng)
    # every column of b, as a vector and as a one-column operand
    for col in range(b.ncols):
        vec = {k: row[col] for k, row in b.rows.items() if col in row}
        column = Operator.from_rows([{0: vec[k]} if k in vec else {}
                                     for k in range(b.nrows)], 1)
        got = {r: {0: x} for r, x in a.apply(vec).items()}
        want = _reference_matmul(a, column)
        assert _triples(got) == _triples(want)
        assert list(got) == list(want)
        _assert_canonical(got)
        # row 0 of a weighs entries 0 and 1 of the vector so that they cancel
        assert 0 not in got
    assert a.apply({}) == {}


def test_product_shape_mismatch_raises():
    with pytest.raises(ValueError):
        Operator(2, 3) @ Operator(2, 2)
    with pytest.raises(ValueError):
        mat([[1, 2]]) @ mat([[1, 2]])
    # sums and differences refuse a shape mismatch the same way
    with pytest.raises(ValueError, match="shape mismatch"):
        Operator(2) + Operator.identity(3)
    with pytest.raises(ValueError, match="shape mismatch"):
        Operator(2) - Operator.identity(3)


def test_bumped_boundary_k_fails_commutativity():
    # the dense K_(1,1)(z) K_(1,1)(w) products must see one entry moved by 1/97
    params = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7))
    z, w, n = params.z, Scalar(5, 0, 11), 3
    inputs = (build_ktr(n, z, params), build_ktr(n, w, params),
              build_kkk(1, 1, n, z, params), build_kkk(1, 1, n, w, params))
    assert check_commutativity(*inputs).passed
    bw = inputs[3]
    r, c = max((r, c) for r, c, _ in bw.operator.entries())
    op = bw.operator.copy()
    op.add_to(r, c, Scalar(1, 0, 97))
    failed = check_commutativity(*inputs[:3], KMatrix(op, bw.kind, bw.z, n))
    assert [x.name for x in failed.failures()] == ["boundary kind commutes"]


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


def _real(rows):
    return [{c: Scalar(x.a, 0, x.d) for c, x in row.items() if x.a} for row in rows]


def test_kernel_rank_and_pivots_properties():
    for seed in range(40):
        rng = random.Random(seed)
        rows, ncols = _random_rows(rng)
        basis = kernel(rows, ncols)
        # the modular kernel equals the exact echelon's, on Gaussian rows
        # (two images per prime) and on their real parts (one)
        assert basis == _nullspace(_pivots(rows), ncols), seed
        real = _real(rows)
        assert kernel(real, ncols) == _nullspace(_pivots(real), ncols), seed
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
        assert kernel(iter(again), ncols) == basis, seed
        assert pivot_columns(again) == pivots, seed


def _spy(monkeypatch, name):
    """Record the arguments of each call of linalg.<name>."""
    calls = []
    real = getattr(linalg, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, spy)
    return calls


def _with_primes(monkeypatch, primes):
    monkeypatch.setattr(linalg, "_primes", lambda: iter(primes))


def test_primes():
    first = [linalg._prime(k) for k in range(4)]
    for p, r in first:
        assert p % 4 == 1 and p.bit_length() == 62
        assert r * r % p == p - 1
        assert all(p % a for a in range(3, 2000, 2))
    assert [p for p, _ in first] == sorted({p for p, _ in first}, reverse=True)
    # nothing between the first two is a prime = 1 (mod 4)
    assert not any(linalg._is_prime(x) for x in range(first[1][0] + 4, first[0][0], 4))
    small = [n for n in range(200) if linalg._is_prime(n)]
    assert small == [n for n in range(2, 200) if all(n % d for d in range(2, n))]
    # Carmichael numbers and a strong pseudoprime to base 2
    assert not any(linalg._is_prime(n) for n in (561, 41041, 825265, 2047))


def test_no_prime_is_found_at_import():
    code = ("import onsk.cli, onsk.linalg as l; "
            "assert l._prime.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True, cwd=SRC.parent)


def test_kernel_uses_a_prime_that_divides_a_denominator(monkeypatch):
    # the rows are scaled to integers before any reduction mod p, so a
    # prime dividing a denominator images them like any other
    p1, _ = linalg._prime(0)
    rows = [{0: Scalar(1, 0, p1), 1: Scalar(2)}, {0: Scalar(3), 1: Scalar(1, 1, 5), 2: ONE}]
    want = _nullspace(_pivots(rows), 3)
    images = _spy(monkeypatch, "_image")
    fallback = _spy(monkeypatch, "_nullspace")
    assert kernel(rows, 3) == want
    assert images[0][1] == p1 and not fallback


@pytest.mark.parametrize("rows, ncols, exact", [
    # minor 6 + p - 6 = 0 mod p: the free column moves from 2 to 1, and
    # every later prime, whose free column is 2, is skipped
    (lambda p, r: [{0: Scalar(1), 1: Scalar(2), 2: Scalar(5)},
                   {0: Scalar(3), 1: Scalar(6 + p), 2: Scalar(7)}], 3, True),
    # the second row vanishes mod p after the first: it is not kept, and
    # later primes rebuild the kernel of the first row alone, which fails
    # the check against the second
    (lambda p, r: [{0: Scalar(1), 1: Scalar(1)}, {0: Scalar(1), 1: Scalar(1 + p)}], 2, True),
    # r + i maps to 2r under i -> r and to 0 under i -> -r: the images'
    # pivots differ, so the prime is skipped and the next one is first
    (lambda p, r: [{0: Scalar(r, 1)}, {0: Scalar(2), 1: ONE}], 2, False),
])
def test_kernel_from_a_prime_that_drops_the_rank(monkeypatch, rows, ncols, exact):
    bad = linalg._prime(0)
    rows = rows(*bad)
    assert rank_rows(rows) == min(len(rows), ncols)
    want = _nullspace(_pivots(rows), ncols)
    _with_primes(monkeypatch, [bad] + [linalg._prime(k) for k in range(1, 8)])
    images = _spy(monkeypatch, "_image")
    fallback = _spy(monkeypatch, "_nullspace")
    assert kernel(rows, ncols) == want
    assert images[0][1] == bad[0] and len(fallback) == exact


def test_checked_basis_refuses_a_kernel_basis_that_is_not_canonical():
    # (1, 1) spans the kernel of x0 = x1, but its last nonzero column is 1:
    # normalised at column 0 it passes every row and still is refused
    rows = [{0: ONE, 1: -ONE}]
    assert linalg._checked_basis(rows, [(1, 1)], [1], [0], False) is None
    assert linalg._checked_basis(rows, [(1, 1)], [0], [1], False) == [{1: ONE, 0: ONE}]
    # a vector some row does not annihilate is refused
    assert linalg._checked_basis(rows, [(2, 1)], [0], [1], False) is None


def test_kernel_falls_back_when_the_primes_run_out(monkeypatch):
    rows = [{0: Scalar(1, 2, 3), 1: Scalar(1, 0, 7)}, {1: Scalar(2, 0, 5), 2: Scalar(4)}]
    want = _nullspace(_pivots(rows), 3)
    fallback = _spy(monkeypatch, "_nullspace")
    _with_primes(monkeypatch, [])
    assert kernel(rows, 3) == want
    assert len(fallback) == 1
    # one 62-bit prime cannot rebuild a fraction of two 133-bit integers
    fallback.clear()
    _with_primes(monkeypatch, [linalg._prime(0)])
    assert kernel([{0: Scalar(10 ** 40 + 1, 0, 10 ** 40 + 3), 1: ONE}], 2) == \
        [{0: Scalar(-(10 ** 40 + 3), 0, 10 ** 40 + 1), 1: ONE}]
    assert len(fallback) == 1


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
    rep = Report()
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
