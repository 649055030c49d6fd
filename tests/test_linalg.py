from onsk.field import Scalar
from onsk.linalg import (
    Operator,
    commutator,
    echelon_insert,
    first_entry,
    nullspace,
    nullspace_rows,
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
    assert (a + b).to_dense() == mat([[1, 3], [1, 3]]).to_dense()
    assert (a - a).is_zero()
    assert (a @ b).to_dense() == mat([[2, 1], [3, 0]]).to_dense()
    assert a.scale(Scalar(2)) == mat([[2, 4], [0, 6]])
    assert (-a) == mat([[-1, -2], [0, -3]])
    assert a.trace() == Scalar(4)
    assert Operator.identity(2) @ a == a
    c = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    got = c.block([2, 0], [1, 2])
    assert (got.nrows, got.ncols) == (2, 2)
    assert got == mat([[8, 9], [2, 3]])
    assert c.block([1], [0, 2]) == mat([[4, 6]])
    sparse = mat([[0, 1], [0, 0]])
    assert sparse.block([0, 1], [0]).is_zero()
    assert sparse.block([1, 0], [1]).to_dense() == [[Scalar(0)], [ONE]]


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
    [Scalar(1), Scalar(2), Scalar(3)],
    [Scalar(2), Scalar(4), Scalar(6)],
    [Scalar(0), Scalar(1), Scalar(1)],
]


def _pivots(rows):
    pivots = {}
    for row in rows:
        echelon_insert(pivots, {c: v for c, v in enumerate(row) if not v.is_zero()})
    return pivots


def test_echelon_insert_rank():
    pivots = _pivots(ROWS)
    # the second row reduces to zero; rows stay normalised at their pivot
    assert sorted(pivots) == [0, 1]
    assert pivots[0] == {0: ONE, 1: Scalar(2), 2: Scalar(3)}
    assert pivots[1] == {1: ONE, 2: ONE}
    row = {1: Scalar(3), 2: Scalar(6)}
    fresh = {}
    echelon_insert(fresh, row)
    assert fresh == {1: {1: ONE, 2: Scalar(2)}}
    assert row == {1: Scalar(3), 2: Scalar(6)}
    echelon_insert(fresh, {})
    assert len(fresh) == 1
    assert rank_rows(ROWS) == 2
    # pivot columns depend on the span, not on the order of the rows
    assert pivot_columns(ROWS) == [0, 1]
    assert pivot_columns([ROWS[2], ROWS[1]]) == [0, 1]
    assert pivot_columns([[Scalar(0), Scalar(0), Scalar(4)], [Scalar(0)] * 3]) == [2]
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[0, 0, 5], [0, 3, 1], [0, 6, 2]])) == 2
    assert rank(Operator.identity(4)) == 4
    assert rank(Operator(3)) == 0


def test_nullspace():
    rows = [[Scalar(1), Scalar(2), Scalar(3)], [Scalar(0), Scalar(1), Scalar(1)]]
    basis = nullspace_rows(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        s = Scalar(0)
        for a, b in zip(row, v):
            s = s + a * b
        assert s.is_zero()
    assert nullspace_rows([[Scalar(1), Scalar(0)], [Scalar(0), Scalar(1)]], 2) == []
    # back-substitution: 1 at the free column, solved upwards from there
    assert nullspace(_pivots(ROWS), 3) == [{2: ONE, 1: -ONE, 0: -ONE}]
    assert nullspace_rows(ROWS, 3) == [[-ONE, -ONE, ONE]]
    assert nullspace({}, 2) == [{0: ONE}, {1: ONE}]


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
