"""Sparse exact linear algebra over the Gaussian rationals.

Operators are dict-of-dicts over Scalar entries, and a row is a sparse
{col: Scalar} dict with no stored zeros.  A product (`@`, `apply`) writes
each row of the right operand once as integer numerators over the lcm of
its denominators, sums each output row in plain integers over one common
denominator, and reduces each output entry once, at the end; an entry
that cancels to zero is not stored.  One private sparse echelon
serves every elimination: callers pass rows and get a kernel, a rank,
pivot columns or an inverse, never the echelon form itself.  It divides
exactly, so ranks and kernels carry no thresholds.
"""

from __future__ import annotations

from math import lcm

from .field import ONE, ZERO, Scalar, _reduced


class Operator:
    """Sparse matrix with Scalar entries, shape (nrows, ncols)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int | None = None):
        self.nrows = nrows
        self.ncols = nrows if ncols is None else ncols
        self.rows: dict = {}

    @staticmethod
    def identity(n: int) -> "Operator":
        return Operator.from_rows([{i: ONE} for i in range(n)], n)

    @staticmethod
    def from_rows(rows, ncols: int) -> "Operator":
        """Operator whose row i is the i-th sparse row {col: value}."""
        out = Operator(len(rows), ncols)
        out.rows = {i: dict(row) for i, row in enumerate(rows) if row}
        return out

    def copy(self) -> "Operator":
        out = Operator(self.nrows, self.ncols)
        out.rows = {r: dict(cols) for r, cols in self.rows.items()}
        return out

    def get(self, r: int, c: int) -> Scalar:
        return self.rows.get(r, {}).get(c, ZERO)

    def set(self, r: int, c: int, v: Scalar) -> None:
        row = self.rows.setdefault(r, {})
        if v.is_zero():
            row.pop(c, None)
            if not row:
                del self.rows[r]
        else:
            row[c] = v

    def add_to(self, r: int, c: int, v: Scalar) -> None:
        self.set(r, c, self.get(r, c) + v)

    def entries(self):
        for r, cols in self.rows.items():
            for c, v in cols.items():
                yield r, c, v

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return (self - other).is_zero()

    def __add__(self, other: "Operator") -> "Operator":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = self.copy()
        for r, c, v in other.entries():
            out.add_to(r, c, v)
        return out

    def __sub__(self, other: "Operator") -> "Operator":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = self.copy()
        for r, c, v in other.entries():
            out.add_to(r, c, -v)
        return out

    def scale(self, c: Scalar) -> "Operator":
        out = Operator(self.nrows, self.ncols)
        if not c.is_zero():
            out.rows = {r: {col: v * c for col, v in cols.items()} for r, cols in self.rows.items()}
        return out

    def __neg__(self) -> "Operator":
        return self.scale(-ONE)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = Operator(self.nrows, other.ncols)
        right = {k: _integer_row(row) for k, row in other.rows.items()}
        for r, cols in self.rows.items():
            acc = _row_product(cols, right)
            if acc:
                out.rows[r] = acc
        return out

    def apply(self, vec: dict) -> dict:
        """self @ vec for a sparse vector {col: Scalar}, as a sparse vector."""
        # the vector is a one-column operand: its row k is the entry vec[k]
        right = {k: (x.d, ((0, x.a, x.b),)) for k, x in vec.items()}
        out: dict = {}
        for r, cols in self.rows.items():
            acc = _row_product(cols, right)
            if acc:
                out[r] = acc[0]
        return out

    def transpose(self) -> "Operator":
        out = Operator(self.ncols, self.nrows)
        for r, c, v in self.entries():
            out.set(c, r, v)
        return out

    def dagger(self) -> "Operator":
        out = Operator(self.ncols, self.nrows)
        for r, c, v in self.entries():
            out.set(c, r, v.conj())
        return out

    def block(self, rows, cols) -> "Operator":
        """Submatrix on the given row and column indices, reindexed from 0."""
        out = Operator(len(rows), len(cols))
        at = {c: j for j, c in enumerate(cols)}
        for i, r in enumerate(rows):
            row = {at[c]: v for c, v in self.rows.get(r, {}).items() if c in at}
            if row:
                out.rows[i] = row
        return out


def _integer_row(row: dict) -> tuple:
    """A sparse row as (E, [(col, A, B), ...]), entry col = (A + B*i)/E.

    E is the lcm of the row's denominators.
    """
    e = lcm(*(v.d for v in row.values()))
    out = []
    for c, v in row.items():
        f = e // v.d
        out.append((c, v.a * f, v.b * f))
    return e, out


def _row_product(cols: dict, right: dict) -> dict:
    """The sparse row sum_k cols[k] * right[k], right in _integer_row form.

    Every term is brought to the row's common denominator L, the lcm of
    cols[k].d * E_k, and summed as integers; each entry is reduced once,
    at the end, and an entry that cancels to zero is not stored.
    """
    terms = []
    den = 1
    for k, v in cols.items():
        krow = right.get(k)
        if krow is None:
            continue
        e = v.d * krow[0]
        den = lcm(den, e)
        terms.append((v, e, krow[1]))
    acc: dict = {}
    for v, e, krow in terms:
        f = den // e
        p, s = v.a * f, v.b * f
        for c, a, b in krow:
            x = acc.get(c)
            if x is None:
                acc[c] = [p * a - s * b, p * b + s * a]
            else:
                x[0] += p * a - s * b
                x[1] += p * b + s * a
    return {c: _reduced(x, y, den) for c, (x, y) in acc.items() if x or y}


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def first_entry(op: Operator):
    """Lexicographically first nonzero entry as (row, col, value), or None."""
    best = None
    for r, c, v in op.entries():
        if best is None or (r, c) < (best[0], best[1]):
            best = (r, c, v)
    return best


def _echelon_insert(pivots: dict, row: dict) -> None:
    """Reduce a sparse row {col: value} against the pivot rows and keep the rest.

    pivots maps each leading column to its row, normalised to 1 there; a
    row that reduces to zero adds nothing, so len(pivots) is the rank of
    the rows inserted so far.  The row passed in is not modified.
    """
    while row:
        u = min(row)
        prow = pivots.get(u)
        if prow is None:
            inv = row[u].inverse()
            pivots[u] = {v: c * inv for v, c in row.items()}
            return
        f = row[u]
        new = dict(row)
        for v, c in prow.items():
            cur = new.get(v, ZERO) - f * c
            if cur.is_zero():
                new.pop(v, None)
            else:
                new[v] = cur
        row = new


def _nullspace(pivots: dict, ncols: int) -> list:
    """Right nullspace of the rows reduced into pivots, by back-substitution.

    One sparse vector {col: value} per free column, in increasing order:
    1 at its own free column, 0 at every other one.  Pivot rows are solved
    from the last leading column down, so each sees only final values.
    """
    order = sorted(pivots, reverse=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: ONE}
        for u in order:
            s = ZERO
            for v, c in pivots[u].items():
                xv = x.get(v)
                if xv is not None:
                    s = s + c * xv
            if not s.is_zero():
                x[u] = -s
        basis.append(x)
    return basis


def _reduce(rows) -> dict:
    pivots: dict = {}
    for row in rows:
        _echelon_insert(pivots, row)
    return pivots


def kernel(rows, ncols: int) -> list:
    """Basis of the right nullspace of the sparse rows, as sparse vectors.

    The basis is canonical: one vector per free column, in increasing
    order, with 1 at its own free column and 0 at every other one.  The
    free columns depend only on the row span, so the basis does not depend
    on the order of the rows or on repeated rows.
    """
    return _nullspace(_reduce(rows), ncols)


def pivot_columns(rows) -> list:
    """Leading columns of an echelon form of the sparse rows, ascending.

    They depend only on the span of the rows: each is the first nonzero
    column of some vector in it, so restricting the span to them is
    injective.
    """
    return sorted(_reduce(rows))


def rank_rows(rows) -> int:
    """Rank of the sparse rows."""
    return len(_reduce(rows))


def rank(op: Operator) -> int:
    return rank_rows(op.rows.values())


def inverse(op: Operator):
    """Inverse of a square op, or None when op is singular.

    The rows of [op | -I] are independent, and their pivots all lie in
    the first k columns exactly when op is invertible.  Then the kernel
    vector of free column k + i is (x, e_i) with op x = e_i, so x is the
    i-th column of the inverse.
    """
    k = op.nrows
    if op.ncols != k:
        raise ValueError("shape mismatch")
    pivots = _reduce({**op.rows.get(i, {}), k + i: -ONE} for i in range(k))
    if any(u >= k for u in pivots):
        return None
    cols = [{r: v for r, v in x.items() if r < k} for x in _nullspace(pivots, 2 * k)]
    return Operator.from_rows(cols, k).transpose()
