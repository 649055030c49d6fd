"""Sparse exact linear algebra over the Gaussian rationals.

Operators are dict-of-dicts over Scalar entries, and a row is a sparse
{col: Scalar} dict with no stored zeros.  A product (`@`, `apply`) writes
each row of the right operand once as integer numerators over the lcm of
its denominators, sums each output row in plain integers over one common
denominator, and reduces each output entry once, at the end; an entry
that cancels to zero is not stored.  Callers pass rows and get a kernel,
a rank, pivot columns or an inverse, never an echelon form.

Ranks, pivot columns and inverses come from one private sparse echelon
that leads each row with its least nonzero column and divides exactly,
so they carry no thresholds.  A kernel is built from modular images
(multimodular kernels with rational reconstruction, after Wang 1981 and
Monagan 2004): the same min-column echelon runs mod 62-bit primes
p = 1 (mod 4), with i sent to a square root of -1 mod p, and the
canonical kernels mod p are combined by CRT and rebuilt as rationals.
There exactness comes from a check, not from the elimination: every
rebuilt vector is multiplied exactly by every row.  Reduction mod p can
only raise the nullity, so vectors that pass, one for each free column
mod p, are the whole kernel.  When the primes run out first, the exact
echelon gives the kernel.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt, lcm

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
        right = _column(vec)
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


def _column(vec: dict) -> dict:
    """A sparse vector as a one-column right operand: its row k is vec[k]."""
    return {k: (x.d, ((0, x.a, x.b),)) for k, x in vec.items()}


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
    order, with 1 at its own free column and 0 at every other one; the
    last nonzero column of each vector is its free column.  The free
    columns depend only on the row span, so the basis does not depend on
    the order of the rows or on repeated rows.

    The basis is rebuilt from the canonical kernels mod primes, one
    vector per free column mod the first prime, and returned only after
    each vector has been checked exactly against every row.  The nullity
    mod p is at least the nullity, and checked vectors whose last nonzero
    columns differ are independent, so they span the kernel
    (_modular_kernel).  If the primes run out first, the rows are
    eliminated exactly.
    """
    rows = [row for row in rows if row]
    basis = _modular_kernel(rows, ncols)
    return _nullspace(_reduce(rows), ncols) if basis is None else basis


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


# ---------------------------------------------------------------------------
# kernels from modular images

_PRIME_COUNT = 256


@cache
def _prime(k: int) -> tuple:
    """(p, r) for the k-th prime p = 1 (mod 4) below 2^62, counting down,
    with r^2 = -1 (mod p)."""
    p = (1 << 62) - 3 if k == 0 else _prime(k - 1)[0] - 4
    while not _is_prime(p):
        p -= 4
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return p, pow(g, (p - 1) // 4, p)


def _primes():
    """The (p, r) pairs a modular kernel may use, in order, found on first use."""
    return (_prime(k) for k in range(_PRIME_COUNT))


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _echelon_mod(rows, p: int):
    """The echelon of _reduce over F_p, for rows {col: int} reduced mod p.

    Returns (pivots, kept): pivots maps each leading column to the rest
    of its row, normalised to 1 at the leading column; kept lists the
    indices of the rows that added a pivot.  The rows are consumed; a
    row being reduced holds its entries unreduced, as integers, until
    one leads.
    """
    pivots: dict = {}
    kept = []
    for k, row in enumerate(rows):
        while row:
            u = min(row)
            f = row.pop(u) % p
            if not f:
                continue
            prow = pivots.get(u)
            if prow is None:
                inv = pow(f, -1, p)
                pivots[u] = {v: y for v, x in row.items() if (y := x * inv % p)}
                kept.append(k)
                break
            for v, x in prow.items():
                row[v] = row.get(v, 0) - f * x
    return pivots, kept


def _image(rows, p: int, roots, ncols: int):
    """The canonical kernel of integer rows mod p, one image per root r of -1.

    Image r sends i to r.  Returns (kept, lead, free, residues): kept,
    the ascending pivot columns lead and the other columns free come
    from the first image; residues holds, vector after vector (one per
    free column), the real part of each lead entry and then, with two
    images, the imaginary parts.  None when the images have different
    pivots.
    """
    echelons = []
    for r in roots:
        reduced = [{c: x for c, a, b in row if (x := (a + b * r) % p)} for row in rows]
        echelons.append(_echelon_mod(reduced, p))
        if echelons[-1][0].keys() != echelons[0][0].keys():
            return None
    first, kept = echelons[0]
    lead = sorted(first)
    free = [c for c in range(ncols) if c not in first]
    parts = []
    for pivots, _ in echelons:
        part = []
        for f in free:
            # back-substitution, as in _nullspace
            x = {f: 1}
            for u in reversed(lead):
                s = sum(c * x[v] for v, c in pivots[u].items() if v in x) % p
                if s:
                    x[u] = p - s
            part.append([x.get(u, 0) for u in lead])
        parts.append(part)
    if len(parts) == 1:
        residues = [x for vec in parts[0] for x in vec]
    else:
        # x_r = a + b r and x_-r = a - b r
        half, half_r = pow(2, -1, p), pow(2 * roots[0], -1, p)
        residues = []
        for plus, minus in zip(*parts):
            residues += [(x + y) * half % p for x, y in zip(plus, minus)]
            residues += [(x - y) * half_r % p for x, y in zip(plus, minus)]
    return kept, lead, free, residues


def _rationals(residues, m: int):
    """Each residue mod m as a fraction (num, den), or None if one fails.

    Wang's rational reconstruction, |num| and den at most sqrt(m/2), is
    applied to the residue times the product of the denominators found
    so far, so entries that share a denominator cost one step each.
    """
    bound = isqrt(m >> 1)
    scale = 1
    out = []
    for u in residues:
        r0, r1, s0, s1 = m, u * scale % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound or gcd(r1, s1) != 1:
            return None
        if s1 < 0:
            r1, s1 = -r1, -s1
        out.append((r1, s1 * scale))
        scale *= s1
    return out


def _modular_kernel(rows, ncols: int):
    """The canonical kernel basis of the sparse rows from modular images,
    checked exactly; None when the primes run out.

    The rows are scaled to Gaussian integers and mapped to F_p for primes
    p = 1 (mod 4), i sent to +r and to -r with r^2 = -1 (to +r alone when
    no entry is complex).  The first prime keeps the rows that are
    independent mod p, and the free columns of their echelon; later primes
    eliminate only the kept rows.  The canonical kernels mod p are combined by CRT and rebuilt as
    rationals (_rationals), and each rebuilt basis is checked exactly:
    every vector must be annihilated by every row and have its free
    column as its last nonzero column.

    A pass is a proof.  Reduction mod p is a ring map, so the nullity mod
    p is at least the nullity.  The k checked vectors are independent,
    since their last nonzero columns differ, so the nullity is at least
    k, which is the nullity mod p: they are a basis.  It is the canonical
    one, because the last nonzero columns of the kernel's vectors are
    exactly its free columns, and one kernel vector has 1 at a given
    free column and 0 at the others.

    A prime whose two images have different pivots is skipped, and so is
    a later prime whose pivots differ from the first's.  A first prime
    that drops the rank or moves a free column leaves more vectors, or
    other last columns, than the kernel has, so no basis passes and the
    primes run out into the exact echelon.
    """
    ints = [_integer_row(row)[1] for row in rows]
    gaussian = any(b for row in ints for _, _, b in row)
    sub = None
    for p, r in _primes():
        image = _image(ints if sub is None else sub, p, (r, p - r) if gaussian else (r,), ncols)
        if image is None:
            continue
        if sub is None:
            kept, lead, free, residues = image
            if not free:
                return []
            sub, m = [ints[k] for k in kept], p
        elif image[1] != lead:
            continue
        else:
            # CRT: the residue mod m*p that is u mod m and x mod p
            inv = pow(m, -1, p)
            residues = [u + m * ((x - u) * inv % p) for u, x in zip(residues, image[3])]
            m *= p
        guess = _rationals(residues, m)
        if guess is not None:
            basis = _checked_basis(rows, guess, lead, free, gaussian)
            if basis is not None:
                return basis
    return None


def _checked_basis(rows, fractions, lead, free, gaussian: bool):
    """The kernel vectors rebuilt from the lead entries, or None unless
    each has its free column as its last nonzero column and every row
    annihilates it exactly.

    Keys come in _nullspace's order: the free column, then the lead
    columns descending.  Each row sum is Operator.apply's, and the check
    stops at the first vector that fails.
    """
    width = len(lead) * (2 if gaussian else 1)
    basis = []
    for t, f in enumerate(free):
        vec = fractions[t * width:(t + 1) * width]
        x = {f: ONE}
        for i in reversed(range(len(lead))):
            a, d = vec[i]
            b, e = vec[len(lead) + i] if gaussian else (0, 1)
            if a or b:
                x[lead[i]] = Scalar(a * e, b * d, d * e)
        right = _column(x)
        if max(x) != f or any(_row_product(row, right) for row in rows):
            return None
        basis.append(x)
    return basis
