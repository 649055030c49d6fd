"""Spin-chain representations of the five supported affine families.

Each family acts on V = (C^2)^{tensor n} by moving, creating or
annihilating up-spins.  Basis states |alpha>, alpha in {0,1}^n, are
encoded as integers with bit i-1 holding alpha_i.  Generator matrices
are permutation-like and stored sparsely.
"""

from __future__ import annotations

from .field import Params, Scalar
from .linalg import Operator, commutator
from .report import Report

FAMILIES = ("A1", "D2", "B1", "BT1", "D1")

_MIN_N = {"A1": 3, "D2": 2, "B1": 3, "BT1": 3, "D1": 3}

# (r, rp): double arrow (1) or trivalent fork (2) at each end of the diagram.
_END_SHAPES = {"D2": (1, 1), "B1": (2, 1), "BT1": (1, 2), "D1": (2, 2)}

ALIASES = {"A": "A1", "A1": "A1", "D2": "D2", "B1": "B1", "BT1": "BT1", "D1": "D1"}


class RangeError(ValueError):
    """Site or node index outside the chain."""


def popcount(alpha: int) -> int:
    return alpha.bit_count()


def bit(alpha: int, site: int) -> int:
    return (alpha >> (site - 1)) & 1


def _cartan_a(n: int) -> tuple:
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 2
        row[(i + 1) % n] -= 1
        row[(i - 1) % n] -= 1
        rows.append(tuple(row))
    return tuple(rows)


def _cartan_affine(tag: str, n: int) -> tuple:
    a = [[2 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]

    def bond(i, j, aij, aji):
        a[i][j] += aij
        a[j][i] += aji

    for j in range(1, n - 1):
        bond(j, j + 1, -1, -1)
    if tag in ("D2", "BT1"):
        bond(0, 1, -2, -1)
    else:
        bond(0, 2, -1, -1)
    if tag in ("D2", "B1"):
        bond(n - 1, n, -1, -2)
    else:
        bond(n - 2, n, -1, -1)
    if tag == "D1" and n == 3:
        # nodes 0 and 3 both shift the pair weight alpha_1+alpha_2,
        # closing the diagram into a 4-cycle 0-2-1-3
        bond(0, 3, -1, -1)
    return tuple(tuple(row) for row in a)


class Family:
    """Dynkin data for one affine family at a fixed chain length."""

    __slots__ = ("tag", "n", "nprime", "r", "rp", "cartan", "pexp")

    def __init__(self, tag: str, n: int) -> None:
        try:
            tag = ALIASES[tag.upper()]
        except KeyError:
            raise RangeError(f"unknown family tag {tag!r}") from None
        if n < _MIN_N[tag]:
            raise RangeError(f"{tag} needs n >= {_MIN_N[tag]}, got {n}")
        self.tag = tag
        self.n = n
        if tag == "A1":
            self.nprime = n - 1
            self.r = None
            self.rp = None
            self.cartan = _cartan_a(n)
            self.pexp = (2,) * n
        else:
            self.nprime = n
            self.r, self.rp = _END_SHAPES[tag]
            self.cartan = _cartan_affine(tag, n)
            ex = [2] * (n + 1)
            if self.r == 1:
                ex[0] = 1
            if self.rp == 1:
                ex[n] = 1
            self.pexp = tuple(ex)

    def __repr__(self) -> str:
        return f"Family({self.tag!r}, n={self.n})"


def local_spin(kind: str, site: int, n: int) -> Operator:
    """One-site spin operator sigma^kind, kind "+", "-" or "z", on the given slot."""
    if not 1 <= site <= n:
        raise RangeError(f"site {site} outside 1..{n}")
    dim = 1 << n
    op = Operator(dim, dim)
    mask = 1 << (site - 1)
    one = Scalar(1, 0, 1)
    for alpha in range(dim):
        up = alpha & mask
        if kind == "z":
            op.set(alpha, alpha, one if up else -one)
        elif kind == "+":
            if not up:
                op.set(alpha | mask, alpha, one)
        elif kind == "-":
            if up:
                op.set(alpha & ~mask, alpha, one)
        else:
            raise RangeError(f"unknown spin kind {kind!r}")
    return op


def global_flip(n: int) -> Operator:
    """Simultaneous spin flip |alpha> -> |1-alpha> on all sites."""
    dim = 1 << n
    op = Operator(dim, dim)
    one = Scalar(1, 0, 1)
    for alpha in range(dim):
        op.set(alpha ^ (dim - 1), alpha, one)
    return op


def _node_moves(fam: Family, node: int):
    """Weight shift of e_node as ((site, delta), ...) plus its z exponent.

    k_node acts on |alpha> as p^e with e = sum of delta * (2 alpha_site - 1).
    """
    n = fam.n
    if fam.tag == "A1":
        if node == 0:
            return ((n, -1), (1, 1)), 1
        return ((node, -1), (node + 1, 1)), 0
    if node == 0:
        if fam.r == 1:
            return ((1, 1),), 1
        return ((1, 1), (2, 1)), 2
    if node == n:
        if fam.rp == 1:
            return ((n, -1),), 0
        return ((n - 1, -1), (n, -1)), 0
    return ((node, -1), (node + 1, 1)), 0


def _apply_moves(alpha: int, moves) -> int | None:
    beta = alpha
    for site, delta in moves:
        b = bit(beta, site)
        if b + delta not in (0, 1):
            return None
        beta ^= 1 << (site - 1)
    return beta


class GeneratorSet:
    """Chevalley-type generators e_i, f_i, k_i^{+-1} of one family."""

    __slots__ = ("fam", "z", "e", "f", "kplus", "kminus")

    def __init__(self, fam: Family, z: Scalar, e, f, kplus, kminus) -> None:
        self.fam = fam
        self.z = z
        self.e = tuple(e)
        self.f = tuple(f)
        self.kplus = tuple(kplus)
        self.kminus = tuple(kminus)


def generators(fam: Family, params: Params) -> GeneratorSet:
    n = fam.n
    dim = 1 << n
    z = params.z
    p = params.p
    es, fs, kps, kms = [], [], [], []
    for node in range(fam.nprime + 1):
        moves, zexp = _node_moves(fam, node)
        rmoves = tuple((site, -delta) for site, delta in moves)
        ce = z ** zexp
        cf = z ** (-zexp)
        e_op = Operator(dim, dim)
        f_op = Operator(dim, dim)
        for alpha in range(dim):
            beta = _apply_moves(alpha, moves)
            if beta is not None:
                e_op.set(beta, alpha, ce)
            beta = _apply_moves(alpha, rmoves)
            if beta is not None:
                f_op.set(beta, alpha, cf)
        kp_op = Operator(dim, dim)
        km_op = Operator(dim, dim)
        for alpha in range(dim):
            expo = sum(delta * (2 * bit(alpha, s) - 1) for s, delta in moves)
            kp_op.set(alpha, alpha, p ** expo)
            km_op.set(alpha, alpha, p ** (-expo))
        es.append(e_op)
        fs.append(f_op)
        kps.append(kp_op)
        kms.append(km_op)
    return GeneratorSet(fam, z, es, fs, kps, kms)


def serre_residual(xi: Operator, xj: Operator, aij: int, p: Scalar,
                   inhomogeneous: bool = False) -> Operator:
    """lhs - rhs of the relation between xi and xj for Cartan entry aij.

    With [x, y]_a = xy - a yx, aij = 0 gives [xi, xj], -1 the cubic
    q-Serre polynomial [xi, [xi, xj]_{p^2}]_{p^-2} and -2 the quartic
    [xi, [xi, [xi, xj]_{p^2}]_1]_{p^-2}; no power of xi is formed.  With
    inhomogeneous=True the lower-order terms of the coideal (deformed
    Dolan-Grady) relations are subtracted: xj from the cubic,
    (p + 1/p)^2 [xi, xj] from the quartic.  Any other entry raises
    ValueError.
    """
    return _residual(xi, xj, xi @ xj, xj @ xi, aij, p, inhomogeneous)


def _residual(xi, xj, xij, xji, aij, p, inhomogeneous):
    """serre_residual from the products xij = xi xj and xji = xj xi."""
    if aij == 0:
        return xij - xji
    if aij not in (-1, -2):
        raise ValueError(f"no relation for cartan entry {aij}")
    y = xij - xji.scale(p ** 2)
    if aij == -2:
        y = commutator(xi, y)
    diff = xi @ y - (y @ xi).scale(p ** -2)
    if inhomogeneous:
        diff = diff - (xj if aij == -1 else (xij - xji).scale((p + p ** -1) ** 2))
    return diff


_RELATION_NAMES = {0: "commute", -1: "cubic", -2: "quartic"}


def add_cartan_relations(rep: Report, sym: str, xs, cartan, p: Scalar,
                         inhomogeneous: bool) -> None:
    """Add one serre_residual row per ordered pair i != j of the generators xs.

    Rows read "{sym}{i} {sym}{j} commute", "... cubic" or "... quartic";
    the homogeneous cubic and quartic rows end in " Serre".  The products
    x_i x_j and x_j x_i are formed once per pair, for (i, j), and the
    (j, i) row reuses them.
    """
    products = {}
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            if i == j:
                continue
            if (j, i) in products:
                xji, xij = products.pop((j, i))
            else:
                xij, xji = products[i, j] = xi @ xj, xj @ xi
            aij = cartan[i][j]
            diff = _residual(xi, xj, xij, xji, aij, p, inhomogeneous)
            name = _RELATION_NAMES[aij] + (" Serre" if aij and not inhomogeneous else "")
            rep.add_zero(f"{sym}{i} {sym}{j} {name}", diff)


def check_defining_relations(fam: Family, gens: GeneratorSet, params: Params) -> Report:
    """Verify k-conjugation, e-f commutators and all Serre relations exactly."""
    rep = Report()
    p = params.p
    m = fam.nprime + 1
    a = fam.cartan
    e, f, kp, km = gens.e, gens.f, gens.kplus, gens.kminus
    for i in range(m):
        for j in range(m):
            diff = kp[i] @ e[j] @ km[i] - e[j].scale(p ** (fam.pexp[i] * a[i][j]))
            rep.add_zero(f"k{i} e{j} conjugation", diff)
            diff = kp[i] @ f[j] @ km[i] - f[j].scale(p ** (-fam.pexp[i] * a[i][j]))
            rep.add_zero(f"k{i} f{j} conjugation", diff)
    for i in range(m):
        for j in range(m):
            diff = commutator(e[i], f[j])
            if i == j:
                pi = p ** fam.pexp[i]
                diff = diff - (kp[i] - km[i]).scale((pi - pi ** -1) ** -1)
            rep.add_zero(f"e{i} f{j} commutator", diff)
    add_cartan_relations(rep, "e", e, a, p, False)
    add_cartan_relations(rep, "f", f, a, p, False)
    return rep
