"""Reflection K matrices on the spin chain.

Entries come from the matrix product construction: a word of q-boson
letters selected by the in/out spin pair at each site, closed either by
a trace (cyclic family) or by boundary vectors (bounded families).  The
words are normal-ordered over a site trie, depth first, so entries that
agree on their first sites share one prefix product; the trace kind
drops a prefix as soon as it cannot reach the support.  One engine
serves a whole build and keeps the boundary base values it has computed,
so each q-Pochhammer product behind them is evaluated once per build.  An
independent route recovers the same matrices, up to normalization, as
the unique solution of the generator exchange relations; agreement of
the two routes is a checked invariant.

Every KMatrix is plain; the symmetrizing gauge and the spin reversal are
entry maps of it.  The relation checks take the plain matrices they
certify, gauge them themselves and build none; each refuses a matrix of
another kind, size or point with SpecError.  kmatrix_for maps a coideal
spec to its K matrix; callers build each once.
"""

from __future__ import annotations

from .field import ONE, ZERO, Params, PoleError, Scalar, format_scalar
from .linalg import Operator, commutator, kernel
from .onsager import CoidealSpec, SpecError, bond_parameters, hamiltonian, onsager_generators
from .poch import poch
from .qboson import QBosonEngine, boundary_contract
from .report import Report, residual
from .spinrep import RangeError, popcount


class ZeroNormalizer(ArithmeticError):
    """The entry used to fix the overall scale vanished."""


class NullspaceDimensionError(ArithmeticError):
    """The exchange relations did not determine the matrix up to scale."""


class KMatrix:
    """Spin-chain K matrix with its construction metadata."""

    __slots__ = ("operator", "kind", "z", "n")

    def __init__(self, operator: Operator, kind, z, n: int) -> None:
        self.operator = operator
        self.kind = kind          # "tr" or a (k, kp) pair
        self.z = z                # Scalar, or a tuple for the multi-parameter trace
        self.n = n

    def __repr__(self) -> str:
        return f"KMatrix(kind={self.kind!r}, n={self.n})"


def _site_letters(engine: QBosonEngine) -> dict:
    """The four one-site letters keyed by the (out, in) spin pair."""
    return {(0, 0): engine.ap(), (0, 1): engine.scale(engine.kdiag(), -engine.q),
            (1, 0): engine.kdiag(), (1, 1): engine.am()}


def _words(engine: QBosonEngine, root, sites: list, weight=None, parity=None):
    """Yield (beta, alpha, root * L_0 * ... * L_{n-1}) depth first.

    sites[d] maps the (beta, alpha) bit pair at site d to its letter L_d.
    Words sharing their first d letters share one normal-ordered prefix,
    so a full build costs about (4/3) 4^n products instead of n 4^n.  With
    a weight, a prefix that can no longer reach |alpha| + |beta| = weight
    is dropped before it is multiplied; with a parity, the last site only
    takes letters that give |alpha| + |beta| that parity.
    """
    n = len(sites)

    def walk(d, beta, alpha, s, prefix):
        if d == n:
            yield beta, alpha, prefix
            return
        for (b, a), letter in sites[d].items():
            s2 = s + b + a
            if weight is not None and not s2 <= weight <= s2 + 2 * (n - d - 1):
                continue
            if parity is not None and d == n - 1 and (s2 - parity) % 2:
                continue
            yield from walk(d + 1, beta | b << d, alpha | a << d, s2,
                            engine.mul(prefix, letter))

    return walk(0, 0, 0, 0, root)


def kappa_tr(l: int, n: int, z: Scalar, q: Scalar) -> Scalar:
    sign = ONE if l % 2 == 0 else -ONE
    return sign * q ** min(0, 2 * l - n) * (ONE - q ** abs(n - 2 * l) * z)


def _trace_closed(engine: QBosonEngine, root, sites: list, kappa=None) -> Operator:
    # trace-closed entries on the support |alpha| + |beta| = n, each times
    # kappa[|alpha|] when given
    n = len(sites)
    op = Operator(1 << n)
    for beta, alpha, word in _words(engine, root, sites, weight=n):
        try:
            val = engine.trace(word)
        except PoleError as exc:
            raise PoleError(f"entry beta={beta} alpha={alpha}: {exc}") from exc
        op.set(beta, alpha, val if kappa is None else kappa[popcount(alpha)] * val)
    return op


def build_ktr(n: int, z: Scalar, params: Params) -> KMatrix:
    """Trace-closed K matrix; entry support is |alpha| + |beta| = n."""
    if n < 1:
        raise RangeError(f"need n >= 1, got {n}")
    engine = QBosonEngine(params)
    kappa = [kappa_tr(l, n, z, params.q) for l in range(n + 1)]
    op = _trace_closed(engine, engine.marker(z), [_site_letters(engine)] * n, kappa)
    return KMatrix(op, "tr", z, n)


def build_ktr_multi(zs, params: Params) -> KMatrix:
    """Trace-closed K matrix with one spectral parameter per bond.

    The word of an entry is X_1 L_1 X_2 L_2 ... X_n L_n with X_d the marker
    of bond d; X_1 starts the word and every later site step multiplies by
    the premultiplied X_d L_d.
    The construction fixes the matrix only up to overall scale; the scale
    is pinned here by dividing by the all-up from all-down entry.
    """
    n = len(zs)
    if n < 1:
        raise RangeError(f"need n >= 1, got {n}")
    zlist = bond_parameters(zs)
    engine = QBosonEngine(params)
    letters = _site_letters(engine)
    sites = [letters] + [{pair: engine.mul(engine.marker(zi), letter)
                          for pair, letter in letters.items()} for zi in zlist[1:]]
    op = _trace_closed(engine, engine.marker(zlist[0]), sites)
    dim = 1 << n
    ref = op.get(dim - 1, 0)
    if ref.is_zero():
        raise ZeroNormalizer("all-up from all-down entry vanishes")
    return KMatrix(op.scale(ref.inverse()), "tr", tuple(zlist), n)


def reference_value(kind, n: int, z: Scalar, params: Params) -> Scalar:
    """Closed form of the all-up from all-down entry fixing the scale."""
    q = params.q
    if kind == "tr":
        return q ** (-n)
    k, kp = kind
    z2 = z ** 2
    q4 = q ** 4
    if (k, kp) != (2, 2):
        zm = z ** max(k, kp)
        qk = q ** (k * kp)
        num, den = poch(zm, qk, n), poch(-q * zm, qk, n)
    elif n % 2 == 0:
        num, den = poch(z2, q4, n // 2), poch(q ** 2 * z2, q4, n // 2)
    else:
        num, den = poch(q ** 2 * z2, q4, (n - 1) // 2), poch(z2, q4, (n + 1) // 2)
    if den.is_zero():
        raise PoleError("reference entry pole")
    return num / den


def build_kkk(k: int, kp: int, n: int, z: Scalar, params: Params) -> KMatrix:
    """Boundary-closed K matrix for labels (k, kp)."""
    if k not in (1, 2) or kp not in (1, 2):
        raise SpecError(f"boundary labels must be 1 or 2, got ({k}, {kp})")
    if n < 1:
        raise RangeError(f"need n >= 1, got {n}")
    engine = QBosonEngine(params)
    dim = 1 << n
    # (2, 2) entries vanish unless |alpha| + |beta| has the parity of n
    parity = n % 2 if (k, kp) == (2, 2) else None
    op = Operator(dim)
    for beta, alpha, word in _words(engine, engine.marker(z), [_site_letters(engine)] * n,
                                    parity=parity):
        op.set(beta, alpha, boundary_contract(engine, word, k, kp))
    want = reference_value((k, kp), n, z, params)
    got = op.get(dim - 1, 0)
    if got != want:
        raise ArithmeticError(
            f"reference entry mismatch for ({k},{kp}) n={n}: got {got}, want {want}")
    return KMatrix(op, (k, kp), z, n)


def _gauge(op: Operator, n: int, s: Scalar) -> Operator:
    # D op D^-1 for D = diag(s^|alpha|): entry (r, c) times s^(|r| - |c|)
    powers = [s ** e for e in range(-n, n + 1)]
    out = Operator(op.nrows, op.ncols)
    out.rows = {r: {c: v * powers[n + popcount(r) - popcount(c)] for c, v in cols.items()}
                for r, cols in op.rows.items()}
    return out


def gauge_tilde(km: KMatrix, params: Params) -> Operator:
    """Symmetrizing gauge of a boundary-closed K: entry (r, c) times (-mu t)^(|r| - |c|)."""
    if km.kind == "tr":
        raise SpecError("the symmetrizing gauge applies to the boundary-closed kind")
    return _gauge(km.operator, km.n, params.t * -params.mu)


def vee(km: KMatrix, params: Params) -> Operator:
    """Spin reversal: the rows of K for the trace kind, or of gauge_tilde(K)
    for a boundary-closed kind, each row r moved to r XOR (2^n - 1)."""
    op = km.operator if km.kind == "tr" else gauge_tilde(km, params)
    flip = (1 << km.n) - 1
    return op.block([r ^ flip for r in range(flip + 1)], range(flip + 1))


def _require(km: KMatrix, kind, n: int, z=None) -> None:
    # a check certifies one identity of given matrices; any other matrix
    # is refused, never checked against a different identity
    if ((km.kind, km.n) != (kind, n) or not isinstance(km.z, Scalar)
            or z is not None and km.z != z):
        at = "" if z is None else f" at z={format_scalar(z)}"
        raise SpecError(f"expected the {kind} K matrix with n={n}{at}, got {km!r}")


def check_unitarity(kz: KMatrix, kinv: KMatrix) -> Report:
    """Inversion relation of K_tr(z) and K_tr(1/z)."""
    n = kz.n
    _require(kz, "tr", n)
    _require(kinv, "tr", n, kz.z.inverse())
    rep = Report()
    eye = Operator.identity(1 << n)
    rep.add_zero("K(z) K(1/z) = id", kz.operator @ kinv.operator - eye)
    rep.add_zero("K(1/z) K(z) = id", kinv.operator @ kz.operator - eye)
    return rep


def check_commutativity(kz: KMatrix, kw: KMatrix, bz: KMatrix, bw: KMatrix) -> Report:
    """K_tr and K_(1,1) at two spectral points are compared under the commutator.

    The trace kind commutes.  The boundary kind was expected not to, but
    exact computation shows the commutator vanishes there as well; the
    report states what was computed, and the divergence from the expected
    negative outcome is recorded in the project notes.
    """
    n = kz.n
    _require(kz, "tr", n)
    _require(kw, "tr", n)
    if kw.z == kz.z:
        raise SpecError("commutativity needs two distinct spectral points")
    _require(bz, (1, 1), n, kz.z)
    _require(bw, (1, 1), n, kw.z)
    rep = Report()
    rep.add_zero("trace kind commutes", commutator(kz.operator, kw.operator))
    detail = residual(commutator(bz.operator, bw.operator))
    rep.add("boundary kind commutes", not detail,
            detail or "contrary to the expected non-commutativity; documented divergence")
    return rep


def kmatrix_for(spec: CoidealSpec, params: Params) -> KMatrix:
    """The plain K matrix of a coideal spec at params.z: K_tr(z) for the
    cyclic family, K_(k,kp)(z) for a bounded one."""
    if spec.fam.tag == "A1":
        return build_ktr(spec.fam.n, params.z, params)
    return build_kkk(spec.k, spec.kp, spec.fam.n, params.z, params)


def _require_spec(spec: CoidealSpec, km: KMatrix, params: Params) -> None:
    # the spec's matrix at params.z
    _require(km, "tr" if spec.fam.tag == "A1" else (spec.k, spec.kp), spec.fam.n, params.z)


def check_intertwining(spec: CoidealSpec, km: KMatrix, params: Params) -> Report:
    """Exchange relation K b_i = (b_i at inverted z) K for every node, for
    km = kmatrix_for(spec, params) and K its symmetrizing gauge if bounded."""
    _require_spec(spec, km, params)
    rep = Report()
    kop = km.operator if km.kind == "tr" else gauge_tilde(km, params)
    bs = onsager_generators(spec, params)
    bs_inv = onsager_generators(spec, params.inverted_z())
    for i, (b, binv) in enumerate(zip(bs, bs_inv)):
        if i > 0:
            rep.add(f"b{i} free of z", b == binv)
        rep.add_zero(f"K b{i} exchange", kop @ b - binv @ kop)
    return rep


def check_kh_commute(spec: CoidealSpec, km: KMatrix, params: Params) -> Report:
    """The spin reversal of km = kmatrix_for(spec, params) commutes with the
    matching Hamiltonian."""
    _require_spec(spec, km, params)
    rep = Report()
    h = hamiltonian(spec, params)
    kv = vee(km, params)
    rep.add_zero("[K, H] = 0", commutator(kv, h))
    if spec.fam.tag == "A1":
        ok = all(popcount(r) == popcount(c) for r, c, _ in kv.entries())
        rep.add("weight blocks preserved", ok)
    elif (spec.k, spec.kp) == (2, 2):
        ok = all((popcount(r) - popcount(c)) % 2 == 0 for r, c, _ in kv.entries())
        rep.add("parity blocks preserved", ok)
    return rep


def solve_intertwiner_space(spec: CoidealSpec, params: Params) -> list:
    """Basis of all matrices satisfying the node exchange relations.

    The space can be larger than one line: when every generator shifts
    the total weight by an even amount the parity operator lies in the
    commutant, and for the cyclic family the generators preserve each
    weight sector outright, leaving the relative sector scales free.

    The kernel rows are exactly the entries of X b - binv X, and
    linalg.kernel annihilates every basis vector with every row before it
    returns, so each returned matrix is proved to satisfy every relation.
    """
    fam = spec.fam
    n = fam.n
    if n > 5:
        raise RangeError(f"exact solve is guarded to n <= 5, got {n}")
    dim = 1 << n
    bs = onsager_generators(spec, params)
    bs_inv = onsager_generators(spec, params.inverted_z())

    def rows():
        """One row of X b - binv X per generator and entry (r, c) of X."""
        for b, binv in zip(bs, bs_inv):
            cols: dict = {}
            for a, c, v in b.entries():
                cols.setdefault(c, []).append((a, v))
            for r in range(dim):
                left = binv.rows.get(r, {})
                for c in range(dim):
                    # X b puts b's column c in row r of X: distinct nonzero terms
                    row = {r * dim + a: v for a, v in cols.get(c, ())}
                    for a, v in left.items():
                        key = a * dim + c
                        cur = row.get(key, ZERO) - v
                        if cur.is_zero():
                            row.pop(key, None)
                        else:
                            row[key] = cur
                    yield row

    basis = []
    for x in kernel(rows(), dim * dim):
        op = Operator(dim, dim)
        for u, val in x.items():
            op.set(u // dim, u % dim, val)
        basis.append(op)
    return basis


def solve_intertwiner(spec: CoidealSpec, params: Params) -> KMatrix:
    """Independent K matrix route: solve the exchange relations directly.

    Requires the relations to determine the matrix up to one overall
    scale, which is then pinned to the closed-form all-up from all-down
    entry.  Families whose solution space is genuinely larger raise
    NullspaceDimensionError; solve_intertwiner_space exposes the space.
    """
    fam = spec.fam
    n = fam.n
    basis = solve_intertwiner_space(spec, params)
    if len(basis) != 1:
        raise NullspaceDimensionError(
            f"solution space dimension {len(basis)}, expected 1")
    op = basis[0]
    dim = 1 << n
    if fam.tag == "A1":
        kind = "tr"
    else:
        kind = (spec.k, spec.kp)
        op = _gauge(op, n, (params.t * -params.mu).inverse())
    ref = op.get(dim - 1, 0)
    if ref.is_zero():
        raise ZeroNormalizer("all-up from all-down entry of the solution vanishes")
    op = op.scale(reference_value(kind, n, params.z, params) / ref)
    return KMatrix(op, kind, params.z, n)
