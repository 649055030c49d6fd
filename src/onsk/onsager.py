"""Boundary coideal generators b_i, their relations, and spin-chain Hamiltonians.

Two independent construction routes are provided.  The embedding route
assembles b_i = f_i + p^{w_i} k_i^{-1} e_i + d_i k_i^{-1}, with w_i the
family's pexp[i], from the Chevalley generators; the local-spin route
assembles the same operators directly from one- and two-site Pauli terms.  Agreement of the two routes is a
checked invariant, not an assumption.
"""

from __future__ import annotations

from .field import GenericityError, Params, Scalar
from .linalg import Operator, commutator
from .report import Report
from .spinrep import (Family, RangeError, add_cartan_relations, generators, global_flip,
                      local_spin, serre_residual)

ONE = Scalar(1, 0, 1)
TWO = Scalar(2, 0, 1)


class SpecError(ValueError):
    """Boundary labels incompatible with the family."""


class CoidealSpec:
    """Family plus boundary labels (k, kp) selecting the d-coefficients."""

    __slots__ = ("fam", "k", "kp", "variant")

    def __init__(self, fam: Family, k: int | None = None, kp: int | None = None,
                 variant: bool = False) -> None:
        self.fam = fam
        self.variant = bool(variant)
        if fam.tag == "A1":
            if k is not None or kp is not None:
                raise SpecError("boundary labels apply only to the bounded families")
            self.k = None
            self.kp = None
            return
        if self.variant:
            raise SpecError("the flipped-sign variant exists only for the cyclic family")
        if k not in (1, 2) or kp not in (1, 2):
            raise SpecError(f"boundary labels must be 1 or 2, got ({k}, {kp})")
        if fam.r > k or fam.rp > kp:
            raise SpecError(f"{fam.tag} requires k >= {fam.r} and kp >= {fam.rp}")
        self.k = k
        self.kp = kp

    def __repr__(self) -> str:
        if self.fam.tag == "A1":
            tail = ", variant" if self.variant else ""
            return f"CoidealSpec(A1 n={self.fam.n}{tail})"
        return f"CoidealSpec({self.fam.tag} n={self.fam.n}, k={self.k}, kp={self.kp})"


def gamma(params: Params) -> Scalar:
    t = params.t
    u = t ** 2 - t ** -2
    v = t ** 2 + t ** -2
    return u ** 2 / (v * 4)


def _d_coeff(r: int, k: int, params: Params) -> Scalar:
    t = params.t
    if (r, k) == (1, 1):
        return Scalar(0, -1, 1) * (params.eps * params.mu) * (t - t ** -1) / (t ** 2 + t ** -2)
    if (r, k) == (1, 2):
        return Scalar(0, 0, 1)
    if (r, k) == (2, 2):
        return (params.q + params.q ** -1) ** -1
    raise SpecError(f"no d-coefficient for (r, k) = ({r}, {k})")


def onsager_generators(spec: CoidealSpec, params: Params) -> tuple:
    """Embedding route: b_i built from the family's Chevalley generators."""
    fam = spec.fam
    gens = generators(fam, params)
    p = params.p
    bulk_d = (params.q + params.q ** -1) ** -1
    out = []
    for i in range(fam.nprime + 1):
        if fam.tag == "A1":
            d = -bulk_d if spec.variant else bulk_d
        elif i == 0:
            d = _d_coeff(fam.r, spec.k, params)
        elif i == fam.nprime:
            d = _d_coeff(fam.rp, spec.kp, params)
        else:
            d = bulk_d
        b = (gens.f[i] + (gens.kminus[i] @ gens.e[i]).scale(p ** fam.pexp[i])
             + gens.kminus[i].scale(d))
        out.append(b)
    if spec.variant:
        sx = global_flip(fam.n)
        out = [sx @ b @ sx for b in out]
    return tuple(out)


class _Spins:
    """Cached one-site operators on a fixed chain."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.dim = 1 << n
        self.sp = [None] + [local_spin("+", s, n) for s in range(1, n + 1)]
        self.sm = [None] + [local_spin("-", s, n) for s in range(1, n + 1)]
        self.sz = [None] + [local_spin("z", s, n) for s in range(1, n + 1)]
        self.eye = Operator.identity(self.dim)


def _bulk_term(sp: _Spins, a: int, b: int, params: Params, flipped: bool,
               hop_in: Scalar = ONE, hop_out: Scalar = ONE) -> Operator:
    # XXZ-type two-site term with hop weights on s+_a s-_b and s-_a s+_b;
    # `flipped` gives the sign pattern of the conjugated variant representation
    qq = params.q + params.q ** -1
    dq = params.q - params.q ** -1
    g = gamma(params)
    op = (sp.sp[a] @ sp.sm[b]).scale(hop_in) + (sp.sm[a] @ sp.sp[b]).scale(hop_out)
    zz = (sp.sz[a] @ sp.sz[b]).scale(qq / 4)
    lin = (sp.sz[a] - sp.sz[b]).scale(dq / 4)
    if flipped:
        return op - zz + lin - sp.eye.scale(g)
    return op + zz + lin + sp.eye.scale(g)


def _ring_terms(sp: _Spins, zs, params: Params, flipped: bool = False) -> list:
    # bond i joins sites (n, 1) for i = 0 and (i, i + 1) otherwise; its
    # hop weights are (z_i^-1, z_i), swapped in the flipped variant
    n = sp.n
    out = []
    for i, zi in enumerate(zs):
        a, b = (n, 1) if i == 0 else (i, i + 1)
        hops = (zi, zi ** -1) if flipped else (zi ** -1, zi)
        out.append(_bulk_term(sp, a, b, params, flipped, *hops))
    return out


def _pair_term(sp: _Spins, a: int, b: int, params: Params, head: bool,
               z2: Scalar) -> Operator:
    # pair creation/annihilation node acting on adjacent sites a, b;
    # the zz sign follows the embedding route (the d-coefficient times
    # k^{-1} expands to -(q+q^{-1})/4 zz -+ (q-q^{-1})/4 (sz_a+sz_b) + Gamma)
    qq = params.q + params.q ** -1
    dq = params.q - params.q ** -1
    g = gamma(params)
    if head:
        op = (sp.sp[a] @ sp.sp[b]).scale(z2) + (sp.sm[a] @ sp.sm[b]).scale(z2 ** -1)
        lin = (sp.sz[a] + sp.sz[b]).scale(-dq / 4)
    else:
        op = sp.sp[a] @ sp.sp[b] + sp.sm[a] @ sp.sm[b]
        lin = (sp.sz[a] + sp.sz[b]).scale(dq / 4)
    return op - (sp.sz[a] @ sp.sz[b]).scale(qq / 4) + lin + sp.eye.scale(g)


def _single_term(sp: _Spins, a: int, params: Params, head: bool, kk: int,
                 z1: Scalar) -> Operator:
    t = params.t
    if head:
        op = sp.sp[a].scale(z1) + sp.sm[a].scale(z1 ** -1)
    else:
        op = sp.sp[a] + sp.sm[a]
    if kk == 2:
        return op
    c = (t - t ** -1) * params.mu / 2
    const = (t - t ** -1) * (t ** 2 - t ** -2) * params.mu / ((t ** 2 + t ** -2) * 2)
    sign = -1 if head else 1
    return op + sp.sz[a].scale(c * sign) - sp.eye.scale(const)


def pauli_generators(spec: CoidealSpec, params: Params) -> tuple:
    """Local-spin route: b_i assembled from Pauli terms, never touching e/f/k."""
    fam = spec.fam
    n = fam.n
    sp = _Spins(n)
    z = params.z
    out = []
    if fam.tag == "A1":
        return tuple(_ring_terms(sp, (z,) + (ONE,) * (n - 1), params, spec.variant))
    for i in range(n + 1):
        if i == 0:
            if fam.r == 1:
                out.append(_single_term(sp, 1, params, True, spec.k, z))
            else:
                out.append(_pair_term(sp, 1, 2, params, True, z ** 2))
        elif i == n:
            if fam.rp == 1:
                out.append(_single_term(sp, n, params, False, spec.kp, z))
            else:
                out.append(_pair_term(sp, n - 1, n, params, False, z ** 2))
        else:
            out.append(_bulk_term(sp, i, i + 1, params, False))
    return tuple(out)


def check_routes_agree(spec: CoidealSpec, bs, params: Params) -> Report:
    """Compare the embedding-route generators bs with the local-spin route."""
    rep = Report()
    for i, (x, y) in enumerate(zip(bs, pauli_generators(spec, params))):
        rep.add_zero(f"b{i} embedding vs local-spin", x - y)
    return rep


def check_onsager_relations(bs, cartan, params: Params) -> Report:
    """Verify the deformed commutation relations dictated by the Cartan matrix."""
    rep = Report()
    add_cartan_relations(rep, "b", bs, cartan, params.p, True)
    return rep


def hamiltonian_kappa(spec: CoidealSpec, params: Params) -> tuple:
    """Coefficient recipe that cancels all single-site sz terms in the sum."""
    fam = spec.fam
    n = fam.n
    if fam.tag == "A1":
        if spec.variant:
            raise SpecError("no fixed recipe for the variant generators")
        return (ONE,) * n
    if (spec.k, spec.kp) != (fam.r, fam.rp):
        raise SpecError(
            f"fixed recipe needs (k, kp) = ({fam.r}, {fam.rp}), got ({spec.k}, {spec.kp})")
    t = params.t
    mt = (t + t ** -1) * (-params.mu)
    if fam.tag == "D2":
        return (mt / 2,) + (ONE,) * (n - 1) + (mt / 2,)
    if fam.tag == "B1":
        return (ONE, ONE) + (TWO,) * (n - 2) + (mt,)
    if fam.tag == "BT1":
        return (mt,) + (TWO,) * (n - 2) + (ONE, ONE)
    return (ONE, ONE) + (TWO,) * (n - 3) + (ONE, ONE)


def hamiltonian_from(bs, kappas) -> Operator:
    total = None
    for b, kap in zip(bs, kappas):
        term = b.scale(kap)
        total = term if total is None else total + term
    return total


def hamiltonian(spec: CoidealSpec, params: Params) -> Operator:
    return hamiltonian_from(onsager_generators(spec, params),
                            hamiltonian_kappa(spec, params))


def bond_parameters(zs) -> list:
    """One spectral parameter per bond as Scalars (ints and Fractions are
    converted); a zero one raises GenericityError."""
    zlist = []
    for v in zs:
        if not isinstance(v, Scalar):
            v = Scalar(v.numerator, 0, v.denominator)
        if v.is_zero():
            raise GenericityError("bond parameters must be nonzero")
        zlist.append(v)
    return zlist


def hamiltonian_multi(zs, params: Params) -> Operator:
    """Cyclic chain with an independent spectral parameter on every bond."""
    n = len(zs)
    if n < 3:
        raise RangeError(f"cyclic chain needs n >= 3, got {n}")
    # the (sz_a - sz_b) parts of the bond terms cancel around the ring
    return hamiltonian_from(_ring_terms(_Spins(n), bond_parameters(zs), params),
                            (ONE,) * n)


def tl_generators(n: int, params: Params) -> tuple:
    """Bulk variant generators shifted to satisfy the Temperley-Lieb relations."""
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    sp = _Spins(n)
    shift = (params.q + params.q ** -1) ** -1
    out = []
    for i in range(1, n):
        b = _bulk_term(sp, i, i + 1, params, True)
        out.append(b + sp.eye.scale(shift))
    return tuple(out)


def check_tl_relations(n: int, params: Params) -> Report:
    rep = Report()
    ts = tl_generators(n, params)
    qq = params.q + params.q ** -1
    m = len(ts)
    for i in range(m):
        rep.add_zero(f"t{i + 1} idempotent-type", ts[i] @ ts[i] - ts[i].scale(qq))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if abs(i - j) == 1:
                diff = ts[i] @ ts[j] @ ts[i] - ts[i]
                label = f"t{i + 1} t{j + 1} t{i + 1} contraction"
            else:
                diff = commutator(ts[i], ts[j])
                label = f"t{i + 1} t{j + 1} commute"
            rep.add_zero(label, diff)
    # the shifted generators must also satisfy the cubic coideal relation
    shift = (params.q + params.q ** -1) ** -1
    dim = 1 << n
    eye = Operator.identity(dim)
    bs = [t - eye.scale(shift) for t in ts]
    for i in range(m):
        for j in range(m):
            if abs(i - j) == 1:
                rep.add_zero(f"shifted t{i + 1} t{j + 1} cubic",
                             serre_residual(bs[i], bs[j], -1, params.p, inhomogeneous=True))
    return rep
