"""Spans around onsk calls, recorded from outside the package.

`Tracer.install` replaces every public function of each onsk module, at
every module that imports it, with a wrapper that records one span: the
function's name, its start and end on `time.perf_counter`, and the span
that was open when it was called.  A few methods that carry most of the
work (sparse `Operator` algebra, q-boson normal ordering and traces) are
wrapped the same way.  `Scalar` arithmetic is far too fine-grained for
spans, so its calls are only counted.  `uninstall` puts every original
back.  Nothing inside `src/onsk` is changed.

Spans are kept in flat arrays and reduced to the per-layer metrics by
`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from array import array

MODULES = ("field", "linalg", "poch", "spinrep", "onsager", "qboson",
           "kmatrix", "spectra", "sp4", "report", "cli")

# Work-carrying methods that get spans like module functions.  Cheap
# accessors (Operator.get/set, QBosonEngine.amap and the letter
# constructors) are left out: they run millions of times per round and
# their time stays in the calling span's self time.
METHODS = {
    ("linalg", "Operator"): ("__matmul__", "__add__", "__sub__", "__eq__",
                             "scale", "transpose", "dagger", "apply"),
    ("qboson", "QBosonEngine"): ("mul", "mulseq", "trace"),
}

# Scalar add, sub, mul, div, inverse and pow, in every operand order.
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "inverse", "__pow__")

BENCH = "bench"   # module name of the benchmark's own per-operation spans

_BUILD = ("kmatrix.build_ktr", "kmatrix.build_kkk", "kmatrix.build_ktr_multi")
_SOLVE = ("kmatrix.solve_intertwiner", "kmatrix.solve_intertwiner_space")
_CHECK = ("kmatrix.check_unitarity", "kmatrix.check_commutativity",
          "kmatrix.check_intertwining", "kmatrix.check_kh_commute")
_VERIFY = ("spectra.verify_tr_spectrum", "spectra.verify_tr_middle",
           "spectra.verify_k11_k21_joint", "spectra.verify_k12_k22")
_RANK = ("linalg.rref", "linalg.rank_rows", "linalg.rank", "linalg.nullspace_rows")
_LEMMA = "sp4.check_lemma_identities"
_ANNIHILATION = "sp4.check_annihilation"

# Spans nested below one of these take its role; the nearest one wins.
_ROLES = {**{n: "build" for n in _BUILD}, **{n: "solve" for n in _SOLVE},
          **{n: "check" for n in _CHECK}, _LEMMA: "lemma",
          _ANNIHILATION: "annihilation"}


class Tracer:
    """Span recorder for one traced round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised: set[int] = set()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._ops = itertools.count()

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _spanned(self, fn, name: str):
        nid = self._id(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def root(self, label: str, fn):
        """Run fn() inside a benchmark-owned span named bench.<label>."""
        return self._spanned(fn, f"{BENCH}.{label}")()

    def scalar_ops(self) -> int:
        """Scalar arithmetic calls counted since install; read it once."""
        return next(self._ops)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = [importlib.import_module("onsk." + m) for m in MODULES]
        mods.append(importlib.import_module("onsk"))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if not (inspect.isfunction(val) and val.__module__.startswith("onsk.")):
                    continue
                if val.__name__.startswith("_"):
                    continue
                name = f"{val.__module__[len('onsk.'):]}.{val.__name__}"
                self._patch(mod, attr, self._spanned(val, name))
        for (modname, clsname), methods in METHODS.items():
            cls = getattr(importlib.import_module("onsk." + modname), clsname)
            for meth in methods:
                self._patch(cls, meth,
                            self._spanned(getattr(cls, meth), f"{modname}.{clsname}.{meth}"))
        scalar = importlib.import_module("onsk.field").Scalar
        tick = self._ops.__next__
        for meth in SCALAR_OPS:
            self._patch(scalar, meth, _counted(getattr(scalar, meth), tick))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _counted(fn, tick):
    @functools.wraps(fn)
    def op(*args):
        tick()
        return fn(*args)
    return op


def layer_metrics(tr: Tracer, wall: float, scalar_ops: int) -> dict:
    """Reduce one round's spans to per-layer numbers.

    Self time is a span's duration minus the durations of its direct
    children.  Role-based sums (build, solve, check, lemma, annihilation)
    take the self time of every span of the layer's own module below the
    nearest span that names the role.
    """
    names = tr.names
    nid, parent, start, end = tr.name_id, tr.parent, tr.start, tr.end
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    module_of = [name.split(".", 1)[0] for name in names]
    role_of_name = [_ROLES.get(name) for name in names]

    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_module: dict[str, float] = {}
    self_by_role: dict[tuple, float] = {}
    role = [None] * n
    contractions_in_build = 0
    build_inclusive = 0.0
    verify_ok = 0
    for i in range(n):
        name = names[nid[i]]
        p = parent[i]
        inherited = role[p] if p >= 0 else None
        own = role_of_name[nid[i]]
        role[i] = own or inherited
        s = dur[i] - child[i]
        mod = module_of[nid[i]]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + s
        self_by_module[mod] = self_by_module.get(mod, 0.0) + s
        key = (mod, role[i])
        self_by_role[key] = self_by_role.get(key, 0.0) + s
        if own == "build" and inherited != "build":
            build_inclusive += dur[i]
        if role[i] == "build" and name in ("qboson.QBosonEngine.trace",
                                           "qboson.boundary_contract"):
            contractions_in_build += 1
        if name in _VERIFY and i not in tr.raised:
            verify_ok += 1

    def c(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def s(*keys):
        return sum(self_by_name.get(k, 0.0) for k in keys)

    verify_calls = c(*_VERIFY)
    module_self = sum(v for m, v in self_by_module.items() if m != BENCH)
    return {
        "field.ops": scalar_ops,
        "linalg.matmul_calls": c("linalg.Operator.__matmul__"),
        "linalg.matmul_s": s("linalg.Operator.__matmul__"),
        "linalg.rank_calls": c("linalg.rank_rows"),
        "linalg.rank_s": s(*_RANK),
        "qboson.mul_calls": c("qboson.QBosonEngine.mul"),
        "qboson.mul_s": s("qboson.QBosonEngine.mul", "qboson.QBosonEngine.mulseq"),
        "qboson.trace_s": s("qboson.QBosonEngine.trace"),
        "qboson.contract_calls": c("qboson.boundary_contract"),
        "qboson.contract_s": s("qboson.boundary_contract", "qboson.eliminate_annihilators"),
        "qboson.oracle_calls": c("qboson.boundary_contract_oracle"),
        "qboson.oracle_s": s("qboson.boundary_contract_oracle"),
        "kmatrix.build_calls": c(*_BUILD),
        "kmatrix.build_s": self_by_role.get(("kmatrix", "build"), 0.0),
        "kmatrix.entries_per_s": (contractions_in_build / build_inclusive
                                  if build_inclusive > 0 else 0.0),
        "kmatrix.solve_s": self_by_role.get(("kmatrix", "solve"), 0.0),
        "kmatrix.check_s": self_by_role.get(("kmatrix", "check"), 0.0),
        "spinrep.self_s": self_by_module.get("spinrep", 0.0),
        "onsager.self_s": self_by_module.get("onsager", 0.0),
        "spectra.verify_calls": verify_calls,
        "spectra.sample_yield": verify_ok / verify_calls if verify_calls else 0.0,
        "spectra.self_s": s(*_VERIFY),
        "sp4.lemma_s": self_by_role.get(("sp4", "lemma"), 0.0),
        "sp4.annihilation_s": self_by_role.get(("sp4", "annihilation"), 0.0),
        "cli.self_s": self_by_module.get("cli", 0.0),
        "poch.self_s": self_by_module.get("poch", 0.0),
        "trace.wall_s": wall,
        "trace.coverage": module_self / wall if wall > 0 else 0.0,
        "trace.spans": n,
    }
