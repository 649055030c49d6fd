"""Command-line interface: verify identity suites, dump operators, list spectra.

Subcommands:
  verify    run a named check suite and report pass/fail per identity
  dump      print one constructed object as sparse (row, col, value) entries
  spectrum  print eigenvalue certificates, by default as CSV rows

Spectral certificates are proved at the reported z and at a second point
w, the z of the first later seed that is neither z nor 1/z; JSON output
names w.  Exit status is 0 when every check passes, 1 when any check fails
(the first failing identity is named on stderr) and 2 for configuration
errors, among them a spectral point at which two closed-form eigenvalues
of one certificate coincide (stderr names the point) and a verify flag
that no selected suite reads (stderr names the flag).  The
environment variable ONSK_SEED overrides --seed.  Parameter literals are
exact rationals, "3/5" or "1/2+2/3*i".  Runs with the same seed and flags
produce byte-identical reports apart from the elapsed_ms field of JSON
output, which is wall-clock timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .field import (BadLiteral, GenericityError, Params, PoleError, Scalar,
                    format_scalar, make_params, parse_scalar, sample_params)
from .kmatrix import (ZeroNormalizer, build_kkk, build_ktr,
                      check_commutativity, check_intertwining,
                      check_kh_commute, check_unitarity, kmatrix_for)
from .linalg import Operator
from .onsager import (CoidealSpec, SpecError,
                      check_onsager_relations, check_routes_agree,
                      check_tl_relations, hamiltonian, hamiltonian_kappa,
                      onsager_generators)
from .report import Report
from .sp4 import (TruncationMarginError, check_annihilation, check_boundary_series,
                  check_lemma_identities)
from .spectra import DegenerateEigenvalues, spectrum_family, spectrum_suite
from .spinrep import (ALIASES, Family, RangeError, check_defining_relations,
                      generators)

SUITES = ("defining-relations", "onsager", "kmatrix", "spectra", "sp4")
DUMP_TARGETS = ("kmatrix", "hamiltonian", "generators")
FORMATS = ("text", "json", "csv")

# flags that only some subcommands define; resolve() sets the rest to None
_OPTIONAL_FLAGS = ("suite", "target", "family", "n", "k", "kp", "trunc")

# the optional verify flags each suite reads; cmd_verify refuses the others
_SUITE_FLAGS = {
    "defining-relations": ("family", "n"),
    "onsager": ("family", "n", "k", "kp"),
    "kmatrix": ("family", "n", "k", "kp"),
    "spectra": ("family", "n"),
    "sp4": ("trunc",),
}

_CONFIG_ERRORS = (BadLiteral, DegenerateEigenvalues, GenericityError,
                  PoleError, RangeError, SpecError, TruncationMarginError,
                  ZeroNormalizer, OSError)


class ConfigError(ValueError):
    """Unusable flag combination; reported on stderr with exit status 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onsk",
        description="Exact checks for reflection K matrices and "
                    "Onsager-algebra spin chains.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0,
                       help="parameter sample seed; env ONSK_SEED overrides")
        p.add_argument("--t", type=parse_scalar, default=None, metavar="LIT",
                       help='deformation parameter, e.g. "2/5" or "1/2+1/3*i"')
        p.add_argument("--z", type=parse_scalar, default=None, metavar="LIT",
                       help="spectral parameter literal")
        p.add_argument("--eps", type=int, choices=(1, -1), default=None,
                       help="sign normalization of p")
        p.add_argument("--mu", type=int, choices=(1, -1), default=None,
                       help="sign normalization of the square root of q")
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="output format; defaults to text, or csv for "
                            "spectral certificates")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write the report to a file instead of stdout")

    pv = sub.add_parser("verify", help="run a check suite")
    pv.add_argument("--suite", choices=SUITES + ("all",), default="all")
    pv.add_argument("--family", default=None,
                    help="chain family: A, D2, B1, BT1 or D1")
    pv.add_argument("--n", type=int, default=None, help="number of sites")
    pv.add_argument("--k", type=int, default=None,
                    help="left boundary label (bounded families only)")
    pv.add_argument("--kp", type=int, default=None,
                    help="right boundary label (bounded families only)")
    pv.add_argument("--trunc", type=int, default=None, metavar="M",
                    help="Fock-space cutoff for the sp4 suite (>= 10, default 10)")
    add_common(pv)

    pd = sub.add_parser("dump", help="print a constructed object")
    pd.add_argument("target", choices=DUMP_TARGETS)
    pd.add_argument("--family", required=True,
                    help="chain family: A, D2, B1, BT1 or D1")
    pd.add_argument("--n", type=int, required=True, help="number of sites")
    pd.add_argument("--k", type=int, default=None,
                    help="left boundary label (bounded families only)")
    pd.add_argument("--kp", type=int, default=None,
                    help="right boundary label (bounded families only)")
    add_common(pd)

    ps = sub.add_parser("spectrum", help="print eigenvalue certificates")
    ps.add_argument("--family", default=None,
                    help="restrict to one family's K matrix")
    ps.add_argument("--n", type=int, required=True, help="number of sites")
    add_common(ps)
    return parser


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill in the parsed flags: the ONSK_SEED override, the canonical
    family tag, the default format and None for flags the subcommand lacks."""
    env = os.environ.get("ONSK_SEED")
    if env is not None and env.strip():
        try:
            args.seed = int(env)
        except ValueError:
            raise ConfigError(f"ONSK_SEED must be an integer, got {env!r}") from None
    for flag in _OPTIONAL_FLAGS:
        if not hasattr(args, flag):
            setattr(args, flag, None)

    if args.family is not None:
        tag = ALIASES.get(args.family.upper())
        if tag is None:
            raise ConfigError(f"unknown family {args.family!r}; "
                              f"choose from A, D2, B1, BT1, D1")
        args.family = tag

    if args.format is None:
        spectral = args.subcommand == "spectrum" or args.suite == "spectra"
        args.format = "csv" if spectral else "text"
    return args


def resolved_params(cfg: argparse.Namespace) -> Params:
    """Seeded sample point with any explicit flag overrides applied."""
    base = sample_params(cfg.seed)
    return make_params(cfg.t if cfg.t is not None else base.t,
                       cfg.z if cfg.z is not None else base.z,
                       cfg.eps if cfg.eps is not None else base.eps,
                       cfg.mu if cfg.mu is not None else base.mu)


def _second_point(cfg: argparse.Namespace, params: Params) -> Scalar:
    """The spectral point w paired with params.z in two-point checks.

    It is the z of the first seed after cfg.seed whose sampled z is
    neither z nor 1/z; at w = 1/z the trace composition K(w)K(z) is the
    identity and its eigenvalues all coincide.
    """
    z = params.z
    seed = cfg.seed
    while True:
        seed += 1
        w = sample_params(seed).z
        if w != z and w != z.inverse():
            return w


def _family(cfg: argparse.Namespace) -> Family:
    what = cfg.suite or cfg.target or cfg.subcommand
    if cfg.family is None:
        raise ConfigError(f"--family is required for {what}")
    if cfg.n is None:
        raise ConfigError(f"--n is required for {what}")
    return Family(cfg.family, cfg.n)


def _coideal(cfg: argparse.Namespace, fam: Family) -> CoidealSpec:
    if fam.tag == "A1":
        if cfg.k is not None or cfg.kp is not None:
            raise ConfigError("--k/--kp apply only to the bounded families")
        return CoidealSpec(fam)
    # boundary labels default to the smallest pair the family admits
    k = cfg.k if cfg.k is not None else fam.r
    kp = cfg.kp if cfg.kp is not None else fam.rp
    return CoidealSpec(fam, k, kp)


# ---------------------------------------------------------------------------
# verify


def _suite_defining(cfg: argparse.Namespace, params: Params) -> Report:
    fam = _family(cfg)
    return check_defining_relations(fam, generators(fam, params), params)


def _suite_onsager(cfg: argparse.Namespace, params: Params) -> Report:
    spec = _coideal(cfg, _family(cfg))
    bs = onsager_generators(spec, params)
    rep = Report()
    rep.extend(check_routes_agree(spec, bs, params))
    rep.extend(check_onsager_relations(bs, spec.fam.cartan, params))
    if spec.fam.tag == "A1":
        rep.extend(check_tl_relations(spec.fam.n, params))
    return rep


def _suite_kmatrix(cfg: argparse.Namespace, params: Params) -> Report:
    fam = _family(cfg)
    spec = _coideal(cfg, fam)
    rep = Report()
    # each matrix is built right before its first use, dropped after its last
    km = kmatrix_for(spec, params)
    if fam.tag == "A1":
        n, z = fam.n, params.z
        rep.extend(check_unitarity(km, build_ktr(n, z.inverse(), params)))
        w = _second_point(cfg, params)
        rep.extend(check_commutativity(km, build_ktr(n, w, params),
                                       build_kkk(1, 1, n, z, params),
                                       build_kkk(1, 1, n, w, params)))
    rep.extend(check_intertwining(spec, km, params))
    rep.extend(check_kh_commute(spec, km, params))
    return rep


def _spectral_reports(cfg: argparse.Namespace, params: Params, w: Scalar) -> list:
    if cfg.n is None:
        raise ConfigError("--n is required for spectral certificates")
    if cfg.family is None:
        return spectrum_suite(cfg.n, params, w)
    fam = _family(cfg)
    # the eigenvalue family of the chain's K matrix: K_tr, or K_(r, r')
    tag = "tr" if fam.tag == "A1" else f"k{fam.r}{fam.rp}"
    return spectrum_family(tag, fam.n, params, w)


def _spectral_checks(reports) -> Report:
    rep = Report()
    for sr in reports:
        for row in sr.rows:
            where = f"l={row.l}" if row.j is None else f"l={row.l} j={row.j}"
            rep.add(f"{row.family} n={row.n} {where} eigenvalue", row.ok,
                    f"value {format_scalar(row.value)}, "
                    f"rank {row.rank}, expected {row.expected}")
        rep.extend(sr.checks)
    return rep


def _suite_sp4(cfg: argparse.Namespace, params: Params) -> Report:
    trunc = 10 if cfg.trunc is None else cfg.trunc
    if trunc < 10:
        raise ConfigError(f"the sp4 suite needs --trunc >= 10, got {trunc}")
    rep = Report()
    rep.extend(check_lemma_identities(params, trunc))
    # the boundary series do not depend on the label: proved once, reported after each
    series = check_boundary_series(params, trunc)
    for r, k in ((1, 1), (1, 2), (2, 2)):
        rep.extend(check_annihilation(r, k, params, trunc))
        rep.extend(series)
    return rep


def cmd_verify(cfg: argparse.Namespace) -> int:
    start = time.perf_counter()
    wanted = SUITES if cfg.suite == "all" else (cfg.suite,)
    read = {flag for suite in wanted for flag in _SUITE_FLAGS[suite]}
    for flag in ("family", "n", "k", "kp", "trunc"):
        if getattr(cfg, flag) is not None and flag not in read:
            raise ConfigError(f"--{flag} is not read by the {cfg.suite} suite")
    params = resolved_params(cfg)
    if "kmatrix" in wanted:
        # check_kh_commute needs the Hamiltonian recipe: a pair without one
        # is refused here, before any suite runs
        hamiltonian_kappa(_coideal(cfg, _family(cfg)), params)
    rep = Report()
    w = None
    for suite in wanted:
        if suite == "defining-relations":
            rep.extend(_suite_defining(cfg, params))
        elif suite == "onsager":
            rep.extend(_suite_onsager(cfg, params))
        elif suite == "kmatrix":
            rep.extend(_suite_kmatrix(cfg, params))
        elif suite == "spectra":
            w = _second_point(cfg, params)
            spectral = _spectral_reports(cfg, params, w)
            rep.extend(_spectral_checks(spectral))
        else:
            rep.extend(_suite_sp4(cfg, params))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if cfg.format == "json":
        text = _json(_point_doc(cfg, cfg.suite, params, w,
                                checks=_records(_CHECK_KEYS, _check_rows(rep.checks)),
                                elapsed_ms=elapsed_ms))
    elif cfg.format == "csv" and cfg.suite == "spectra":
        text = _csv(_SPECTRAL_KEYS, _spectral_rows(spectral))
    elif cfg.format == "csv":
        text = _csv(_CHECK_KEYS, _check_rows(rep.checks))
    else:
        text = _text(cfg, f"verify {cfg.suite}", rep)
    _emit(cfg, text)
    return _verdict(rep)


def _verdict(rep: Report) -> int:
    bad = rep.failures()
    if not bad:
        return 0
    print(f"FAIL: {bad[0].name}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# rendering: every output format is written here and nowhere else

# a JSON row's keys are its CSV table's header, in the same order
_CHECK_KEYS = ("name", "status", "detail")
_SPECTRAL_KEYS = ("n", "family", "l", "j", "value", "observed", "expected", "status")


def _check_rows(checks) -> list:
    return [(c.name, c.status, c.detail) for c in checks]


def _spectral_rows(reports) -> list:
    return [(row.n, row.family, row.l, row.j, format_scalar(row.value), row.rank,
             row.expected, "pass" if row.ok else "fail")
            for sr in reports for row in sr.rows]


def _records(keys, rows) -> list:
    return [dict(zip(keys, row)) for row in rows]


def _params_dict(params: Params) -> dict:
    return {"t": format_scalar(params.t), "z": format_scalar(params.z),
            "eps": params.eps, "mu": params.mu}


def _point_doc(cfg: argparse.Namespace, suite: str, params: Params, w, **body) -> dict:
    doc = {"suite": suite, "family": cfg.family, "n": cfg.n,
           "params": _params_dict(params)}
    if w is not None:
        doc["w"] = format_scalar(w)
    doc.update(body)
    return doc


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _csv_field(x) -> str:
    s = "" if x is None else str(x)
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv(header, rows) -> str:
    return _lines([",".join(header)] + [",".join(map(_csv_field, row)) for row in rows])


def _text(cfg: argparse.Namespace, title: str, rep: Report) -> str:
    head = [title]
    if cfg.family is not None:
        head.append(f"family={cfg.family}")
    if cfg.n is not None:
        head.append(f"n={cfg.n}")
    head.append(f"seed={cfg.seed}")
    lines = [" ".join(head)]
    for name, status, detail in _check_rows(rep.checks):
        line = f"{status:>4}  {name}"
        if detail:
            line += f"  [{detail}]"
        lines.append(line)
    npass = sum(1 for c in rep.checks if c.ok)
    lines.append(f"{npass}/{len(rep.checks)} checks passed")
    return _lines(lines)


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# dump


def _entries(op: Operator) -> list:
    """(row, col, value) of every nonzero entry, in row-major order."""
    return sorted((r, c, format_scalar(v)) for r, c, v in op.entries())


def _dump_head(meta: dict) -> list:
    head = " ".join(f"{k}={v}" for k, v in meta.items()
                    if k != "params" and v is not None)
    p = meta["params"]
    return [f"# {head}", f"# params t={p['t']} z={p['z']} eps={p['eps']} mu={p['mu']}"]


def _render_dump(cfg: argparse.Namespace, meta: dict, op: Operator) -> str:
    entries = _entries(op)
    if cfg.format == "json":
        return _json({**meta, "shape": [op.nrows, op.ncols], "entries": entries})
    if cfg.format == "csv":
        return _csv(("row", "col", "value"), entries)
    return _lines(_dump_head(meta)
                  + [f"# shape {op.nrows} x {op.ncols}, {len(entries)} entries"]
                  + [" ".join(map(str, e)) for e in entries])


def _render_generators(cfg: argparse.Namespace, meta: dict, named: list) -> str:
    tables = [(name, op, _entries(op)) for name, op in named]
    if cfg.format == "json":
        return _json({**meta, "generators": [
            {"name": name, "shape": [op.nrows, op.ncols], "entries": entries}
            for name, op, entries in tables]})
    if cfg.format == "csv":
        return _csv(("generator", "row", "col", "value"),
                    [(name, *e) for name, _, entries in tables for e in entries])
    lines = _dump_head(meta)
    for name, _, entries in tables:
        lines.append(f"# generator {name}, {len(entries)} entries")
        lines += [" ".join(map(str, e)) for e in entries]
    return _lines(lines)


def cmd_dump(cfg: argparse.Namespace) -> int:
    params = resolved_params(cfg)
    fam = _family(cfg)
    meta = {"target": cfg.target, "family": fam.tag, "n": fam.n,
            "params": _params_dict(params)}
    if cfg.target == "generators":
        gens = generators(fam, params)
        named = []
        for i in range(fam.nprime + 1):
            named.append((f"e{i}", gens.e[i]))
            named.append((f"f{i}", gens.f[i]))
            named.append((f"kplus{i}", gens.kplus[i]))
            named.append((f"kminus{i}", gens.kminus[i]))
        _emit(cfg, _render_generators(cfg, meta, named))
        return 0
    spec = _coideal(cfg, fam)
    meta.update(k=spec.k, kp=spec.kp)
    if cfg.target == "hamiltonian":
        op = hamiltonian(spec, params)
    else:
        op = kmatrix_for(spec, params).operator
    _emit(cfg, _render_dump(cfg, meta, op))
    return 0


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    start = time.perf_counter()
    params = resolved_params(cfg)
    w = _second_point(cfg, params)
    reports = _spectral_reports(cfg, params, w)
    rep = _spectral_checks(reports)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if cfg.format == "csv":
        text = _csv(_SPECTRAL_KEYS, _spectral_rows(reports))
    elif cfg.format == "json":
        checks = _check_rows(c for sr in reports for c in sr.checks.checks)
        text = _json(_point_doc(cfg, "spectrum", params, w,
                                rows=_records(_SPECTRAL_KEYS, _spectral_rows(reports)),
                                checks=_records(_CHECK_KEYS, checks),
                                elapsed_ms=elapsed_ms))
    else:
        text = _text(cfg, "spectral certificates", rep)
    _emit(cfg, text)
    return _verdict(rep)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve(args)
        if cfg.subcommand == "verify":
            return cmd_verify(cfg)
        if cfg.subcommand == "dump":
            return cmd_dump(cfg)
        return cmd_spectrum(cfg)
    except (ConfigError, *_CONFIG_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
