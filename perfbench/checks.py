"""Output checks made apart from the code under test.

Every check works in `fractions.Fraction` arithmetic on the parsed CLI
output or on plain numbers read off the returned objects, and returns a
list of problems (empty when the output is right).  Closed forms are
evaluated here from the paper's formulas; nothing is compared with a
stored copy of earlier output.  `controls` perturbs one entry of real
output for each check and reports whether the check caught it.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from math import comb

ONE = (Fraction(1), Fraction(0))
ORACLE_TARGET = Fraction(1, 10 ** 25)


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions


def gauss(text: str) -> tuple:
    """Parse the CLI's "a/b+c/d*i" form."""
    if not text.endswith("*i"):
        raise ValueError(f"not a Gaussian rational literal: {text!r}")
    re, im = text[:-2].split("+", 1)
    return Fraction(re), Fraction(im)


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return _mul(x, (y[0] / n, -y[1] / n))


def _pow(x, k: int):
    out = ONE
    for _ in range(k):
        out = _mul(out, x)
    return out


def _neg(x):
    return -x[0], -x[1]


def _poch(x, q, n: int):
    """(x; q)_n = prod_{l<n} (1 - x q^l)."""
    out, cur = ONE, x
    for _ in range(n):
        out = _mul(out, _sub(ONE, cur))
        cur = _mul(cur, q)
    return out


def _point(doc) -> tuple:
    """(t, z, q) of a report, with q = -t^2."""
    t = gauss(doc["params"]["t"])
    z = gauss(doc["params"]["z"])
    return t, z, _neg(_mul(t, t))


def _popcount(x: int) -> int:
    return bin(x).count("1")


def scalar_pair(s) -> tuple:
    """An onsk Scalar (a + b i)/d as a (re, im) pair."""
    return Fraction(s.a, s.d), Fraction(s.b, s.d)


def operator_entries(op) -> dict:
    return {(r, c): scalar_pair(v) for r, c, v in op.entries()}


def _dump_entries(doc) -> dict:
    return {(r, c): gauss(v) for r, c, v in doc["entries"]}


# ---------------------------------------------------------------------------
# chain


def suite_problems(rc: int, doc) -> list:
    """Every check of a verify suite reads pass."""
    out = [] if rc == 0 else [f"exit status {rc}"]
    if not doc["checks"]:
        out.append("no checks reported")
    out += [f"{c['name']}: {c['status']}" for c in doc["checks"]
            if c["status"] != "pass"]
    return out


def support_problems(doc, rule: str) -> list:
    """Entries lie on |row| + |col| = n ("weight") or on even
    |row| + |col| + n ("parity")."""
    n = doc["n"]
    out = []
    if doc["shape"] != [1 << n, 1 << n]:
        out.append(f"shape {doc['shape']} for n={n}")
    for r, c, _ in doc["entries"]:
        w = _popcount(r) + _popcount(c)
        bad = w != n if rule == "weight" else (w + n) % 2 != 0
        if bad:
            out.append(f"entry ({r},{c}) off the {rule} support")
            break
    return out


def corner_value(k: int, kp: int, n: int, z, q):
    """Closed form of the all-up from all-down entry of K_(k,kp)."""
    if (k, kp) != (2, 2):
        zm = _pow(z, max(k, kp))
        qk = _pow(q, k * kp)
        return _div(_poch(zm, qk, n), _poch(_neg(_mul(q, zm)), qk, n))
    z2, q2 = _mul(z, z), _mul(q, q)
    q4 = _mul(q2, q2)
    if n % 2 == 0:
        return _div(_poch(z2, q4, n // 2), _poch(_mul(q2, z2), q4, n // 2))
    return _div(_poch(_mul(q2, z2), q4, (n - 1) // 2), _poch(z2, q4, (n + 1) // 2))


def corner_problems(doc) -> list:
    n, k, kp = doc["n"], doc["k"], doc["kp"]
    _, z, q = _point(doc)
    want = corner_value(k, kp, n, z, q)
    got = _dump_entries(doc).get(((1 << n) - 1, 0), (Fraction(0), Fraction(0)))
    return [] if got == want else [f"({k},{kp}) corner entry {got} != closed form {want}"]


def inverse_problems(doc_z, doc_w) -> list:
    """The two trace-kind dumps are at reciprocal points and K(z) K(1/z) = I."""
    _, z, _ = _point(doc_z)
    _, w, _ = _point(doc_w)
    out = []
    if _mul(z, w) != ONE:
        out.append(f"dumps are not at reciprocal points: {z} and {w}")
    dim = doc_z["shape"][0]
    a, b = _dump_entries(doc_z), _dump_entries(doc_w)
    brows: dict = {}
    for (r, c), v in b.items():
        brows.setdefault(r, []).append((c, v))
    prod: dict = {}
    for (r, k), v in a.items():
        for c, u in brows.get(k, ()):
            prod[(r, c)] = _add(prod.get((r, c), (Fraction(0), Fraction(0))), _mul(v, u))
    for r in range(dim):
        for c in range(dim):
            want = ONE if r == c else (Fraction(0), Fraction(0))
            if prod.get((r, c), (Fraction(0), Fraction(0))) != want:
                out.append(f"K(z) K(1/z) differs from I at ({r},{c})")
                return out
    return out


def solver_problems(solved: dict, built: dict) -> list:
    """The exchange-relation solution equals the built K matrix entrywise."""
    if solved == built:
        return []
    keys = sorted(set(solved) | set(built))
    first = next(k for k in keys if solved.get(k) != built.get(k))
    return [f"solver and build differ at {first}: {solved.get(first)} vs {built.get(first)}"]


# ---------------------------------------------------------------------------
# spectrum


def multiplicity(family: str, n: int, l: int, j) -> int:
    """Dimension of one certified eigenspace, counted from binomials."""
    if family == "tr":
        m = min(j, n - j)
        return comb(n, m) - (comb(n, m - 1) if m else 0)
    if family == "k22" and not (n % 2 == 0 and 2 * l == n):
        return 2 * comb(n, l)
    return comb(n, l)


def _block_key(row) -> tuple:
    return (row["family"], row["l"]) if row["family"] == "tr" else (row["family"],)


def _block_shape(n: int, key) -> tuple:
    """(dimension, eigenvalue indices) of one certified block."""
    if key[0] == "tr":
        l = key[1]
        idx = range(0, l + 1) if 2 * l <= n else range(l, n + 1)
        return comb(n, l), set(idx)
    top = n if key[0] != "k22" else n // 2
    return 1 << n, set(range(top + 1))


def _blocks(doc) -> dict:
    out: dict = {}
    for row in doc["rows"]:
        out.setdefault(_block_key(row), []).append(row)
    return out


def status_problems(rc: int, doc) -> list:
    out = [] if rc == 0 else [f"exit status {rc}"]
    out += [f"row {r['family']} l={r['l']} j={r['j']}: {r['status']}"
            for r in doc["rows"] if r["status"] != "pass"]
    out += [f"{c['name']}: {c['status']}" for c in doc["checks"] if c["status"] != "pass"]
    return out


def multiplicity_problems(doc) -> list:
    """Each row's expected and observed multiplicity match the count."""
    n = doc["n"]
    out = []
    for r in doc["rows"]:
        want = multiplicity(r["family"], n, r["l"], r["j"])
        if r["expected"] != want or r["observed"] != want:
            out.append(f"{r['family']} l={r['l']} j={r['j']}: expected {r['expected']}, "
                       f"observed {r['observed']}, count {want}")
    return out


def block_problems(doc, families) -> list:
    """Every block is present, complete, and its multiplicities sum to its dimension."""
    n = doc["n"]
    blocks = _blocks(doc)
    want_keys = {(f, l) if f == "tr" else (f,)
                 for f in families for l in (range(n + 1) if f == "tr" else (None,))}
    out = [f"missing block {k}" for k in sorted(want_keys - set(blocks), key=str)]
    out += [f"unexpected block {k}" for k in sorted(set(blocks) - want_keys, key=str)]
    for key, rows in blocks.items():
        dim, idx = _block_shape(n, key)
        got = {r["j"] if key[0] == "tr" else r["l"] for r in rows}
        total = sum(r["expected"] for r in rows)
        if got != idx or len(rows) != len(idx):
            out.append(f"block {key} has indices {sorted(got)}")
        if total != dim:
            out.append(f"block {key} multiplicities sum to {total}, dimension {dim}")
    return out


def distinct_problems(doc) -> list:
    out = []
    for key, rows in _blocks(doc).items():
        vals = [gauss(r["value"]) for r in rows]
        if len(set(vals)) != len(vals):
            out.append(f"block {key} repeats an eigenvalue")
    return out


def k11_value(n: int, l: int, z, q):
    """prod_{j=1}^{c} (q^j + z) / (1 + q^j z), the K_(1,1) eigenvalue."""
    c = 2 * l - n if 2 * l >= n else n - 1 - 2 * l
    out = ONE
    for j in range(1, c + 1):
        e = _pow(q, j)
        out = _mul(out, _div(_add(e, z), _add(ONE, _mul(e, z))))
    return out


def k11_problems(doc) -> list:
    """Each k11 row equals its closed form at the point the report names."""
    n = doc["n"]
    _, z, q = _point(doc)
    out = []
    for r in doc["rows"]:
        if r["family"] == "k11" and gauss(r["value"]) != k11_value(n, r["l"], z, q):
            out.append(f"k11 l={r['l']} value {r['value']} is not the closed form "
                       f"at the reported z={doc['params']['z']}")
    rows = [r for r in doc["rows"] if r["family"] == "k11"]
    if len(rows) != n + 1:
        out.append(f"{len(rows)} k11 rows for n={n}")
    return out


# ---------------------------------------------------------------------------
# series


def word_problems(exact, value: Fraction, bound: Fraction) -> list:
    """The exact contraction is real and within the oracle's certified bound."""
    out = []
    if exact[1] != 0:
        out.append(f"exact contraction has imaginary part {exact[1]}")
    if bound > ORACLE_TARGET:
        out.append(f"oracle bound {float(bound):.3e} above 1e-25")
    if abs(exact[0] - value) > bound:
        out.append(f"exact and oracle differ by {float(abs(exact[0] - value)):.3e} "
                   f"> bound {float(bound):.3e}")
    return out


SP4_DICTIONARY_ROWS = 12      # the lemma's dictionary rows
SP4_ANNIHILATION_ROWS = 12    # four operators for each of three labels


def sp4_problems(rc: int, doc) -> list:
    out = suite_problems(rc, doc)
    names = [c["name"] for c in doc["checks"]]
    ndict = sum(" == delta(" in s for s in names)
    nann = sum("annihilates Xi(" in s for s in names)
    if ndict != SP4_DICTIONARY_ROWS:
        out.append(f"{ndict} dictionary checks, expected {SP4_DICTIONARY_ROWS}")
    if nann != SP4_ANNIHILATION_ROWS:
        out.append(f"{nann} annihilation checks, expected {SP4_ANNIHILATION_ROWS}")
    return out


# ---------------------------------------------------------------------------
# negative controls


def parse(out) -> dict:
    return json.loads(out.text)


def _bump(text: str) -> str:
    re, im = gauss(text)
    re += 1
    return f"{re.numerator}/{re.denominator}+{im.numerator}/{im.denominator}*i"


def controls(kind: str, output) -> list:
    """(name, caught) for each check of an operation kind, on perturbed copies."""
    res = []

    def ctl(name, problems):
        res.append((name, bool(problems)))

    if kind == "suite":
        doc = copy.deepcopy(parse(output))
        doc["checks"][-1]["status"] = "fail"
        ctl("suite check reads fail", suite_problems(output.rc, doc))
    elif kind == "boundary":
        doc = copy.deepcopy(parse(output))
        corner = next(e for e in doc["entries"] if e[0] == (1 << doc["n"]) - 1 and e[1] == 0)
        corner[2] = _bump(corner[2])
        ctl("boundary corner entry perturbed", corner_problems(doc))
        if (doc["k"], doc["kp"]) == (2, 2):
            doc["entries"][0][1] ^= 1
            ctl("(2,2) entry moved off parity support", support_problems(doc, "parity"))
    elif kind == "trace-pair":
        doc_z, doc_w = (copy.deepcopy(parse(o)) for o in output)
        doc_w["entries"][0][2] = _bump(doc_w["entries"][0][2])
        ctl("K(1/z) entry perturbed", inverse_problems(doc_z, doc_w))
        doc_z["entries"][0][1] ^= 1
        ctl("trace entry moved off weight support", support_problems(doc_z, "weight"))
    elif kind == "solver":
        solved, built = (operator_entries(op) for op in output)
        key = next(iter(solved))
        solved[key] = _add(solved[key], ONE)
        ctl("solver entry perturbed", solver_problems(solved, built))
    elif kind == "spectrum":
        doc = parse(output)
        bad = copy.deepcopy(doc)
        bad["rows"][0]["expected"] += 1
        ctl("row multiplicity perturbed", multiplicity_problems(bad))
        bad = copy.deepcopy(doc)
        del bad["rows"][-1]
        ctl("block row dropped", block_problems(bad, ("tr", "k11", "k21", "k12", "k22")))
        bad = copy.deepcopy(doc)
        block = next(rows for rows in _blocks(bad).values() if len(rows) > 1)
        block[1]["value"] = block[0]["value"]
        ctl("block eigenvalue repeated", distinct_problems(bad))
    elif kind == "k11":
        doc = copy.deepcopy(parse(output))
        n = doc["n"]
        _, z, q = _point(doc)
        for r in doc["rows"]:
            if r["family"] == "k11":
                re, im = k11_value(n, r["l"], z, q)
                r["value"] = f"{re.numerator}/{re.denominator}+{im.numerator}/{im.denominator}*i"
        res.append(("k11 closed-form copy accepted", not k11_problems(doc)))
        row = next(r for r in doc["rows"] if r["family"] == "k11")
        row["value"] = _bump(row["value"])
        ctl("k11 value perturbed", k11_problems(doc))
    elif kind == "word":
        exact, value, bound = output
        ex = scalar_pair(exact)
        ctl("contraction made complex", word_problems((ex[0], Fraction(1)), value, bound))
        ctl("contraction moved past the bound", word_problems((ex[0] + 2 * bound, ex[1]), value, bound))
        ctl("oracle bound loosened", word_problems(ex, value, 10 * ORACLE_TARGET))
    elif kind == "sp4":
        doc = parse(output)
        for tag in (" == delta(", "annihilates Xi("):
            bad = copy.deepcopy(doc)
            next(c for c in bad["checks"] if tag in c["name"])["status"] = "fail"
            ctl(f"sp4 check containing {tag.strip()!r} reads fail", sp4_problems(output.rc, bad))
    else:
        raise ValueError(f"no controls for kind {kind!r}")
    return res
