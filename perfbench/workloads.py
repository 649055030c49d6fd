"""The three workloads: seeded inputs and the operations of one round.

A workload is a fixed list of operations; a round runs each once, in
order.  The seed picks the parameter point (and, for `series`, the
q-boson words); everything else is fixed, so every seed does the same
kind and amount of work.

Parameter points are t = a/b and z = c/d with four distinct primes drawn
from two narrow bands.  Keeping the primes of a band at nearly the same
size keeps the size of the exact rationals, and with it the cost of every
operation, nearly the same across seeds; with primes anywhere below 50 the
cost of one workload varies by a factor of two between seeds.  Distinct
primes keep every factor 1 - z q^m (q = -t^2) away from zero, as the
package's own sampler does.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

# (numerator primes, denominator primes).  chain and spectrum draw t and z
# from one band: |t|, |z| in (0.6, 0.91).
CHAIN_BAND = ((29, 31, 37), (41, 43, 47))
# series: the summed-series oracle needs 0 < t, z < 1 and reaches its
# target bound at its first cutoff only for small z; t in (0.38, 0.64),
# z in (0.08, 0.18), from disjoint bands.
SERIES_T_BAND = ((5, 7), (11, 13))
SERIES_Z_BAND = ((2, 3), (17, 19, 23))

FAMILIES = ("A", "D2", "B1", "BT1", "D1")
CHAIN_SUITES = ("defining-relations", "onsager", "kmatrix")
BOUNDARY_LABELS = ((1, 1), (2, 1), (1, 2), (2, 2))
PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
WORKLOADS = ("chain", "spectrum", "series")

CHAIN_N = 5        # verify suites
DUMP_N = 5         # boundary and trace dumps
SOLVE_N = 4        # exchange-relation solver
SPECTRUM_N = 4     # full spectral certificate suite
SP4_TRUNC = 10     # Fock cutoff of the sp4 suite
WORD_LEN = 6       # letters per q-boson word
WORD_PAIRS = 2     # (am, ap) contractions per word: 3 normal-ordered terms
WORDS_PER_PAIR = 2

# The spectral certificate ignores the sampled z: it is proved at an
# internal candidate point (z = 2/5 first) while the report names the
# sampled one.  The operation below shows this on every run; its inputs
# do not depend on the seed.
KNOWN_FAULTS = {
    "spectrum-D2-n3-sample-point":
        "spectral certificates are proved at an internal z, not the reported one",
}


class Point:
    __slots__ = ("t", "z", "eps", "mu")

    def __init__(self, rng: random.Random, t_band, z_band) -> None:
        if t_band == z_band:
            (a, c), (b, d) = rng.sample(t_band[0], 2), rng.sample(t_band[1], 2)
        else:   # disjoint bands
            a, b = rng.choice(t_band[0]), rng.choice(t_band[1])
            c, d = rng.choice(z_band[0]), rng.choice(z_band[1])
        self.t, self.z = Fraction(a, b), Fraction(c, d)
        self.eps, self.mu = rng.choice((1, -1)), rng.choice((1, -1))

    def flags(self, z=None) -> list:
        return ["--t", str(self.t), "--z", str(self.z if z is None else z),
                "--eps", str(self.eps), "--mu", str(self.mu)]

    def params(self):
        from onsk.field import make_params
        return make_params(self.t, self.z, self.eps, self.mu)

    def describe(self) -> str:
        return f"t={self.t} z={self.z} eps={self.eps} mu={self.mu}"


class CliOutput:
    __slots__ = ("rc", "text")

    def __init__(self, rc: int, text: str) -> None:
        self.rc, self.text = rc, text


class Op:
    """One operation: run() is timed, check(output) and the controls are not."""

    __slots__ = ("name", "run", "kind", "check")

    def __init__(self, name: str, run, kind: str, check) -> None:
        self.name, self.run, self.kind, self.check = name, run, kind, check


# Operations call onsk through module attributes, never through names bound
# here, so that the traced run's wrappers are the ones called.


def cli(argv):
    """Operation that runs the onsk command in-process and captures its output."""
    import onsk.cli

    def run():
        # stderr repeats the first failing check, which the JSON already holds
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = onsk.cli.main(list(argv))
        return CliOutput(rc, out.getvalue())
    return run


def matching(word) -> int:
    """Most (am, ap) pairs with am left of ap that normal ordering can
    contract at once; the normal form has this many terms plus one."""
    open_am = pairs = 0
    for letter in word:
        if letter == "-":
            open_am += 1
        elif letter == "+" and open_am:
            open_am -= 1
            pairs += 1
    return pairs


def random_word(rng: random.Random) -> str:
    while True:
        word = "".join(rng.choice("+-k") for _ in range(WORD_LEN))
        if matching(word) == WORD_PAIRS:
            return word


def build(workload: str, seed: int):
    """(point, ops) of one workload; imports the parts of onsk it drives."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "chain":
        return _chain(rng)
    if workload == "spectrum":
        return _spectrum(rng)
    if workload == "series":
        return _series(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _chain(rng):
    from onsk import kmatrix
    from onsk.onsager import CoidealSpec
    from onsk.spinrep import Family
    from checks import (corner_problems, inverse_problems, operator_entries, parse,
                        solver_problems, suite_problems, support_problems)

    pt = Point(rng, CHAIN_BAND, CHAIN_BAND)
    common = ["--seed", str(rng.randrange(1000)), "--format", "json"]
    ops = []
    for fam in FAMILIES:
        for suite in CHAIN_SUITES:
            argv = ["verify", "--suite", suite, "--family", fam, "--n", str(CHAIN_N)]
            ops.append(Op(f"verify-{suite}-{fam}", cli(argv + pt.flags() + common), "suite",
                          lambda o: suite_problems(o.rc, parse(o))))
    for k, kp in BOUNDARY_LABELS:
        argv = ["dump", "kmatrix", "--family", "D2", "--n", str(DUMP_N),
                "--k", str(k), "--kp", str(kp)]

        def boundary(o, k=k, kp=kp):
            doc = parse(o)
            probs = [] if o.rc == 0 else [f"exit status {o.rc}"]
            probs += corner_problems(doc)
            if (k, kp) == (2, 2):
                probs += support_problems(doc, "parity")
            return probs
        ops.append(Op(f"dump-D2-{k}{kp}", cli(argv + pt.flags() + common), "boundary", boundary))

    argv = ["dump", "kmatrix", "--family", "A", "--n", str(DUMP_N)]
    at_z = cli(argv + pt.flags() + common)
    at_inverse = cli(argv + pt.flags(z=1 / pt.z) + common)

    def trace_pair(outs):
        doc_z, doc_w = (parse(o) for o in outs)
        probs = [f"exit status {o.rc}" for o in outs if o.rc != 0]
        probs += support_problems(doc_z, "weight") + support_problems(doc_w, "weight")
        return probs + inverse_problems(doc_z, doc_w)
    ops.append(Op("dump-A-z-and-inverse", lambda: (at_z(), at_inverse()), "trace-pair",
                  trace_pair))

    params = pt.params()
    spec = CoidealSpec(Family("D2", SOLVE_N), 1, 1)

    def solve():
        solved = kmatrix.solve_intertwiner(spec, params).operator
        built = kmatrix.build_kkk(1, 1, SOLVE_N, params.z, params).operator
        return solved, built
    ops.append(Op("solve-D2-11", solve, "solver",
                  lambda o: solver_problems(*(operator_entries(op) for op in o))))
    return pt, ops


def _spectrum(rng):
    from checks import (block_problems, distinct_problems, k11_problems,
                        multiplicity_problems, parse, status_problems)

    pt = Point(rng, CHAIN_BAND, CHAIN_BAND)
    argv = ["spectrum", "--n", str(SPECTRUM_N), "--format", "json",
            "--seed", str(rng.randrange(1000))] + pt.flags()

    def certificates(o):
        doc = parse(o)
        return (status_problems(o.rc, doc) + multiplicity_problems(doc)
                + block_problems(doc, ("tr", "k11", "k21", "k12", "k22"))
                + distinct_problems(doc))

    def sample_point(o):
        probs = [] if o.rc == 0 else [f"exit status {o.rc}"]
        return probs + k11_problems(parse(o))

    fault = ["spectrum", "--family", "D2", "--n", "3", "--format", "json", "--seed", "0"]
    return pt, [Op(f"spectrum-n{SPECTRUM_N}", cli(argv), "spectrum", certificates),
                Op("spectrum-D2-n3-sample-point", cli(fault), "k11", sample_point)]


def _series(rng):
    from onsk import qboson
    from checks import parse, scalar_pair, sp4_problems, word_problems

    pt = Point(rng, SERIES_T_BAND, SERIES_Z_BAND)
    params = pt.params()

    def contraction(word, bra, ket):
        def run():
            engine = qboson.QBosonEngine(params)
            letters = {"+": engine.ap, "-": engine.am, "k": engine.kdiag}
            nf = engine.mulseq([engine.marker(params.z)] + [letters[x]() for x in word])
            exact = qboson.boundary_contract(engine, nf, bra, ket)
            value, bound = qboson.boundary_contract_oracle(params, nf, bra, ket)
            return exact, value, bound
        return run

    ops = []
    for bra, ket in PAIRS:
        for i in range(WORDS_PER_PAIR):
            word = random_word(rng)
            ops.append(Op(f"word-{bra}{ket}-{i}-{word}", contraction(word, bra, ket), "word",
                          lambda o: word_problems(scalar_pair(o[0]), o[1], o[2])))
    argv = ["verify", "--suite", "sp4", "--trunc", str(SP4_TRUNC), "--format", "json",
            "--seed", str(rng.randrange(1000))] + pt.flags()
    ops.append(Op("verify-sp4", cli(argv), "sp4", lambda o: sp4_problems(o.rc, parse(o))))
    return pt, ops

