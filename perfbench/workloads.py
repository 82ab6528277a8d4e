"""The benchmark's three workloads: inputs, job lists and reference checks.

Each `setup_<workload>(rng)` loads fresh inputs from the committed corpus
and returns the job list for one pass, in an order drawn from `rng`.  Every
job gets inputs of its own, so no job profits from automata cached by an
earlier one and per-job times do not depend on the drawn order.

A job returns normally when its verdict agrees with the reference and
raises `Mismatch` when it does not.  No reference goes through the
automata: verdicts and CNFs come from the hand-written table below (a copy
of `expected_cnf` / `expected_failure` in `src/wob/corpus.py`), chain
lengths from `ordinals.canonical_prefix`, chain order from the Python
`ref_less` predicates of `corpus.py`, and the RPI edges from the machine
simulator that `explore_fragment` compares the relation with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from wob import corpus as cp
from wob import logic
from wob import ordinals as o
from wob import pathology as pa
from wob import recognition as rec
from wob import tm as tmmod

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# name -> CNF of the order type, or the failure shape of a non-well-order
EXPECTED = {
    "omega": "w",
    "omega_bin": "w",
    "omega_plus_one": "w+1",
    "omega_times_2": "w*2",
    "omega2p3": "w*2+3",
    "omega_sq": "w^2",
    "mixed": "w^2*2+w*3+4",
    "omega_cube": "w^3",
    "w4p2": "w*4+2",
    "wsq_p1": "w^2+1",
    "twelve": "12",
    "zline": "bad-class",
    "omega_plus_rev": "bad-class",
    "dense": "dense",
    "binlex": "dense",
}

# Kreisel reorderings of llex on {0,1}*: a true pi_0 keeps type w; a pi_0
# false at "11" (rank 6) reverses everything above it, giving 7 + w*, whose
# top condensation class has no least element.
KREISEL = {
    "kreisel_true": (pa.regular_true, (), "w"),
    "kreisel_witness": (pa.regular_except_word, (("1", "1"),), "bad-class"),
}

FAILURE_SHAPES = {"bad-class": rec.BadCondensationClass, "dense": rec.DenseFixpoint}

# presentation -> chain lengths asked for; the order is by length for `omega`
# and by digit vectors for the others
CHAIN_COUNTS = {
    "omega": (10, 20, 30, 40),
    "omega_sq": (10, 20, 30, 40),
    "mixed": (10, 20, 30, 40),
    "omega_cube": (10, 20, 30, 40),
    "twelve": (12, 20),
}

RPI_MACHINE = "kreisel_true"
FRAGMENT = {"word_len": 5, "run_input_len": 3}
EMB_PAIRS = 200
EMB_LENGTHS = (16, 24, 32, 40)


class Mismatch(Exception):
    """A verdict that disagrees with the reference."""


@dataclass
class Job:
    name: str
    run: Callable[[], None]


def _manifest(name: str) -> Path:
    return CORPUS / name / f"{name}.manifest"


def _require(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


def show_cnf(cnf) -> str:
    """Render a CnfOrdinal below w^w from its terms, in `wob`'s notation."""

    def exponent(e):
        if not e.terms:
            return 0
        (inner, n), = e.terms
        _require(not inner.terms, f"exponent {e!r} is not finite")
        return n

    parts = []
    for e, coeff in cnf.terms:
        k = exponent(e)
        base = "" if k == 0 else ("w" if k == 1 else f"w^{k}")
        parts.append(str(coeff) if not base else (base if coeff == 1 else f"{base}*{coeff}"))
    return "+".join(parts) or "0"


def check_verdict(got, expected: str):
    if expected in FAILURE_SHAPES:
        _require(
            isinstance(got, rec.NotWellOrder)
            and isinstance(got.evidence, FAILURE_SHAPES[expected]),
            f"expected {expected}, got {got!r}",
        )
    else:
        _require(isinstance(got, rec.WellOrder), f"expected well-order {expected}, got {got!r}")
        _require(show_cnf(got.cnf) == expected, f"expected {expected}, got {show_cnf(got.cnf)}")


# -- recognize --------------------------------------------------------------


def _recognize(structure, expected):
    check_verdict(rec.recognize(rec.OrderPresentation(structure)), expected)


def _recognize_kreisel(make_pi0, args, expected):
    structure = pa.kreisel_as_automatic(make_pi0(*args))
    check_verdict(rec.recognize(rec.OrderPresentation(structure)), expected)


def setup_recognize(rng) -> list:
    found = sorted(p.stem for p in CORPUS.glob("*/*.manifest"))
    _require(found == sorted(EXPECTED), f"corpus manifests {found} differ from the reference table")
    jobs = [
        Job(name, partial(_recognize, logic.load_structure(_manifest(name)), expected))
        for name, expected in EXPECTED.items()
    ]
    jobs += [Job(name, partial(_recognize_kreisel, *spec)) for name, spec in KREISEL.items()]
    rng.shuffle(jobs)
    return jobs


# -- chain ------------------------------------------------------------------


def _ref_less(name):
    if name == "omega":
        return lambda x, y: len(x) < len(y)
    return lambda x, y: cp.parse_digit_word(x) < cp.parse_digit_word(y)


def _chain(structure, count, cnf, ref_less):
    chain = rec.initial_chain(rec.OrderPresentation(structure), count)
    want = len(o.canonical_prefix(cnf, count))
    _require(len(chain) == want, f"chain of {len(chain)} elements, expected {want}")
    for a, b in zip(chain, chain[1:]):
        _require(ref_less(a, b), f"chain not increasing at {a!r}, {b!r}")


def setup_chain(rng) -> list:
    jobs = []
    for name, counts in CHAIN_COUNTS.items():
        cnf = o.parse(EXPECTED[name])
        for count in counts:
            structure = logic.load_structure(_manifest(name))
            jobs.append(Job(f"{name}/{count}", partial(_chain, structure, count, cnf, _ref_less(name))))
    rng.shuffle(jobs)
    return jobs


# -- rpi --------------------------------------------------------------------


def _random_word(rng, length):
    return tuple(rng.choice("01") for _ in range(length))


def emb_pairs(rng, count):
    """`count` pairs x <llex y with lengths cycling through EMB_LENGTHS, so
    the cost of a sweep does not depend on the seed."""
    pairs = []
    for lx, ly in itertools.islice(itertools.cycle(itertools.product(EMB_LENGTHS, repeat=2)), count):
        x, y = _random_word(rng, lx), _random_word(rng, ly)
        while x == y:
            y = _random_word(rng, ly)
        pairs.append(tuple(sorted((x, y), key=lambda w: (len(w), w))))
    return pairs


def _build(state, spec):
    state["rpi"] = tmmod.build_rpi(spec, pi_tag=f"{RPI_MACHINE}.tm")


def _fragment(state):
    rpi = state["rpi"]
    # explore_fragment raises when the relation automaton and the machine
    # simulator disagree on an edge or a sampled non-edge
    fragment = tmmod.explore_fragment(rpi, **FRAGMENT)
    witness = tmmod.bounded_wf_check(rpi, fragment)
    _require(witness is None, f"well-foundedness witness {witness!r} on a true pi_0")


def _emb(state, x, y):
    path = tmmod.emb_path(state["rpi"], x, y)
    _require(path is not None, f"no embedding path for {x!r} < {y!r}")
    _require(path[0] == (tmmod.WORD_TAG,) + x and path[-1] == (tmmod.WORD_TAG,) + y,
             f"embedding path for {x!r} < {y!r} has the wrong ends")


def setup_rpi(rng) -> list:
    spec = tmmod.parse_tm((CORPUS / "machines" / f"{RPI_MACHINE}.tm").read_text(encoding="utf-8"))
    state: dict = {}
    reads = [Job("fragment", partial(_fragment, state))]
    reads += [Job(f"emb/{len(x)}-{len(y)}", partial(_emb, state, x, y)) for x, y in emb_pairs(rng, EMB_PAIRS)]
    rng.shuffle(reads)
    return [Job("build_rpi", partial(_build, state, spec))] + reads


SETUP = {"recognize": setup_recognize, "chain": setup_chain, "rpi": setup_rpi}
