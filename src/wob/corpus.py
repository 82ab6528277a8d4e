"""Bundled automatic presentations used by the tests, the CLI corpus run
and the recognition examples.

Every presentation carries reference Python predicates for its domain and
order so brute-force oracles never have to trust the automata they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import automata as au
from . import ordinals as o
from .automata import PAD, Automaton
from .logic import Structure, _unchecked
from .ordinals import CnfOrdinal
from .recognition import LESS


@dataclass(frozen=True)
class Presentation:
    name: str
    structure: Structure
    ref_domain: Callable  # word tuple -> bool
    ref_less: Callable  # (word tuple, word tuple) -> bool
    expected_cnf: Optional[CnfOrdinal] = None  # None when not a well-order
    expected_failure: Optional[str] = None  # "bad-class" | "dense"


def _structure(name, alphabet, dom, rel) -> Structure:
    dom = au.minimize(dom)
    rel = au.minimize(au.intersect(rel, au.join(dom, [0], dom, [1])))
    return _unchecked(name, dom, {LESS: rel})


def star_lang(alphabet, letter) -> Automaton:
    return au.automaton(1, alphabet, 1, 0, {0}, [(0, (letter,), 0)])


def prefixed_star(alphabet, tag, letter) -> Automaton:
    return au.automaton(1, alphabet, 2, 0, {1}, [(0, (tag,), 1), (1, (letter,), 1)])


def finite_chain(alphabet, letter, n) -> Automaton:
    trans = [(i, (letter,), i + 1) for i in range(n)]
    return au.automaton(1, alphabet, n + 1, 0, set(range(1, n + 1)), trans)


def shorter_within(alphabet, dom) -> Automaton:
    return au.intersect(au.shorter_automaton(alphabet), au.join(dom, [0], dom, [1]))


def longer_within(alphabet, dom) -> Automaton:
    rev = au.permute_tapes(au.shorter_automaton(alphabet), [1, 0])
    return au.intersect(rev, au.join(dom, [0], dom, [1]))


def ordered_sum(alphabet, blocks) -> tuple[Automaton, Automaton]:
    """Disjoint blocks [(domain, order), ...]; earlier blocks come first."""
    dom = blocks[0][0]
    for d, _ in blocks[1:]:
        dom = au.union(dom, d)
    rel = blocks[0][1]
    for _, r in blocks[1:]:
        rel = au.union(rel, r)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            rel = au.union(rel, au.join(blocks[i][0], [0], blocks[j][0], [1]))
    return dom, rel


def first_divergence_order(alphabet, low) -> Automaton:
    """Lexicographic order on words over a two-letter alphabet, `low` first:
    x < y iff x is a proper prefix of y or reads `low` where they first differ."""
    EQ, LT, GT = range(3)

    def step(v, letter):
        x, y = letter
        if v == EQ:
            if x == y:
                return EQ
            if x == PAD or (y != PAD and x == low):
                return LT
            return GT
        return v

    return au.letter_dfa(alphabet, 2, EQ, step, lambda v: v == LT)


# -- digit presentations of ordinals below w^w ------------------------------
# beta < w^k is written as unary digits a^{m_{k-1}} b a^{m_{k-2}} b ... b a^{m_0},
# most significant digit first; the order is first-divergence comparison.

DIGITS = ("a", "b")


def digit_words(k: int) -> Automaton:
    trans = [(i, ("a",), i) for i in range(k)] + [(i, ("b",), i + 1) for i in range(k - 1)]
    return au.automaton(1, DIGITS, k, 0, {k - 1}, trans)


def digit_word_of(alpha: CnfOrdinal, k: int) -> tuple:
    digits = [0] * k
    for e, m in alpha.terms:
        digits[k - 1 - e.as_int()] = m
    return tuple("a" * digits[i] + ("b" if i < k - 1 else "") for i in range(k))


def digit_word_flat(alpha: CnfOrdinal, k: int):
    return tuple(c for part in digit_word_of(alpha, k) for c in part)


def parse_digit_word(word) -> list:
    out = [0]
    for c in word:
        if c == "b":
            out.append(0)
        else:
            out[-1] += 1
    return out


def digit_presentation(alpha: CnfOrdinal, name: str) -> Presentation:
    if alpha.is_zero():
        raise ValueError("need a positive ordinal")
    k = (alpha.terms[0][0].as_int() + 1) if alpha.terms else 1
    order = first_divergence_order(DIGITS, "b")
    below = au.section(order, 1, digit_word_flat(alpha, k))
    dom = au.minimize(au.intersect(digit_words(k), below))
    s = _structure(name, DIGITS, dom, order)

    target = digit_word_flat(alpha, k)

    def ref_domain(w):
        parts = parse_digit_word(w)
        return (
            all(c in DIGITS for c in w)
            and len(parts) == k
            and parse_digit_word(w) < parse_digit_word(target)
        )

    def ref_less(x, y):
        return parse_digit_word(x) < parse_digit_word(y)

    return Presentation(name, s, ref_domain, ref_less, expected_cnf=alpha)


# -- individual presentations ------------------------------------------------


def omega_unary() -> Presentation:
    alphabet = ("a",)
    dom = star_lang(alphabet, "a")
    rel = au.shorter_automaton(alphabet)
    s = _structure("omega", alphabet, dom, rel)
    return Presentation(
        "omega",
        s,
        lambda w: all(c == "a" for c in w),
        lambda x, y: len(x) < len(y),
        expected_cnf=o.OMEGA,
    )


def omega_binary() -> Presentation:
    alphabet = ("0", "1")
    dom = au.universe(alphabet, 1)
    rel = au.llex_automaton(alphabet)
    s = _structure("omega_bin", alphabet, dom, rel)
    return Presentation(
        "omega_bin",
        s,
        lambda w: all(c in alphabet for c in w),
        lambda x, y: (len(x), x) < (len(y), y),
        expected_cnf=o.OMEGA,
    )


def omega_plus_one() -> Presentation:
    alphabet = ("a", "t")
    blocks = [
        (star_lang(alphabet, "a"), shorter_within(alphabet, star_lang(alphabet, "a"))),
        (finite_chain(alphabet, "t", 1), au.empty(alphabet, 2)),
    ]
    dom, rel = ordered_sum(alphabet, blocks)
    s = _structure("omega_plus_one", alphabet, dom, rel)

    def ref_domain(w):
        return all(c == "a" for c in w) or w == ("t",)

    def ref_less(x, y):
        kx, ky = x == ("t",), y == ("t",)
        if kx:
            return False
        if ky:
            return True
        return len(x) < len(y)

    return Presentation("omega_plus_one", s, ref_domain, ref_less, expected_cnf=o.OMEGA + o.ONE)


def omega_times_2() -> Presentation:
    alphabet = ("a", "b")
    first = star_lang(alphabet, "a")
    second = prefixed_star(alphabet, "b", "a")
    blocks = [
        (first, shorter_within(alphabet, first)),
        (second, shorter_within(alphabet, second)),
    ]
    dom, rel = ordered_sum(alphabet, blocks)
    s = _structure("omega_times_2", alphabet, dom, rel)

    def ref_domain(w):
        return all(c == "a" for c in w) or (len(w) >= 1 and w[0] == "b" and all(c == "a" for c in w[1:]))

    def ref_less(x, y):
        bx = len(x) >= 1 and x[0] == "b"
        by = len(y) >= 1 and y[0] == "b"
        if bx != by:
            return by
        return len(x) < len(y)

    return Presentation("omega_times_2", s, ref_domain, ref_less, expected_cnf=o.OMEGA * o.from_int(2))


def omega_times_2_plus_3() -> Presentation:
    """Three-track presentation: a^*, then b a^*, then {c, cc, ccc}."""
    alphabet = ("a", "b", "c")
    first = star_lang(alphabet, "a")
    second = prefixed_star(alphabet, "b", "a")
    third = finite_chain(alphabet, "c", 3)
    blocks = [
        (first, shorter_within(alphabet, first)),
        (second, shorter_within(alphabet, second)),
        (third, shorter_within(alphabet, third)),
    ]
    dom, rel = ordered_sum(alphabet, blocks)
    s = _structure("omega2p3", alphabet, dom, rel)

    def track(w):
        if len(w) >= 1 and w[0] == "b":
            return 1
        if len(w) >= 1 and w[0] == "c":
            return 2
        return 0

    def ref_domain(w):
        t = track(w)
        if t == 0:
            return all(c == "a" for c in w)
        if t == 1:
            return all(c == "a" for c in w[1:])
        return 1 <= len(w) <= 3 and all(c == "c" for c in w)

    def ref_less(x, y):
        tx, ty = track(x), track(y)
        if tx != ty:
            return tx < ty
        return len(x) < len(y)

    return Presentation(
        "omega2p3", s, ref_domain, ref_less, expected_cnf=o.OMEGA * o.from_int(2) + o.from_int(3)
    )


def integer_line() -> Presentation:
    """Sign-and-magnitude integers: ..., m a a, m a, eps, a, a a, ..."""
    alphabet = ("m", "a")
    neg = prefixed_star(alphabet, "m", "a")
    nonneg = star_lang(alphabet, "a")
    blocks = [
        (neg, longer_within(alphabet, neg)),
        (nonneg, shorter_within(alphabet, nonneg)),
    ]
    dom, rel = ordered_sum(alphabet, blocks)
    s = _structure("zline", alphabet, dom, rel)

    def val(w):
        if len(w) >= 1 and w[0] == "m":
            return -len(w)  # m a^k  ->  -(k+1)
        return len(w)

    def ref_domain(w):
        if len(w) >= 1 and w[0] == "m":
            return all(c == "a" for c in w[1:])
        return all(c == "a" for c in w)

    return Presentation(
        "zline", s, ref_domain, lambda x, y: val(x) < val(y), expected_failure="bad-class"
    )


def omega_plus_omega_star() -> Presentation:
    alphabet = ("a", "b")
    first = star_lang(alphabet, "a")
    second = prefixed_star(alphabet, "b", "a")
    blocks = [
        (first, shorter_within(alphabet, first)),
        (second, longer_within(alphabet, second)),
    ]
    dom, rel = ordered_sum(alphabet, blocks)
    s = _structure("omega_plus_rev", alphabet, dom, rel)

    def ref_domain(w):
        return all(c == "a" for c in w) or (len(w) >= 1 and w[0] == "b" and all(c == "a" for c in w[1:]))

    def ref_less(x, y):
        bx = len(x) >= 1 and x[0] == "b"
        by = len(y) >= 1 and y[0] == "b"
        if bx != by:
            return by
        if not bx:
            return len(x) < len(y)
        return len(x) > len(y)

    return Presentation("omega_plus_rev", s, ref_domain, ref_less, expected_failure="bad-class")


def dense_dyadic() -> Presentation:
    """Strings over {0,1} ending in 1, ordered as binary fractions."""
    alphabet = ("0", "1")
    dom = au.automaton(
        1, alphabet, 2, 0, {1},
        [(0, ("0",), 0), (0, ("1",), 1), (1, ("0",), 0), (1, ("1",), 1)],
    )
    rel = first_divergence_order(alphabet, "0")
    s = _structure("dense", alphabet, dom, rel)

    def val(w):
        return sum(int(c) / 2 ** (i + 1) for i, c in enumerate(w))

    def ref_domain(w):
        return len(w) >= 1 and w[-1] == "1" and all(c in alphabet for c in w)

    return Presentation(
        "dense", s, ref_domain, lambda x, y: val(x) < val(y), expected_failure="dense"
    )


def binary_lex() -> Presentation:
    """Plain lexicographic order on {0,1}^*: not a well-order (1 > 01 > 001 > ...)."""
    alphabet = ("0", "1")
    dom = au.universe(alphabet, 1)
    rel = first_divergence_order(alphabet, "0")
    s = _structure("binlex", alphabet, dom, rel)

    def ref_less(x, y):
        return x != y and (x == y[: len(x)] or x < y)

    return Presentation(
        "binlex", s, lambda w: all(c in alphabet for c in w), ref_less, expected_failure="dense"
    )


def well_order_corpus() -> list[Presentation]:
    return [
        omega_unary(),
        omega_binary(),
        omega_plus_one(),
        omega_times_2(),
        omega_times_2_plus_3(),
        digit_presentation(o.parse("w^2"), "omega_sq"),
        digit_presentation(o.parse("w^2*2+w*3+4"), "mixed"),
        digit_presentation(o.parse("w^3"), "omega_cube"),
        digit_presentation(o.parse("w*4+2"), "w4p2"),
        digit_presentation(o.parse("w^2+1"), "wsq_p1"),
        digit_presentation(o.from_int(12), "twelve"),
    ]


def non_well_order_corpus() -> list[Presentation]:
    return [integer_line(), omega_plus_omega_star(), dense_dyadic(), binary_lex()]
