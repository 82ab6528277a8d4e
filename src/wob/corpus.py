"""Bundled automatic presentations used by the tests, the CLI corpus run
and the recognition examples.

Every presentation carries reference Python predicates for its domain and
order so brute-force oracles never have to trust the automata they check.
An ordered sum is built from its blocks (`block_sum`): each `Block` brings
its automata, its reference predicates and its type, and the sum's
predicates and expected verdict are derived from them.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import automata as au
from . import ordinals as o
from .automata import PAD, Automaton
from .logic import Structure, _unchecked
from .ordinals import CnfOrdinal
from .recognition import LESS
from .records import record


@record
class Presentation:
    name: str
    structure: Structure
    ref_domain: Callable  # word tuple -> bool
    ref_less: Callable  # (word tuple, word tuple) -> bool
    expected_cnf: Optional[CnfOrdinal] = None  # None when not a well-order
    expected_failure: Optional[str] = None  # "bad-class" | "dense"


def _structure(name, dom, rel) -> Structure:
    dom = au.minimize(dom)
    return _unchecked(name, dom, {LESS: au.minimize(_within(rel, dom))})


def _within(rel, dom) -> Automaton:
    return au.intersect(rel, au.join(dom, [0], dom, [1]))


@record
class Block:
    """One summand of an ordered sum: its words and their order, the
    reference predicates for both, and its type (None for omega*)."""

    domain: Automaton
    order: Automaton
    ref_domain: Callable  # word tuple -> bool
    ref_less: Callable  # (word tuple, word tuple) -> bool
    cnf: Optional[CnfOrdinal]


def run_block(alphabet, letter, tag=None, descending=False) -> Block:
    """`letter^n`, or `tag letter^n`, for every n >= 0, ordered by length
    (type omega) or by length descending (omega*)."""
    head = () if tag is None else (tag,)
    k = len(head)
    trans = [(i, (s,), i + 1) for i, s in enumerate(head)] + [(k, (letter,), k)]
    dom = au.automaton(1, alphabet, k + 1, 0, {k}, trans)
    shorter = au.shorter_automaton(alphabet)
    order = au.permute_tapes(shorter, [1, 0]) if descending else shorter
    less = (lambda x, y: len(x) > len(y)) if descending else (lambda x, y: len(x) < len(y))
    return Block(dom, _within(order, dom), lambda w: _in_run(w, head, letter), less, None if descending else o.OMEGA)


def _in_run(w, head, letter) -> bool:
    return tuple(w[:len(head)]) == head and all(c == letter for c in w[len(head):])


def chain_block(alphabet, letter, n) -> Block:
    """The n-element chain `letter`, `letter letter`, ..., ordered by length."""
    trans = [(i, (letter,), i + 1) for i in range(n)]
    dom = au.automaton(1, alphabet, n + 1, 0, set(range(1, n + 1)), trans)
    return Block(dom, _within(au.shorter_automaton(alphabet), dom),
                 lambda w: 1 <= len(w) <= n and _in_run(w, (), letter),
                 lambda x, y: len(x) < len(y), o.from_int(n))


def block_sum(name, blocks: list[Block]) -> Presentation:
    """The ordered sum of disjoint blocks, earlier blocks first.  A word's
    block is the first whose `ref_domain` holds.  The expected verdict is
    "bad-class" when a block is omega* (each of its elements has infinitely
    many predecessors in its condensation class), else the ordinal sum of
    the block types, so 3 + omega is omega."""
    dom, rel = blocks[0].domain, blocks[0].order
    for b in blocks[1:]:
        dom, rel = au.union(dom, b.domain), au.union(rel, b.order)
    for i in range(len(blocks)):
        for b in blocks[i + 1:]:
            rel = au.union(rel, au.join(blocks[i].domain, [0], b.domain, [1]))

    def rank(w):
        return next((i for i, held in enumerate(b.ref_domain(w) for b in blocks) if held), None)

    def ref_less(x, y):
        i, j = rank(x), rank(y)
        return i is not None and j is not None and (i < j or (i == j and blocks[i].ref_less(x, y)))

    cnfs = [b.cnf for b in blocks]
    well = all(c is not None for c in cnfs)
    return Presentation(
        name, _structure(name, dom, rel), lambda w: rank(w) is not None, ref_less,
        expected_cnf=sum(cnfs, o.ZERO) if well else None, expected_failure=None if well else "bad-class",
    )


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
    s = _structure(name, dom, order)

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
    return block_sum("omega", [run_block(("a",), "a")])


def omega_binary() -> Presentation:
    alphabet = ("0", "1")
    dom = au.universe(alphabet, 1)
    rel = au.llex_automaton(alphabet)
    s = _structure("omega_bin", dom, rel)
    return Presentation(
        "omega_bin",
        s,
        lambda w: all(c in alphabet for c in w),
        lambda x, y: (len(x), x) < (len(y), y),
        expected_cnf=o.OMEGA,
    )


def omega_plus_one() -> Presentation:
    alphabet = ("a", "t")
    return block_sum("omega_plus_one", [run_block(alphabet, "a"), chain_block(alphabet, "t", 1)])


def omega_times_2() -> Presentation:
    alphabet = ("a", "b")
    return block_sum("omega_times_2", [run_block(alphabet, "a"), run_block(alphabet, "a", tag="b")])


def omega_times_2_plus_3() -> Presentation:
    """Three-track presentation: a^*, then b a^*, then {c, cc, ccc}."""
    alphabet = ("a", "b", "c")
    return block_sum("omega2p3", [
        run_block(alphabet, "a"), run_block(alphabet, "a", tag="b"), chain_block(alphabet, "c", 3),
    ])


def integer_line() -> Presentation:
    """Sign-and-magnitude integers: ..., m a a, m a, eps, a, a a, ..."""
    alphabet = ("m", "a")
    return block_sum("zline", [run_block(alphabet, "a", tag="m", descending=True), run_block(alphabet, "a")])


def omega_plus_omega_star() -> Presentation:
    alphabet = ("a", "b")
    return block_sum("omega_plus_rev", [
        run_block(alphabet, "a"), run_block(alphabet, "a", tag="b", descending=True),
    ])


def dense_dyadic() -> Presentation:
    """Strings over {0,1} ending in 1, ordered as binary fractions."""
    alphabet = ("0", "1")
    dom = au.automaton(
        1, alphabet, 2, 0, {1},
        [(0, ("0",), 0), (0, ("1",), 1), (1, ("0",), 0), (1, ("1",), 1)],
    )
    rel = first_divergence_order(alphabet, "0")
    s = _structure("dense", dom, rel)

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
    s = _structure("binlex", dom, rel)

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
