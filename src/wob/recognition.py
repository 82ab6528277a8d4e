"""Deciding well-orderedness of automatic linear orders and extracting the
Cantor normal form of the order type.

The recognizer iterates the finite condensation (quotient by "finitely many
elements in between", definable in FO + the infinity quantifier and read
from the interval product below).  In a well-order every condensation class
is finite or of type omega and only the topmost class can be finite, so the
order type is reconstructed level by level:

    type(L_i) = w * (type(L_{i+1}) - top) + t_i      when the top class is
                                                      finite with t_i elements
    type(L_i) = w * type(L_{i+1})                     otherwise

A non-well-order is caught either by a condensation class without a least
element (BadCondensationClass, with a witness element) or by the
condensation reaching a fixpoint while the order is still infinite
(DenseFixpoint: all classes are singletons, which no infinite well-order
allows).

Recognition compiles no formula; every set is a kernel construction run
under the state budget its caller sets (`with au.state_budget(n):`), and
no function here takes one.  Each presentation searches the interval
product between(x, z, y) = x<z<y of its order with itself once, dropping
z as the search goes, and reads the successor relation, the transitivity
check and I = { (x, y) : infinitely many z with x<z<y } from its two
projection graphs; the product is never built.  Every per-level set
is read from one relation, in_class = < minus I: the pairs y < x with y in
x's class.  The order is linear, so distinct x and y are ~-equivalent
exactly when (x, y) or (y, x) is in it, and neither ~ nor in_class's
transpose is built.  A finite level is counted before it is classified,
since every class of a finite order has a least element, so it builds no
I and no in_class.  An infinite level passes when no element has
infinitely many in_class predecessors, the class representatives are the
domain minus every element with an llex-smaller one in its class, below
or above it in the order, read from llex joined with in_class both ways,
and an empty in_class (all classes singletons) is the fixpoint.
Irreflexivity and totality are each one search for a counterexample,
`au.is_irreflexive` over the order's own states and `au.is_total` over
pairs of domain words, building no diagonal, cube or transpose, and the
top class is the domain minus the elements with infinitely many elements
above them.
Every projection here is only minimized, searched or subtracted, so none
is built: each is `au.projection_graph`, the search of the moves
`au.project` numbers, or, for a product, `au.join_graph`, its one search.
A difference that is only minimized (the successor relation, a level's
representatives, the top class) is `au.difference_graph`, searched and
not numbered.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Union

from . import automata as au
from . import ordinals as o
from .automata import Automaton
from .errors import NotComparable, NotLinear
from .logic import Structure, _unchecked
from .ordinals import CnfOrdinal
from .records import record

LESS = "<"


@record
class OrderPresentation:
    structure: Structure

    def __post_init__(self):
        if LESS not in self.structure.relations:
            raise NotLinear(f"structure {self.structure.name!r} has no relation {LESS!r}")
        if self.order.arity != 2:
            raise NotLinear(f"relation {LESS!r} must be binary")

    @property
    def domain(self) -> Automaton:
        return self.structure.domain

    @property
    def order(self) -> Automaton:
        return self.structure.relations[LESS]

    @cached_property
    def between(self) -> tuple:
        """The interval product between(x, z, y): x < z < y, the one product
        of the order with itself, searched once with z dropped as the
        search goes: its projection graphs (∃z, ∃^∞z) over (x, y), as
        `au.join_graph` gives them.  The product is never an Automaton."""
        return au.join_graph(self.order, [0, 1], self.order, [1, 2], tape=1)

    @cached_property
    def infinitely_between(self) -> Automaton:
        """I(x, y): infinitely many z with x < z < y: the minimal automaton
        of `between`'s ∃^∞ graph."""
        return au.minimize(self.between[1])

    @cached_property
    def in_class(self) -> Automaton:
        """(y, x): y < x with finitely many elements between, so y lies in
        x's condensation class, below x."""
        return au.difference(self.order, self.infinitely_between)

    @cached_property
    def successor(self) -> Automaton:
        """succ(x, y): x < y with nothing between: the minimal DFA of the
        order minus `between`'s ∃ graph.  The difference is only
        minimized, so it is a graph (`au.difference_graph`), and a
        deterministic order gives a deterministic one, which `au.minimize`
        refines."""
        return au.minimize(au.difference_graph(self.order, self.between[0]))


@record
class BadCondensationClass:
    witness: tuple  # an element of a class with no least element

    def __str__(self):
        return f"bad-class witness={au.show_word(self.witness)!r} (no-least)"


@record
class DenseFixpoint:
    level: int

    def __str__(self):
        return f"dense-fixpoint level={self.level}"


@record
class WellOrder:
    cnf: CnfOrdinal


@record
class NotWellOrder:
    evidence: Union[BadCondensationClass, DenseFixpoint]


@record
class BudgetExceeded:
    level: int


RecognitionResult = Union[WellOrder, NotWellOrder, BudgetExceeded]


# -- linearity guard --------------------------------------------------------


def check_linear(p: OrderPresentation) -> Optional[str]:
    """None when the relation is a strict linear order, else the first
    failing law, each one kernel search that builds nothing: < holds no
    pair (w, w), every x < z < y has x < y (an inclusion search over
    `between`'s ∃ graph, the one search of the interval product), and
    every two distinct elements of the domain are ordered one way or the
    other."""
    if not au.is_irreflexive(p.order):
        return "irreflexivity"
    if not au.is_subset(p.between[0], p.order):
        return "transitivity"
    if not au.is_total(p.order, p.domain):
        return "totality"
    return None


# -- condensation machinery --------------------------------------------------


def finite_condensation(p: OrderPresentation) -> OrderPresentation:
    """Quotient by ~, represented by the llex-least element of each class:
    the domain minus every x with some y ~ x llex-below it.  The order is
    linear, so distinct x and y are ~-equivalent exactly when one of (x, y)
    and (y, x) is in `in_class`; llex is strict, so the diagonal, which
    `in_class` lacks, never counts.  Distinct representatives are never
    ~-equivalent, so the quotient order is the original order restricted to
    representatives.  Every product here is only projected, joined or
    minimized, so each is `au.join_graph`'s search: the outranked
    elements are the ∃ graphs of llex joined with `in_class` on tapes
    (0, 1), the y below x, and on (1, 0), its transpose, the y above x.
    Both are subtracted from the domain, one after the other, in graphs
    that are only minimized, so neither the transpose nor the union is
    built.  The restriction to representatives is two joins, one per
    tape, the second over the first's graph."""
    llex = au.llex_automaton(p.domain.alphabet)
    new_dom = p.domain
    for tapes in ([0, 1], [1, 0]):
        outranked, _ = au.join_graph(llex, [0, 1], p.in_class, tapes, tape=0)
        new_dom = au.difference_graph(new_dom, outranked)
    new_dom = au.minimize(new_dom)
    below = au.join_graph(p.order, [0, 1], new_dom, [0])
    new_rel = au.minimize(au.join_graph(below, [0, 1], new_dom, [1]))
    return OrderPresentation(_unchecked(p.structure.name + "'", new_dom, {LESS: new_rel}))


def classify_classes(p: OrderPresentation) -> Optional[BadCondensationClass]:
    """None when every condensation class has a least element; otherwise a
    witness element from a failing class.

    Any two elements of a class have finitely many elements between them,
    so a class is ordered like a finite set, omega, omega* or Z.  It lacks a
    least element exactly when it is omega* or Z, that is, exactly when each
    of its elements has infinitely many predecessors within it; one set of
    such elements decides the level.  The order is linear, so y < x lies in
    x's class exactly when I(y, x) fails, which is `in_class`.  The set is
    the minimal automaton of a projection graph, never built unminimized.
    A class of a finite order always has a least element, so `condense`
    calls this on infinite levels alone."""
    bad = au.minimize(au.projection_graph(p.in_class, 0, infinite=True))
    if not au.is_empty(bad):
        return BadCondensationClass(au.count_or_enumerate(bad, 1)[0][0])
    return None


def _top_class_size(p: OrderPresentation):
    """Size of the topmost condensation class when finite, else 0.

    Called when every class is finite or omega.  An element of a lower
    class has infinitely many elements above it (the rest of its omega
    class, or those between it and a higher class), so the elements with
    finitely many above are exactly a finite top class, and none otherwise.
    Those above infinitely many are a projection graph, read only by
    `difference_graph`, and the rest, a graph too, is counted on its
    minimal DFA, never listed."""
    return au.count_words(au.minimize(au.difference_graph(p.domain, au.projection_graph(p.order, 1, infinite=True))))


@record
class Level:
    """One condensation level: its structure, not its presentation, whose
    interval product would outlive the level, and its finite top-class
    count, or None where the level was not condensed."""

    structure: Structure
    top: Optional[int]


def condense(p: OrderPresentation, max_levels: Optional[int] = None) -> tuple[list[Level], RecognitionResult]:
    """The levels the condensation reaches from `p`, level 0 first, and the
    verdict; BudgetExceeded means only that it ran past `max_levels`
    levels, and counts those it condensed.

    A level whose domain is finite is the last: its classes have least
    elements, so it is counted, not classified, and builds no interval
    product beyond level 0's linearity check, no I and no in_class.  Above
    level 0 its domain is `finite_condensation`'s minimal DFA, counted as
    it is; level 0's loaded domain is minimized first."""
    failure = check_linear(p)
    if failure is not None:
        raise NotLinear(f"{p.structure.name}: {failure} fails")
    if max_levels is None:
        max_levels = max(2, p.order.n_states)
    levels: list[Level] = []
    current = p
    while True:
        levels.append(Level(current.structure, None))
        if not au.is_infinite(current.domain):
            domain = current.domain if len(levels) > 1 else au.minimize(current.domain)
            return levels, WellOrder(_unwind(o.from_int(au.count_words(domain)), levels[-2::-1]))
        bad = classify_classes(current)
        if bad is not None:
            return levels, NotWellOrder(bad)
        # every class a singleton: the quotient is the level itself
        if au.is_empty(current.in_class):
            return levels, NotWellOrder(DenseFixpoint(len(levels) - 1))
        levels[-1] = Level(current.structure, _top_class_size(current))
        if len(levels) > max_levels:
            return levels, BudgetExceeded(len(levels))
        current = finite_condensation(current)


def recognize(p: OrderPresentation, max_levels: Optional[int] = None) -> RecognitionResult:
    """Decide well-orderedness and the CNF of the order type: `condense`'s verdict."""
    return condense(p, max_levels)[1]


def _unwind(beta: CnfOrdinal, condensed: list[Level]) -> CnfOrdinal:
    """Level 0's order type from `beta`, the type above the `condensed` levels, listed top down."""
    for level in condensed:
        if level.top > 0:
            if not beta.is_successor():
                raise AssertionError("finite top class but quotient type is a limit")
            beta = o.OMEGA * beta.pred() + o.from_int(level.top)
        else:
            beta = o.OMEGA * beta
    if not beta < o.omega_power(o.OMEGA):
        raise AssertionError(f"recognized CNF {beta} is not below w^w")
    return beta


def isomorphic(p: OrderPresentation, q: OrderPresentation) -> bool:
    rp = recognize(p)
    rq = recognize(q)
    if not isinstance(rp, WellOrder) or not isinstance(rq, WellOrder):
        raise NotComparable(f"{type(rp).__name__} vs {type(rq).__name__}")
    return rp.cnf == rq.cnf


# -- order-theoretic helpers used by the verification harness ----------------


def predecessors(p: OrderPresentation, word) -> Automaton:
    """{ y : y < word } as an automaton."""
    return au.section(p.order, 1, word)


def initial_chain(p: OrderPresentation, count: int) -> list:
    """The first `count` elements of the order.  The first is certified least
    of the domain and each later one the one cover of its predecessor, both
    by automaton emptiness.  The minimal elements are the domain minus the
    ∃ graph of the order's tape 0, the elements with some element below:
    a structure's relations lie in its domain cube, so that element needs
    no test against the domain.  The image of x under the successor
    relation is the set of minimal elements of { y : x < y }, its first two
    words read by `au.section_words`, whose set steps the successor
    relation keeps from one element to the next.  Two minimal elements or
    two covers mean the order is not linear, and the error names them; no
    cover ends the chain."""
    out: list = []
    found = []
    if count > 0:
        least = au.difference(p.domain, au.projection_graph(p.order, 0))
        found = [w[0] for w in au.count_or_enumerate(least, 2)]
    while found:
        if len(found) > 1:
            two = " and ".join(repr(au.show_word(w)) for w in found)
            if out:
                raise NotLinear(f"element {au.show_word(out[-1])!r} has two covers, {two}; order is not linear")
            raise NotLinear(f"two minimal elements, {two}; order is not linear")
        out.append(found[0])
        if len(out) == count:
            break
        found = [w[0] for w in au.section_words(p.successor, 0, found[0], 2)]
    return out
