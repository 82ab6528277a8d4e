"""Deciding well-orderedness of automatic linear orders and extracting the
Cantor normal form of the order type.

The recognizer iterates the finite condensation (quotient by "finitely many
elements in between", expressed in FO + the infinity quantifier and compiled
by the fo-engine).  In a well-order every condensation class is finite or of
type omega and only the topmost class can be finite, so the order type is
reconstructed level by level:

    type(L_i) = w * (type(L_{i+1}) - top) + t_i      when the top class is
                                                      finite with t_i elements
    type(L_i) = w * type(L_{i+1})                     otherwise

A non-well-order is caught either by a condensation class without a least
element (BadCondensationClass, with a witness element) or by the
condensation reaching a fixpoint while the order is still infinite
(DenseFixpoint: all classes are singletons, which no infinite well-order
allows).

Every certificate is compiled as a set of counterexamples, an existential
formula with no universal quantifier: a linearity law holds when no
elements break it, and a level passes when no element has infinitely many
predecessors within its class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from . import automata as au
from . import ordinals as o
from .automata import Automaton
from .errors import NotComparable, NotLinear, StateBudgetExceeded
from .logic import (
    And,
    Eq,
    ExistsInf,
    Exists,
    Llex,
    Not,
    Or,
    Rel,
    Structure,
    compile_formula,
    conj,
    define_set,
    disj,
    eval_sentence,
)
from .ordinals import CnfOrdinal

LESS = "<"
SIM = "~"

TOP_CLASS_CAP = 10 ** 5
FINITE_LEVEL_CAP = 10 ** 5


@dataclass(frozen=True)
class OrderPresentation:
    structure: Structure

    def __post_init__(self):
        if LESS not in self.structure.relations:
            raise NotLinear(f"structure {self.structure.name!r} has no relation {LESS!r}")
        if self.structure.relations[LESS][0] != 2:
            raise NotLinear(f"relation {LESS!r} must be binary")

    @property
    def domain(self) -> Automaton:
        return self.structure.domain

    @property
    def order(self) -> Automaton:
        return self.structure.relations[LESS][1]

    @cached_property
    def _sim_structures(self) -> dict:
        return {}

    def with_sim(self, budget: int) -> Structure:
        """The structure plus the condensation equivalence ~, compiled once
        per budget and shared by every step of a condensation level."""
        if budget not in self._sim_structures:
            s = self.structure
            rels = {**s.relations, SIM: (2, sim_automaton(self, budget))}
            self._sim_structures[budget] = Structure(name=s.name, domain=s.domain, relations=rels)
        return self._sim_structures[budget]

    @cached_property
    def successor(self) -> Automaton:
        """succ(x, y): y is the cover of x, compiled once per presentation."""
        return au.minimize(compile_formula(self.structure, _SUCCESSOR))


@dataclass(frozen=True)
class BadCondensationClass:
    witness: tuple  # an element of a class with no least element

    def __str__(self):
        w = "".join(self.witness) if all(len(s) == 1 for s in self.witness) else " ".join(self.witness)
        return f"bad-class witness={w!r} (no-least)"


@dataclass(frozen=True)
class DenseFixpoint:
    level: int

    def __str__(self):
        return f"dense-fixpoint level={self.level}"


@dataclass(frozen=True)
class WellOrder:
    cnf: CnfOrdinal


@dataclass(frozen=True)
class NotWellOrder:
    evidence: Union[BadCondensationClass, DenseFixpoint]


@dataclass(frozen=True)
class BudgetExceeded:
    level: int


RecognitionResult = Union[WellOrder, NotWellOrder, BudgetExceeded]


# -- linearity guard --------------------------------------------------------


# each law paired with the sentence "some elements break it"
_COUNTEREXAMPLES = (
    ("irreflexivity", Exists("x", Rel(LESS, ("x", "x")))),
    ("transitivity", Exists("x", Exists("y", Exists("z", conj(
        Rel(LESS, ("x", "y")), Rel(LESS, ("y", "z")), Not(Rel(LESS, ("x", "z")))))))),
    ("totality", Exists("x", Exists("y", Not(disj(
        Rel(LESS, ("x", "y")), Rel(LESS, ("y", "x")), Eq("x", "y")))))),
)


_SUCCESSOR = And(
    Rel(LESS, ("x", "y")),
    Not(Exists("z", And(Rel(LESS, ("x", "z")), Rel(LESS, ("z", "y"))))),
)


def check_linear(p: OrderPresentation) -> Optional[str]:
    """None when the relation is a strict linear order, else the failing law."""
    for law, counterexample in _COUNTEREXAMPLES:
        if eval_sentence(p.structure, counterexample):
            return law
    return None


# -- condensation machinery --------------------------------------------------


def _between():
    # z strictly between x and y, in either orientation
    return Or(
        And(Rel(LESS, ("x", "z")), Rel(LESS, ("z", "y"))),
        And(Rel(LESS, ("y", "z")), Rel(LESS, ("z", "x"))),
    )


def sim_automaton(p: OrderPresentation, budget: int) -> Automaton:
    """x ~ y: only finitely many elements lie between x and y."""
    f = Not(ExistsInf("z", _between()))
    return au.minimize(compile_formula(p.structure, f, state_budget=budget))


def finite_condensation(p: OrderPresentation, budget: int = 10 ** 6) -> OrderPresentation:
    """Quotient by ~, represented by the llex-least element of each class.
    Distinct representatives are never ~-equivalent, so the quotient order
    is the original order restricted to representatives."""
    s2 = p.with_sim(budget)
    rep = Not(Exists("y", And(Llex("y", "x"), Rel(SIM, ("y", "x")))))
    new_dom = define_set(s2, rep, "x", state_budget=budget)
    cube = au.insert_tape(new_dom, 1, track=new_dom)
    new_rel = au.minimize(au.intersect(p.order, cube, max_states=budget))
    q = Structure(
        name=s2.name + "'",
        domain=new_dom,
        relations={LESS: (2, new_rel)},
    )
    return OrderPresentation(q)


@dataclass(frozen=True)
class AllFiniteOrOmega:
    pass


def classify_classes(p: OrderPresentation, budget: int = 10 ** 6):
    """Certify that every condensation class has a least element; otherwise
    return a witness element from a failing class.

    Any two elements of a class have finitely many elements between them,
    so a class is ordered like a finite set, omega, omega* or Z.  It lacks a
    least element exactly when it is omega* or Z, that is, exactly when each
    of its elements has infinitely many predecessors within it; one set of
    such elements decides the level."""
    s2 = p.with_sim(budget)
    inf_preds = ExistsInf("y", And(Rel(SIM, ("y", "x")), Rel(LESS, ("y", "x"))))
    bad = define_set(s2, inf_preds, "x", state_budget=budget)
    if not au.is_empty(bad):
        return BadCondensationClass(au.count_or_enumerate(bad, 1)[0][0])
    return AllFiniteOrOmega()


def _top_class_size(p: OrderPresentation, budget: int):
    """Size of the topmost condensation class when finite, else 0.

    Called when every class is finite or omega.  An element of a lower
    class has infinitely many elements above it (the rest of its omega
    class, or those between it and a higher class), so the elements with
    finitely many above are exactly a finite top class, and none otherwise."""
    in_top = Not(ExistsInf("y", Rel(LESS, ("x", "y"))))
    top = define_set(p.structure, in_top, "x", state_budget=budget)
    members = au.count_or_enumerate(top, TOP_CLASS_CAP + 1)
    if len(members) > TOP_CLASS_CAP:
        raise StateBudgetExceeded(len(members), TOP_CLASS_CAP)
    return len(members)


def recognize(
    p: OrderPresentation,
    max_levels: Optional[int] = None,
    budget: int = 10 ** 6,
    trace: Optional[list] = None,
) -> RecognitionResult:
    """Decide well-orderedness and compute the CNF of the order type."""
    failure = check_linear(p)
    if failure is not None:
        raise NotLinear(f"{p.structure.name}: {failure} fails")
    if max_levels is None:
        max_levels = max(2, p.order.n_states)

    tops: list[int] = []
    current = p
    level = 0
    while True:
        if trace is not None:
            trace.append((level, current))
        verdict = classify_classes(current, budget)
        if isinstance(verdict, BadCondensationClass):
            return NotWellOrder(verdict)
        if not au.is_infinite(current.domain):
            members = au.count_or_enumerate(current.domain, FINITE_LEVEL_CAP + 1)
            if len(members) > FINITE_LEVEL_CAP:
                return BudgetExceeded(level)
            beta = o.from_int(len(members))
            return WellOrder(_unwind(beta, tops))
        try:
            t = _top_class_size(current, budget)
        except StateBudgetExceeded:
            return BudgetExceeded(level)
        quotient = finite_condensation(current, budget)
        # the quotient domain is a subset, so one inclusion decides equality
        if au.is_subset(current.domain, quotient.domain):
            return NotWellOrder(DenseFixpoint(level))
        tops.append(t)
        current = quotient
        level += 1
        if level > max_levels:
            return BudgetExceeded(level)


def _unwind(beta: CnfOrdinal, tops: list[int]) -> CnfOrdinal:
    for t in reversed(tops):
        if t > 0:
            if not beta.is_successor():
                raise AssertionError("finite top class but quotient type is a limit")
            beta = o.OMEGA * beta.pred() + o.from_int(t)
        else:
            beta = o.OMEGA * beta
    if not beta < o.omega_power(o.OMEGA):
        raise AssertionError(f"recognized CNF {beta} is not below w^w")
    return beta


def isomorphic(p: OrderPresentation, q: OrderPresentation, **kw) -> bool:
    rp = recognize(p, **kw)
    rq = recognize(q, **kw)
    if not isinstance(rp, WellOrder) or not isinstance(rq, WellOrder):
        raise NotComparable(f"{type(rp).__name__} vs {type(rq).__name__}")
    return rp.cnf == rq.cnf


# -- order-theoretic helpers used by the verification harness ----------------


def predecessors(p: OrderPresentation, word) -> Automaton:
    """{ y : y < word } as an automaton."""
    return au.section(p.order, 1, word)


def minimal_elements(order: Automaton, subset: Automaton) -> Automaton:
    """Members of a regular subset with no order-smaller member (unminimized)."""
    dominated = au.project(au.intersect(order, au.insert_tape(subset, 1)), 0)
    return au.difference(subset, dominated)


def least_of(p: OrderPresentation, subset: Automaton) -> list:
    """Minimal elements of a regular subset (at most 2 returned)."""
    return [w[0] for w in au.count_or_enumerate(minimal_elements(p.order, subset), 2)]


def initial_chain(p: OrderPresentation, count: int) -> list:
    """The first `count` elements of the order.  The first is certified least
    of the domain and each later one the one cover of its predecessor, both
    by automaton emptiness: the image of x under the successor relation is
    the set of minimal elements of { y : x < y }.  Two covers mean the order
    is not linear; none ends the chain."""
    out: list = []
    found = least_of(p, p.domain) if count > 0 else []
    while found:
        if len(found) > 1:
            raise NotLinear("two minimal elements; order is not linear")
        out.append(found[0])
        if len(out) == count:
            break
        found = [w[0] for w in au.count_or_enumerate(au.section(p.successor, 0, found[0]), 2)]
    return out
