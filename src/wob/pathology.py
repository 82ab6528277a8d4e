"""Pathological well-orderings built from a Pi^0_1 sentence, and their
mechanical verifiers.

The base order is length-lex on binary strings, i.e. a well-order of type
omega; naturals and strings are identified through the rank bijection
(rank 0 is the empty string).  Given the matrix pi_0 of the sentence, the
reordering compares

    x < y  iff  (x <_base y and all z < B(x) satisfy pi_0)
             or (y <_base x and some z < B(y) falsifies pi_0)

with B the identity, or the slow inverse g(x) = min{y : f(y) > x} when a
fast function f is supplied.  A false pi_0 flips the order above its least
witness, which is what the descent finder and the definable-subset check
exhibit.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import automata as au
from . import fgh
from .automata import Automaton
from .errors import IllFormedSystem, PredicateDiverged, WobError
from .logic import LLEX, And, Exists, Not, Or, Rel, Structure, _unchecked, compile_formula
from .recognition import LESS
from .records import record

BINARY = ("0", "1")


# -- rank bijection: naturals <-> binary strings in llex order ---------------


def word_of_rank(n: int) -> tuple:
    if n < 0:
        raise ValueError("rank must be a natural number")
    bits = bin(n + 1)[3:]  # drop '0b1'
    return tuple(bits)


def rank_of_word(w) -> int:
    bits = "".join(w)
    return int("1" + bits, 2) - 1


# -- predicates ---------------------------------------------------------------


@record
class PiPredicate:
    """The matrix pi_0 of a universally quantified sentence: a callback on
    the naturals or an arity-1 automaton over BINARY, exactly one given."""

    fn: Optional[Callable] = None  # naturals -> bool
    aut: Optional[Automaton] = None  # arity-1 over BINARY

    def __post_init__(self):
        if (self.fn is None) == (self.aut is None):
            raise WobError("a predicate needs exactly one of a function and an automaton")
        if self.aut is not None and (self.aut.arity, self.aut.alphabet) != (1, BINARY):
            raise WobError("regular predicate needs an arity-1 automaton over the alphabet 0 1")

    def holds(self, z: int) -> bool:
        if self.fn is not None:
            try:
                got = self.fn(z)
            except Exception as exc:
                raise PredicateDiverged(f"pi_0 failed at {z}: {exc}") from exc
            if not isinstance(got, bool):
                raise PredicateDiverged(f"pi_0 returned non-boolean at {z}")
            return got
        return self.aut.accepts(word_of_rank(z))


def always_true() -> PiPredicate:
    return PiPredicate(fn=lambda z: True)


def except_value(n: int) -> PiPredicate:
    return PiPredicate(fn=lambda z: z != n)


def regular_true() -> PiPredicate:
    return PiPredicate(aut=au.universe(BINARY, 1))


def regular_except_word(word) -> PiPredicate:
    aut = au.difference(au.universe(BINARY, 1), au.fixed_word(BINARY, word))
    return PiPredicate(aut=aut)


def regular_empty() -> PiPredicate:
    return PiPredicate(aut=au.empty(BINARY, 1))


# -- the reordering ------------------------------------------------------------


@record
class KreiselOrder:
    pi0: PiPredicate
    g: Optional[Callable] = None  # slow inverse, naturals -> naturals

    def bound(self, x: int) -> int:
        if self.g is None:
            return x
        try:
            return self.g(x)
        except Exception as exc:
            raise PredicateDiverged(f"g failed at {x}: {exc}") from exc

    def precedes(self, x: int, y: int) -> bool:
        """Literal evaluation of the defining disjunction."""
        if x < y:
            return all(self.pi0.holds(z) for z in range(self.bound(x)))
        if y < x:
            return any(not self.pi0.holds(z) for z in range(self.bound(y)))
        return False


def slow_inverse(f: Callable) -> Callable:
    """g(x) = min{y : f(y) > x}; f must be monotone and unbounded."""

    def g(x):
        y = 0
        while f(y) <= x:
            y += 1
            if y > x + 64:
                raise PredicateDiverged(f"slow inverse of f stalled at {x}")
        return y

    return g


def kreisel_compare(k: KreiselOrder, x: int, y: int) -> str:
    if x == y:
        return "equal"
    if k.precedes(x, y):
        return "less"
    if k.precedes(y, x):
        return "greater"
    raise WobError(f"order is not total at ({x}, {y})")


def find_descent(k: KreiselOrder, start: int, max_len: int, search_span: int = 256):
    """Greedy descending chain through the order inversion.

    Successive elements are searched upward in the base order: with a true
    pi_0 everything base-above is also order-above, so nothing is found;
    with a false pi_0 the region above the witness is inverted and yields a
    chain of any requested length.
    """
    chain = [start]
    current = start
    while len(chain) < max_len:
        step = None
        for d in range(current + 1, current + 1 + search_span):
            if k.precedes(d, current):
                step = d
                break
        if step is None:
            return None
        chain.append(step)
        current = step
    return chain


# -- the automatic version -----------------------------------------------------

PI0_REL = "pi0"


def kreisel_formula():
    """x < y per the defining disjunction, over llex and the pi0 relation."""
    first = And(
        Rel(LLEX, ("x", "y")),
        Not(Exists("z", And(Rel(LLEX, ("z", "x")), Not(Rel(PI0_REL, ("z",)))))),
    )
    second = And(
        Rel(LLEX, ("y", "x")),
        Exists("z", And(Rel(LLEX, ("z", "y")), Not(Rel(PI0_REL, ("z",))))),
    )
    return Or(first, second)


def kreisel_as_automatic(pi0: PiPredicate) -> Structure:
    """Compile the reordering into an automatic presentation over {0,1}^*."""
    if pi0.aut is None:
        raise WobError("only regular predicates compile to automata")
    domain = au.universe(BINARY, 1)
    helper = Structure(name="kreisel0", domain=domain, relations={PI0_REL: pi0.aut})
    rel = compile_formula(helper, kreisel_formula())
    rel = au.minimize(rel)
    return _unchecked("kreisel", domain, {LESS: rel})


def tail_set(s: Structure, word) -> Automaton:
    """The definable subset { y : y llex-above `word` } of a structure."""
    above = au.section(au.llex_automaton(s.domain.alphabet), 0, word)
    return au.minimize(au.intersect(above, s.domain))


def minimal_members(s: Structure, subset: Automaton) -> Automaton:
    """Members of a regular subset with no order-smaller member (exact):
    the subset minus the ∃ graph of the members with one of its members
    below, a difference that is only minimized and so only searched."""
    dominated, _ = au.join_graph(s.relations[LESS], [0, 1], subset, [0], tape=0)
    return au.minimize(au.difference_graph(subset, dominated))


# -- the omega+1 system with an inflated F_omega (Prop 2) ----------------------


TOP = ("omega",)
# OmegaPlusOneSpec checks that f is monotone and the step bound sound for n below this
CHECKED_RANGE = 8


@record
class OmegaPlusOneSpec:
    """A fast function packaged with its cost model and the step bound s.

    The step bound is sound when cost(n) > s(m) implies f(n) >= m.  It must
    be supplied explicitly because only its existence is guaranteed, not
    its shape.
    """

    f: Callable
    cost: Callable  # steps needed to compute f(n)
    step_bound: Callable  # s(m)

    def __post_init__(self):
        for n in range(CHECKED_RANGE):
            if self.f(n) > self.f(n + 1):
                raise IllFormedSystem(f"f is not monotone at {n}")
        for n in range(CHECKED_RANGE):
            for m in range(2 * CHECKED_RANGE):
                if self.cost(n) > self.step_bound(m) and not self.f(n) >= m:
                    raise IllFormedSystem(
                        f"step bound unsound at n={n}, m={m}: undecided but f(n) < m"
                    )


def power_of_two_spec() -> OmegaPlusOneSpec:
    f = lambda n: 2 ** n
    return OmegaPlusOneSpec(f=f, cost=f, step_bound=lambda m: m + 1)


def omega_plus_one_system(spec: OmegaPlusOneSpec) -> fgh.NotationSystem:
    f = spec.f

    def compare(a, b) -> int:
        if a == b:
            return 0
        if a == TOP:
            return 1
        if b == TOP:
            return -1
        (n, m), (n2, m2) = a, b
        if n != n2:
            return -1 if n < n2 else 1
        return -1 if m > m2 else 1  # second coordinate inverted

    def is_zero(a) -> bool:
        return a == (0, f(0))

    def is_limit(a) -> bool:
        return a == TOP

    def unsupported_pred(a):
        raise IllFormedSystem(f"{a!r} has no predecessor")

    def pred(a):
        if a == TOP or is_zero(a):
            return unsupported_pred(a)
        n, m = a
        if m < f(n):
            return (n, m + 1)
        return (n - 1, 0)

    def fs(lam, n):
        if lam != TOP:
            raise IllFormedSystem(f"{lam!r} is not a limit")
        return (n, 0)

    ns = fgh.NotationSystem(
        is_zero=is_zero,
        is_limit=is_limit,
        pred=pred,
        fs=fs,
        compare=compare,
    )
    return ns
