"""The fast-growing hierarchy, generic over a notation system with
fundamental sequences, with explicit dual fuel.

    F_0(x) = x + 1
    F_{a+1}(x) = F_a(...F_a(x)...)   (x-fold)
    F_lam(x) = F_{lam[x]}(x)

Evaluation is iterative over a work stack of pending indices, so the running
value only ever increases; Exceeded(value_reached=...) therefore certifies a
lower bound on the true value, which is how comparisons against infeasibly
large values stay sound.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from . import ordinals as o
from .errors import IllFormedSystem
from .ordinals import FundamentalSequenceTable
from .records import record


@record
class NotationSystem:
    """Opaque notation values with the operations the hierarchy needs."""

    is_zero: Callable
    is_limit: Callable
    pred: Callable  # defined on successors
    fs: Callable  # fs(lam, n), defined on limits
    compare: Callable  # compare(a, b) -> negative | 0 | positive


def standard_system(fs_table: Optional[FundamentalSequenceTable] = None) -> NotationSystem:
    table = fs_table or o.STANDARD_FS

    return NotationSystem(
        is_zero=lambda a: a.is_zero(),
        is_limit=lambda a: a.is_limit(),
        pred=lambda a: a.pred(),
        fs=lambda a, n: table(a, n),
        compare=lambda a, b: a._cmp(b),
    )


def shifted_system() -> NotationSystem:
    return standard_system(o.SHIFTED_FS)


@record
class Budget:
    max_value: int = 10 ** 6
    max_steps: int = 10 ** 6

    def __post_init__(self):
        if self.max_value <= 0 or self.max_steps <= 0:
            raise ValueError("budget components must be positive")


@record
class Exceeded:
    reason: str  # "value" | "steps"
    value_reached: int  # running value when evaluation stopped (a lower bound)
    steps_done: int


EvalResult = Union[int, Exceeded]


def eval_F(ns: NotationSystem, alpha, x: int, budget: Budget) -> EvalResult:
    """Exact value of F_alpha(x), or Exceeded with the certified lower bound.

    The running value is nondecreasing throughout, so an Exceeded result
    proves F_alpha(x) >= value_reached.  The work stack is run-length
    encoded: a successor unfolding pushes (pred, value) in one segment.
    """
    if x < 0:
        raise ValueError("argument must be a natural number")
    stack = [(alpha, 1)]
    value = x
    steps = 0
    while stack:
        steps += 1
        if steps > budget.max_steps:
            return Exceeded("steps", value, steps - 1)
        a, cnt = stack[-1]
        if cnt <= 1:
            stack.pop()
        else:
            stack[-1] = (a, cnt - 1)
        if ns.is_zero(a):
            value += 1
            if value > budget.max_value:
                return Exceeded("value", value, steps)
        elif ns.is_limit(a):
            b = ns.fs(a, value)
            if ns.compare(b, a) >= 0:
                raise IllFormedSystem(f"fs({a!r}, {value}) is not below the limit")
            stack.append((b, 1))
        else:
            b = ns.pred(a)
            if ns.compare(b, a) >= 0:
                raise IllFormedSystem(f"pred({a!r}) is not smaller")
            if value > 0:
                stack.append((b, value))
            # value == 0 means a zero-fold iteration: nothing to do
    return value


def eval_at_least(ns: NotationSystem, alpha, x: int, threshold: int, max_steps: int = 10 ** 7):
    """Soundly decide F_alpha(x) >= threshold without computing huge values.

    Returns (verdict, value) where value is exact when it was reached within
    the cap; verdict None means the step fuel ran out before the answer was
    determined (inconclusive).
    """
    budget = Budget(max_value=max(threshold, 1), max_steps=max_steps)
    got = eval_F(ns, alpha, x, budget)
    if isinstance(got, int):
        return got >= threshold, got
    if got.reason == "value":
        return True, None  # running value is monotone: final >= value_reached > threshold
    return None, None


@record
class ComparisonPoint:
    x: int
    verdict: str  # "lt" | "eq" | "gt" | "exceeded"
    left: Optional[int]  # exact values when available
    right: Optional[int]


@record
class DominationReport:
    points: tuple[ComparisonPoint, ...]
    disclaimer: str = (
        "desk-scale sample only: pointwise comparisons do not prove the "
        "asymptotic domination theorem"
    )

    def all_strictly_less(self) -> bool:
        return all(pt.verdict == "lt" for pt in self.points)


def dominates_at(
    ns1: NotationSystem,
    alpha,
    ns2: NotationSystem,
    beta,
    xs: Iterable[int],
    budget: Budget,
) -> DominationReport:
    """Compare F^{ns1}_alpha(x) with F^{ns2}_beta(x) at each sample point.

    When the left value is exact and the right side blows past it, the
    verdict "lt" is sound because running values are monotone lower bounds.
    """
    points = []
    for x in xs:
        left = eval_F(ns1, alpha, x, budget)
        if not isinstance(left, int):
            points.append(ComparisonPoint(x, "exceeded", None, None))
            continue
        res, right = eval_at_least(ns2, beta, x, left + 1, max_steps=budget.max_steps)
        if res is None:
            points.append(ComparisonPoint(x, "exceeded", left, None))
        elif res:
            points.append(ComparisonPoint(x, "lt", left, right))
        else:
            verdict = "eq" if right == left else "gt"
            points.append(ComparisonPoint(x, verdict, left, right))
    return DominationReport(tuple(points))
