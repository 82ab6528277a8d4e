"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is a finite sum w^{e_1}*m_1 + ... + w^{e_k}*m_k with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients; the empty sum is 0.  Coefficients are arbitrary precision.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import total_ordering
from typing import Callable, Optional

from .errors import LoadError, MissingFs, NotALimit
from .records import record


@total_ordering
@record
class CnfOrdinal:
    terms: tuple = ()  # tuple of (exponent: CnfOrdinal, coefficient: int)

    def __post_init__(self):
        for e, m in self.terms:
            if not isinstance(e, CnfOrdinal):
                raise TypeError(f"exponent {e!r} is not a CnfOrdinal")
            if not isinstance(m, int) or m <= 0:
                raise ValueError(f"coefficient {m!r} must be a positive integer")
        for (e1, _), (e2, _) in zip(self.terms, self.terms[1:]):
            if not e1 > e2:
                raise ValueError("exponents must be strictly decreasing")

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def as_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    # -- order ------------------------------------------------------------

    def __lt__(self, other: "CnfOrdinal") -> bool:
        return self._cmp(other) < 0

    def _cmp(self, other: "CnfOrdinal") -> int:
        for (e1, m1), (e2, m2) in zip(self.terms, other.terms):
            c = e1._cmp(e2)
            if c != 0:
                return c
            if m1 != m2:
                return -1 if m1 < m2 else 1
        if len(self.terms) != len(other.terms):
            return -1 if len(self.terms) < len(other.terms) else 1
        return 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "CnfOrdinal") -> "CnfOrdinal":
        if not other.terms:
            return self
        e2, m2 = other.terms[0]
        kept = []
        for e, m in self.terms:
            c = e._cmp(e2)
            if c > 0:
                kept.append((e, m))
            elif c == 0:
                kept.append((e, m + m2))
                return CnfOrdinal(tuple(kept) + other.terms[1:])
            else:
                break
        return CnfOrdinal(tuple(kept) + other.terms)

    def __mul__(self, other: "CnfOrdinal") -> "CnfOrdinal":
        if not self.terms or not other.terms:
            return ZERO
        e1, m1 = self.terms[0]
        out = ZERO
        for e2, m2 in other.terms:
            if e2.is_zero():
                # right factor finite: multiply the leading coefficient
                out = out + CnfOrdinal(((e1, m1 * m2),) + self.terms[1:])
            else:
                out = out + CnfOrdinal(((e1 + e2, m2),))
        return out

    def pred(self) -> "CnfOrdinal":
        if not self.is_successor():
            raise ValueError(f"{self} is not a successor")
        e, m = self.terms[-1]
        if m == 1:
            return CnfOrdinal(self.terms[:-1])
        return CnfOrdinal(self.terms[:-1] + ((e, m - 1),))

    def __str__(self) -> str:
        return show(self)

    def __repr__(self) -> str:
        return f"CnfOrdinal({show(self)!r})"


ZERO = CnfOrdinal()
ONE = CnfOrdinal(((ZERO, 1),))
OMEGA = CnfOrdinal(((ONE, 1),))


def from_int(n: int) -> CnfOrdinal:
    if n < 0:
        raise ValueError("ordinals are not negative")
    return ZERO if n == 0 else CnfOrdinal(((ZERO, n),))


def omega_power(e: CnfOrdinal) -> CnfOrdinal:
    return CnfOrdinal(((e, 1),))


def compare(a: CnfOrdinal, b: CnfOrdinal) -> str:
    c = a._cmp(b)
    return "less" if c < 0 else ("equal" if c == 0 else "greater")


# -- fundamental sequences ------------------------------------------------


def standard_fs(lam: CnfOrdinal, n: int) -> CnfOrdinal:
    """The n-th member of the standard fundamental sequence of a limit.

    Uses the (n+1) convention:
      (alpha + w^{beta+1})[n] = alpha + w^beta * (n+1)
      (alpha + w^beta)[n]     = alpha + w^{beta[n]}   for beta a limit
    so that e.g. w[2] = 3.
    """
    if not lam.is_limit():
        raise NotALimit(f"{lam} is not a limit ordinal")
    if n < 0:
        raise ValueError("index must be a natural number")
    e, m = lam.terms[-1]
    head = lam.terms[:-1] if m == 1 else lam.terms[:-1] + ((e, m - 1),)
    alpha = CnfOrdinal(head)
    if e.is_successor():
        return alpha + CnfOrdinal(((e.pred(), n + 1),))
    return alpha + omega_power(standard_fs(e, n))


def canonical_prefix(alpha: CnfOrdinal, count: int) -> list[CnfOrdinal]:
    """The first `count` ordinals below alpha, in increasing order."""
    out = []
    beta = ZERO
    while len(out) < count and beta < alpha:
        out.append(beta)
        beta = beta + ONE
    return out


@record
class FsViolation:
    kind: str  # "monotonicity" | "not-below" | "bachmann"
    lam: CnfOrdinal
    n: int
    alpha: Optional[CnfOrdinal] = None

    def __str__(self):
        if self.kind == "bachmann":
            return (
                f"bachmann violation: lambda={self.lam} n={self.n} alpha={self.alpha}: "
                f"alpha[0] < lambda[{self.n}]"
            )
        return f"{self.kind} violation at lambda={self.lam}, n={self.n}"


@record
class FundamentalSequenceTable:
    """A system of fundamental sequences as a plain function on limits."""

    fs: Callable[[CnfOrdinal, int], CnfOrdinal]

    def __call__(self, lam: CnfOrdinal, n: int) -> CnfOrdinal:
        if not lam.is_limit():
            raise NotALimit(f"{lam} is not a limit ordinal")
        try:
            return self.fs(lam, n)
        except NotALimit:
            raise
        except MissingFs:
            raise
        except Exception as exc:  # partial tables surface as MissingFs
            raise MissingFs(f"fs undefined at {lam}[{n}]: {exc}") from exc


STANDARD_FS = FundamentalSequenceTable(standard_fs)
SHIFTED_FS = FundamentalSequenceTable(lambda lam, n: standard_fs(lam, n + 1))


def check_bachmann(table: FundamentalSequenceTable, bound: CnfOrdinal, samples: int):
    """Check monotonicity and the Bachmann property on a sampled grid.

    The grid is the closure of {bound} under taking fs members with indices
    below `samples`.  For each limit lambda in the grid, lambda[.] must be
    strictly increasing and stay below lambda; for each limit alpha in the
    grid lying in some interval (lambda[n], lambda[n+1]], alpha[0] must be
    >= lambda[n].  Returns the first violation or None.

    Once monotonicity holds, the intervals of one lambda are disjoint and
    increase with n, so each is the slice of the sorted limits between two
    bisections, and reading the slices in order visits the limits in order.
    """
    grid: set[CnfOrdinal] = set()
    fs: dict = {}  # limit in the grid -> its first `samples` fs members
    frontier = [bound]
    while frontier:
        x = frontier.pop()
        if x in grid or x.is_zero():
            continue
        grid.add(x)
        if x.is_limit():
            fs[x] = [table(x, n) for n in range(samples)]
            frontier.extend(fs[x])
    limits = sorted(fs)

    for lam in limits:
        values = fs[lam]
        for n, v in enumerate(values):
            if not v < lam:
                return FsViolation("not-below", lam, n)
        for n in range(samples - 1):
            if not values[n] < values[n + 1]:
                return FsViolation("monotonicity", lam, n)
    for lam in limits:
        values = fs[lam]
        for n in range(samples - 1):
            inside = limits[bisect_right(limits, values[n]) : bisect_right(limits, values[n + 1])]
            for alpha in inside:
                if fs[alpha][0] < values[n]:
                    return FsViolation("bachmann", lam, n, alpha)
    return None


# -- serialization ---------------------------------------------------------


def show(o: CnfOrdinal) -> str:
    """Render as `w^{E}*m + ...`; exponents 0/1 and coefficient 1 elided."""
    if o.is_zero():
        return "0"
    parts = []
    for e, m in o.terms:
        if e.is_zero():
            parts.append(str(m))
            continue
        if e == ONE:
            base = "w"
        elif e.is_finite() or e == OMEGA:
            base = f"w^{show(e)}"
        else:
            base = "w^{" + show(e) + "}"
        parts.append(base if m == 1 else f"{base}*{m}")
    return "+".join(parts)


# the recursive arithmetic takes about 3 frames per exponent level
MAX_EXPONENT_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise LoadError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def parse(self) -> CnfOrdinal:
        o = self.sum()
        if self.pos != len(self.text):
            raise LoadError(f"trailing input at position {self.pos} in {self.text!r}")
        return o

    def sum(self) -> CnfOrdinal:
        out = self.term()
        while self.peek() == "+":
            self.take("+")
            out = out + self.term()
        return out

    def term(self) -> CnfOrdinal:
        c = self.peek()
        if c.isdecimal():
            return from_int(self.number())
        if c == "w":
            self.take("w")
            e = ONE
            if self.peek() == "^":
                self.take("^")
                e = self.exponent()
            m = 1
            if self.peek() == "*":
                self.take("*")
                m = self.number()
                if m == 0:
                    raise LoadError(f"zero coefficient in {self.text!r}")
            return omega_power(e) * from_int(m) if m != 1 else omega_power(e)
        raise LoadError(f"cannot parse ordinal term at position {self.pos} in {self.text!r}")

    def exponent(self) -> CnfOrdinal:
        self.depth += 1
        if self.depth > MAX_EXPONENT_DEPTH:
            raise LoadError(f"exponents nest deeper than {MAX_EXPONENT_DEPTH} at position {self.pos}")
        c = self.peek()
        if c == "{":
            self.take("{")
            e = self.sum()
            self.take("}")
        elif c.isdecimal():
            e = from_int(self.number())
        elif c == "w":
            self.take("w")
            e = OMEGA
            if self.peek() == "^":
                self.take("^")
                e = omega_power(self.exponent())
        else:
            raise LoadError(f"cannot parse exponent at position {self.pos} in {self.text!r}")
        self.depth -= 1
        return e

    def number(self) -> int:
        start = self.pos
        while self.peek().isdecimal():
            self.pos += 1
        if start == self.pos:
            raise LoadError(f"expected a number at position {self.pos} in {self.text!r}")
        return int(self.text[start : self.pos])


def parse(text: str) -> CnfOrdinal:
    return _Parser(text).parse()
