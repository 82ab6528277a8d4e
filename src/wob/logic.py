"""Automatic presentations and compilation of first-order queries to automata.

A Structure is a regular domain plus relations given by synchronous
multi-tape automata.  Formulas (with the "there exist infinitely many"
quantifier) compile to automata whose tapes carry the free variables in
alphabetical order; sentences reduce to an emptiness test.  Quantifiers
relativize to the domain automatically, and negation is the difference
from the domain cube, so pad-words and out-of-domain words never leak into
answers.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import Optional

from . import automata as au
from .automata import Automaton
from .errors import (
    ArityMismatch,
    LoadError,
    NotASentence,
    UnknownRelation,
    WobError,
    one_word,
    read_directives,
)
from .records import factory, record

EQ = "="
LLEX = "llex"

# the parser and the compiler recurse once per level of nesting
MAX_FORMULA_DEPTH = 100


# -- formulas --------------------------------------------------------------


@record
class Formula:
    def free_vars(self) -> frozenset:
        raise NotImplementedError


@record
class Rel(Formula):
    name: str
    vars: tuple

    def free_vars(self):
        return frozenset(self.vars)


@record
class Not(Formula):
    body: Formula

    def free_vars(self):
        return self.body.free_vars()


@record
class And(Formula):
    left: Formula
    right: Formula

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


@record
class Or(Formula):
    left: Formula
    right: Formula

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


@record
class Exists(Formula):
    var: str
    body: Formula

    def free_vars(self):
        return self.body.free_vars() - {self.var}


@record
class Forall(Formula):
    var: str
    body: Formula

    def free_vars(self):
        return self.body.free_vars() - {self.var}


@record
class ExistsInf(Formula):
    var: str
    body: Formula

    def free_vars(self):
        return self.body.free_vars() - {self.var}


def implies(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def _balanced(op, fs) -> Formula:
    """`op` over `fs` as a balanced tree, so a long flat connective is not a
    chain as deep as its length; up to three operands it is that chain."""
    if len(fs) == 1:
        return fs[0]
    mid = (len(fs) + 1) // 2
    return op(_balanced(op, fs[:mid]), _balanced(op, fs[mid:]))


# -- s-expression surface syntax -------------------------------------------


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens, pos, depth=1):
    if pos >= len(tokens):
        raise LoadError("unexpected end of formula")
    tok = tokens[pos]
    if tok == "(":
        if depth > MAX_FORMULA_DEPTH:
            raise LoadError(f"formula parentheses nest deeper than {MAX_FORMULA_DEPTH}")
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise LoadError("missing closing parenthesis")
        return items, pos + 1
    if tok == ")":
        raise LoadError("unexpected closing parenthesis")
    return tok, pos + 1


def _to_formula(sexp) -> Formula:
    if isinstance(sexp, str):
        raise LoadError(f"bare atom {sexp!r} is not a formula")
    if not sexp:
        raise LoadError("empty form")
    head = sexp[0]
    if not isinstance(head, str):
        raise LoadError(f"operator must be a symbol, got {head!r}")
    head = head.lower()
    if head == "rel":
        if len(sexp) < 3:
            raise LoadError("(rel NAME VAR...) needs a name and at least one variable")
        name, *vars_ = sexp[1:]
        if not all(isinstance(v, str) for v in [name, *vars_]):
            raise LoadError("rel arguments must be symbols")
        return Rel(name, tuple(vars_))
    if head in ("eq", EQ, LLEX):
        _expect_args(sexp, 2)
        if not all(isinstance(v, str) for v in sexp[1:]):
            raise LoadError(f"{head} arguments must be symbols")
        return Rel(LLEX if head == LLEX else EQ, (sexp[1], sexp[2]))
    if head == "not":
        _expect_args(sexp, 1)
        return Not(_to_formula(sexp[1]))
    if head in ("and", "or"):
        if len(sexp) < 3:
            raise LoadError(f"({head} ...) needs at least two arguments")
        return _balanced(And if head == "and" else Or, [_to_formula(sub) for sub in sexp[1:]])
    if head in ("implies", "->"):
        _expect_args(sexp, 2)
        return implies(_to_formula(sexp[1]), _to_formula(sexp[2]))
    if head in ("exists", "forall", "existsinf"):
        _expect_args(sexp, 2)
        var = sexp[1]
        if not isinstance(var, str):
            raise LoadError(f"quantified variable must be a symbol, got {var!r}")
        body = _to_formula(sexp[2])
        cls = {"exists": Exists, "forall": Forall, "existsinf": ExistsInf}[head]
        return cls(var, body)
    raise LoadError(f"unknown operator {head!r}")


def _expect_args(sexp, n):
    if len(sexp) != n + 1:
        raise LoadError(f"({sexp[0]} ...) expects {n} arguments, got {len(sexp) - 1}")


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    sexp, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise LoadError("trailing input after formula")
    return _to_formula(sexp)


# -- structures -------------------------------------------------------------


@record
class Structure:
    """An automatic presentation: a named regular domain plus relations.

    A structure built here or loaded from a manifest has each relation
    checked to relate only domain words; the structures the package
    builds from checked parts (a condensation level, the corpus and
    Kreisel orders) are made by `_unchecked`, which skips the check."""

    name: str
    domain: Automaton
    relations: dict = factory(dict)  # name -> Automaton

    def __post_init__(self):
        if self.domain.arity != 1:
            raise ArityMismatch("domain automaton must have arity 1")
        if au.is_empty(self.domain):
            raise WobError(f"structure {self.name!r} has an empty domain")
        for reserved in (EQ, LLEX):
            if reserved in self.relations:
                raise WobError(f"relation name {reserved!r} is reserved")
        for rel_name, aut in self.relations.items():
            if not isinstance(aut, Automaton):
                raise WobError(f"relation {rel_name!r} is not an automaton")
            if aut.alphabet != self.domain.alphabet:
                raise ArityMismatch(f"relation {rel_name!r} alphabet differs from domain")
            if not au.is_subset_of_cube(aut, self.domain):
                raise WobError(
                    f"relation {rel_name!r} accepts tuples outside the domain"
                )

    @cached_property
    def _cubes(self):
        return {}

    def domain_cube(self, arity: int) -> Automaton:
        """Automaton for domain^arity."""
        if arity not in self._cubes:
            cube = self.domain
            for _ in range(arity - 1):
                cube = au.join(cube, range(cube.arity), self.domain, [cube.arity])
            self._cubes[arity] = cube
        return self._cubes[arity]

    @cached_property
    def eq(self) -> Automaton:
        return au.intersect(au.diagonal(self.domain.alphabet), self.domain_cube(2))

    @cached_property
    def llex(self) -> Automaton:
        base = au.llex_automaton(self.domain.alphabet)
        return au.minimize(au.intersect(base, self.domain_cube(2)))

    def relation(self, name: str) -> Automaton:
        if name == EQ:
            return self.eq
        if name == LLEX:
            return self.llex
        if name not in self.relations:
            raise UnknownRelation(f"structure {self.name!r} has no relation {name!r}")
        return self.relations[name]


def _unchecked(name: str, domain: Automaton, relations: dict) -> Structure:
    """A Structure whose relations are kernel results inside the cube of an
    already checked domain, skipping `__post_init__` as `automata._unchecked`
    skips the automaton check."""
    s = object.__new__(Structure)
    s.__dict__.update(name=name, domain=domain, relations=relations)
    return s


# -- compilation -------------------------------------------------------------


@record
class _Result:
    """Compiled subformula: automaton over sorted free vars, or a sentence truth."""

    vars: tuple
    aut: Optional[Automaton]
    truth: Optional[bool] = None


class Compiler:
    """Each subformula becomes an automaton over its own free variables in
    alphabetical order, and `exists`, `forall` and `existsinf` project
    their variable away at their own node.  Nothing is substituted, so a
    quantifier that reuses a name needs no renaming.  A conjunction is one
    `join` of its operands at their variables' places in the sorted union;
    a disjunction aligns each side by one join with the domain cube of the
    variables it lacks (`_align`)."""

    def __init__(self, structure: Structure):
        self.s = structure

    def compile(self, f: Formula) -> _Result:
        if isinstance(f, Rel):
            aut = self.s.relation(f.name)
            if len(f.vars) != aut.arity:
                raise ArityMismatch(
                    f"relation {f.name!r} has arity {aut.arity}, got {len(f.vars)} variables"
                )
            return self._atom(aut, list(f.vars))
        if isinstance(f, Not):
            r = self.compile(f.body)
            if r.aut is None:
                return _Result((), None, not r.truth)
            cube = self.s.domain_cube(len(r.vars))
            return _Result(r.vars, au.minimize(au.difference(cube, r.aut)))
        if isinstance(f, (And, Or)):
            a = self.compile(f.left)
            b = self.compile(f.right)
            return self._boolean(a, b, isinstance(f, And))
        if isinstance(f, Forall):
            return self.compile(Not(Exists(f.var, Not(f.body))))
        if isinstance(f, (Exists, ExistsInf)):
            r = self._with_var(self.compile(f.body), f.var)
            return self._project(r, f.var, isinstance(f, ExistsInf))
        raise TypeError(f"not a formula: {f!r}")

    # -- helpers --

    def _atom(self, aut: Automaton, var_list: list) -> _Result:
        # collapse repeated variables: join tapes i and j with the diagonal
        j = 1
        while j < len(var_list):
            i = var_list.index(var_list[j])  # its first occurrence
            if i < j:
                aut = au.project(au.join(aut, range(aut.arity), au.diagonal(aut.alphabet), [i, j]), j)
                del var_list[j]
            else:
                j += 1
        if len(var_list) == 1:
            # arity-1 atom; still relativize to the domain
            aut = au.intersect(aut, self.s.domain)
            return _Result(tuple(var_list), aut)
        # new tape t carries the old tape holding the t-th smallest variable
        order = sorted(range(len(var_list)), key=lambda i: var_list[i])
        aut = au.permute_tapes(aut, order)
        return _Result(tuple(sorted(var_list)), aut)

    def _align(self, r: _Result, target_vars: tuple) -> Automaton:
        """r's automaton over `target_vars`: one join with the domain cube of
        the variables r lacks."""
        kept = [i for i, v in enumerate(target_vars) if v in r.vars]
        missing = [i for i, v in enumerate(target_vars) if v not in r.vars]
        if not missing:
            return r.aut
        cube = self.s.domain_cube(len(missing))
        return au.join(r.aut, kept, cube, missing)

    def _boolean(self, a: _Result, b: _Result, is_and: bool) -> _Result:
        if a.aut is None and b.aut is None:
            t = (a.truth and b.truth) if is_and else (a.truth or b.truth)
            return _Result((), None, t)
        if a.aut is None or b.aut is None:
            sent, other = (a, b) if a.aut is None else (b, a)
            if is_and:
                if sent.truth:
                    return other
                return _Result(other.vars, au.empty(self.s.domain.alphabet, len(other.vars)))
            if sent.truth:
                return _Result(other.vars, self.s.domain_cube(len(other.vars)))
            return other
        target = tuple(sorted(set(a.vars) | set(b.vars)))
        if is_and:
            # each side accepts only domain tuples over its own variables,
            # and every variable is on a side, so nothing needs aligning
            a_tapes = [target.index(v) for v in a.vars]
            b_tapes = [target.index(v) for v in b.vars]
            out = au.join(a.aut, a_tapes, b.aut, b_tapes)
        else:
            out = au.union(self._align(a, target), self._align(b, target))
        return _Result(target, out)

    def _with_var(self, r: _Result, var: str) -> _Result:
        """Ensure `var` appears among r's tapes (insert a domain tape if not)."""
        if r.aut is None:
            # sentence body: x does not occur; give it a domain tape
            if r.truth:
                return _Result((var,), self.s.domain)
            return _Result((var,), au.empty(self.s.domain.alphabet, 1))
        if var in r.vars:
            return r
        target = tuple(sorted(set(r.vars) | {var}))
        return _Result(target, self._align(r, target))

    def _project(self, r: _Result, var: str, infinite: bool) -> _Result:
        t = r.vars.index(var)
        if len(r.vars) == 1:
            truth = au.is_infinite(r.aut) if infinite else not au.is_empty(r.aut)
            return _Result((), None, truth)
        rest = r.vars[:t] + r.vars[t + 1 :]
        return _Result(rest, au.project(r.aut, t, infinite=infinite))


def compile_formula(s: Structure, f: Formula) -> Automaton:
    """Compile to an automaton over the free variables in alphabetical order.

    Sentences compile to an arity-1 automaton over a dummy tape whose
    emptiness decides truth.  Every construction runs under the state
    budget the caller sets (`with au.state_budget(n):`).
    """
    res = Compiler(s).compile(f)
    if res.aut is not None:
        return res.aut
    return s.domain if res.truth else au.empty(s.domain.alphabet, 1)


def eval_sentence(s: Structure, f: Formula) -> bool:
    if f.free_vars():
        raise NotASentence(f"free variables: {sorted(f.free_vars())}")
    return not au.is_empty(compile_formula(s, f))


# -- manifest format ---------------------------------------------------------


def parse_manifest(text: str, automaton_lookup) -> Structure:
    """Parse `structure NAME / domain AUT / relation NAME ARITY AUT` lines.

    automaton_lookup(name) must return the Automaton for a referenced name;
    ARITY must be that automaton's arity.
    """
    relations = {}

    def relation(words):
        rel_name, arity, aut_name = words
        if rel_name in relations:
            raise LoadError(f"relation {rel_name!r} declared twice")
        aut = automaton_lookup(aut_name)
        if int(arity) != aut.arity:
            raise LoadError(f"relation {rel_name!r} declared arity {arity}, automaton has {aut.arity}")
        relations[rel_name] = aut

    head = read_directives(
        text,
        {"structure": one_word, "domain": lambda w: automaton_lookup(one_word(w))},
        {"relation": relation},
    )
    return Structure(name=head["structure"], domain=head["domain"], relations=relations)


def load_structure(path) -> Structure:
    path = os.fspath(path)
    base = os.path.dirname(path)

    def lookup(aut_name):
        aut_path = os.path.join(base, aut_name + ".aut")
        if not os.path.exists(aut_path):
            raise LoadError(f"referenced automaton file not found: {aut_path}")
        _, aut = au.load_automaton(aut_path, expect_name=aut_name)
        return aut

    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read(), lookup)


def save_structure(s: Structure, directory) -> str:
    """Write NAME.manifest plus one .aut file per automaton; returns manifest path."""
    os.makedirs(directory, exist_ok=True)
    lines = [f"structure {s.name}", f"domain {s.name}_domain"]
    files = {f"{s.name}_domain": s.domain}
    for rel_name, aut in sorted(s.relations.items()):
        aut_name = f"{s.name}_{rel_name}"
        safe = aut_name.replace("<", "lt").replace(">", "gt")
        lines.append(f"relation {rel_name} {aut.arity} {safe}")
        files[safe] = aut
    for aut_name, aut in files.items():
        with open(os.path.join(directory, aut_name + ".aut"), "w", encoding="utf-8") as fh:
            fh.write(au.save_automaton(aut, aut_name))
    manifest_path = os.path.join(directory, s.name + ".manifest")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path
