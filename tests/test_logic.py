import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conv, define_set, language, run_nfa, same_language, successor_structure, words_upto
from wob import automata as au
from wob import corpus
from wob.errors import ArityMismatch, NotASentence, UnknownRelation, WobError
from wob.logic import (
    EQ,
    LLEX,
    And,
    Compiler,
    Exists,
    ExistsInf,
    Forall,
    Not,
    Or,
    Rel,
    Structure,
    compile_formula,
    eval_sentence,
    implies,
    load_structure,
    parse_formula,
)


# -- independent fragment evaluator ----------------------------------------
# Set-based semantics with quantifiers relativized to a finite fragment.
# Used only on formulas whose compiled answers are fragment-determined.


def llex_key(alphabet):
    idx = {s: i for i, s in enumerate(alphabet)}
    return lambda w: (len(w), tuple(idx[c] for c in w))


def eval_frag(f, frag, rels, alphabet):
    key = llex_key(alphabet)

    def rec(g):
        if isinstance(g, Rel):
            arity, fn = rels[g.name]
            assert len(g.vars) == arity
            vs = tuple(sorted(set(g.vars)))
            out = set()
            for combo in itertools.product(frag, repeat=len(vs)):
                env = dict(zip(vs, combo))
                if fn(*[env[v] for v in g.vars]):
                    out.add(combo)
            return vs, out
        if isinstance(g, Not):
            vs, s = rec(g.body)
            full = set(itertools.product(frag, repeat=len(vs)))
            return vs, full - s
        if isinstance(g, (And, Or)):
            va, sa = rec(g.left)
            vb, sb = rec(g.right)
            vs = tuple(sorted(set(va) | set(vb)))
            sa = expand(sa, va, vs)
            sb = expand(sb, vb, vs)
            return vs, (sa & sb if isinstance(g, And) else sa | sb)
        if isinstance(g, Exists):
            vs, s = rec(g.body)
            if g.var not in vs:
                return vs, (s if frag else set())
            return drop(s, vs, g.var)
        if isinstance(g, Forall):
            return rec(Not(Exists(g.var, Not(g.body))))
        raise AssertionError(f"fragment oracle does not handle {type(g).__name__}")

    def expand(s, vs, target):
        missing = [v for v in target if v not in vs]
        if not missing:
            return {tuple(row[vs.index(v)] for v in target) for row in s}
        out = set()
        for row in s:
            env = dict(zip(vs, row))
            for combo in itertools.product(frag, repeat=len(missing)):
                env2 = dict(env)
                env2.update(zip(missing, combo))
                out.add(tuple(env2[v] for v in target))
        return out

    def drop(s, vs, var):
        i = vs.index(var)
        rest = vs[:i] + vs[i + 1 :]
        return rest, {row[:i] + row[i + 1 :] for row in s}

    rels = dict(rels)
    rels[EQ] = (2, lambda x, y: x == y)
    rels[LLEX] = (2, lambda x, y: key(x) < key(y))
    return rec(f)


def compiled_set(s, f, frag):
    vs = tuple(sorted(f.free_vars()))
    if not vs:
        return {()} if eval_sentence(s, f) else set()
    aut = compile_formula(s, f)
    out = set()
    for combo in itertools.product(frag, repeat=len(vs)):
        if aut.accepts(*combo):
            out.add(combo)
    return out


def fragment(pres, max_len):
    return [w for w in words_upto(pres.structure.domain.alphabet, max_len) if pres.ref_domain(w)]


# -- fixtures ----------------------------------------------------------------


OMEGA_P = corpus.omega_unary()
OMEGA2_P = corpus.omega_times_2()


def finite_domain_structure(max_len=3):
    alphabet = ("a",)
    trans = [(i, ("a",), i + 1) for i in range(max_len)]
    dom = au.automaton(1, alphabet, max_len + 1, 0, set(range(max_len + 1)), trans)
    return Structure(name="finite", domain=dom, relations={})


def test_sentence_exists_self_equal():
    assert eval_sentence(OMEGA_P.structure, parse_formula("(exists x (= x x))"))


def test_exists_inf_domain():
    f = parse_formula("(existsinf x (= x x))")
    assert eval_sentence(OMEGA_P.structure, f)
    assert not eval_sentence(finite_domain_structure(), f)


def test_compile_exists_successor():
    s = successor_structure()
    f = parse_formula("(exists y (rel S x y))")
    aut = compile_formula(s, f)
    for w in words_upto(("a",), 6):
        assert aut.accepts(w)


def test_llex_total_sentence():
    f = parse_formula("(forall x (forall y (or (llex x y) (llex y x) (= x y))))")
    for pres in [OMEGA_P, OMEGA2_P]:
        assert eval_sentence(pres.structure, f)


def test_least_and_no_greatest_on_omega():
    s = OMEGA_P.structure
    least = parse_formula("(exists x (forall y (not (rel < y x))))")
    greatest = parse_formula("(exists x (forall y (not (rel < x y))))")
    assert eval_sentence(s, least)
    assert not eval_sentence(s, greatest)


def test_define_set_domain():
    s = OMEGA_P.structure
    aut = define_set(s, parse_formula("(= x x)"), "x")
    assert same_language(aut, s.domain)


def test_define_set_least_is_epsilon():
    s = OMEGA_P.structure
    aut = define_set(s, parse_formula("(not (exists y (rel < y x)))"), "x")
    got = au.count_or_enumerate(aut, 5)
    assert got == [((),)]


def test_define_set_existsinf_second_copy():
    s = OMEGA2_P.structure
    aut = define_set(s, parse_formula("(existsinf y (rel < y x))"), "x")
    for w in fragment(OMEGA2_P, 5):
        in_second = len(w) >= 1 and w[0] == "b"
        assert aut.accepts(w) == in_second, w


def test_existsinf_on_finite_domain_is_empty():
    s = finite_domain_structure()
    aut = define_set(s, parse_formula("(existsinf y (llex y x))"), "x")
    assert au.is_empty(aut)


def test_forall_exists_duality():
    s = OMEGA2_P.structure
    body = "(or (rel < y x) (= x y))"
    a1 = compile_formula(s, parse_formula(f"(forall y {body})"))
    a2 = compile_formula(s, parse_formula(f"(not (exists y (not {body})))"))
    assert same_language(a1, a2)


def test_bound_renaming_invariance():
    s = OMEGA2_P.structure
    f1 = parse_formula("(exists y (rel < y x))")
    f2 = parse_formula("(exists z (rel < z x))")
    assert same_language(compile_formula(s, f1), compile_formula(s, f2))


def test_repeated_variable_in_atom():
    s = OMEGA_P.structure
    aut = define_set(s, parse_formula("(rel < x x)"), "x")
    assert au.is_empty(aut)


def test_unknown_relation_and_arity_errors():
    s = OMEGA_P.structure
    with pytest.raises(UnknownRelation):
        compile_formula(s, parse_formula("(rel nope x y)"))
    with pytest.raises(ArityMismatch):
        compile_formula(s, parse_formula("(rel < x y z)"))


def test_equality_and_llex_are_relations():
    # (= x y), (eq x y) and (llex x y) are atoms over the structure's two
    # built-in relations, which no manifest may redefine
    s = OMEGA2_P.structure
    assert parse_formula("(= x y)") == parse_formula("(eq x y)") == Rel(EQ, ("x", "y"))
    assert parse_formula("(llex x y)") == Rel(LLEX, ("x", "y"))
    for text in ("(= x y)", "(llex x y)"):
        shorthand = compile_formula(s, parse_formula(text))
        spelled = compile_formula(s, parse_formula(text.replace("(", "(rel ", 1)))
        assert au.save_automaton(spelled, "a") == au.save_automaton(shorthand, "a")
    for name in (EQ, LLEX):
        with pytest.raises(WobError, match="reserved"):
            Structure(name="r", domain=s.domain, relations={name: s.relation("<")})


def test_not_a_sentence():
    with pytest.raises(NotASentence):
        eval_sentence(OMEGA_P.structure, parse_formula("(rel < x y)"))


def test_quantifier_relativizes_to_domain():
    # in omega_times_2 the domain excludes words like "ba b"; compiled sets
    # never contain out-of-domain words
    s = OMEGA2_P.structure
    aut = define_set(s, parse_formula("(= x x)"), "x")
    assert not aut.accepts(("b", "b"))
    assert aut.accepts(("b", "a"))


def test_relation_is_its_automaton():
    # a relation's arity is its automaton's tape count, stated nowhere else:
    # an (arity, automaton) pair is refused, naming the relation
    s = OMEGA_P.structure
    assert s.relation("<") is s.relations["<"] and s.relation("<").arity == 2
    with pytest.raises(WobError, match="relation '<' is not an automaton"):
        Structure(name="pair", domain=s.domain, relations={"<": (2, s.relations["<"])})


def test_empty_domain_rejected():
    with pytest.raises(WobError):
        Structure(name="void", domain=au.empty(("a",), 1), relations={})


# -- oracle equivalence battery (acceptance criterion 1 runs the full set) --


from formula_battery import all_texts, battery_for

# a quantifier reusing a variable that is free, or bound further out
SHADOWED = [
    "(and (rel < y x) (exists y (rel < y x)))",
    "(or (llex x y) (exists x (rel < x y)))",
    "(exists y (and (rel < y x) (exists y (llex y x))))",
    "(forall x (exists x (= x x)))",
]

# a connective with a sentence operand, true or false, and a quantifier
# over a variable its body lacks
SENTENCE_OPERANDS = [
    "(and (rel < x y) (exists z (= z z)))",
    "(and (rel < x y) (not (exists z (= z z))))",
    "(or (rel < x y) (exists z (= z z)))",
    "(or (rel < x y) (not (exists z (= z z))))",
    "(exists z (rel < x y))",
]


@pytest.mark.parametrize("pres", [corpus.omega_unary(), corpus.omega_times_2(),
                                  corpus.omega_times_2_plus_3(), corpus.integer_line(),
                                  corpus.dense_dyadic()],
                         ids=lambda p: p.name)
def test_compile_matches_fragment_oracle(pres):
    # Quantifiers in the oracle range over a fragment two letters deeper than
    # the compared assignment points; the battery formulas have witnesses
    # within that margin on their structures, so the fragment determines the
    # compiled answer on the points.
    s = pres.structure
    point_len, frag_len = 3, 5
    points = set(fragment(pres, point_len))
    frag = fragment(pres, frag_len)
    rels = {"<": (2, pres.ref_less)}
    for text in battery_for(pres.name) + SHADOWED + SENTENCE_OPERANDS:
        f = parse_formula(text)
        vs, oracle = eval_frag(f, frag, rels, s.domain.alphabet)
        assert vs == tuple(sorted(f.free_vars()))
        oracle = {row for row in oracle if all(w in points for w in row)}
        got = compiled_set(s, f, sorted(points))
        assert got == oracle, f"{pres.name}: {text}"


# SHA-256 of the saved automata of `compile_formula` for every corpus
# manifest (sorted) and every battery formula, concatenated; any change to
# the compiler's output shows here.
COMPILED_BATTERY_SHA256 = "c65f679c3a8a0c90055fd5bb2d2bbd0e0ee1ecf8aec743508d175e19174f2db1"


def test_compiled_battery_output_pinned():
    digest = hashlib.sha256()
    for manifest in sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*/*.manifest")):
        s = load_structure(manifest)
        for text in all_texts():
            digest.update(au.save_automaton(compile_formula(s, parse_formula(text)), "q").encode("utf-8"))
    assert digest.hexdigest() == COMPILED_BATTERY_SHA256


def test_negation_stops_at_the_state_budget():
    # P = words whose 4th letter from the end is a: a 5-state NFA whose
    # complement needs 2^4 = 16 subset states, so `not` outgrows a budget
    # of 10 that the atom itself fits.  The construction must stop at the
    # cap, reporting budget + 1 states, not build all 16 and report them.
    trans = [(0, (s,), 0) for s in ("a", "b")] + [(0, ("a",), 1)]
    trans += [(i, (s,), i + 1) for i in (1, 2, 3) for s in ("a", "b")]
    p = au.automaton(1, ("a", "b"), 5, 0, {4}, trans)
    s = Structure("last4", au.universe(("a", "b"), 1), {"P": p})
    budget = 10
    with au.state_budget(budget):
        assert compile_formula(s, parse_formula("(rel P x)")).n_states == 5
    with pytest.raises(au.StateBudgetExceeded) as exc, au.state_budget(budget):
        compile_formula(s, parse_formula("(not (rel P x))"))
    assert exc.value.n_states == budget + 1
    assert compile_formula(s, parse_formula("(not (rel P x))")).n_states == 16


def test_state_budget_holds_inside_each_construction():
    # `<` on mixed has 45 states; its tape permutation passes a budget of
    # 10 during its BFS and reports budget + 1, not the finished size
    s = load_structure(Path(__file__).resolve().parent.parent / "corpus" / "mixed" / "mixed.manifest")
    assert compile_formula(s, parse_formula("(rel < x y)")).n_states == 45
    with pytest.raises(au.StateBudgetExceeded) as exc, au.state_budget(10):
        compile_formula(s, parse_formula("(rel < x y)"))
    assert exc.value.n_states == 11


MIXED = Path(__file__).resolve().parent.parent / "corpus" / "mixed" / "mixed.manifest"


@pytest.mark.parametrize("entry", [compile_formula, eval_sentence], ids=["compile_formula", "eval_sentence"])
def test_compilation_runs_under_the_budget_its_caller_sets(entry):
    # neither entry point sets a budget of its own: the caller's block is
    # the one in force, and `<` on mixed (45 states) passes 5 at 6
    s = load_structure(MIXED)
    f = parse_formula("(forall x (exists y (rel < x y)))" if entry is eval_sentence else "(rel < x y)")
    with pytest.raises(au.StateBudgetExceeded) as exc, au.state_budget(5):
        entry(s, f)
    assert (exc.value.n_states, exc.value.budget) == (6, 5)

CAPPED = {
    "domain_cube": lambda s: s.domain_cube(2),
    "eq": lambda s: s.eq,
    "llex": lambda s: s.llex,
    "llex_automaton": lambda s: au.llex_automaton(s.domain.alphabet),
    "insert_tape": lambda s: au.join(s.domain, [0], au.universe(s.domain.alphabet, 1), [1]),
    "section": lambda s: au.section(s.relations["<"], 1, "abab"),
    "is_subset_of_cube": lambda s: au.is_subset_of_cube(s.relations["<"], s.domain),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_cached_and_fixed_constructions_take_the_budget(name):
    # the structure's cached atoms, the fixed relation automata, the
    # cylindrification, the section and the cube check read the one budget
    # in force like every other construction and stop at budget + 1 states
    budget = 3
    with pytest.raises(au.StateBudgetExceeded) as exc, au.state_budget(budget):
        CAPPED[name](load_structure(MIXED))
    assert exc.value.n_states == budget + 1
    got = CAPPED[name](load_structure(MIXED))  # the default budget admits it
    assert got is True or got.n_states > budget


def _random_letter_dfa(rng, arity, accepting=(), n_states=3):
    table = {}

    def step(v, letter):
        if (v, letter) not in table:
            table[v, letter] = rng.choice([None] + list(range(n_states)))
        return table[v, letter]

    accepting = set(accepting) | {v for v in range(n_states) if rng.random() < 0.5}
    return au.letter_dfa(("a", "b"), arity, 0, step, accepting.__contains__)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_repeated_variables_of_an_arity_3_atom_match_brute_force(seed):
    # each repeated variable is collapsed by a join with the diagonal and a
    # projection; the atom then holds exactly the tuples whose repetition
    # the relation accepts, read here by the plain simulator
    rng = random.Random(seed)
    domain = _random_letter_dfa(rng, 1, accepting={0})  # holds the empty word
    cube = au.join(au.join(domain, [0], domain, [1]), [0, 1], domain, [2])
    rel = au.intersect(_random_letter_dfa(rng, 3), cube)
    s = Structure(name="r3", domain=domain, relations={"R": rel})
    words = list(words_upto(("a", "b"), 3))
    for atom, spread in (
        ("(rel R x y x)", lambda x, y: (x, y, x)),
        ("(rel R x x y)", lambda x, y: (x, x, y)),
        ("(rel R y x x)", lambda x, y: (y, x, x)),
        ("(rel R x x x)", lambda x: (x, x, x)),
    ):
        got = compile_formula(s, parse_formula(atom))
        expect = set()
        for tup in itertools.product(words, repeat=got.arity):
            triple = spread(*tup)
            if run_nfa(rel, conv(*triple)) if any(triple) else rel.initial in rel.accepting:
                expect.add(tup)
        assert language(got, 3) == expect, atom


def test_equality_atom_built_once(monkeypatch):
    calls = []
    original = au.diagonal

    def counted(alphabet):
        calls.append(alphabet)
        return original(alphabet)

    monkeypatch.setattr(au, "diagonal", counted)
    s = corpus.omega_times_2().structure
    got = compile_formula(s, parse_formula("(or (= x y) (= y x))"))
    assert len(calls) == 1
    words = [w for (w,) in au.count_or_enumerate(s.domain, 8)]
    for x, y in itertools.product(words, repeat=2):
        assert got.accepts(x, y) == (x == y)


def test_conjunction_is_one_join_without_cylinders(monkeypatch):
    # `and` runs its operands side by side at their variables' tapes: each
    # already accepts only domain tuples, so no domain tape is inserted for
    # the variable an operand lacks (a cylinder would be a second join)
    s = load_structure(Path(__file__).resolve().parent.parent / "corpus" / "mixed" / "mixed.manifest")
    calls = []
    original = au.join

    def counted(*args, **kwargs):
        calls.append("join")
        return original(*args, **kwargs)

    monkeypatch.setattr(au, "join", counted)
    got = compile_formula(s, parse_formula("(and (rel < x y) (rel < y z))"))
    assert calls == ["join"]
    lt = s.relation("<")
    words = [w for (w,) in au.count_or_enumerate(s.domain, 12)]
    for x, y, z in itertools.product(words, repeat=3):
        assert got.accepts(x, y, z) == (lt.accepts(x, y) and lt.accepts(y, z))
