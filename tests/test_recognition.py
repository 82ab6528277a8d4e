import itertools
import random
import sys
import traceback
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_NO_LEAST,
    binary_llex,
    built_projection_sets,
    convolve,
    define_set,
    ladder,
    least_of,
    reference_check_linear,
    reference_initial_chain,
    reference_minimize,
    reference_representatives,
    reference_successor,
    reference_top_class,
    reference_top_class_size,
    rename_symbols,
    same_language,
    with_sim,
    words_upto,
)
from wob import automata as au
from wob import corpus
from wob import logic
from wob import ordinals as o
from wob import pathology as pa
from wob import recognition as rec
from wob.errors import NotComparable, NotLinear, StateBudgetExceeded
from wob.logic import Structure
from wob.recognition import (
    BadCondensationClass,
    DenseFixpoint,
    NotWellOrder,
    OrderPresentation,
    WellOrder,
    check_linear,
    classify_classes,
    condense,
    finite_condensation,
    initial_chain,
    isomorphic,
    predecessors,
    recognize,
)


def pres_to_op(p):
    return OrderPresentation(p.structure)


def brute_sorted_fragment(p, max_len):
    frag = [w for w in words_upto(p.structure.domain.alphabet, max_len) if p.ref_domain(w)]
    return sorted(frag, key=_cmp_key(p))


def _cmp_key(p):
    import functools

    def cmp(a, b):
        if p.ref_less(a, b):
            return -1
        if p.ref_less(b, a):
            return 1
        return 0

    return functools.cmp_to_key(cmp)


# -- linearity ----------------------------------------------------------------


def test_check_linear_ok_on_omega():
    assert check_linear(pres_to_op(corpus.omega_unary())) is None


def test_check_linear_two_cycle():
    # {(eps,a),(a,eps)} violates transitivity (eps<a<eps but not eps<eps)
    assert check_linear(OrderPresentation(_two_cycle())) == "transitivity"


def test_check_linear_partial_order():
    # prefix order on {0,1}^*: not total (0 and 1 incomparable)
    assert check_linear(OrderPresentation(_strict_prefix())) == "totality"
    # brute-force witness: an incomparable pair exists
    pairs = [
        (x, y)
        for x, y in itertools.product(list(words_upto(("0", "1"), 3)), repeat=2)
        if x != y and x != y[: len(x)] and y != x[: len(y)]
    ]
    assert pairs


# -- condensation -------------------------------------------------------------


def test_condensation_of_omega_is_singleton():
    q = finite_condensation(pres_to_op(corpus.omega_unary()))
    words = au.count_or_enumerate(q.domain, 5)
    assert len(words) == 1
    assert au.is_empty(q.order)


def test_condensation_of_omega2p3_is_three_points():
    q = finite_condensation(pres_to_op(corpus.omega_times_2_plus_3()))
    words = au.count_or_enumerate(q.domain, 10)
    assert len(words) == 3
    # brute-force: condensation classes of the enumerated prefix
    p = corpus.omega_times_2_plus_3()
    frag = brute_sorted_fragment(p, 6)
    # tracks a*, b a*, c{1,3} collapse to three classes
    tracks = {w[0] if w else "a" for w in frag}
    assert tracks == {"a", "b", "c"}


def test_condensation_of_dense_is_identity():
    p = pres_to_op(corpus.dense_dyadic())
    q = finite_condensation(p)
    assert same_language(q.domain, p.domain)
    # and on words of length <= 5 the quotient keeps every element
    for w in words_upto(("0", "1"), 5):
        if corpus.dense_dyadic().ref_domain(w):
            assert q.domain.accepts(w)


def test_in_class_matches_reference_classes():
    # (y, x) is in `in_class` exactly when y < x in the same "finitely many in
    # between" class, against per-structure class references: same track
    # for the sums, equal leading digits for the digit presentations,
    # everything in one class on omega
    cases = [
        (corpus.omega_unary(), lambda x, y: True),
        (corpus.omega_times_2(), lambda x, y: (x[:1] == ("b",)) == (y[:1] == ("b",))),
        (
            corpus.digit_presentation(o.parse("w^2"), "omega_sq"),
            lambda x, y: corpus.parse_digit_word(x)[:-1] == corpus.parse_digit_word(y)[:-1],
        ),
    ]
    for pres, same_class in cases:
        in_class = pres_to_op(pres).in_class
        frag = [w for w in words_upto(pres.structure.domain.alphabet, 5) if pres.ref_domain(w)]
        for x in frag:
            for y in frag:
                want = pres.ref_less(y, x) and same_class(x, y)
                assert in_class.accepts(y, x) == want, (pres.name, y, x)


def test_classify_omega_ok():
    # every class has a least element: no fault, like check_linear's None
    assert classify_classes(pres_to_op(corpus.omega_unary())) is None


def test_classify_integer_line_bad():
    got = classify_classes(pres_to_op(corpus.integer_line()))
    assert isinstance(got, BadCondensationClass)
    # the witness element's class has no least member among enumerated elements
    p = corpus.integer_line()
    frag = brute_sorted_fragment(p, 8)
    w = got.witness
    assert p.ref_domain(w)
    below = [u for u in frag if p.ref_less(u, w)]
    assert below, "witness should have enumerated predecessors in its class"


def test_classify_omega_plus_omega_star_bad():
    got = classify_classes(pres_to_op(corpus.omega_plus_omega_star()))
    assert isinstance(got, BadCondensationClass)
    assert got.witness[0] == "b"  # in the reversed copy


# -- recognition --------------------------------------------------------------


@pytest.mark.parametrize("p", corpus.well_order_corpus(), ids=lambda p: p.name)
def test_recognize_well_orders(p):
    got = recognize(pres_to_op(p))
    assert isinstance(got, WellOrder), got
    assert got.cnf == p.expected_cnf
    assert got.cnf < o.omega_power(o.OMEGA)


@pytest.mark.parametrize("k", [4, 5])
def test_recognize_ladder_rungs(k):
    p = ladder(k)
    got = recognize(pres_to_op(p))
    assert isinstance(got, WellOrder), got
    assert got.cnf == p.expected_cnf


@pytest.mark.parametrize("p", corpus.non_well_order_corpus(), ids=lambda p: p.name)
def test_recognize_non_well_orders(p: corpus.Presentation):
    levels, got = condense(pres_to_op(p))
    assert isinstance(got, NotWellOrder), got
    ev = got.evidence
    assert type(ev) is {"bad-class": BadCondensationClass, "dense": DenseFixpoint}[p.expected_failure], ev
    if isinstance(ev, BadCondensationClass):
        # machine-checkable: among enumerated elements of the witness class the
        # order has no least member, so every fragment member sees a smaller one
        frag = brute_sorted_fragment(p, 8)
        w = ev.witness
        smaller = [u for u in frag if p.ref_less(u, w)]
        assert smaller
    else:
        # quotient equals the domain at the reported level, verified by
        # automaton equivalence
        level_p = OrderPresentation(levels[ev.level].structure)
        q = finite_condensation(level_p)
        assert same_language(q.domain, level_p.domain)


BLOCK_TAGS = ("b", "c", "d")


@st.composite
def block_specs(draw):
    """1-3 blocks (kind, tag, n) with distinct tags, in any order: the run
    `tag a^n` ascending ("up") or descending ("down"), or the n-element
    chain tag, tag tag, ... ("chain")."""
    tags = draw(st.permutations(BLOCK_TAGS))[: draw(st.integers(1, 3))]
    return [(draw(st.sampled_from(["up", "down", "chain"])), tag, draw(st.integers(1, 3))) for tag in tags]


def _spec_block(alphabet, spec):
    kind, tag, n = spec
    if kind == "chain":
        return corpus.chain_block(alphabet, tag, n)
    return corpus.run_block(alphabet, "a", tag=tag, descending=kind == "down")


def _spec_head(spec):
    """The first elements of an ascending block, at most five."""
    kind, tag, n = spec
    if kind == "chain":
        return [(tag,) * i for i in range(1, n + 1)]
    return [(tag,) + ("a",) * i for i in range(5)]


def _block_sum(specs):
    return corpus.block_sum("sum", [_spec_block(("a",) + BLOCK_TAGS, spec) for spec in specs])


def _seeded_block_sum(seed):
    """The block sum of what `block_specs` draws, drawn by a seeded generator."""
    rng = random.Random(seed)
    tags = rng.sample(BLOCK_TAGS, rng.randint(1, 3))
    return _block_sum([(rng.choice(["up", "down", "chain"]), tag, rng.randint(1, 3)) for tag in tags]).structure


@settings(max_examples=60, deadline=None)
@given(block_specs())
def test_random_block_sums_recognize_as_their_expected_verdict(specs):
    alphabet = ("a",) + BLOCK_TAGS
    p = _block_sum(specs)
    op = pres_to_op(p)
    # the derived reference predicates are the automata's on short words
    frag = [w for w in words_upto(alphabet, 3) if p.ref_domain(w)]
    assert frag == [w for w in words_upto(alphabet, 3) if op.domain.accepts(w)]
    assert all(p.ref_less(x, y) == op.order.accepts(x, y) for x in frag for y in frag)
    assert check_linear(op) is None
    got = recognize(op)
    if any(kind == "down" for kind, _, _ in specs):
        assert (p.expected_cnf, p.expected_failure) == (None, "bad-class")
        assert isinstance(got, NotWellOrder) and isinstance(got.evidence, BadCondensationClass), got
        return
    assert p.expected_failure is None
    assert got == WellOrder(p.expected_cnf)
    assert initial_chain(op, 5) == [w for spec in specs for w in _spec_head(spec)][:5]


def test_initial_chain_matches_brute_force_order():
    for p in [corpus.omega_times_2(), corpus.digit_presentation(o.parse("w^2"), "omega_sq")]:
        op = pres_to_op(p)
        chain = rec.initial_chain(op, 30)
        assert len(chain) == 30
        # strictly ascending and matching the reference order
        for a, b in zip(chain, chain[1:]):
            assert p.ref_less(a, b)
        # ranks: the i-th chain element has exactly i predecessors in the
        # whole presentation (automaton-counted)
        for i in [0, 1, 2, 7, 19]:
            preds = predecessors(op, chain[i])
            assert not au.is_infinite(preds)
            assert len(au.count_or_enumerate(preds, i + 2)) == i


def test_recognize_finite_domain():
    p = corpus.digit_presentation(o.from_int(12), "twelve")
    got = recognize(pres_to_op(p))
    assert got == WellOrder(o.from_int(12))


def test_recognize_is_presentation_invariant_under_relabeling():
    p = corpus.omega_times_2()
    s = p.structure
    mapping = {"a": "x", "b": "y"}
    dom = rename_symbols(s.domain, mapping)
    rel = rename_symbols(s.relations["<"], mapping)
    s2 = Structure(name="relabel", domain=dom, relations={"<": rel})
    got = recognize(OrderPresentation(s2))
    assert got == WellOrder(p.expected_cnf)


def test_isomorphic():
    omega_a = pres_to_op(corpus.omega_unary())
    omega_b = pres_to_op(corpus.omega_binary())
    assert isomorphic(omega_a, omega_b)
    assert not isomorphic(omega_a, pres_to_op(corpus.omega_plus_one()))
    assert not isomorphic(
        pres_to_op(corpus.digit_presentation(o.parse("w^2"), "sq")),
        pres_to_op(corpus.omega_times_2()),
    )


def test_isomorphic_rejects_non_well_orders():
    with pytest.raises(NotComparable):
        isomorphic(pres_to_op(corpus.omega_unary()), pres_to_op(corpus.integer_line()))


def test_recognize_level_cap():
    p = corpus.digit_presentation(o.parse("w^2"), "sq")
    got = recognize(pres_to_op(p), max_levels=0)
    assert isinstance(got, rec.BudgetExceeded)
    assert got.level == 1
    # at each corpus order's level count L the verdict comes back, and one
    # level fewer stops at level L; binlex's verdict is its dense fixpoint
    for name, levels in [("omega_cube", 3), ("mixed", 2), ("omega", 1), ("binlex", 1)]:
        s = logic.load_structure(CORPUS_DIR / name / f"{name}.manifest")
        verdict = recognize(OrderPresentation(s))
        assert not isinstance(verdict, rec.BudgetExceeded), name
        assert recognize(OrderPresentation(s), max_levels=levels) == verdict, name
        assert recognize(OrderPresentation(s), max_levels=levels - 1) == rec.BudgetExceeded(levels), name


def test_finite_sets_are_counted_not_listed():
    # the last level and a finite top class are counted on their minimal
    # DFA, so a size past any listing comes back exact
    orders = [
        corpus.block_sum("bin16", [binary_llex(("0", "1"), 0, 16)]),
        corpus.block_sum("bin40", [binary_llex(("0", "1"), 0, 40)]),
        corpus.block_sum("w_bin30", [corpus.run_block(("a", "0", "1"), "a"), binary_llex(("a", "0", "1"), 1, 30)]),
    ]
    want = [o.from_int(2 ** 17 - 1), o.from_int(2 ** 41 - 1), o.parse("w+2147483646")]
    for p, cnf in zip(orders, want):
        assert p.expected_cnf == cnf
        assert recognize(pres_to_op(p)) == WellOrder(cnf), p.name


def test_a_budget_exit_while_counting_the_top_class_is_raised(monkeypatch):
    # only the top-class set projects tape 1 with infinitely many: a budget
    # exit there is the state budget's, never a level verdict
    original = au.projection_graph

    def refusing(a, tape, infinite=False):
        if (tape, infinite) == (1, True):
            raise StateBudgetExceeded(7, 6, "states")
        return original(a, tape, infinite)

    monkeypatch.setattr(au, "projection_graph", refusing)
    with pytest.raises(StateBudgetExceeded):
        recognize(pres_to_op(corpus.omega_times_2()))


def test_tiny_state_budget_raises():
    from wob.errors import StateBudgetExceeded

    p = pres_to_op(corpus.digit_presentation(o.parse("w^2"), "sq"))
    with pytest.raises(StateBudgetExceeded), au.state_budget(8):
        recognize(p)


def test_recognize_requires_linear():
    with pytest.raises(NotLinear):
        recognize(OrderPresentation(_strict_prefix()))


def test_initial_chain_names_two_covers():
    # the empty word is least in the prefix order, and both one-letter
    # words cover it
    with pytest.raises(NotLinear, match=r"^element '' has two covers, '0' and '1'; order is not linear$"):
        initial_chain(OrderPresentation(_strict_prefix()), 5)


def test_initial_chain_names_two_minimal_elements():
    # an empty order on {a, b}: both elements are minimal, and no chain starts
    ab = ("a", "b")
    domain = au.union(au.fixed_word(ab, "a"), au.fixed_word(ab, "b"))
    s = Structure(name="antichain", domain=domain, relations={"<": au.empty(ab, 2)})
    with pytest.raises(NotLinear, match=r"^two minimal elements, 'a' and 'b'; order is not linear$"):
        initial_chain(OrderPresentation(s), 5)


@pytest.mark.parametrize("name, levels", [("mixed", 3), ("omega_cube", 4)])
def test_sim_compiled_once_per_level(monkeypatch, name, levels):
    # every set of a level is read from its one in-class relation, so each
    # level builds it exactly once, but the finite last level, which is
    # counted before it is classified, builds none
    from pathlib import Path

    from wob.logic import load_structure

    calls = []
    original = OrderPresentation.in_class.func
    counted = cached_property(lambda p: calls.append(p) or original(p))
    counted.__set_name__(OrderPresentation, "in_class")
    monkeypatch.setattr(OrderPresentation, "in_class", counted)
    manifest = Path(__file__).resolve().parent.parent / "corpus" / name / f"{name}.manifest"
    reached, got = condense(OrderPresentation(load_structure(manifest)))
    assert isinstance(got, WellOrder)
    assert len(reached) == levels
    assert len(calls) == levels - 1
    assert all(c.structure is level.structure for c, level in zip(calls, reached))


@pytest.mark.parametrize("name, level", [("dense", 0), ("binlex", 1)])
def test_dense_fixpoint_builds_no_last_quotient(monkeypatch, name, level):
    # an empty in-class relation is the fixpoint, so the level where it is
    # reached is not condensed: one quotient per level below it
    calls = []
    original = rec.finite_condensation
    monkeypatch.setattr(rec, "finite_condensation", lambda p: calls.append(p) or original(p))
    pres = OrderPresentation(logic.load_structure(CORPUS_DIR / name / f"{name}.manifest"))
    assert recognize(pres) == NotWellOrder(DenseFixpoint(level))
    assert len(calls) == level


CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

CHAIN_CASES = {m.stem: (logic.load_structure, m) for m in sorted(CORPUS_DIR.glob("*/*.manifest"))}
CHAIN_CASES["kreisel_true"] = (pa.kreisel_as_automatic, pa.regular_true())
CHAIN_CASES["kreisel_witness"] = (pa.kreisel_as_automatic, pa.regular_except_word(("1", "1")))


def _saved(s: Structure, directory: Path) -> dict:
    logic.save_structure(s, directory)
    return {f.name: f.read_bytes() for f in directory.iterdir()}


@pytest.mark.parametrize("name, cap", [(name, None) for name in sorted(CHAIN_CASES)] + [("omega_cube", cap) for cap in range(3)])
def test_level_records_agree_with_the_verdict(tmp_path, name, cap):
    # one record per level reached, level 0 the presentation's own
    # structure: a verdict is read at the last record, a level cap stops
    # after the records it counts, a record has a top count exactly where its
    # level was condensed, and each next record is that level's quotient
    make, arg = CHAIN_CASES[name]
    s = make(arg)
    levels, got = condense(OrderPresentation(s), max_levels=cap)
    assert recognize(OrderPresentation(s), max_levels=cap) == got
    assert levels[0].structure is s
    if isinstance(got, rec.BudgetExceeded):
        assert len(levels) == got.level == cap + 1
    elif isinstance(got, WellOrder):  # one level per power of w, and the finite last
        assert len(levels) == got.cnf.terms[0][0].as_int() + 1
        assert not au.is_infinite(levels[-1].structure.domain)
    elif isinstance(got.evidence, DenseFixpoint):
        assert len(levels) == got.evidence.level + 1
        assert au.is_empty(OrderPresentation(levels[-1].structure).in_class)
    else:
        assert classify_classes(OrderPresentation(levels[-1].structure)) == got.evidence
    condensed = len(levels) if isinstance(got, rec.BudgetExceeded) else len(levels) - 1
    assert [level.top is not None for level in levels] == [i < condensed for i in range(len(levels))]
    for i, (lower, upper) in enumerate(zip(levels, levels[1:])):
        quotient = finite_condensation(OrderPresentation(lower.structure))
        assert _saved(upper.structure, tmp_path / f"{i}got") == _saved(quotient.structure, tmp_path / f"{i}want"), i


def test_level_cap_is_tested_before_the_quotient(monkeypatch):
    # a level cap stops before the quotient it would throw away: omega_cube
    # capped at 2 levels keeps 3 records and builds 2 quotients.  The one
    # quotient of omega as one-digit vectors needs 5 states, more than any
    # other set of either level, so under a budget of 4 a cap of 0 levels
    # exits first, and a cap of 1 raises in the quotient
    calls = []
    monkeypatch.setattr(rec, "finite_condensation", lambda p: calls.append(p) or finite_condensation(p))
    cube = OrderPresentation(logic.load_structure(CORPUS_DIR / "omega_cube" / "omega_cube.manifest"))
    levels, got = condense(cube, max_levels=2)
    assert got == rec.BudgetExceeded(3) and len(levels) == 3
    assert len(calls) == 2
    omega = OrderPresentation(corpus.digit_presentation(o.parse("w"), "omega_digits").structure)
    with au.state_budget(4):
        assert recognize(omega, max_levels=0) == rec.BudgetExceeded(1)
        with pytest.raises(StateBudgetExceeded) as info:
            recognize(omega, max_levels=1)
    assert info.value.n_states == 5
    assert "finite_condensation" in [entry.name for entry in info.traceback]
    with au.state_budget(5):
        assert recognize(omega, max_levels=1) == WellOrder(o.parse("w"))


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_a_finite_level_is_counted_unclassified(monkeypatch, name):
    # every class of a finite order has a least element, so a level whose
    # domain is finite is counted before it is classified: it reaches no
    # bad-class set, no in-class relation, no I and no interval product
    # but level 0's linearity check.  The representatives join llex with
    # in_class both ways, so no in_class transpose and no union is built
    make, arg = CHAIN_CASES[name]
    s = make(arg)
    reached = []

    def reading(label, fn):
        def read(p):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not check_linear.__code__:
                frame = frame.f_back
            if frame is None:
                reached.append((label, p.structure))
            return fn(p)

        return read

    for attr in ("between", "infinitely_between", "in_class"):
        counted = cached_property(reading(attr, getattr(OrderPresentation, attr).func))
        counted.__set_name__(OrderPresentation, attr)
        monkeypatch.setattr(OrderPresentation, attr, counted)
    monkeypatch.setattr(rec, "classify_classes", reading("classify_classes", classify_classes))
    built = []
    for attr in ("union", "permute_tapes"):
        monkeypatch.setattr(au, attr, lambda *args, fn=getattr(au, attr): built.append(fn) or fn(*args))
    levels, got = condense(OrderPresentation(s))
    finite = [level.structure for level in levels if not au.is_infinite(level.structure.domain)]
    assert len(finite) == isinstance(got, WellOrder)
    assert [label for label, level in reached if any(level is f for f in finite)] == []
    assert built == []
    # each infinite level is classified
    classified = [level for label, level in reached if label == "classify_classes"]
    assert len(classified) == len(levels) - len(finite)


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_initial_chain_matches_least_of_remaining_loop(name):
    # the cover of x is the one minimal element of { y : x < y }, so the
    # chain and its early stops are those of the least-of-remaining loop
    make, arg = CHAIN_CASES[name]
    got = initial_chain(OrderPresentation(make(arg)), 30)
    assert got == reference_initial_chain(OrderPresentation(make(arg)), 30)


def test_first_element_is_least_of_the_domain():
    # the chain's first element is read off the order's own tape-0
    # projection, not off a join with the domain: a structure's relations
    # lie in its domain cube, so the two give the same minimal elements, and
    # two of them name the same error.  On every corpus order, both Kreisel
    # orders and 200 perturbed ones, some with two minimal elements
    structures = [make(arg) for make, arg in CHAIN_CASES.values()]
    structures += [_random_order(random.Random(seed)) for seed in range(200)]
    errors = 0
    for n, s in enumerate(structures):
        p = OrderPresentation(s)
        want = least_of(p, p.domain)
        if len(want) > 1:
            two = " and ".join(repr(au.show_word(w)) for w in want)
            with pytest.raises(NotLinear) as info:
                initial_chain(p, 1)
            assert str(info.value) == f"two minimal elements, {two}; order is not linear", n
            errors += 1
        else:
            assert initial_chain(p, 1) == want, n
    assert errors


def test_initial_chain_compiles_successor_once(monkeypatch):
    # the successor relation is built once, from one `between` search of
    # the order joined with itself; the kernel calls must not grow with the
    # length of the chain
    calls = dict.fromkeys(("between", "compile", "minimize", "fixed_word", "join", "join_graph"), 0)

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "join_graph" and [tuple(t) for t in args[1:4:2]] == [(0, 1), (1, 2)]:
                calls["between"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(logic.Compiler, "compile")
    for name in ("minimize", "fixed_word", "join", "join_graph"):
        count(au, name)

    def run(length):
        p = OrderPresentation(logic.load_structure(CORPUS_DIR / "mixed" / "mixed.manifest"))
        for name in calls:
            calls[name] = 0
        assert len(initial_chain(p, length)) == length
        return dict(calls)

    short, long = run(10), run(40)
    assert short["between"] == long["between"] == 1
    assert long["compile"] == 0
    assert long["minimize"] <= 2
    assert long["fixed_word"] == 0
    assert long["join"] == short["join"]
    assert long["join_graph"] == short["join_graph"]


def test_initial_chain_reads_covers_by_set_steps(monkeypatch):
    # each cover is read by the successor relation's memoized set steps:
    # no section is built, and the one enumeration is the first element's,
    # however long the chain.  The steps are keyed by (set of states,
    # symbol) and the descent's choices by (set, symbol, live set), never by
    # a position in a word, so their tables stay small after 200 elements
    calls = dict.fromkeys(("section", "count_or_enumerate"), 0)

    def count(name):
        fn = getattr(au, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(au, name, counted)

    for name in calls:
        count(name)

    def run(name, length):
        p = OrderPresentation(logic.load_structure(CORPUS_DIR / name / f"{name}.manifest"))
        for key in calls:
            calls[key] = 0
        assert len(initial_chain(p, length)) == length
        return p, dict(calls)

    assert run("mixed", 10)[1] == run("mixed", 40)[1] == {"section": 0, "count_or_enumerate": 1}
    for name in ("omega", "omega_sq", "mixed", "omega_cube"):
        succ = run(name, 200)[0].successor
        (steps,) = succ._section_steps.values()
        entries = len(steps.forward) + len(steps.choices) + len(steps.back) + len(steps.tail)
        assert entries < 4 * succ.n_states * (len(succ.alphabet) + 1), (name, entries)


def test_interval_product_built_once_across_budgets(monkeypatch):
    # what a presentation builds is the same under any budget: recognizing
    # under one budget and then reading the chain under the default
    # searches each infinite level's order joined with itself once, 2
    # searches in all: the finite last level is counted, not classified
    between = []
    join_graph = au.join_graph

    def counted(*args, **kwargs):
        if [tuple(t) for t in args[1:4:2]] == [(0, 1), (1, 2)]:
            between.append(args)
        return join_graph(*args, **kwargs)

    monkeypatch.setattr(au, "join_graph", counted)
    p = OrderPresentation(logic.load_structure(CORPUS_DIR / "mixed" / "mixed.manifest"))
    with au.state_budget(10 ** 5):
        recognize(p)
    assert len(between) == 2
    initial_chain(p, 5)
    assert len(between) == 2


def _llex_or_equal():
    alphabet = ("0", "1")
    rel = au.union(au.llex_automaton(alphabet), au.diagonal(alphabet))
    return Structure(name="llex_or_equal", domain=au.universe(alphabet, 1), relations={"<": rel})


def _two_cycle():
    # eps < a < eps
    alphabet = ("a",)
    cyc = au.automaton(2, alphabet, 3, 0, {1, 2}, [(0, (au.PAD, "a"), 1), (0, ("a", au.PAD), 2)])
    return Structure(name="cyc", domain=corpus.run_block(alphabet, "a").domain, relations={"<": cyc})


def _strict_prefix():
    alphabet = ("0", "1")

    def step(v, letter):
        x, y = letter
        if v == 0:
            if x == au.PAD and y != au.PAD:
                return 1
            return 0 if x == y else None
        return 1 if x == au.PAD else None

    rel = au.letter_dfa(alphabet, 2, 0, step, lambda v: v == 1)
    return Structure(name="prefix", domain=au.universe(alphabet, 1), relations={"<": rel})


NON_LINEAR = {
    "llex_or_equal": (_llex_or_equal, "irreflexivity"),
    "two_cycle": (_two_cycle, "transitivity"),
    "prefix": (_strict_prefix, "totality"),
}


@pytest.mark.parametrize("name", sorted(CHAIN_CASES) + sorted(NON_LINEAR))
def test_check_linear_matches_universal_laws(name):
    # each kernel test fails exactly when its universal law is false
    if name in NON_LINEAR:
        make, want = NON_LINEAR[name]
        p = OrderPresentation(make())
    else:
        make, arg = CHAIN_CASES[name]
        p, want = OrderPresentation(make(arg)), None
    assert check_linear(p) == reference_check_linear(p) == want


def test_check_linear_negates_no_ternary_relation(monkeypatch):
    # the arity of each relation check_linear subtracts from or tests for
    # inclusion; the kernel's own search does not go through `difference`
    firsts = []

    def recording(original):
        def record(a, b, *args, **kwargs):
            firsts.append(a.arity)
            return original(a, b, *args, **kwargs)

        return record

    for name in ("difference", "is_subset"):
        monkeypatch.setattr(au, name, recording(getattr(au, name)))
    assert check_linear(OrderPresentation(logic.load_structure(CORPUS_DIR / "mixed" / "mixed.manifest"))) is None
    assert firsts and 3 not in firsts


BITS = ("0", "1")


def _random_domain(rng):
    """A unary NFA over 0/1 of up to three states, a letter often leading
    to two of them, with a non-empty language."""
    while True:
        n = rng.randint(1, 3)
        trans = [(q, (a,), r) for q in range(n) for a in BITS for r in range(n) if rng.random() < 0.4]
        domain = au.automaton(1, BITS, n, 0, {q for q in range(n) if rng.random() < 0.6}, trans)
        if not au.is_empty(domain):
            return domain


def _finite(tuples, arity=2):
    """The relation holding exactly `tuples`: the trie of their convolutions."""
    states, trans, accepting = {(): 0}, set(), set()
    for t in tuples:
        prefix = ()
        for letter in convolve(t):
            q, prefix = states[prefix], prefix + (letter,)
            trans.add((q, letter, states.setdefault(prefix, len(states))))
        accepting.add(states[prefix])
    return au.automaton(arity, BITS, len(states), 0, accepting, trans)


def _on_domain(domain, rel):
    cube = au.join(domain, [0], domain, [1])
    return Structure(name="r", domain=domain, relations={"<": au.minimize(au.intersect(rel, cube))})


SHORT = ["".join(w) for w in words_upto(BITS, 2)]


def _random_order(rng):
    """A linear order perturbed at random: a random order of a few short
    words, or llex on a random domain NFA, with one cover dropped, a
    reflexive pair, a reversed cover or a random pair added, or as it is."""
    if rng.random() < 0.5:
        chain = rng.sample(SHORT, rng.randint(1, 5))
        domain, rel = _finite([(w,) for w in chain], 1), _finite(itertools.combinations(chain, 2))
    else:
        domain, rel = (_random_domain(rng) if rng.random() < 0.7 else au.universe(BITS, 1)), au.llex_automaton(BITS)
        # SHORT is in llex order, and a word between two of length 2 or less is one
        chain = [w for w in SHORT if domain.accepts(w)]
    i = rng.randrange(len(chain))
    x, y = chain[i], chain[(i + 1) % len(chain)]  # a cover, or the last element and the first
    return _on_domain(domain, rng.choice([
        lambda: rel,
        lambda: au.difference(rel, _finite([(x, y)])),
        lambda: au.union(rel, _finite([(x, x)])),
        lambda: au.union(rel, _finite([(y, x)])),
        lambda: au.union(rel, _finite([tuple(rng.choices(chain, k=2))])),
    ])())


# an NFA for the words ending in 1: a 1 may stay in state 0 or end the word
ENDS_IN_ONE = au.automaton(1, BITS, 2, 0, {1}, [(0, ("0",), 0), (0, ("1",), 0), (0, ("1",), 1)])

LINEARITY_EDGES = {
    # llex plus the pair (ε, ε) and nothing else reflexive
    "only_empty_pair_reflexive": (
        lambda: _on_domain(au.universe(BITS, 1), au.union(au.llex_automaton(BITS), _finite([("", "")]))),
        "irreflexivity"),
    # llex without ε < 0: nothing lies between them, so only that pair is unordered
    "empty_word_unordered": (
        lambda: _on_domain(au.universe(BITS, 1), au.difference(au.llex_automaton(BITS), _finite([("", "0")]))),
        "totality"),
    "nondeterministic_domain_linear": (lambda: _on_domain(ENDS_IN_ONE, au.llex_automaton(BITS)), None),
    "nondeterministic_domain_unordered": (
        lambda: _on_domain(ENDS_IN_ONE, au.difference(au.llex_automaton(BITS), _finite([("1", "01")]))),
        "totality"),
}


@pytest.mark.parametrize("name", sorted(LINEARITY_EDGES))
def test_check_linear_edge_cases(name):
    make, want = LINEARITY_EDGES[name]
    p = OrderPresentation(make())
    assert check_linear(p) == reference_check_linear(p) == want


def test_check_linear_matches_the_laws_on_random_relations():
    # 200 seeded perturbed orders give every law's failure and linear
    # orders; about 2.5 s, most of it the reference's compiled sentences
    laws = []
    for seed in range(200):
        p = OrderPresentation(_random_order(random.Random(seed)))
        law = check_linear(p)
        assert law == reference_check_linear(p), seed
        laws.append(law)
    assert set(laws) == {None, "irreflexivity", "transitivity", "totality"}


@pytest.mark.parametrize("name", ["mixed", "kreisel_true", "kreisel_witness"])
def test_check_linear_builds_nothing_beside_the_interval_product(monkeypatch, name):
    # with `between` built, each law is one search: no BFS numbers a state,
    # and no diagonal, union, transpose or domain cube is made
    make, arg = CHAIN_CASES[name]
    p = OrderPresentation(make(arg))
    p.between
    calls = []

    def recording(label, fn):
        return lambda *args: calls.append(label) or fn(*args)

    for attr in ("_canonical", "diagonal", "union", "permute_tapes"):
        monkeypatch.setattr(au, attr, recording(attr, getattr(au, attr)))
    monkeypatch.setattr(Structure, "domain_cube", recording("domain_cube", Structure.domain_cube))
    assert check_linear(p) is None
    assert calls == []


# the least state budget under which `recognize` gives a verdict
LEAST_BUDGETS = {
    "omega": 3, "omega_bin": 17, "omega_plus_one": 11, "omega_times_2": 11, "omega2p3": 28, "omega_sq": 21,
    "mixed": 155, "omega_cube": 56, "w4p2": 48, "wsq_p1": 30, "twelve": 34, "zline": 10, "omega_plus_rev": 14,
    "dense": 40, "binlex": 40, "kreisel_true": 17, "kreisel_witness": 48,
}


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_least_budget_with_a_verdict(name):
    # a construction that grows shows as a budget exit at the pinned value
    make, arg = CHAIN_CASES[name]
    budget = LEAST_BUDGETS[name]
    fits, short = OrderPresentation(make(arg)), OrderPresentation(make(arg))
    with au.state_budget(budget):
        assert isinstance(recognize(fits), (WellOrder, NotWellOrder))
    with pytest.raises(StateBudgetExceeded) as info, au.state_budget(budget - 1):
        recognize(short)
    assert info.value.n_states == budget


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_one_bad_class_set_is_the_no_least_set(monkeypatch, name):
    # a class lacks a least element exactly when each of its elements has
    # infinitely many predecessors in it, so the one set classify_classes
    # tests for emptiness is, after minimization, the no-least set itself;
    # it is read from the interval product, with no formula compiled
    make, arg = CHAIN_CASES[name]
    levels, _ = condense(OrderPresentation(make(arg)))
    sets = []
    compiled = []
    original_compile, original_is_empty = logic.Compiler.compile, au.is_empty

    def compiling(self, f):
        compiled.append(f)
        return original_compile(self, f)

    def recording(a):
        sets.append(a)
        return original_is_empty(a)

    for level in levels:
        pres = OrderPresentation(level.structure)
        sets.clear()
        monkeypatch.setattr(logic.Compiler, "compile", compiling)
        monkeypatch.setattr(au, "is_empty", recording)
        classify_classes(pres)
        monkeypatch.undo()
        assert compiled == []
        assert len(sets) == 1
        no_least = define_set(with_sim(pres), REFERENCE_NO_LEAST, "x")
        assert au.save_automaton(sets[0], "bad") == au.save_automaton(no_least, "bad")


def _ladder(k):
    return ladder(k).structure


def test_minimal_i_fits_the_budget_of_the_interval_product():
    # ladder k=8: the search of the interval product `between` reaches
    # 1,460 keys, the most of any step of I.  The double reversal in
    # `minimize` builds 232 and then the 166 of the minimal I, where the
    # subset construction of the projection built 2,359
    p = OrderPresentation(_ladder(8))
    with au.state_budget(1500):
        i = p.infinitely_between
    assert i.n_states == 166
    want = reference_minimize(au.project(au.join(p.order, [0, 1], p.order, [1, 2]), 1, infinite=True))
    assert au.save_automaton(i, "I") == au.save_automaton(want, "I")
    with pytest.raises(StateBudgetExceeded) as info, au.state_budget(1459):
        OrderPresentation(_ladder(8)).infinitely_between
    assert info.value.n_states == 1460


TOP_CLASS_CASES = {**CHAIN_CASES, "ladder4": (_ladder, 4), "ladder5": (_ladder, 5)}


@pytest.mark.parametrize("name", sorted(TOP_CLASS_CASES))
def test_top_class_from_the_order_alone(monkeypatch, name):
    # where recognize asks for it, every class is finite or omega, so the
    # elements with finitely many elements above them are the top class when
    # it is finite and none otherwise: the count needs no condensation
    make, arg = TOP_CLASS_CASES[name]
    original = rec._top_class_size
    levels = []
    monkeypatch.setattr(rec, "_top_class_size", lambda p: levels.append(p) or original(p))
    recognize(OrderPresentation(make(arg)))
    counted = []
    original_count = au.count_words
    for pres in levels:
        fresh = OrderPresentation(pres.structure)
        monkeypatch.setattr(au, "count_words", lambda a: counted.append(a) or original_count(a))
        got = original(fresh)
        monkeypatch.undo()
        assert "infinitely_between" not in vars(fresh) and "in_class" not in vars(fresh)
        assert got == reference_top_class_size(pres)
        top = au.save_automaton(counted.pop(), "top")
        assert top == au.save_automaton(reference_top_class(pres), "top")


@pytest.mark.parametrize("name", sorted(TOP_CLASS_CASES))
def test_quotient_matches_the_compiled_representatives(name):
    # the representatives are the domain minus the llex-larger side of ~,
    # and the quotient order is < restricted to them by two joins; at every
    # level both save the bytes of the compiled formula and of the order
    # intersected with the representative cube
    make, arg = TOP_CLASS_CASES[name]
    levels, _ = condense(OrderPresentation(make(arg)))
    for i, level in enumerate(levels[:-1]):
        pres = OrderPresentation(level.structure)
        quotient = finite_condensation(pres)
        reps = reference_representatives(pres)
        assert au.save_automaton(quotient.domain, "dom") == au.save_automaton(reps, "dom"), i
        cube = au.join(reps, [0], reps, [1])
        order = au.minimize(au.intersect(pres.order, cube))
        assert au.save_automaton(quotient.order, "lt") == au.save_automaton(order, "lt"), i


# (x, y): x < y with finitely many z between; tapes in variable order, as
# `in_class` holds the smaller element first
IN_CLASS = logic.parse_formula("(and (rel < x y) (not (existsinf z (and (rel < x z) (rel < z y)))))")


@pytest.mark.parametrize("name", sorted(TOP_CLASS_CASES))
def test_sim_and_successor_match_the_compiled_formulas(name):
    # the in-class relation and succ are read from the interval product, not
    # compiled; at every level their minimal automata are the ones the
    # formulas compile to
    make, arg = TOP_CLASS_CASES[name]
    levels, _ = condense(OrderPresentation(make(arg)))
    for i, level in enumerate(levels):
        pres = OrderPresentation(level.structure)
        got = au.save_automaton(au.minimize(pres.in_class), "in_class")
        assert got == au.save_automaton(au.minimize(logic.compile_formula(pres.structure, IN_CLASS)), "in_class"), i
        got = au.save_automaton(pres.successor, "succ")
        assert got == au.save_automaton(reference_successor(pres), "succ"), i


@pytest.mark.parametrize("budget", [20, 80, 153])
def test_recognize_budget_holds_on_the_interval_product(budget):
    # on mixed the interval product is the largest construction; a budget
    # too small for it raises inside the product's search at budget + 1
    # keys, where the one numbering loop numbers a target
    pres = OrderPresentation(logic.load_structure(CORPUS_DIR / "mixed" / "mixed.manifest"))
    with pytest.raises(StateBudgetExceeded) as info, au.state_budget(budget):
        recognize(pres)
    assert info.value.n_states == budget + 1
    frames = [frame.name for frame in traceback.extract_tb(info.tb)]
    assert frames[-4:] == ["between", "join_graph", "_explored", "fill"]


@pytest.mark.parametrize("entry", [recognize, condense], ids=["recognize", "condense"])
def test_recognition_runs_under_the_budget_its_caller_sets(entry):
    # neither entry point sets a budget of its own: the caller's block is
    # the one in force, and mixed's interval product passes 20 at 21 keys
    pres = OrderPresentation(logic.load_structure(CORPUS_DIR / "mixed" / "mixed.manifest"))
    with pytest.raises(StateBudgetExceeded) as info, au.state_budget(20):
        entry(pres)
    assert (info.value.n_states, info.value.budget) == (21, 20)


def test_recognize_runs_no_cube_check(monkeypatch):
    # the manifest's relations are checked when it loads; every structure
    # recognize builds from them (the quotients) is not checked again
    pres = OrderPresentation(logic.load_structure(CORPUS_DIR / "mixed" / "mixed.manifest"))
    calls = []
    original = au.is_subset_of_cube
    monkeypatch.setattr(au, "is_subset_of_cube", lambda rel, domain: calls.append(rel) or original(rel, domain))
    assert recognize(pres) == WellOrder(o.parse("w^2*2+w*3+4"))
    assert calls == []


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_package_built_structures_pass_the_full_check(name):
    # the check skipped inside the package holds: at every level, and for the
    # structure with ~ of every level, the public constructor accepts them
    make, arg = CHAIN_CASES[name]
    levels, _ = condense(OrderPresentation(make(arg)))
    assert levels
    for level in levels:
        pres = OrderPresentation(level.structure)
        for s in (pres.structure, with_sim(pres)):
            assert Structure(name=s.name, domain=s.domain, relations=s.relations) == s


def test_recognize_compiles_no_formula(monkeypatch):
    # every set of the condensation loop is a kernel construction
    structures = [make(arg) for make, arg in CHAIN_CASES.values()]
    calls = []
    original = logic.Compiler.compile
    monkeypatch.setattr(logic.Compiler, "compile", lambda self, f: calls.append(f) or original(self, f))
    for s in structures:
        recognize(OrderPresentation(s))
    assert calls == []


@pytest.mark.parametrize("name", ["mixed", "omega_cube", "kreisel_true"])
def test_condensation_steps_take_the_budget(monkeypatch, name):
    # every construction the linearity check, I, the bad-class set, the
    # quotient and the top-class count run, the in-class relation and the
    # llex automaton included, reads the budget in force:
    # each BFS and each search sees the caller's, and nothing else.  That
    # covers the reverse subset construction over a projection graph, the
    # inclusion search over one and the searches of products, projections
    # and differences that are never numbered.  The llex
    # automaton is built once per alphabet under a budget of five or more,
    # so its cache is cleared for its BFS to run here
    make, arg = CHAIN_CASES[name]
    levels, _ = condense(OrderPresentation(make(arg)))
    au._llex_automaton.cache_clear()
    budget = 10 ** 6 + 7
    limits = []

    def recording(fn):
        def record(*args, **kwargs):
            # the outermost kernel function on the stack: the one the caller
            # called, marked when one of its arguments is a projection graph;
            # a search the caller called itself is its own entry
            frame, entry = sys._getframe(1), fn.__name__
            while frame is not None:
                if frame.f_globals is vars(au):
                    graph = any(isinstance(v, au._Graph) for v in frame.f_locals.values())
                    entry = frame.f_code.co_name + (" over a graph" if graph else "")
                frame = frame.f_back
            limits.append((entry, au.STATE_BUDGET.get()))
            return fn(*args, **kwargs)

        return record

    for attr in ("_canonical", "_explored", "_reaches_acceptance", "join_graph"):
        monkeypatch.setattr(au, attr, recording(getattr(au, attr)))
    with au.state_budget(budget):
        for level in levels:
            # a fresh presentation, so its interval product, I and in-class
            # relation are built here
            fresh = OrderPresentation(level.structure)
            assert rec.check_linear(fresh) is None
            fresh.infinitely_between
            rec.classify_classes(fresh)
            rec._top_class_size(OrderPresentation(level.structure))
            rec.finite_condensation(OrderPresentation(level.structure))
    entries = {entry for entry, _ in limits}
    assert {
        "difference",
        "difference_graph over a graph",
        "is_subset over a graph",
        "join_graph",
        "minimize over a graph",
        "projection_graph",
        "llex_automaton",
    } <= entries
    assert "project" not in entries
    assert [(entry, b) for entry, b in limits if b != budget] == []


def test_recognize_builds_no_projection(monkeypatch):
    # every projection the condensation loop and the chain read is only
    # minimized, searched or subtracted, so none is numbered: no BFS runs
    # under `project`.  The Kreisel orders' `<` is compiled by `logic`,
    # whose projections are built and not counted here
    structures = [make(arg) for make, arg in CHAIN_CASES.values()]
    runs = []
    canonical = au._canonical

    def counting(*args):
        frame, in_project = sys._getframe(1), False
        while frame is not None:
            if frame.f_globals is vars(logic):
                return canonical(*args)
            in_project |= frame.f_globals is vars(au) and frame.f_code.co_name == "project"
            frame = frame.f_back
        if in_project:
            runs.append(args[:2])
        return canonical(*args)

    monkeypatch.setattr(au, "_canonical", counting)
    for s in structures:
        recognize(OrderPresentation(s))
        initial_chain(OrderPresentation(s), 10)
    assert runs == []
    au.project(au.llex_automaton(("0", "1")), 0)  # the count sees a projection
    assert len(runs) == 1


GRAPH_CASES = {
    **CHAIN_CASES,
    **{f"ladder{k}": (_ladder, k) for k in range(3, 7)},
    **{f"block_sum{seed}": (_seeded_block_sum, seed) for seed in range(8)},
}


@pytest.mark.parametrize("name", sorted(GRAPH_CASES))
def test_projection_graphs_give_the_built_projection_sets(monkeypatch, name):
    # at every level, I, the bad-class set, the top-class set, the quotient
    # and succ, each read from a projection graph, save the bytes of the
    # same set with the projection built; the representatives, read from
    # llex joined with in_class both ways, save those of the reference's
    # join with in_class's union with its transpose
    make, arg = GRAPH_CASES[name]
    levels, _ = condense(OrderPresentation(make(arg)))
    original_is_empty, original_count = au.is_empty, au.count_words
    for i, level in enumerate(levels):
        want = built_projection_sets(OrderPresentation(level.structure))
        fresh = OrderPresentation(level.structure)
        got = {"I": fresh.infinitely_between, "succ": fresh.successor}
        tested, counted = [], []
        monkeypatch.setattr(au, "is_empty", lambda a: tested.append(a) or original_is_empty(a))
        classify_classes(fresh)
        monkeypatch.undo()
        (got["bad"],) = tested
        if level.top is not None:  # recognize condensed this level
            monkeypatch.setattr(au, "count_words", lambda a: counted.append(a) or original_count(a))
            rec._top_class_size(fresh)
            monkeypatch.undo()
            (got["top"],) = counted
            quotient = finite_condensation(fresh)
            got["reps"], got["quotient"] = quotient.domain, quotient.order
        for key, aut in got.items():
            assert au.save_automaton(aut, key) == au.save_automaton(want[key], key), (i, key)


def _non_minimal(order):
    """`order` in union with its own restriction to non-empty words: the
    same language, from about twice the states."""
    nonempty = au.difference(au.universe(order.alphabet, 1), au.fixed_word(order.alphabet, ()))
    restricted = au.join(au.join(order, [0, 1], nonempty, [0]), [0, 1], nonempty, [1])
    return au.union(order, restricted)


def _bfs_keys(monkeypatch, build):
    """The keys every BFS of `build()` numbers, before its trim."""
    orders = []
    numbering = au._numbering
    with monkeypatch.context() as m:
        m.setattr(au, "_numbering", lambda key: (lambda made: orders.append(made[0]) or made)(numbering(key)))
        build()
    return sum(map(len, orders))


def test_interval_search_accepts_where_the_built_projections_do():
    # the search's ∃ and ∃^∞ graphs accept as many keys as the projections
    # of the built product: a key that ε-moves alone enter accepts in
    # neither, though its ε-moves may reach acceptance (seed 30 has one)
    for seed in range(60):
        order = _random_order(random.Random(seed)).relations["<"]
        between = au.join(order, [0, 1], order, [1, 2])
        got = au.join_graph(order, [0, 1], order, [1, 2], tape=1)
        want = [au.projection_graph(between, 1, infinite) for infinite in (False, True)]
        assert [len(g.accepting) for g in got] == [len(w.accepting) for w in want], seed


def test_interval_search_matches_the_built_product(monkeypatch):
    # the one search of the interval product gives, after its trim, the
    # sets the built product `join` + `project` gives: the minimal I and
    # succ save the same bytes, transitivity gets the same answer, and the
    # difference with the ∃ graph numbers the same keys as with the built
    # projection, so a budget exits where it did.  On perturbed orders, on
    # a non-minimal `<` and on the ladder; the perturbed orders' products
    # hold keys the trim drops
    orders = [_random_order(random.Random(seed)).relations["<"] for seed in range(200)]
    for k in range(1, 7):
        order = _ladder(k).relations["<"]
        orders += [order, _non_minimal(order)]
    for n, order in enumerate(orders):
        exists, infinitely = OrderPresentation(Structure(name="o", domain=au.universe(order.alphabet, 1),
                                                         relations={"<": order})).between
        between = au.join(order, [0, 1], order, [1, 2])
        built = au.project(between, 1)
        want_i = au.minimize(au.project(between, 1, infinite=True))
        assert au.save_automaton(au.minimize(infinitely), "I") == au.save_automaton(want_i, "I"), n
        got, want = au.difference(order, exists), au.difference(order, built)
        assert au.save_automaton(got, "d") == au.save_automaton(want, "d"), n
        assert au.save_automaton(au.minimize(got), "succ") == au.save_automaton(au.minimize(want), "succ"), n
        assert au.is_subset(exists, order) == au.is_subset(built, order), n
        keys = [_bfs_keys(monkeypatch, lambda: au.difference(order, b)) for b in (exists, built)]
        assert keys[0] == keys[1], n
