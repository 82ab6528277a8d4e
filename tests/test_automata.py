import ast
import functools
import hashlib
import inspect
import itertools
import random
import re
import signal
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_delta_is_reference,
    complement,
    conv,
    language,
    rebuilt,
    reference_canonical,
    reference_check_padding,
    reference_complement,
    reference_determinize,
    reference_difference,
    reference_insert_tape,
    reference_intersect,
    reference_is_subset_of_cube,
    reference_minimize,
    reference_project,
    reference_project_inf,
    reference_reverse_subsets,
    reference_section,
    reference_validate,
    rename_symbols,
    run_nfa,
    same_language,
    trim,
    tuples_upto,
    unchecked,
    words_upto,
)
from wob import automata as au
from wob.errors import ArityMismatch, CannotProject, InvalidAutomaton, InvalidSymbol, LoadError, StateBudgetExceeded


AB = ("a", "b")


def astar():
    # {a}^*
    return au.automaton(1, ("a",), 1, 0, {0}, [(0, ("a",), 0)])


def aastar():
    # {aa}^*
    return au.automaton(1, ("a",), 2, 0, {0}, [(0, ("a",), 1), (1, ("a",), 0)])


def upto2():
    # words over {a,b} of length <= 2
    trans = [(i, (s,), i + 1) for i in (0, 1) for s in AB]
    return au.automaton(1, AB, 3, 0, {0, 1, 2}, trans)


def sigma_star(alphabet=AB):
    return au.universe(alphabet, 1)


def test_convolve_examples():
    assert au.convolve(["ab", "a"]) == [("a", "a"), ("b", "#")]
    assert au.convolve(["", ""]) == []
    assert au.convolve(["0", "10"]) == [("0", "1"), ("#", "0")]


def test_convolve_rejects_pad():
    with pytest.raises(InvalidSymbol):
        au.convolve(["a#", "a"])


def test_show_word_joins_one_character_symbols_plainly():
    from wob import recognition, tm

    assert [au.show_word(w) for w in [(), ("a", "b"), ("W", "0", "10")]] == ["", "ab", "W 0 10"]
    # the two printers of words print with it
    assert str(recognition.BadCondensationClass(("m", "a"))) == "bad-class witness='ma' (no-least)"
    frag = tm.ExploredFragment(elements=[("W", "1"), ("C", "q0")], edges=[(("W", "1"), ("C", "q0"))])
    assert frag.to_dot() == 'digraph fragment {\n  n0 [label="W1"];\n  n1 [label="C q0"];\n  n0 -> n1;\n}\n'
    # a quote or backslash in a word is escaped, so the label stays one string
    frag = tm.ExploredFragment(elements=[("W", '"'), ("C", "\\")], edges=[])
    assert frag.to_dot() == 'digraph fragment {\n  n0 [label="W\\""];\n  n1 [label="C\\\\"];\n}\n'


def test_padding_invariant_rejected_at_construction():
    # pad then real symbol on tape 0
    with pytest.raises(InvalidAutomaton):
        au.automaton(
            2, ("a",), 2, 0, {1},
            [(0, ("#", "a"), 1), (1, ("a", "a"), 1)],
        )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_padding_check_matches_pad_mask_product(data):
    # letters may pad any tape, so many draws break the invariant
    arity = data.draw(st.integers(1, 3))
    n_states = data.draw(st.integers(1, 4))
    letters = [l for l in itertools.product(AB + ("#",), repeat=arity) if any(s != "#" for s in l)]
    edge = st.tuples(st.integers(0, n_states - 1), st.sampled_from(letters), st.integers(0, n_states - 1))
    trans = data.draw(st.lists(edge, max_size=10))
    if reference_check_padding(arity, 0, trans):
        au.automaton(arity, AB, n_states, 0, {0}, trans)
    else:
        with pytest.raises(InvalidAutomaton, match="padding invariant violated at state"):
            au.automaton(arity, AB, n_states, 0, {0}, trans)


def test_all_pad_letter_rejected():
    with pytest.raises(InvalidAutomaton):
        au.automaton(2, ("a",), 1, 0, {0}, [(0, ("#", "#"), 0)])


def test_product_and():
    got = au.intersect(astar(), aastar())
    assert same_language(got, aastar())


def test_product_or_with_empty_is_identity():
    e = au.empty(("a",), 1)
    got = au.union(astar(), e)
    assert same_language(got, astar())


def test_product_minus_short_words():
    # Sigma^* minus {w : |w| <= 2} = all words of length >= 3 (derived oracle)
    sig = sigma_star()
    got = au.difference(sig, upto2())
    expect = {(w,) for w in words_upto(AB, 5) if len(w) >= 3}
    assert language(got, 5) == expect


def test_complement_of_empty_is_sigma_star():
    got = complement(au.empty(AB, 1))
    assert same_language(got, sigma_star())


def test_complement_of_sigma_star_is_empty():
    assert au.is_empty(complement(sigma_star()))


def test_complement_involution():
    a = upto2()
    twice = complement(complement(a))
    assert same_language(a, twice)
    assert language(twice, 6) == language(a, 6)


def test_project_diagonal():
    diag = au.diagonal(AB)
    got = au.project(diag, 1)
    assert same_language(got, sigma_star())


def test_project_empty():
    assert au.is_empty(au.project(au.empty(AB, 2), 0))


def test_project_shorter():
    # {conv(x,y): |x|<|y|} projected on tape 0 -> all y with |y| >= 1
    sh = au.shorter_automaton(AB)
    got = au.project(sh, 0)
    expect = {(w,) for w in words_upto(AB, 5) if len(w) >= 1}
    assert language(got, 5) == expect


def test_project_arity1_errors():
    with pytest.raises(CannotProject):
        au.project(astar(), 0)


def test_is_empty_and_is_infinite():
    assert au.is_empty(au.empty(AB, 1))
    assert not au.is_empty(astar())
    assert au.is_infinite(astar())
    assert not au.is_infinite(upto2())


def test_count_words_up_to_two():
    words = au.count_or_enumerate(upto2(), 100)
    assert len(words) == 7
    assert words == [((),), (("a",),), (("b",),), (("a", "a"),), (("a", "b"),), (("b", "a"),), (("b", "b"),)]


def test_enumerate_is_llex_prefix_of_language():
    sig = sigma_star()
    words = au.count_or_enumerate(sig, 10)
    # llex over declared order a < b
    expect = [((),), (("a",),), (("b",),), (("a", "a"),), (("a", "b",),), (("b", "a"),), (("b", "b"),), (("a", "a", "a"),), (("a", "a", "b"),), (("a", "b", "a"),)]
    assert words == expect


def test_minimize_removes_unreachable():
    a = au.automaton(
        1, ("a",), 3, 0, {0},
        [(0, ("a",), 0), (2, ("a",), 1)],  # states 1,2 unreachable/useless
    )
    m = au.minimize(a)
    assert m.n_states == 1
    assert same_language(m, astar())


def test_minimize_already_minimal():
    m = au.minimize(aastar())
    assert m.n_states == 2
    assert same_language(m, aastar())


def _random_nfa(rng, n_states=8, alphabet=("0", "1")):
    trans = []
    for _ in range(rng.randint(8, 20)):
        q = rng.randrange(n_states)
        r = rng.randrange(n_states)
        s = alphabet[rng.randrange(len(alphabet))]
        trans.append((q, (s,), r))
    accepting = {q for q in range(n_states) if rng.random() < 0.4}
    return au.automaton(1, alphabet, n_states, 0, accepting, trans)


def test_minimize_random_nfas_preserve_language():
    rng = random.Random(20240817)
    for _ in range(25):
        a = _random_nfa(rng)
        m = au.minimize(a)
        assert language(m, 8) == language(a, 8)
        assert same_language(a, m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2]))
def test_minimize_matches_reference_moore(seed, arity):
    # states that read different letters are never merged, even when the
    # targets they reach lie in the same blocks
    rng = random.Random(seed)
    a = _random_nfa(rng, alphabet=("0", "1", "2")) if arity == 1 else _random_nfa2(rng)
    assert au.save_automaton(au.minimize(a), "m") == au.save_automaton(reference_minimize(a), "m")


def _fifth_letter_is_a(from_end, deterministic=False):
    """Words over a, b whose fifth letter, counted from the start or from
    the end, is `a`: an NFA of 6 states.  Its language has a minimal DFA of
    6 states counted from the start and of 2^5 = 32 from the end, and its
    reversal the other way round.  Counted from the start, state 5 also
    steps back to 4 on `a`, which keeps the language and makes the operand
    nondeterministic, unless `deterministic`."""
    every = [(i, (s,), i + 1) for i in range(5) for s in AB]
    if from_end:
        moves = [(0, ("a",), 1)] + [(0, (s,), 0) for s in AB] + every[2:]
    else:
        moves = every[:-2] + [(4, ("a",), 5)] + [(5, (s,), 5) for s in AB] + ([] if deterministic else [(5, ("a",), 4)])
    return au.automaton(1, AB, 6, 0, {5}, moves)


def _counted_reversals(monkeypatch) -> list:
    """The operands `_reverse_subsets` is called on from here on."""
    passes = []
    reverse_subsets = au._reverse_subsets
    monkeypatch.setattr(au, "_reverse_subsets", lambda b: passes.append(b) or reverse_subsets(b))
    return passes


@pytest.mark.parametrize("from_end, raising_pass", [(False, 1), (True, 2)])
def test_minimize_budget_holds_in_either_reversal(monkeypatch, from_end, raising_pass):
    # a nondeterministic operand is minimized by two reverse subset
    # constructions: the first builds a DFA of the reversed language, the
    # second the minimal DFA.  Each raises at budget + 1, and 6 states are
    # too few for the 32-state one
    a = _fifth_letter_is_a(from_end)
    passes = _counted_reversals(monkeypatch)
    with pytest.raises(StateBudgetExceeded) as info, au.state_budget(6):
        au.minimize(a)
    assert (info.value.n_states, info.value.budget) == (7, 6)
    assert len(passes) == raising_pass
    with au.state_budget(32):
        m = au.minimize(a)
    assert m.n_states == (32 if from_end else 6)
    assert au.save_automaton(m, "m") == au.save_automaton(reference_minimize(a), "m")


def test_minimize_of_a_dfa_fits_a_budget_of_its_useful_states(monkeypatch):
    # a deterministic operand is refined, with no reversal: the one
    # numbering is the quotient's, so a budget of its useful states holds,
    # where the nondeterministic operand of the same language raises in its
    # first reversal
    a = _fifth_letter_is_a(False, deterministic=True)
    passes = _counted_reversals(monkeypatch)
    with au.state_budget(len(a.useful_states)):
        m = au.minimize(a)
    assert passes == []
    assert au.save_automaton(m, "m") == au.save_automaton(reference_minimize(a), "m")
    with pytest.raises(StateBudgetExceeded), au.state_budget(len(a.useful_states)):
        au.minimize(_fifth_letter_is_a(False))


def _random_dfa(rng, arity, n_states):
    """A partial DFA over AB whose padding invariant holds as `_dense_nfa`
    holds it, each (state, letter) pair given one target or none.  The
    states from `dead` on accept nothing and move only among themselves, so
    a move into one leads to a dead state, and some states are unreachable
    by chance."""
    full = (1 << arity) - 1
    padded = [0] + [rng.choice([0, 0, 0, *range(1, full)]) for _ in range(n_states - 1)]
    dead = rng.randint(max(1, n_states // 2), n_states)
    trans = []
    for q in range(n_states):
        for letter in itertools.product(AB + (au.PAD,), repeat=arity):
            mask = sum(1 << i for i, s in enumerate(letter) if s == au.PAD)
            fits = [r for r in range(n_states) if padded[r] == mask and padded[r] & padded[q] == padded[q]
                    and (q < dead or r >= dead)]
            if mask != full and fits and rng.random() < 0.45:
                trans.append((q, letter, rng.choice(fits)))
    accepting = {q for q in range(dead) if rng.random() < 0.35}
    return au.automaton(arity, AB, n_states, 0, accepting, trans)


def test_minimize_refines_random_dfas_as_the_reference(monkeypatch):
    # partial DFAs with unreachable and dead states: refinement drops the
    # moves into dead states before it splits blocks, so it gives the bytes
    # of the reference, and no reversal runs
    passes = _counted_reversals(monkeypatch)
    unreachable = dead = 0
    for seed in range(300):
        rng = random.Random(seed)
        a = _random_dfa(rng, rng.choice([1, 2]), rng.randint(2, 9))
        assert au.save_automaton(au.minimize(a), "m") == au.save_automaton(reference_minimize(a), "m"), seed
        unreachable += len(a._reachable) < a.n_states
        dead += bool(a._reachable - a._coreachable)
    assert passes == []
    assert unreachable > 50 and dead > 50


def test_minimize_reverses_a_nondeterministic_operand_twice(monkeypatch):
    # an operand with two targets on one letter keeps double reversal:
    # exactly two reverse subset constructions, and the reference's bytes
    passes = _counted_reversals(monkeypatch)
    rng = random.Random(20240817)
    for _ in range(40):
        a = _random_nfa(rng)
        if all(len(rs) == 1 for row in a._delta.values() for rs in row.values()):
            continue
        del passes[:]
        m = au.minimize(a)
        assert len(passes) == 2
        assert au.save_automaton(m, "m") == au.save_automaton(reference_minimize(a), "m")


def test_minimized_difference_graph_saves_the_bytes_of_the_difference():
    # a difference that is only minimized is searched, not numbered: its
    # graph minimizes to the bytes of the built difference, by either route,
    # with the subtrahend a projection graph, a join graph or an automaton
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        a = _random_dfa(rng, 2, n) if seed % 2 else _dense_nfa(rng, 2, n)
        wide, x, y = _dense_nfa(rng, 3, n), _dense_nfa(rng, 2, n), _random_dfa(rng, 2, n)
        for b in (au.projection_graph(wide, rng.randrange(3)), au.join_graph(x, [0, 1], y, [0, 1]), x):
            got = au.minimize(au.difference_graph(a, b))
            assert au.save_automaton(got, "d") == au.save_automaton(au.minimize(au.difference(a, b)), "d"), seed


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_matches_boolean_combination(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    mode = data.draw(st.sampled_from(["and", "or", "minus"]))
    arity = data.draw(st.sampled_from([1, 2]))
    rng = random.Random(seed)
    if arity == 1:
        a = _random_nfa(rng, n_states=5)
        b = _random_nfa(rng, n_states=5)
        max_len = 4
    else:
        a = _random_nfa2(rng)
        b = _random_nfa2(rng)
        max_len = 3
    op = {"and": au.intersect, "or": au.union, "minus": au.difference}[mode]
    got = op(a, b)
    la, lb = language(a, max_len), language(b, max_len)
    if mode == "and":
        expect = la & lb
    elif mode == "or":
        expect = la | lb
    else:
        expect = la - lb
    assert language(got, max_len) == expect
    # containment and equivalence agree with the reference complement, which
    # is built without `difference`; the derived pairs make both answers occur
    for x, y in ((a, b), (b, a), (got, a), (a, got), (a, a)):
        no_diff = au.is_empty(au.intersect(x, reference_complement(y)))
        assert au.is_subset(x, y) == no_diff
        no_diff_back = au.is_empty(au.intersect(y, reference_complement(x)))
        assert same_language(x, y) == (no_diff and no_diff_back)
        if no_diff:
            assert language(x, max_len) <= language(y, max_len)


def test_product_exhaustive_length_6():
    # exhaustive boolean-combination check on all words of length <= 6
    a = upto2()
    b = aa_or_b()
    la, lb = language(a, 6), language(b, 6)
    assert language(au.intersect(a, b), 6) == la & lb
    assert language(au.union(a, b), 6) == la | lb
    assert language(au.difference(a, b), 6) == la - lb


def aa_or_b():
    # (aa|b)^*
    return au.automaton(
        1, AB, 2, 0, {0},
        [(0, ("a",), 1), (1, ("a",), 0), (0, ("b",), 0)],
    )


def _random_nfa2(rng, n_states=5):
    # arity-2 NFA with valid suffix padding: letters chosen per mask phase
    trans = []
    for _ in range(rng.randint(6, 16)):
        q = rng.randrange(n_states)
        r = rng.randrange(n_states)
        x = rng.choice(["a", "b", "#"])
        y = rng.choice(["a", "b", "#"])
        if x == "#" and y == "#":
            continue
        trans.append((q, (x, y), r))
    accepting = {q for q in range(n_states) if rng.random() < 0.4}
    # drop transitions violating the padding invariant instead of fixing them
    while True:
        try:
            return au.automaton(2, AB, n_states, 0, accepting, trans)
        except InvalidAutomaton as exc:
            msg = str(exc)
            # remove one offending transition and retry
            import re

            m = re.search(r"state (\d+) on letter \('(.+)', '(.+)'\)", msg)
            if not m:
                raise
            q, x, y = int(m.group(1)), m.group(2), m.group(3)
            trans = [t for t in trans if not (t[0] == q and t[1] == (x, y))]


def test_project_and_complement_random_cross_check():
    rng = random.Random(99)
    for _ in range(12):
        a = _random_nfa2(rng)
        lang = language(a, 4)
        # existential projection of tape 1
        got = au.project(a, 1)
        expect = {(x,) for (x, y) in lang}
        assert language(got, 4) == expect
        # complement within valid convolutions
        comp = complement(a)
        allpairs = set(tuples_upto(AB, 2, 4))
        assert language(comp, 4) == allpairs - lang


def cylinder(a, position):
    """`a` with a free tape inserted at `position`: a join with the universe."""
    tapes = [t + (t >= position) for t in range(a.arity)]
    return au.join(a, tapes, au.universe(a.alphabet, 1), [position])


def test_insert_tape_cylindrification():
    # insert an unconstrained tape after {aa}^*: accepts (x, y) iff x in {aa}^*
    c = cylinder(aastar(), 1)
    for x, y in tuples_upto(("a",), 2, 4):
        assert c.accepts(x, y) == (len(x) % 2 == 0)


def test_insert_tape_with_track():
    # tape 0 from {a}^*, tape 1 from {aa}^*
    c = au.join(astar(), [0], aastar(), [1])
    for x, y in tuples_upto(("a",), 2, 5):
        assert c.accepts(x, y) == (len(y) % 2 == 0)


def test_permute_tapes():
    sh = au.shorter_automaton(AB)
    longer = au.permute_tapes(sh, [1, 0])
    for x, y in tuples_upto(AB, 2, 3):
        assert longer.accepts(x, y) == (len(x) > len(y))


def test_llex_automaton_matches_reference():
    llex = au.llex_automaton(AB)

    def ref(x, y):
        return (len(x), x) < (len(y), y)

    for x, y in tuples_upto(AB, 2, 4):
        assert llex.accepts(x, y) == ref(x, y), (x, y)


@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_llex_automaton_is_built_once_and_keeps_the_budget(budget):
    # one automaton per alphabet, a list alphabet included, yet a budget
    # under its BFS's five keys stops it at budget + 1 after it is cached
    assert au.llex_automaton(list(AB)) is au.llex_automaton(AB)
    with pytest.raises(au.StateBudgetExceeded) as exc, au.state_budget(budget):
        au.llex_automaton(AB)
    assert exc.value.n_states == budget + 1
    with au.state_budget(5):
        assert au.llex_automaton(("a", "b", "c")).n_states == 4


def test_llex_is_total_strict_order():
    llex = au.llex_automaton(AB)
    pool = list(words_upto(AB, 3))
    for x in pool:
        assert not llex.accepts(x, x)
        for y in pool:
            if x != y:
                assert llex.accepts(x, y) != llex.accepts(y, x)


def merged_row(a, subset):
    """The row of a set of states, from the triples: letter -> sorted
    targets of any state of the set, the letters with a target only."""
    row = {}
    for q, letter, r in a.transitions:
        if q in subset:
            row.setdefault(letter, set()).add(r)
    return {letter: tuple(sorted(rs)) for letter, rs in row.items()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_accepts_reads_the_step_table_as_the_oracle_runs(data):
    # several targets per (state, letter), so runs keep sets of states
    n_states = data.draw(st.integers(2, 6))
    targets = st.sets(st.integers(0, n_states - 1), max_size=3)
    trans = [(q, (s,), r) for q in range(n_states) for s in AB for r in data.draw(targets)]
    accepting = data.draw(st.sets(st.integers(0, n_states - 1)))
    a = au.automaton(1, AB, n_states, 0, accepting, trans)
    longer = data.draw(st.lists(st.text("ab", min_size=6, max_size=14), max_size=20))
    words = list(words_upto(AB, 5)) + [tuple(w) for w in longer]
    for w in words:
        assert a.accepts(w) == run_nfa(a, conv(w)), w
    table = dict(a._subset_steps)
    assert len(table) <= sum(map(len, words))  # at most one entry per letter read
    for subset, row in table.items():  # each entry is a set of states and its merged row
        assert len(subset) >= 2 and list(subset) == sorted(set(subset))
        assert row == merged_row(a, subset)
    for w in words:  # a warm table answers alike and grows no more
        assert a.accepts(w) == run_nfa(a, conv(w)), w
    assert a._subset_steps == table
    for w in words:  # a step onto a foreign or pad symbol is empty, so never stored
        for i in range(len(w)):
            assert not a.accepts(w[:i] + ("z",) + w[i + 1 :])
            assert not a.accepts(w[:i] + (au.PAD,) + w[i + 1 :])
    assert a._subset_steps == table


@st.composite
def padded_nfa2(draw):
    """An arity-2 NFA over AB with up to three targets per letter.  Each
    state r is given the tapes its entering letters pad (state 0 none), and
    a move q -> r needs r's padded tapes to include q's, so the padding
    invariant holds by construction."""
    n_states = draw(st.integers(2, 6))
    padded = [0] + [draw(st.sampled_from([0, 0, 1, 2])) for _ in range(n_states - 1)]
    pool = AB + (au.PAD,)
    trans = []
    for q in range(n_states):
        for letter in itertools.product(pool, repeat=2):
            mask = sum(1 << i for i, s in enumerate(letter) if s == au.PAD)
            fits = [r for r in range(n_states) if padded[r] == mask and (padded[r] & padded[q]) == padded[q]]
            if mask != 3 and fits:
                trans += [(q, letter, r) for r in draw(st.sets(st.sampled_from(fits), max_size=3))]
    accepting = draw(st.sets(st.integers(0, n_states - 1), min_size=1))
    return n_states, accepting, trans


@st.composite
def word_path(draw):
    """Words, each the one before with one position edited, a symbol
    appended, or a suffix cut off; a few symbols are the pad or foreign."""
    symbol = st.sampled_from("aaabbb" + au.PAD + "z")
    words = [tuple(draw(st.text("ab", max_size=5)))]
    for _ in range(draw(st.integers(0, 12))):
        w = words[-1]
        how = draw(st.sampled_from(["edit", "edit", "append", "cut"]))
        if how == "edit" and w:
            i = draw(st.integers(0, len(w) - 1))
            w = w[:i] + (draw(symbol),) + w[i + 1 :]
        elif how == "append" or not w:
            w = w + (draw(symbol),)
        else:
            w = w[: draw(st.integers(0, len(w) - 1))]
        words.append(w)
    return words


@st.composite
def looping_nfa2(draw):
    """`padded_nfa2` with diagonal self-loops (q, (a, a), q) added at
    states no padded letter enters, so a run's set of states often loops
    on a tail of letters (a, a), and as often leaves it on another target."""
    n_states, accepting, trans = draw(padded_nfa2())
    padded = {r for _q, letter, r in trans if au.PAD in letter}
    free = [q for q in range(n_states) if q not in padded]  # state 0 is entered by no padded letter
    loops = draw(st.sets(st.tuples(st.sampled_from(free), st.sampled_from(AB))))
    return n_states, accepting, trans + [(q, (a, a), q) for q, a in loops]


@st.composite
def windowed_path(draw):
    """Words up to length 12, each the one before with the symbols of one
    window of up to three redrawn and its tail kept; now and then a symbol
    is appended or a suffix cut off, and a few symbols are the pad or
    foreign."""
    symbol = st.sampled_from("aaaabbbb" + au.PAD + "z")
    words = [tuple(draw(st.lists(st.sampled_from(AB), max_size=12)))]
    for _ in range(draw(st.integers(0, 10))):
        w = words[-1]
        how = draw(st.sampled_from(["window"] * 6 + ["append", "cut"]))
        if how == "window" and w:
            i = draw(st.integers(0, len(w) - 1))
            j = draw(st.integers(i + 1, min(len(w), i + 3)))
            w = w[:i] + tuple(draw(st.lists(symbol, min_size=j - i, max_size=j - i))) + w[j:]
        elif (how == "append" and len(w) < 12) or not w:
            w = w + (draw(symbol),)
        else:
            w = w[: draw(st.integers(0, len(w) - 1))]
        words.append(w)
    return words


def assert_rejected_hop_reads_as_the_oracle(nfa, words):
    """On every suffix of the path, `rejected_hop` names the first pair the
    oracle rejects, and its step table is that of a twin read by per-hop
    `accepts`; each step-table and loop-table entry is its set's row, and
    the symbols that loop on the set, read off the triples."""
    n_states, accepting, trans = nfa
    a = au.automaton(2, AB, n_states, 0, accepting, trans)
    twin = au.automaton(2, AB, n_states, 0, accepting, trans)

    def member(u, v):  # a word holding the pad symbol is no member, as for `accepts`
        return au.PAD not in u + v and run_nfa(a, conv(u, v))

    for start in range(len(words)):  # every suffix of the path is a path
        rest = words[start:]
        want = next((i for i in range(len(rest) - 1) if not member(rest[i], rest[i + 1])), None)
        assert a.rejected_hop(rest) == want, (start, rest)
        # per-hop `accepts` up to the same pair fills its step table alike
        for u, v in itertools.islice(zip(rest, rest[1:]), len(rest) - 1 if want is None else want + 1):
            assert twin.accepts(u, v) == member(u, v)
        assert a._subset_steps == twin._subset_steps
    for subset, row in a._subset_steps.items():  # each entry is a set of states and its merged row
        assert len(subset) >= 2 and list(subset) == sorted(set(subset))
        assert row == merged_row(a, subset)
    for subset, loops in a._subset_loops.items():
        assert loops == {x for (x, y), targets in merged_row(a, subset).items() if x == y and targets == subset}


@settings(max_examples=200, deadline=None)
@given(padded_nfa2(), word_path())
def test_rejected_hop_is_the_first_pair_the_oracle_rejects(nfa, words):
    assert_rejected_hop_reads_as_the_oracle(nfa, words)


@settings(max_examples=200, deadline=None)
@given(looping_nfa2(), windowed_path())
def test_rejected_hop_settles_a_looping_tail_as_the_oracle_reads_it(nfa, words):
    # pairs of one length that agree past a window, over NFAs whose sets of
    # states loop on some diagonal letters: the tail test both holds and fails
    assert_rejected_hop_reads_as_the_oracle(nfa, words)


def test_rejected_hop_reads_binary_relations_only():
    assert au.llex_automaton(AB).rejected_hop([("a",), ("b",), ("a", "a"), ("b",)]) == 2
    assert au.llex_automaton(AB).rejected_hop([("a",)]) is None
    with pytest.raises(ArityMismatch):
        sigma_star().rejected_hop([("a",), ("b",)])


def test_is_subset():
    assert au.is_subset(aastar(), astar())
    assert not au.is_subset(astar(), aastar())
    assert au.is_subset(au.empty(AB, 1), sigma_star())


def test_section():
    # fix tape 1 of llex to "ab": words llex-below "ab"
    llex = au.llex_automaton(AB)
    below = au.section(llex, 1, "ab")
    expect = {(w,) for w in words_upto(AB, 4) if (len(w), w) < (2, ("a", "b"))}
    assert language(below, 4) == expect


def _random_nfa3(rng, n_states=3):
    # arity-3 NFA over {a,b}: random letters, then the transitions that break
    # the padding invariant are dropped one at a time
    pool = ("a", "b", "#")
    letters = [l for l in itertools.product(pool, repeat=3) if l != ("#",) * 3]
    trans = {(rng.randrange(n_states), rng.choice(letters), rng.randrange(n_states)) for _ in range(rng.randint(14, 30))}
    accepting = {q for q in range(n_states) if rng.random() < 0.5}
    while True:
        try:
            return au.automaton(3, AB, n_states, 0, accepting, trans)
        except InvalidAutomaton as exc:
            bad = next(t for t in sorted(trans) if f"state {t[0]} on letter {t[1]!r}" in str(exc))
            trans.discard(bad)


def _section_relation(rng, arity):
    """A random relation of arity 2 or 3; half the time in union with llex
    or `shorter` on two of its tapes (the universe on the third), whose
    loop survives the padding repair, so many of its sections are
    infinite."""
    rel = _random_nfa2(rng) if arity == 2 else _random_nfa3(rng)
    if rng.random() < 0.5:
        order = rng.choice([au.llex_automaton, au.shorter_automaton])(AB)
        tapes = rng.sample(range(arity), 2)
        free = [t for t in range(arity) if t not in tapes]
        order = au.join(order, tapes, au.universe(AB, 1), free) if free else au.permute_tapes(order, tapes)
        rel = au.union(rel, order)
    return rel


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_section_matches_oracles(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    arity = data.draw(st.sampled_from([2, 3]))
    rng = random.Random(seed)
    rel = _section_relation(rng, arity)
    max_len = 3 if arity == 2 else 2
    for tape in range(arity):
        for word in words_upto(AB, 4):
            got = au.section(rel, tape, word)
            rebuilt(got)  # re-runs the validator the kernel skips
            expect = set()
            for rest in tuples_upto(AB, arity - 1, max_len):
                tup = rest[:tape] + (word,) + rest[tape:]
                if run_nfa(rel, conv(*tup)) if any(tup) else rel.initial in rel.accepting:
                    expect.add(rest)
            assert language(got, max_len) == expect, (tape, word)
            ref = reference_section(rel, tape, word)
            assert au.save_automaton(au.minimize(got), "s") == au.save_automaton(au.minimize(ref), "s")


# SHA-256 of the saved sections of llex, `shorter` and 40 seeded random
# relations (`_section_relation`, arity 2 for even seeds and 3 for odd) on
# every tape and every word of length <= 4, concatenated: a section
# numbered in any other order shows here.
SECTION_SHA256 = "bc8d2099121ff6edc4c1efede80c762e3e138e6383beeef3fe024e8729acf233"


def test_section_output_pinned():
    rels = [au.llex_automaton(AB), au.shorter_automaton(AB)]
    rels += [_section_relation(random.Random(seed), 2 + seed % 2) for seed in range(40)]
    digest = hashlib.sha256()
    for rel in rels:
        for tape in range(rel.arity):
            for word in words_upto(AB, 4):
                digest.update(au.save_automaton(au.section(rel, tape, word), "s").encode("utf-8"))
    assert digest.hexdigest() == SECTION_SHA256


def _within(seconds, f, *args):
    """f(*args), failed with TimeoutError once `seconds` have passed: an
    enumeration whose layers never run dry fails here rather than hangs.
    The alarm repeats, as one raised inside a gc callback is dropped."""

    def stop(*_):
        raise TimeoutError(f"{f.__name__} ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.1)
    try:
        return f(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _oracle_words(accepts, arity, max_len, limit):
    """The first `limit` tuples of arity `arity`, components of length at
    most max_len, that `accepts` holds, in count_or_enumerate's order:
    convolution length, then letter-wise with PAD first."""
    rank = {au.PAD: -1, **{s: i for i, s in enumerate(AB)}}
    found = [tup for tup in tuples_upto(AB, arity, max_len) if accepts(tup)]
    found.sort(key=lambda tup: (len(conv(*tup)), [tuple(rank[s] for s in letter) for letter in conv(*tup)]))
    return found[:limit]


def _assert_enumerates(got, accepts, arity, max_len, limit, infinite):
    # the words of convolution length <= max_len are the oracle's llex
    # prefix; any longer ones follow them and are accepted too
    short = [tup for tup in got if len(conv(*tup)) <= max_len]
    assert short == _oracle_words(accepts, arity, max_len, limit)
    assert got[: len(short)] == short
    assert all(accepts(tup) for tup in got)
    assert len(got) == len(set(got)) <= limit
    if infinite:
        assert len(got) == limit


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_section_enumerates_as_the_oracle(data):
    # the built section's words are the oracle's.  Few random sections are
    # infinite; llex's on tape 0 all are
    seed = data.draw(st.integers(0, 10 ** 6))
    kind = data.draw(st.sampled_from([2, 3, "llex"]))
    limit = data.draw(st.sampled_from([1, 2, 3, 4, 5, 100]))
    rng = random.Random(seed)
    if kind == "llex":
        rel = au.llex_automaton(AB)
    else:
        rel = _random_nfa2(rng) if kind == 2 else _random_nfa3(rng)
    arity = rel.arity
    max_len = 4 if arity == 2 else 2
    for tape in range(arity):
        for word in words_upto(AB, 4):
            built = au.section(rel, tape, word)
            got = _within(1, au.count_or_enumerate, built, limit)
            _assert_enumerates(
                got, lambda rest: run_nfa(rel, conv(*rest[:tape], word, *rest[tape:])), arity - 1, max_len, limit,
                au.is_infinite(built),
            )


# no shrinking, as above: each failing attempt would wait out its timer
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.data())
def test_section_words_list_the_section(data):
    # the memoized set steps give the numbered section's first words on
    # every tape; one relation's steps are kept across its words and tapes,
    # so most words here read tables that earlier words filled
    seed = data.draw(st.integers(0, 10 ** 6))
    kind = data.draw(st.sampled_from([2, 3, "llex"]))
    rng = random.Random(seed)
    if kind == "llex":
        rel = au.llex_automaton(AB)
    else:
        rel = _random_nfa2(rng) if kind == 2 else _random_nfa3(rng)
    for tape in range(rel.arity):
        for word in words_upto(AB, 4):
            for limit in (1, 2, 3, 4, 5, 100):
                got = _within(1, au.section_words, rel, tape, word, limit)
                assert got == au.count_or_enumerate(au.section(rel, tape, word), limit), (tape, word, limit)


def test_section_words_of_an_infinite_section():
    # llex's sections on tape 0 are infinite: the read stops at the limit
    llex = au.llex_automaton(AB)
    assert _within(1, au.section_words, llex, 0, "ab", 5) == [(tuple(w),) for w in ("ba", "bb", "aaa", "aab", "aba")]
    assert au.section_words(llex, 0, "ab", 0) == []
    word = "a" * 1500
    assert _within(5, au.section_words, llex, 0, word, 2) == au.count_or_enumerate(au.section(llex, 0, word), 2)
    with pytest.raises(InvalidSymbol):
        au.section_words(llex, 0, "ac", 2)
    with pytest.raises(CannotProject):
        au.section_words(llex, 2, "ab", 2)


def test_section_words_end_where_the_padded_sets_cannot_accept():
    # past x = "a", y = "a" is accepted and every longer y enters state 2,
    # which loops on (#, a) and never reaches acceptance: the forward sets
    # past the word keep only states that can, so the read ends
    rel = au.automaton(2, AB, 3, 0, {1}, [(0, ("a", "a"), 1), (1, (au.PAD, "a"), 2), (2, (au.PAD, "a"), 2)])
    for limit in (1, 2, 100):
        assert _within(1, au.section_words, rel, 0, "a", limit) == [(("a",),)]
    assert au.count_or_enumerate(au.section(rel, 0, "a"), 2) == [(("a",),)]


def _shared_target_nfa():
    """Two tapes over AB.  From state 0 the letters (a, a) and (a, b) both
    lead to state 1, and (a, a) leads to state 2 as well; state 3 reads
    tape 0 on alone once tape 1 has ended."""
    pad = au.PAD
    return au.automaton(2, AB, 4, 0, {0, 3}, [
        (0, ("a", "a"), 1), (0, ("a", "b"), 1), (0, ("a", "a"), 2), (1, ("a", "a"), 0), (1, ("b", "b"), 0),
        (1, ("b", pad), 3), (2, ("b", "a"), 0), (2, ("b", "b"), 2), (3, ("a", pad), 3),
    ])


def test_section_words_descend_as_the_oracle():
    # sections with several words of one length, which branch off each
    # other at depths 0 to 5: the first 1-8 words are the oracle's, so a
    # descent that takes its choices out of letter order, resumes at the
    # wrong position or steps outside the live sets shows
    cases = [(au.llex_automaton(AB), 0, w) for w in ("", "a", "ab", "ba", "bab")]
    cases += [(au.shorter_automaton(AB), tape, w) for tape in (0, 1) for w in words_upto(AB, 4)]
    nfa = _shared_target_nfa()
    cases += [(nfa, 0, w) for w in ("ab", "aaab", "abaa", "abab")] + [(nfa, 1, w) for w in ("aaaa", "aaaaa", "aaaaaa")]
    depths = set()
    for rel, tape, word in cases:
        def accepts(rest):
            return run_nfa(rel, conv(*rest[:tape], word, *rest[tape:]))

        want = _oracle_words(accepts, 1, len(word) + 3, 8)
        # every word is listed: 8 within the oracle's lengths, or a finite
        # section whose words are no longer than those
        assert len(want) == 8 or not au.is_infinite(au.section(rel, tape, word)), (tape, word)
        for limit in range(1, 9):
            assert au.section_words(rel, tape, word, limit) == want[:limit], (tape, word, limit)
        for x, y in zip(want, want[1:]):
            if len(x[0]) == len(y[0]):
                depths.add(next(i for i, (s, t) in enumerate(zip(x[0], y[0])) if s != t))
    assert depths == set(range(6))


# no shrinking: a smaller seed is no smaller relation, and each failing
# attempt would wait out its timer
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.data())
def test_count_or_enumerate_keeps_to_reachable_states(data):
    # random relations keep their unreachable states, some on a cycle that
    # reaches acceptance: such a cycle must not keep the layers going
    seed = data.draw(st.integers(0, 10 ** 6))
    arity = data.draw(st.sampled_from([2, 3]))
    limit = data.draw(st.sampled_from([1, 2, 3, 4, 5, 100]))
    rng = random.Random(seed)
    rel = _random_nfa2(rng) if arity == 2 else _random_nfa3(rng)
    got = _within(1, au.count_or_enumerate, rel, limit)
    _assert_enumerates(got, lambda tup: run_nfa(rel, conv(*tup)), arity, 3 if arity == 2 else 2, limit, au.is_infinite(rel))


def test_count_or_enumerate_ignores_an_unreachable_cycle():
    # state 2 is unreachable and loops on b before it reaches acceptance
    a = au.automaton(1, AB, 3, 0, {1}, [(0, ("a",), 1), (2, ("b",), 2), (2, ("a",), 1)])
    assert _within(1, au.count_or_enumerate, a, 5) == [(("a",),)]


def _at_most(arity, length):
    """The convolutions of at most `length` letters, over AB."""
    return au.letter_dfa(AB, arity, 0, lambda v, letter: v + 1 if v < length else None, lambda v: True)


def test_count_words_counts_the_listed_words():
    # a random NFA, untrimmed as `automaton` keeps it, counted when its
    # language is finite, and always after a cut to short convolutions: the
    # count on the minimal DFA is the number of words the enumeration lists
    rng = random.Random(43)
    for i in range(200):
        arity = rng.choice([1, 2])
        if i % 2:
            a = _dense_nfa(rng, arity, rng.randint(3, 8))
        else:
            a = _random_nfa(rng, 6, AB) if arity == 1 else _random_nfa2(rng)
        cut = au.intersect(a, _at_most(arity, rng.randint(0, 9 if arity == 1 else 5)))
        for finite in [cut] + ([a] if not au.is_infinite(a) else []):
            assert au.count_words(au.minimize(finite)) == len(au.count_or_enumerate(finite, 10 ** 6)), i


def test_count_words_refuses_an_infinite_language():
    for a in (au.universe(AB, 1), au.minimize(au.llex_automaton(AB))):
        with pytest.raises(ValueError):
            au.count_words(a)
    assert au.count_words(au.minimize(au.empty(AB, 2))) == 0
    assert au.count_words(au.minimize(_at_most(1, 40))) == 2 ** 41 - 1


def test_sections_on_alternate_tapes_match_a_fresh_relation():
    # the split of a relation's letters is kept per tape: sections on tape 0
    # and tape 1 taken in turn from one relation are those of a fresh copy
    rng = random.Random(5)
    for rel in [au.llex_automaton(AB)] + [_random_nfa2(rng) for _ in range(6)]:
        for word in words_upto(AB, 3):
            for tape in (0, 1, 0, 1):
                fresh = rebuilt(rel)
                assert au.save_automaton(au.section(rel, tape, word), "s") == au.save_automaton(
                    au.section(fresh, tape, word), "s"
                ), (tape, word)
                assert au.section_words(rel, tape, word, 4) == au.section_words(fresh, tape, word, 4), (tape, word)


def test_section_rejects_bad_words_and_tapes():
    llex = au.llex_automaton(AB)
    with pytest.raises(InvalidSymbol):
        au.section(llex, 0, "ac")
    with pytest.raises(InvalidSymbol):
        au.section(llex, 1, ("a", au.PAD))
    with pytest.raises(CannotProject):
        au.section(llex, 2, "ab")
    with pytest.raises(CannotProject):
        au.section(sigma_star(), 0, "ab")


def test_enumerate_and_section_of_long_words():
    word = "a" * 1500
    assert au.count_or_enumerate(au.fixed_word(AB, word), 2) == [(tuple(word),)]
    # the two words llex-above a^1500, found by a 1,500-letter enumeration
    above = au.section(au.llex_automaton(AB), 0, word)
    assert au.count_or_enumerate(above, 2) == [
        (tuple(word[:-1] + "b"),),
        (tuple(word[:-2] + "ba"),),
    ]


def test_eq_tapes_and_diagonal():
    d = au.diagonal(AB)
    for x, y in tuples_upto(AB, 2, 3):
        assert d.accepts(x, y) == (x == y)


def test_padding_preserved_by_kernel_ops():
    # kernel results skip the validator; rebuilding one re-runs it
    sh = au.shorter_automaton(AB)
    llex = au.llex_automaton(AB)
    for op_result in [
        au.intersect(sh, llex),
        au.union(sh, llex),
        au.difference(sh, llex),
        complement(sh),
        au.project(sh, 0),
        au.minimize(llex),
        cylinder(sh, 1),
    ]:
        rebuilt(op_result)


def test_save_load_roundtrip(tmp_path):
    llex = au.llex_automaton(AB)
    text = au.save_automaton(llex, "llex")
    path = tmp_path / "llex.aut"
    path.write_text(text, encoding="utf-8")
    name, back = au.load_automaton(path)
    assert name == "llex"
    assert same_language(llex, back)
    # byte-exact determinism
    assert au.save_automaton(back, "llex") == text


def test_loader_rejects_padding_violation_with_line():
    text = "\n".join(
        [
            "automaton bad",
            "arity 2",
            "alphabet a",
            "states 2",
            "initial 0",
            "accepting 1",
            "trans 0 (#,a) 1",
            "trans 1 (a,a) 1",
        ]
    )
    with pytest.raises(LoadError):
        au.parse_automaton(text)


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        au.intersect(astar(), au.shorter_automaton(("a",)))


# -- the trust boundary --------------------------------------------------------


def _projection_oracle(a, tape, max_len):
    # a witness on the dropped tape never needs more than n_states letters
    # past the other tapes, so this bound makes the oracle exact
    out = set()
    for rest in tuples_upto(a.alphabet, a.arity - 1, max_len):
        for w in words_upto(a.alphabet, max_len + a.n_states):
            tup = rest[:tape] + (w,) + rest[tape:]
            if run_nfa(a, conv(*tup)) if any(tup) else a.initial in a.accepting:
                out.add(rest)
                break
    return out


def _infinite_projection_oracle(a, tape, max_len):
    # infinitely many witnesses iff one runs at least n_states letters past
    # the other tapes (its tail repeats a state); cutting cycles out of the
    # tail then gives one at most 2 * n_states past them
    trans = {}
    for (q, letter, r) in a.transitions:
        trans.setdefault((q, letter), set()).add(r)
    n = a.n_states
    out = set()
    for rest in tuples_upto(a.alphabet, a.arity - 1, max_len):
        m = max(len(w) for w in rest)
        start = (0, frozenset({a.initial}))
        seen, stack = {start}, [start]
        while stack:
            i, subset = stack.pop()
            if i >= m + n and subset & a.accepting:
                out.add(rest)
                break
            if i == m + 2 * n:
                continue
            others = [w[i] if i < len(w) else "#" for w in rest]
            for s in a.alphabet:
                letter = tuple(others[:tape] + [s] + others[tape:])
                nxt = (i + 1, frozenset(r for q in subset for r in trans.get((q, letter), ())))
                if nxt[1] and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_ops_valid_trimmed_and_correct(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    arity = data.draw(st.sampled_from([1, 2, 3]))
    rng = random.Random(seed)
    if arity == 1:
        a, b = _random_nfa(rng, n_states=5), _random_nfa(rng, n_states=5)
        alphabet, max_len = a.alphabet, 4
    elif arity == 2:
        a, b = _random_nfa2(rng), _random_nfa2(rng)
        alphabet, max_len = AB, 2
    else:
        a, b = _random_nfa3(rng), _random_nfa3(rng)
        alphabet, max_len = AB, 2
    la, lb = language(a, max_len), language(b, max_len)
    everything = set(tuples_upto(alphabet, arity, max_len))
    perm = rng.sample(range(arity), arity)
    position = rng.randrange(arity + 1)
    cases = [
        (au.intersect(a, b), la & lb, max_len),
        (au.union(a, b), la | lb, max_len),
        (au.difference(a, b), la - lb, max_len),
        (complement(a), everything - la, max_len),
        (reference_determinize(a), la, max_len),
        (au.minimize(a), la, max_len),
        (trim(a), la, max_len),
        (au.permute_tapes(a, perm), {tuple(t[p] for p in perm) for t in la}, max_len),
        (
            cylinder(a, position),
            {t[:position] + (w,) + t[position:] for t in language(a, 2) for w in words_upto(alphabet, 2)},
            2,
        ),
    ]
    # join with a partner of any arity on a random tape map: the result
    # tapes the partner lacks come from `a`, and the rest are shared
    c = _random_partner(rng, alphabet)
    n = rng.randint(max(arity, c.arity), min(arity + c.arity, 3))
    a_tapes = rng.sample(range(n), arity)
    c_tapes = [t for t in range(n) if t not in a_tapes] + rng.sample(a_tapes, c.arity + arity - n)
    rng.shuffle(c_tapes)
    la2, lc2 = language(a, 2), language(c, 2)
    joined = {
        t for t in tuples_upto(alphabet, n, 2)
        if tuple(t[i] for i in a_tapes) in la2 and tuple(t[i] for i in c_tapes) in lc2
    }
    cases.append((au.join(a, a_tapes, c, c_tapes), joined, 2))
    with pytest.raises(ArityMismatch):
        au.join(a, a_tapes + [n], c, c_tapes)
    with pytest.raises(ArityMismatch):
        au.join(a, [t + 1 for t in a_tapes], c, [t + 1 for t in c_tapes])
    if arity > 1:
        tape = rng.randrange(arity)
        infinite = au.project(a, tape, infinite=True)
        cases.append((au.project(a, tape), _projection_oracle(a, tape, max_len), max_len))
        cases.append((infinite, _infinite_projection_oracle(a, tape, max_len), max_len))
        # the cycle test and the pumping-bound counter define the same language
        reference = au.save_automaton(au.minimize(reference_project_inf(a, tape)), "p")
        assert au.save_automaton(au.minimize(infinite), "p") == reference
    for out, expect, n in cases:
        rebuilt(out)  # re-runs the validator the kernel skips
        if not (out.n_states == 1 and not out.accepting and not out.transitions):
            assert out.useful_states == frozenset(range(out.n_states))
        assert language(out, n) == expect
    # complement is byte-identical to the plain subset x pad-mask construction
    assert au.save_automaton(complement(a), "c") == au.save_automaton(reference_complement(a), "c")
    # a cylinder join is byte-identical to its own construction, and
    # intersect to the plain pair product on deterministic operands
    for x in (a, b, c):
        for pos in range(x.arity + 1):
            assert au.save_automaton(cylinder(x, pos), "i") == au.save_automaton(reference_insert_tape(x, pos), "i")
    ma, mb = au.minimize(a), au.minimize(b)
    assert au.save_automaton(au.intersect(ma, mb), "p") == au.save_automaton(reference_intersect(ma, mb), "p")


def _random_partner(rng, alphabet):
    # a random NFA of arity 1, 2 or 3 over `alphabet`
    arity = rng.choice([1, 2, 3])
    if arity == 1:
        return _random_nfa(rng, n_states=5, alphabet=alphabet)
    c = _random_nfa2(rng) if arity == 2 else _random_nfa3(rng)
    return c if alphabet == AB else rename_symbols(c, dict(zip(AB, alphabet)))


def test_kernel_op_on_loaded_automata_skips_the_validator(monkeypatch):
    _, a = au.parse_automaton(au.save_automaton(au.llex_automaton(AB), "a"))
    _, b = au.parse_automaton(au.save_automaton(au.shorter_automaton(AB), "b"))
    calls = []
    validate = au.Automaton.__post_init__

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(au.Automaton, "__post_init__", counting)
    out = au.intersect(a, b)
    assert calls == []
    assert language(out, 3) == language(a, 3) & language(b, 3)


def test_build_validates_the_padding_invariant():
    # tape 0 pads, then reads a real symbol again on the way to acceptance
    def moves(q):
        if q == 0:
            yield (("#", "a"),), 1
        elif q == 1:
            yield (("a", "a"),), 2

    with pytest.raises(InvalidAutomaton):
        au.build(2, AB, 0, lambda q: q == 2, moves)


def _outcome(make):
    """None when `make()` returns, else the class of what it raised."""
    try:
        make()
    except Exception as exc:  # the class is what the tests compare
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validator_matches_reference_on_build_graphs(data):
    # move graphs as `build` gets them; a letter may have the wrong arity,
    # hold the foreign symbol z, be all-pad, or break the padding invariant
    arity = data.draw(st.integers(1, 3))
    n_states = data.draw(st.integers(1, 5))
    size = st.sampled_from([arity] * 6 + [arity + 1] + ([arity - 1] if arity > 1 else []))
    symbol = st.sampled_from(AB * 4 + ("#",) * 3 + ("z",))
    letter = size.flatmap(lambda k: st.tuples(*[symbol] * k))
    move = st.tuples(letter, st.integers(0, n_states - 1))
    graph = data.draw(st.lists(st.lists(move, max_size=6), min_size=n_states, max_size=n_states))
    accepting = data.draw(st.frozensets(st.integers(0, n_states - 1)))

    def moves(q):
        return [((l,), r) for l, r in graph[q]]

    got = _outcome(lambda: au.build(arity, AB, 0, accepting.__contains__, moves))
    want = _outcome(lambda: reference_validate(au._canonical(arity, AB, 0, accepting.__contains__, moves)))
    assert got == want
    # the same graph as numbered transitions, unreachable states included
    trans = [(q, l, r) for q, out in enumerate(graph) for l, r in out]
    got = _outcome(lambda: au.automaton(arity, AB, n_states, 0, accepting, trans))
    want = _outcome(lambda: reference_validate(unchecked(arity, AB, n_states, 0, accepting, trans)))
    assert got == want


def test_build_rejects_a_foreign_symbol_as_automaton_does():
    # the BFS sorts letters by alphabet index before `build` validates them,
    # so a foreign symbol must be reported there, with the validator's error
    trans = [(0, ("a", "z"), 1)]
    with pytest.raises(InvalidAutomaton) as built:
        au.build(2, ("a",), 0, lambda q: q == 1, lambda q: [((l,), r) for p, l, r in trans if p == q])
    with pytest.raises(InvalidAutomaton) as checked:
        au.automaton(2, ("a",), 2, 0, {1}, trans)
    assert str(built.value) == str(checked.value) == "letter ('a', 'z') uses symbols outside the alphabet"


def test_validator_rejects_each_kind_of_bad_letter():
    pad_break = [(0, ("#", "a"), 1), (1, ("a", "a"), 1)]
    for trans, message in [
        ([(0, ("a",), 0)], "wrong arity"),
        ([(0, ("a", "z"), 0)], "outside the alphabet"),
        ([(0, ("#", "#"), 0)], "all-pad"),
        ([(0, ("a", "a"), 2)], "out of range"),
        (pad_break, "padding invariant violated at state 1 on letter ('a', 'a')"),
    ]:
        with pytest.raises(InvalidAutomaton, match=re.escape(message)):
            au.automaton(2, ("a",), 2, 0, {1}, trans)
        with pytest.raises(InvalidAutomaton):
            reference_validate(unchecked(2, ("a",), 2, 0, {1}, trans))
    # a padding break at a state that is not reachable is not a violation
    au.automaton(2, ("a",), 3, 0, {0}, [(1, ("#", "a"), 2), (2, ("a", "a"), 2)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_delta_is_the_sorted_build(data):
    # NFA move graphs with repeated moves and targets in any order; many
    # states cannot reach acceptance, so the last step often trims
    arity = data.draw(st.integers(1, 2))
    n_states = data.draw(st.integers(1, 6))
    letters = [l for l in itertools.product(AB + ("#",), repeat=arity) if "#" not in l]
    move = st.tuples(st.sampled_from(letters), st.integers(0, n_states - 1))
    graph = data.draw(st.lists(st.lists(move, max_size=8), min_size=n_states, max_size=n_states))
    accepting = data.draw(st.frozensets(st.integers(0, n_states - 1), max_size=2))
    a = au._canonical(arity, AB, 0, accepting.__contains__, lambda q: [((l,), r) for l, r in graph[q]])
    assert_delta_is_reference(a)
    raw = unchecked(arity, AB, n_states, 0, accepting, [(q, l, r) for q, out in enumerate(graph) for l, r in out])
    assert a.n_states == max(1, len(raw.useful_states))


def test_canonical_delta_after_trimming_the_last_state():
    # state 1 (reached first, on a) is dead; 2 and 3 are renumbered 1 and 2
    graph = {0: [(("b",), 2), (("a",), 1), (("b",), 3)], 1: [(("a",), 1)], 2: [(("a",), 3), (("a",), 2)], 3: []}
    a = au._canonical(1, AB, 0, {3}.__contains__, lambda q: [((l,), r) for l, r in graph[q]])
    assert (a.n_states, a.accepting) == (3, frozenset({2}))
    assert a._delta == {0: {("b",): (1, 2)}, 1: {("a",): (1, 2)}}
    assert_delta_is_reference(a)


def _built(make):
    """What `make()` gives, as comparable data: the saved bytes, the
    `_delta` items in order and the transition triples, or the class and
    message of what it raised."""
    try:
        a = make()
    except Exception as exc:  # the class and message are what the test compares
        return type(exc), str(exc)
    return au.save_automaton(a, "A"), [(q, list(row.items())) for q, row in a._delta.items()], a.transitions


def _validated(a):
    a.__post_init__()
    return a


def _one_letter_moves(groups):
    """The moves of a letter-group graph, one letter at a time, as
    `reference_canonical` reads them."""

    def moves(key):
        return [(letter, target) for letters, target in groups(key) for letter in letters]

    return moves


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_build_matches_reference_canonical(data):
    # move graphs as letter groups: runs of letters that share a target, a
    # letter in two groups with different targets, repeated letters and
    # moves, states that cannot reach acceptance and now and then the
    # foreign symbol z, alone or inside a group of several letters; tuple
    # keys, as the package's graphs use.  The reference reads the same
    # moves one letter at a time.  With the alphabet (b, a), sort by symbol
    # index and plain tuple order differ
    alphabet = data.draw(st.sampled_from([AB, AB[::-1]]))
    arity = data.draw(st.integers(1, 2))
    n_states = data.draw(st.integers(1, 7))
    symbol = st.sampled_from(AB * 6 + ("#", "z"))
    letter = st.tuples(*[symbol] * arity).filter(lambda l: set(l) != {"#"})
    group = st.tuples(st.lists(letter, min_size=1, max_size=4).map(tuple), st.integers(0, n_states - 1))
    graph = data.draw(st.lists(st.lists(group, max_size=4), min_size=n_states, max_size=n_states))
    accepting = data.draw(st.frozensets(st.integers(0, n_states - 1), min_size=1, max_size=2))
    budget = data.draw(st.none() | st.integers(1, n_states + 1))

    def groups(key):
        return [(letters, ("q", r)) for letters, r in graph[key[1]]]

    def accept(key):
        return key[1] in accepting

    with au.state_budget(au.DEFAULT_STATE_BUDGET if budget is None else budget):
        got = _built(lambda: au.build(arity, alphabet, ("q", 0), accept, groups))
    want = _built(lambda: _validated(reference_canonical(arity, alphabet, ("q", 0), accept, _one_letter_moves(groups), budget)))
    assert got == want
    # the budget holds at budget + 1 keys, unless a foreign symbol is met first
    reached = au._search({0}, {q: {r for _l, r in out} for q, out in enumerate(graph)})
    foreign = any("z" in l for q in reached for letters, _r in graph[q] for l in letters)
    if budget is not None and len(reached) > budget and not foreign:
        assert got == (StateBudgetExceeded, str(StateBudgetExceeded(budget + 1, budget, "states")))
    if budget is None or len(reached) <= budget:
        assert got[0] is not StateBudgetExceeded


@pytest.mark.parametrize(
    "graph",
    [
        # a tie on the least letter a: the group yielded first is numbered first
        {0: [((("b",), ("a",)), 1), ((("a",),), 2)], 1: [((("a",),), 3)], 2: [((("b",),), 3)], 3: []},
        # a letter in two groups with different targets, and a group whose
        # least letter comes after another group's
        {0: [((("b",),), 2), ((("a",), ("b",)), 1)], 1: [((("a",), ("b",)), 3)], 2: [((("a",),), 3)], 3: []},
        # a foreign symbol inside a group of several letters, reported
        # before the one yielded after it
        {0: [((("a",),), 1), ((("b",), ("z",), ("a",)), 2), ((("y",),), 1)], 1: [], 2: [((("a",),), 3)], 3: []},
    ],
)
def test_build_reads_a_group_as_its_letters_in_yield_order(graph):
    for alphabet in (AB, AB[::-1]):
        got = _built(lambda: au.build(1, alphabet, 0, {3}.__contains__, graph.__getitem__))
        want = _built(lambda: _validated(reference_canonical(1, alphabet, 0, {3}.__contains__, _one_letter_moves(graph.__getitem__))))
        assert got == want
        with au.state_budget(2):
            got = _built(lambda: au.build(1, alphabet, 0, {3}.__contains__, graph.__getitem__))
        want = _built(lambda: _validated(reference_canonical(1, alphabet, 0, {3}.__contains__, _one_letter_moves(graph.__getitem__), 2)))
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reader_answers_as_its_move_graph(data):
    # a reader over a random letter-group graph answers every read as a
    # subset simulation of the graph itself, and raises InvalidAutomaton
    # exactly when a read fills the row of a state holding a letter with a
    # foreign symbol (z) or of the wrong arity; where `build` accepts the
    # graph, the built automaton gives the same answers to the reads that
    # do not raise (its trim may drop a state with a wrong-arity letter)
    arity = data.draw(st.integers(1, 2))
    n_states = data.draw(st.integers(1, 6))
    symbol = st.sampled_from(AB * 8 + ("#", "z"))
    letter = st.tuples(*[symbol] * arity).filter(lambda l: set(l) != {"#"}) | st.just(("a",) * (arity + 1))
    group = st.tuples(st.lists(letter, min_size=1, max_size=3).map(tuple), st.integers(0, n_states - 1))
    graph = data.draw(st.lists(st.lists(group, max_size=4), min_size=n_states, max_size=n_states))
    accepting = data.draw(st.frozensets(st.integers(0, n_states - 1), max_size=2))
    bad = {q for q, out in enumerate(graph) for letters, _r in out for l in letters if len(l) != arity or "z" in l}

    def groups(key):
        return [(letters, ("q", r)) for letters, r in graph[key[1]]]

    def accept(key):
        return key[1] in accepting

    def simulate(letters):
        """The graph's answer, or InvalidAutomaton when a state whose row
        a read fills (each state alive before a letter) is bad."""
        current = {0}
        for l in letters:
            if current & bad:
                return InvalidAutomaton
            current = {r for q in current for ls, r in graph[q] if l in ls}
            if not current:
                return False
        return bool(current & accepting)

    def answer(read):
        try:
            return read()
        except InvalidAutomaton:
            return InvalidAutomaton

    try:
        built = au.build(arity, AB, ("q", 0), accept, groups)
    except InvalidAutomaton:
        built = None
    reader = au.reader(arity, AB, ("q", 0), accept, groups)
    pool = [l for l in itertools.product(AB + ("#",), repeat=arity) if set(l) != {"#"}]
    for word in data.draw(st.lists(st.lists(st.sampled_from(pool), max_size=5), max_size=6)):
        want = simulate([tuple(l) for l in word])
        assert answer(lambda: reader.accepts_letters(word)) == want
        if built is not None and want is not InvalidAutomaton:
            assert built.accepts_letters(word) == want
    if arity == 2:
        word = st.lists(st.sampled_from(AB + ("#",)), max_size=4).map(tuple)
        path = data.draw(st.lists(word, min_size=1, max_size=5))
        want = None
        for i, (u, v) in enumerate(zip(path, path[1:])):
            hop = False if "#" in u + v else simulate(au.convolve([u, v]))
            if hop is not True:
                want = InvalidAutomaton if hop is InvalidAutomaton else i
                break
        assert answer(lambda: au.reader(arity, AB, ("q", 0), accept, groups).rejected_hop(path)) == want
        if built is not None and want is not InvalidAutomaton:
            assert built.rejected_hop(path) == want


def test_reader_counts_its_states_against_the_budget():
    # the budget in effect when the reader is made holds at budget + 1 keys
    graph = {0: [((("a",), ("b",)), 1)], 1: [((("a",),), 2), ((("b",),), 3)], 2: [], 3: []}
    with au.state_budget(3):
        reader = au.reader(1, AB, 0, {3}.__contains__, graph.__getitem__)
    assert reader.accepts_letters([("a",)]) is False
    assert reader.n_states == 2 and reader.accepting == set()
    with pytest.raises(StateBudgetExceeded) as exc:
        reader.accepts_letters([("a",), ("b",)])
    assert (exc.value.n_states, exc.value.budget) == (4, 3)
    assert au.reader(1, AB, 0, {3}.__contains__, graph.__getitem__).accepts_letters([("b",), ("b",)])


def test_kernel_results_have_the_sorted_delta():
    rng = random.Random(20261018)
    trimmed = 0
    for _ in range(30):
        a, b = _random_nfa(rng, n_states=5, alphabet=AB), _random_nfa(rng, n_states=5, alphabet=AB)
        c, d = _random_nfa2(rng), _random_nfa2(rng)
        trimmed += bool(a._reachable - a._coreachable)
        for out in (
            trim(a), au.intersect(a, b), au.union(a, b), au.difference(a, b), reference_determinize(a),
            au.minimize(a), complement(a), au.intersect(c, d), au.difference(c, d), au.project(c, 0),
            au.project(c, 1, infinite=True), au.permute_tapes(c, [1, 0]), au.join(a, [0], b, [1]),
            au.join(c, [0, 1], d, [1, 2]), au.section(c, 0, "ab"),
        ):
            assert_delta_is_reference(out)
    assert trimmed >= 5  # `trim(a)` dropped states in these draws


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_cube_check_matches_brute_force(seed, arity):
    rng = random.Random(seed)
    domain = _random_nfa(rng, n_states=3, alphabet=AB)
    rel = {1: lambda: _random_nfa(rng, n_states=4, alphabet=AB), 2: lambda: _random_nfa2(rng), 3: lambda: _random_nfa3(rng)}[arity]()
    cube = domain
    for _ in range(arity - 1):
        cube = au.join(cube, range(cube.arity), domain, [cube.arity])
    if rng.random() < 0.3:
        rel = au.intersect(rel, cube)  # inside the cube by construction
    got = au.is_subset_of_cube(rel, domain)
    assert got == au.is_subset(rel, cube)
    # brute force on short words: a tuple of rel with a word outside the domain
    max_len = {1: 6, 2: 3, 3: 2}[arity]
    inside = {w for (w,) in language(domain, max_len)}
    if any(not set(tup) <= inside for tup in language(rel, max_len)):
        assert got is False


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_is_subset_matches_brute_force(seed, arity):
    # the inclusion search answers as the emptiness of the built difference;
    # a yes holds on every short tuple, and a no comes with a tuple that the
    # plain simulator sees in small and not in big.  The derived pairs make
    # both answers occur.
    rng = random.Random(seed)
    draw = {1: lambda: _random_nfa(rng, n_states=4, alphabet=AB), 2: lambda: _random_nfa2(rng), 3: lambda: _random_nfa3(rng)}[arity]
    a, b = draw(), draw()
    max_len = {1: 6, 2: 3, 3: 2}[arity]
    for small, big in ((a, b), (b, a), (au.intersect(a, b), a), (a, au.union(a, b)), (a, a)):
        diff = au.difference(small, big)
        got = au.is_subset(small, big)
        assert got == au.is_empty(diff)
        if got:
            assert language(small, max_len) <= language(big, max_len)
        else:
            (witness,) = au.count_or_enumerate(diff, 1)
            assert run_nfa(small, conv(*witness)) and not run_nfa(big, conv(*witness))


@pytest.mark.parametrize("budget", [1, 3, 4])
def test_is_subset_budget_raises_at_budget_plus_one(budget):
    # (aaaaa)* inside a*: the search visits all five (state, {0}) pairs
    # before it can say yes, and with too small a budget it raises on the
    # first pair past the budget
    fives = au.automaton(1, ("a",), 5, 0, {0}, [(i, ("a",), (i + 1) % 5) for i in range(5)])
    stars = au.automaton(1, ("a",), 1, 0, {0}, [(0, ("a",), 0)])
    with pytest.raises(StateBudgetExceeded) as info, au.state_budget(budget):
        au.is_subset(fives, stars)
    assert info.value.n_states == budget + 1
    with au.state_budget(5):
        assert au.is_subset(fives, stars)
    # "a" is the counterexample, the second pair: the search stops there
    with au.state_budget(2):
        assert not au.is_subset(stars, fives)


def test_linearity_searches_raise_at_budget_plus_one():
    # a five-cycle of (a, a) letters accepting nowhere is irreflexive, found
    # after all five states; llex on a* is total, found after its three keys
    # (start, x ended, y ended); under the empty relation the pair (a, ε),
    # the third key met (after (a, a)), ends the search
    cycle = au.automaton(2, ("a",), 5, 0, (), [(i, ("a", "a"), (i + 1) % 5) for i in range(5)])
    llex, empty, stars = au.llex_automaton(("a",)), au.empty(("a",), 2), au.universe(("a",), 1)
    for search, keys in ((lambda: au.is_irreflexive(cycle), 5), (lambda: au.is_total(llex, stars), 3)):
        for budget in range(1, keys):
            with pytest.raises(StateBudgetExceeded) as info, au.state_budget(budget):
                search()
            assert info.value.n_states == budget + 1
        with au.state_budget(keys):
            assert search()
    with au.state_budget(3):
        assert not au.is_total(empty, stars)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]), st.booleans())
def test_projection_graph_reads_as_the_built_projection(seed, arity, infinite):
    # minimize, is_subset and difference take the unnumbered projection graph
    # where they took the projection: the same minimal bytes and answers on
    # any operand.  On a trimmed (kernel-built) operand each set a reversal
    # forms matches one over the projection, so the first reversal is
    # byte-identical, and without `infinite` so is the difference
    rng = random.Random(seed)
    draw = (lambda: _random_nfa2(rng)) if arity == 2 else (lambda: _random_nfa3(rng))
    a = draw()
    for operand, trimmed in ((a, False), (trim(a), True)):
        for tape in range(arity):
            graph = au.projection_graph(operand, tape, infinite)
            built = au.project(operand, tape, infinite)
            assert au.save_automaton(au.minimize(graph), "m") == au.save_automaton(au.minimize(built), "m")
            if trimmed:
                first = au.save_automaton(au._reverse_subsets(graph), "r")
                assert first == au.save_automaton(au._reverse_subsets(built), "r")
            partner = au.project(draw(), rng.randrange(arity)) if arity == 3 else _random_nfa(rng, n_states=4, alphabet=AB)
            for other in (partner, au.union(built, partner), au.intersect(built, partner)):
                assert au.is_subset(graph, other) == au.is_subset(built, other)
                assert au.is_subset(other, graph) == au.is_subset(other, built)
                got, want = au.difference(other, graph), au.difference(other, built)
                assert au.save_automaton(au.minimize(got), "d") == au.save_automaton(au.minimize(want), "d")
                if trimmed and not infinite:
                    assert au.save_automaton(got, "d") == au.save_automaton(want, "d")
    with pytest.raises(CannotProject):
        au.projection_graph(a, arity)


def _dense_nfa(rng, arity, n_states):
    """An NFA over AB in which about half the (state, letter) pairs have
    one or two targets, so runs keep sets of states.  Each state r but 0
    is given the tapes its entering letters pad, and a move q -> r needs
    r's padded tapes to include q's, so the padding invariant holds by
    construction."""
    full = (1 << arity) - 1
    padded = [0] + [rng.choice([0, 0, 0, *range(1, full)]) for _ in range(n_states - 1)]
    trans = []
    for q in range(n_states):
        for letter in itertools.product(AB + (au.PAD,), repeat=arity):
            mask = sum(1 << i for i, s in enumerate(letter) if s == au.PAD)
            fits = [r for r in range(n_states) if padded[r] == mask and padded[r] & padded[q] == padded[q]]
            if mask != full and fits and rng.random() < 0.5:
                trans += [(q, letter, r) for r in rng.sample(fits, min(len(fits), rng.randint(1, 2)))]
    accepting = {q for q in range(n_states) if rng.random() < 0.3}
    return au.automaton(arity, AB, n_states, 0, accepting, trans)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_subset_constructions_match_the_frozenset_reference(seed, trimmed):
    # every set of states is a sorted tuple with one merged row; keyed by
    # frozensets, with each image computed per letter, the difference, the
    # reversal and the cube search give the same bytes and answers.  The
    # operands are NFAs of up to 12 states, so a set holding a state past 7
    # does not iterate in sorted order by chance, and projection graphs,
    # whose single states' rows are read bare
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    shape = trim if trimmed else (lambda x: x)
    a, c, wide = shape(_dense_nfa(rng, 2, n)), shape(_dense_nfa(rng, 2, n)), shape(_dense_nfa(rng, 3, n))
    unary, binary = shape(_dense_nfa(rng, 1, n)), shape(_dense_nfa(rng, 2, n))
    for b in (c, au.projection_graph(wide, rng.randrange(3))):
        want = reference_difference(a, b)
        assert au.save_automaton(au.difference(a, b), "d") == au.save_automaton(want, "d")
        assert au.is_subset(a, b) == au.is_empty(want)
        for x in (a, b):
            assert au.save_automaton(au._reverse_subsets(x), "r") == au.save_automaton(reference_reverse_subsets(x), "r")
    for domain in (unary, au.projection_graph(binary, rng.randrange(2))):
        for rel in (unary, a, wide):
            assert au.is_subset_of_cube(rel, domain) == reference_is_subset_of_cube(rel, domain)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]), st.booleans())
def test_project_and_permute_tapes_save_the_textbook_bytes(seed, arity, dense):
    # the projection numbered as the textbook construction numbers it, each
    # state with its own relabelled moves in the operand's letter order and
    # the acceptance of its ε-closure, and a permutation as its letters
    # mapped one by one: the same bytes for ∃ and ∃^∞, on trimmed and
    # untrimmed NFAs whose rows hold ties among one letter's targets
    rng = random.Random(seed)
    a = _dense_nfa(rng, arity, rng.randint(3, 8)) if dense else (_random_nfa2(rng) if arity == 2 else _random_nfa3(rng))
    for operand in (a, trim(a)):
        for tape in range(arity):
            for infinite in (False, True):
                got = au.save_automaton(au.project(operand, tape, infinite), "p")
                assert got == au.save_automaton(reference_project(operand, tape, infinite), "p")
        perm = rng.sample(range(arity), arity)

        def permuted(q):
            for letter, targets in operand._delta.get(q, {}).items():
                for r in targets:
                    yield tuple(letter[p] for p in perm), r

        want = reference_canonical(arity, AB, operand.initial, operand.accepting.__contains__, permuted)
        assert au.save_automaton(au.permute_tapes(operand, perm), "t") == au.save_automaton(want, "t")


def _bound_names(fn) -> set:
    """The names a function or lambda binds in its own scope: parameters,
    assignment and loop targets, imports, `except ... as` names and nested
    definitions.  Nested functions keep their bindings."""
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
    names = {a.arg for a in params}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        if isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unshadowed_reads(node, shadowed=frozenset()) -> set:
    """The bare names read under `node` that no binding of an enclosing
    function shadows."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _bound_names(node)
    reads = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
        reads.add(node.id)
    for child in ast.iter_child_nodes(node):
        reads |= _unshadowed_reads(child, shadowed)
    return reads


@functools.cache
def _reference_index(tree):
    """What a file's tree can refer to, read in one walk: the names each
    package module is imported as (`from . import module as alias`), every
    `name.attr` read, every `from module import name`, and for each
    top-level statement its unshadowed bare reads, with the name it
    defines if it is a function."""
    aliases, attributes, imports = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.add((getattr(node.value, "id", None), node.attr))
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imports.add((node.module, alias.name))
                if node.module in (None, "wob"):
                    aliases.setdefault(alias.name, set()).add(alias.asname or alias.name)
    reads = [
        (statement.name if isinstance(statement, ast.FunctionDef) else None, _unshadowed_reads(statement))
        for statement in tree.body
    ]
    return aliases, attributes, imports, reads


def _references(tree, module, name, own):
    """Whether a file's tree refers to the function `name` of the package
    module `module`: as `alias.name`, through `from ...module import name`,
    or, in the module itself (`own`), as a bare name no local binding
    shadows outside its own definition."""
    aliases, attributes, imports, reads = _reference_index(tree)
    if any((alias, name) in attributes for alias in aliases.get(module, ())):
        return True
    if (module, name) in imports or (f"wob.{module}", name) in imports:
        return True
    return own and any(name in names for defined, names in reads if defined != name)


# public functions no package code calls, kept because the acceptance gate
# (tests/test_acceptance.py) reads them and the gate is not edited to move them
GATE_ONLY = {
    "hopda.omega_squared_value",
    "pathology.rank_of_word",
    "recognition.predecessors",
    "tm.descent_witness",
}


def test_every_public_kernel_function_is_used():
    # the package holds what the package, its scripts and its benchmark call:
    # each public top-level function of every `src/wob/` module is referred
    # to by that code outside its own definition, or read by the acceptance
    # gate and listed in GATE_ONLY; test-only helpers live in conftest.py.
    # A same-named local, parameter or attribute of another object is no
    # reference.
    root = Path(__file__).resolve().parent.parent
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "scripts", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    public = [
        (path, n.name)
        for path, tree in trees.items()
        if path.parent == root / "src" / "wob"
        for n in tree.body
        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
    ]
    assert {"difference", "is_subset", "join", "recognize", "build_rpi"} <= {name for _, name in public}
    unused = [
        f"{module.stem}.{name}"
        for module, name in public
        if not any(_references(tree, module.stem, name, path == module) for path, tree in trees.items())
    ]
    assert sorted(unused) == sorted(GATE_ONLY)
    gate = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    assert all(_references(gate, *name.split("."), False) for name in GATE_ONLY)


def test_references_are_told_from_same_named_locals():
    # the three ways to refer to a function, and three look-alikes that are not
    tree = ast.parse(
        "from . import ordinals as o\n"
        "from .ordinals import show\n"
        "def parse(text):\n"
        "    return o.add(text) + helper(text)\n"
        "def helper(x):\n"
        "    return x\n"
        "def other(add, seen):\n"
        "    def inner(position):\n"
        "        return position + add\n"
        "    stack = [seen.add, inner]\n"
        "    return stack\n"
    )
    assert _references(tree, "ordinals", "add", False)
    assert _references(tree, "ordinals", "show", False)
    assert _references(tree, "m", "helper", True)
    assert not _references(tree, "m", "add", True)
    assert not _references(tree, "m", "position", True)
    assert not _references(tree, "m", "stack", True)
    assert not _references(tree, "m", "helper", False)


def _last_name(node):
    return getattr(node, "id", getattr(node, "attr", None))


_CONTAINERS = {"tuple", "list", "set", "frozenset", "Sequence", "Iterable", "Iterator"}


def _type_index(package, trees):
    """Types read from annotations: an annotation's types (a class name, or
    `*C` for a container of C; `Optional`, `Union` and `|` give several),
    each class of the `package` trees with the types of its annotated
    members (fields, and what methods and properties return), and the
    return types of each top-level function of `trees`, by name."""
    aliases = {}  # module-level `Name = Union[...]`

    def types(annotation):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            return aliases.get(_last_name(annotation), frozenset({_last_name(annotation)}))
        if isinstance(annotation, ast.BinOp):
            return types(annotation.left) | types(annotation.right)
        if isinstance(annotation, ast.Subscript):
            args = annotation.slice.elts if isinstance(annotation.slice, ast.Tuple) else [annotation.slice]
            if _last_name(annotation.value) in ("Optional", "Union"):
                return frozenset().union(*map(types, args))
            if _last_name(annotation.value) in _CONTAINERS:
                return frozenset("*" + t for t in types(args[0]) if not t.startswith("*"))
        return frozenset()

    for tree in package:
        for node in tree.body:
            if isinstance(node, ast.Assign) and _last_name(getattr(node.value, "value", None)) in ("Optional", "Union"):
                aliases[node.targets[0].id] = types(node.value)
    members, returns = {}, {}
    for tree in package:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                own = members.setdefault(cls.name, {})
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        own[stmt.target.id] = types(stmt.annotation)
                    if isinstance(stmt, ast.FunctionDef):
                        own[stmt.name] = types(stmt.returns)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                returns[node.name] = returns.get(node.name, frozenset()) | types(node.returns)
    return types, members, returns


def _owner_reads(tree, types, members, returns) -> set:
    """Each attribute read `x.attr` in `tree`, as (C, attr) for every class
    C of `members` that `x` may be an instance of.  `x` is resolved as the
    function guard resolves a module alias: through the enclosing class
    for a method's first parameter, annotated parameters and names, the
    names bound to a constructor call, an annotated call, a member or an
    element of an annotated container, and `isinstance` tests.  A read
    whose `x` resolves to nothing is no read of any field."""
    reads = set()

    def owners(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            return frozenset().union(*(members.get(c, {}).get(node.attr, ()) for c in owners(node.value, env)))
        if isinstance(node, ast.Subscript):
            return elements(owners(node.value, env))
        if isinstance(node, ast.Call):
            if _last_name(node.func) in members:
                return frozenset({_last_name(node.func)})
            method = owners(node.func, env) if isinstance(node.func, ast.Attribute) else ()
            return method or returns.get(_last_name(node.func), frozenset())
        return frozenset()

    def elements(got):
        return frozenset(t[1:] for t in got if t.startswith("*"))

    def bind(body, env):
        # a scope's names take the types of all they are bound to, found
        # again until nothing changes, so the statements' order is not read
        bindings, stack = [], list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                bindings.append((node.targets[0].id, lambda value=node.value: owners(value, env)))
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                env[node.target.id] = env.get(node.target.id, frozenset()) | types(node.annotation)
            if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name):
                bindings.append((node.target.id, lambda value=node.iter: elements(owners(value, env))))
            stack.extend(ast.iter_child_nodes(node))
        changed = True
        while changed:
            changed = False
            for name, resolve in bindings:
                got = env.get(name, frozenset()) | resolve()
                changed |= got != env.get(name, frozenset())
                env[name] = got
        return env

    def narrowed(test, env):
        # `isinstance(x, C)`, alone or in an `and`, makes x a C in the body
        env = dict(env)
        for t in test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) else [test]:
            if isinstance(t, ast.Call) and _last_name(t.func) == "isinstance" and isinstance(t.args[0], ast.Name):
                kinds = t.args[1].elts if isinstance(t.args[1], ast.Tuple) else [t.args[1]]
                env[t.args[0].id] = frozenset(map(_last_name, kinds))
        return env

    def visit(node, env, cls=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            env = {**env, **{a.arg: types(a.annotation) if a.annotation else frozenset() for a in params}}
            if cls is not None and params:
                env[params[0].arg] = frozenset({cls})
            body = node.body if isinstance(node.body, list) else [node.body]
            env = bind(body, env)
            for child in getattr(node, "decorator_list", []) + body:
                visit(child, env)
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                visit(child, env, node.name)
        elif isinstance(node, (ast.If, ast.IfExp)):
            visit(node.test, env)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, narrowed(node.test, env))
            for child in node.orelse if isinstance(node.orelse, list) else [node.orelse]:
                visit(child, env)
        else:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.update((c, node.attr) for c in owners(node.value, env))
            for child in ast.iter_child_nodes(node):
                visit(child, env)

    visit(tree, bind(tree.body, {}))
    return reads


def _is_dataclass(decorator):
    """A `record` or `dataclass` decorator."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return _last_name(target) in ("record", "dataclass")


def _fields(tree):
    """(class, field) for each field of each record or dataclass of `tree`."""
    return [
        (cls.name, stmt.target.id)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(_is_dataclass(d) for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


# record fields no code reads, kept because perfbench/workloads.py passes
# them and perfbench is not edited to drop them
BENCH_ONLY_FIELDS = {"tm.RpiStructure.pi_tag"}


def test_every_dataclass_field_is_read():
    # a field is a value someone can set: each field of a record in
    # `src/wob/` is read as an attribute of an instance of its own class
    # by the package, its scripts, its benchmark or its tests, or listed in
    # BENCH_ONLY_FIELDS; a read of a same-named attribute on an object of
    # another class, or on one whose class is not resolved, does not count
    root = Path(__file__).resolve().parent.parent
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "scripts", "perfbench", "tests")
        for path in sorted((root / folder).rglob("*.py"))
    }
    package = [tree for path, tree in trees.items() if path.parent == root / "src" / "wob"]
    index = _type_index(package, trees.values())
    reads = set().union(*(_owner_reads(tree, *index) for tree in trees.values()))
    fields = [
        (f"{path.stem}.{cls}", cls, name)
        for path, tree in trees.items()
        if path.parent == root / "src" / "wob"
        for cls, name in _fields(tree)
    ]
    assert {("automata.Automaton", "_delta"), ("logic.Structure", "relations"), ("hopda.HopdaSpec", "states")} <= {
        (owner, name) for owner, _cls, name in fields
    }
    unread = {f"{owner}.{name}" for owner, cls, name in fields if (cls, name) not in reads}
    assert unread == BENCH_ONLY_FIELDS


def test_field_reads_are_told_by_owner():
    # `Table.name` is read only on objects of other classes or of no known
    # class; each way a read resolves to its owner counts once
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import Optional, Union\n"
        "@dataclass\n"
        "class Spec:\n"
        "    name: str\n"
        "    size: int\n"
        "    parts: tuple[Part, ...]\n"
        "@dataclass\n"
        "class Part:\n"
        "    name: str\n"
        "    weight: int\n"
        "@dataclass\n"
        "class Table:\n"
        "    fs: object\n"
        "    name: str\n"
        "    rows: int\n"
        "    def width(self) -> int:\n"
        "        return self.fs\n"
        "Either = Union[Spec, Part]\n"
        "def load(text) -> Optional[Spec]:\n"
        "    return None\n"
        "def report(spec: Spec, anything, t: 'Table', e: Either):\n"
        "    got = load(spec.name)\n"
        "    heaviest = max(p.weight for p in got.parts)\n"
        "    if isinstance(anything, Part):\n"
        "        print(anything.name, e.size)\n"
        "    return anything.name, anything.rows, Table(1, 2, 3).width(), heaviest\n"
    )
    reads = _owner_reads(tree, *_type_index([tree], [tree]))
    fields = {(cls, name) for cls, name in _fields(tree)}
    assert fields - reads == {("Table", "name"), ("Table", "rows")}
    assert {("Spec", "name"), ("Part", "weight"), ("Part", "name"), ("Spec", "size"), ("Table", "fs")} <= reads
    assert ("Part", "size") in reads  # `e` may be either class


def test_no_function_takes_a_state_budget():
    # the state budget is one scoped value, set only by `au.state_budget`,
    # that every construction and every machine run reads: no function of
    # these modules takes a budget, and a run has no step cap of its own.
    # The hopda and fgh caps count configurations, vertices and steps, and
    # keep their own parameters
    from wob import fgh
    from wob import hopda as ho

    root = Path(__file__).resolve().parent.parent / "src" / "wob"
    trees = {name: ast.parse((root / f"{name}.py").read_text(encoding="utf-8"))
             for name in ("automata", "logic", "recognition", "pathology", "tm", "corpus", "cli")}
    takers = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} & {"budget", "state_budget", "max_states"}
    ]
    assert takers == []
    assert "MAX_STEPS" not in {node.id for node in ast.walk(trees["tm"]) if isinstance(node, ast.Name)}
    halts = [
        path.name
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "did not halt" in node.value
    ]
    assert halts == []
    assert [inspect.signature(fn).parameters["budget"].default for fn in (ho.run_word, ho.config_graph, ho.unfold)] == [
        10 ** 4, 1000, 1000]
    assert fgh.Budget() == fgh.Budget(max_value=10 ** 6, max_steps=10 ** 6)


def test_the_kernel_tests_the_budget_in_two_loops():
    # every key a construction numbers goes through `_numbering`'s row fill,
    # and the one early-exit search counts its own: those two functions, and
    # no other in the kernel, raise StateBudgetExceeded
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "wob" / "automata.py").read_text(encoding="utf-8"))

    def raisers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from raisers(child, child.name)
            else:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "StateBudgetExceeded":
                    yield owner
                yield from raisers(child, owner)

    assert sorted(raisers(tree, None)) == ["_reaches_acceptance", "fill"]


def test_graphs_come_from_two_constructions():
    # an unnumbered graph is a search's rows, a product's, a projection's
    # or a difference's: a second scan that builds a graph of its own,
    # beside the one move description each of those has, does not come back
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "wob" / "automata.py").read_text(encoding="utf-8"))

    def makers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from makers(child, child.name)
            else:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "_Graph":
                    yield owner
                yield from makers(child, owner)

    assert sorted(set(makers(tree, None))) == ["difference_graph", "join_graph", "projection_graph"]
