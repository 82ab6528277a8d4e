import itertools

import pytest

from conftest import minimal_elements, position
from wob import automata as au
from wob import fgh
from wob import ordinals as o
from wob import pathology as pa
from wob import recognition as rec
from wob.errors import IllFormedSystem, PredicateDiverged, StateBudgetExceeded, WobError
from wob.fgh import Budget, eval_F, eval_at_least
from wob.pathology import (
    KreiselOrder,
    OmegaPlusOneSpec,
    TOP,
    except_value,
    find_descent,
    kreisel_as_automatic,
    kreisel_compare,
    minimal_members,
    omega_plus_one_system,
    power_of_two_spec,
    rank_of_word,
    regular_except_word,
    regular_true,
    regular_empty,
    slow_inverse,
    tail_set,
    word_of_rank,
    always_true,
)


# independent transcription of the displayed formula, for the expected tables
def ref_precedes(pi0, x, y, bound=lambda v: v):
    return (x < y and all(pi0(z) for z in range(bound(x)))) or (
        y < x and any(not pi0(z) for z in range(bound(y)))
    )


def test_rank_bijection():
    words = [(), ("0",), ("1",), ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    for n, w in enumerate(words):
        assert word_of_rank(n) == w
        assert rank_of_word(w) == n
    for n in range(200):
        assert rank_of_word(word_of_rank(n)) == n


def test_true_pi0_agrees_with_base_order():
    k = KreiselOrder(pi0=always_true())
    for x, y in itertools.product(range(12), repeat=2):
        if x == y:
            assert kreisel_compare(k, x, y) == "equal"
        else:
            assert (kreisel_compare(k, x, y) == "less") == (x < y)


def test_planted_witness_matches_reference_table():
    pi0 = lambda z: z != 2
    k = KreiselOrder(pi0=except_value(2))
    for x, y in itertools.product(range(8), repeat=2):
        if x == y:
            continue
        want_less = ref_precedes(pi0, x, y)
        want_greater = ref_precedes(pi0, y, x)
        assert want_less != want_greater, "reference order must be total"
        got = kreisel_compare(k, x, y)
        assert got == ("less" if want_less else "greater")


def test_witness_pair_example():
    # witness 2, pair (3,5): the first disjunct of 3 < 5 fails at z=2, while
    # 5 < 3 holds via the witness below 3; the literal formula puts 5 first
    k = KreiselOrder(pi0=except_value(2))
    assert ref_precedes(lambda z: z != 2, 5, 3)
    assert not ref_precedes(lambda z: z != 2, 3, 5)
    assert kreisel_compare(k, 3, 5) == "greater"
    assert kreisel_compare(k, 5, 3) == "less"


def test_trichotomy_over_predicates():
    preds = [always_true(), except_value(0), except_value(2), except_value(5)]
    for p in preds:
        k = KreiselOrder(pi0=p)
        for x, y in itertools.product(range(10), repeat=2):
            results = [kreisel_compare(k, x, y), kreisel_compare(k, y, x)]
            if x == y:
                assert results == ["equal", "equal"]
            else:
                assert sorted(results) == ["greater", "less"]


def test_g_variant_agrees_when_bounds_cover_witness():
    f = lambda n: 2 ** n
    g = slow_inverse(f)
    pi0 = lambda z: z != 2
    k_plain = KreiselOrder(pi0=except_value(2))
    k_slow = KreiselOrder(pi0=except_value(2), g=g)
    for x, y in itertools.product(range(8), repeat=2):
        if x == y:
            continue
        # whenever both bounds already cover the witness region the two
        # variants agree
        if g(x) > 2 and g(y) > 2:
            assert kreisel_compare(k_plain, x, y) == kreisel_compare(k_slow, x, y)


def test_find_descent_none_for_true_pi0():
    k = KreiselOrder(pi0=always_true())
    for start in [0, 3, 10]:
        assert find_descent(k, start, 5) is None


def test_find_descent_chain_above_witness():
    k = KreiselOrder(pi0=except_value(2))
    chain = find_descent(k, 10, 5)
    assert chain == [10, 11, 12, 13, 14]
    # verify each step against the literal formula
    for a, b in zip(chain, chain[1:]):
        assert kreisel_compare(k, b, a) == "less"


def test_find_descent_length_20():
    k = KreiselOrder(pi0=except_value(2))
    chain = find_descent(k, 10, 20)
    assert chain is not None and len(chain) == 20


def test_find_descent_slow_inverse_starts_at_f_of_witness():
    f = lambda n: 2 ** n
    k = KreiselOrder(pi0=except_value(2), g=slow_inverse(f))
    # witness m=2: the inverted region starts around f(2)=4: g(x) > 2 iff x >= 4
    assert find_descent(k, 4, 6) == [4, 5, 6, 7, 8, 9]
    assert find_descent(k, 1, 4) is None


def test_predicate_diverged():
    def bad(z):
        raise RuntimeError("boom")

    k = KreiselOrder(pi0=pa.PiPredicate(fn=bad))
    with pytest.raises(PredicateDiverged):
        kreisel_compare(k, 1, 2)


# -- automatic constructions --------------------------------------------------


def test_automatic_true_pi0_recognizes_omega():
    s = kreisel_as_automatic(regular_true())
    got = rec.recognize(rec.OrderPresentation(s))
    assert got == rec.WellOrder(o.OMEGA)


def test_kreisel_as_automatic_runs_under_the_budget_its_caller_sets():
    # the compile sets no budget of its own: the caller's block is in force.
    # With pi_0 false everywhere, the minimal order fits 6 states but its
    # compile does not
    with pytest.raises(StateBudgetExceeded) as exc, au.state_budget(6):
        kreisel_as_automatic(regular_empty())
    assert (exc.value.n_states, exc.value.budget) == (7, 6)


def test_automatic_order_matches_integer_model():
    s = kreisel_as_automatic(regular_except_word(("1", "1")))
    rel = s.relations["<"]
    witness_rank = rank_of_word(("1", "1"))
    pi0 = lambda z: z != witness_rank
    for x, y in itertools.product(range(14), repeat=2):
        if x == y:
            continue
        want = ref_precedes(pi0, x, y)
        assert rel.accepts(word_of_rank(x), word_of_rank(y)) == want


def test_automatic_false_pi0_not_well_order_with_descent_crosscheck():
    s = kreisel_as_automatic(regular_except_word(("1", "1")))
    got = rec.recognize(rec.OrderPresentation(s))
    assert isinstance(got, rec.NotWellOrder)
    assert isinstance(got.evidence, rec.BadCondensationClass)
    # cross-check with find_descent in the integer model
    witness_rank = rank_of_word(("1", "1"))
    k = KreiselOrder(pi0=except_value(witness_rank))
    chain = find_descent(k, witness_rank + 1, 8)
    assert chain is not None
    rel = s.relations["<"]
    for a, b in zip(chain, chain[1:]):
        assert rel.accepts(word_of_rank(b), word_of_rank(a))


def test_automatic_empty_pi0_reversed_above_least_witness():
    # pi_0 = empty: witness is rank 0, so everything above rank 0 is inverted
    s = kreisel_as_automatic(regular_empty())
    got = rec.recognize(rec.OrderPresentation(s))
    assert isinstance(got, rec.NotWellOrder)
    rel = s.relations["<"]
    # epsilon is the least element; above it the base order is reversed
    assert rel.accepts((), ("1", "0"))
    assert rel.accepts(("1",), ("0",))  # rank 2 < rank 1 in the reordering


def test_definable_tail_has_no_minimum():
    s = kreisel_as_automatic(regular_except_word(("1", "1")))
    witness_rank = rank_of_word(("1", "1"))  # rank 6
    tail = tail_set(s, word_of_rank(witness_rank))
    mins = minimal_members(s, tail)
    assert au.is_empty(mins)
    # fragment evidence: every member of length <= 8 has a smaller member
    rel = s.relations["<"]
    members = [w[0] for w in au.count_or_enumerate(tail, 600)]
    short = [w for w in members if len(w) <= 8]
    assert short
    for w in short[:40]:
        assert any(rel.accepts(u, w) for u in members if u != w)


def test_definable_tail_with_true_pi0_has_minimum():
    s = kreisel_as_automatic(regular_true())
    tail = tail_set(s, word_of_rank(6))
    mins = minimal_members(s, tail)
    got = au.count_or_enumerate(mins, 3)
    assert [w[0] for w in got] == [word_of_rank(7)]


@pytest.mark.parametrize("pi0", [regular_true(), regular_except_word(("1", "1"))], ids=["true", "witness"])
def test_minimal_members_searches_the_difference_it_minimizes(pi0):
    # the dominated members are subtracted in a searched difference graph,
    # never numbered, and minimized to the bytes of the built difference
    s = kreisel_as_automatic(pi0)
    for rank in range(9):
        tail = tail_set(s, word_of_rank(rank))
        want = au.minimize(minimal_elements(s.relations["<"], tail))
        assert au.save_automaton(minimal_members(s, tail), "m") == au.save_automaton(want, "m"), rank


# -- Prop 2: omega+1 with inflated F_omega ------------------------------------


def test_spec_validation():
    with pytest.raises(IllFormedSystem):
        OmegaPlusOneSpec(f=lambda n: -n, cost=lambda n: 1, step_bound=lambda m: m)
    with pytest.raises(IllFormedSystem):
        # unsound step bound: cost huge but f tiny
        OmegaPlusOneSpec(f=lambda n: 1, cost=lambda n: 10 ** 9, step_bound=lambda m: m)


def test_omega_plus_one_contract():
    spec = power_of_two_spec()
    ns = omega_plus_one_system(spec)
    assert ns.is_zero((0, 1))
    assert ns.is_limit(TOP)
    assert not ns.is_limit((3, 0))
    # fs below the limit and strictly increasing
    prev = None
    for n in range(6):
        v = ns.fs(TOP, n)
        assert ns.compare(v, TOP) < 0
        if prev is not None:
            assert ns.compare(prev, v) < 0
        prev = v


def test_predecessor_chain_length():
    spec = power_of_two_spec()
    ns = omega_plus_one_system(spec)
    for n in range(4):
        chain = [(n, 0)]
        while not ns.is_zero(chain[-1]) and chain[-1][0] == n:
            nxt = ns.pred(chain[-1])
            if nxt[0] != n:
                break
            chain.append(nxt)
        assert len(chain) == spec.f(n) + 1


def test_position_formula():
    spec = power_of_two_spec()
    for x in range(5):
        assert position(spec, (x, 0)) == x + sum(spec.f(y) for y in range(x + 1))


def test_membership_scheme():
    spec = power_of_two_spec()
    ns = omega_plus_one_system(spec)
    contains = lambda n, m: (spec.cost(n) > spec.step_bound(m)) or m <= spec.f(n)
    for n in range(6):
        for m in range(20):
            # members are exactly the pairs with m <= f(n): the timeout branch
            # only ever admits sound members
            assert contains(n, m) == (m <= spec.f(n))


def test_f_omega_dominates_f():
    spec = power_of_two_spec()
    ns = omega_plus_one_system(spec)
    for x in [1, 2, 3]:
        ok, exact = eval_at_least(ns, TOP, x, spec.f(x), max_steps=10 ** 6)
        assert ok, f"F_omega({x}) >= {spec.f(x)} not certified"
    # x=1 is small enough to evaluate exactly: F_omega(1) = 2 = f(1)
    assert eval_F(ns, TOP, 1, Budget(max_value=10 ** 6, max_steps=10 ** 6)) == 2


def test_prop2_system_plugs_into_dominates():
    spec = power_of_two_spec()
    ns = omega_plus_one_system(spec)
    std = fgh.standard_system()
    report = fgh.dominates_at(std, o.from_int(0), ns, TOP, [1, 2, 3],
                              Budget(max_value=10 ** 9, max_steps=10 ** 6))
    # at x=1 every level collapses to a single successor application
    assert [pt.verdict for pt in report.points] == ["eq", "lt", "lt"]
