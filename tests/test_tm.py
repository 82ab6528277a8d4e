import hashlib
import itertools
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_delta_is_reference,
    convolve,
    empty_machine,
    parse_configuration,
    reference_initial_configuration,
    reference_serialize,
    reference_step,
    reference_step_graph,
    run,
)
from wob import automata as au
from wob import pathology as pa
from wob import tm as T
from wob.errors import InvalidTm, NotReversible, StateBudgetExceeded, WobError
from wob.logic import Structure
from wob.tm import (
    Configuration,
    build_rpi,
    bounded_wf_check,
    check_reversible,
    collision_machine,
    copy_machine,
    descent_witness,
    emb_path,
    explore_fragment,
    increment_machine,
    initial_configuration,
    kreisel_comparator,
    parse_tm,
    run_words,
    save_tm,
    step,
    step_relation_automaton,
    tag_config,
    tag_word,
)


def all_valid_configs(tm, max_cols, canonical_only=True):
    """Every syntactically valid configuration with at most max_cols columns."""
    out = []
    per_tape = tm.tape_cells
    for ncols in range(1, max_cols + 1):
        cell_choices = []
        for j in range(ncols):
            if j == 0:
                cell_choices.append([(T.MARKER,) * tm.tapes])
            else:
                pools = [[c for c in per_tape[i] if c != T.MARKER] for i in range(tm.tapes)]
                cell_choices.append(list(itertools.product(*pools)))
        for cols in itertools.product(*cell_choices):
            for heads in itertools.product(range(ncols), repeat=tm.tapes):
                for q in tm.states:
                    c = Configuration(q, cols, heads)
                    if canonical_only and not T.is_canonical(tm, c):
                        continue
                    out.append(c)
    return out


def test_serialize_roundtrip():
    tm = increment_machine()
    for c in all_valid_configs(tm, 3):
        assert parse_configuration(tm, c.serialize(tm)) == c


def test_simulator_increment():
    tm = increment_machine()
    for n in range(5):
        trace, accepted = run(tm, [("a",) * n])
        assert accepted
        final = trace[-1]
        # one more 'a' than the input on the tape
        cells = [col[0] for col in final.columns]
        assert cells.count("a") == n + 1


def assert_steps_match_simulator(tm, max_cols) -> int:
    """Every canonical configuration pair with at most max_cols columns,
    exhaustively: the step automaton accepts exactly the simulator's steps.
    Returns how many of the configurations have a successor."""
    aut = step_relation_automaton(tm)
    universe = all_valid_configs(tm, max_cols)
    words = {c: c.serialize(tm) for c in universe}
    serialized = set(map(tuple, words.values()))
    by_word = {tuple(w): c for c, w in words.items()}
    stepping = 0
    for c in universe:
        expected = step(tm, c)
        stepping += expected is not None
        for w2 in serialized:
            c2 = by_word[w2]
            want = expected is not None and c2 == expected
            got = aut.accepts_letters(convolve([words[c], list(w2)]))
            assert got == want, (c, c2)
    return stepping


def test_step_automaton_exhaustive_against_simulator():
    assert_steps_match_simulator(increment_machine(), 4)


def bounce_machine():
    """One tape: run right over a's, write b at the blank, walk left to the
    marker."""
    M = T.MARKER
    trans = {
        ("go", (M,)): ("go", ((M, "R"),)),
        ("go", ("a",)): ("go", (("a", "R"),)),
        ("go", ("_",)): ("back", (("b", "L"),)),
        ("back", ("a",)): ("back", (("a", "L"),)),
        ("back", (M,)): ("done", ((M, "R"),)),
    }
    return T.TmSpec(name="bounce", tapes=1, blank="_", states=("go", "back", "done"),
                    accepting=frozenset({"done"}), transitions=trans)


def split_machine():
    """Two tapes: both heads run right over the a's of tape 1, then head 1
    walks back to the marker while head 2 keeps going right, writing b's;
    the turn and the walk move one head L and the other R in one step."""
    M = T.MARKER
    trans = {
        ("go", (M, M)): ("go", ((M, "R"), (M, "R"))),
        ("go", ("a", "_")): ("go", (("a", "R"), ("_", "R"))),
        ("go", ("_", "_")): ("back", (("_", "L"), ("_", "R"))),
        ("back", ("a", "_")): ("back", (("a", "L"), ("b", "R"))),
        ("back", (M, "_")): ("done", ((M, "R"), ("_", "R"))),
    }
    return T.TmSpec(name="split", tapes=2, blank="_", states=("go", "back", "done"),
                    accepting=frozenset({"done"}), transitions=trans)


def swap_machine():
    """Two tapes whose heads move together: each step swaps the a and b
    under them, so both heads rewrite one column."""
    M = T.MARKER
    trans = {
        ("go", (M, M)): ("go", ((M, "R"), (M, "R"))),
        ("go", ("a", "b")): ("go", (("b", "R"), ("a", "R"))),
        ("go", ("b", "a")): ("go", (("a", "R"), ("b", "R"))),
    }
    return T.TmSpec(name="swap", tapes=2, blank="_", states=("go",), accepting=frozenset(), transitions=trans)


@pytest.mark.parametrize("tm, max_cols", [
    (increment_machine(), 4), (copy_machine(), 3), (collision_machine(), 3), (bounce_machine(), 4),
    (split_machine(), 3), (swap_machine(), 3), (kreisel_comparator(True), 2), (kreisel_comparator(False), 2),
], ids=lambda v: getattr(v, "name", str(v)))
def test_step_matches_the_full_copy_simulator(tm, max_cols):
    # the step automaton is tested against `step`, so `step` is tested
    # against the simulator that rebuilt every column
    shared = 0  # steps on which two heads write one column
    for c in all_valid_configs(tm, max_cols, canonical_only=False):
        got = step(tm, c)
        assert got == reference_step(tm, c), c
        shared += got is not None and len(set(c.heads)) < tm.tapes
    assert shared or tm.tapes == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_initial_configuration_matches_the_cell_by_cell_build(data):
    # the marker column and one zip of the inputs, padded with the blank,
    # give the configuration the three-branch build gave
    tm = data.draw(st.sampled_from([increment_machine(), copy_machine(), kreisel_comparator(False)]))
    symbols = sorted(set().union(*tm.tape_cells) - {T.MARKER, tm.blank}) or ["a"]
    words = data.draw(st.lists(st.text(alphabet=symbols, max_size=6), min_size=tm.tapes, max_size=tm.tapes))
    assert initial_configuration(tm, words) == reference_initial_configuration(tm, words)
    with pytest.raises(InvalidTm):
        initial_configuration(tm, words + [""])


def test_step_composes_two_writes_to_one_column():
    tm = swap_machine()
    c = Configuration("go", ((T.MARKER,) * 2, ("a", "b")), (1, 1))
    want = Configuration("go", ((T.MARKER,) * 2, ("b", "a"), ("_", "_")), (2, 2))
    assert step(tm, c) == reference_step(tm, c) == want
    assert step(tm, c).columns[0] is c.columns[0]  # a column no head writes is not copied


def test_step_automaton_exhaustive_on_a_left_mover():
    tm = bounce_machine()
    assert len(all_valid_configs(tm, 4)) == 324
    assert assert_steps_match_simulator(tm, 4) == 135


def test_step_automaton_exhaustive_on_opposite_moves():
    tm = split_machine()
    assert len(all_valid_configs(tm, 3)) == 432
    assert assert_steps_match_simulator(tm, 3) == 80


def _step_oracle_machines():
    """The bundled machines, the two left movers and every corpus machine,
    each distinct spec once (the corpus files are saved bundled machines)."""
    machines_dir = Path(__file__).resolve().parent.parent / "corpus" / "machines"
    corpus_tms = [parse_tm(p.read_text(encoding="utf-8")) for p in sorted(machines_dir.glob("*.tm"))]
    machines = {}
    for tm in [increment_machine(), copy_machine(), kreisel_comparator(False), kreisel_comparator(True),
               bounce_machine(), split_machine(), *corpus_tms]:
        machines.setdefault(save_tm(tm), tm)
    return list(machines.values())


@pytest.mark.parametrize("tm", _step_oracle_machines(), ids=lambda tm: tm.name)
def test_step_automaton_matches_reference(tm):
    got = au.save_automaton(step_relation_automaton(tm), "S")
    want = au.save_automaton(au.build(2, tm.config_alphabet, *reference_step_graph(tm)), "S")
    assert got == want


def cross_machine():
    """Two tapes: the heads part from one column, meet again and cross,
    head 1 ending right of head 2."""
    M = T.MARKER
    trans = {
        ("p", (M, M)): ("p", ((M, "R"), (M, "R"))),
        ("p", ("a", "a")): ("q", (("a", "L"), ("b", "R"))),
        ("q", (M, "a")): ("r", ((M, "R"), ("a", "L"))),
        ("r", ("a", "b")): ("s", (("b", "R"), ("b", "L"))),
    }
    return T.TmSpec(name="cross", tapes=2, blank="_", states=("p", "q", "r", "s"),
                    accepting=frozenset({"s"}), transitions=trans)


def retreat_machine():
    """Two tapes whose heads stay on one column: they run right over
    (a, a) columns, write (b, b) at the blanks and walk back together, L,
    into the marker column."""
    M = T.MARKER
    trans = {
        ("go", (M, M)): ("go", ((M, "R"), (M, "R"))),
        ("go", ("a", "a")): ("go", (("a", "R"), ("a", "R"))),
        ("go", ("_", "_")): ("back", (("b", "L"), ("b", "L"))),
        ("back", ("a", "a")): ("back", (("a", "L"), ("a", "L"))),
        ("back", (M, M)): ("done", ((M, "R"), (M, "R"))),
    }
    return T.TmSpec(name="retreat", tapes=2, blank="_", states=("go", "back", "done"),
                    accepting=frozenset({"done"}), transitions=trans)


@st.composite
def small_machines(draw):
    """1-2 tapes over a, b and the blank, both moves; a transition reading
    the marker rewrites it and moves right, and none writes it elsewhere."""
    tapes = draw(st.integers(1, 2))
    states = ("p", "q", "r")[: draw(st.integers(1, 3))]
    cells = (T.MARKER, "_", "a", "b")
    sources = st.tuples(st.sampled_from(states), st.tuples(*[st.sampled_from(cells)] * tapes))
    transitions = {}
    for q, reads in draw(st.lists(sources, unique=True, max_size=6)):
        actions = tuple(
            (T.MARKER, "R") if r == T.MARKER else (draw(st.sampled_from(cells[1:])), draw(st.sampled_from("LR")))
            for r in reads
        )
        transitions[(q, reads)] = (draw(st.sampled_from(states)), actions)
    accepting = draw(st.frozensets(st.sampled_from(states)))
    return T.TmSpec(name="random", tapes=tapes, blank="_", states=states, accepting=accepting, transitions=transitions)


@settings(max_examples=60, deadline=None)
@given(small_machines())
def test_step_automaton_matches_reference_on_random_machines(tm):
    got = au.save_automaton(step_relation_automaton(tm), "S")
    want = au.save_automaton(au.build(2, tm.config_alphabet, *reference_step_graph(tm)), "S")
    assert got == want


def test_step_automaton_rejects_noncanonical_sources():
    tm = increment_machine()
    aut = step_relation_automaton(tm)
    for c in all_valid_configs(tm, 4, canonical_only=False):
        if T.is_canonical(tm, c):
            continue
        expected = step(tm, c)
        if expected is None:
            continue
        assert not aut.accepts(c.serialize(tm), expected.serialize(tm))


def test_step_automaton_growth_case():
    tm = increment_machine()
    aut = step_relation_automaton(tm)
    c = initial_configuration(tm, [("a",)])  # > a ; head on the a
    c2 = step(tm, c)
    c3 = step(tm, c2)
    assert len(c3.columns) == len(c2.columns) + 1  # grew a column
    assert aut.accepts(c2.serialize(tm), c3.serialize(tm))
    assert not aut.accepts(c2.serialize(tm), c2.serialize(tm))


def test_halted_configuration_has_no_successor():
    tm = increment_machine()
    trace, _ = run(tm, [("a",)])
    final = trace[-1]
    assert step(tm, final) is None
    aut = step_relation_automaton(tm)
    for c in all_valid_configs(tm, len(final.columns) + 1):
        assert not aut.accepts(final.serialize(tm), c.serialize(tm))


def test_no_self_loops():
    tm = increment_machine()
    aut = step_relation_automaton(tm)
    for c in all_valid_configs(tm, 3):
        assert not aut.accepts(c.serialize(tm), c.serialize(tm))


def test_copy_machine_runs_and_is_reversible():
    tm = copy_machine()
    assert check_reversible(tm) is None
    trace, accepted = run(tm, [("a", "b", "a"), ()])
    assert accepted
    final = trace[-1]
    tape2 = [col[1] for col in final.columns]
    assert tape2[:5] == [">", "a", "b", "a", "_"]


# SHA-256 of save_automaton(step_relation_automaton(copy_machine()), "S")
COPY_STEP_SHA256 = "a6c34956d27816069575571b47a6c7c4f70b14f5246af8b323fbb9c11df51ed2"


def test_copy_machine_step_automaton_on_runs():
    tm = copy_machine()
    aut = step_relation_automaton(tm)
    saved = au.save_automaton(aut, "S").encode("utf-8")
    assert hashlib.sha256(saved).hexdigest() == COPY_STEP_SHA256
    for word in [(), ("a",), ("b", "a")]:
        trace, _ = run(tm, [word, ()])
        for c, c2 in zip(trace, trace[1:]):
            assert aut.accepts(c.serialize(tm), c2.serialize(tm))
        # mutated pairs are rejected
        for c, c2 in zip(trace, trace[1:]):
            bad = Configuration(c2.state, c2.columns, tuple((h + 1) % len(c2.columns) for h in c2.heads))
            if bad != c2:
                assert not aut.accepts(c.serialize(tm), bad.serialize(tm))


def test_collision_reported():
    got = check_reversible(collision_machine())
    assert got is not None
    ((q1, _), _), ((q2, _), _) = got
    assert {q1, q2} == {"s", "t"}


def test_empty_machine_reversible():
    assert check_reversible(empty_machine()) is None


def test_backward_determinism_on_fragment():
    # exhaustive backward check: every canonical configuration has at most
    # one canonical predecessor (copy machine)
    tm = copy_machine()
    universe = all_valid_configs(tm, 3)
    preds = {}
    for c in universe:
        c2 = step(tm, c)
        if c2 is not None:
            preds.setdefault(c2, []).append(c)
    bad = {k: v for k, v in preds.items() if len(v) > 1}
    assert not bad, bad


def test_comparator_true_accepts_llex():
    tm = kreisel_comparator(false_pi=False)
    assert check_reversible(tm) is None
    words = [tuple(b) for n in range(4) for b in itertools.product("01", repeat=n)]
    for x in words:
        for y in words:
            _, accepted = run(tm, [x, y, ()])
            assert accepted == ((len(x), x) < (len(y), y)), (x, y)


def test_comparator_false_matches_pathology_model():
    tm = kreisel_comparator(false_pi=True)
    assert check_reversible(tm) is None
    k = pa.KreiselOrder(pi0=pa.PiPredicate(fn=lambda z: False))
    words = [tuple(b) for n in range(4) for b in itertools.product("01", repeat=n)]
    for x in words:
        for y in words:
            _, accepted = run(tm, [x, y, ()])
            want = k.precedes(pa.rank_of_word(x), pa.rank_of_word(y))
            assert accepted == want, (x, y)


import functools


@functools.lru_cache(maxsize=None)
def rpi_for(false_pi) -> T.RpiStructure:
    tag = "pi0=empty" if false_pi else "pi0=true"
    return build_rpi(kreisel_comparator(false_pi), pi_tag=tag)


# SHA-256 of save_automaton(rpi_for(False).relation, "R"): 1,746 states, 106,037 transitions
RPI_TRUE_RELATION_SHA256 = "db5f657111c4ade0e5088ab349277d33ef7b6974c9da9c1cee0c690417c3d4bd"
# SHA-256 of save_automaton(rpi_for(False).domain, "D"); the domain does not depend on pi
RPI_DOMAIN_SHA256 = "69d428f291e639044f816004c0be034e869467f0af95064b65a685c849e68f39"
# SHA-256 of save_automaton(rpi_for(True).relation, "R")
RPI_FALSE_RELATION_SHA256 = "42513292d4b1ed5134866d212cc8b4f5f81f590682ea5e2d76586ee38c219c2e"


def test_build_rpi_true_wf():
    rpi = rpi_for(False)
    saved = au.save_automaton(rpi.relation, "R").encode("utf-8")
    assert hashlib.sha256(saved).hexdigest() == RPI_TRUE_RELATION_SHA256
    saved = au.save_automaton(rpi.domain, "D").encode("utf-8")
    assert hashlib.sha256(saved).hexdigest() == RPI_DOMAIN_SHA256
    frag = explore_fragment(rpi, word_len=4, run_input_len=2)
    assert bounded_wf_check(rpi, frag) is None
    # in/out degree at most 1 within the machine-step part of the fragment
    conf_edges = [(u, v) for u, v in frag.edges if u[0] == T.CONF_TAG and v[0] == T.CONF_TAG]
    outs = {}
    ins = {}
    for u, v in conf_edges:
        outs[u] = outs.get(u, 0) + 1
        ins[v] = ins.get(v, 0) + 1
    assert all(n <= 1 for n in outs.values())
    assert all(n <= 1 for n in ins.values())


def test_explore_fragment_keeps_to_the_state_budget():
    # words up to length 2 and one initial configuration for each of the
    # 3 x 3 runs on inputs up to length 1: at least 7 + 9 = 16 elements,
    # counted before anything is listed; 38 in all
    rpi = rpi_for(False)
    with au.state_budget(15), pytest.raises(StateBudgetExceeded) as exc:
        explore_fragment(rpi, word_len=2, run_input_len=1)
    assert (exc.value.n_states, exc.value.budget) == (16, 15)
    assert str(exc.value) == "grew to 16 fragment elements, budget 15"
    # past the first count, the runs' configurations exceed the budget
    with au.state_budget(16), pytest.raises(StateBudgetExceeded) as exc:
        explore_fragment(rpi, word_len=2, run_input_len=1)
    assert 16 < exc.value.n_states <= 38 and exc.value.budget == 16
    assert str(exc.value) == f"grew to {exc.value.n_states} fragment elements, budget 16"
    with au.state_budget(38):
        assert len(explore_fragment(rpi, word_len=2, run_input_len=1).elements) == 38


def test_explore_fragment_runs_inputs_longer_than_its_words():
    # a run on inputs longer than word_len is run, and its inputs are words
    # of the fragment
    rpi = rpi_for(False)
    frag = explore_fragment(rpi, word_len=0, run_input_len=1)
    assert [w for w in frag.elements if w[0] == T.WORD_TAG] == [T.tag_word(w) for w in [(), ("0",), ("1",)]]
    start = T.tag_config(T.initial_configuration(rpi.tm, [("1",), ("0",), ()]), rpi.tm)
    assert (T.tag_word(("1",)), start) in frag.edges
    assert {v for edge in frag.edges for v in edge} <= set(frag.elements)
    assert bounded_wf_check(rpi, frag) is None


def test_the_rpi_relation_reaches_the_bfs_as_letter_groups(monkeypatch):
    # the step graph hands over its shared column-letter tuples whole, and
    # the accept edges their letters by target: the relation's 106,037
    # transitions come in as about 7,100 groups, where a graph yielding one
    # letter at a time gives one group per letter
    counts = []
    build = au.build

    def counting(arity, alphabet, start, accepting, moves):
        count = [0, 0]

        def counted(key):
            for letters, target in moves(key):
                count[0] += 1
                count[1] += len(letters)
                yield letters, target

        counts.append(count)
        return build(arity, alphabet, start, accepting, counted)

    monkeypatch.setattr(au, "build", counting)
    relation = build_rpi(kreisel_comparator(False), pi_tag="pi0=true").relation  # built on its first read
    groups, letters = counts[0]
    assert relation.n_transitions == 106037 and letters >= 106037
    assert groups < 8000


def test_no_read_of_the_rpi_relation_builds_its_triples():
    # reads go through the relation's reader: checking a fragment and
    # following a witness path leave the relation and the domain unbuilt.
    # Built afterwards, the relation is the pinned one, stored once, as its
    # transition index: the frozenset of its triples is derived on a read
    rpi = build_rpi(kreisel_comparator(False), pi_tag="pi0=true")
    frag = explore_fragment(rpi, word_len=2, run_input_len=1)
    assert bounded_wf_check(rpi, frag) is None
    assert emb_path(rpi, ("0",), ("1",)) is not None
    assert "relation" not in rpi.__dict__ and "domain" not in rpi.__dict__
    assert 0 < len(rpi.reader._delta) < 1746
    rel = rpi.relation
    assert "transitions" not in rel.__dict__ and "transitions" not in rpi.domain.__dict__
    assert rel.transitions == {(q, l, r) for q, row in rel._delta.items() for l, rs in row.items() for r in rs}
    assert len(rel.transitions) == rel.n_transitions == 106037
    saved = au.save_automaton(rel, "R").encode("utf-8")
    assert hashlib.sha256(saved).hexdigest() == RPI_TRUE_RELATION_SHA256


def _bench_shaped_pairs(seed, count):
    """`count` pairs x <llex y of binary words with lengths 16 to 40, as
    the benchmark's rpi workload draws them."""
    rng = random.Random(seed)
    lengths = itertools.cycle(itertools.product((16, 24, 32, 40), repeat=2))
    pairs = []
    for lx, ly in itertools.islice(lengths, count):
        x = y = ()
        while x == y:
            x, y = (tuple(rng.choice("01") for _ in range(n)) for n in (lx, ly))
        pairs.append(tuple(sorted((x, y), key=lambda w: (len(w), w))))
    return pairs


@pytest.mark.parametrize("false_pi", [False, True], ids=["pi0-true", "pi0-false"])
def test_the_rpi_reader_answers_as_the_built_relation(false_pi):
    # a fresh reader and the built relation agree on every edge of both
    # comparators' fragments, every pair of the first 50 elements, the
    # witness paths of 200 benchmark-shaped pairs run by both comparators,
    # and words holding the pad symbol or a foreign one
    reader = build_rpi(kreisel_comparator(false_pi), pi_tag="x").reader
    relation = rpi_for(false_pi).relation
    fragments = [explore_fragment(rpi_for(f), word_len=3, run_input_len=2) for f in (False, True)]
    pairs = [edge for frag in fragments for edge in frag.edges]
    pairs += [(u, v) for u in fragments[0].elements[:50] for v in fragments[0].elements[:50]]
    pads = [(T.WORD_TAG, "0", au.PAD), (T.CONF_TAG, "go", au.PAD), (T.WORD_TAG, "z"), (T.CONF_TAG, "z", "0")]
    pairs += [(u, v) for u in pads + fragments[0].elements[:5] for v in pads + fragments[0].elements[:5]]
    answers = [reader.accepts(u, v) for u, v in pairs]
    assert answers == [relation.accepts(u, v) for u, v in pairs]
    assert True in answers and False in answers
    rejected = 0
    for x, y in _bench_shaped_pairs(7, 200):
        for tm in (rpi_for(False).tm, rpi_for(True).tm):
            words, accepted = run_words(tm, [x, y, ()])
            path = [tag_word(x), *words, *([tag_word(y)] if accepted else [])]
            got = reader.rejected_hop(path)
            assert got == relation.rejected_hop(path)
            rejected += got is not None
    assert 0 < rejected < 400
    padded = [tag_word("0"), (T.CONF_TAG, au.PAD)]
    assert reader.rejected_hop(padded) == relation.rejected_hop(padded) == 0


def test_emb_path_for_all_small_pairs():
    rpi = rpi_for(False)
    words = [tuple(b) for n in range(3) for b in itertools.product("01", repeat=n)]
    found = 0
    for x in words:
        for y in words:
            if (len(x), x) < (len(y), y):
                path = emb_path(rpi, x, y)
                assert path is not None
                assert path[0] == tag_word(x) and path[-1] == tag_word(y)
                found += 1
    assert found == 21  # pairs x <llex y among ranks 0..6


def test_rpi_delta_is_the_sorted_build():
    # `_canonical` fills `_delta` from its BFS; it must be the sorted build,
    # in the same order at both levels, since downstream numbering reads it
    rpi = rpi_for(False)
    assert_delta_is_reference(rpi.relation)
    assert_delta_is_reference(rpi.domain)


def test_rpi_structure_rejects_an_edge_outside_the_domain():
    # the cube check still runs on the built relation: one extra edge from a
    # word that is neither a binary word nor a configuration is caught
    rpi = rpi_for(False)
    rel, alphabet = rpi.relation, rpi.relation.alphabet
    outside = convolve([(T.WORD_TAG, T.CONF_TAG), (T.WORD_TAG, "0")])
    edge = au.automaton(2, alphabet, 3, 0, {2}, [(i, letter, i + 1) for i, letter in enumerate(outside)])
    assert not rpi.domain.accepts((T.WORD_TAG, T.CONF_TAG)) and rpi.domain.accepts((T.WORD_TAG, "0"))
    with pytest.raises(WobError, match="outside the domain"):
        Structure(name="rpi_plus_one", domain=rpi.domain, relations={"R": au.union(rel, edge)})
    Structure(name="rpi", domain=rpi.domain, relations={"R": rel})


def test_tag_config_matches_serialize():
    tm = kreisel_comparator(False)
    trace, _ = run(tm, [("1", "0", "1"), ("0", "1"), ()])
    # a cell outside the machine's cell alphabets is built as `serialize` builds it
    foreign = Configuration(tm.initial, ((T.MARKER,) * 3, ("7", "0", tm.blank)), (1, 0, 1))
    for c in trace + [foreign]:
        assert tag_config(c, tm) == (T.CONF_TAG,) + c.serialize(tm) == (T.CONF_TAG,) + reference_serialize(tm, c)


def walk_machine():
    """One tape: walk right forever, so a run ends only at the state budget."""
    M = T.MARKER
    trans = {("go", (M,)): ("go", ((M, "R"),)), ("go", ("_",)): ("go", (("_", "R"),))}
    return T.TmSpec(name="walk", tapes=1, blank="_", states=("go",), accepting=frozenset(), transitions=trans)


@pytest.mark.parametrize("tm", [
    increment_machine(), copy_machine(), bounce_machine(), split_machine(), swap_machine(),
    kreisel_comparator(True), kreisel_comparator(False),
], ids=lambda tm: tm.name)
def test_trace_words_is_tag_config_of_each_configuration(tm):
    # the words `run_words` gives for a run's trace, on every input up to
    # length 3 on the first two tapes (the others empty), against the
    # reference run over `step`; tape 0 also holds a symbol outside the
    # cell alphabets, which `column_token` joins
    def words(tape, extra=()):
        symbols = [s for s in tm.tape_cells[tape] if s != T.MARKER] + list(extra)
        return [w for n in range(4) for w in itertools.product(symbols, repeat=n)]

    others = [words(t) for t in range(1, min(tm.tapes, 2))] + [[()]] * (tm.tapes - 2)
    appended = foreign = 0
    for inputs in itertools.product(words(0, ["7"]), *others):
        trace, accepted = run(tm, list(inputs))
        assert run_words(tm, list(inputs)) == ([tag_config(c, tm) for c in trace], accepted), inputs
        appended += len(trace[-1].columns) > len(trace[0].columns)
        foreign += any("7" in c.columns[h] for c in trace[1:] for h in c.heads)
    assert appended and foreign


def test_run_words_stops_at_the_state_budget_as_the_reference_run():
    # a run halts when the tokens of its words are at most the budget, and
    # both runners stop at the same word past it; increment on n a's takes
    # n + 2 steps, and its 30 words on 27 a's hold 903 tokens
    inc = increment_machine()
    trace, accepted = run(inc, [("a",) * 27])
    assert len(trace) == 30 and accepted
    budget = sum(len(c.columns) + 2 for c in trace)
    assert budget == 903
    with au.state_budget(budget):
        assert run_words(inc, [("a",) * 27]) == ([tag_config(c, inc) for c in trace], accepted)
    cases = [(inc, [("a",) * 27], budget - 1), (inc, [("a",) * 28], budget), (walk_machine(), [("_", "_")], budget)]
    for tm, inputs, cap in cases:
        stops = []
        for runner in (run, run_words):
            with au.state_budget(cap), pytest.raises(StateBudgetExceeded) as exc:
                runner(tm, inputs)
            stops.append((exc.value.n_states, exc.value.budget, str(exc.value)))
        assert stops[0] == stops[1], (tm.name, stops)
        assert stops[0][1] == cap < stops[0][0]
    assert stops[0][2] == f"grew to {stops[0][0]} configuration tokens, budget {budget}"


def test_a_run_that_does_not_halt_stops_at_the_state_budget():
    # walk adds a column a step, so its words hold O(steps^2) tokens: the
    # tokens listed are counted, and the run stops at the first word past
    # the budget, sum(k + 3 for k in range(n)) > 20,000
    tracemalloc.start()
    start = time.perf_counter()
    with au.state_budget(20000), pytest.raises(StateBudgetExceeded) as exc:
        run_words(walk_machine(), [()])
    took = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    n = next(n for n in itertools.count() if sum(k + 3 for k in range(n)) > 20000)
    assert (exc.value.n_states, exc.value.budget) == (sum(k + 3 for k in range(n)), 20000)
    assert str(exc.value) == f"grew to {exc.value.n_states} configuration tokens, budget 20000"
    assert took < 0.5, took
    assert peak < 2_000_000, peak


@st.composite
def halting_runs(draw):
    """A random machine of 1-3 tapes and inputs, the machine drawn along
    its run: at each configuration with no transition yet, one is added,
    with random writes and L or R moves, until `limit` are drawn; the run
    halts at the next.  One input may end in 7, a cell no transition reads
    or writes: a head that reaches it halts the run.  Past 60 steps the
    run goes on by the transitions drawn, and may not halt."""
    tapes = draw(st.integers(1, 3))
    states = ("p", "q", "r")[: draw(st.integers(1, 3))]
    inputs = [tuple(draw(st.lists(st.sampled_from("ab_"), max_size=5))) for _ in range(tapes)]
    if draw(st.booleans()):
        inputs[draw(st.integers(0, tapes - 1))] += ("7",)
    limit = draw(st.integers(0, 16))
    transitions = {}
    drawing = T.TmSpec(name="random", tapes=tapes, blank="_", states=states, accepting=frozenset(),
                       transitions=transitions)  # `reference_step` reads the transitions drawn so far
    c = T.initial_configuration(drawing, inputs)
    for _ in range(60):
        key = (c.state, tuple(c.columns[h][i] for i, h in enumerate(c.heads)))
        if key not in transitions:
            if "7" in key[1] or len(transitions) == limit:
                break
            transitions[key] = (draw(st.sampled_from(states)), tuple(
                (T.MARKER, "R") if r == T.MARKER else (draw(st.sampled_from("ab_")), draw(st.sampled_from("LR")))
                for r in key[1]
            ))
        c = reference_step(drawing, c)
    accepting = draw(st.frozensets(st.sampled_from(states)))
    return T.TmSpec(name="random", tapes=tapes, blank="_", states=states, accepting=accepting,
                    transitions=transitions), inputs


@settings(max_examples=150, deadline=None)
@given(halting_runs())
@example((swap_machine(), [("a", "b", "7"), ("b", "a")]))  # two heads on one column
@example((split_machine(), [("a", "a", "_", "7"), ()]))  # heads parting, an L move
@example((cross_machine(), [("a", "a"), ("a", "a", "7")]))  # heads crossing
@example((kreisel_comparator(False), [("1", "0", "7"), ("0", "1", "1"), ()]))
@example((retreat_machine(), [("a", "a"), ("a", "a")]))  # heads on one column moving L together, into column 0
# the cells ("", "a_") join to the token of ("a", "_"), which copy reads;
# no transition reads these cells, so the run halts after 2 words
@example((copy_machine(), [("",), ("a_",)]))
def test_run_words_and_serialize_match_the_tableless_serializer(case):
    # the mask table read by `run_words` and `serialize` against columns
    # joined by `column_token` alone, over the reference run over `step`:
    # heads that share and cross columns, L and R moves, appended columns
    # and cells outside the machine's cell alphabets
    # Under a budget of 5,000 tokens, every run that halts within the 60
    # drawn steps is compared whole (at most 61 words of at most 69 tokens),
    # and one that goes on stops at the same word in both runners
    tm, inputs = case
    with au.state_budget(5000):
        try:
            trace, accepted = run(tm, inputs)
        except StateBudgetExceeded as exc:
            with pytest.raises(StateBudgetExceeded) as got:
                run_words(tm, inputs)
            assert (got.value.n_states, got.value.budget) == (exc.n_states, exc.budget)
            return
        assert run_words(tm, inputs) == ([(T.CONF_TAG, *reference_serialize(tm, c)) for c in trace], accepted)
    assert [c.serialize(tm) for c in trace] == [reference_serialize(tm, c) for c in trace]


def test_the_step_table_is_what_move_does_with_the_heads_on_one_column():
    # each transition whose heads all move one way has its entry, the step
    # `_move` makes with every head on column 1, at the end of the tape or
    # before a blank column; a transition whose heads part has none
    moves, parting = set(), 0
    for tm in [increment_machine(), copy_machine(), kreisel_comparator(True), kreisel_comparator(False),
               bounce_machine(), split_machine(), swap_machine(), cross_machine(), walk_machine(),
               retreat_machine()]:
        K, one_way = tm.tapes, 0
        for (q, reads), (q2, actions) in tm.transitions.items():
            entry = tm._joint_steps.get((q, reads))
            if len({m for _w, m in actions}) > 1:
                assert entry is None, (tm.name, q, reads)
                parting += 1
                continue
            one_way += 1
            for tail in ([], [(tm.blank,) * K]):
                columns, heads = [(T.MARKER,) * K, reads, *tail], [1] * K
                T._move(tm, columns, heads, actions)
                assert heads == [heads[0]] * K, (tm.name, q, reads)
                assert entry == (q2, columns[1], tm._token_of[columns[1], 0], heads[0] - 1), (tm.name, q, reads)
            moves.add(entry[3])
        assert len(tm._joint_steps) == one_way, tm.name
    assert moves == {1, -1} and parting


def test_runs_step_by_the_table_while_the_heads_share_a_column(monkeypatch):
    # every comparator transition moves its heads together, so neither the
    # benchmark's reads (lengths 16 to 40) nor the fragment's 225 runs make
    # a step by `_move`; a run whose heads part makes exactly the steps
    # with its heads apart or parting by `_move`, and gives the reference
    # run's words (`rejoin` parts, meets and then steps by the table)
    rng = random.Random(3)
    pairs = [sorted((tuple(rng.choice("01") for _ in range(n)) for n in lengths), key=lambda w: (len(w), w))
             for lengths in itertools.product((16, 24, 32, 40), repeat=2)]
    cross = cross_machine()
    rejoin = T.TmSpec(name="rejoin", tapes=2, blank="_", states=cross.states, accepting=cross.accepting,
                      transitions={**cross.transitions, ("r", ("a", "b")): ("s", (("b", "R"), ("b", "R")))})
    parting = [(split_machine(), [("a", "a"), ()]), (cross, [("a", "a"), ("a", "a")]),
               (rejoin, [("a", "a"), ("a", "a")])]
    want = [run(tm, inputs) for tm, inputs in parting]

    def moved(tm, c):
        return len(set(c.heads)) > 1 or len({m for _w, m in tm.transitions[c.state, c.columns[c.heads[0]]][1]}) > 1

    rpi = rpi_for(False)
    calls = []
    move = T._move
    monkeypatch.setattr(T, "_move", lambda tm, *args: calls.append(tm.name) or move(tm, *args))
    for x, y in pairs:
        assert emb_path(rpi, x, y) is not None
    explore_fragment(rpi, word_len=5, run_input_len=3)
    assert calls == []
    for (tm, inputs), (trace, accepted) in zip(parting, want):
        assert run_words(tm, inputs) == ([tag_config(c, tm) for c in trace], accepted)
        assert calls.count(tm.name) == sum(moved(tm, c) for c in trace[:-1]) > 0, tm.name


def test_emb_path_names_the_first_hop_the_relation_rejects():
    # the pi_0-true comparator's runs read against the pi_0-false
    # comparator's relation: the path is rejected at the hop per-hop
    # `accepts` rejects first
    true, false = rpi_for(False), rpi_for(True)
    mixed = T.RpiStructure(true.tm, "mixed", build_rpi(false.tm, "x").reader)
    words = [tuple(b) for n in range(4) for b in itertools.product("01", repeat=n)]
    raised = 0
    for x in words:
        for y in words:
            path = emb_path(true, x, y)
            if path is None:
                continue
            bad = next((i for i, (u, v) in enumerate(zip(path, path[1:])) if not false.relation.accepts(u, v)), None)
            if bad is None:
                assert emb_path(mixed, x, y) == path
                continue
            message = f"edge not in the relation: {path[bad]!r} -> {path[bad + 1]!r}"
            with pytest.raises(WobError) as exc:
                emb_path(mixed, x, y)
            assert str(exc.value) == message
            raised += 1
    assert raised


def stepped_letters(x, y) -> tuple:
    """(letters stepped, letters held) by the hops of emb_path(x, y) on a
    fresh pi_0-true reader.  Each letter stepped is one `get` on the
    reader's rows (one state alive; a row's first read is one more `get`)
    or on its step table (a set of states)."""
    class Counting(dict):
        lookups = 0

        def get(self, *args):
            Counting.lookups += 1
            return dict.get(self, *args)

    rpi = build_rpi(kreisel_comparator(False), pi_tag="pi0=true")
    object.__setattr__(rpi.reader, "_delta", Counting())
    rpi.reader.__dict__["_subset_steps"] = Counting()
    path = emb_path(rpi, x, y)
    assert path == emb_path(rpi_for(False), x, y) and path is not None
    return Counting.lookups, sum(max(len(u), len(v)) for u, v in zip(path, path[1:]))


def test_emb_path_steps_at_most_a_quarter_of_its_letters():
    # a hop resumes from where its letters stop agreeing with the previous
    # hop's, and a machine step's unchanged tail is settled by one set test,
    # so fewer letters are stepped than the hops hold
    x, y = tuple("01101001011010010110100101101001"), tuple("1001011010010110100101101001011001101001")
    stepped, letters = stepped_letters(x, y)
    assert stepped <= 0.25 * letters, (stepped, letters)


def test_a_long_emb_path_steps_at_most_a_twentieth_of_its_letters():
    # each hop steps a few letters around the heads, so the letters stepped
    # grow with the path's length, not with its length squared
    rng = random.Random(5)
    x, y = (tuple(rng.choice("01") for _ in range(n)) for n in (200, 201))
    stepped, letters = stepped_letters(x, y)
    assert letters > 40000
    assert stepped <= 0.05 * letters, (stepped, letters)


def test_explore_fragment_names_a_structural_edge_the_relation_rejects():
    # the pi_0-true comparator's runs read against the pi_0-false
    # comparator's relation: the fragment check raises at the first hop,
    # in run order, that per-edge `accepts` on the built relation rejects
    true, false = rpi_for(False), rpi_for(True)
    mixed = T.RpiStructure(true.tm, "mixed", build_rpi(false.tm, "x").reader)
    with pytest.raises(WobError) as exc:
        explore_fragment(mixed, word_len=2, run_input_len=2)
    words = [tuple(b) for n in range(3) for b in itertools.product("01", repeat=n)]
    for x, y in itertools.product(words, repeat=2):
        confs, accepted = run_words(true.tm, [x, y, ()])
        path = [tag_word(x), *confs, *([tag_word(y)] if accepted else [])]
        bad = next((i for i, (u, v) in enumerate(zip(path, path[1:])) if not false.relation.accepts(u, v)), None)
        if bad is not None:
            break
    assert str(exc.value) == f"structural edge missing from the automaton: {path[bad]!r} -> {path[bad + 1]!r}"


def test_explore_fragment_samples_configuration_non_edges():
    # the binary words come first among the elements, so a sample of the
    # first elements alone holds no configuration: the sample takes the
    # first 25 words and the first 25 configurations, and a relation that
    # also accepts one planted pair of sampled configurations is caught
    rpi = rpi_for(False)
    frag = explore_fragment(rpi, word_len=5, run_input_len=3)
    configs = [w for w in frag.elements if w[0] == T.CONF_TAG][:25]
    u, v = next((u, v) for u in configs for v in configs if (u, v) not in set(frag.edges))
    letters = convolve([u, v])
    pair = au.automaton(2, rpi.relation.alphabet, len(letters) + 1, 0, {len(letters)},
                        [(i, letter, i + 1) for i, letter in enumerate(letters)])
    planted = T.RpiStructure(rpi.tm, "planted", au.union(rpi.relation, pair))
    with pytest.raises(WobError) as exc:
        explore_fragment(planted, word_len=5, run_input_len=3)
    assert str(exc.value) == f"automaton accepts a non-edge: {u!r} -> {v!r}"


def test_rpi_cycle_free_and_descent_for_false_pi():
    rpi = rpi_for(True)
    saved = au.save_automaton(rpi.relation, "R").encode("utf-8")
    assert hashlib.sha256(saved).hexdigest() == RPI_FALSE_RELATION_SHA256
    frag = explore_fragment(rpi, word_len=4, run_input_len=2)
    assert bounded_wf_check(rpi, frag) is None  # bounded fragment stays acyclic
    # ...but an arbitrarily long descending chain exists, witnessed explicitly:
    k = pa.KreiselOrder(pi0=pa.PiPredicate(fn=lambda z: False))
    ranks = pa.find_descent(k, 1, 5)
    assert ranks is not None
    chain = descent_witness(rpi, ranks)
    assert len(chain) > 5
    rel = rpi.relation
    for nxt, prev in zip(chain[1:], chain):
        assert rel.accepts(nxt, prev)


def test_rpi_structure_passes_containment():
    # build_rpi skips the cube check; run here, it holds
    rpi = rpi_for(False)
    assert rpi.relation.arity == 2
    assert au.is_subset_of_cube(rpi.relation, rpi.domain)


def test_build_rpi_runs_no_cube_check(monkeypatch):
    calls = []
    original = au.is_subset_of_cube
    monkeypatch.setattr(au, "is_subset_of_cube", lambda rel, domain: calls.append(rel) or original(rel, domain))
    rpi = build_rpi(kreisel_comparator(False), pi_tag="pi0=true")
    assert calls == []
    assert rpi.relation.n_states == 1746


def test_planted_cycle_detected():
    rpi = rpi_for(False)
    frag = explore_fragment(rpi, word_len=2, run_input_len=1)
    u, v = frag.elements[0], frag.elements[1]
    frag.edges.extend([(u, v), (v, u)])
    got = bounded_wf_check(rpi, frag)
    assert got is not None and len(got) > 1 and got[0] == got[-1]
    assert set(zip(got, got[1:])) <= set(frag.edges)


def test_build_rpi_rejects_non_binary_input_tapes():
    # copy's tapes hold a and b, so the input edges would need tokens
    # outside its alphabet
    with pytest.raises(InvalidTm):
        build_rpi(copy_machine(), pi_tag="x")


def test_build_rpi_rejects_irreversible():
    tm = copy_machine()
    bad = dict(tm.transitions)
    bad[("go", ("a", "b"))] = bad[("go", ("a", "_"))]
    tm2 = T.TmSpec(name="bad", tapes=2, blank="_", states=tm.states,
                   accepting=tm.accepting, transitions=bad)
    with pytest.raises(NotReversible):
        build_rpi(tm2, pi_tag="x")


def test_tm_save_load_roundtrip():
    for tm in [increment_machine(), copy_machine(), kreisel_comparator(True)]:
        text = save_tm(tm)
        back = parse_tm(text)
        assert back == tm


def test_invalid_tm_rejected():
    with pytest.raises(InvalidTm):
        T.TmSpec(name="bad", tapes=1, blank="_", states=("q",), accepting=frozenset(),
                 transitions={("q", (">",)): ("q", ((">", "L"),))})
    with pytest.raises(InvalidTm):
        T.TmSpec(name="bad", tapes=1, blank="_", states=("q",), accepting=frozenset(),
                 transitions={("q", ("a",)): ("q", ((">", "R"),))})
