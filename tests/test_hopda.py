import itertools
import random
from pathlib import Path

import pytest

from conftest import epsilon_chain_machine, reference_config_graph, reference_runs, stack
from wob import hopda as H
from wob import ordinals as o
from wob.errors import BadLevel, EmptyPds, StateBudgetExceeded, WobError
from wob.hopda import (
    EPSILON,
    ColoredGraph,
    Npds,
    anbn_pda,
    apply_op,
    config_graph,
    epsilon_contract,
    graph_from_edges,
    init_pds,
    letter,
    omega_machine,
    omega_omega_machine,
    omega_omega_value,
    omega_squared_machine,
    omega_squared_value,
    parse_hopda,
    pop_k,
    push_k,
    reachable_configs,
    run_word,
    save_hopda,
    top_letter,
    unfold,
)


def test_push1_on_level1():
    p = stack(letter("b"))
    assert push_k(p, 1, "a").serialize() == "[ba]"


def test_push2_on_level2():
    p = stack(stack(letter("b")))
    assert push_k(p, 2, "a").serialize() == "[[b][a]]"


def test_push1_inside_level2():
    p = stack(stack(letter("b"), letter("c")))
    assert push_k(p, 1, "a").serialize() == "[[bca]]"


def test_pop_examples():
    assert pop_k(stack(letter("b"), letter("a")), 1).serialize() == "[b]"
    p2 = stack(stack(letter("b")), stack(letter("a")))
    assert pop_k(p2, 2).serialize() == "[[b]]"


def test_pop_would_empty():
    p2 = stack(stack(letter("b")), stack(letter("a")))
    # pop^1 acts inside the topmost 1-pds [a], which has a single element
    with pytest.raises(EmptyPds):
        pop_k(p2, 1)
    with pytest.raises(EmptyPds):
        pop_k(stack(letter("a")), 1)


def test_bad_level():
    with pytest.raises(BadLevel):
        push_k(stack(letter("a")), 2, "b")
    with pytest.raises(BadLevel):
        pop_k(stack(letter("a")), 0)


def _random_pds(rng, level):
    if level == 0:
        return letter(rng.choice("ab"))
    width = rng.randint(1, 3)
    return Npds(level, tuple(_random_pds(rng, level - 1) for _ in range(width)))


def test_push_then_pop_roundtrip_500():
    rng = random.Random(42)
    checked = 0
    while checked < 500:
        level = rng.randint(1, 3)
        p = _random_pds(rng, level)
        k = rng.randint(1, level)
        a = rng.choice("ab")
        pushed = push_k(p, k, a)
        assert pop_k(pushed, k) == p
        checked += 1


def test_top_letter():
    p = stack(stack(letter("b"), letter("c")))
    assert top_letter(p) == "c"


def test_config_graph_epsilon_chain():
    g = config_graph(epsilon_chain_machine(), budget=5)
    assert len(g.vertices) == 5
    assert g.partial
    eps_edges = g.edges[EPSILON]
    assert len(eps_edges) == 4  # a chain
    outs = {}
    for (u, v) in eps_edges:
        outs[u] = outs.get(u, 0) + 1
    assert all(n == 1 for n in outs.values())


def test_config_graph_no_rules():
    h = H.HopdaSpec(name="still", level=1, input_alphabet=("a",), pds_alphabet=("Z",),
                    states=("s",), rules=(), bottom="Z")
    g = config_graph(h)
    assert len(g.vertices) == 1
    assert not g.partial


def test_anbn_accepts_exactly():
    h = anbn_pda()
    for n, m in itertools.product(range(4), repeat=2):
        word = "a" * n + "b" * m
        assert run_word(h, word) == (n == m), word
    # scrambles rejected
    for word in ["ba", "aab", "abb", "abab"]:
        assert not run_word(h, word)


def test_anbn_oracle_direct_simulation():
    # independent classical PDA simulation (list-based stack)
    def classic_accepts(word):
        agenda = [("p", ("Z",), 0)]
        seen = set(agenda)
        while agenda:
            state, stk, pos = agenda.pop()
            if pos == len(word) and (
                (state in ("p", "q") and stk == ("Z",)) or state == "acc"
            ):
                return True
            moves = []
            if state == "p" and pos < len(word) and word[pos] == "a":
                moves.append(("p", stk + ("A",), pos + 1))
            if state == "p" and pos < len(word) and word[pos] == "b" and stk[-1] == "A":
                moves.append(("q", stk[:-1], pos + 1))
            if state == "q" and pos < len(word) and word[pos] == "b" and stk[-1] == "A":
                moves.append(("q", stk[:-1], pos + 1))
            for mv in moves:
                if mv not in seen:
                    seen.add(mv)
                    agenda.append(mv)
        return False

    h = anbn_pda()
    for n in range(5):
        for m in range(5):
            word = "a" * n + "b" * m
            assert run_word(h, word) == classic_accepts(word)


def test_level1_configs_match_classical_pda_shape():
    # level-1 configurations are exactly (state, stack word) pairs
    g = config_graph(anbn_pda(), budget=40)
    for (state, stk) in g.vertices:
        assert state in ("p", "q", "acc")
        assert stk.startswith("[Z") and stk.endswith("]")


def classical_pda_configs(h, max_stack):
    """Independent level-1 simulator: plain tuple stacks, rules read off
    directly (push appends, pop drops); stacks longer than max_stack are not
    expanded."""
    start = (h.initial_state, (h.bottom,))
    seen = {start}
    frontier = [start]
    while frontier:
        state, stk = frontier.pop()
        for r in h.rules:
            if r.state != state or r.guard != stk[-1]:
                continue
            if r.op[0] == "push" and r.op[1] == 1:
                if len(stk) >= max_stack:
                    continue
                nxt = (r.new_state, stk + (r.op[2],))
            elif r.op[0] == "pop" and r.op[1] == 1:
                if len(stk) <= 1:
                    continue
                nxt = (r.new_state, stk[:-1])
            else:
                nxt = (r.new_state, stk)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {(s, "[" + "".join(stk) + "]") for (s, stk) in seen}


@pytest.mark.parametrize("machine,budget", [(anbn_pda, 400), (omega_machine, 50),
                                            (omega_squared_machine, 4000)],
                         ids=["anbn", "omega", "omega_sq"])
def test_level1_config_graph_matches_classical_simulator(machine, budget):
    # compare the vertex sets on the window of stacks of height <= 5; the
    # classical side explores two letters higher to include detour routes
    h = machine()
    L = 5
    classical = classical_pda_configs(h, max_stack=L + 2)
    classical_small = {(s, w) for (s, w) in classical if len(w) - 2 <= L}
    g = config_graph(h, budget=budget)
    mine_small = {(s, w) for (s, w) in g.vertices if len(w) - 2 <= L}
    assert classical_small == mine_small


def test_epsilon_contract_convention_fixture():
    # u --eps--> w --a--> v with v normal: the contraction gains u --a--> v;
    # w has no outgoing epsilon edge, so it is normal and stays, with its
    # direct a-edge preserved
    g = graph_from_edges(
        ["u", "w", "v"], [("u", EPSILON, "w"), ("w", "a", "v")], root="u"
    )
    got = epsilon_contract(g)
    assert set(got.vertices) == {"u", "w", "v"}
    assert got.edges["a"] == frozenset({("u", "v"), ("w", "v")})


def test_epsilon_contract_preserves_direct_edges():
    g = graph_from_edges(
        ["u", "v", "x"], [("u", "a", "v"), ("u", EPSILON, "x")], root="u"
    )
    got = epsilon_contract(g)
    assert ("u", "v") in got.edges["a"]


def test_epsilon_contract_only_eps():
    # finite graph with only epsilon edges: a noop self-loop
    h = H.HopdaSpec(name="loop", level=1, input_alphabet=("a",), pds_alphabet=("Z",),
                    states=("s",), rules=(H.Rule("s", None, "Z", "s", ("noop",)),),
                    bottom="Z")
    g = config_graph(h)
    got = epsilon_contract(g)
    assert list(got.vertices) == [g.root]
    assert all(not pairs for pairs in got.edges.values())


def test_epsilon_contract_truncated_chain():
    # in the truncated chain only the root and the last explored vertex
    # (which has no explored epsilon successor) survive, with no edges
    g = config_graph(epsilon_chain_machine(), budget=5)
    got = epsilon_contract(g)
    assert g.root in got.vertices
    assert len(got.vertices) == 2
    assert all(not pairs for pairs in got.edges.values())


def test_epsilon_contract_never_contains_eps():
    g = config_graph(omega_squared_machine(), budget=60)
    got = epsilon_contract(g)
    assert EPSILON not in got.colors


def test_epsilon_contract_of_an_eps_free_graph_is_the_graph():
    g = config_graph(omega_machine())
    assert EPSILON not in g.colors
    assert epsilon_contract(g) == g


def test_unfold_single_vertex():
    g = graph_from_edges(["v"], [], root="v")
    got = unfold(g, "v", 3)
    assert got.vertices == (("v",),)


def test_unfold_two_cycle():
    g = graph_from_edges(["u", "v"], [("u", "a", "v"), ("v", "b", "u")], root="u")
    got = unfold(g, "u", 3)
    # path tree with 4 levels: u, uv, uvu, uvuv
    assert set(got.vertices) == {
        ("u",), ("u", "v"), ("u", "v", "u"), ("u", "v", "u", "v"),
    }
    assert (("u",), ("u", "v")) in got.edges["a"]
    assert (("u", "v"), ("u", "v", "u")) in got.edges["b"]


def test_unfold_is_tree_with_one_edge_per_color():
    g = config_graph(anbn_pda(), budget=25)
    got = unfold(g, g.root, 4)
    indeg = {}
    for color, pairs in got.edges.items():
        for (u, v) in pairs:
            indeg[v] = indeg.get(v, 0) + 1
    for v, n in indeg.items():
        assert n == 1
    assert all(indeg.get(v, 0) <= 1 for v in got.vertices)


def test_unfold_stops_at_the_budget():
    g = graph_from_edges(["u", "v"], [("u", "a", "v"), ("v", "b", "u")], root="u")
    assert not unfold(g, "u", 3, budget=4).partial
    got = unfold(g, "u", 3, budget=3)
    assert got.vertices == (("u",), ("u", "v"), ("u", "v", "u")) and got.partial


def test_config_graph_cuts_the_vertices_whose_moves_it_dropped():
    g = config_graph(omega_machine(), budget=5)
    assert g.cut == {g.vertices[-1]} and g.partial


def test_unfold_is_partial_only_where_a_short_path_meets_a_cut():
    # the 5-vertex omega chain is cut at its 5th vertex, 4 edges from the root
    g = config_graph(omega_machine(), budget=5)
    assert not unfold(g, g.root, 3).partial
    assert not unfold(g, g.root, 4).partial  # the path to the cut vertex is depth long
    got = unfold(g, g.root, 5)
    assert got.cut == {tuple(g.vertices)}
    with_budget = unfold(g, g.root, 5, budget=3)
    assert with_budget.cut == {tuple(g.vertices[:3])}


def test_epsilon_contract_cuts_the_vertices_whose_paths_meet_a_cut():
    # the truncated eps chain: the root reaches the cut end by eps moves
    g = config_graph(epsilon_chain_machine(), budget=5)
    assert epsilon_contract(g).cut == {g.root, g.vertices[-1]}
    # a cut vertex with eps edges after the letter cuts u; a normal one
    # there is a contracted vertex, cut itself
    g = graph_from_edges(["u", "b", "x", "y", "n"], [("u", "a", "b"), ("b", EPSILON, "x"), ("x", EPSILON, "y"),
                                                    ("y", "a", "n")], root="u", cut={"x"})
    assert epsilon_contract(g).cut == {"u"}
    g = graph_from_edges(["u", "v"], [("u", "a", "v")], root="u", cut={"v"})
    assert epsilon_contract(g).cut == {"v"}


def test_colored_graph_rejects_a_cut_vertex_outside_it():
    with pytest.raises(WobError, match="cut vertex"):
        graph_from_edges(["u"], [], root="u", cut={"v"})


def test_unfold_preserves_colors():
    g = graph_from_edges(["u", "v"], [("u", "a", "v")], root="u")
    got = unfold(g, "u", 1)
    assert set(got.colors) == {"a"}


# -- ordinal example machines ----------------------------------------------------


def test_omega_machine_prefix():
    g = config_graph(omega_machine(), budget=150)
    values = sorted(stk.count("A") for (_s, stk) in g.vertices)
    assert values[:100] == list(range(100))


def test_omega_squared_machine_prefix():
    h = omega_squared_machine()
    g = config_graph(h, budget=9000)
    contracted = epsilon_contract(g)
    vals = set()
    for (state, stk) in contracted.vertices:
        if state == "s":
            vals.add(o.OMEGA * o.from_int(stk.count("B")) + o.from_int(stk.count("A")))
    ordered = sorted(vals)
    want = o.canonical_prefix(o.parse("w^2"), 100)
    assert ordered[:100] == want
    # spot-check genuinely transfinite values are reachable too
    assert o.OMEGA in vals
    assert o.OMEGA * o.from_int(2) in vals


def test_omega_omega_machine_prefix():
    # breadth-first exploration cannot reach depth 99 here (the branching is
    # exponential), so the prefix is collected along guided input words; the
    # integers 0..99 are consecutive ordinals, so any reachable superset has
    # exactly them as its first hundred values
    h = omega_omega_machine()
    words = ["1" * m for m in range(100)] + ["1w", "1ww", "1www", "1w1", "1ww1w"]
    configs = reachable_configs(h, words)
    vals = set()
    for (state, pds) in configs:
        if state == "s":
            vals.add(omega_omega_value(pds))
    ordered = sorted(vals)
    want = [o.from_int(i) for i in range(100)]
    assert ordered[:100] == want
    assert o.OMEGA in vals  # '1w' bumps a fresh unit to w^1
    assert o.omega_power(o.from_int(2)) in vals  # '1ww'
    assert o.omega_power(o.from_int(2)) + o.OMEGA in vals  # '1ww1w'


def test_omega_omega_small_stacks_decode():
    h = omega_omega_machine()
    configs = reachable_configs(h, ["11", "1w", "1w1"])
    values = {omega_omega_value(p) for (s, p) in configs if s == "s"}
    assert o.from_int(2) in values  # two units
    assert o.OMEGA + o.ONE in values  # a unit bumped to w, then a fresh unit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("state q\n", "state q\nstate q\n"), "duplicate state names"),
        (lambda text: "".join(line for line in text.splitlines(keepends=True) if not line.startswith("state")),
         "need at least one state"),
    ],
    ids=["duplicate", "none"],
)
def test_hopda_states_declared_once_each(edit, message):
    text = (Path(__file__).resolve().parent.parent / "corpus" / "machines" / "anbn.hopda").read_text(encoding="utf-8")
    with pytest.raises(WobError, match=message):
        parse_hopda(edit(text))


def test_hopda_save_load_roundtrip():
    # the machine and its text are both fixed points of a save and a load
    for h in [anbn_pda(), omega_machine(), omega_squared_machine(), omega_omega_machine()]:
        assert parse_hopda(save_hopda(h)) == h
        assert save_hopda(parse_hopda(save_hopda(h))) == save_hopda(h)


@pytest.mark.parametrize(
    "old, new, message",
    [("input a b\n", "input a b a\n", "duplicate input letters"), ("pds Z A\n", "pds Z A Z\n", "duplicate pds letters")],
    ids=["input", "pds"],
)
def test_hopda_letters_declared_once_each(old, new, message):
    # as in an `.aut` alphabet, a letter is declared once
    text = (Path(__file__).resolve().parent.parent / "corpus" / "machines" / "anbn.hopda").read_text(encoding="utf-8")
    assert old in text
    with pytest.raises(WobError, match=message):
        parse_hopda(text.replace(old, new))


def test_hopda_pds_letter_may_not_be_a_bracket():
    # a configuration is keyed by its serialized store, which brackets
    # delimit: with bracket letters the level-2 stores [[a][b]] (two 1-pds)
    # and [[a][b]] (one 1-pds a ] [ b) would share a key
    text = (Path(__file__).resolve().parent.parent / "corpus" / "machines" / "omega_omega.hopda").read_text(
        encoding="utf-8")
    assert "pds Z A T\n" in text
    for bracket in "[]":
        with pytest.raises(WobError, match="may not be"):
            parse_hopda(text.replace("pds Z A T\n", f"pds Z A T {bracket}\n"))


# -- the configuration search against its reference over Npds records ------------

BUILTINS = [anbn_pda, omega_machine, omega_squared_machine, omega_omega_machine]


@pytest.mark.parametrize(
    "machine,budget",
    [(m, b) for m in BUILTINS for b in (1, 5, 40, 1200)] + [(omega_omega_machine, 5000)],
    ids=[f"{m.__name__}-{b}" for m in BUILTINS for b in (1, 5, 40, 1200)] + ["omega_omega_machine-5000"],
)
def test_config_graph_matches_the_reference(machine, budget):
    h = machine()
    got, want = config_graph(h, budget=budget), reference_config_graph(h, budget=budget)
    assert got.vertices == want.vertices  # in order
    assert (got.edges, got.root, got.cut) == (want.edges, want.root, want.cut)
    assert got.to_dot() == want.to_dot()
    assert epsilon_contract(got) == epsilon_contract(want)
    for depth in (0, 3, 8):
        assert unfold(got, got.root, depth, budget=budget) == unfold(want, want.root, depth, budget=budget)


def _reference_run_word(h, word, budget):
    for explored, (state, _pds, pos) in enumerate(reference_runs(h, word), start=1):
        if explored > budget:
            raise StateBudgetExceeded(explored, budget, "configurations")
        if pos == len(word) and state in h.accepting:
            return True
    return False


def _answer(run, h, word, budget):
    try:
        return run(h, word, budget)
    except StateBudgetExceeded as exc:
        return ("budget", exc.n_states)


@pytest.mark.parametrize("machine", BUILTINS, ids=lambda m: m.__name__)
def test_runs_match_the_reference(machine):
    h = machine()
    first, last = h.input_alphabet[0], h.input_alphabet[-1]
    words = [w for n in range(6) for w in itertools.product(h.input_alphabet, repeat=n)]
    words += [(first,) * 30 + (last,) * 30, (first, last) * 15]
    for word in words:
        got = list(H._runs(h, word))
        assert all(pds.serialize() == serialized for (_s, serialized, _p), pds in got)
        assert [(state, pds, pos) for (state, _, pos), pds in got] == list(reference_runs(h, word))
        for budget in (2, 10, 10 ** 4):
            assert _answer(run_word, h, word, budget) == _answer(_reference_run_word, h, word, budget)
    want = {(state, pds.serialize()): (state, pds) for word in words for state, pds, _ in reference_runs(h, word)}
    assert reachable_configs(h, words) == [want[k] for k in sorted(want)]
