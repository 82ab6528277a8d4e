"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here and nothing is deferred to later calibration.
"""

import hashlib
import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import same_language, words_upto
from formula_battery import battery_for, all_texts
from test_fgh import oracle_F
from test_logic import compiled_set, eval_frag, fragment

from wob import automata as au
from wob import corpus as cp
from wob import fgh
from wob import hopda as ho
from wob import ordinals as o
from wob import pathology as pa
from wob import recognition as rec
from wob import tm as tmmod
from wob.logic import parse_formula
from wob.recognition import OrderPresentation, WellOrder, NotWellOrder


def announce(n, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {verdict} {detail}")
    assert ok, f"criterion {n}: {detail}"


def count_quantifiers(text):
    return sum(text.count(q) for q in ("exists", "forall", "existsinf"))


def test_criterion_1_fo_soundness():
    # >= 5 structures, >= 30 formulas with <= 3 quantifiers, 100% agreement
    # with brute force over fragments of word length <= 6, under 60 s
    start = time.monotonic()
    presentations = [
        cp.omega_unary(), cp.omega_times_2(), cp.omega_times_2_plus_3(),
        cp.integer_line(), cp.dense_dyadic(),
    ]
    texts_used = set()
    checked = 0
    for pres in presentations:
        s = pres.structure
        frag6 = fragment(pres, 6)
        points = set(fragment(pres, 3))
        rels = {"<": (2, pres.ref_less)}
        for text in battery_for(pres.name):
            f = parse_formula(text)
            assert count_quantifiers(text) <= 3
            texts_used.add(text)
            if count_quantifiers(text) == 0:
                # quantifier-free: fragment-independent, compare pointwise
                vs, oracle = eval_frag(f, sorted(points), rels, s.domain.alphabet)
                got = compiled_set(s, f, sorted(points))
                assert got == oracle, (pres.name, text)
            else:
                vs, oracle = eval_frag(f, frag6, rels, s.domain.alphabet)
                oracle = {row for row in oracle if all(w in points for w in row)}
                got = compiled_set(s, f, sorted(points))
                assert got == oracle, (pres.name, text)
            checked += 1
    elapsed = time.monotonic() - start
    announce(
        1,
        len(presentations) >= 5 and len(texts_used) >= 30 and elapsed < 60,
        f"{len(presentations)} structures, {len(texts_used)} formulas, "
        f"{checked} checks, {elapsed:.1f}s",
    )


RECOGNIZED = {}


def _recognize_corpus():
    if not RECOGNIZED:
        for p in cp.well_order_corpus():
            RECOGNIZED[p.name] = (p, rec.recognize(OrderPresentation(p.structure)))
    return RECOGNIZED


def test_criterion_2_theorem3_desk_scale():
    start = time.monotonic()
    required = {"omega": "w", "omega_plus_one": "w+1", "omega2p3": "w*2+3",
                "omega_sq": "w^2", "mixed": "w^2*2+w*3+4", "omega_cube": "w^3"}
    got = _recognize_corpus()
    assert len(got) >= 10
    for name, (p, res) in got.items():
        assert isinstance(res, WellOrder), (name, res)
        assert res.cnf == p.expected_cnf, name
    for name, cnf_text in required.items():
        assert o.show(got[name][1].cnf) == cnf_text

    # the first 200 elements are order-isomorphic to the canonical initial
    # segment: the chain is certified element by element (the one cover of
    # its predecessor, by automaton emptiness), cross-checked on sampled ranks
    for name in ["omega", "omega_sq", "mixed", "twelve"]:
        p, res = got[name]
        op = OrderPresentation(p.structure)
        chain = rec.initial_chain(op, 200)
        want = o.canonical_prefix(res.cnf, 200)
        assert len(chain) == len(want), name
        for a, b in zip(chain, chain[1:]):
            assert p.ref_less(a, b)
        for i in (0, 1, 7, len(chain) - 1):
            preds = rec.predecessors(op, chain[i])
            assert not au.is_infinite(preds)
            assert len(au.count_or_enumerate(preds, i + 2)) == i

    bad = []
    for p in cp.non_well_order_corpus():
        res = rec.recognize(OrderPresentation(p.structure))
        assert isinstance(res, NotWellOrder), p.name
        bad.append((p, res.evidence))
    assert len(bad) >= 4
    # evidence is machine-checkable
    for p, ev in bad:
        if isinstance(ev, rec.BadCondensationClass):
            frag = [w for w in words_upto(p.structure.domain.alphabet, 8) if p.ref_domain(w)]
            assert any(p.ref_less(u, ev.witness) for u in frag)
        elif ev.level == 0:
            # fixpoint evidence re-verified by automaton equivalence
            q = rec.finite_condensation(OrderPresentation(p.structure))
            assert same_language(q.domain, p.structure.domain)
    elapsed = time.monotonic() - start
    announce(2, elapsed < 300, f"{len(got)} well-orders + {len(bad)} non-well-orders, {elapsed:.1f}s")


def test_criterion_3_isomorphism():
    got = _recognize_corpus()
    names = sorted(got)
    assert len(names) >= 10
    pairs = list(itertools.combinations(names[:10], 2))
    assert len(pairs) == 45
    for a, b in pairs:
        # isomorphic() decides by CNF equality; the recognized normal forms
        # must be equal exactly when the presentations' expected ones are
        expected = got[a][0].expected_cnf == got[b][0].expected_cnf
        assert (got[a][1].cnf == got[b][1].cnf) == expected, (a, b)
    # a pair with equal normal forms has two certified chains of the
    # canonical initial segment's length
    equal = [(a, b) for a, b in pairs if got[a][0].expected_cnf == got[b][0].expected_cnf]
    assert equal
    for a, b in equal:
        want = len(o.canonical_prefix(got[a][0].expected_cnf, 60))
        for name in (a, b):
            assert len(rec.initial_chain(OrderPresentation(got[name][0].structure), 60)) == want, name
    # exercise the operation itself on a sample, including an equal pair
    sample = [("omega", "omega_bin"), ("omega", "omega_sq"), ("omega2p3", "mixed"),
              ("omega_sq", "wsq_p1"), ("twelve", "omega")]
    for a, b in sample:
        val = rec.isomorphic(
            OrderPresentation(got[a][0].structure), OrderPresentation(got[b][0].structure)
        )
        assert val == (got[a][1].cnf == got[b][1].cnf), (a, b)
    announce(3, True, f"45 pairs agree with CNF equality, {len(equal)} equal pairs have canonical chains")


def test_criterion_4_fgh_exactness():
    std = fgh.standard_system()
    budget = fgh.Budget(max_value=10 ** 9, max_steps=10 ** 7)
    table = [
        (o.ZERO, 5, 6),
        (o.from_int(1), 3, 6),
        (o.from_int(2), 3, 24),
        (o.from_int(3), 2, 2048),
        (o.OMEGA, 2, 2048),
    ]
    for alpha, x, want in table:
        got = fgh.eval_F(std, alpha, x, budget)
        assert got == want, (o.show(alpha), x, got)
        fuel = [10 ** 7]
        assert oracle_F(alpha, x, fuel) == want  # independent unfolding oracle
    announce(4, True, "five exact values match the unfolding oracle")


def test_criterion_5_kreisel_prop1():
    # planted witness at value 2
    k = pa.KreiselOrder(pi0=pa.except_value(2))
    chain = pa.find_descent(k, 10, 20)
    assert chain is not None and len(chain) == 20
    for a, b in zip(chain, chain[1:]):
        assert pa.kreisel_compare(k, b, a) == "less"

    # the definable tail above the witness has no minimum: exact emptiness of
    # the minimal-member automaton plus fragment evidence on words <= 8
    s_bad = pa.kreisel_as_automatic(pa.regular_except_word(pa.word_of_rank(2)))
    tail = pa.tail_set(s_bad, pa.word_of_rank(2))
    assert au.is_empty(pa.minimal_members(s_bad, tail))
    rel = s_bad.relations["<"]
    members = [w[0] for w in au.count_or_enumerate(tail, 700)]
    short = [w for w in members if len(w) <= 8]
    assert short
    for w in short[:60]:
        assert any(rel.accepts(u, w) for u in members if u != w)

    # true pi0: exhaustive search up to length 8 finds no descent ...
    k_true = pa.KreiselOrder(pi0=pa.always_true())
    top = pa.rank_of_word(("1",) * 8)
    for start in range(top + 1):
        assert pa.find_descent(k_true, start, 3, search_span=64) is None
    # ... and the automatic version recognizes the base order omega
    s_true = pa.kreisel_as_automatic(pa.regular_true())
    assert rec.recognize(OrderPresentation(s_true)) == WellOrder(o.OMEGA)
    announce(5, True, "descent of 20; tail without minimum; true pi0 stays omega")


def test_criterion_6_prop2():
    spec = pa.power_of_two_spec()
    ns = pa.omega_plus_one_system(spec)
    prev = None
    for n in range(8):
        v = ns.fs(pa.TOP, n)
        assert ns.compare(v, pa.TOP) < 0
        if prev is not None:
            assert ns.compare(prev, v) < 0
        prev = v
    for x in (1, 2, 3):
        ok, exact = fgh.eval_at_least(ns, pa.TOP, x, spec.f(x), max_steps=10 ** 6)
        assert ok, x
    assert fgh.eval_F(ns, pa.TOP, 1, fgh.Budget(10 ** 6, 10 ** 6)) == 2 == spec.f(1)
    announce(6, True, "contract checks pass and F_w(x) >= 2^x for x in {1,2,3}")


def test_criterion_7_rpi_construction():
    start = time.monotonic()
    tm = tmmod.increment_machine()
    aut = tmmod.step_relation_automaton(tm)

    def canonical_configs(max_cols):
        out = []
        for ncols in range(1, max_cols + 1):
            for cells in itertools.product(("a", "_"), repeat=ncols - 1):
                cols = ((tmmod.MARKER,),) + tuple((c,) for c in cells)
                for head in range(ncols):
                    for q in tm.states:
                        c = tmmod.Configuration(q, cols, (head,))
                        if tmmod.is_canonical(tm, c):
                            out.append(c)
        return out

    # all pairs exhaustively at serialized length <= 7
    small = canonical_configs(6)
    for c in small:
        expected = tmmod.step(tm, c)
        for c2 in small:
            want = expected is not None and c2 == expected
            assert aut.accepts(c.serialize(tm), c2.serialize(tm)) == want
    # at serialized length <= 10: successor accepted, mutations rejected
    big = canonical_configs(9)
    for c in big:
        expected = tmmod.step(tm, c)
        if expected is None:
            continue
        assert aut.accepts(c.serialize(tm), expected.serialize(tm))
        mut = tmmod.Configuration(
            expected.state, expected.columns,
            tuple((h + 1) % len(expected.columns) for h in expected.heads),
        )
        if mut != expected:
            assert not aut.accepts(c.serialize(tm), mut.serialize(tm))

    rpi = tmmod.build_rpi(tmmod.kreisel_comparator(False), pi_tag="pi0=true")
    frag = tmmod.explore_fragment(rpi, word_len=4, run_input_len=2)
    conf_edges = [(u, v) for u, v in frag.edges
                  if u[0] == tmmod.CONF_TAG and v[0] == tmmod.CONF_TAG]
    degree_in, degree_out = {}, {}
    for u, v in conf_edges:
        degree_out[u] = degree_out.get(u, 0) + 1
        degree_in[v] = degree_in.get(v, 0) + 1
    assert all(n <= 1 for n in degree_out.values())
    assert all(n <= 1 for n in degree_in.values())

    # embedding paths exist for 100% of comparable pairs with values < 6
    words = [pa.word_of_rank(n) for n in range(6)]
    total = found = 0
    for x in words:
        for y in words:
            if (len(x), x) < (len(y), y):
                total += 1
                if tmmod.emb_path(rpi, x, y) is not None:
                    found += 1
    assert found == total

    assert tmmod.bounded_wf_check(rpi, frag) is None

    # false pi0: an explicit verified descent witness exists
    rpi_bad = tmmod.build_rpi(tmmod.kreisel_comparator(True), pi_tag="pi0=empty")
    k = pa.KreiselOrder(pi0=pa.PiPredicate(fn=lambda z: False))
    ranks = pa.find_descent(k, 1, 5)
    chain = tmmod.descent_witness(rpi_bad, ranks)
    assert len(chain) > 10
    elapsed = time.monotonic() - start
    announce(7, True, f"emb {found}/{total}; degrees <= 1; wf ok; descent witnessed; {elapsed:.1f}s")


def test_criterion_8_hopda_semantics():
    import random

    rng = random.Random(20240817)

    def rand_pds(level):
        if level == 0:
            return ho.letter(rng.choice("ab"))
        return ho.Npds(level, tuple(rand_pds(level - 1) for _ in range(rng.randint(1, 3))))

    for _ in range(500):
        level = rng.randint(1, 3)
        p = rand_pds(level)
        k = rng.randint(1, level)
        assert ho.pop_k(ho.push_k(p, k, "a"), k) == p

    h = ho.anbn_pda()
    for n in range(4):
        for m in range(4):
            assert ho.run_word(h, "a" * n + "b" * m) == (n == m)

    g = ho.graph_from_edges(["u", "w", "v"], [("u", ho.EPSILON, "w"), ("w", "a", "v")], root="u")
    assert ho.epsilon_contract(g).edges["a"] == frozenset({("u", "v"), ("w", "v")})
    g2 = ho.graph_from_edges(["u", "v"], [("u", "a", "v"), ("v", "b", "u")], root="u")
    assert set(ho.unfold(g2, "u", 3).vertices) == {
        ("u",), ("u", "v"), ("u", "v", "u"), ("u", "v", "u", "v")}
    loop = ho.HopdaSpec(name="loop", level=1, input_alphabet=("a",), pds_alphabet=("Z",),
                        states=("s",), rules=(ho.Rule("s", None, "Z", "s", ("noop",)),),
                        bottom="Z")
    assert list(ho.epsilon_contract(ho.config_graph(loop)).vertices) == [("s", "[Z]")]

    g_omega = ho.config_graph(ho.omega_machine(), budget=150)
    vals = sorted(stk.count("A") for (_s, stk) in g_omega.vertices)
    assert vals[:100] == list(range(100))
    g_sq = ho.config_graph(ho.omega_squared_machine(), budget=9000)
    vals_sq = sorted({ho.omega_squared_value(_parse_stack(stk)) for (s, stk) in g_sq.vertices if s == "s"})
    assert vals_sq[:100] == o.canonical_prefix(o.parse("w^2"), 100)
    h3 = ho.omega_omega_machine()
    configs = ho.reachable_configs(h3, ["1" * m for m in range(100)] + ["1w", "1ww"])
    vals3 = sorted({ho.omega_omega_value(p) for (s, p) in configs if s == "s"})
    assert vals3[:100] == [o.from_int(i) for i in range(100)]
    announce(8, True, "push/pop x500, anbn exact, contraction/unfold fixtures, ordinal prefixes")


def _parse_stack(serialized):
    # level-1 store: [Zxyz...]
    letters = [ho.letter(c) for c in serialized[1:-1]]
    return ho.Npds(1, tuple(letters))


def test_criterion_9_theorem5_shadow():
    assert o.check_bachmann(o.STANDARD_FS, o.parse("w^2"), samples=10) is None
    assert o.check_bachmann(o.SHIFTED_FS, o.parse("w^2"), samples=10) is None
    std, shifted = fgh.standard_system(), fgh.shifted_system()
    budget = fgh.Budget(max_value=10 ** 9, max_steps=10 ** 6)
    pairs = [
        (o.from_int(1), o.from_int(2)),
        (o.from_int(2), o.from_int(3)),
        (o.from_int(1), o.OMEGA),
        (o.from_int(2), o.OMEGA),
        (o.from_int(2), o.OMEGA + o.from_int(1)),
        (o.from_int(2), o.OMEGA * o.from_int(2)),
        (o.from_int(2), o.OMEGA * o.from_int(3)),
    ]
    for alpha, beta in pairs:
        assert alpha < beta <= o.OMEGA * o.from_int(3)
        report = fgh.dominates_at(std, alpha, shifted, beta, [3, 4, 5, 6], budget)
        assert report.all_strictly_less(), (o.show(alpha), o.show(beta))
        assert "not" in report.disclaimer and "asymptotic" in report.disclaimer
    announce(9, True, f"{len(pairs)} sampled pairs strictly dominated at x in 3..6, with disclaimer")


# SHA-256 of `wob corpus --seed 7` stdout; kernel refactors must keep it
CORPUS_SEED_7_SHA256 = "bbb5d8f5c918abd5819d93548f0f6f84f5dab0a2aa6cd65f3f10b2e1024da4e8"


def test_criterion_10_corpus_determinism():
    env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "PATH": "/usr/bin:/bin"}
    cmd = [sys.executable, "-m", "wob.cli", "corpus", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0, first.stdout.decode()
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"16/16 corpus cases passed\n")
    assert hashlib.sha256(first.stdout).hexdigest() == CORPUS_SEED_7_SHA256
    announce(10, True, "two corpus runs byte-identical")
