"""The bundled example corpus: one deterministic pass/fail line per case.

`wob corpus` must be byte-identical across runs for a fixed seed, so no
timing, no unordered iteration, and all randomness comes from the seed.
"""

from __future__ import annotations

import itertools
import random

from . import automata as au
from . import corpus as cp
from . import fgh
from . import hopda as ho
from . import ordinals as o
from . import pathology as pa
from . import recognition as rec
from . import tm as tmmod


DEFAULT_SEED = 20240817


def run_corpus(seed: int = DEFAULT_SEED) -> int:
    cases = []

    def case(name):
        def wrap(fn):
            cases.append((name, fn))
            return fn

        return wrap

    wos = cp.well_order_corpus()
    nwos = cp.non_well_order_corpus()
    recognized = {}

    @case("recognize well-orders")
    def _():
        for p in wos:
            got = rec.recognize(rec.OrderPresentation(p.structure))
            assert isinstance(got, rec.WellOrder), (p.name, got)
            assert got.cnf == p.expected_cnf, (p.name, o.show(got.cnf))
            recognized[p.name] = got.cnf
        return f"{len(wos)} presentations"

    @case("recognize non-well-orders")
    def _():
        kinds = []
        for p in nwos:
            got = rec.recognize(rec.OrderPresentation(p.structure))
            assert isinstance(got, rec.NotWellOrder), (p.name, got)
            kinds.append(type(got.evidence).__name__)
        return ",".join(kinds)

    @case("isomorphism matrix")
    def _():
        pairs = 0
        for a, b in itertools.combinations(wos, 2):
            # CNF equality is the decision; the expected value comes from the
            # presentations, not from the recognizer
            expected = a.expected_cnf == b.expected_cnf
            assert (recognized[a.name] == recognized[b.name]) == expected, (a.name, b.name)
            pairs += 1
        # exercise the isomorphic() surface on a sample
        assert rec.isomorphic(
            rec.OrderPresentation(wos[0].structure), rec.OrderPresentation(wos[1].structure)
        )
        assert not rec.isomorphic(
            rec.OrderPresentation(wos[0].structure), rec.OrderPresentation(wos[2].structure)
        )
        return f"{pairs} pairs"

    @case("fgh exact values")
    def _():
        std = fgh.standard_system()
        budget = fgh.Budget(max_value=10 ** 9, max_steps=10 ** 7)
        expect = [
            (o.ZERO, 5, 6),
            (o.from_int(1), 3, 6),
            (o.from_int(2), 3, 24),
            (o.from_int(3), 2, 2048),
            (o.OMEGA, 2, 2048),
        ]
        for alpha, x, want in expect:
            got = fgh.eval_F(std, alpha, x, budget)
            assert got == want, (o.show(alpha), x, got)
        return "F_0(5)=6 F_1(3)=6 F_2(3)=24 F_3(2)=2048 F_w(2)=2048"

    @case("kreisel descent")
    def _():
        k = pa.KreiselOrder(pi0=pa.except_value(2))
        chain = pa.find_descent(k, 10, 20)
        assert chain is not None and len(chain) == 20
        k_true = pa.KreiselOrder(pi0=pa.always_true())
        assert pa.find_descent(k_true, 10, 5) is None
        return "chain of 20 above the witness; none for true pi0"

    @case("kreisel automatic")
    def _():
        s = pa.kreisel_as_automatic(pa.regular_true())
        got = rec.recognize(rec.OrderPresentation(s))
        assert got == rec.WellOrder(o.OMEGA)
        s2 = pa.kreisel_as_automatic(pa.regular_except_word(("1", "1")))
        got2 = rec.recognize(rec.OrderPresentation(s2))
        assert isinstance(got2, rec.NotWellOrder)
        return "true: well-order w; witness 6: not-well-order"

    @case("kreisel definable tail")
    def _():
        s = pa.kreisel_as_automatic(pa.regular_except_word(("1", "1")))
        tail = pa.tail_set(s, pa.word_of_rank(6))
        assert au.is_empty(pa.minimal_members(s, tail))
        return "tail above the witness has no minimal member"

    @case("omega-plus-one system")
    def _():
        spec = pa.power_of_two_spec()
        ns = pa.omega_plus_one_system(spec)
        for n in range(5):
            assert ns.compare(ns.fs(pa.TOP, n), pa.TOP) < 0
            if n:
                assert ns.compare(ns.fs(pa.TOP, n - 1), ns.fs(pa.TOP, n)) < 0
        for x in (1, 2, 3):
            ok, _ = fgh.eval_at_least(ns, pa.TOP, x, spec.f(x))
            assert ok
        return "contract ok; F_w(x) >= 2^x for x in 1..3"

    @case("tm reversibility")
    def _():
        assert tmmod.check_reversible(tmmod.increment_machine()) is None
        assert tmmod.check_reversible(tmmod.copy_machine()) is None
        assert tmmod.check_reversible(tmmod.kreisel_comparator(False)) is None
        assert tmmod.check_reversible(tmmod.kreisel_comparator(True)) is None
        assert tmmod.check_reversible(tmmod.collision_machine()) is not None
        return "bundled machines reversible; planted collision caught"

    @case("tm step automaton vs simulator")
    def _():
        tm = tmmod.increment_machine()
        aut = tmmod.step_relation_automaton(tm)
        universe = []
        for ncols in range(1, 4):
            for cells in itertools.product(("a", "_"), repeat=ncols - 1):
                cols = ((tmmod.MARKER,),) + tuple((c,) for c in cells)
                for head in range(ncols):
                    for q in tm.states:
                        c = tmmod.Configuration(q, cols, (head,))
                        if tmmod.is_canonical(tm, c):
                            universe.append(c)
        for c in universe:
            expected = tmmod.step(tm, c)
            for c2 in universe:
                want = expected is not None and c2 == expected
                assert aut.accepts(c.serialize(tm), c2.serialize(tm)) == want
        return f"exhaustive on {len(universe)} configurations"

    @case("rpi embedding and wf")
    def _():
        rpi = tmmod.build_rpi(tmmod.kreisel_comparator(False), pi_tag="pi0=true")
        words = [tuple(b) for n in range(3) for b in itertools.product("01", repeat=n)]
        found = 0
        for x in words:
            for y in words:
                if (len(x), x) < (len(y), y):
                    assert tmmod.emb_path(rpi, x, y) is not None
                    found += 1
        frag = tmmod.explore_fragment(rpi, word_len=3, run_input_len=1)
        assert tmmod.bounded_wf_check(rpi, frag) is None
        return f"{found} embedding paths; fragment acyclic"

    @case("hopda push/pop roundtrip")
    def _():
        rng = random.Random(seed)

        def rand_pds(level):
            if level == 0:
                return ho.letter(rng.choice("ab"))
            return ho.Npds(level, tuple(rand_pds(level - 1) for _ in range(rng.randint(1, 3))))

        for _i in range(500):
            level = rng.randint(1, 3)
            p = rand_pds(level)
            k = rng.randint(1, level)
            a = rng.choice("ab")
            assert ho.pop_k(ho.push_k(p, k, a), k) == p
        return "500 random stores"

    @case("hopda anbn")
    def _():
        h = ho.anbn_pda()
        for n in range(4):
            for m in range(4):
                word = "a" * n + "b" * m
                assert ho.run_word(h, word) == (n == m)
        return "accepts exactly a^n b^n for n <= 3"

    @case("hopda contraction and unfolding")
    def _():
        g = ho.graph_from_edges(["u", "w", "v"], [("u", ho.EPSILON, "w"), ("w", "a", "v")], root="u")
        got = ho.epsilon_contract(g)
        assert got.edges["a"] == frozenset({("u", "v"), ("w", "v")})
        g2 = ho.graph_from_edges(["u", "v"], [("u", "a", "v"), ("v", "b", "u")], root="u")
        unf = ho.unfold(g2, "u", 3)
        assert len(unf.vertices) == 4
        return "fixtures match hand-derived graphs"

    @case("hopda ordinal prefixes")
    def _():
        g = ho.config_graph(ho.omega_machine(), budget=40)
        vals = sorted(stk.count("A") for (_s, stk) in g.vertices)
        assert vals[:30] == list(range(30))
        g2 = ho.config_graph(ho.omega_squared_machine(), budget=1200)
        vals2 = sorted(
            {o.OMEGA * o.from_int(stk.count("B")) + o.from_int(stk.count("A"))
             for (s, stk) in g2.vertices if s == "s"}
        )
        assert vals2[:30] == o.canonical_prefix(o.parse("w^2"), 30)
        h3 = ho.omega_omega_machine()
        configs = ho.reachable_configs(h3, ["1" * m for m in range(30)] + ["1w", "1ww"])
        vals3 = sorted({ho.omega_omega_value(p) for (s, p) in configs if s == "s"})
        assert vals3[:30] == o.canonical_prefix(o.parse("w^w"), 30)
        return "omega, omega^2, omega^omega prefixes order-isomorphic"

    @case("domination shadow")
    def _():
        std = fgh.standard_system()
        shifted = fgh.shifted_system()
        budget = fgh.Budget(max_value=10 ** 9, max_steps=10 ** 6)
        pairs = [
            (o.from_int(1), o.from_int(2)),
            (o.from_int(2), o.from_int(3)),
            (o.from_int(2), o.OMEGA),
            (o.from_int(2), o.OMEGA * o.from_int(2)),
            (o.from_int(2), o.OMEGA * o.from_int(3)),
        ]
        for alpha, beta in pairs:
            report = fgh.dominates_at(std, alpha, shifted, beta, [3, 4, 5, 6], budget)
            assert report.all_strictly_less(), (o.show(alpha), o.show(beta))
        return "F[std]_a(x) < F[shifted]_b(x) on sampled a<b, x in 3..6 (not a proof of the theorem)"

    failures = 0
    for name, fn in cases:
        try:
            detail = fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
        except Exception as exc:  # noqa: BLE001 - a corpus run reports, never crashes
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
        else:
            print(f"PASS {name}" + (f" ({detail})" if detail else ""))
    print(f"{len(cases) - failures}/{len(cases)} corpus cases passed")
    return failures
