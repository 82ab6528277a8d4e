import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import omega_tower, reference_check_bachmann
from wob import ordinals as o
from wob.errors import LoadError, MissingFs, NotALimit
from wob.ordinals import OMEGA, ONE, ZERO, CnfOrdinal, from_int, omega_power, parse, show


# -- independent oracle for ordinals below w^w ---------------------------
# Polynomials in w: dict {natural exponent: positive coefficient}.


def poly_cmp(p, q):
    key_p = sorted(p.items(), reverse=True)
    key_q = sorted(q.items(), reverse=True)
    return (key_p > key_q) - (key_p < key_q)


def poly_add(p, q):
    if not q:
        return dict(p)
    qmax = max(q)
    out = {e: c for e, c in p.items() if e > qmax}
    out.update(q)
    if qmax in p:
        out[qmax] = p[qmax] + q[qmax]
    return out


def poly_mul(p, q):
    if not p or not q:
        return {}
    pmax = max(p)
    out = {}
    for e in sorted(q, reverse=True):
        c = q[e]
        if e > 0:
            out = poly_add(out, {pmax + e: c})
        else:
            term = {pmax: p[pmax] * c}
            for e2, c2 in p.items():
                if e2 < pmax:
                    term[e2] = c2
            out = poly_add(out, term)
    return out


def to_cnf(p):
    terms = tuple((from_int(e), c) for e, c in sorted(p.items(), reverse=True))
    return CnfOrdinal(terms)


def random_poly(rng, max_exp=4, max_coef=5):
    return {e: rng.randint(1, max_coef) for e in range(max_exp + 1) if rng.random() < 0.5}


def test_compare_examples():
    assert o.compare(OMEGA, from_int(5)) == "greater"
    a = parse("w^2*3+w")
    b = parse("w^2*3+5")
    assert o.compare(a, b) == "greater"
    assert o.compare(parse("w^w"), parse("w^5*99")) == "greater"


def test_add_examples():
    assert ONE + OMEGA == OMEGA
    assert OMEGA + ONE == parse("w+1")


def test_mul_and_power_examples():
    assert parse("w+1") * OMEGA == parse("w^2")
    assert omega_power(OMEGA) == parse("w^w")
    assert omega_tower(2) == parse("w^w")
    assert omega_tower(1) == OMEGA


def test_arithmetic_against_rewriting_oracle():
    rng = random.Random(117)
    for _ in range(200):
        p, q, r = (random_poly(rng) for _ in range(3))
        a, b, c = to_cnf(p), to_cnf(q), to_cnf(r)
        assert a + b == to_cnf(poly_add(p, q))
        assert a * b == to_cnf(poly_mul(p, q))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (poly_cmp(p, q) < 0) == (a < b)


def test_standard_fs_examples():
    assert o.standard_fs(OMEGA, 2) == from_int(3)
    assert o.standard_fs(parse("w^w"), 2) == parse("w^3")
    assert o.standard_fs(parse("w^2*2"), 4) == parse("w^2+w*5")


def test_standard_fs_rejects_non_limits():
    with pytest.raises(NotALimit):
        o.standard_fs(from_int(7), 1)
    with pytest.raises(NotALimit):
        o.standard_fs(ZERO, 0)
    with pytest.raises(NotALimit):
        o.standard_fs(parse("w+1"), 0)


def _sampled_limits_below(bound, per_level=40):
    rng = random.Random(5)
    out = set()
    while len(out) < per_level:
        p = random_poly(rng, max_exp=5)
        lam = to_cnf(p)
        if lam.is_limit() and lam <= bound:
            out.add(lam)
    return sorted(out)


def test_fs_below_and_increasing():
    for lam in _sampled_limits_below(parse("w^5")):
        prev = None
        for n in range(50):
            v = o.standard_fs(lam, n)
            assert v < lam
            if prev is not None:
                assert prev < v
            prev = v


def test_fs_sup_reaches_lambda():
    # any beta < lambda is eventually dominated by lambda[n]
    cases = [
        (OMEGA, from_int(17)),
        (parse("w^2"), parse("w*9+3")),
        (parse("w^3+w"), parse("w^3+5")),
        (parse("w^w"), parse("w^4*2")),
    ]
    for lam, beta in cases:
        assert any(o.standard_fs(lam, n) > beta for n in range(40))


def test_check_bachmann_standard_ok():
    assert o.check_bachmann(o.STANDARD_FS, parse("w^3"), samples=10) is None


def test_check_bachmann_shifted_ok():
    assert o.check_bachmann(o.SHIFTED_FS, parse("w^2*3"), samples=10) is None


def test_check_bachmann_monotonicity_violation():
    def broken(lam, n):
        if lam == OMEGA and n == 5:
            return from_int(3)
        return o.standard_fs(lam, n)

    v = o.check_bachmann(o.FundamentalSequenceTable(broken), parse("w^2"), samples=10)
    assert v is not None
    assert v.kind == "monotonicity"
    assert v.lam == OMEGA


def test_check_bachmann_property_violation():
    # (w*2)[0] = 0 while w^2[0] = w: alpha = w*2 in (w^2[0], w^2[1]] has alpha[0] = 0 < w
    def broken(lam, n):
        if lam == parse("w*2") and n == 0:
            return ZERO
        return o.standard_fs(lam, n)

    v = o.check_bachmann(o.FundamentalSequenceTable(broken), parse("w^2"), samples=10)
    assert v is not None
    assert v.kind == "bachmann"
    assert v.alpha == parse("w*2")
    assert v.lam == parse("w^2")
    assert v.n == 0


def test_check_bachmann_reads_each_fs_value_once():
    # one table of fundamental sequences serves all three checks
    calls = []
    table = o.FundamentalSequenceTable(lambda lam, n: calls.append((lam, n)) or o.standard_fs(lam, n))
    assert o.check_bachmann(table, parse("w^2"), samples=12) is None
    assert len(calls) == len(set(calls)) == 13 * 12


def test_check_bachmann_partial_table():
    table = {OMEGA: lambda n: from_int(n + 1)}

    def partial(lam, n):
        return table[lam](n)

    with pytest.raises(MissingFs):
        o.check_bachmann(o.FundamentalSequenceTable(partial), parse("w^2"), samples=5)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10 ** 6),
    st.sampled_from(["w^2", "w^2*3", "w^3", "w^3+w^2", "w^w"]),
    st.integers(2, 6),
    st.sampled_from(["zero", "zero", "swap", "above", "missing"]),
    st.sampled_from([0, 0.05, 0.2, 0.5]),
)
def test_check_bachmann_matches_reference(seed, bound, samples, fault, fault_rate):
    # each limit's sequence is the standard one shifted by 0-2 places, or,
    # at `fault_rate`, one with the fault: a first member 0 (a Bachmann
    # violation wherever the limit falls in an interval), two members
    # swapped, a member equal to the limit, or no sequence at all (MissingFs);
    # the interval slices must return the violation, or raise the error,
    # that the all-pairs scan does, also when several limits violate (the
    # bounds are limits of limits, so that their grids hold many limits)
    if bound == "w^w":
        samples = min(samples, 3)  # the all-pairs scan takes seconds at 4

    def fs(lam, n):
        rng = random.Random(f"{seed}:{show(lam)}")
        kind = fault if rng.random() < fault_rate else rng.randrange(3)
        if kind == "missing":
            raise KeyError(show(lam))
        if kind == "zero" and n == 0:
            return ZERO
        if kind == "above" and n == 1:
            return lam
        if kind == "swap" and n in (1, 2):
            n = 3 - n
        return o.standard_fs(lam, n + (kind if isinstance(kind, int) else 0))

    def run(check):
        try:
            return check(o.FundamentalSequenceTable(fs), parse(bound), samples)
        except MissingFs as exc:
            return ("MissingFs", str(exc))

    assert run(o.check_bachmann) == run(reference_check_bachmann)


def test_check_bachmann_standard_ok_on_a_large_grid():
    # w^w with 5 samples has about 780 grid limits, each read against the
    # intervals of every limit
    assert o.check_bachmann(o.STANDARD_FS, parse("w^w"), samples=5) is None


def test_show_examples():
    assert show(ZERO) == "0"
    assert show(parse("w^2*3+w+4")) == "w^2*3+w+4"
    assert show(parse("w^{w+1}*2")) == "w^{w+1}*2"
    assert show(parse("w^w*2")) == "w^w*2"


def test_parse_errors():
    for bad in ["", "w^", "3+", "w*0", "q", "w^{w", "1+w}"]:
        with pytest.raises((LoadError, ValueError)):
            parse(bad)


@st.composite
def cnf_ordinals(draw, depth=2):
    n_terms = draw(st.integers(0, 3))
    if n_terms == 0:
        return ZERO
    candidates = []
    for _ in range(n_terms):
        if depth > 0 and draw(st.booleans()):
            candidates.append(draw(cnf_ordinals(depth=depth - 1)))
        else:
            candidates.append(from_int(draw(st.integers(0, 6))))
    exps = sorted(set(candidates), reverse=True)
    terms = tuple((e, draw(st.integers(1, 9))) for e in exps)
    return CnfOrdinal(terms)


@settings(max_examples=150, deadline=None)
@given(cnf_ordinals())
def test_show_parse_roundtrip(x):
    assert parse(show(x)) == x


@settings(max_examples=100, deadline=None)
@given(cnf_ordinals(), cnf_ordinals())
def test_total_order(x, y):
    assert (x < y) + (x == y) + (y < x) == 1


@settings(max_examples=100, deadline=None)
@given(cnf_ordinals(), cnf_ordinals())
def test_add_monotone_right(x, y):
    assert x + y >= x
    if not y.is_zero():
        assert x + y > x


def test_canonical_prefix():
    assert o.canonical_prefix(OMEGA, 3) == [ZERO, ONE, from_int(2)]
    assert o.canonical_prefix(from_int(2), 5) == [ZERO, ONE]
