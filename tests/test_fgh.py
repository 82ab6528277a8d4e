import sys

import pytest

from wob import fgh
from wob import ordinals as o
from wob.errors import IllFormedSystem
from wob.fgh import Budget, Exceeded, dominates_at, eval_F, eval_at_least, standard_system, shifted_system
from wob.ordinals import OMEGA, ZERO, from_int, parse

STD = standard_system()
BIG = Budget(max_value=10 ** 400, max_steps=10 ** 7)


# -- independent naive-unfolding oracle -------------------------------------


class OracleFuel(Exception):
    pass


def oracle_F(alpha, x, fuel):
    """Direct recursive transcription of the three clauses."""

    def go(a, v):
        if fuel[0] <= 0:
            raise OracleFuel
        fuel[0] -= 1
        if a.is_zero():
            return v + 1
        if a.is_limit():
            return go(o.standard_fs(a, v), v)
        out = v
        for _ in range(v):
            out = go(a.pred(), out)
        return out

    return go(alpha, x)


def test_f0():
    assert eval_F(STD, ZERO, 5, BIG) == 6


def test_f1():
    assert eval_F(STD, from_int(1), 3, BIG) == 6


def test_f2():
    assert eval_F(STD, from_int(2), 3, BIG) == 24


def test_f3():
    assert eval_F(STD, from_int(3), 2, BIG) == 2048


def test_f_omega_uses_the_n_plus_1_convention():
    # w[2] = 3 under the (n+1) convention, so F_w(2) = F_3(2) = 2048
    assert eval_F(STD, OMEGA, 2, BIG) == 2048


def test_matches_oracle_small_grid():
    # alpha <= w*2, x <= 4, skipping points where the oracle runs out of fuel;
    # the infeasible points (already F_{w+1}(2)) exhaust any practical fuel,
    # so the fuel here only needs to cover the feasible ones with margin
    sys.setrecursionlimit(200000)
    alphas = [ZERO, from_int(1), from_int(2), from_int(3), OMEGA,
              OMEGA + from_int(1), OMEGA * from_int(2)]
    checked = 0
    for alpha in alphas:
        for x in range(5):
            fuel = [300000]
            try:
                want = oracle_F(alpha, x, fuel)
            except (OracleFuel, RecursionError):
                continue
            got = eval_F(STD, alpha, x, BIG)
            assert got == want, (o.show(alpha), x)
            checked += 1
    assert checked >= 20


def test_monotone_in_x_where_computable():
    alphas = [ZERO, from_int(1), from_int(2), from_int(3), OMEGA, parse("w*2"), parse("w^2")]
    for alpha in alphas:
        prev = None
        for x in range(6):
            got = eval_F(STD, alpha, x, Budget(max_value=10 ** 300, max_steps=200000))
            if not isinstance(got, int):
                break
            if prev is not None:
                assert got >= prev
            prev = got


def test_exceeded_value_certifies_lower_bound():
    got = eval_F(STD, from_int(3), 3, Budget(max_value=1000, max_steps=10 ** 7))
    assert isinstance(got, Exceeded)
    assert got.reason == "value"
    assert got.value_reached > 1000
    # the true value F_3(3) is far beyond the cap; the bound is sound


def test_exceeded_steps():
    got = eval_F(STD, parse("w^3"), 9, Budget(max_value=10 ** 10 ** 3, max_steps=100))
    assert isinstance(got, Exceeded)
    assert got.reason == "steps"


def test_eval_at_least():
    ok, val = eval_at_least(STD, from_int(2), 3, 24)
    assert ok and val == 24
    ok, val = eval_at_least(STD, from_int(2), 3, 25)
    assert not ok
    ok, val = eval_at_least(STD, parse("w*3"), 6, 10 ** 6)
    assert ok  # value cap exceeded quickly, certified without full evaluation


def test_ill_formed_system_detected():
    bad_fs = o.FundamentalSequenceTable(lambda lam, n: lam)  # fs not below limit
    ns = standard_system(bad_fs)
    with pytest.raises(IllFormedSystem):
        eval_F(ns, OMEGA, 2, BIG)


def test_dominates_same_alpha_same_system_equal():
    report = dominates_at(STD, from_int(2), STD, from_int(2), [2, 3, 4], BIG)
    assert all(pt.verdict == "eq" for pt in report.points)


def test_dominates_f2_vs_f3():
    report = dominates_at(STD, from_int(2), STD, from_int(3), [2, 3, 4, 5, 6], BIG)
    assert report.all_strictly_less()
    assert "asymptotic" in report.disclaimer


def test_dominates_cross_system_small_vs_limit():
    # standard F_2 against shifted F_w at x in 3..6
    report = dominates_at(STD, from_int(2), shifted_system(), OMEGA, [3, 4, 5, 6],
                          Budget(max_value=10 ** 6, max_steps=10 ** 7))
    assert report.all_strictly_less()


def test_shifted_system_bachmann_certified():
    assert o.check_bachmann(o.SHIFTED_FS, parse("w^2"), samples=12) is None
