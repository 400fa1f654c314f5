import doctest
import importlib
import inspect
import math
import pkgutil
import random
from fractions import Fraction

import pytest

import orbifold
import reference_vb_to_tf
from orbifold import cli, genfun, verify
from orbifold.exact import HalfExpLaurent, geometric_factor, monomial
from orbifold.geometry import derive_params, modified_euler_characteristic
from orbifold.genfun import (
    crosscheck,
    rank1_series,
    rank2_vb_closed_p12,
    rank2_vb_csets,
    rank2_vb_lambda,
    rank2_vb_r0,
    run_engine,
    vb_to_tf,
)
from orbifold.sheafdata import f4_exponent, f_exponent, tensor_shift
from orbifold.verify import CLASSES

P120 = derive_params(1, 2, 0)

# Frozen rank-2 locally-free windows for the (1,2,0) surface, keyed by
# doubled exponent.  Every engine reproduces these exactly; a handful of
# coefficients deliberately differ from older hand-expanded tables (the
# per-family corrections are documented in genfun.py), so the numbers below
# are the cross-validated lattice counts, not transcriptions.  Absent keys
# mean coefficient 0.
GOLD_120 = {
    (0, 0): {4: 2, 0: 5, -4: 10, -8: 18, -12: 18, -16: 36},
    (1, 0): {8: 1, 6: 3, 4: 4, 2: 7, 0: 9, -2: 12, -4: 13, -6: 15,
             -8: 20, -10: 18, -12: 21, -14: 28, -16: 25},
    (0, 1): {8: 2, 4: 6, 0: 10, -2: 4, -4: 14, -6: -4, -8: 18, -10: 8,
             -12: 24, -16: 26},
    (1, 1): {12: 2, 10: 4, 8: 6, 6: 8, 4: 10, 2: 12, 0: 14, -2: 16,
             -4: 18, -6: 24, -8: 22, -10: 24, -12: 32, -14: 28, -16: 30},
}

# Same engines on the product surfaces used by the r = 0 double check.
GOLD_110 = {0: -1, -4: 4, -8: 12, -10: 4, -12: 3, -14: 8, -16: 20,
            -20: 40, -22: 8}
GOLD_130 = {8: 1, 6: 2, 4: 2, 2: 2, 0: 6, -2: 2, -4: 8, -6: 6, -8: 11,
            -10: 4, -12: 18}
GOLD_230 = {16: 1, 12: 2, 8: 7, 4: 5, 0: 4, -4: 19}


def assert_window(series, expected):
    """Every slot of the sound window matches, including the implicit zeros."""
    top = max(max(expected), series.max2exp)
    for e2 in range(series.min2exp, top + 1):
        assert series.coeff2(e2) == expected.get(e2, 0), "exp2=%d" % e2


@pytest.fixture(scope="module")
def engines120():
    out = {}
    for cls in GOLD_120:
        out[cls] = {
            "csets": rank2_vb_csets(P120, cls, min2exp=-16),
            "r0": rank2_vb_r0(1, 2, cls, min2exp=-16),
            "closed": rank2_vb_closed_p12(cls, min2exp=-16),
            "lambda": rank2_vb_lambda(P120, cls, min2exp=-16),
        }
    return out


# ------------------------------------------------------------ rank 2 gold


def test_csets_matches_gold_windows(engines120):
    for cls, gold in GOLD_120.items():
        assert_window(engines120[cls]["csets"], gold)


def test_all_engines_agree_on_112_surface(engines120):
    # window spans at least 11 coefficient slots from each leading term
    for cls, wins in engines120.items():
        lead2 = wins["csets"].max2exp
        assert (lead2 + 16) // 2 + 1 >= 11
        for name in ("r0", "closed", "lambda"):
            assert wins["csets"].first_difference(wins[name]) is None, \
                (cls, name)
            assert_window(wins[name], GOLD_120[cls])


def test_csets_r0_agree_on_product_surfaces():
    # 12 slots measured from the leading exponent of each series
    for (a, b), gold, lo2 in [((1, 1), GOLD_110, -22),
                              ((1, 3), GOLD_130, -14),
                              ((2, 3), GOLD_230, -6)]:
        pr = derive_params(a, b, 0)
        sc = rank2_vb_csets(pr, (0, 0), min2exp=lo2)
        sr = rank2_vb_r0(a, b, (0, 0), min2exp=lo2)
        assert (sc.max2exp - lo2) // 2 + 1 >= 12
        assert sc.first_difference(sr) is None
        for e2, coeff in gold.items():
            assert sc.coeff2(e2) == coeff


def test_engines_agree_at_depth():
    # deep windows, where the csets and r0 sets add long runs of terms at
    # once: csets, r0 and the closed sums on (1,2,0) at q^-64, and csets
    # against r0 on two more r = 0 surfaces 40 below f
    for cls in GOLD_120:
        sc = rank2_vb_csets(P120, cls, min2exp=-128)
        assert rank2_vb_r0(1, 2, cls, min2exp=-128).first_difference(sc) \
            is None, cls
        assert rank2_vb_closed_p12(cls, min2exp=-128).first_difference(sc) \
            is None, cls
    for a, b in ((1, 3), (2, 3)):
        pr = derive_params(a, b, 0)
        for cls in GOLD_120:
            lo2 = 2 * (math.floor(f_exponent(pr, *cls)) - 40)
            sc = rank2_vb_csets(pr, cls, min2exp=lo2)
            assert rank2_vb_r0(a, b, cls, min2exp=lo2).first_difference(sc) \
                is None, ((a, b), cls)


def test_lambda_agrees_at_positive_twist():
    pr = derive_params(2, 3, 1)
    for cls, lo2 in [((0, 0), 0), ((1, 0), 2)]:
        sc = rank2_vb_csets(pr, cls, min2exp=lo2)
        sl = rank2_vb_lambda(pr, cls, min2exp=lo2)
        assert not sc.is_zero
        assert sc.first_difference(sl) is None


@pytest.mark.parametrize("abr", [(1, 2, 1), (1, 2, 2), (1, 3, 1), (2, 3, 1),
                                 (2, 3, 2)])
def test_lambda_matches_csets_on_twisted_surfaces(abr):
    pr = derive_params(*abr)
    for cls in GOLD_120:
        lo2 = 2 * (math.floor(f_exponent(pr, *cls)) - 2)
        sc = rank2_vb_csets(pr, cls, min2exp=lo2)
        sl = rank2_vb_lambda(pr, cls, min2exp=lo2)
        assert sc == sl, (abr, cls)


def test_negative_coefficient_is_real(engines120):
    # the (0,1) window carries a genuinely negative signed count
    for name in ("csets", "r0", "closed", "lambda"):
        assert engines120[(0, 1)][name].coeff2(-6) == -4


# ------------------------------------------------------------ rank 1


def partition_counts(limit):
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            p[n] += p[n - part]
    return p


def quadruple_counts(a, b, limit):
    """Partition quadruples with per-cell costs (a, b, b, a), by deficit.

    Two of the four partitions pay a per cell and two pay b, so the count
    at deficit d convolves two pair-counts over the splittings a*s + b*t = d.
    This is a from-scratch oracle: no series arithmetic involved.
    """
    p = partition_counts(limit)
    pairs = [sum(p[i] * p[d - i] for i in range(d + 1))
             for d in range(limit + 1)]
    out = []
    for d in range(limit + 1):
        total = 0
        for s in range(d // a + 1):
            rem = d - a * s
            if rem % b == 0:
                total += pairs[s] * pairs[rem // b]
        out.append(total)
    return out


def test_rank1_series_examples():
    assert_window(rank1_series(P120, (0, 0), -6),
                  {4: 1, 2: 2, 0: 7, -2: 14, -4: 35, -6: 66})
    # on the (1,1) product the series leads at q^1 (the hull characteristic)
    assert_window(rank1_series(derive_params(1, 1, 0), (0, 0), -6),
                  {2: 1, 0: 4, -2: 14, -4: 40, -6: 105})
    assert_window(rank1_series(derive_params(2, 3, 1), (0, 0), -6),
                  {10: 1, 6: 2, 4: 2, 2: 5, 0: 4, -2: 15, -4: 10, -6: 30})


def test_rank1_matches_partition_counts():
    deficits = 14
    for a, b, r in [(1, 1, 0), (1, 2, 0), (2, 3, 1), (1, 3, 2)]:
        pr = derive_params(a, b, r)
        oracle = quadruple_counts(a, b, deficits)
        for cls in [(0, 0), (1, 1)]:
            series = rank1_series(pr, cls, 0)
            lead2 = series.max2exp
            series = rank1_series(pr, cls, lead2 - 2 * deficits)
            for e2 in range(series.min2exp, lead2 + 1):
                off = lead2 - e2
                want = oracle[off // 2] if off % 2 == 0 else 0
                assert series.coeff2(e2) == want, (a, b, r, cls, e2)


def test_rank1_lead_is_hull_characteristic():
    rng = random.Random(1207)
    for _ in range(40):
        while True:
            a = rng.randrange(1, 6)
            b = rng.randrange(1, 6)
            if math.gcd(a, b) == 1:
                break
        pr = derive_params(a, b, rng.randrange(0, 4))
        cls = (rng.randrange(-2, 3), rng.randrange(-2, 3))
        chi = modified_euler_characteristic(pr, cls)
        series = rank1_series(pr, cls, 2 * chi - 6)
        assert series.max2exp == 2 * chi
        assert series.coeff2(2 * chi) == 1


def test_rank1_class_only_moves_the_lead():
    # the quadruple-partition tail never depends on the hull class, so any
    # two classes give the same series up to the characteristic shift
    rng = random.Random(41)
    for pr in (P120, derive_params(2, 3, 1)):
        for _ in range(25):
            c1 = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            c2 = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            d2 = 2 * (modified_euler_characteristic(pr, c2)
                      - modified_euler_characteristic(pr, c1))
            base = rank1_series(pr, c1, -8)
            moved = rank1_series(pr, c2, -8 + d2)
            assert moved == base.shift2(d2)


# ------------------------------------------------------------ vb -> tf


def test_vb_to_tf_unit_rank_reproduces_rank1():
    for a, b, r in [(1, 2, 0), (1, 1, 0), (2, 3, 1)]:
        pr = derive_params(a, b, r)
        for cls in [(0, 0), (1, 0), (0, 1)]:
            chi = modified_euler_characteristic(pr, cls)
            lo2 = 2 * chi - 16
            one = monomial(chi, 1, min2exp=lo2)
            assert vb_to_tf(one, 1, pr) == rank1_series(pr, cls, lo2)


def geometric_product(series, rank, pr):
    """vb_to_tf as an explicit product of expanded geometric factors."""
    depth = series.min2exp - series.max2exp
    out = series
    for base in (pr.a, pr.b):
        k = 1
        while 2 * base * k <= -depth:
            out = out * geometric_factor(base * k, 2 * rank, depth)
            k += 1
    assert out.min2exp == series.min2exp
    return out


def test_vb_to_tf_matches_geometric_products():
    inputs = [
        monomial(0, 1, min2exp=-12),
        # rational coefficients, odd cutoff, top above zero
        HalfExpLaurent(-9, {5: Fraction(1, 2), 1: Fraction(-2, 3), -3: 4}),
        # top below zero, odd cutoff
        HalfExpLaurent(-21, {-4: Fraction(-2, 3), -7: Fraction(1, 2), -10: 1}),
    ]
    for abr in [(1, 1, 0), (1, 2, 0), (2, 3, 1), (2, 5, 4)]:
        pr = derive_params(*abr)
        for series in inputs:
            for rank in (1, 2, 3):
                want = geometric_product(series, rank, pr)
                assert vb_to_tf(series, rank, pr) == want, (abr, series, rank)
        chi = modified_euler_characteristic(pr, (1, 0))
        above = rank1_series(pr, (1, 0), 2 * chi + 3)
        assert above.is_zero and above.min2exp == 2 * chi + 3


def _expand(step, n, power):
    """Prod_k (1 - x^(step*k))^power as a dense list of its first n terms."""
    out = [1] + [0] * (n - 1)
    for s in range(step, n, step):
        for _ in range(power):
            for i in range(n - 1, s - 1, -1):
                out[i] -= out[i - s]
    return out


@pytest.mark.parametrize("step, n", [(1, 1), (1, 2), (1, 400), (2, 401),
                                     (3, 3), (3, 4), (6, 555)])
def test_theta_taps_match_expanded_products(step, n):
    for cube, power in ((False, 1), (True, 3)):
        want = [(o, k) for o, k in enumerate(_expand(step, n, power)) if k]
        assert [(0, 1)] + genfun._theta_taps(step, n, cube) == want


@pytest.mark.parametrize("abr", [(1, 2, 0), (2, 3, 1), (2, 5, 4)])
def test_vb_to_tf_matches_running_sums_deep(abr):
    # windows to about q^-500, rational coefficients, odd and even cutoffs
    pr = derive_params(*abr)
    inputs = [
        HalfExpLaurent(-1001, {7: Fraction(3, 4), 2: Fraction(-5, 6),
                               -1: 2, -40: Fraction(1, 3)}),
        HalfExpLaurent(-1000, rank2_vb_csets(pr, (1, 1), -40).terms),
    ]
    for series in inputs:
        for rank in (1, 2, 3):
            assert vb_to_tf(series, rank, pr) == \
                reference_vb_to_tf.vb_to_tf(series, rank, pr), (series, rank)


@pytest.mark.parametrize("abr", [(1, 1, 0), (1, 2, 0), (2, 3, 1)])
def test_vb_to_tf_runs_each_occupied_parity_chain(abr):
    # every tap is even in doubled exponents, so terms at integer and at
    # half-integer exponents never mix: inputs on one parity, on the
    # other, and on both, where the top is half-integral and the integer
    # terms lie on the chain at odd offsets from it
    pr = derive_params(*abr)
    whole = {6: Fraction(2, 3), 0: -1, -8: Fraction(5, 7)}
    half = {7: Fraction(-1, 2), -5: 4, -11: Fraction(3, 5)}
    for terms in (whole, half, {**whole, **half}):
        for lo2 in (-61, -60):
            series = HalfExpLaurent(lo2, terms)
            for rank in (1, 2, 3):
                tf = vb_to_tf(series, rank, pr)
                assert tf == reference_vb_to_tf.vb_to_tf(series, rank, pr), \
                    (terms, lo2, rank)
                assert {e2 & 1 for e2 in tf.terms} == \
                    {e2 & 1 for e2 in terms}


def test_vb_to_tf_zero_and_rank_guard():
    zero = HalfExpLaurent(-4, {})
    assert vb_to_tf(zero, 3, P120).is_zero
    with pytest.raises(ValueError):
        vb_to_tf(monomial(0), 0, P120)


def test_vb_to_tf_refuses_non_integral_rank():
    series = rank1_series(P120, (0, 0), -4)
    assert vb_to_tf(series, 2.0, P120) == vb_to_tf(series, 2, P120)
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        vb_to_tf(series, 1.5, P120)


def test_vb_to_tf_rank2_first_correction():
    pr = derive_params(1, 1, 0)
    tf = vb_to_tf(monomial(0, 1, min2exp=-8), 2, pr)
    assert tf.coeff2(0) == 1
    # 2*rank factors of step one from each of the two coordinate lines
    assert tf.coeff2(-2) == 8


def test_vb_to_tf_rank2_on_gold_window(engines120):
    # convolving the frozen vb window stays exact on the shared window and
    # only adds nonnegative combinations
    vb = engines120[(0, 0)]["csets"]
    tf = vb_to_tf(vb, 2, P120)
    assert tf.min2exp == vb.min2exp
    assert tf.coeff2(4) == vb.coeff2(4)
    assert tf.coeff2(2) == vb.coeff2(2) + 4 * vb.coeff2(4)


# ------------------------------------------------------------ covariance


def test_rank2_shift_covariance(engines120):
    base = engines120[(0, 0)]["csets"]
    for (i, j), g in [((1, 0), 2), ((0, 1), 4), ((1, 1), 8)]:
        assert tensor_shift(i, j, (0, 0), P120) == g
        moved = rank2_vb_csets(P120, (2 * i, 2 * j), min2exp=-16 + 2 * g)
        assert moved == base.shift2(2 * g)


# ------------------------------------------------------------ plumbing


def test_explicit_bounds_match_stabilized(engines120):
    csets, lam = genfun.ENGINES["csets"], genfun.ENGINES["lambda"]
    auto = HalfExpLaurent(-12, engines120[(0, 0)]["csets"].terms)
    for cap in (64, 128):
        assert csets.window(P120, 0, 0, -12, cap) == auto
    auto_l = HalfExpLaurent(-12, engines120[(0, 0)]["lambda"].terms)
    assert lam.window(P120, 0, 0, -12, 64) == auto_l


# every coprime (a, b) with a <= 5, b <= 6
BOX_SURFACES = [(a, b) for a in range(1, 6) for b in range(1, 7)
                if math.gcd(a, b) == 1]


def _below_f(pr, cls, depth):
    return 2 * (math.floor(f_exponent(pr, *cls)) - depth)


def test_derived_box_is_complete():
    # the derived box and twice that box give the same window: csets and r0
    # at every depth from 1 to 10 units below f (the twist terms of the box
    # bind at shallow depths), lambda (slow at twice its box) at 2 units
    csets, r0, lam = map(genfun.ENGINES.get, ("csets", "r0", "lambda"))
    for a, b in BOX_SURFACES:
        for r in range(5):
            pr = derive_params(a, b, r)
            for cls in CLASSES:
                for depth in range(1, 11):
                    lo2 = _below_f(pr, cls, depth)
                    twice = 2 * csets.box(pr, *cls, lo2)
                    assert rank2_vb_csets(pr, cls, lo2) == \
                        csets.window(pr, *cls, lo2, twice), \
                        (a, b, r, cls, depth)
                    if r == 0:
                        assert rank2_vb_r0(a, b, cls, lo2) == \
                            r0.window(pr, *cls, lo2, twice), \
                            (a, b, cls, depth)
                if r <= 3:
                    lo2 = _below_f(pr, cls, 2)
                    twice = 2 * lam.box(pr, *cls, lo2)
                    assert rank2_vb_lambda(pr, cls, lo2) == \
                        lam.window(pr, *cls, lo2, twice), \
                        (a, b, r, cls)


def test_closed_t_limit_is_complete():
    for cls, term in genfun._P12_TERMS.items():
        # no term of family t lies above 8 - 2t^2
        # (a term above the engine's list top would raise IndexError)
        for t in range(1, 41):
            lo2 = 2 * (8 - 2 * t * t) + 1
            acc = [0] * (genfun._P12_TOP2 - lo2 + 1)
            term(acc, t, lo2)
            assert not any(acc), (cls, t)
        # the families the engine skips, up to twice its limit, add nothing
        for lo2 in range(-80, 17):
            tmax = genfun._p12_tmax(lo2)
            for t in range(tmax + 1, 2 * tmax + 1):
                acc = [0] * (genfun._P12_TOP2 - lo2 + 1)
                term(acc, t, lo2)
                assert not any(acc), (cls, lo2, t)


def test_closed_bound_stops_at_t_limit(monkeypatch):
    calls = []
    term = genfun._P12_TERMS[(0, 0)]

    def counted(acc, t, lo2):
        calls.append(t)
        term(acc, t, lo2)

    monkeypatch.setitem(genfun._P12_TERMS, (0, 0), counted)
    genfun.ENGINES["closed"].window(P120, 0, 0, -16, 256)
    assert calls == [1, 2] and genfun._p12_tmax(-16) == 2


def test_closed_families_are_tails_in_u(monkeypatch):
    # ``_ratios`` sums each d's terms over u as one geometric tail read off
    # family(1) and family(2): that needs (s, base2) affine in u, s > 0,
    # and a positive u-step at every d it walks
    seen = []
    monkeypatch.setattr(genfun, "_ratios",
                        lambda acc, p, d_hi, coeff, lo2, family:
                        seen.append((p, d_hi, family)))
    for cls, term in genfun._P12_TERMS.items():
        del seen[:]
        for t in range(1, 9):
            term([0] * (genfun._P12_TOP2 + 1), t, 0)
        assert seen, cls
        for p, d_hi, family in seen:
            (s1, b1), (s2, b2) = family(1), family(2)
            assert s1 > 0, (cls, p)
            assert [family(u) for u in range(1, 7)] == [
                (s1 + (u - 1) * (s2 - s1), b1 + (u - 1) * (b2 - b1))
                for u in range(1, 7)], (cls, p)
            assert all(b1 - b2 + 2 * (s2 - s1) * d > 0
                       for d in range(p, d_hi)), (cls, p)


def test_closed_agrees_with_csets_and_r0_at_q_minus_500():
    for cls in GOLD_120:
        closed = rank2_vb_closed_p12(cls, min2exp=-1000)
        assert rank2_vb_csets(P120, cls, min2exp=-1000).first_difference(
            closed) is None, cls
        assert rank2_vb_r0(1, 2, cls, min2exp=-1000).first_difference(
            closed) is None, cls


def test_window_truncation_consistency(engines120):
    deep = engines120[(1, 0)]["csets"]
    assert HalfExpLaurent(-6, deep.terms) == \
        rank2_vb_csets(P120, (1, 0), min2exp=-6)


def test_engines_refuse_non_integral_cutoff():
    for engine in genfun.ENGINES.values():
        with pytest.raises(ValueError, match="min2exp must be an integer"):
            engine.run(P120, (0, 0), -7.5)
    with pytest.raises(ValueError, match="min2exp must be an integer"):
        crosscheck(P120, (0, 0), -7.5)
    assert rank2_vb_csets(P120, (0, 0), -8.0) == rank2_vb_csets(P120, (0, 0), -8)


def test_criterion_1_overrides_need_lambda(monkeypatch):
    reports = tuple(crosscheck(P120, cls, -16) for cls in CLASSES)
    assert verify.criterion_1(reports).passed
    lam = verify.rank2_vb_lambda

    def dissenting(params, cls, min2exp):
        # at (0, 0) q^-2 csets, r0 and closed read 10 against the quoted 8
        win = lam(params, cls, min2exp)
        terms = win.terms
        if cls == (0, 0):
            terms[-4] += 1
        return HalfExpLaurent(win.min2exp, terms)

    monkeypatch.setattr(verify, "rank2_vb_lambda", dissenting)
    result = verify.criterion_1(reports)
    assert not result.passed
    assert "(0, 0) q^-2: quoted 8, csets 10, engines split" in result.detail


def test_windows_over_the_slot_limit_are_refused():
    # one slot over the limit: each path refuses before it builds its list
    over = genfun.MAX_WINDOW_SLOTS + 1
    lo2 = f4_exponent(P120.C, 0, 0, 0) // 2 - over + 1
    chi = modified_euler_characteristic(P120, (0, 0))
    calls = [(rank2_vb_csets, (P120, (0, 0), lo2)),
             (rank2_vb_r0, (1, 2, (0, 0), lo2)),
             (rank2_vb_lambda, (P120, (0, 0), lo2)),
             (rank2_vb_closed_p12, ((0, 0), genfun._P12_TOP2 - over + 1)),
             (vb_to_tf, (HalfExpLaurent(1 - over, {0: 1}), 2, P120)),
             (rank1_series, (P120, (0, 0), 2 * chi - over + 1))]
    for fn, args in calls:
        with pytest.raises(ValueError, match="spans %d coefficient slots, "
                           "more than the limit of 32768" % over):
            fn(*args)


def test_engine_window_refuses_over_the_slot_limit():
    # Engine.window is the one builder, and it checks the window before it
    # allocates; a small cap keeps each build cheap
    limit = genfun.MAX_WINDOW_SLOTS
    with pytest.raises(ValueError, match="spans 70009 coefficient slots"):
        genfun.ENGINES["csets"].window(P120, 0, 0, -70000, 2)
    for name, engine in genfun.ENGINES.items():
        top2 = engine.top2(P120, 0, 0)
        with pytest.raises(ValueError, match="spans %d coefficient slots, "
                           "more than the limit" % (limit + 1)):
            engine.window(P120, 0, 0, top2 - limit, 2)
        at_limit = engine.window(P120, 0, 0, top2 - limit + 1, 2)
        assert at_limit.min2exp == top2 - limit + 1, name
        assert at_limit.max2exp <= top2 and not at_limit.is_zero, name


def test_engines_refuse_bound():
    # a window is enumerated over the box derived from it, and nothing else
    calls = [(rank2_vb_csets, (P120, (0, 0), -4)),
             (rank2_vb_r0, (1, 2, (0, 0), -4)),
             (rank2_vb_closed_p12, ((0, 0), -4)),
             (rank2_vb_lambda, (P120, (0, 0), -4)),
             (run_engine, ("csets", P120, (0, 0), -4))]
    calls += [(engine.run, (P120, (0, 0), -4))
              for engine in genfun.ENGINES.values()]
    for fn, args in calls:
        assert "bound" not in inspect.signature(fn).parameters, fn
        with pytest.raises(TypeError):
            fn(*args, bound=256)
        with pytest.raises(TypeError):
            fn(*args, 256)
    for engine in genfun.ENGINES.values():
        assert list(inspect.signature(engine.run).parameters) == \
            ["params", "cls", "min2exp"]


def test_counts_at_derived_box_match_run():
    for abr in ((1, 2, 0), (2, 3, 0), (1, 1, 1), (1, 3, 2), (2, 5, 4)):
        pr = derive_params(*abr)
        for cls in CLASSES + ((2, -1),):
            lo2 = _below_f(pr, cls, 3)
            for name, engine in genfun.ENGINES.items():
                if engine.refusal(pr, *cls) is None:
                    box = engine.box(pr, *cls, lo2)
                    assert engine.window(pr, *cls, lo2, box) == \
                        engine.run(pr, cls, lo2), (name, abr, cls)


def test_r0_takes_integral_float_surface():
    assert rank2_vb_r0(1.0, 2, (0, 0), -4) == rank2_vb_r0(1, 2, (0, 0), -4)
    with pytest.raises(ValueError, match="a, b, r must be integers"):
        rank2_vb_r0(1.5, 2, (0, 0), -4)


def test_engine_domain_errors():
    with pytest.raises(ValueError):
        rank2_vb_csets(derive_params(1, 2, -1), (0, 0), -4)
    with pytest.raises(ValueError):
        rank2_vb_lambda(derive_params(1, 2, -1), (0, 0), -4)
    with pytest.raises(ValueError):
        rank2_vb_closed_p12((2, 0), -4)
    with pytest.raises(ValueError):
        rank2_vb_r0(2, 4, (0, 0), -4)


# ------------------------------------------------------------ crosscheck


def test_crosscheck_collects_applicable_engines():
    rep = crosscheck(P120, (0, 0), -8)
    assert rep.engines == ("csets", "r0", "closed")
    assert rep.agree and rep.first_disagreement2 is None

    rep4 = crosscheck(P120, (0, 0), -8, include_lambda=True)
    assert rep4.engines == ("csets", "r0", "closed", "lambda")
    assert rep4.agree

    rep23 = crosscheck(derive_params(2, 3, 0), (0, 0), 4)
    assert rep23.engines == ("csets", "r0")
    assert rep23.agree


def test_crosscheck_refuses_a_long_window_before_any_engine(monkeypatch):
    # csets' and r0's windows fit at lo2 = -32759; closed's, whose top is
    # higher, does not, and is refused before csets or r0 runs
    ran = []

    def stub(name):
        def run(params, cls, min2exp):
            ran.append(name)
            return HalfExpLaurent(min2exp, {})
        return run

    for name, engine in genfun.ENGINES.items():
        monkeypatch.setitem(genfun.ENGINES, name,
                            engine._replace(entry=stub(name)))
    with pytest.raises(ValueError, match="window spans 32772 coefficient "
                       "slots, more than the limit of 32768"):
        crosscheck(P120, (0, 0), -32759)
    assert ran == []
    assert crosscheck(P120, (0, 0), -32759 + 4).engines == \
        ("csets", "r0", "closed")
    assert ran == ["csets", "r0", "closed"]


def test_crosscheck_reports_shared_coefficients():
    rep = crosscheck(P120, (0, 1), -8, include_lambda=True)
    assert rep.agree
    for _, win in rep.windows:
        assert win.coeff2(-6) == -4

    data = rep.to_json()
    assert data["surface"] == {"a": 1, "b": 2, "r": 0}
    assert data["c1"] == {"m": 0, "n": 1}
    assert set(data["engines"]) == {"csets", "r0", "closed", "lambda"}
    assert data["agree"] is True
    assert data["first_disagreement_exp2"] is None


def test_crosscheck_reports_first_disagreement(monkeypatch, capsys):
    # r0 differs from csets at q^0 (csets: 5) and, higher, at q^1, where
    # csets has no term; the first disagreement is the higher exponent
    r0 = genfun.ENGINES["r0"]

    def perturbed(*args, **kwargs):
        win = r0.run(*args, **kwargs)
        terms = win.terms
        for e2, c in {2: 3, 0: 1}.items():
            terms[e2] = terms.get(e2, 0) + c
        return HalfExpLaurent(win.min2exp, terms)

    monkeypatch.setitem(genfun.ENGINES, "r0", r0._replace(entry=perturbed))
    rep = crosscheck(P120, (0, 0), -8)
    assert rep.engines == ("csets", "r0", "closed")
    assert dict(rep.windows)["csets"].coeff2(2) == 0
    assert not rep.agree
    assert rep.first_disagreement2 == 2
    assert rep.to_json()["agree"] is False
    assert rep.to_json()["first_disagreement_exp2"] == 2
    # the verify criterion that reads such reports names the exponent
    result = verify.criterion_2((rep,))
    assert not result.passed
    assert "csets, r0, closed disagree on (1,2,0) (0, 0) at q^1" \
        in result.detail

    code = cli.main(["crosscheck", "-a", "1", "-b", "2", "-m", "0", "-n", "0",
                     "--min-exp", "-4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "agree: no, first disagreement at q^1"


@pytest.mark.parametrize("name", sorted(
    info.name for info in pkgutil.iter_modules(orbifold.__path__)))
def test_module_doctests(name):
    module = importlib.import_module("orbifold." + name)
    result = doctest.testmod(module)
    assert result.failed == 0
    # a module with examples must run them
    assert result.attempted > 0 or ">>>" not in inspect.getsource(module)
