"""Tests for the exact arithmetic layer.

Expected values were frozen from independent oracles: naive dict-based
convolution for series products, float evaluation via cmath for cyclotomic
sums, and the defining product identity for cyclotomic polynomials.
"""

import cmath
import pickle
import random
from fractions import Fraction

import pytest

from orbifold.exact import (
    Cyclotomic,
    HalfExpLaurent,
    RatPoly,
    cyclotomic_poly,
    geometric_factor,
    monomial,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_poly_small_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_product_identity():
    # prod over d | n of Phi_d equals x^n - 1
    for n in range(1, 31):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_poly(d)
                out = [Fraction(0)] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expect = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        assert prod == expect


def test_cyclotomic_poly_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


# ---------------------------------------------------------------------------
# cyclotomic field arithmetic


def _num(z: Cyclotomic) -> complex:
    w = cmath.exp(2j * cmath.pi / z.order)
    return sum(float(c) * w**i for i, c in enumerate(z.coeffs))


def test_inverse_of_one_minus_zeta3():
    z = Cyclotomic.one(3) - Cyclotomic.root_power(3, 1)
    inv = z.inverse()
    expect = (Cyclotomic.from_rational(3, 2) + Cyclotomic.root_power(3, 1)) \
        * Cyclotomic.from_rational(3, Fraction(1, 3))
    assert inv == expect
    assert (z * inv) == Cyclotomic.one(3)


def test_conjugate_root_sum_is_rational():
    # sum of all primitive 5th roots of unity is -1
    s = Cyclotomic.zero(5)
    for k in range(1, 5):
        s = s + Cyclotomic.root_power(5, k)
    assert s.rational_part() == -1


def test_rational_part_raises_on_nonconstant():
    with pytest.raises(ValueError):
        Cyclotomic.root_power(5, 1).rational_part()


def test_inverse_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(120):
        n = rng.randrange(1, 13)
        deg = len(cyclotomic_poly(n)) - 1
        coeffs = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(deg))
        z = Cyclotomic(n, coeffs)
        if z.is_zero:
            continue
        assert z * z.inverse() == Cyclotomic.one(n)


def test_stabilizer_sum_matches_float_oracle():
    # the kind of sum the chi formula produces: sum over l of
    # zeta^(m*l) / (1 - zeta^(-a*l)), compared against cmath
    for n, a, m in [(5, 2, 1), (7, 3, 2), (8, 3, 5), (12, 5, 7)]:
        s = Cyclotomic.zero(n)
        for l in range(1, n):
            if (a * l) % n == 0:
                continue
            num = Cyclotomic.root_power(n, m * l)
            den = Cyclotomic.one(n) - Cyclotomic.root_power(n, -a * l)
            s = s + num * den.inverse()
        w = cmath.exp(2j * cmath.pi / n)
        ref = sum(
            w ** (m * l) / (1 - w ** (-a * l))
            for l in range(1, n)
            if (a * l) % n != 0
        )
        assert abs(_num(s) - ref) < 1e-9


def test_power_wraps_modulo_order():
    assert Cyclotomic.root_power(6, 7) == Cyclotomic.root_power(6, 1)
    assert Cyclotomic.root_power(6, -1) == Cyclotomic.root_power(6, 5)


# ---------------------------------------------------------------------------
# truncated Laurent series


def test_laurent_mul_polynomial_case():
    a = HalfExpLaurent(-4, {0: 1, -2: 2, -4: 3})
    b = HalfExpLaurent(-2, {0: 1, -2: 1})
    # (1 + 2/q + 3/q^2)(1 + 1/q): the second factor is unknown below 1/q,
    # so only coefficients above max(-2+0, -1+0) = -1 survive.
    prod = a * b
    assert prod.min2exp == -2
    assert prod.terms == {0: Fraction(1), -2: Fraction(3)}


def test_laurent_mul_matches_naive_convolution():
    rng = random.Random(99173)
    for _ in range(60):
        lo = -20
        a_terms = {rng.randrange(-6, 7): Fraction(rng.randrange(-4, 5)) for _ in range(5)}
        b_terms = {rng.randrange(-6, 7): Fraction(rng.randrange(-4, 5)) for _ in range(5)}
        a = HalfExpLaurent(lo, a_terms)
        b = HalfExpLaurent(lo, b_terms)
        conv = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                conv[e1 + e2] = conv.get(e1 + e2, Fraction(0)) + c1 * c2
        prod = a * b
        for e2, c in conv.items():
            if e2 >= prod.min2exp:
                assert prod.coeff2(e2) == c


def test_laurent_mul_window_is_sound():
    # multiply full series, truncate the product; versus truncate then multiply
    rng = random.Random(5511)
    for _ in range(60):
        full_a = {e: Fraction(rng.randrange(-3, 4)) for e in range(-12, 3)}
        full_b = {e: Fraction(rng.randrange(-3, 4)) for e in range(-12, 3)}
        fa = HalfExpLaurent(-40, full_a)
        fb = HalfExpLaurent(-40, full_b)
        exact = fa * fb
        ta = HalfExpLaurent(rng.randrange(-12, 0), full_a)
        tb = HalfExpLaurent(rng.randrange(-12, 0), full_b)
        approx = ta * tb
        for e2 in approx.terms:
            assert approx.coeff2(e2) == exact.coeff2(e2)
        for e2 in range(approx.min2exp, 4):
            assert approx.coeff2(e2) == exact.coeff2(e2)


def test_coeff_below_cutoff_raises():
    s = HalfExpLaurent(-2, {0: 1})
    with pytest.raises(ValueError):
        s.coeff2(-3)


def test_half_integer_exponents():
    s = monomial(Fraction(15, 2))
    t = monomial(Fraction(-1, 2), 3)
    prod = s * t
    assert prod.coeff2(14) == 3
    assert str(monomial(Fraction(-7, 2))).startswith("q^(-7/2)")


def test_zero_coefficients_are_dropped():
    s = HalfExpLaurent(-4, {0: 1, -2: 0})
    assert s.terms == {0: Fraction(1)}
    # a coefficient that cancels when terms are merged is dropped too
    t = HalfExpLaurent(-4, {0: s.terms[0] - 1})
    assert t.is_zero


def test_series_refuses_non_integral_cutoff_and_keys():
    with pytest.raises(ValueError, match="doubled exponents must be integers"):
        HalfExpLaurent(0, {2.5: 1})
    with pytest.raises(ValueError, match="min2exp must be an integer"):
        HalfExpLaurent(-7.5, {0: 1})
    # integral values of another type are kept as ints
    s = HalfExpLaurent(-4.0, {2.0: 1, Fraction(-2): 3})
    assert s == HalfExpLaurent(-4, {2: 1, -2: 3})
    assert [type(e2) for e2 in s.terms] == [int, int]


def test_integral_coefficients_are_ints_with_fraction_behaviour():
    ints = HalfExpLaurent(-9, {5: 1, 2: -1, 0: 7, -3: 14, -9: 2})
    fracs = HalfExpLaurent(-9, {e2: Fraction(c)
                                for e2, c in ints.terms.items()})
    assert ints == fracs and ints.first_difference(fracs) is None
    assert ints.to_json() == fracs.to_json() and str(ints) == str(fracs)
    assert {type(c) for s in (ints, fracs) for c in s.terms.values()} == {int}
    assert all(type(s.coeff2(e2)) is Fraction and s.coeff2(e2) == c
               for s in (ints, fracs) for e2, c in ints.terms.items())
    assert type(ints.coeff2(-1)) is Fraction and ints.coeff2(-1) == 0
    # a non-integral coefficient stays a Fraction; an integral one does not
    half = HalfExpLaurent(-2, {0: Fraction(1, 2), -2: Fraction(6, 3)})
    assert [type(c) for c in half.terms.values()] == [Fraction, int]
    assert half.coeff2(0) == Fraction(1, 2)
    assert str(half) == "1/2 + 2*q^-1 + O(q^-1)"


def test_coeff2_refuses_non_integral_exponent():
    s = HalfExpLaurent(-4, {0: 1, -2: 3})
    with pytest.raises(ValueError, match="doubled exponent must be an integer"):
        s.coeff2(2.5)
    assert s.coeff2(-2.0) == 3 and s.coeff2(2) == 0


def test_first_difference_is_highest_differing_exponent():
    s = HalfExpLaurent(-8, {4: 2, 0: 5, -4: 8})
    assert s.first_difference(s) is None
    # a term the other series lacks counts as a difference
    assert s.first_difference(HalfExpLaurent(-8, {4: 2, 2: 1, 0: 6})) == 2
    assert HalfExpLaurent(-8, {4: 2, 0: 6}).first_difference(s) == 0
    # below either cutoff nothing is compared
    assert s.first_difference(HalfExpLaurent(-2, {4: 2, 0: 5})) is None
    assert s.first_difference(HalfExpLaurent(-8, {4: 2, 0: 5})) == -4


def test_geometric_factor_binomials():
    s = geometric_factor(1, 2, -6)
    assert [s.coeff2(-2 * j) for j in range(4)] == [1, 2, 3, 4]
    t = geometric_factor(2, 1, -8)
    assert t.terms == {0: 1, -4: 1, -8: 1}
    u = geometric_factor(Fraction(1, 2), 3, -4)
    # coefficient of q^(-j/2) is binomial(j+2, 2)
    assert [u.coeff2(-j) for j in range(5)] == [1, 3, 6, 10, 15]


def test_geometric_factor_rejects_bad_args():
    with pytest.raises(ValueError):
        geometric_factor(0, 2, -4)
    with pytest.raises(ValueError):
        geometric_factor(1, 0, -4)


def test_series_json_round_trip():
    s = HalfExpLaurent(-8, {4: 2, 0: 5, -4: 8, -8: 18, 3: Fraction(1, 2)})
    data = s.to_json()
    assert data["variable"] == "q"
    assert data["min2exp"] == -8
    assert [t["exp2"] for t in data["terms"]] == [4, 3, 0, -4, -8]
    terms = {t["exp2"]: Fraction(t["coeff"]) for t in data["terms"]}
    assert HalfExpLaurent(data["min2exp"], terms) == s


def test_cutoff_drops_lower_terms():
    s = HalfExpLaurent(-8, {0: 1, -6: 4})
    t = HalfExpLaurent(-4, s.terms)
    assert t.terms == {0: Fraction(1)}
    with pytest.raises(ValueError):
        t.coeff2(-6)


# ---------------------------------------------------------------------------
# rational polynomials


def test_ratpoly_basics():
    p = RatPoly([1, 2, 1])
    assert p.degree == 2
    assert (p - p).degree == -1


def test_ratpoly_json_round_trip():
    p = RatPoly([Fraction(1, 2), 0, 3])
    data = p.to_json()
    assert data == {"coeffs": ["1/2", "0", "3"]}
    assert RatPoly(map(Fraction, data["coeffs"])) == p


def test_ratpoly_keeps_coefficients_as_built():
    p = RatPoly((3, Fraction(1, 2), Fraction(4), 0, Fraction(0)))
    # trailing zeros go; an int stays an int and a Fraction a Fraction
    assert p.coeffs == (3, Fraction(1, 2), 4) and p.degree == 2
    assert list(map(type, p.coeffs)) == [int, Fraction, Fraction]
    assert RatPoly((0, 0)).coeffs == () and str(RatPoly(())) == "0"
    # anything else goes through Fraction once, exactly
    q = RatPoly((0.1, "-2/6", 2.5, "0"))
    assert q.coeffs == (Fraction(3602879701896397, 36028797018963968),
                        Fraction(-1, 3), Fraction(5, 2))
    assert list(map(type, q.coeffs)) == [Fraction] * 3
    # coeff is a Fraction, past the degree too
    assert [p.coeff(i) for i in range(-1, 5)] == [0, 3, Fraction(1, 2), 4, 0, 0]
    assert {type(p.coeff(i)) for i in range(-1, 5)} == {Fraction}
    # the int form and the all-Fraction form are one value
    same = RatPoly(tuple(map(Fraction, p.coeffs)))
    assert p == same and not p != same and hash(p) == hash(same)
    assert str(p) == str(same) == "4*T^2 + 1/2*T + 3"
    assert p.to_json() == same.to_json() == {"coeffs": ["3", "1/2", "4"]}
    back = pickle.loads(pickle.dumps(p))
    assert back == same and back.coeffs == p.coeffs
    assert list(map(type, back.coeffs)) == [int, Fraction, Fraction]
    # sums, differences and scaling keep ints where they can
    r = p + RatPoly((1, Fraction(1, 2)))
    assert r.coeffs == (4, 1, 4)
    assert list(map(type, r.coeffs)) == [int, Fraction, Fraction]
    assert (p - p * 1).coeffs == () and (p * -2).coeffs == (-6, -1, -8)
