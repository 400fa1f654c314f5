import cmath
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

import reference_rr
from orbifold import genfun, geometry, sheafdata, verify
from orbifold.exact import RatPoly
from orbifold.geometry import (
    ADJACENT_PAIRS,
    HirzebruchParams,
    PicClass,
    chart_weight_tables,
    coarse_ample,
    coarse_cartier,
    coarse_cartier_ample,
    coarse_fan,
    derive_params,
    euler_characteristic,
    hilbert_polynomial,
    inertia_components,
    modified_euler_characteristic,
    modified_hilbert_polynomial,
    point_sheaf_mhp,
    polarization_pullback,
    rank2_indecomposable_mhp,
)
from orbifold.intlattice import IntMatrix, integer_kernel, lattices_equal, solve_linear_system
from orbifold.stackyfan import hirzebruch_fan


def grid_params():
    """All coprime 1 <= a < b <= 6 with r in [-6, 6]."""
    out = []
    for a in range(1, 7):
        for b in range(a + 1, 7):
            if math.gcd(a, b) != 1:
                continue
            for r in range(-6, 7):
                out.append(derive_params(a, b, r))
    return out


# ------------------------------------------------------------ parameters


def test_derive_params_examples():
    pr = derive_params(1, 2, 0)
    assert (pr.s, pr.t, pr.p, pr.q) == (0, 0, 2, 1)
    assert (pr.u, pr.v1, pr.v2, pr.C) == (0, 0, 0, 4)

    pr = derive_params(2, 3, 1)
    assert (pr.s, pr.t, pr.p, pr.q) == (2, -1, 1, 1)
    assert (pr.u, pr.v1, pr.v2, pr.C) == (1, 1, 1, 10)

    pr = derive_params(1, 1, 5)
    assert (pr.s, pr.t, pr.u, pr.C) == (0, 5, 5, 2)

    pr = derive_params(2, 1, 2)
    assert (pr.s, pr.t, pr.p, pr.q) == (0, 2, 1, 2)


def test_derive_params_rejects_bad_input():
    with pytest.raises(ValueError):
        derive_params(2, 4, 1)
    with pytest.raises(ValueError):
        derive_params(0, 1, 0)
    with pytest.raises(ValueError):
        derive_params(3, -1, 0)


def test_derive_params_refuses_non_integral_input():
    with pytest.raises(ValueError, match="a, b, r must be integers"):
        derive_params(1.5, 2, 0.7)
    assert derive_params(1.0, 2.0, 0) == derive_params(1, 2, 0)


_P120 = derive_params(1, 2, 0)
# every public function that takes a class, as a call on that class alone
CLASS_TAKERS = {
    "euler_characteristic":
        lambda c: euler_characteristic(_P120, c),
    "modified_euler_characteristic":
        lambda c: modified_euler_characteristic(_P120, c),
    "hilbert_polynomial": lambda c: hilbert_polynomial(_P120, c),
    "modified_hilbert_polynomial":
        lambda c: modified_hilbert_polynomial(_P120, c),
    "rank2_chi_exponent":
        lambda c: sheafdata.rank2_chi_exponent(_P120, c, (1, 0, 2, 1)),
    "tensor_shift": lambda c: sheafdata.tensor_shift(1, 2, c, _P120),
    "Engine.run": lambda c: genfun.ENGINES["csets"].run(_P120, c, -4),
    "crosscheck": lambda c: genfun.crosscheck(_P120, c, -4),
    "rank2_vb_closed_p12": lambda c: genfun.rank2_vb_closed_p12(c, -4),
    "rank1_series": lambda c: genfun.rank1_series(_P120, c, -4),
    "rank2_vb_csets": lambda c: genfun.rank2_vb_csets(_P120, c, -4),
}


@pytest.mark.parametrize("name", CLASS_TAKERS)
def test_class_refuses_non_integral_coordinates(name):
    """Each class-taking function refuses what is not two integers, and
    reads any two integral values as the tuple of ints."""
    call = CLASS_TAKERS[name]
    for bad in ((0.5, 1.7), (0, 1, 2), ("0", 1)):
        with pytest.raises(ValueError, match="two integers"):
            call(bad)
    want = call((0, 1))
    for same in ((0.0, 1), [0, 1], PicClass(0, 1)):
        assert call(same) == want, same


def test_class_refuses_what_tuple_or_int_rejects():
    """A class that ``tuple`` or ``int`` rejects is refused with the class
    message, not with their own TypeError or ValueError."""
    message = r"^a class is two integers \(m, n\)$"
    for bad in (5, (None, 1), ([1], 1), ("x", 1), (float("inf"), 1)):
        with pytest.raises(ValueError, match=message):
            euler_characteristic(_P120, bad)
        if bad != 5:
            with pytest.raises(ValueError, match=message):
                PicClass(*bad)


def test_class_hits_build_no_pic_class(monkeypatch):
    """On a tuple of ints, chi and both Hilbert polynomials build no
    PicClass, once their sums are cached."""
    built = []
    init = PicClass.__init__

    def counting_init(self, m, n):
        built.append((m, n))
        init(self, m, n)

    for f in (euler_characteristic, modified_euler_characteristic,
              hilbert_polynomial, modified_hilbert_polynomial):
        f(_P120, (2, -1))
    monkeypatch.setattr(PicClass, "__init__", counting_init)
    assert PicClass(0, 1).m == 0 and built == [(0, 1)]
    del built[:]
    for f in (euler_characteristic, modified_euler_characteristic,
              hilbert_polynomial, modified_hilbert_polynomial):
        f(_P120, (2, -1))
        assert built == [], f.__name__


def test_derive_params_arithmetic_relations():
    rng = random.Random(20240)
    for _ in range(200):
        a = rng.randrange(1, 12)
        b = rng.randrange(1, 12)
        if math.gcd(a, b) != 1:
            continue
        r = rng.randrange(-15, 16)
        pr = derive_params(a, b, r)
        assert pr.r == pr.s * a + pr.t * b
        assert 0 <= pr.s < b or (b == 1 and pr.s == 0)
        assert pr.r == pr.u * a * b - pr.v1 * a - pr.v2 * b
        assert 0 <= pr.v1 < b or (b == 1 and pr.v1 == 0)
        assert 0 <= pr.v2 < a or (a == 1 and pr.v2 == 0)
        # p, q are coprime divisors of r, and they divide the shear pair
        assert pr.p == math.gcd(b, r) and pr.q == math.gcd(a, r)
        assert r % (pr.p * pr.q) == 0
        assert pr.s % pr.p == 0
        assert pr.t % pr.q == 0
        assert pr.C == a + b + a * b - 1
        assert pr.C % 2 == 0


# ------------------------------------------------------------ charts


def test_chart_weight_tables_structure():
    pr = derive_params(2, 3, 1)
    charts = chart_weight_tables(pr)
    assert [c.index for c in charts] == [1, 2, 3, 4]
    assert [c.coordinates for c in charts] == [
        ("x", "y"), ("y", "z"), ("z", "w"), ("w", "x")]
    assert [c.group_order for c in charts] == [3, 2, 2, 3]
    for c in charts:
        assert all(0 <= e < c.group_order for e in c.action_exponents)


def test_chart_weight_tables_values():
    # (2,3,1): s=2, so chart 1 action is (tau^2, tau^-4) on mu_3
    charts = chart_weight_tables(derive_params(2, 3, 1))
    assert charts[0].action_exponents == (2, 2)
    assert charts[3].action_exponents == (1, 2)

    charts = chart_weight_tables(derive_params(2, 1, 2))
    u2 = charts[1]
    assert u2.group_order == 2
    assert u2.t_weights == ((2, 1), (-1, 0))

    for c in chart_weight_tables(derive_params(1, 1, 0)):
        assert c.group_order == 1
        assert c.action_exponents == (0, 0)


def test_chart_t_weight_tables_frozen():
    a, b, r = 3, 4, -2
    pr = derive_params(a, b, r)
    charts = chart_weight_tables(pr)
    assert charts[0].t_weights == ((a, 0), (0, 1))
    assert charts[1].t_weights == ((r, 1), (-b, 0))
    assert charts[2].t_weights == ((-b, 0), (-r, -1))
    assert charts[3].t_weights == ((0, -1), (a, 0))
    assert charts[0].overlap_t_weights == ((0, 1), (-1, 0))
    assert charts[1].overlap_t_weights == ((-b, 0), (-r, -1))
    assert charts[2].overlap_t_weights == ((-r, -1), (1, 0))
    assert charts[3].overlap_t_weights == ((a, 0), (0, 1))


# ------------------------------------------------------------ Euler characteristics


def _chi_float(pr: HirzebruchParams, m: int, n: int) -> complex:
    """Same six-term sum evaluated with floating point roots of unity.

    Exercises a completely different arithmetic path than the cyclotomic
    field computation, so it catches bookkeeping mistakes there.
    """
    a, b, r, s, t, p, q = pr.a, pr.b, pr.r, pr.s, pr.t, pr.p, pr.q

    def w(order, k):
        return cmath.exp(2j * cmath.pi * k / order)

    total = complex((1 + n) / (2 * a) + (1 + n) / (2 * b)
                    + (1 + n) * m / (a * b) - n * (n + 1) * r / (2 * a * b))
    for l in range(1, p):
        total += w(p, m * l) / (1 - w(p, -a * l)) * (n + 1) / b
    for l in range(1, q):
        total += w(q, m * l) / (1 - w(q, -b * l)) * (n + 1) / a
    for l in range(1, b):
        if l % (b // p) == 0:
            continue
        total += (w(b, m * l) / (1 - w(b, -a * l))
                  * (1 - w(b, -(n + 1) * s * a * l)) / (1 - w(b, -s * a * l)) / b)
    for l in range(1, a):
        if l % (a // q) == 0:
            continue
        total += (w(a, m * l) / (1 - w(a, -b * l))
                  * (1 - w(a, -(n + 1) * t * b * l)) / (1 - w(a, -t * b * l)) / a)
    return total


def test_chi_structure_sheaf_is_one():
    for pr in grid_params():
        assert euler_characteristic(pr, (0, 0)) == 1


def test_chi_section_class():
    for pr in grid_params():
        assert euler_characteristic(pr, (0, 1)) == 2 - pr.u


def test_chi_fiber_classes():
    for pr in grid_params():
        if pr.a >= 2:
            assert euler_characteristic(pr, (pr.a, 0)) == 1
            assert euler_characteristic(pr, (pr.b, 0)) == 1
        else:
            # on the a = 1 boundary the fiber class gains a section
            assert euler_characteristic(pr, (pr.b, 0)) == 2


def test_chi_product_surface():
    pr = derive_params(1, 1, 0)
    for m in range(-4, 5):
        for n in range(-4, 5):
            assert euler_characteristic(pr, (m, n)) == (1 + m) * (1 + n)


def test_chi_matches_float_evaluation():
    rng = random.Random(9157)
    for _ in range(120):
        a = rng.randrange(1, 8)
        b = rng.randrange(1, 8)
        if math.gcd(a, b) != 1:
            continue
        pr = derive_params(a, b, rng.randrange(-9, 10))
        m = rng.randrange(-8, 9)
        n = rng.randrange(-8, 9)
        exact = euler_characteristic(pr, (m, n))
        approx = _chi_float(pr, m, n)
        assert abs(approx.imag) < 1e-7
        assert abs(approx.real - exact) < 1e-6


def test_chi_always_integer_on_small_grid():
    for pr in grid_params():
        for m in range(-4, 5):
            for n in range(-4, 5):
                euler_characteristic(pr, (m, n))


# ------------------------------------------------ Riemann-Roch in integers


def test_riemann_roch_matches_fraction_reference():
    """chi (m, n in [-10, 10]) and both Hilbert polynomials (in [-3, 3]),
    each one integer numerator over a known denominator, equal their
    term-by-term Fraction assembly."""
    for pr in grid_params():
        for m in range(-10, 11):
            for n in range(-10, 11):
                assert euler_characteristic(pr, (m, n)) == \
                    reference_rr.euler_characteristic(pr, m, n), (pr, m, n)
        for m in range(-3, 4):
            for n in range(-3, 4):
                assert hilbert_polynomial(pr, (m, n)) == \
                    reference_rr.hilbert_polynomial(pr, m, n), (pr, m, n)
                assert modified_hilbert_polynomial(pr, (m, n)) == \
                    reference_rr.modified_hilbert_polynomial(pr, m, n), \
                    (pr, m, n)


# sha256 of the text and of the sorted JSON of both Hilbert polynomials,
# one line per class, over verify.GRID x m, n in [-3, 3], read when every
# coefficient was still stored as a Fraction
HILBERT_DIGESTS = {
    (hilbert_polynomial, "str"):
        "b92ae6c6c01276e617a0fe9259a2053349c44ca63d52ba701e46c1a3fb58a97f",
    (hilbert_polynomial, "json"):
        "1a99aa00e2a33fe18cb78fc4504002108e1349f45ac28b5c21a809124144e74b",
    (modified_hilbert_polynomial, "str"):
        "a10bd40463f4be1cafee59180e21740525f6ef8ebb970417027ac30ac62e82ab",
    (modified_hilbert_polynomial, "json"):
        "e5047c2d4299d92cf05515528b553f334dede2ffd999fe87135f6ec37b694bf5",
}


@pytest.mark.parametrize("function, form", HILBERT_DIGESTS)
def test_hilbert_polynomials_match_pinned_digests(function, form):
    render = str if form == "str" else \
        (lambda poly: json.dumps(poly.to_json(), sort_keys=True))
    digest = hashlib.sha256()
    for abr in verify.GRID:
        pr = derive_params(*abr)
        for m in range(-3, 4):
            for n in range(-3, 4):
                digest.update(render(function(pr, (m, n))).encode() + b"\n")
    assert digest.hexdigest() == HILBERT_DIGESTS[function, form]


def test_doubled_sums_on_the_grid_are_ints():
    """Every doubled sum that ``euler_characteristic`` reads on the grid."""
    for pr in grid_params():
        a, b, p, q = pr.a, pr.b, pr.p, pr.q
        for m in range(-10, 11):
            assert type(geometry._rho_sum(p, a % p, m % p)) is int
            assert type(geometry._rho_sum(q, b % q, m % q)) is int
            for n1 in range(-9, 12):
                assert type(geometry._sigma_sum(
                    b, b // p, a % b, (pr.s * a) % b, m % b, n1 % b)) is int
                assert type(geometry._sigma_sum(
                    a, a // q, b % a, (pr.t * b) % a, m % a, n1 % a)) is int


def test_doubled_rho_sum_closed_form():
    """With k = m (-a)^(-1) mod order, twice the rho sum is order - 1 at
    k = 0 and 2k - order - 1 otherwise."""
    for order in range(1, 10):
        for a_coef in range(1, max(order, 2)):
            if math.gcd(a_coef, order) != 1:
                continue
            for m_res in range(order):
                k = m_res * pow(-a_coef, -1, order) % order
                want = order - 1 if k == 0 else 2 * k - order - 1
                assert geometry._rho_sum(order, a_coef, m_res) == want, \
                    (order, a_coef, m_res)


def test_doubled_sum_refuses_a_non_integer():
    assert geometry._twice(Fraction(3, 2), "rho") == 3
    with pytest.raises(ArithmeticError, match="twice the rho sum"):
        geometry._twice(Fraction(1, 4), "rho")


# ------------------------------------------------------------ Hilbert polynomials


def test_polarization_pullback_examples():
    assert polarization_pullback(derive_params(1, 2, 0)) == PicClass(2, 1)
    assert polarization_pullback(derive_params(2, 3, 1)) == PicClass(12, 6)
    assert polarization_pullback(derive_params(1, 1, 0)) == PicClass(1, 1)


def test_hilbert_polynomial_example():
    poly = hilbert_polynomial(derive_params(1, 2, 0), (0, 0))
    assert [str(c) for c in poly.coeffs] == ["1", "2", "1"]


def test_hilbert_polynomial_interpolates_chi():
    rng = random.Random(3344)
    for _ in range(40):
        a = rng.randrange(1, 6)
        b = rng.randrange(1, 6)
        if math.gcd(a, b) != 1:
            continue
        pr = derive_params(a, b, rng.randrange(-5, 6))
        cls = PicClass(rng.randrange(-4, 5), rng.randrange(-4, 5))
        eps = polarization_pullback(pr)
        poly = hilbert_polynomial(pr, cls)
        assert poly.degree <= 2
        for big_t in range(4):
            shifted = cls.shifted(big_t * eps.m, big_t * eps.n)
            value = sum(c * big_t ** i for i, c in enumerate(poly.coeffs))
            assert value == euler_characteristic(pr, shifted)


def test_modified_hilbert_polynomial_example():
    poly = modified_hilbert_polynomial(derive_params(1, 2, 0), (0, 0))
    assert [str(c) for c in poly.coeffs] == ["2", "4", "2"]


def test_modified_hilbert_is_sum_of_shifts():
    rng = random.Random(5120)
    for _ in range(30):
        a = rng.randrange(1, 6)
        b = rng.randrange(1, 6)
        if math.gcd(a, b) != 1:
            continue
        pr = derive_params(a, b, rng.randrange(-5, 6))
        m = rng.randrange(-4, 5)
        n = rng.randrange(-4, 5)
        lhs = modified_hilbert_polynomial(pr, (m, n))
        rhs = RatPoly(())
        for k in range(a * b):
            rhs = rhs + hilbert_polynomial(pr, (m + k, n))
        assert lhs.coeffs == rhs.coeffs


def test_modified_euler_characteristic_is_constant_term():
    rng = random.Random(808)
    for _ in range(40):
        a = rng.randrange(1, 7)
        b = rng.randrange(1, 7)
        if math.gcd(a, b) != 1:
            continue
        pr = derive_params(a, b, rng.randrange(-6, 7))
        m = rng.randrange(-5, 6)
        n = rng.randrange(-5, 6)
        chi = modified_euler_characteristic(pr, (m, n))
        assert isinstance(chi, int)
        assert modified_hilbert_polynomial(pr, (m, n)).coeff(0) == chi


# ------------------------------------------------------------ point sheaves


def test_point_sheaf_constants():
    for pr in grid_params():
        for chart, expected in ((1, pr.a), (2, pr.b), (3, pr.b), (4, pr.a)):
            span = pr.b if chart in (1, 4) else pr.a
            for grading in range(span):
                assert point_sheaf_mhp(pr, chart, grading) == expected


def test_point_sheaf_rejects_bad_chart():
    pr = derive_params(1, 2, 0)
    with pytest.raises(ValueError):
        point_sheaf_mhp(pr, 5)
    with pytest.raises(ValueError, match="grading must be an integer"):
        point_sheaf_mhp(pr, 1, 2.5)


# ------------------------------------------------------------ inertia


def test_inertia_components_examples():
    comps = inertia_components(derive_params(2, 3, 1))
    by_source = {c.source: c for c in comps}
    assert set(by_source) == {"identity", "sigma1", "sigma2", "sigma3", "sigma4"}
    assert by_source["identity"].dimension == 2
    assert by_source["sigma1"].stabilizer_params == (1, 2)
    assert by_source["sigma2"].stabilizer_params == (1,)
    assert by_source["sigma3"].stabilizer_params == (1,)
    assert by_source["sigma4"].stabilizer_params == (1, 2)

    comps = inertia_components(derive_params(1, 2, 0))
    by_source = {c.source: c for c in comps}
    assert set(by_source) == {"identity", "rho1"}
    assert by_source["rho1"].stabilizer_params == (1,)
    assert by_source["rho1"].dimension == 1

    assert [c.source for c in inertia_components(derive_params(1, 1, 0))] == ["identity"]


def test_inertia_component_count_formula():
    for pr in grid_params():
        comps = inertia_components(pr)
        count = sum(max(1, len(c.stabilizer_params)) for c in comps)
        n_sigma_b = sum(1 for l in range(1, pr.b) if l % (pr.b // pr.p) != 0)
        n_sigma_a = sum(1 for l in range(1, pr.a) if l % (pr.a // pr.q) != 0)
        assert count == 1 + (pr.p - 1) + (pr.q - 1) + 2 * n_sigma_b + 2 * n_sigma_a


def test_inertia_listing_over_the_limit_is_refused(monkeypatch):
    # the refusal counts 2 (a + b) - p - q - 2 values of l, exactly the
    # listing's length; (2,3;1) lists 6 and (1,5;1) would list 8
    for pr in grid_params():
        assert sum(len(c.stabilizer_params) for c in inertia_components(pr)) \
            == 2 * (pr.a + pr.b) - pr.p - pr.q - 2
    monkeypatch.setattr(geometry, "MAX_INERTIA_ENTRIES", 6)
    assert len(inertia_components(derive_params(2, 3, 1))) == 5
    with pytest.raises(ValueError,
                       match="holds 8 values of l, more than the limit of 6"):
        inertia_components(derive_params(1, 5, 1))


# ------------------------------------------------------------ coarse space


def test_coarse_fan_examples():
    fan = coarse_fan(derive_params(2, 3, 1))
    assert tuple(r.free for r in fan.rays) == ((3, 2), (0, 1), (-2, -1), (0, -1))
    assert set(fan.max_cones) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    fan = coarse_fan(derive_params(1, 2, 0))
    assert tuple(r.free for r in fan.rays) == ((1, 0), (0, 1), (-1, 0), (0, -1))


def _cartier_solutions(fan, coeffs):
    """Per-cone linear characters m_sigma with <m, rho> = -t_rho, or None."""
    sols = []
    for cone in fan.max_cones:
        rows = IntMatrix.from_rows([fan.rays[i].free for i in cone])
        target = [-coeffs[i] for i in cone]
        sol = solve_linear_system(rows, target)
        if sol is None:
            return None
        sols.append(tuple(sol))
    return sols


def _is_ample_weil(fan, coeffs):
    """Strict convexity of the support function of a Cartier divisor."""
    sols = _cartier_solutions(fan, coeffs)
    if sols is None:
        return False
    for cone, m in zip(fan.max_cones, sols):
        for i, ray in enumerate(fan.rays):
            if i in cone:
                continue
            if m[0] * ray.free[0] + m[1] * ray.free[1] <= -coeffs[i]:
                return False
    return True


def test_coarse_cartier_matches_cone_solver():
    for pr in grid_params():
        fan = coarse_fan(pr)
        for t1 in range(-6, 7):
            for t2 in range(-6, 7):
                expected = _cartier_solutions(fan, (t1, t2, 0, 0)) is not None
                assert coarse_cartier(pr, t1, t2) == expected, (pr, t1, t2)


def test_coarse_cartier_generators():
    pr = derive_params(2, 3, 1)
    assert coarse_cartier(pr, 3, 0)
    assert not coarse_cartier(pr, 1, 0)
    assert not coarse_cartier(pr, 3, 3)
    assert coarse_cartier(pr, 3, 6)

    # when p = b every multiple of D1 is already Cartier
    pr = derive_params(1, 2, 0)
    assert coarse_cartier(pr, 1, 0)
    assert coarse_cartier(pr, 1, 1)


def test_coarse_ample_matches_support_function():
    for pr in grid_params():
        fan = coarse_fan(pr)
        bp = pr.b // pr.p
        bapq = (pr.b * pr.a) // (pr.p * pr.q)
        for t1 in range(-3, 4):
            for t4 in range(-3, 4):
                coeffs = (t1 * bp, 0, 0, t4 * bapq)
                cartier, ample = coarse_cartier_ample(pr, t1, t4)
                assert cartier
                assert ample == coarse_ample(pr, t1, t4)
                assert ample == _is_ample_weil(fan, coeffs), (pr, t1, t4)


# ------------------------------------------------------------ rank-2 closed form


def test_rank2_mhp_worked_example():
    pr = derive_params(1, 2, 0)
    poly = rank2_indecomposable_mhp(pr, 0, 0, (1, 1, 2, 1))
    assert poly.coeff(0) == -3
    poly = rank2_indecomposable_mhp(pr, 0, 0, (1, 1, 2, 1), [(1, 2)])
    assert poly.coeff(0) == -2
    poly = rank2_indecomposable_mhp(pr, 0, 0, (1, 1, 2, 1), [(2, 1)])
    assert poly.coeff(0) == -2


def test_rank2_mhp_zero_jumps_doubles_line_bundle():
    for pr in (derive_params(1, 2, 0), derive_params(2, 3, 1)):
        for b1, b2 in ((0, 0), (1, -1), (-2, 3)):
            lhs = rank2_indecomposable_mhp(pr, b1, b2, (0, 0, 0, 0))
            rhs = modified_hilbert_polynomial(pr, (-b1, -b2)) * 2
            assert lhs.coeffs == rhs.coeffs


def test_rank2_mhp_coincidences_add_products():
    rng = random.Random(4097)
    for _ in range(25):
        a = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        if math.gcd(a, b) != 1:
            continue
        pr = derive_params(a, b, rng.randrange(-4, 5))
        lam = (a * rng.randrange(0, 3), rng.randrange(0, 4),
               b * rng.randrange(0, 3), rng.randrange(0, 4))
        base = rank2_indecomposable_mhp(pr, 0, 0, lam)
        jumps = dict(zip((1, 2, 3, 4), lam))
        for pair in ADJACENT_PAIRS:
            i, j = sorted(pair)
            with_pair = rank2_indecomposable_mhp(pr, 0, 0, lam, [pair])
            delta = with_pair - base
            assert delta.degree <= 0
            assert delta.coeff(0) == jumps[i] * jumps[j]


def test_rank2_mhp_validation():
    pr = derive_params(2, 3, 1)
    with pytest.raises(ValueError):
        rank2_indecomposable_mhp(pr, 0, 0, (1, 0, 3, 0))
    with pytest.raises(ValueError):
        rank2_indecomposable_mhp(pr, 0, 0, (2, 0, 1, 0))
    with pytest.raises(ValueError):
        rank2_indecomposable_mhp(pr, 0, 0, (2, 0, 3, -1))
    with pytest.raises(ValueError):
        rank2_indecomposable_mhp(pr, 0, 0, (2, 0, 3, 0), [(1, 3)])
    with pytest.raises(ValueError, match="lam must be four integers"):
        rank2_indecomposable_mhp(pr, 0, 0, (2.5, 0, 3, 0))
    with pytest.raises(ValueError, match="not an adjacent pair"):
        rank2_indecomposable_mhp(pr, 0, 0, (2, 0, 3, 0), [(1.5, 2)])


# ------------------------------------------------------------ kernel lattice


def test_surface_ray_matrix_kernel():
    for pr in grid_params():
        fan = hirzebruch_fan(pr.a, pr.b, pr.r)
        kernel = integer_kernel(fan.ray_matrix())
        expected = ((pr.a, 0, pr.b, pr.r), (0, 1, 0, 1))
        assert lattices_equal(kernel, expected)


def test_coarse_divisors_refuse_non_integral_coefficients():
    pr = derive_params(2, 3, 1)
    with pytest.raises(ValueError, match="t1, t4 must be integers"):
        coarse_ample(pr, 0.5, 1)
    with pytest.raises(ValueError, match="t1, t2 must be integers"):
        coarse_cartier(pr, 1.5, 0)
    with pytest.raises(ValueError, match="t1, t4 must be integers"):
        coarse_cartier_ample(pr, 0.5, 1)
    assert coarse_ample(pr, 1.0, 1) == coarse_ample(pr, 1, 1)
    assert coarse_cartier_ample(pr, 1.0, 2) == coarse_cartier_ample(pr, 1, 2)
