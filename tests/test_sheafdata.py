import itertools
import math
import random
from fractions import Fraction

import pytest

from orbifold.geometry import (
    HirzebruchParams,
    PicClass,
    derive_params,
    modified_hilbert_polynomial,
    rank2_indecomposable_mhp,
)
from orbifold.sheafdata import (
    EquivLineBundle,
    PartitionQuadruple,
    Rank2Datum,
    all_incidence_types,
    euler_weight,
    f_exponent,
    fine_gradings,
    gauge_fix,
    incidence_chi_correction,
    rank1_quotient_chi,
    rank2_c1_chi,
    rank2_chi_exponent,
    stability_check,
    tensor_shift,
    underlying_c1,
)


def random_coprime_params(rng, max_ab=5, max_r=5):
    while True:
        a = rng.randrange(1, max_ab + 1)
        b = rng.randrange(1, max_ab + 1)
        if math.gcd(a, b) == 1:
            return derive_params(a, b, rng.randrange(-max_r, max_r + 1))


# ------------------------------------------------------------ line bundles


def test_line_bundle_refuses_non_integral_grading():
    with pytest.raises(ValueError, match="gradings must be integers"):
        EquivLineBundle(0.5, 0, 0, 0)
    bundle = EquivLineBundle(2.0, 0, 0, -1.0)
    assert bundle == EquivLineBundle(2, 0, 0, -1)
    assert all(type(x) is int for x in bundle.as_tuple())


def test_underlying_c1_examples():
    pr = derive_params(2, 3, 2)
    assert underlying_c1(EquivLineBundle(1, 0, 0, 0), pr) == PicClass(-1, 0)
    assert underlying_c1(EquivLineBundle(0, 0, 0, 1), pr) == PicClass(-2, -1)
    assert underlying_c1(EquivLineBundle(0, 0, 0, 0), pr) == PicClass(0, 0)


def test_fine_gradings_examples():
    pr = derive_params(2, 3, 1)
    assert fine_gradings(EquivLineBundle(0, 0, 0, 0), pr) == (0, 0, 0, 0)
    assert fine_gradings(EquivLineBundle(1, 0, 0, 0), pr) == (1, 1, 1, 1)
    assert fine_gradings(EquivLineBundle(0, 1, 0, 0), pr) == (2, 1, 0, 0)


def test_gauge_fix_examples():
    pr = derive_params(1, 2, 2)
    assert gauge_fix(EquivLineBundle(0, 0, 1, 1), pr) == EquivLineBundle(3, 1, 0, 0)
    pr0 = derive_params(1, 2, 0)
    assert gauge_fix(EquivLineBundle(5, -2, 0, 3), pr0) == EquivLineBundle(5, 1, 0, 0)


def test_gauge_fix_idempotent_and_c1_preserving():
    rng = random.Random(61)
    for _ in range(200):
        pr = random_coprime_params(rng)
        bundle = EquivLineBundle(*(rng.randrange(-6, 7) for _ in range(4)))
        fixed = gauge_fix(bundle, pr)
        assert fixed.b3 == 0 and fixed.b4 == 0
        assert gauge_fix(fixed, pr) == fixed
        assert underlying_c1(fixed, pr) == underlying_c1(bundle, pr)


def test_trivial_quadruples_have_zero_invariants():
    rng = random.Random(62)
    for _ in range(100):
        pr = random_coprime_params(rng)
        b3 = rng.randrange(-5, 6)
        b4 = rng.randrange(-5, 6)
        bundle = EquivLineBundle(-b3 - pr.r * b4, -b4, b3, b4)
        assert underlying_c1(bundle, pr) == PicClass(0, 0)
        assert fine_gradings(gauge_fix(bundle, pr), pr) == (0, 0, 0, 0)


# ------------------------------------------------------------ incidence and stability


def test_all_incidence_types_enumeration():
    kinds = all_incidence_types()
    assert len(kinds) == 11
    assert len(set(kinds)) == 11
    assert kinds.count(("type1",)) == 1
    assert sum(1 for k in kinds if k[0] == "type2") == 4
    assert sum(1 for k in kinds if k[0] == "type3") == 6


def test_euler_weight():
    for kind in all_incidence_types():
        assert euler_weight(kind) == (-1 if kind[0] == "type1" else 1)
    with pytest.raises(ValueError):
        euler_weight(("type5",))


def test_rank2_datum_validation():
    with pytest.raises(ValueError):
        Rank2Datum(0, 0, (1, 0, 1, 1))
    with pytest.raises(ValueError):
        Rank2Datum(0, 0, (1, 1, 1, 1), ("type2", 2))
    with pytest.raises(ValueError):
        Rank2Datum(0, 0, (0, 0, 1, 1), ("type2", 1))
    with pytest.raises(ValueError):
        Rank2Datum(0, 0, (1, -1, 1, 1))
    d = Rank2Datum(0, 0, (1, 1, 1, 1), ("type3", 3, 1))
    assert d.incidence == ("type3", 1, 3)
    # a non-integral grading or jump is refused, not truncated
    for bad in [(0.5, 0, (2, 1, 2, 1)), (0, -1.5, (2, 1, 2, 1)),
                (0, 0, (2.7, 1, 2, 1)), (0, 0, ("2", 1, 2, 1))]:
        with pytest.raises(ValueError):
            Rank2Datum(*bad)
    with pytest.raises(ValueError):
        incidence_chi_correction(("type3", 1.9, 2), (2, 1, 3, 1))
    # a malformed incidence is refused with the fault it has; a corner
    # index that is not an integer is refused, not truncated
    with pytest.raises(ValueError, match="two distinct corners"):
        Rank2Datum(0, 0, (1, 1, 1, 1), ("type3", 2, 2))
    for incidence in [("type2", 7), ("type2", 2.5), ("type3", 1, 5),
                      ("type3", 1.5, 2), ("type3", 2, 1.5),
                      ("type3", "1", "2")]:
        with pytest.raises(ValueError, match="integers from 1 to 4"):
            Rank2Datum(0, 0, (1, 1, 1, 1), incidence)
    with pytest.raises(ValueError):
        euler_weight(("type2", 0.5))
    # integral values of another type are kept, as ints
    d = Rank2Datum(2.0, -1.0, [2.0, 1, 2, 1], ["type3", 2.0, 1])
    assert (d.b1, d.b2, d.lam, d.incidence) == (2, -1, (2, 1, 2, 1),
                                                ("type3", 1, 2))
    assert all(type(x) is int for x in (d.b1, d.b2) + d.lam + d.incidence[1:])


def test_stability_worked_examples():
    pr = derive_params(1, 1, 0)
    assert stability_check(Rank2Datum(0, 0, (1, 1, 1, 1)), pr)
    assert not stability_check(Rank2Datum(0, 0, (3, 1, 1, 1)), pr)
    assert stability_check(Rank2Datum(0, 0, (0, 1, 1, 1), ("type2", 1)), pr)


def test_stability_divisibility_guard():
    pr = derive_params(2, 3, 1)
    with pytest.raises(ValueError):
        stability_check(Rank2Datum(0, 0, (1, 1, 3, 1)), pr)
    with pytest.raises(ValueError):
        stability_check(Rank2Datum(0, 0, (2, 1, 2, 1)), pr)
    assert stability_check(Rank2Datum(0, 0, (2, 1, 3, 1)), pr) in (True, False)


def test_stability_ignores_b_fields():
    rng = random.Random(63)
    for _ in range(100):
        pr = random_coprime_params(rng)
        lam = (pr.a * rng.randrange(1, 4), rng.randrange(1, 5),
               pr.b * rng.randrange(1, 4), rng.randrange(1, 5))
        one = Rank2Datum(0, 0, lam)
        other = Rank2Datum(rng.randrange(-9, 10), rng.randrange(-9, 10), lam)
        assert stability_check(one, pr) == stability_check(other, pr)


def test_stability_type1_symmetric_in_lam13():
    rng = random.Random(64)
    for _ in range(100):
        pr = random_coprime_params(rng)
        ab = pr.a * pr.b
        lam = (ab * rng.randrange(1, 4), rng.randrange(1, 6),
               ab * rng.randrange(1, 4), rng.randrange(1, 6))
        swapped = (lam[2], lam[1], lam[0], lam[3])
        assert (stability_check(Rank2Datum(0, 0, lam), pr)
                == stability_check(Rank2Datum(0, 0, swapped), pr))


def _type1_system(lam, pr):
    """The four strict inequalities written out one by one."""
    l1, l2, l3, l4 = lam
    pq = pr.p * pr.q
    return (l1 < pq * l2 + l3 + (pr.r + pq) * l4
            and pq * l2 < l1 + l3 + (pr.r + pq) * l4
            and l3 < l1 + pq * l2 + (pr.r + pq) * l4
            and (pr.r + pq) * l4 < l1 + pq * l2 + l3)


def test_stability_type1_matches_explicit_system():
    rng = random.Random(65)
    for _ in range(200):
        pr = random_coprime_params(rng)
        lam = (pr.a * rng.randrange(1, 5), rng.randrange(1, 7),
               pr.b * rng.randrange(1, 5), rng.randrange(1, 7))
        assert stability_check(Rank2Datum(0, 0, lam), pr) == _type1_system(lam, pr)


def test_stability_type2_is_type1_with_zero_jump():
    # for r >= 0 dropping a zero jump and deleting its inequality agree
    rng = random.Random(66)
    for _ in range(200):
        a = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        if math.gcd(a, b) != 1:
            continue
        pr = derive_params(a, b, rng.randrange(0, 6))
        zero = rng.randrange(1, 5)
        lam = [pr.a * rng.randrange(1, 5), rng.randrange(1, 7),
               pr.b * rng.randrange(1, 5), rng.randrange(1, 7)]
        lam[zero - 1] = 0
        datum = Rank2Datum(0, 0, tuple(lam), ("type2", zero))
        assert stability_check(datum, pr) == _type1_system(tuple(lam), pr)


def _type3_system(pair, lam, pr):
    """The fused pair's inequality and the two others, written out."""
    pq = pr.p * pr.q
    w1, w2, w3, w4 = lam[0], pq * lam[1], lam[2], (pr.r + pq) * lam[3]
    return {
        (1, 2): w1 + w2 < w3 + w4 and w3 < w1 + w2 + w4 and w4 < w1 + w2 + w3,
        (1, 3): w1 + w3 < w2 + w4 and w2 < w1 + w3 + w4 and w4 < w1 + w3 + w2,
        (1, 4): w1 + w4 < w2 + w3 and w2 < w1 + w4 + w3 and w3 < w1 + w4 + w2,
        (2, 3): w2 + w3 < w1 + w4 and w1 < w2 + w3 + w4 and w4 < w2 + w3 + w1,
        (2, 4): w2 + w4 < w1 + w3 and w1 < w2 + w4 + w3 and w3 < w2 + w4 + w1,
        (3, 4): w3 + w4 < w1 + w2 and w1 < w3 + w4 + w2 and w2 < w3 + w4 + w1,
    }[pair]


def test_stability_type3_displayed_system():
    rng = random.Random(67)
    pairs = list(itertools.combinations(range(1, 5), 2))
    seen = {(pair, verdict): 0 for pair in pairs for verdict in (True, False)}
    for _ in range(200):
        pr = random_coprime_params(rng)
        lam = (pr.a * rng.randrange(1, 5), rng.randrange(1, 7),
               pr.b * rng.randrange(1, 5), rng.randrange(1, 7))
        for pair in pairs:
            datum = Rank2Datum(0, 0, lam, ("type3",) + pair)
            expected = _type3_system(pair, lam, pr)
            assert stability_check(datum, pr) == expected
            seen[pair, expected] += 1
    # every pair meets both verdicts
    assert min(seen.values()) > 0, seen


# ------------------------------------------------------------ chi formulas


def test_rank2_c1_chi_worked_examples():
    pr = derive_params(1, 2, 0)
    c1, chi = rank2_c1_chi(Rank2Datum(0, 0, (1, 1, 2, 1)), pr)
    assert c1 == PicClass(-3, -2)
    assert chi == -3

    pr = derive_params(1, 1, 0)
    c1, chi = rank2_c1_chi(Rank2Datum(0, 0, (1, 1, 1, 1)), pr)
    assert c1 == PicClass(-2, -2)
    assert chi == -2


def test_rank2_chi_agrees_with_mhp_route():
    rng = random.Random(68)
    kinds = all_incidence_types()
    checked = 0
    for _ in range(400):
        pr = random_coprime_params(rng, max_ab=4, max_r=4)
        kind = kinds[rng.randrange(len(kinds))]
        lam = [pr.a * rng.randrange(1, 4), rng.randrange(1, 6),
               pr.b * rng.randrange(1, 4), rng.randrange(1, 6)]
        if kind[0] == "type2":
            lam[kind[1] - 1] = 0
        b1, b2 = rng.randrange(-5, 6), rng.randrange(-5, 6)
        datum = Rank2Datum(b1, b2, tuple(lam), kind)
        _, chi = rank2_c1_chi(datum, pr)
        coincidences = []
        if kind[0] == "type3" and abs(kind[1] - kind[2]) in (1, 3):
            coincidences = [(kind[1], kind[2])]
        poly = rank2_indecomposable_mhp(pr, b1, b2, tuple(lam), coincidences)
        assert chi == poly.coeff(0)
        checked += 1
    assert checked >= 300


def _fraction_chi_exponent(pr, m, n, lam):
    # the Fraction form of the exponent that the integer 4 chi replaced
    l1, l2, l3, l4 = lam
    inner = l1 + Fraction(pr.r, 2) * l2 + l3 - Fraction(pr.r, 2) * l4
    return f_exponent(pr, m, n) - Fraction(l2 + l4, 2) * inner


def _corner(kind, lam):
    # an adjacent coinciding pair restores the product of its two jumps
    if kind[0] == "type3" and kind[2] - kind[1] in (1, 3):
        return lam[kind[1] - 1] * lam[kind[2] - 1]
    return 0


def test_rank2_chi_integer_form_matches_fraction_formula():
    # every stratum, jumps of 1..4 units, a <= 3, b <= 4, -6 <= r <= 6; the
    # exponent depends on the jumps only, so each is computed once and
    # checked on every stratum those jumps fit
    strata = {None: [k for k in all_incidence_types() if k[0] != "type2"]}
    strata.update({z: [("type2", z)] for z in range(1, 5)})
    checked = 0
    for a, b in itertools.product(range(1, 4), range(1, 5)):
        if math.gcd(a, b) != 1:
            continue
        for r in range(-6, 7):
            pr = derive_params(a, b, r)
            for units in itertools.product(range(1, 5), repeat=4):
                for zero, kinds in strata.items():
                    lam = [a * units[0], units[1], b * units[2], units[3]]
                    if zero is not None:
                        if units[zero - 1] > 1:
                            continue
                        lam[zero - 1] = 0
                    b1, b2 = lam[2] - lam[1], lam[0] - lam[3]
                    m = -(2 * b1 + lam[0] + lam[2] + lam[3] * r)
                    n = -(2 * b2 + lam[1] + lam[3])
                    exponent = _fraction_chi_exponent(pr, m, n, lam)
                    assert rank2_chi_exponent(pr, (m, n), lam) == exponent
                    assert exponent.denominator == 1
                    for kind in kinds:
                        datum = Rank2Datum(b1, b2, tuple(lam), kind)
                        c1, chi = rank2_c1_chi(datum, pr)
                        assert c1 == PicClass(m, n)
                        assert chi == exponent.numerator + _corner(kind, lam)
                        checked += 1
    assert checked == 239616


def test_rank2_c1_chi_raises_when_non_integral():
    # derived surfaces always give an integral chi; shifting C by one moves
    # 4 chi by 2n + 4, which is 2 mod 4 for odd n
    d = derive_params(1, 2, 0)
    pr = HirzebruchParams(d.a, d.b, d.r, d.s, d.t, d.p, d.q, d.u, d.v1, d.v2,
                          C=5)
    assert d.C == 4
    with pytest.raises(ArithmeticError, match="non-integral: -1/2"):
        rank2_c1_chi(Rank2Datum(0, 0, (1, 1, 2, 0), ("type2", 4)), pr)


def test_rank2_chi_exponent_refuses_non_integral_jump():
    pr = derive_params(1, 2, 0)
    for lam in [(2.7, 1, 2, 1), (2, 1, 2)]:
        with pytest.raises(ValueError, match="lam must be four integers"):
            rank2_chi_exponent(pr, (0, 0), lam)
    assert rank2_chi_exponent(pr, (0, 0), (2.0, 1, 2, 1)) == \
        rank2_chi_exponent(pr, (0, 0), (2, 1, 2, 1))


def test_rank2_chi_exponent_degenerate_doubles_line_bundle():
    rng = random.Random(69)
    for _ in range(60):
        pr = random_coprime_params(rng)
        b1, b2 = rng.randrange(-5, 6), rng.randrange(-5, 6)
        cls = (-2 * b1, -2 * b2)
        expected = modified_hilbert_polynomial(pr, (-b1, -b2)).coeff(0) * 2
        assert rank2_chi_exponent(pr, cls, (0, 0, 0, 0)) == expected


def test_incidence_chi_correction_adjacent_only():
    lam = (2, 3, 5, 7)
    assert incidence_chi_correction(("type1",), lam) == 0
    assert incidence_chi_correction(("type2", 3), lam) == 0
    assert incidence_chi_correction(("type3", 1, 2), lam) == 6
    assert incidence_chi_correction(("type3", 2, 3), lam) == 15
    assert incidence_chi_correction(("type3", 3, 4), lam) == 35
    assert incidence_chi_correction(("type3", 1, 4), lam) == 14
    assert incidence_chi_correction(("type3", 1, 3), lam) == 0
    assert incidence_chi_correction(("type3", 2, 4), lam) == 0
    # lam is four integers, as for ``rank2_chi_exponent``
    for bad in ((1, 2), (2, 3, 5, 7.5)):
        with pytest.raises(ValueError, match="lam must be four integers"):
            incidence_chi_correction(("type3", 1, 2), bad)


# ------------------------------------------------------------ partitions


def test_partition_quadruple_validation():
    quad = PartitionQuadruple((3, 1), (), (2, 2, 1), (5,))
    assert quad.sizes() == (4, 0, 5, 5)
    with pytest.raises(ValueError):
        PartitionQuadruple((1, 2))
    with pytest.raises(ValueError):
        PartitionQuadruple((0,))


def test_partition_quadruple_refuses_non_integral_part():
    with pytest.raises(ValueError, match="partition parts must be integers"):
        PartitionQuadruple((2.5, 1))
    assert PartitionQuadruple((), (2.0, 1)).p2 == (2, 1)


def test_rank1_quotient_chi_examples():
    pr = derive_params(1, 2, 0)
    hull = PicClass(0, 0)
    assert rank1_quotient_chi(hull, PartitionQuadruple(), pr) == 2
    assert rank1_quotient_chi(hull, PartitionQuadruple((1,)), pr) == 1
    assert rank1_quotient_chi(hull, PartitionQuadruple((), (1,)), pr) == 0


def test_rank1_quotient_chi_cell_costs():
    rng = random.Random(70)
    for _ in range(80):
        pr = random_coprime_params(rng)
        hull = (rng.randrange(-4, 5), rng.randrange(-4, 5))
        parts = [sorted((rng.randrange(1, 5) for _ in range(rng.randrange(0, 3))),
                        reverse=True) for _ in range(4)]
        quad = PartitionQuadruple(*map(tuple, parts))
        base = rank1_quotient_chi(hull, PartitionQuadruple(), pr)
        got = rank1_quotient_chi(hull, quad, pr)
        s = quad.sizes()
        assert got == base - pr.a * (s[0] + s[3]) - pr.b * (s[1] + s[2])
        # one extra cell on the first partition costs exactly a
        grown = PartitionQuadruple(quad.p1 + (1,) if not quad.p1 else
                                   (quad.p1[0] + 1,) + quad.p1[1:],
                                   quad.p2, quad.p3, quad.p4)
        assert rank1_quotient_chi(hull, grown, pr) == got - pr.a


# ------------------------------------------------------------ exponent shifts


def test_tensor_shift_examples():
    pr = derive_params(1, 2, 0)
    assert tensor_shift(0, 0, (0, 0), pr) == 0
    assert tensor_shift(1, 0, (0, 0), pr) == 2
    assert tensor_shift(0, 1, (0, 0), pr) == 4
    assert tensor_shift(1, 1, (0, 0), pr) == 8


def test_tensor_shift_refuses_non_integral_shift():
    pr = derive_params(1, 2, 0)
    with pytest.raises(ValueError, match="i, j must be integers"):
        tensor_shift(0.5, 0, (0, 0), pr)
    assert tensor_shift(1.0, 1, (0, 0), pr) == 8


def test_tensor_shift_is_f_difference():
    rng = random.Random(71)
    for _ in range(200):
        pr = random_coprime_params(rng)
        m, n = rng.randrange(-6, 7), rng.randrange(-6, 7)
        i, j = rng.randrange(-3, 4), rng.randrange(-3, 4)
        assert (tensor_shift(i, j, (m, n), pr)
                == f_exponent(pr, m + 2 * i, n + 2 * j) - f_exponent(pr, m, n))


def test_rank2_exponent_shift_is_lam_independent():
    rng = random.Random(72)
    for _ in range(200):
        pr = random_coprime_params(rng)
        m, n = rng.randrange(-6, 7), rng.randrange(-6, 7)
        i, j = rng.randrange(-3, 4), rng.randrange(-3, 4)
        lam = tuple(rng.randrange(0, 6) for _ in range(4))
        delta = (rank2_chi_exponent(pr, (m + 2 * i, n + 2 * j), lam)
                 - rank2_chi_exponent(pr, (m, n), lam))
        assert delta == tensor_shift(i, j, (m, n), pr)


def test_f_exponent_refuses_non_integral_class():
    pr = derive_params(1, 2, 0)
    with pytest.raises(ValueError, match="m, n must be integers"):
        f_exponent(pr, 0.5, 0)
    assert f_exponent(pr, 1.0, 2) == f_exponent(pr, 1, 2)
