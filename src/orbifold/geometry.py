"""Closed-form geometry of the orbifold surface family H(a, b; r).

A surface in the family is fixed by coprime positive integers a, b and an
integer twist r: it is the projectivization of O + O(r) over the weighted
projective line P(a, b).  Everything here is a closed form in those three
integers: derived parameters, the four affine chart actions, Euler
characteristics of line bundles, Hilbert and modified Hilbert polynomials
with respect to the pulled-back coarse polarization, the inertia components,
and the Cartier/ample tests on the coarse space.

Euler characteristics mix a rational polynomial part with root-of-unity sums.
The sums are evaluated exactly in cyclotomic fields and certified rational,
so every value returned here is exact.  Each sum is cached as twice its
value, which is an integer, so an Euler characteristic is one integer over
2ab and each Hilbert coefficient one integer over a known denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Tuple, Union

from .exact import Cyclotomic, RatPoly
from .stackyfan import RayImage, StackyFanData, hirzebruch_shear
from .intlattice import AbelianGroupStructure, _Value, _integer, _integers

__all__ = [
    "HirzebruchParams",
    "PicClass",
    "ChartData",
    "InertiaComponent",
    "derive_params",
    "chart_weight_tables",
    "euler_characteristic",
    "hilbert_polynomial",
    "modified_hilbert_polynomial",
    "modified_euler_characteristic",
    "point_sheaf_mhp",
    "inertia_components",
    "coarse_fan",
    "coarse_cartier",
    "coarse_ample",
    "coarse_cartier_ample",
    "polarization_pullback",
    "rank2_indecomposable_mhp",
    "ADJACENT_PAIRS",
]


class PicClass(_Value):
    """Line bundle class (m, n): first Chern class m/a times the fiber-point
    divisor class plus n times the section class."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        self._store(*_integers((m, n), "a class is two integers (m, n)"))

    def shifted(self, dm: int, dn: int) -> "PicClass":
        return PicClass(self.m + dm, self.n + dn)


ClassLike = Union[PicClass, Tuple[int, int]]


def _class_ints(cls: ClassLike) -> Tuple[int, int]:
    """The class as (m, n): a tuple of two ints as it is, a ``PicClass`` as
    its fields (ints, read by the same rule when it was built), anything
    else by the rule of ``_integers``."""
    if type(cls) is tuple and len(cls) == 2:
        m, n = cls
        if type(m) is int and type(n) is int:
            return cls
    if isinstance(cls, PicClass):
        return cls.m, cls.n
    return _integers(cls, "a class is two integers (m, n)", 2)


class HirzebruchParams(_Value):
    """Derived invariants of one surface in the family.

    s, t is the canonical Bezout pair with r = s*a + t*b and 0 <= s < b.
    p = gcd(b, r) and q = gcd(a, r) are the multiplicities of the two stacky
    rays over the coarse space.  u, v1, v2 are the unique integers with
    r = u*a*b - v1*a - v2*b, 0 <= v1 < b, 0 <= v2 < a.  C abbreviates the
    combination a + b + ab - 1 that pervades the sheaf-counting formulas.
    """

    __slots__ = ("a", "b", "r", "s", "t", "p", "q", "u", "v1", "v2", "C")

    def __init__(self, a: int, b: int, r: int, s: int, t: int, p: int,
                 q: int, u: int, v1: int, v2: int, C: int):
        self._store(a, b, r, s, t, p, q, u, v1, v2, C)


def derive_params(a: int, b: int, r: int) -> HirzebruchParams:
    """All derived invariants for the surface (a, b; r).

    >>> pr = derive_params(2, 3, 1)
    >>> (pr.s, pr.t, pr.p, pr.q, pr.u, pr.v1, pr.v2, pr.C)
    (2, -1, 1, 1, 1, 1, 1, 10)
    """
    a, b, r = _integers((a, b, r), "a, b, r must be integers")
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise ValueError("a, b must be positive and coprime")
    s, t = hirzebruch_shear(a, b, r)
    p = math.gcd(b, r)
    q = math.gcd(a, r)
    # r = u*a*b - v1*a - v2*b with 0 <= v1 < b, 0 <= v2 < a
    v1 = (-r * pow(a, -1, b)) % b if b > 1 else 0
    v2 = (-r * pow(b, -1, a)) % a if a > 1 else 0
    u = (r + v1 * a + v2 * b) // (a * b)
    if u * a * b - v1 * a - v2 * b != r:
        raise ArithmeticError("r = %d is not u ab - v1 a - v2 b" % r)
    return HirzebruchParams(a, b, r, s, t, p, q, u, v1, v2, a + b + a * b - 1)


class ChartData(_Value):
    """One affine chart: its coordinates, cyclic stabilizer, and torus data.

    action_exponents are reduced into [0, group_order).  overlap_t_weights are
    the torus weights on the intersection with the cyclically next chart.
    """

    __slots__ = ("index", "coordinates", "group_order", "action_exponents",
                 "t_weights", "overlap_t_weights")

    def __init__(self, index: int, coordinates: Tuple[str, str],
                 group_order: int, action_exponents: Tuple[int, int],
                 t_weights: Tuple[Tuple[int, int], Tuple[int, int]],
                 overlap_t_weights: Tuple[Tuple[int, int], Tuple[int, int]]):
        self._store(index, coordinates, group_order, action_exponents,
                    t_weights, overlap_t_weights)


def chart_weight_tables(params: HirzebruchParams) -> Tuple[ChartData, ...]:
    a, b, r, s, t = params.a, params.b, params.r, params.s, params.t
    raw = (
        (("x", "y"), b, (a, -s * a), ((a, 0), (0, 1)), ((0, 1), (-1, 0))),
        (("y", "z"), a, (-t * b, b), ((r, 1), (-b, 0)), ((-b, 0), (-r, -1))),
        (("z", "w"), a, (b, t * b), ((-b, 0), (-r, -1)), ((-r, -1), (1, 0))),
        (("w", "x"), b, (s * a, a), ((0, -1), (a, 0)), ((a, 0), (0, 1))),
    )
    return tuple(
        ChartData(i + 1, coords, order,
                  (e1 % order, e2 % order), tw, otw)
        for i, (coords, order, (e1, e2), tw, otw) in enumerate(raw)
    )


# ----------------------------------------------------- root-of-unity sums
#
# Both sums below are invariant under the Galois action l -> cl for units c,
# so they are rational; total.rational_part() raises if that ever failed.
# Each is cached as twice its value, an int, so that every Riemann-Roch
# quantity built from them is one integer numerator over a known denominator.


def _twice(value: Fraction, what: str) -> int:
    twice = 2 * value
    if twice.denominator != 1:
        raise ArithmeticError("twice the %s sum is not an integer: %s"
                              % (what, twice))
    return int(twice)


@lru_cache(maxsize=None)
def _rho_sum(order: int, a_coef: int, m_res: int) -> int:
    """Twice the sum over l in [1, order) of z^(m*l) / (1 - z^(-a*l)),
    z = exp(2pi i/order), as an int.

    With w = z^(-a), a primitive root as a is a unit mod order, the term is
    w^(k l) / (1 - w^l) for k = m * (-a)^(-1) mod order, and
    sum_l w^(k l) / (1 - w^l) = (order - 1)/2 - sum_{0 <= j < k} sum_l w^(j l)
    = (order - 1)/2 - (order - k) for k > 0.  So twice the sum is
    order - 1 if k = 0 and 2k - order - 1 otherwise: an integer (Rademacher
    and Grosswald, *Dedekind Sums*, 1972).  The value is still evaluated in
    the cyclotomic field and checked once, when its cache entry is filled.
    """
    if order <= 1:
        return 0
    total = Cyclotomic.zero(order)
    for l in range(1, order):
        num = Cyclotomic.root_power(order, m_res * l)
        den = Cyclotomic.one(order) - Cyclotomic.root_power(order, -a_coef * l)
        total = total + num * den.inverse()
    return _twice(total.rational_part(), "rho")


@lru_cache(maxsize=None)
def _sigma_sum(order: int, skip: int, a_coef: int, s_coef: int,
               m_res: int, n1_res: int) -> int:
    """Twice the filtered double-quotient sum for the zero-dimensional
    inertia pieces, as an int.

    The sum is over l in [1, order) with skip not dividing l of
    z^(m l)/(1 - z^(-a l)) * (1 - z^(-n1 s l))/(1 - z^(-s l)).
    The excluded l are exactly those with s*l = 0 mod order, so the inner
    quotient never degenerates.  That quotient is the geometric sum of
    z^(-j s l) over 0 <= j < n1, so the sum is, over those j, the rho sum
    of ``_rho_sum`` with m - j s on [1, order) less the one over the
    multiples of skip (a rho sum of order order/skip in z^skip): twice it
    is a sum of differences of the integers ``_rho_sum`` returns.  It is
    checked once, when its cache entry is filled.
    """
    if order <= 1:
        return 0
    total = Cyclotomic.zero(order)
    one = Cyclotomic.one(order)
    for l in range(1, order):
        if l % skip == 0:
            continue
        term = Cyclotomic.root_power(order, m_res * l)
        term = term * (one - Cyclotomic.root_power(order, -a_coef * l)).inverse()
        term = term * (one - Cyclotomic.root_power(order, -n1_res * s_coef * l))
        term = term * (one - Cyclotomic.root_power(order, -s_coef * l)).inverse()
        total = total + term
    return _twice(total.rational_part(), "sigma")


def euler_characteristic(params: HirzebruchParams, cls: ClassLike) -> int:
    """Exact Euler characteristic of the line bundle (m, n).

    Orbifold Riemann-Roch in integers: with R2(p), R2(q) the doubled rho
    sums and 2sigma_b, 2sigma_a the doubled sigma sums, 2ab chi equals

        (n+1)(a + b + 2m) - n(n+1)r + (n+1) a R2(p) + (n+1) b R2(q)
        + a 2sigma_b + b 2sigma_a,

    so chi is that integer divided by 2ab; a remainder raises
    ArithmeticError.  R2(p) is a sum over l in [1, p), empty at p = 1, and
    2sigma_b skips every multiple of b/p, so it is empty when p = b (p
    divides b); likewise R2(q) at q = 1 and 2sigma_a at q = a.  Those sums
    are 0 and are not looked up.

    >>> euler_characteristic(derive_params(2, 3, 1), (0, 0))
    1
    """
    m, n = _class_ints(cls)
    return _riemann_roch(params, m, n)[0]


def _riemann_roch(params: HirzebruchParams, m: int, n: int) -> Tuple[int, int]:
    """(chi, a R2(p) + b R2(q)) of the class (m, n), reading each sum once
    (see ``euler_characteristic``)."""
    a, b, r, p, q = params.a, params.b, params.r, params.p, params.q
    n1 = n + 1
    rho = 0
    if p > 1:
        rho += a * _rho_sum(p, a % p, m % p)
    if q > 1:
        rho += b * _rho_sum(q, b % q, m % q)
    total = n1 * (a + b + 2 * m - n * r + rho)
    if p < b:
        total += a * _sigma_sum(b, b // p, a % b, (params.s * a) % b, m % b,
                                n1 % b)
    if q < a:
        total += b * _sigma_sum(a, a // q, b % a, (params.t * b) % a, m % a,
                                n1 % a)
    chi, rest = divmod(total, 2 * a * b)
    if rest:
        raise ArithmeticError("Euler characteristic came out non-integral: %s"
                              % Fraction(total, 2 * a * b))
    return chi, rho


def polarization_pullback(params: HirzebruchParams) -> PicClass:
    """Pullback of the canonical coarse polarization, as a line bundle class."""
    pq = params.p * params.q
    m = Fraction(params.a * params.b * (pq + params.r), pq)
    n = Fraction(params.a * params.b, pq)
    if m.denominator != 1 or n.denominator != 1:
        raise ArithmeticError("polarization pullback is not integral")
    return PicClass(int(m), int(n))


def hilbert_polynomial(params: HirzebruchParams, cls: ClassLike) -> RatPoly:
    """Hilbert polynomial T -> chi((m, n) + T * pullback) as an exact quadratic.

    With R2(p), R2(q) the doubled rho sums of ``euler_characteristic``, the
    T^2 and T coefficients are ab (r + 2pq) / (2 (pq)^2) and
    (a + b + 2m + r + 2pq (n+1) + a R2(p) + b R2(q)) / (2pq): one integer
    over a known denominator each.
    """
    m, n = _class_ints(cls)
    a, b, r, p, q = params.a, params.b, params.r, params.p, params.q
    pq = p * q
    chi, rho = _riemann_roch(params, m, n)
    lead = Fraction(a * b * (r + 2 * pq), 2 * pq * pq)
    lin = Fraction(a + b + 2 * m + r + 2 * pq * (n + 1) + rho, 2 * pq)
    return RatPoly((chi, lin, lead))


def modified_euler_characteristic(params: HirzebruchParams, cls: ClassLike) -> int:
    """Euler characteristic against the generating sheaf; always an integer."""
    m, n = _class_ints(cls)
    a, b, r = params.a, params.b, params.r
    num = (1 + n) * (a + b + 2 * m + a * b - 1 - n * r)
    if num % 2:
        raise ArithmeticError("modified Euler characteristic came out "
                              "non-integral: %d/2" % num)
    return num // 2


def modified_hilbert_polynomial(params: HirzebruchParams, cls: ClassLike) -> RatPoly:
    """Modified Hilbert polynomial of the line bundle (m, n).

    Equals the sum of the plain Hilbert polynomials of (m + k, n) for
    k = 0 .. ab-1; the closed form below avoids the sum.  Its T^2 and T
    coefficients are (ab)^2 (r + 2pq) / (2 (pq)^2) and
    ab (a + b + r + 2m - 1 + ab + 2pq (n+1)) / (2pq): one integer over a
    known denominator each.
    """
    m, n = _class_ints(cls)
    a, b, r, p, q = params.a, params.b, params.r, params.p, params.q
    pq = p * q
    ab = a * b
    lead = Fraction(ab * ab * (r + 2 * pq), 2 * pq * pq)
    lin = Fraction(ab * (a + b + r + 2 * m - 1 + ab + 2 * pq * (n + 1)),
                   2 * pq)
    return RatPoly((modified_euler_characteristic(params, cls), lin, lead))


def point_sheaf_mhp(params: HirzebruchParams, chart: int, grading: int = 0) -> int:
    """Modified Hilbert polynomial of a point sheaf at the chart's fixed point.

    The value is a constant: a for charts 1 and 4, b for charts 2 and 3,
    independent of the fine grading index.  Computed from the K-class as an
    alternating sum of four line-bundle polynomials; the quadratic and linear
    parts must cancel, which is checked.
    """
    a, b, r = params.a, params.b, params.r
    i = _integer(grading, "grading must be an integer")
    terms = {
        1: (((-i, 0), 1), ((-a - i, -1), 1), ((-a - i, 0), -1), ((-i, -1), -1)),
        2: (((-i, 0), 1), ((-b - i, -1), 1), ((-b - i, 0), -1), ((-i, -1), -1)),
        3: (((-i, 0), 1), ((-b - r - i, -1), 1), ((-b - i, 0), -1), ((-r - i, -1), -1)),
        4: (((-i, 0), 1), ((-a - r - i, -1), 1), ((-a - i, 0), -1), ((-r - i, -1), -1)),
    }
    if chart not in terms:
        raise ValueError("chart must be 1, 2, 3 or 4")
    total = RatPoly(())
    for (cls, sign) in terms[chart]:
        total = total + modified_hilbert_polynomial(params, cls) * sign
    if total.degree > 0:
        raise ArithmeticError("point sheaf polynomial failed to collapse: %s"
                              % total)
    value = total.coeff(0)
    if value.denominator != 1:
        raise ArithmeticError("point sheaf polynomial is not integral: %s"
                              % value)
    return int(value)


class InertiaComponent(_Value):
    """One family of inertia components sharing a source cone.

    stabilizer_params lists the l values; each l is a separate component of
    the stated dimension.
    """

    __slots__ = ("source", "stabilizer_params", "dimension")

    def __init__(self, source: str, stabilizer_params: Tuple[int, ...],
                 dimension: int):
        self._store(source, stabilizer_params, dimension)


def inertia_components(params: HirzebruchParams) -> Tuple[InertiaComponent, ...]:
    """Inertia components grouped by source, empty families omitted."""
    a, b, p, q = params.a, params.b, params.p, params.q
    sigma_b = tuple(l for l in range(1, b) if l % (b // p) != 0)
    sigma_a = tuple(l for l in range(1, a) if l % (a // q) != 0)
    families = [
        InertiaComponent("identity", (), 2),
        InertiaComponent("rho1", tuple(range(1, p)), 1),
        InertiaComponent("rho3", tuple(range(1, q)), 1),
        InertiaComponent("sigma1", sigma_b, 0),
        InertiaComponent("sigma2", sigma_a, 0),
        InertiaComponent("sigma3", sigma_a, 0),
        InertiaComponent("sigma4", sigma_b, 0),
    ]
    return tuple(f for f in families
                 if f.source == "identity" or f.stabilizer_params)


def coarse_fan(params: HirzebruchParams) -> StackyFanData:
    """Fan of the coarse space: the stacky rays divided by their multiplicities."""
    a, b, s, t, p, q = params.a, params.b, params.s, params.t, params.p, params.q
    rays = (
        RayImage((b // p, s // p)),
        RayImage((0, 1)),
        RayImage((-a // q, t // q)),
        RayImage((0, -1)),
    )
    return StackyFanData(AbelianGroupStructure(2, ()), rays,
                         ((0, 1), (1, 2), (2, 3), (0, 3)))


def coarse_cartier(params: HirzebruchParams, t1: int, t2: int) -> bool:
    """Whether the coarse Weil divisor t1 D1 + t2 D2 is Cartier."""
    t1, t2 = _integers((t1, t2), "t1, t2 must be integers")
    bp = params.b // params.p
    bapq = (params.b * params.a) // (params.p * params.q)
    return t1 % bp == 0 and t2 % bapq == 0


def coarse_ample(params: HirzebruchParams, t1: int, t4: int) -> bool:
    """Ampleness in Picard coordinates: t1 (b/p) D1 + t4 (ba/pq) D4.

    Strict convexity of the support function reduces to three inequalities;
    the third one is implied by the first two whenever r >= 0, so it only
    binds on negatively twisted surfaces.
    """
    t1, t4 = _integers((t1, t4), "t1, t4 must be integers")
    r_red = params.r // (params.p * params.q)
    return t1 > 0 and t4 > 0 and t1 + r_red * t4 > 0


def coarse_cartier_ample(params: HirzebruchParams, t1: int,
                         t4: int) -> Tuple[bool, bool]:
    """(Cartier, ample) for the divisor t1 (b/p) D1 + t4 (ba/pq) D4.

    Cartier is re-derived by ``coarse_cartier`` from the scaled Weil
    coefficients rather than assumed (a D4 coefficient obeys the same rule
    as a D2 one); in these coordinates it always holds.
    """
    t1, t4 = _integers((t1, t4), "t1, t4 must be integers")
    bp = params.b // params.p
    bapq = (params.b * params.a) // (params.p * params.q)
    cartier = coarse_cartier(params, t1 * bp, t4 * bapq)
    return cartier, cartier and coarse_ample(params, t1, t4)


# pairs of cyclically adjacent chart corners, one-based
ADJACENT_PAIRS = (frozenset((1, 2)), frozenset((2, 3)),
                  frozenset((3, 4)), frozenset((4, 1)))


def _require_divisibility(lam: Sequence[int], params: HirzebruchParams):
    """The jump rule of a rank-2 datum: a divides L1 and b divides L3."""
    if lam[0] % params.a != 0:
        raise ValueError("first jump must be divisible by a")
    if lam[2] % params.b != 0:
        raise ValueError("third jump must be divisible by b")


def rank2_indecomposable_mhp(params: HirzebruchParams, b1: int, b2: int,
                             lam: Sequence[int],
                             coincidences: Iterable = ()) -> RatPoly:
    """Modified Hilbert polynomial of a gauge-fixed indecomposable rank-2 sheaf.

    lam = (L1, L2, L3, L4) are the filtration jumps, with a | L1 and b | L3;
    coincidences lists the adjacent corner pairs {i, i+1} whose attached
    points coincide, which cancels the corresponding corner correction.
    """
    jumps = _integers(lam, "lam must be four integers", 4)
    if min(jumps) < 0:
        raise ValueError("jumps must be nonnegative")
    _require_divisibility(jumps, params)
    l1, l2, l3, l4 = jumps
    coinc = set()
    for pair in coincidences:
        f = frozenset(pair)
        if f not in ADJACENT_PAIRS:
            raise ValueError("coincidence %r is not an adjacent pair" % (pair,))
        coinc.add(f)
    r = params.r
    total = modified_hilbert_polynomial(params, (-b1, -b2))
    total = total + modified_hilbert_polynomial(
        params, (-b1 - l1 - l3 - l4 * r, -b2 - l2 - l4))
    corner = 0
    for pair in ADJACENT_PAIRS:
        if pair not in coinc:
            i, j = sorted(pair)
            corner += jumps[i - 1] * jumps[j - 1]
    return total - RatPoly((corner,))
