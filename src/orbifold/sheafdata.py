"""Combinatorial data of equivariant sheaves of rank 1 and 2.

Rank-1 sheaves on the surface are encoded by quadruples (B1..B4) of chart
gradings; rank-2 indecomposables by a gauge-fixed pair (B1, B2), four
filtration jumps (L1..L4), and an incidence pattern of the four flag points
on the fiber line.  This module provides the translations between those
codes and geometric invariants (first Chern class, fine gradings, modified
Euler characteristic), the slope-stability predicate, exponent formulas,
partition-coded rank-1 quotients, and ``STRATA``, the one table of what
each incidence stratum fixes: Euler weight, stability parts, restored corner.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, NamedTuple, Sequence, Tuple

from .geometry import (
    ADJACENT_PAIRS,
    ClassLike,
    HirzebruchParams,
    PicClass,
    _class_ints,
    _require_divisibility,
    modified_euler_characteristic,
)
from .intlattice import _Value, _integers

__all__ = [
    "EquivLineBundle",
    "Rank2Datum",
    "PartitionQuadruple",
    "Stratum",
    "STRATA",
    "underlying_c1",
    "fine_gradings",
    "gauge_fix",
    "stability_check",
    "euler_weight",
    "all_incidence_types",
    "incidence_chi_correction",
    "f4_exponent",
    "f_exponent",
    "rank2_chi_exponent",
    "rank2_c1_chi",
    "rank1_quotient_chi",
    "tensor_shift",
]


class EquivLineBundle(_Value):
    """Equivariant line bundle encoded by its four integer chart gradings."""

    __slots__ = ("b1", "b2", "b3", "b4")

    def __init__(self, b1: int, b2: int, b3: int, b4: int):
        grades = _integers((b1, b2, b3, b4), "gradings must be integers")
        self._store(*grades)

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.b1, self.b2, self.b3, self.b4)


def underlying_c1(bundle: EquivLineBundle, params: HirzebruchParams) -> PicClass:
    """First Chern class of the underlying line bundle.

    >>> from orbifold.geometry import derive_params
    >>> underlying_c1(EquivLineBundle(1, 0, 0, 0), derive_params(2, 3, 1))
    PicClass(m=-1, n=0)
    """
    r = params.r
    return PicClass(-bundle.b1 - bundle.b3 - r * bundle.b4,
                    -bundle.b2 - bundle.b4)


def fine_gradings(bundle: EquivLineBundle,
                  params: HirzebruchParams) -> Tuple[int, int, int, int]:
    """Box-summand residues of the bundle on the four charts."""
    a, b, r = params.a, params.b, params.r
    left = bundle.b1 + bundle.b3 - r * bundle.b2
    right = bundle.b1 + bundle.b3 + r * bundle.b4
    return (left % b, left % a, right % a, right % b)


def gauge_fix(bundle: EquivLineBundle,
              params: HirzebruchParams) -> EquivLineBundle:
    """Tensor away the third and fourth gradings; idempotent, c1-preserving."""
    r = params.r
    return EquivLineBundle(bundle.b1 + bundle.b3 + r * bundle.b4,
                           bundle.b2 + bundle.b4, 0, 0)


# incidence patterns: the flag points P1..P4 all distinct with every jump
# positive (type1), one vanishing jump (type2), or one coinciding pair with
# all jumps positive (type3); 1 + 4 + 6 = 11 patterns in total
Incidence = Tuple


class Stratum(NamedTuple):
    """What one incidence stratum fixes; corners are numbered 1 to 4."""

    weight: int  # Euler characteristic of the stratum modulo SL(2)
    zero: int  # the corner whose jump vanishes (type2), else 0
    # stability parts over the weights (L1, pq L2, L3, (r+pq) L4) as corner
    # pairs, 0 pairing a lone corner, and a type3 pair fused into one part
    parts: Tuple[Tuple[int, int], ...]
    corner: Tuple[int, ...]  # adjacent pair whose product chi restores

    def restored(self, lam: Sequence[int]) -> int:
        """The corner product the stratum restores to lam's chi."""
        corner = self.corner
        return lam[corner[0] - 1] * lam[corner[1] - 1] if corner else 0


_ALONE = ((1, 0), (2, 0), (3, 0), (4, 0))
# every normalized incidence to its stratum, in enumeration order
STRATA: Dict[Incidence, Stratum] = {
    ("type1",): Stratum(-1, 0, _ALONE, ()),
    **{("type2", i): Stratum(1, i, _ALONE, ()) for i in range(1, 5)},
    **{("type3", i, j): Stratum(
        1, 0, ((i, j),) + tuple(k for k in _ALONE if k[0] not in (i, j)),
        (i, j) if frozenset((i, j)) in ADJACENT_PAIRS else ())
       for i, j in combinations(range(1, 5), 2)}}
# every accepted spelling (a type3 pair in either order) to its key
_SPELLINGS = {**{k: k for k in STRATA},
              **{(k[0], k[2], k[1]): k for k in STRATA if k[0] == "type3"}}


def all_incidence_types() -> Tuple[Incidence, ...]:
    return tuple(STRATA)


def _check_incidence(incidence: Incidence) -> Incidence:
    """The normalized incidence, a key of ``STRATA``; else ValueError."""
    try:
        return _SPELLINGS[tuple(incidence)]
    except (KeyError, TypeError):
        pass
    # every valid spelling is a key, so this only names the fault
    kind = incidence[0] if incidence else None
    if kind == "type1":
        raise ValueError("type1 takes no index")
    if kind == "type2" and len(incidence) != 2:
        raise ValueError("type2 needs one corner index")
    if kind == "type3" and len(incidence) != 3:
        raise ValueError("type3 needs a pair of corner indices")
    if kind not in ("type2", "type3"):
        raise ValueError("unknown incidence %r" % (incidence,))
    if not all(i in range(1, 5) for i in incidence[1:]):
        raise ValueError("corner indices are integers from 1 to 4")
    raise ValueError("type3 pair must be two distinct corners")


class Rank2Datum(_Value):
    """Gauge-fixed combinatorial datum of an indecomposable rank-2 sheaf.

    All fields are integers; the positivity pattern of the four jumps lam
    must match the incidence type (a type2 datum has exactly the named jump
    zero).  Divisibility of the jumps by the chart orders depends on the
    surface and is checked by the operations that take params.
    """

    __slots__ = ("b1", "b2", "lam", "incidence")

    def __init__(self, b1: int, b2: int, lam: Tuple[int, int, int, int],
                 incidence: Incidence = ("type1",)):
        b1, b2 = _integers((b1, b2), "b1 and b2 must be integers")
        lam = _integers(lam, "lam must be four nonnegative integers", 4)
        if min(lam) < 0:
            raise ValueError("lam must be four nonnegative integers")
        incidence = _check_incidence(incidence)
        zero = STRATA[incidence].zero
        if zero:
            if lam[zero - 1] != 0:
                raise ValueError("type2 datum needs its named jump zero")
            if lam.count(0) > 1:
                raise ValueError("type2 datum needs the other jumps positive")
        elif 0 in lam:
            raise ValueError("%s datum needs all jumps positive"
                             % incidence[0])
        self._store(b1, b2, lam, incidence)


def _stable(lam: Sequence[int], parts: Tuple[Tuple[int, int], ...],
            params: HirzebruchParams) -> bool:
    """The slope rule on the jumps lam over a stratum's parts (see
    ``stability_check``), on ints already checked."""
    pq = params.p * params.q
    w = (0, lam[0], pq * lam[1], lam[2], (params.r + pq) * lam[3])
    total = sum(w)
    for i, j in parts:
        if 2 * (w[i] + w[j]) >= total:
            return False
    return True


def stability_check(datum: Rank2Datum, params: HirzebruchParams) -> bool:
    """Slope stability of the datum: every part weighs less than half the sum.

    The parts are the stratum's corner pairs (see ``Stratum``); w[k] weighs
    corner k and w[0] = 0.  A type2 datum's vanishing jump is a zero part,
    whose inequality 0 < sum follows from the other three (they add up to
    sum > 0), so its rule is the triangle inequalities on the other three.
    """
    _require_divisibility(datum.lam, params)
    return _stable(datum.lam, STRATA[datum.incidence].parts, params)


def euler_weight(incidence: Incidence) -> int:
    """Euler characteristic of the incidence stratum modulo SL(2)."""
    return STRATA[_check_incidence(incidence)].weight


def incidence_chi_correction(incidence: Incidence,
                             lam: Sequence[int]) -> int:
    """Corner product restored when an adjacent pair of flag points merges.

    Only adjacent pairs carry a correction; the two diagonal coincidences
    leave the Euler characteristic untouched.
    """
    stratum = STRATA[_check_incidence(incidence)]
    return stratum.restored(_integers(lam, "lam must be four integers", 4))


def f4_exponent(C: int, r: int, m: int, n: int) -> int:
    """Four times the base exponent f(m, n); always an integer."""
    return 2 * (C - r) * n + 4 * C + 4 * m + 2 * m * n - n * n * r


def f_exponent(params: HirzebruchParams, m: int, n: int) -> Fraction:
    """Base exponent f(m, n) of the rank-2 series for first Chern class (m, n)."""
    m, n = _integers((m, n), "m, n must be integers")
    return Fraction(f4_exponent(params.C, params.r, m, n), 4)


def _rank2_chi4(params: HirzebruchParams, m: int, n: int,
                l1: int, l2: int, l3: int, l4: int) -> int:
    """Four times ``rank2_chi_exponent``, as an integer.

    4 chi = f4(m, n) - (l2 + l4) (2 (l1 + l3) + r (l2 - l4)).
    """
    r = params.r
    return (f4_exponent(params.C, r, m, n)
            - (l2 + l4) * (2 * (l1 + l3) + r * (l2 - l4)))


def rank2_chi_exponent(params: HirzebruchParams, cls: ClassLike,
                       lam: Sequence[int]) -> Fraction:
    """Modified Euler characteristic exponent before incidence corrections."""
    m, n = _class_ints(cls)
    lam = _integers(lam, "lam must be four integers", 4)
    return Fraction(_rank2_chi4(params, m, n, *lam), 4)


def _c1_chi4(b1: int, b2: int, lam: Sequence[int], stratum: Stratum,
             params: HirzebruchParams) -> Tuple[int, int, int]:
    """(m, n, 4 chi) of the datum (b1, b2, lam) on the stratum, on ints
    already checked; ArithmeticError if chi is not an integer."""
    l1, l2, l3, l4 = lam
    m = -(2 * b1 + l1 + l3 + l4 * params.r)
    n = -(2 * b2 + l2 + l4)
    chi4 = (_rank2_chi4(params, m, n, l1, l2, l3, l4)
            + 4 * stratum.restored(lam))
    if chi4 % 4:
        raise ArithmeticError("rank-2 Euler characteristic came out "
                              "non-integral: %s" % Fraction(chi4, 4))
    return m, n, chi4


def rank2_c1_chi(datum: Rank2Datum,
                 params: HirzebruchParams) -> Tuple[PicClass, int]:
    """First Chern class and modified Euler characteristic of the datum."""
    _require_divisibility(datum.lam, params)
    m, n, chi4 = _c1_chi4(datum.b1, datum.b2, datum.lam,
                          STRATA[datum.incidence], params)
    return PicClass(m, n), chi4 // 4


class PartitionQuadruple(_Value):
    """Four integer partitions coding a torsion-free subsheaf of a hull."""

    __slots__ = ("p1", "p2", "p3", "p4")

    def __init__(self, p1: Tuple[int, ...] = (), p2: Tuple[int, ...] = (),
                 p3: Tuple[int, ...] = (), p4: Tuple[int, ...] = ()):
        parts = []
        for part in (p1, p2, p3, p4):
            part = _integers(part, "partition parts must be integers")
            if any(x <= 0 for x in part):
                raise ValueError("partition parts must be positive")
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError("partition parts must be weakly decreasing")
            parts.append(part)
        self._store(*parts)

    def sizes(self) -> Tuple[int, int, int, int]:
        return (sum(self.p1), sum(self.p2), sum(self.p3), sum(self.p4))


def rank1_quotient_chi(hull: ClassLike, quad: PartitionQuadruple,
                       params: HirzebruchParams) -> int:
    """Modified Euler characteristic of the subsheaf cut out by the quadruple.

    Each cell in the first or fourth partition costs a, each cell in the
    second or third costs b.
    """
    s1, s2, s3, s4 = quad.sizes()
    base = modified_euler_characteristic(params, hull)
    return base - params.a * (s1 + s4) - params.b * (s2 + s3)


def tensor_shift(i: int, j: int, cls: ClassLike,
                 params: HirzebruchParams) -> int:
    """Exponent shift g(i, j) of the series when the class moves by (i, j)."""
    i, j = _integers((i, j), "i, j must be integers")
    m, n = _class_ints(cls)
    a, b, r = params.a, params.b, params.r
    return (i * (2 + n + 2 * j)
            + j * (a * b + a + b - 1 - r + m - n * r - r * j))
