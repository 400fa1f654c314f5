"""Checks on operation outputs that hold for any seed.

Every function here returns True when the output is right.  They run
outside the timed region.  Where a check needs the package itself (to run a
second engine, or a second layer that must agree), it says so.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


def same_window(first, second) -> bool:
    """Two series agree on every exponent both windows cover."""
    lo = max(first.min2exp, second.min2exp)
    a = {e: c for e, c in first.terms.items() if e >= lo}
    b = {e: c for e, c in second.terms.items() if e >= lo}
    return a == b


# ------------------------------------------------------------ rank 1

@lru_cache(maxsize=None)
def _partition_pairs(limit: int):
    """Number of ordered pairs of partitions of total size d, d <= limit."""
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for d in range(part, limit + 1):
            p[d] += p[d - part]
    return tuple(sum(p[i] * p[d - i] for i in range(d + 1))
                 for d in range(limit + 1))


def quadruple_count(a: int, b: int, deficit: int) -> int:
    """Partition quadruples whose cells cost a, b, b, a and total ``deficit``."""
    pairs = _partition_pairs(deficit)
    total = 0
    for s in range(deficit // a + 1):
        rest = deficit - a * s
        if rest % b == 0:
            total += pairs[s] * pairs[rest // b]
    return total


def rank1_matches_partitions(series, a, b, r, m, n) -> bool:
    """The rank-1 series leads at chi of the hull, then counts quadruples."""
    chi2 = (1 + n) * (a + b + 2 * m + a * b - 1 - n * r)
    if series.max2exp != chi2:
        return False
    for e2 in range(series.min2exp, chi2 + 1):
        off = chi2 - e2
        want = quadruple_count(a, b, off // 2) if off % 2 == 0 else 0
        if series.coeff2(e2) != want:
            return False
    return True


# ------------------------------------------------------------ lattices

def _matmul(x, y):
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def _det(rows) -> Fraction:
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def snf_holds(rows, result) -> bool:
    """U M V = D, U and V unimodular, D diagonal with a divisibility chain."""
    u = [list(r) for r in result.U.rows]
    d = [list(r) for r in result.D.rows]
    v = [list(r) for r in result.V.rows]
    if _matmul(_matmul(u, rows), v) != d:
        return False
    if abs(_det(u)) != 1 or abs(_det(v)) != 1:
        return False
    if any(d[i][j] for i in range(len(d)) for j in range(len(d[0])) if i != j):
        return False
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    if any(x < 0 for x in diag):
        return False
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x != 0):
            return False
    return True


def kernel_annihilates(matrix_rows, kernel) -> bool:
    """Every kernel basis vector is mapped to zero by the ray matrix."""
    return all(sum(p * q for p, q in zip(row, vec)) == 0
               for vec in kernel for row in matrix_rows)


# ------------------------------------------------------------ Euler

def _root(order: int, k: int) -> complex:
    return cmath.exp(2j * math.pi * (k % order) / order)


@lru_cache(maxsize=None)
def _rho(order, a_coef, m_res) -> complex:
    return sum(_root(order, m_res * l) / (1 - _root(order, -a_coef * l))
               for l in range(1, order))


@lru_cache(maxsize=None)
def _sigma(order, skip, a_coef, s_coef, m_res, n1_res) -> complex:
    return sum(_root(order, m_res * l) / (1 - _root(order, -a_coef * l))
               * (1 - _root(order, -n1_res * s_coef * l))
               / (1 - _root(order, -s_coef * l))
               for l in range(1, order) if l % skip)


def euler_float(params, m: int, n: int) -> float:
    """The Riemann-Roch formula for chi(m, n), root sums in floating point.

    The package evaluates the same sums exactly in cyclotomic fields; this
    evaluation shares none of that arithmetic.
    """
    a, b, r, p, q = params.a, params.b, params.r, params.p, params.q
    total = ((1 + n) / (2 * a) + (1 + n) / (2 * b) + (1 + n) * m / (a * b)
             - n * (n + 1) * r / (2 * a * b))
    total += (n + 1) / b * _rho(p, a % p, m % p).real
    total += (n + 1) / a * _rho(q, b % q, m % q).real
    total += _sigma(b, b // p, a % b, (params.s * a) % b, m % b,
                    (n + 1) % b).real / b
    total += _sigma(a, a // q, b % a, (params.t * b) % a, m % a,
                    (n + 1) % a).real / a
    return total


def euler_matches(params, m: int, n: int, value) -> bool:
    """chi is the integer the float formula rounds to; chi(O) = 1 and
    chi(0, 1) = 2 - u hold on every surface."""
    if not isinstance(value, int):
        return False
    if (m, n) == (0, 0) and value != 1:
        return False
    if (m, n) == (0, 1) and value != 2 - params.u:
        return False
    return abs(euler_float(params, m, n) - value) < 1e-6


# ------------------------------------------------------------ rank-2 data

def stable_by_rule(datum, params) -> bool:
    """Slope stability restated from the weights (L1, pq L2, L3, (r+pq) L4).

    type1 needs every weight below the sum of the other three; type2 drops
    the vanishing corner and type3 fuses the coinciding pair, then both
    need the triangle inequalities on the three weights left.
    """
    l1, l2, l3, l4 = datum.lam
    pq = params.p * params.q
    w = [l1, pq * l2, l3, (params.r + pq) * l4]
    kind = datum.incidence[0]
    if kind == "type2":
        del w[datum.incidence[1] - 1]
    elif kind == "type3":
        i, j = datum.incidence[1] - 1, datum.incidence[2] - 1
        w = [w[i] + w[j]] + [w[k] for k in range(4) if k not in (i, j)]
    return all(x < sum(w) - x for x in w)


ADJACENT = ((1, 2), (2, 3), (3, 4), (1, 4))


def c1_chi_matches(geometry, datum, params, result) -> bool:
    """Compare with the geometry layer's polynomial for the same sheaf.

    The class is the sum of the two summand classes the polynomial is built
    from, and chi is the polynomial's constant term.  Uses the package.
    """
    l1, l2, l3, l4 = datum.lam
    r = params.r
    c1, chi = result
    want_c1 = (-2 * datum.b1 - l1 - l3 - l4 * r, -2 * datum.b2 - l2 - l4)
    if (c1.m, c1.n) != want_c1:
        return False
    coinc = [datum.incidence[1:]] if datum.incidence[1:] in ADJACENT else []
    poly = geometry.rank2_indecomposable_mhp(params, datum.b1, datum.b2,
                                             datum.lam, coinc)
    return poly.coeff(0) == chi
