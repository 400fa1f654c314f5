"""Riemann-Roch assembled in ``Fraction`` arithmetic: a test oracle.

These are ``orbifold.geometry.euler_characteristic``,
``hilbert_polynomial`` and ``modified_hilbert_polynomial`` as they were
before each became one integer numerator over a known denominator: every
term is its own ``Fraction``, with the root-of-unity sums taken at their
value, half of what ``geometry._rho_sum`` and ``geometry._sigma_sum``
return.
"""

from fractions import Fraction

from orbifold.exact import RatPoly
from orbifold.geometry import _rho_sum, _sigma_sum, \
    modified_euler_characteristic


def euler_characteristic(params, m, n):
    a, b, r, p, q = params.a, params.b, params.r, params.p, params.q
    total = (Fraction(1 + n, 2 * a) + Fraction(1 + n, 2 * b)
             + Fraction((1 + n) * m, a * b)
             - Fraction(n * (n + 1) * r, 2 * a * b))
    total += Fraction(n + 1, b) * Fraction(_rho_sum(p, a % p, m % p), 2)
    total += Fraction(n + 1, a) * Fraction(_rho_sum(q, b % q, m % q), 2)
    total += Fraction(1, b) * Fraction(_sigma_sum(
        b, b // p, a % b, (params.s * a) % b, m % b, (n + 1) % b), 2)
    total += Fraction(1, a) * Fraction(_sigma_sum(
        a, a // q, b % a, (params.t * b) % a, m % a, (n + 1) % a), 2)
    if total.denominator != 1:
        raise ArithmeticError("Euler characteristic came out non-integral: %s"
                              % total)
    return int(total)


def hilbert_polynomial(params, m, n):
    a, b, r, p, q = params.a, params.b, params.r, params.p, params.q
    pq = p * q
    lead = Fraction(b * a * r, 2 * pq * pq) + Fraction(b * a, pq)
    lin = Fraction(a + b + 2 * m + r, 2 * pq) + (n + 1)
    lin += Fraction(a, pq) * Fraction(_rho_sum(p, a % p, m % p), 2)
    lin += Fraction(b, pq) * Fraction(_rho_sum(q, b % q, m % q), 2)
    return RatPoly((euler_characteristic(params, m, n), lin, lead))


def modified_hilbert_polynomial(params, m, n):
    a, b, r, p, q = params.a, params.b, params.r, params.p, params.q
    pq = p * q
    ab = a * b
    lead = Fraction(ab * ab * r, 2 * pq * pq) + Fraction(ab * ab, pq)
    lin = Fraction(ab * (a + b + r + 2 * m - 1 + ab), 2 * pq) + ab * (n + 1)
    return RatPoly((modified_euler_characteristic(params, (m, n)), lin,
                    lead))
