"""The quadruple-partition product as running sums: a test oracle.

This is the loop ``orbifold.genfun.vb_to_tf`` used before it divided by
sparse theta series.  It divides by each factor (1 - q^-s), s = a*k and b*k,
with 2*rank running-sum passes, so it is slow, O(rank*W^2/a) for W slots,
but plain.  It takes the arguments of ``genfun.vb_to_tf`` and returns the
same series.
"""

from fractions import Fraction
from math import lcm

from orbifold.exact import HalfExpLaurent


def vb_to_tf(series, rank, params):
    if series.is_zero:
        return series
    top, terms = series.max2exp, series.terms
    scale = lcm(*(c.denominator for c in terms.values()))
    coeffs = [0] * (top - series.min2exp + 1)
    for e2, c in terms.items():
        coeffs[top - e2] = c.numerator * (scale // c.denominator)
    for base in (params.a, params.b):
        for step in range(2 * base, len(coeffs), 2 * base):
            for _ in range(2 * rank):
                for i in range(step, len(coeffs)):
                    coeffs[i] += coeffs[i - step]
    return HalfExpLaurent(series.min2exp, {top - i: Fraction(c, scale)
                                           for i, c in enumerate(coeffs)})
