"""Exact toric computations for weighted projective stacks and Hirzebruch orbifolds.

The package builds stacky fans, evaluates Euler characteristics and Hilbert
polynomials of equivariant line bundles through closed Riemann-Roch formulas,
and expands generating functions of Euler characteristics of moduli of rank 1
and rank 2 torsion-free sheaves as truncated Laurent series, with several
independent evaluation routes that can be cross-checked coefficient by
coefficient.
"""

from orbifold.exact import (
    Cyclotomic,
    HalfExpLaurent,
    Rational,
    RatPoly,
    cyclotomic_poly,
    geometric_factor,
    monomial,
)

__version__ = "0.1.0"
