"""Exact arithmetic kernels shared by the whole package.

Three small algebra layers live here, each with only what the package uses:

* ``RatPoly``: dense univariate polynomials over Q, kept for the Hilbert
  polynomials in the auxiliary variable T that ``geometry`` builds, sums,
  scales by a sign and serializes; it has no product and no evaluation.
* ``Cyclotomic``: elements of Q(zeta_n) stored as coefficient vectors modulo
  the n-th cyclotomic polynomial, kept for the root-of-unity sums of the
  Riemann-Roch formulas: ``geometry`` adds, subtracts, multiplies and
  inverts elements of one field and certifies the total rational at the end
  (``rational_part``); nothing is ever approximated by floats.
* ``HalfExpLaurent``: truncated Laurent series in descending powers of q
  whose exponents may be half-integers, kept as the type of every counting
  series.  Exponents are keyed by their doubles, so every key is an
  ordinary int.  Each series carries the cutoff ``min2exp`` below which its
  coefficients are unknown; two series compare on their common sound window
  (``first_difference``).  Multiplication shrinks the sound window
  accordingly instead of silently producing contaminated coefficients; it
  and ``geometric_factor`` are the reference product that ``vb_to_tf`` is
  tested against.

Coefficients are exact: ``Cyclotomic`` keeps ``fractions.Fraction``
values (``Rational`` is an alias for it), ``RatPoly`` each as built, an int
or a ``Fraction``, and ``HalfExpLaurent`` an integral one as an int.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Mapping, Optional, Tuple, Union

from .intlattice import _Value, _integer, _integers

Rational = Fraction
RationalLike = Union[int, Fraction]

__all__ = [
    "Rational",
    "RatPoly",
    "Cyclotomic",
    "HalfExpLaurent",
    "cyclotomic_poly",
    "geometric_factor",
    "monomial",
]


# ---------------------------------------------------------------------------
# dense polynomial helpers (little-endian coefficient lists over Fraction)


def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over Q.  b must be nonzero."""
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(x) for x in a]
    rem = _trim(rem)
    db = len(b) - 1
    lead = b[-1]
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] -= factor * bi
        rem = _trim(rem)
    return _trim(quot), rem


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, lowest first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n; the division is exact over Z.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(2)
    (1, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, [Fraction(c) for c in cyclotomic_poly(d)])
    quot, rem = _poly_divmod(num, den)
    if rem:
        raise ArithmeticError("cyclotomic division left a remainder")
    out = []
    for c in quot:
        if c.denominator != 1:
            raise ArithmeticError("cyclotomic polynomial not integral")
        out.append(int(c))
    return tuple(out)


def _phi_degree(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


# ---------------------------------------------------------------------------
# cyclotomic field elements


class Cyclotomic(_Value):
    """An element of Q(zeta_n), reduced modulo the n-th cyclotomic polynomial.

    ``coeffs`` has length phi(n) and represents sum(coeffs[i] * zeta_n^i).
    Elements of different orders never mix; callers pick one field per sum.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Tuple[Fraction, ...]):
        if order < 1:
            raise ValueError("order must be positive")
        if len(coeffs) != _phi_degree(order):
            raise ValueError("coefficient vector has wrong length")
        self._store(order, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, order: int, value: RationalLike) -> "Cyclotomic":
        deg = _phi_degree(order)
        coeffs = [Fraction(value)] + [Fraction(0)] * (deg - 1)
        return cls(order, tuple(coeffs))

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls.from_rational(order, 1)

    @classmethod
    def root_power(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_order^k as a field element; k may be any integer.

        >>> Cyclotomic.root_power(4, 2) == Cyclotomic.from_rational(4, -1)
        True
        """
        return _root_power(order, k % order)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Cyclotomic"):
        if self.order != other.order:
            raise ValueError("cyclotomic orders differ")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(
            self.order,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        return Cyclotomic(self.order, _reduce_mod_phi(self.order, prod))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm.

        Q[x]/Phi_n is a field, so every nonzero element is invertible.
        """
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        phi = [Fraction(c) for c in cyclotomic_poly(self.order)]
        # invariants: r0 = s0*self + t0*phi, r1 = s1*self + t1*phi
        r0, r1 = _trim(list(self.coeffs)), phi
        s0, s1 = [Fraction(1)], []
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _trim(
                [
                    (s0[i] if i < len(s0) else Fraction(0)) - c
                    for i, c in enumerate(_pad(_poly_mul(q, s1), len(s0)))
                ]
            )
        if len(r0) != 1:
            raise ArithmeticError("element not invertible mod Phi_n")
        inv = [c / r0[0] for c in s0]
        return Cyclotomic(self.order, _reduce_mod_phi(self.order, inv))

    def rational_part(self) -> Fraction:
        """The element as a rational number; raises if it is not rational."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError("element is not rational: %r" % (self,))
        return self.coeffs[0]

    def __repr__(self):
        return "Cyclotomic(order=%d, coeffs=%s)" % (self.order, list(self.coeffs))


def _pad(coeffs, n):
    out = list(coeffs)
    while len(out) < n:
        out.append(Fraction(0))
    return out


def _reduce_mod_phi(order, coeffs) -> Tuple[Fraction, ...]:
    phi = [Fraction(c) for c in cyclotomic_poly(order)]
    _, rem = _poly_divmod(coeffs, phi)
    return tuple(_pad(rem, len(phi) - 1))


@lru_cache(maxsize=None)
def _root_power(order: int, k: int) -> Cyclotomic:
    mono = [Fraction(0)] * k + [Fraction(1)]
    return Cyclotomic(order, _reduce_mod_phi(order, mono))


# ---------------------------------------------------------------------------
# rational polynomials in one variable


class RatPoly(_Value):
    """Polynomial over Q, coefficients lowest degree first.

    ``RatPoly(coeffs)`` trims trailing zeros and keeps each coefficient as
    built: an int stays an int, a ``Fraction`` stays a ``Fraction``, and
    anything else (a float, a string) goes through ``Fraction`` once,
    exactly.  An int and the equal ``Fraction`` compare, hash and print
    alike, so equal polynomials are equal however they were built, and
    ``coeff`` returns a ``Fraction`` either way.

    >>> p = RatPoly((1, Fraction(1, 2), 0))
    >>> p.coeffs, p.degree, p.coeff(0)
    ((1, Fraction(1, 2)), 1, Fraction(1, 1))
    >>> print(p * 2 + RatPoly(("1/3", 0, 4)))
    4*T^2 + T + 7/3
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        coeffs = tuple(_trim([c if type(c) in (int, Fraction) else
                              Fraction(c) for c in coeffs]))
        self._store(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        """The coefficient of T^i, as a ``Fraction``."""
        return Fraction(self.coeffs[i] if 0 <= i < len(self.coeffs) else 0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        return RatPoly([a + b for a, b in
                        zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return RatPoly([a - b for a, b in
                        zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, k: RationalLike) -> "RatPoly":
        """The polynomial scaled by the number k."""
        return RatPoly([c * k for c in self.coeffs])

    def to_json(self) -> dict:
        return {"coeffs": [_frac_str(c) for c in self.coeffs]}

    def __str__(self):
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*T" % c if c != 1 else "T")
            else:
                parts.append("%s*T^%d" % (c, i) if c != 1 else "T^%d" % i)
        return " + ".join(parts).replace("+ -", "- ") or "0"


def _frac_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


# ---------------------------------------------------------------------------
# truncated Laurent series with half-integer exponents


class HalfExpLaurent:
    """Truncated Laurent series in q with exponents in (1/2)Z.

    Built from a doubled integer cutoff ``min2exp`` and a mapping
    ``{2*exponent: coefficient}`` with integer keys; zero coefficients and
    keys below the cutoff are dropped, and a non-integral cutoff or key is
    refused.  Coefficients at doubled exponents >= min2exp are exact,
    anything lower has been dropped and is unknown.  The high end is always
    exact (truncation only ever discards low-order tail).  Two series
    compare on the intersection of their sound windows through
    ``first_difference``.  An integral coefficient is stored as an int and
    any other as a ``Fraction``, so a window of integer counts builds no
    ``Fraction``; an int and the equal ``Fraction`` compare, hash and print
    alike, and ``coeff2`` returns a ``Fraction`` either way.
    """

    __slots__ = ("min2exp", "_terms")

    def __init__(self, min2exp: int, terms: Mapping[int, RationalLike] = {}):
        self.min2exp = lo = _integer(min2exp, "min2exp must be an integer")
        keys = _integers(terms.keys(), "doubled exponents must be integers")
        coeffs = [c if type(c) is int else _rational(c)
                  for c in terms.values()]
        self._terms = {e2: c for e2, c in zip(keys, coeffs) if c and e2 >= lo}

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coeff2(self, e2: int) -> Fraction:
        """Coefficient at doubled exponent e2 (must be inside the sound window)."""
        e2 = _integer(e2, "doubled exponent must be an integer")
        if e2 < self.min2exp:
            raise ValueError("exponent %s/2 is below the sound cutoff" % e2)
        return Fraction(self._terms.get(e2, 0))

    @property
    def max2exp(self):
        """Largest stored doubled exponent, or min2exp for an empty window."""
        return max(self._terms) if self._terms else self.min2exp

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic --------------------------------------------------------

    def shift2(self, d2: int) -> "HalfExpLaurent":
        """Multiply by q^(d2/2)."""
        return HalfExpLaurent(
            self.min2exp + d2, {e + d2: c for e, c in self._terms.items()}
        )

    def __mul__(self, other: "HalfExpLaurent") -> "HalfExpLaurent":
        # Dropped tail of one factor meets stored terms of the other below
        # min + partner's max; the sound window of the product starts there.
        lo = max(self.min2exp + other.max2exp, other.min2exp + self.max2exp)
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                if e < lo:
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return HalfExpLaurent(lo, out)

    # -- comparisons, serialization, display -------------------------------

    def __eq__(self, other):
        if not isinstance(other, HalfExpLaurent):
            return NotImplemented
        return self.min2exp == other.min2exp and self._terms == other._terms

    def first_difference(self, other: "HalfExpLaurent") -> Optional[int]:
        """Highest doubled exponent in both sound windows at which the
        coefficients differ, or None if they agree on all of it."""
        lo = max(self.min2exp, other.min2exp)
        return max((e for e, _ in self._terms.items() ^ other._terms.items()
                    if e >= lo), default=None)

    def to_json(self) -> dict:
        items = sorted(self._terms.items(), reverse=True)
        return {
            "min2exp": self.min2exp,
            "terms": [{"exp2": e, "coeff": _frac_str(c)} for e, c in items],
            "variable": "q",
        }

    def __str__(self):
        if not self._terms:
            return "0 + O(q^%s)" % _exp_str(self.min2exp)
        parts = []
        for e2 in sorted(self._terms, reverse=True):
            c = self._terms[e2]
            if e2 == 0:
                parts.append(_frac_str(c))
            else:
                cs = "" if c == 1 else ("-" if c == -1 else _frac_str(c) + "*")
                var = "q" if e2 == 2 else "q^%s" % _exp_str(e2)
                parts.append(cs + var)
        body = " + ".join(parts).replace("+ -", "- ")
        return "%s + O(q^%s)" % (body, _exp_str(self.min2exp))

    def __repr__(self):
        return "HalfExpLaurent(min2exp=%d, terms=%r)" % (
            self.min2exp,
            dict(sorted(self._terms.items(), reverse=True)),
        )


def _rational(c: RationalLike) -> RationalLike:
    """c as an exact number: an int if it is integral, else a Fraction."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exp_str(e2: int) -> str:
    if e2 % 2 == 0:
        return str(e2 // 2)
    return "(%d/2)" % e2


def monomial(exp: RationalLike, coeff: RationalLike = 1, min2exp=None) -> HalfExpLaurent:
    """The single-term series coeff * q^exp.

    A lone monomial is exact; its default cutoff sits at its own exponent,
    which keeps products with window-truncated series maximally sound.
    """
    e2 = Fraction(exp) * 2
    if e2.denominator != 1:
        raise ValueError("exponent must be a half-integer")
    e2 = int(e2)
    if min2exp is None:
        min2exp = e2
    return HalfExpLaurent(min2exp, {e2: coeff})


def geometric_factor(step: RationalLike, power: int, min2exp: int) -> HalfExpLaurent:
    """Expansion of (1 - q^(-step))^(-power) down to the cutoff.

    The coefficient of q^(-step*j) is binomial(j + power - 1, power - 1).

    >>> s = geometric_factor(1, 2, -6)
    >>> [s.coeff2(-2 * j) for j in range(4)]
    [Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(4, 1)]
    """
    step2 = Fraction(step) * 2
    if step2.denominator != 1 or step2 <= 0:
        raise ValueError("step must be a positive half-integer")
    step2 = int(step2)
    if power < 1:
        raise ValueError("power must be a positive integer")
    terms = {}
    j = 0
    while -step2 * j >= min2exp:
        terms[-step2 * j] = math.comb(j + power - 1, power - 1)
        j += 1
    return HalfExpLaurent(min2exp, terms)
