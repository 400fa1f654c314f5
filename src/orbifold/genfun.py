"""Truncated q-series counting sheaves on the Hirzebruch orbifold family.

``vb_to_tf`` multiplies a series by the quadruple-partition product, in
place on one integer list, by dividing it by sparse theta series: Euler's
pentagonal series and Jacobi's cube of Prod (1 - x^k) have only O(sqrt(W))
terms in a window of W slots.  Each tap is a whole power of q, an even
number of half-exponent slots, so the passes run only on those of the two
chains of slots (even and odd offsets from the top) that hold an input
term; a counting series, whose exponents are all Euler characteristics,
fills one.  The rank-1 torsion-free series is
``vb_to_tf`` at rank 1 of q^chi, chi the Euler characteristic of the hull.
The rank-2 locally-free series is evaluated by four independent routes:

* ``rank2_vb_csets`` -- signed lattice-point counts over nine constraint
  sets, valid for any surface in the family with r >= 0;
* ``rank2_vb_r0`` -- an independent transcription of the specialized
  constraint sets available when r = 0;
* ``rank2_vb_closed_p12`` -- fully explicit nested sums for the (1,2;0)
  surface, one family of terms per first-Chern-class parity, each added
  as geometric tails through one primitive, ``_geom``;
* ``rank2_vb_lambda`` -- direct enumeration of the rank-2 data
  (``sheafdata.Rank2Datum``) over the eleven strata of
  ``sheafdata.STRATA``, walking only the jumps inside the stratum's
  stability parts, and at r = 0 one side of the mirror that swaps l2 and
  l4; each datum walked is checked on plain ints by the kernels
  that ``stability_check`` and ``rank2_c1_chi`` wrap, ``sheafdata._stable``
  and ``sheafdata._c1_chi4``, and placed at its Euler characteristic.

Each engine's ``ENGINES`` row says how it lays out a window:
``Engine.window`` allocates one integer list, ``acc[e2 - lo2]`` for the
doubled exponent e2 >= lo2, up to the row's ``top2``, the highest
exponent any term can reach (f4/2 for csets, r0 and lambda, 12 for the
closed sums); the row's ``counts`` adds every constraint set (term
family, stratum) into it, and the series is built once from its nonzero
entries.  Each engine enumerates once, over the row's ``box``
(``_box``, ``_p12_tmax`` or ``_lambda_box``), derived from the depth of
the window; the box caps every index.  csets and r0 call each constraint
set once per window, with the range of j from 1 or 2 (j = n mod 2) up to
the box; the set works out its moduli, inverses and periods once and
runs its own j loop, which ends at the first j its cost floor keeps out
of the window (see ``_box``, which also shows that every exponent is a
half-integer).
Each csets, r0 and lambda loop visits only indices whose cost Q can
reach the window, and the closed loop stops at the last term family that
can.  A csets or r0 term of cost Q sits at index (f4 - Q)/2 - lo2, which
is >= 0 iff Q <= D (see ``_box``) and inside the list as Q > 0.  The
congruences of a set leave one residue class of i mod 2ab, whose terms
at one k lie a fixed stride apart in the list, so the set adds each run
with one strided range up to its last Q <= D, or one count where the
exponent does not depend on k.  At r = 0 the csets shift is 0 and its
sets 4, 5 and 9 repeat 3, 2 and 8, so it runs each pair once at weight
2, as r0 runs its sets 2 and 3.  ``ENGINES`` maps each engine name to its
entry point, its enumeration, its box, the inputs it covers and its
window top; every ``rank2_vb_*`` entry is one ``_enumerate`` call on its
row, and the command line and ``crosscheck``, which runs every
applicable engine and reports the first disagreeing exponent, dispatch
through it.  Every coefficient is exact, on a tracked sound window
(``exact.HalfExpLaurent``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .exact import HalfExpLaurent, monomial
from .geometry import ClassLike, HirzebruchParams, _class_ints, \
    derive_params, modified_euler_characteristic
from .intlattice import _Value, _integer
from .sheafdata import STRATA, _c1_chi4, _stable, f4_exponent


# The most doubled-exponent slots a window may span, from its highest
# possible term down to its cutoff: each engine and ``vb_to_tf`` lays the
# window out as one list, and refuses a longer one before building it.  A
# q^-5000 window on (1,2;0) spans about 10,001 slots.
MAX_WINDOW_SLOTS = 2 ** 15


def _check_window(top2: int, lo2: int):
    if top2 - lo2 + 1 > MAX_WINDOW_SLOTS:
        raise ValueError("window spans %d coefficient slots, more than the "
                         "limit of %d" % (top2 - lo2 + 1, MAX_WINDOW_SLOTS))


# ---------------------------------------------------------------------------
# rank 1
# ---------------------------------------------------------------------------

def rank1_series(params: HirzebruchParams, cls: ClassLike,
                 min2exp: int) -> HalfExpLaurent:
    """Series counting torsion-free rank-1 sheaves with the given hull class.

    The leading term sits at the Euler characteristic of the hull; each
    deeper coefficient counts quadruples of partitions whose cells cost a,
    b, b, a respectively: it is ``vb_to_tf`` of the lead term at rank 1.

    >>> pr = derive_params(1, 2, 0)
    >>> print(rank1_series(pr, (0, 0), -2))
    q^2 + 2*q + 7 + 14*q^-1 + O(q^-1)
    """
    chi = modified_euler_characteristic(params, cls)
    return vb_to_tf(monomial(chi, 1, min2exp), 1, params)


def _theta_taps(step: int, n: int, cube: bool) -> List[Tuple[int, int]]:
    """Terms (o, k), 0 < o < n, of E = Prod_k (1 - x^(step*k)) or of E^3.

    E = Sum_g (-1)^g x^(step*g(3g-1)/2) over all integers g (Euler's
    pentagonal number theorem) and E^3 = Sum_{m>=0} (-1)^m (2m+1)
    x^(step*m(m+1)/2) (Jacobi); both have constant term 1.
    """
    taps = []
    for m in count(1):
        for o, k in (((m * (m + 1) // 2, 2 * m + 1),) if cube else
                     ((m * (3 * m - 1) // 2, 1), (m * (3 * m + 1) // 2, 1))):
            if step * o >= n:
                return taps
            taps.append((step * o, -k if m & 1 else k))


def vb_to_tf(series: HalfExpLaurent, rank: int,
             params: HirzebruchParams) -> HalfExpLaurent:
    """Convolve a locally-free counting series up to the torsion-free one.

    Multiplies by the quadruple-partition product with multiplicity 2*rank
    per step, i.e. one free Young-diagram pair per chart line of each of the
    rank many hull summands: it divides by E^(2*rank) for each base a, b,
    where E = Prod_k (1 - q^(-base*k)).  With coeffs[i] at doubled exponent
    max2exp - i, scaled to integers by the lcm of the denominators, every
    tap offset is 2*base*o, even, so the slots at even and odd offsets from
    the top form two chains that never mix.  Each chain that holds an input
    term is divided on its own, with E as ``_theta_taps(base, ...)`` in
    chain units, and 2*rank = 3c + e passes: c against E^3 and e against E;
    a chain with no input term stays zero and is not visited.  Dividing by
    1 + Sum_o k_o x^o is one ascending pass of chain[i] -= Sum_{o <= i} k_o
    chain[i - o] over O(sqrt(W/base)) taps, for W slots.  The series of
    ``rank1_series`` and of the rank-2 engines fill one chain: each exponent
    is an Euler characteristic, an integer, so each doubled exponent is
    even.  The window is the input's sound one.
    """
    rank = _integer(rank, "rank must be a positive integer")
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    if series.is_zero:
        return series
    top, terms = series.max2exp, series.terms
    _check_window(top, series.min2exp)
    scale = lcm(*(c.denominator for c in terms.values()))
    coeffs = [0] * (top - series.min2exp + 1)
    for e2, c in terms.items():
        coeffs[top - e2] = c.numerator * (scale // c.denominator)
    cubes, ones = divmod(2 * rank, 3)
    for p in {(top - e2) & 1 for e2 in terms}:  # the occupied chains
        chain = coeffs[p::2]
        for base in (params.a, params.b):
            for cube, passes in ((True, cubes), (False, ones)):
                taps = _theta_taps(base, len(chain), cube)
                for _ in range(passes):
                    for i in range(len(chain)):
                        acc = 0
                        for o, k in taps:
                            if o > i:
                                break
                            acc += k * chain[i - o]
                        chain[i] -= acc
        coeffs[p::2] = chain
    out = {top - i: c for i, c in enumerate(coeffs) if c}
    if scale != 1:
        out = {e2: Fraction(c, scale) for e2, c in out.items()}
    return HalfExpLaurent(series.min2exp, out)


# ---------------------------------------------------------------------------
# shared rank-2 plumbing
# ---------------------------------------------------------------------------

def _box(params: HirzebruchParams, m: int, n: int, min2exp: int) -> int:
    """Box holding every csets and r0 term in the window.

    Each engine writes a term's exponent as (f4 - Q)/4 with a cost Q > 0,
    so the term is in the window iff Q <= D = f4 - 2*min2exp.  Here
    pq = p*q is at most r when r > 0 (p, q are coprime divisors of r) and
    is ab when r = 0, where the csets sets are the r0 sets.  Per set:
    2-5: Q = (2pq + r) l^2 + x (j + l) + y (j - l) with x = i - pq*l >= 1,
      y = pq*l - k >= 1 and |l| <= j - 2, so j, |l|, |i|, |k| <= D/2;
    6-7, i >= 1: Q = 2ij + r j^2, so i, j <= D/2 and
      |k| < max(i, (i + rj)/(r + pq)) <= D/2;
    6-7, i <= 0 (r > 0 only): k exists only if (2pq + r)|i| < r pq j, so
      |i|, |k| < j and r j (r j + 2) < (2pq + r) D;
    1: i = pq*j and Q = (2pq + r) j^2; 8-9: i >= pq*j + 1, so
      Q >= (2pq + r) j^2 + 2j; in both i <= D/2 and |k| < (pq + 2r) j.
    So the box is max(D/2, (pq + 2r) isqrt(D // c)), c = 2pq + r: the bound
    on j of 6-7 with i <= 0, T = (isqrt(c D) - 1) // r, never exceeds it.
    For if T > D/2, then T >= (D + 1)/2 and r T + 1 <= sqrt(c D)
    <= sqrt(3r D) (as c <= 3r), so r^2 (D + 1)^2 / 4 + r (D + 1) + 1
    <= 3r D, and with (D + 1)^2 >= 4D, r (r - 2) D + r + 1 <= 0: false for
    r >= 2.  At r = 1 (pq = 1, c = 3) it reads (D - 3)^2 <= 0, and at
    D = 3, T = 2 is below the wall term 3 isqrt(1).
    The box caps every index.  Each set also ends its own j loop, at the
    first j past the largest one that the floor of its cost lets reach the
    window, with c = 2pq + r (r0: c = 2ab, and its pinned and tail sets,
    quad sets and cone sets end as 1 and 8-9, 2-5 and 6-7):
    1: Q = c j^2, so the set ends once c j^2 > D, i.e. j > isqrt(D // c);
      8-9: Q >= c j^2 + 2j, and the set ends once that exceeds D;
    2-5, i = k (mod s), s = 2a or 2b: i > pq*l > k, so x + y = i - k >= s;
      with x, y >= 1, Q = c l^2 + j (x + y) + l (x - y) is least at
      x + y = s and x or y = 1, as j - |l| >= 2: Q >= c l^2 - (s - 2)|l|
      + s j.  So |l| <= L(j) = ((s - 2) + isqrt(disc)) // (2c) with
      disc = (s - 2)^2 + 4c (D - s j), and the set ends once disc < 0,
      i.e. j > (4cD + (s - 2)^2) // (4cs);
    6-7 with div_mod d, r = 0: d | i >= 1, so Q = 2ij >= 2dj, and the
      set ends once 2dj > D;
    6-7, r > 0: r j (r j + 2) < c D, as above when i <= 0 and as
      r j (r j + 2) <= r Q <= r D when i >= 1, so the set ends once
      r j (r j + 2) >= c D, i.e. j > T.
    The minus form (sets 4-5) also ends its loop at the first j whose l
    floor l_lo(j) = ceil((3j + r j^2 - D) / (2pq j - 1)) exceeds L(j), the
    cap on |l|, as its l interval is then empty at every larger j: L falls
    as j rises (disc does), and l_lo rises, since the j-derivative of
    (3j + r j^2 - D) / (2pq j - 1) has the sign of
    2r j (pq j - 1) + 2pq D - 3 > 0 for j >= 1 once D >= 2 (and these
    sets have no term when D < 2, as Q >= 2j >= 4).
    Parity: sets 2-5 have l = j (mod 2), so (j + l) and (j - l) are even and
    r l^2 = r j^2 (mod 2); every other set has Q = 2ij + r j^2.  So every
    term at a given j has f4 - Q = f4 - r j^2 (mod 2).  Every j of a window
    has j = n (mod 2), so j^2 = j = n (mod 2) and f4 - r j^2 = f4 - r n
    (mod 2), and f4 - r n = 2 (C - r) n + 4C + 4m + 2mn - r n (n + 1) is
    even: every exponent (f4 - Q)/4 is a half-integer.
    """
    r, pq = params.r, params.p * params.q
    span = max(0, f4_exponent(params.C, r, m, n) - 2 * min2exp)
    return max(span // 2, (pq + 2 * r) * isqrt(span // (2 * pq + r)))


def _f4_top2(params: HirzebruchParams, m: int, n: int) -> int:
    """Highest doubled exponent a csets, r0 or lambda term can reach."""
    if params.r < 0:
        raise ValueError("rank-2 series engines need r >= 0")
    return f4_exponent(params.C, params.r, m, n) // 2


def _enumerate(name: str, params: HirzebruchParams, cls: ClassLike,
               min2exp: int) -> HalfExpLaurent:
    """The window of engine ``name`` over the box its row derives.

    The row's ``refusal`` is the caller's to check (``Engine.run``,
    ``crosscheck``); here only ``top2`` refuses r < 0, for the engines
    that take the caller's surface.
    """
    m, n = _class_ints(cls)
    return ENGINES[name].window(
        params, m, n, _integer(min2exp, "min2exp must be an integer"))


# ---------------------------------------------------------------------------
# engine: csets (general r >= 0)
# ---------------------------------------------------------------------------

def _cs_pinned(acc, js, f4, m, a, b, r, pq, lo2, M):
    """Set 1: four-index tuples pinned to the hyperplane i = pq*j (weight -1).

    All at Q = (2pq + r) j^2 > 0, counted if Q <= D: per l, the k in
    (-i - r(j - l), i), k >= -M, with k = i (mod 2b), k = -i - r(j - l)
    (mod 2a).
    """
    c, inv, period = 2 * pq + r, pow(b, -1, a), 2 * a * b
    for j in js:
        i, e4 = pq * j, f4 - c * j * j
        if i > M or e4 < 2 * lo2:
            return  # i rises and e4 falls with j
        if (m + i) % 2:
            continue
        hits = 0
        for l in range(-j + 2, j, 2):
            rjl = r * (j - l)
            k_lo = max(-i - rjl + 1, -M)
            k = i + 2 * b * ((-i - rjl // 2) * inv % a)
            hits += len(range(k_lo + (k - k_lo) % period, i, period))
        acc[(e4 >> 1) - lo2] -= hits


def _cs_quad(acc, js, f4, m, a, b, r, pq, lo2, M, step, cross_mod, plus_form,
             weight):
    """Sets 2-5: the generic four-index family with the bilinear exponent.

    ``plus_form`` picks the sign convention tying the congruence target and
    the k-interval to j+l (sets 2 and 3) or to j-l (sets 4 and 5).  Per l,
    k walks down (k = m mod 2, k_floor < k < pq*l, |k| <= M), each adding
    its i = k (mod ``step``), i = -k - shift (mod ``cross_mod``) from
    lo = max(pq*l, -k - shift) + 1 to hi, the last i <= M with Q <= D, at
    indices ab (j + l) apart; lo rises and hi falls, so it ends at the first
    empty run.  i > pq*l > k and i = k (mod ``step``) give
    Q >= c l^2 - (step - 2)|l| + step j with c = 2pq + r, bounding |l| by
    the upper root L of that quadratic; past the last j at which it has a
    real root, no l is left (see ``_box``).  i > -k - shift
    gives Q >= 3j + (1 - 2pq j) l - shift (j + l) + r l^2, bounding l
    below.  The minus form's loop ends at the first j whose l floor
    exceeds L (see ``_box``).  Each hit adds ``weight``: at r = 0 both
    forms have shift 0, one k-floor, l floor and target, so one runs with
    weight 2.
    """
    span, c = f4 - 2 * lo2, 2 * pq + r
    mod, period = cross_mod // 2, step * cross_mod // 2
    inv = pow(step // 2, -1, mod)
    for j in js:
        disc = (step - 2) ** 2 + 4 * c * (span - step * j)
        if disc < 0:
            return  # disc falls as j rises
        L = min(M, (step - 2 + isqrt(disc)) // (2 * c))
        if plus_form:
            l_lo = -((span - 3 * j + r * j * j) // (2 * (pq + r) * j - 1))
        else:
            l_lo = -((span - 3 * j - r * j * j) // (2 * pq * j - 1))
            if l_lo > L:
                return
        l_lo = max(-j + 2, -L, l_lo)
        for l in range(l_lo + (j + l_lo) % 2, min(j - 2, L) + 1, 2):
            jp, jm, pql = j + l, j - l, pq * l
            shift = r * jp if plus_form else -r * jm
            k_floor = -pq * j - shift if plus_form else -pq * j
            room, half, stride = span - r * l * l, shift // 2, period // 2 * jp
            k_top = pql - 1 if pql <= M else M
            for k in range(k_top - (k_top - m) % 2, max(k_floor, -M - 1), -2):
                # twice the index of (i, k) is cap - i (j + l)
                cap = room + k * jm
                lo = (pql if pql > -k - shift else -k - shift) + 1
                hi = cap // jp
                if hi > M:
                    hi = M
                if lo > hi:
                    break
                i = k + step * ((-k - half) * inv % mod)
                i = lo + (i - lo) % period
                for x in range((cap - i * jp) // 2, (cap - hi * jp) // 2 - 1,
                               -stride):
                    acc[x] += weight


def _cs_ratio(acc, js, f4, m, a, b, r, pq, lo2, M, div_mod):
    """Sets 6-7: three-index tuples with congruence 2*div_mod | 2i + r(j+k).

    Q = 2ij + r j^2 does not involve k: each i up to the last Q <= D adds
    its s = (j + k)/2 (|k| < M as i, j <= M) with r s = -i (mod div_mod),
    which needs g = gcd(r, div_mod) | i.  A row with Q <= 0 has no k
    (k > -(2i + r j)/r >= 0 > (i - 1)/pq) and is not written.
    """
    g = gcd(r, div_mod)
    if m % 2 and g % 2 == 0:
        return  # i = m (mod 2) and g | i
    mod, period = div_mod // g, lcm(2, g)
    inv, span, c = pow(r // g, -1, mod), f4 - 2 * lo2, 2 * pq + r
    for j in js:
        if r * j * (r * j + 2) >= c * span if r else 2 * div_mod * j > span:
            return  # no row reaches the window (see ``_box``)
        # i may dip below 1 when the twist dominates; the k-window is only
        # nonempty while (2*pq + r) * |i| < r * pq * j
        i_lo = -((r * pq * j) // c) - 1 if r else 1
        cap = span - r * j * j  # twice the index of row i is cap - 2ij
        for i in range(i_lo + (g * (m % 2) - i_lo) % period,
                       min(pq * j - 1, M, cap // (2 * j)) + 1, period):
            k_lo = (-i - r * j) // (r + pq) + 1
            if r > 0:
                k_lo = max(k_lo, (-2 * i - r * j) // r + 1)
            s = (k_lo + j + 1) // 2
            s += (-(i // g) * inv - s) % mod
            hits = len(range(s, ((i - 1) // pq + j) // 2 + 1, mod))
            if hits:
                acc[cap // 2 - i * j] += hits


def _cs_tail(acc, js, f4, m, a, b, r, pq, lo2, M, twisted, weight):
    """Sets 8-9: three-index tuples beyond the i = pq*j wall.

    ``twisted`` widens the k-interval by the twist and twists the
    congruence; the plain variant drops r, so at r = 0 the two coincide and
    one runs, each hit adding ``weight`` 2.  The i of a k (i = k mod 2b,
    i = -k - shift mod 2a) run from pq*j + 1, so Q >= (2pq + r) j^2 + 2j
    > 0, to the last i <= M with Q <= D, at indices 2ab j apart.
    """
    span, inv, period = f4 - 2 * lo2, pow(b, -1, a), 2 * a * b
    for j in js:
        cap = span - r * j * j  # twice the index of (i, k) is cap - 2ij
        if 2 * pq * j * j + 2 * j > cap:
            return  # Q >= (2pq + r) j^2 + 2j rises with j
        k_floor, half = (-(pq + 2 * r) * j, r * j) if twisted else (-pq * j, 0)
        i_hi = min(M, cap // (2 * j))
        k_lo = max(k_floor + 1, -M)
        for k in range(k_lo + (m + k_lo) % 2, min(pq * j - 1, M) + 1, 2):
            i = k + 2 * b * ((-k - half) * inv % a)
            i = pq * j + 1 + (i - pq * j - 1) % period
            for x in range(cap // 2 - i * j, cap // 2 - i_hi * j - 1,
                           -period * j):
                acc[x] += weight


def _csets_counts(acc: List[int], params: HirzebruchParams, m: int, n: int,
                  lo2: int, M: int):
    a, b, r = params.a, params.b, params.r
    pq = params.p * params.q
    f4 = f4_exponent(params.C, r, m, n)
    first = 2 - n % 2  # every set needs j = n (mod 2)
    forms, weight = ((True, False), 1) if r else ((True,), 2)  # see _cs_quad
    sets = [(_cs_pinned, ()), (_cs_ratio, (b,)), (_cs_ratio, (a,))]
    for form in forms:
        sets += [(_cs_quad, (s, t, form, weight))
                 for s, t in ((2 * b, 2 * a), (2 * a, 2 * b))]
        sets.append((_cs_tail, (form, weight)))
    for run, extra in sets:  # each set ends its own j loop (see ``_box``)
        run(acc, range(first, M + 1, 2), f4, m, a, b, r, pq, lo2, M, *extra)


def rank2_vb_csets(params: HirzebruchParams, cls: ClassLike,
                   min2exp: int) -> HalfExpLaurent:
    """Rank-2 locally-free counting series by signed lattice enumeration.

    Needs r >= 0; the negatively twisted surfaces are isomorphic to their
    mirrors and are out of scope here.  Enumerates once, over the box
    ``_box`` derives from the window.
    """
    return _enumerate("csets", params, cls, min2exp)


# ---------------------------------------------------------------------------
# engine: r0 (independent transcription of the r = 0 specialization)
# ---------------------------------------------------------------------------

def _r0_pinned(acc, js, f4, m, a, b, lo2, M):
    """Pinned set of the r = 0 family: i = ab*j, weight -1, Q = 2ab j^2.

    k = i (mod 2b), i + k = 0 (mod 2a) say k = i (mod 2ab): each of the
    j - 1 values of l counts k = i - 2ab t, 0 < t < j (|k| < i <= M).
    """
    ab = a * b
    for j in js:
        i, e4 = ab * j, f4 - 2 * ab * j * j
        if i > M or e4 < 2 * lo2:
            return  # i rises and e4 falls with j
        if (m + i) % 2 == 0:
            acc[(e4 >> 1) - lo2] -= (j - 1) ** 2


def _r0_quad(acc, js, f4, m, a, b, lo2, M, step, cross_mod):
    """Sets 2-3 of the r = 0 family, each counted twice.

    As ``_cs_quad`` at r = 0, with i > max(ab*l, -k), -ab*j < k < ab*l:
    i - k is a positive multiple of ``step``, so
    Q >= 2ab l^2 - (step - 2)|l| + step j bounds |l| by the upper root L
    (no l is left once 8ab (D - step j) + (step - 2)^2 < 0, at this j and
    every larger one), Q >= 3j + (1 - 2ab j) l bounds l below, and each k
    adds its i = k (mod ``step``), i = -k (mod ``cross_mod``) up to the
    last i <= M with Q <= D, ab (j + l) apart.
    """
    ab, span = a * b, f4 - 2 * lo2
    mod, inv = cross_mod // 2, pow(step // 2, -1, cross_mod // 2)
    for j in js:
        disc = 8 * ab * (span - step * j) + (step - 2) ** 2
        if disc < 0:
            return  # and at every larger j
        L = min(M, (isqrt(disc) + step - 2) // (4 * ab))
        l_lo = max(-j + 2, -L, -((span - 3 * j) // (2 * ab * j - 1)))
        for l in range(l_lo + (j + l_lo) % 2, min(j - 2, L) + 1, 2):
            jp, jm, abl = j + l, j - l, ab * l
            k_top = abl - 1 if abl <= M else M
            for k in range(k_top - (k_top - m) % 2, max(-ab * j, -M - 1), -2):
                cap = span + k * jm  # twice the index is cap - i (j + l)
                lo = (abl if abl > -k else -k) + 1
                hi = cap // jp
                if hi > M:
                    hi = M
                if lo > hi:
                    break
                i = k + step * (-k * inv % mod)
                i = lo + (i - lo) % (2 * ab)
                for x in range((cap - i * jp) // 2, (cap - hi * jp) // 2 - 1,
                               -ab * jp):
                    acc[x] += 2


def _r0_cone(acc, js, f4, m, a, b, lo2, M, div):
    """Sets 4-5 of the r = 0 family: div | i inside the open cone |ab*k| < i.

    Q = 2ij > 0 does not involve k: each i up to the last Q <= D adds its
    k = j (mod 2), |k| <= (i - 1) // ab (inside |k| <= M, as i <= M).
    """
    ab, cap = a * b, f4 - 2 * lo2  # twice the index of row i is cap - 2ij
    for j in js:
        if 2 * div * j > cap:
            return  # Q = 2ij >= 2 div j rises with j
        for i in range(div, min(ab * j - 1, M, cap // (2 * j)) + 1, div):
            if (m + i) % 2 == 0:
                k_max = (i - 1) // ab
                acc[cap // 2 - i * j] += k_max + 1 - (k_max + j) % 2


def _r0_tail(acc, js, f4, m, a, b, lo2, M):
    """Wall tail of the r = 0 family: i > ab*j, so Q = 2ij >= 2ab j^2 + 2j.

    The i of a k (i = k mod 2b, i = -k mod 2a), each counted twice, run
    from ab*j + 1 to the last i <= M with Q <= D, at indices 2ab j apart.
    """
    ab, cap = a * b, f4 - 2 * lo2  # twice the index of (i, k) is cap - 2ij
    inv = pow(b, -1, a)
    for j in js:
        if 2 * ab * j * j + 2 * j > cap:
            return  # Q >= 2ab j^2 + 2j rises with j
        i_hi = min(M, cap // (2 * j))
        k_lo = max(-ab * j + 1, -M)
        for k in range(k_lo + (m + k_lo) % 2, min(ab * j - 1, M) + 1, 2):
            i = k + 2 * b * (-k * inv % a)
            i = ab * j + 1 + (i - ab * j - 1) % (2 * ab)
            for x in range(cap // 2 - i * j, cap // 2 - i_hi * j - 1,
                           -2 * ab * j):
                acc[x] += 2


def _r0_counts(acc, params, m, n, lo2, M):
    a, b = params.a, params.b
    f4 = f4_exponent(params.C, 0, m, n)
    first = 2 - n % 2  # every set needs j = n (mod 2)
    sets = [(_r0_pinned, ()), (_r0_quad, (2 * b, 2 * a)),
            (_r0_quad, (2 * a, 2 * b)), (_r0_cone, (b,)), (_r0_cone, (a,)),
            (_r0_tail, ())]
    for run, extra in sets:  # each set ends its own j loop (see ``_box``)
        run(acc, range(first, M + 1, 2), f4, m, a, b, lo2, M, *extra)


def rank2_vb_r0(a: int, b: int, cls: ClassLike,
                min2exp: int) -> HalfExpLaurent:
    """Rank-2 locally-free series on the untwisted surface, r = 0 route.

    Transcribed from the specialized constraint sets rather than by setting
    r = 0 in the general engine, so the two evaluations are independent.
    """
    return _enumerate("r0", derive_params(a, b, 0), cls, min2exp)


# ---------------------------------------------------------------------------
# engine: closed nested sums for the (1,2;0) surface
# ---------------------------------------------------------------------------

def _geom(acc, e2, step2, coeff, lo2):
    """Add coeff * q^(e2/2) / (1 - q^(-step2/2)) within the window.

    The closed engine's one accumulation primitive: every sum below adds
    its terms through it.
    """
    for i in range(e2 - lo2, -1, -step2):
        acc[i] += coeff


def _geoms(acc, base2, p, d_hi, step2, coeff, lo2):
    """One ``_geom`` per d = p, ..., d_hi - 1, from e2 = base2 - 4*p*d."""
    for d in range(p, d_hi):
        e2 = base2 - 4 * p * d
        if e2 < lo2:
            break
        _geom(acc, e2, step2, coeff, lo2)


def _ratios(acc, p, d_hi, coeff, lo2, family):
    """Adds coeff * sum_{u>=1} q^(base2/2) sum_{d=p}^{d_hi-1} q^(-s*d),
    (s, base2) = family(u), within the window: one ``_geom`` per d.

    Every family is affine in u with s > 0, so the term at (u, d) sits at
    e2(u, d) = top(d) - (u - 1) step(d), top(d) = b1 - 2 s1 d and
    step(d) = (b1 - b2) + 2 (s2 - s1) d, with (s1, b1) = family(1) and
    (s2, b2) = family(2); step(d) > 0 on [p, d_hi).  So at a fixed d the
    terms over u are one geometric tail, and top(d) falls as d rises.  The
    loop over d returns at the first d whose top lies below the window:
    there and at every later d, e2(u, d) <= top(d) < lo2.  So it adds
    exactly the (u, d) with e2(u, d) >= lo2, as does a loop over u that
    ends at the first u whose d = p term lies below the window, since
    e2(u, d) <= e2(u, p) and e2(u, p) falls as u rises.
    """
    s1, b1 = family(1)
    s2, b2 = family(2)
    for d in range(p, d_hi):
        top = b1 - 2 * s1 * d
        if top < lo2:
            return
        _geom(acc, top, b1 - b2 + 2 * (s2 - s1) * d, coeff, lo2)


def _p12_00(acc, t, lo2):
    e2 = 2 * (4 - 4 * t * t)
    if e2 >= lo2:
        acc[e2 - lo2] -= (2 * t - 1) ** 2
    for p in range(1, 2 * t + 1):
        _ratios(acc, p, 2 * t + 1, 4, lo2, lambda u: (
            2 * u + 2 * p, 2 * (4 - (4 * t + 4) * (t - p + 1) - 2 * p - 2 * u)))
        _ratios(acc, p, 2 * t + 1, 4, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (4 - (4 * t + 2) * (t - p + 1))))
        _geoms(acc, 2 * (4 - (4 * t + 4) * (t - p + 1) - 2 * p), p, 2 * t + 1,
               2 * (4 * t + 4 - 2 * p), 4, lo2)
    for p in range(1, 2 * t):
        _geoms(acc, 2 * (4 - 2 * t * (2 * t - 2 * p + 1)), p, 2 * t,
               2 * (4 * t - 2 * p), 4, lo2)
    w = 2 * (2 * t - 1)
    _geom(acc, 2 * (4 - 4 * t * (t + 1)), 2 * 4 * t, w, lo2)
    _geom(acc, 2 * (4 - (4 * t - 2) * t), 2 * (4 * t - 2), w, lo2)
    _geom(acc, 2 * (4 - 4 * t * (t + 1)), 2 * 4 * t, w, lo2)
    # last tail: splitting the wall sets by odd/even multiples of 2t forces
    # coefficient 4t here, not 2(2t-1); see the i > pq*j lattice count
    _geom(acc, 2 * (4 - 2 * t * (2 * t + 1)), 2 * 4 * t, 4 * t, lo2)


def _p12_10(acc, t, lo2):
    for p in range(1, 2 * t + 1):
        _ratios(acc, p, 2 * t + 1, 2, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (5 - (4 * t + 1) * (t - p + 1))))
        _ratios(acc, p, 2 * t + 1, 2, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (5 - (4 * t + 2) * (t - p + 1) + t + u)))
        _ratios(acc, p, 2 * t + 1, 2, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (5 - (4 * t + 2) * (t - p + 1) - t - u)))
    for p in range(1, 2 * t):
        _ratios(acc, p, 2 * t, 2, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (5 - (4 * t - 1) * (t - p))))
        for base2 in (2 * (5 - (4 * t + 1) * (t - p) - 2 * p),
                      2 * (5 - (4 * t + 1) * (t - p) - p),
                      2 * (5 - (4 * t + 3) * (t - p) - 2 * p),
                      2 * (5 - (4 * t + 3) * (t - p) - 3 * p)):
            _geoms(acc, base2, p, 2 * t, 2 * (4 * t - 2 * p), 2, lo2)
    # tail pieces: the i < pq*j wedge counts 1,1,3,3,5,5 points per
    # diagonal, so the two geometric families carry odd coefficients
    # 2t-1 (with the 4t-3 family starting one index earlier), while the
    # wall family keeps 4t
    _geom(acc, 2 * (5 - (4 * t - 3) * t), 2 * (4 * t - 3), 2 * t - 1, lo2)
    _geom(acc, 2 * (5 - (4 * t - 1) * t), 2 * (4 * t - 1), 2 * t - 1, lo2)
    _geom(acc, 2 * (5 - (4 * t + 1) * t), 2 * 2 * t, 4 * t, lo2)


def _p12_01(acc, t, lo2):
    e2 = 2 * (6 - (2 * t + 1) ** 2)
    if e2 >= lo2:
        acc[e2 - lo2] -= 4 * t * t
    for p in range(1, 2 * t):
        _ratios(acc, p, 2 * t, 4, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (6 - 2 * t * (2 * t - 2 * p + 1))))
        _ratios(acc, p, 2 * t, 4, lo2, lambda u: (
            2 * u + 2 * p, 2 * (5 - 4 * t * (t - p + 1) - 2 * u)))
        _geoms(acc, 2 * (5 - 4 * t * (t - p + 1)), p, 2 * t,
               2 * (4 * t + 2 - 2 * p), 4, lo2)
    for p in range(1, 2 * t + 1):
        _geoms(acc, 2 * (6 - (4 * t + 2) * (t - p + 1)), p, 2 * t + 1,
               2 * (4 * t + 2 - 2 * p), 4, lo2)
    # wedge families count 4t points per diagonal and the off-wall family
    # 4(t-1), vanishing at t = 1: no odd power of q survives in the tails
    _geom(acc, 2 * (6 - 2 * t * (2 * t + 1)), 2 * 4 * t, 4 * t, lo2)
    if t > 1:
        _geom(acc, 2 * (6 - (2 * t - 1) * (2 * t + 1)), 2 * (4 * t - 2),
              4 * (t - 1), lo2)
    _geom(acc, 2 * (6 - 2 * t * (2 * t - 1)), 2 * (4 * t - 2), 2 * (2 * t - 1), lo2)
    _geom(acc, 2 * (6 - (2 * t + 1) * (2 * t + 3)), 2 * (4 * t + 2), 4 * t, lo2)


def _p12_11(acc, t, lo2):
    for p in range(1, 2 * t + 1):
        _ratios(acc, p, 2 * t + 1, 2, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (7 - (4 * t + 3) * (t - p) - 2 * p)))
        for base2 in (2 * (8 - (4 * t + 3) * (t - p + 1)),
                      2 * (8 - (4 * t + 3) * (t - p + 1) - p),
                      2 * (7 - (4 * t + 1) * (t - p + 1)),
                      2 * (7 - (4 * t + 1) * (t - p + 1) + p)):
            _geoms(acc, base2, p, 2 * t + 1, 2 * (4 * t + 2 - 2 * p), 2, lo2)
    for p in range(1, 2 * t):
        _ratios(acc, p, 2 * t, 2, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (7 - (4 * t - 1) * (t - p + 1) - u + p)))
        # multiplier is 4t+1 here (the neighbouring family uses 4t-1)
        _ratios(acc, p, 2 * t, 2, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (8 - (4 * t + 1) * (t - p) - 2 * p)))
        _ratios(acc, p, 2 * t, 2, lo2, lambda u: (
            2 * u + 2 * p - 2, 2 * (7 - (4 * t + 1) * (t - p) - p + u)))
    _geom(acc, 15 - (2 * t + 1) * (4 * t + 1), 2 * (4 * t + 1), 2 * t, lo2)
    _geom(acc, 15 - (2 * t + 1) * (4 * t - 1), 2 * (4 * t - 1), 2 * t, lo2)
    _geom(acc, 15 - (2 * t - 1) * (4 * t + 1), 2 * (4 * t - 2), 2 * (2 * t - 1), lo2)
    _geom(acc, 15 - (2 * t - 1) * (4 * t - 1), 2 * (4 * t - 2), 2 * (2 * t - 1), lo2)


_P12_TERMS = {(0, 0): _p12_00, (1, 0): _p12_10,
              (0, 1): _p12_01, (1, 1): _p12_11}

# every term of family t lies at or below 2 (8 - 2t^2) <= 12 (``_p12_tmax``)
_P12_TOP2 = 12

# the one surface the closed sums cover
_P120 = derive_params(1, 2, 0)


def _p12_tmax(min2exp: int) -> int:
    """Largest t whose term family can reach the window.

    Each piece of family t peaks at u = 1, d = p, concave in p; over
    1 <= p <= 2t the family's top exponent is, for t >= 2, 4 - 2t - 2t^2
    (class (0,0)), 5 - 2t^2 (1,0), 6 - 2t - 2t^2 (0,1), 8 - t - 2t^2 (1,1),
    and 2, 4, 4, 6 at t = 1.  All are <= 8 - 2t^2, so a family in the
    window has 2 (8 - 2t^2) >= min2exp, i.e. t <= sqrt((16 - min2exp)/4).
    """
    return isqrt(max(0, 16 - min2exp) // 4)


def _closed_counts(acc, params, m, n, lo2, M):
    """The term families t = 1 .. min(M, ``_p12_tmax``) of class (m, n)."""
    for t in range(1, min(M, _p12_tmax(lo2)) + 1):
        _P12_TERMS[(m, n)](acc, t, lo2)


def rank2_vb_closed_p12(cls: ClassLike, min2exp: int) -> HalfExpLaurent:
    """Rank-2 locally-free series on the (1,2;0) surface from explicit sums.

    Only the four parity representatives are written out; other classes
    reduce to them by an even twist and must be reduced by the caller.
    Runs the term families t = 1, 2, ... up to ``_p12_tmax``, the last one
    that can reach the window, and adds every sum of a family as geometric
    tails through ``_geom``: one per d (``_ratios``, ``_geoms``) or one
    per piece.

    A few tail coefficients differ from the commonly quoted closed forms:
    they were re-derived here from the lattice counts they summarize, and
    the re-derived versions are the ones that match the enumeration
    engines exactly at every order.  The deliberate deviations are marked
    by comments in the per-class term functions above.
    """
    m, n = _class_ints(cls)
    if (m, n) not in _P12_TERMS:
        raise ValueError(_closed_refusal(_P120, m, n))
    return _enumerate("closed", _P120, (m, n), min2exp)


# ---------------------------------------------------------------------------
# engine: lambda (direct enumeration of rank-2 data)
# ---------------------------------------------------------------------------

# the mirror of a corner: corners 2 and 4 swapped (see ``_lambda_counts``)
_MIRROR = {1: 1, 2: 4, 3: 3, 4: 2}


def _mirror_fold(incidence) -> int:
    """How many strata the stratum counts for at r = 0: 2 if it comes before
    its mirror (corners 2 and 4 swapped) in ``STRATA``, 0 if after, and 1 if
    it is its own mirror."""
    keys = list(STRATA)
    mirror = (incidence[0],) + tuple(sorted(_MIRROR[k] for k in incidence[1:]))
    i, j = keys.index(incidence), keys.index(mirror)
    return 1 + (j > i) - (j < i)


# ``sheafdata.STRATA`` as ``_lambda_counts`` reads it, built once: per
# stratum its cost-line slopes (d12, d14, d32, d34), its rows
# (c1, c3, k2, k4), one per stability part, and its mirror fold
_LAMBDA_STRATA = tuple(
    (incidence, stratum,
     tuple(4 * (set(stratum.corner) == {x, c}) - 2
           for x in (1, 3) for c in (2, 4)),
     tuple(tuple(sign if k in part else -sign
                 for k, sign in ((1, 1), (3, 1), (2, -1), (4, -1)))
           for part in stratum.parts),
     _mirror_fold(incidence))
    for incidence, stratum in STRATA.items())


def _lambda_l4_start(corner, l2: int, pq: int, r: int, span: int) -> int:
    """An l4 >= 1 below which no slice (l2, l4) costs D = span or less
    (see ``_lambda_counts``)."""
    if corner:  # (r + 2pq) y^2 - 2y + 4 l2 - D <= 0 with y = l2 - l4 >= 1
        c = r + 2 * pq
        disc = 1 + c * (span - 4 * l2)
        start = l2 - (1 + isqrt(disc)) // c if disc >= 0 else l2
    else:  # B l4^2 - 2t l4 + D - A l2 >= 0, l4 >= 1 > the smaller root
        big, t = 2 * pq + 3 * r, 1 - r * l2
        disc = t * t - big * (span - ((2 * pq + r) * l2 + 2) * l2)
        start = -((-t - isqrt(disc)) // big) if disc >= 0 else 1
    return max(1, start)


def _lambda_counts(acc: List[int], params: HirzebruchParams, m: int, n: int,
                   lo2: int, M: int):
    """Adds the signed count of the stable data of class (m, n) with jumps
    up to M to acc.

    A stability part sums some of the weights (l1, W2, l3, W4), W2 = pq l2,
    W4 = (r + pq) l4, so its rule 2 w < sum is the row c1 l1 + c3 l3 <=
    k2 W2 + k4 W4 - 1, c = +1 (k = -1) for a corner in the part, c = -1
    (k = +1) for one outside.  With the stratum, l2 and l4 fixed, the rows,
    the box limits and the cost line D - Q = e0 + d1 l1 + d3 l3 >= 0 are
    linear in (l1, l3), e0 = D - r (l2^2 - l4^2) and dx = d_x2 l2 + d_x4 l4
    with d_xc = 2 if {x, c} is the restored corner, else -2 (the corner adds
    4 lx lc to 4 chi).  They cut out the polygon the loops walk.  Each l3
    limit is s l1 + k (a row with c3 = -1 is the lower limit
    l3 >= c1 l1 - h, one with c3 = +1 the upper limit l3 <= h - c1 l1, h its
    right side, and the box gives lo3 <= l3 <= top3), k linear in (l2, l4).
    ``_LAMBDA_STRATA`` holds each stratum's rows, and each slice works out
    every row's right side once and pairs every lower limit with every
    upper one of another slope into a cut g l1 + h >= 0.  With the cost line
    paired with the limits on the side d3 pushes against, the cuts give the
    l1 interval, and each l1 its l3 interval, so every datum built is
    stable and in the window.  The class fixes b1 = -(m + l1 + l3 + r l4)/2,
    so l1 + l3 = m + r l4 (mod 2).  As a and b are coprime, one of them is
    odd: if b is, l3 = b x has the parity of x, and the l3 loop steps by 2b
    from the class b ((m + r l4 + l1) mod 2); else l3 is even and a odd, and
    the l1 loop steps by 2a from a ((m + r l4) mod 2).  A slice is skipped
    when its least stable cost q_min exceeds D:
    q_min = 2 (l2 + l4) max(lo1 + lo3, |W2 - W4| + 1) + r (l2^2 - l4^2)
    without a restored corner (l1 + l3 > |W2 - W4| on every such stratum),
    q_min = 2 (l2 + l4) + (r + 2pq)(l4 - l2)^2 with one (see
    ``_lambda_box``).
    The l4 loop starts at ``_lambda_l4_start``.  With a corner, q_min falls
    as l4 rises to l2: in y = l2 - l4 >= 1 its slope 2 (r + 2pq) y - 2 is
    positive.  So q_min <= D iff y <= (1 + sqrt(1 + (r + 2pq)(D - 4 l2)))
    / (r + 2pq), and none if that root is not real.  Without one,
    |W2 - W4| >= W2 - W4 gives q_min >= (l2 + l4)(A - B l4) with
    A = (2pq + r) l2 + 2 and B = 2pq + 3r, whose l4-slope 2 (1 - r l2
    - B l4) is negative for every l4 >= 1.  So that bound, and with it
    q_min, exceeds D at every l4 >= 1 below (1 - r l2 + sqrt(disc)) / B,
    disc = (1 - r l2)^2 - B (D - A l2); if disc < 0 the loop starts at 1.
    The l4 loop ends at the first slice past D of a bound rising with l4.
    With a corner, that is q_min itself once l4 >= l2.  Without one, once
    W4 >= W2, it is 2 (l2 + l4)(W4 - W2 + 1) + r (l2^2 - l4^2)
    = (l2 + l4) g, g = r (l2 + l4) + 2pq (l4 - l2) + 2: g rises with l4,
    and g > 0 there, as pq (l4 - l2) >= -r l4 gives g >= r (l2 - l4) + 2,
    positive when l4 <= l2 (and g > 2 when l4 > l2).
    Where l4 vanishes (type2,4), q_min = 2 l2 max(lo1 + lo3, W2 + 1)
    + r l2^2 rises with l2, so the l2 loop ends at the first l2 past D.
    Elsewhere it ends at the first l2 whose l4
    range is empty, start > top4 = min(M, D/2 - l2): top4 falls as l2
    rises and the start never does, so every later range is empty too.
    With a corner, the start is l2 less (1 + isqrt(disc)) // (r + 2pq),
    disc = 1 + (r + 2pq)(D - 4 l2), or less 0 once disc < 0; disc falls
    as l2 rises, so that term does not rise and the start rises.  Without
    one, with t = 1 - r l2, B l4 - t >= 1 for l4 >= 1, and
    B l4 - t >= isqrt(disc) iff (B l4 - t + 1)^2 > disc: the start is the
    least l4 >= 1 with h = (B l4 - t + 1)^2 - disc > 0.  A step of l2
    changes h by 2r (B l4 + 1) - B ((2pq + r)(2 l2 + 1) + 2), which is
    negative when r = 0, and when l4 <= l2, as 2r (B l4 + 1)
    <= 2r B l2 + r B.  For r > 0 every l4 below the start is below l2, as
    at l4 = l2 the bound is 4 l2 (1 - r l2) <= 0 <= D, so
    (B l2 - t)^2 >= disc and h > 0.  So no l4 below the start gets h > 0
    at the next l2.
    Mirror at r = 0.  The weights are then (l1, pq l2, l3, pq l4), and the
    swap s of l2 and l4 together with corners 2 and 4 carries each datum
    of a stratum S that the walk finds one-to-one onto one of the mirror
    stratum S' (``_MIRROR``), at the same exponent and Euler weight:
    - the swap maps S's parts onto those of S' and the weights as it maps
      the corners, so every part keeps its weight and the datum its
      stability; it maps S's zero jump onto that of S', and it fixes l1
      and l3, so the lattice a | l1, b | l3;
    - m = -(2 b1 + l1 + l3) and n = -(2 b2 + l2 + l4) are symmetric in
      l2 and l4, so the datum keeps b1, b2 and its class, and so is
      4 chi = f4 - 2 (l2 + l4)(l1 + l3) + 4 (restored corner): the swap
      keeps the cycle 1-2-3-4, so S' restores the product of the same two
      jumps if S restores one, and every type2 and type3 stratum weighs 1;
    - the walk finds on a stratum every such datum with jumps up to M and
      Q <= D, limits symmetric in l2 and l4 (l2 + l4 <= D/2 too).
    So at r = 0 the walk counts the first stratum of each mirror pair in
    ``STRATA`` (type2,2 and type2,4; type3,1,2 and type3,1,4; type3,2,3
    and type3,3,4) at twice its weight and skips the second.  On the
    strata that are their own mirrors (type1, type2,1, type2,3, type3,1,3,
    type3,2,4; none restores a corner) s pairs each datum with l4 > l2 with
    one with l4 < l2 and fixes those with l4 = l2: the l4 loop starts at
    max(start, l2) and adds twice the weight when l4 > l2, once when
    l4 = l2.  The l2 loop still ends at the first empty l4 range: once
    l2 > top4, every later l2 exceeds its top4 too.
    Each walked datum is still checked, on the loop's ints and with no
    object built: one with a jump off the charts' lattice (a | l1, b | l3),
    off the class parity or with zero jumps other than its stratum's, one
    that the stability kernel ``sheafdata._stable`` rejects, or one whose
    Euler characteristic (``sheafdata._c1_chi4``) lies below the window
    raises ArithmeticError.  The class also fixes b2 = -(n + l2 + l4)/2,
    so l2 + l4 = n (mod 2): the l4 loop steps by 2 from that class, and as
    l2 and l4 are fixed within a slice, each slice checks it once.
    """
    a, b, r = params.a, params.b, params.r
    pq = params.p * params.q
    span = f4_exponent(params.C, r, m, n) - 2 * lo2
    # the odd one of a and b steps through the class parity
    step1, step3 = (a, 2 * b) if b % 2 else (2 * a, b)
    for incidence, stratum, slopes, rows, fold in _LAMBDA_STRATA:
        if not (r or fold):
            continue  # its mirror stratum counts its data
        weight, zero, parts, corner = stratum
        twice = weight if r else 2 * weight
        halved = not r and fold == 1  # walks only l4 >= l2
        positive = tuple(k != zero for k in range(1, 5))
        d12, d14, d32, d34 = slopes
        lo1, top1 = (0, 0) if zero == 1 else (a, M)
        lo3, top3 = (0, 0) if zero == 3 else (b, M)
        for l2 in (0,) if zero == 2 else range(1, M + 1):
            if zero == 4:
                if 2 * l2 * max(lo1 + lo3, pq * l2 + 1) + r * l2 * l2 > span:
                    break  # q_min rises with l2
                lo4 = top4 = 0
            else:
                lo4 = _lambda_l4_start(corner, l2, pq, r, span)
                if halved:
                    lo4 = max(lo4, l2)
                top4 = min(M, span // 2 - l2)
                if lo4 > top4:
                    break  # and at every larger l2
            for l4 in range(lo4 + (lo4 + n + l2) % 2, top4 + 1, 2):
                if (n + l2 + l4) % 2:
                    raise ArithmeticError(
                        "jumps l2 = %d, l4 = %d off the lattice, class "
                        "parity or zero pattern of %r" % (l2, l4, incidence))
                w2, w4 = pq * l2, (r + pq) * l4
                rl = r * (l2 * l2 - l4 * l4)
                if corner:
                    q_min = 2 * (l2 + l4) + (r + 2 * pq) * (l4 - l2) ** 2
                    if l4 >= l2 and q_min > span:
                        break
                else:
                    q_min = 2 * (l2 + l4) * max(lo1 + lo3,
                                                abs(w2 - w4) + 1) + rl
                    if w4 >= w2 and (l2 + l4) * (
                            r * (l2 + l4) + 2 * pq * (l4 - l2) + 2) > span:
                        break
                if q_min > span:
                    continue
                add = weight if halved and l4 == l2 else twice
                ml4 = m + r * l4
                par = ml4 % 2
                e0 = span - rl
                d1, d3 = d12 * l2 + d14 * l4, d32 * l2 + d34 * l4
                # each l3 limit as (s, k): l3 >= s l1 + k or l3 <= s l1 + k
                low_k, high_k = [(0, lo3)], [(0, top3)]
                for c1, c3, k2, k4 in rows:
                    h = k2 * w2 + k4 * w4 - 1
                    if c3 < 0:
                        low_k.append((c1, -h))
                    else:
                        high_k.append((-c1, h))
                # each cut is g l1 + h >= 0
                l1_lo, l1_hi = lo1, top1
                for s, k in low_k:
                    for t, u in high_k:
                        g, h = t - s, u - k
                        if g > 0 and -(h // g) > l1_lo:
                            l1_lo = -(h // g)
                        elif g < 0 and h // -g < l1_hi:
                            l1_hi = h // -g
                for s, k in low_k if d3 < 0 else high_k:
                    g, h = d1 + d3 * s, e0 + d3 * k
                    if g > 0 and -(h // g) > l1_lo:
                        l1_lo = -(h // g)
                    elif g < 0 and h // -g < l1_hi:
                        l1_hi = h // -g
                for l1 in range(l1_lo + (a * par - l1_lo) % step1,
                                l1_hi + 1, step1):
                    rest = e0 + d1 * l1
                    l3_lo = max([s * l1 + k for s, k in low_k])
                    l3_hi = min([s * l1 + k for s, k in high_k])
                    if d3 < 0:
                        l3_hi = min(l3_hi, rest // -d3)
                    elif d3 > 0:
                        l3_lo = max(l3_lo, -(rest // d3))
                    for l3 in range(
                            l3_lo + (b * ((par + l1) % 2) - l3_lo) % step3,
                            l3_hi + 1, step3):
                        lam = (l1, l2, l3, l4)
                        # the loops keep to the charts' lattice, the class
                        # parity and the stratum's zero pattern, walk the
                        # stability polygon and bound Q by D
                        if ((ml4 + l1 + l3) % 2 or l1 % a or l3 % b
                                or (l1 > 0, l2 > 0, l3 > 0, l4 > 0)
                                != positive):
                            raise ArithmeticError(
                                "jumps %r off the lattice, class parity or "
                                "zero pattern of %r" % (lam, incidence))
                        if not _stable(lam, parts, params):
                            raise ArithmeticError(
                                "unstable datum %r of %r inside the "
                                "stability polygon" % (lam, incidence))
                        chi4 = _c1_chi4(-(ml4 + l1 + l3) // 2,
                                        -(n + l2 + l4) // 2, lam, stratum,
                                        params)[2]
                        if chi4 < 2 * lo2:
                            raise ArithmeticError(
                                "stable datum at q^%d lies below the "
                                "window" % (chi4 // 4))
                        acc[chi4 // 2 - lo2] += add


def _lambda_box(params: HirzebruchParams, m: int, n: int,
                min2exp: int) -> int:
    """Box holding every stable datum of cost Q <= D (see ``_box``).

    Q = 2 (l2 + l4)(l1 + l3) + r (l2^2 - l4^2) - 4c, where c is the product
    of the jumps of a fused adjacent pair (else 0).  Let pq = p*q (<= r when
    r > 0) and w = (l1, pq l2, l3, (r + pq) l4) the stability weights.
    No corner: w4 < w1 + w2 + w3 makes Q = (l2 + l4) B with B > l1 + l3
      (B = 2 (l1 + l3) if r = 0), so l2 + l4 <= D/2 and l1, l3 <= (D + r)/2
      (equality needs l2 = 0, l4 = 1, Q = 2 (l1 + l3) - r).
    Fused {x, c}, x in {1, 3}, c in {2, 4}, y and c' the other corners: the
      slacks s1 = wy + wc' - wx - wc > 0, s3 = wx + wc + wy - wc' > 0 and
      e = lc' - lc give Q = 2 lc s1 + 2 lc' s3 + (r + 2pq) e^2, so
      l2 + l4 <= D/2 and ly = (s1 + s3)/2 <= D/4.  If r > 0 and c = 2,
      r Q - 4 lx >= 2 (s3 - 1)(r l4 - 1) + (r + 2pq) e (r e - 2) >= -3;
      if r > 0 and c = 4, Q - 4 lx >= 4 + 4r - 2pq > 0; if r = 0,
      Q - 4 lx >= 4 + 2pq e (e - 2) and Q >= 6 + 2pq when e = 1.  So
      4 lx <= r D + 3 or lx <= D/2.
    The box only caps the indices: inside it l4 stops at D/2 - l2, and
    ``_lambda_counts`` walks each (l2, l4) slice's stability polygon.
    """
    span = max(0, f4_exponent(params.C, params.r, m, n) - 2 * min2exp)
    return max((span + params.r) // 2, (params.r * span + 3) // 4)


def rank2_vb_lambda(params: HirzebruchParams, cls: ClassLike,
                    min2exp: int) -> HalfExpLaurent:
    """Experimental rank-2 engine summing over stable filtration jumps.

    Walks the strata of ``sheafdata.STRATA`` and, inside the box, only the
    jumps of the class's parity that satisfy the stratum's stability parts
    and reach the window (see ``_lambda_counts``).  It checks each datum it
    walks on plain ints through the kernels of ``stability_check`` and
    ``rank2_c1_chi``, raising ArithmeticError if one fails (the walk proves
    that none does), and adds the stratum's Euler weight at the datum's
    exponent.  At r = 0 it walks about half the data: swapping l2 with l4
    and corner 2 with corner 4 maps the data one-to-one onto themselves at
    the same exponent and weight (proved in ``_lambda_counts``), so it
    walks one stratum of each mirror pair, and l4 >= l2 on a stratum that
    is its own mirror, and counts the other half through that mirror
    rather than visiting it.  One visit per walked datum still makes it the
    slowest engine: on (1,2;0), class (0,0), it took 0.029-0.030 /
    0.10-0.13 / 0.36-0.46 / 1.45-1.56 s to q^-128 / -256 / -512 / -1024
    (four runs each, Python 3.11.7, 2 vCPUs), so ``crosscheck`` runs it
    only on request.  ``MAX_WINDOW_SLOTS`` caps its memory, not its time.
    """
    return _enumerate("lambda", params, cls, min2exp)


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

class CrosscheckReport(_Value):
    """Windows from every applicable engine plus the comparison verdict."""

    __slots__ = ("a", "b", "r", "m", "n", "min2exp", "windows", "agree",
                 "first_disagreement2")

    def __init__(self, a: int, b: int, r: int, m: int, n: int, min2exp: int,
                 windows: Tuple[Tuple[str, HalfExpLaurent], ...], agree: bool,
                 first_disagreement2: Optional[int]):
        self._store(a, b, r, m, n, min2exp, windows, agree,
                    first_disagreement2)

    @property
    def engines(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.windows)

    def to_json(self) -> dict:
        return {
            "surface": {"a": self.a, "b": self.b, "r": self.r},
            "c1": {"m": self.m, "n": self.n},
            "min2exp": self.min2exp,
            "engines": {name: win.to_json() for name, win in self.windows},
            "agree": self.agree,
            "first_disagreement_exp2": self.first_disagreement2,
        }


def _covers_all(params, m, n):
    return None


class Engine(NamedTuple):
    """One rank-2 engine as the command line and ``crosscheck`` see it.

    ``entry`` takes ``(params, cls, min2exp)`` and calls the engine's
    ``rank2_vb_*`` function on an input it covers; ``run`` checks
    ``refusal`` first, and ``crosscheck`` calls ``entry`` on the engines
    whose refusal it has checked.  ``counts`` takes ``(acc, params, m, n,
    lo2, M)`` and adds its enumeration, with every index capped at M, into
    acc.  ``box`` takes ``(params, m, n,
    lo2)`` and returns the cap that holds every term of the window.
    ``refusal`` takes ``(params, m, n)`` and returns why the engine does not
    cover that input, or None; engines that check their own input return
    None throughout.  ``experimental`` engines join ``crosscheck`` only on
    request.  ``top2`` takes ``(params, m, n)`` and returns the top of the
    engine's window, so ``crosscheck`` can refuse an over-long window
    before running any engine.
    """

    entry: Callable[[HirzebruchParams, ClassLike, int], HalfExpLaurent]
    counts: Callable[[List[int], HirzebruchParams, int, int, int, int], None]
    box: Callable[[HirzebruchParams, int, int, int], int]
    refusal: Callable[[HirzebruchParams, int, int],
                      Optional[str]] = _covers_all
    experimental: bool = False
    top2: Callable[[HirzebruchParams, int, int], int] = _f4_top2

    def run(self, params: HirzebruchParams, cls: ClassLike,
            min2exp: int) -> HalfExpLaurent:
        """``entry``'s window; ValueError, with the refusal's text, on an
        input the engine does not cover."""
        m, n = _class_ints(cls)
        why = self.refusal(params, m, n)
        if why:
            raise ValueError(why)
        return self.entry(params, (m, n), min2exp)

    def window(self, params: HirzebruchParams, m: int, n: int, lo2: int,
               cap: Optional[int] = None) -> HalfExpLaurent:
        """The window top2 .. lo2 of ``counts`` with every index capped at
        cap, the row's ``box`` unless given: the series with coefficient
        acc[e2 - lo2] at each doubled exponent e2.  A window over
        ``MAX_WINDOW_SLOTS`` is refused before its list is built."""
        top2 = self.top2(params, m, n)
        _check_window(top2, lo2)
        if cap is None:
            cap = self.box(params, m, n, lo2)
        acc = [0] * (top2 - lo2 + 1)
        self.counts(acc, params, m, n, lo2, cap)
        return HalfExpLaurent(lo2, {lo2 + i: c for i, c in enumerate(acc)
                                    if c})


def _r0_refusal(params, m, n):
    return None if params.r == 0 else "engine r0 needs r = 0"


def _closed_refusal(params, m, n):
    if (params.a, params.b, params.r) != (1, 2, 0):
        return "engine closed covers only the (1,2,0) surface"
    if (m, n) not in _P12_TERMS:
        return ("closed-form terms cover only the classes "
                "(0,0), (1,0), (0,1), (1,1); got (%d,%d)" % (m, n))
    return None


# The entries call the engines through their module-level names at call
# time, so a wrapper later bound to one of those names sees every call.
# csets and lambda pass the surface on, and their ``top2`` checks it; r0
# and closed derive their own, so only ``refusal`` keeps them off another.
ENGINES: Dict[str, Engine] = {
    "csets": Engine(lambda params, cls, min2exp:
                    rank2_vb_csets(params, cls, min2exp), _csets_counts, _box),
    "r0": Engine(lambda params, cls, min2exp:
                 rank2_vb_r0(params.a, params.b, cls, min2exp),
                 _r0_counts, _box, _r0_refusal),
    "closed": Engine(lambda params, cls, min2exp:
                     rank2_vb_closed_p12(cls, min2exp),
                     _closed_counts,
                     lambda params, m, n, lo2: _p12_tmax(lo2),
                     _closed_refusal, top2=lambda params, m, n: _P12_TOP2),
    "lambda": Engine(lambda params, cls, min2exp:
                     rank2_vb_lambda(params, cls, min2exp), _lambda_counts,
                     _lambda_box, experimental=True),
}


def run_engine(name: str, params: HirzebruchParams, cls: ClassLike,
               min2exp: int) -> HalfExpLaurent:
    """Rank-2 series from the named engine; ValueError if it does not apply."""
    return ENGINES[name].run(params, cls, min2exp)


def crosscheck(params: HirzebruchParams, cls: ClassLike, min2exp: int,
               include_lambda: bool = False) -> CrosscheckReport:
    """Run every applicable rank-2 engine and compare the windows.

    Disagreement is reported, not raised; the first disagreeing exponent is
    the highest one at which any two engines differ.  Every engine's window
    is checked against ``MAX_WINDOW_SLOTS`` before any engine runs, each
    distinct ``top2`` once, and each engine's refusal is checked once.
    """
    m, n = _class_ints(cls)
    min2exp = _integer(min2exp, "min2exp must be an integer")
    engines = [(name, engine) for name, engine in ENGINES.items()
               if (include_lambda or not engine.experimental)
               and engine.refusal(params, m, n) is None]
    for top2 in dict.fromkeys(engine.top2 for _, engine in engines):
        _check_window(top2(params, m, n), min2exp)
    windows = [(name, engine.entry(params, (m, n), min2exp))
               for name, engine in engines]

    # two windows that differ at e2 cannot both equal the first one there
    diffs = [windows[0][1].first_difference(win) for _, win in windows[1:]]
    first_bad = max((e2 for e2 in diffs if e2 is not None), default=None)
    return CrosscheckReport(params.a, params.b, params.r, m, n,
                            min2exp, tuple(windows), first_bad is None,
                            first_bad)


__all__ = [
    "ENGINES", "MAX_WINDOW_SLOTS", "CrosscheckReport", "Engine", "crosscheck",
    "rank1_series", "rank2_vb_closed_p12", "rank2_vb_csets", "rank2_vb_lambda",
    "rank2_vb_r0", "run_engine", "vb_to_tf",
]
