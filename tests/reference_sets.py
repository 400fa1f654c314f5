"""The csets and r0 constraint sets as per-candidate loops: a test oracle.

These are the set functions ``orbifold.genfun`` used before its loops added
whole runs of lattice hits at once.  Each visits every candidate index in
its box, tests the congruences one candidate at a time and stops a loop at
the first term below the window, so they are slow but plain.  Each takes the
arguments of the ``genfun`` function of the same name and adds the same
counts into ``acc``, except ``_r0_quad``, which adds 1 per tuple where
``genfun._r0_quad`` adds the weight 2 of its set, so
``test_constraint_sets`` runs it twice.
"""

from math import isqrt


# csets (general r >= 0)

def _cs_pinned(acc, j, f4, m, a, b, r, pq, lo2, M):
    """Set 1: four-index tuples pinned to the hyperplane i = pq*j (weight -1)."""
    i = pq * j
    if i > M or (m + i) % 2:
        return
    e4 = f4 - 2 * i * j - r * j * j
    if e4 < 2 * lo2:
        return
    for l in range(-j + 2, j, 2):
        rjl = r * (j - l)
        k_lo = -pq * j - rjl
        k = k_lo + 1 + ((i - (k_lo + 1)) % (2 * b))
        while k < pq * j:
            if abs(k) <= M and (i + k + rjl) % (2 * a) == 0:
                acc[(e4 >> 1) - lo2] -= 1
            k += 2 * b


def _cs_quad(acc, j, f4, m, a, b, r, pq, lo2, M, step, cross_mod, plus_form):
    """Sets 2-5: the generic four-index family with the bilinear exponent.

    ``plus_form`` picks the sign convention tying the congruence target and
    the k-interval to j+l (sets 2 and 3) or to j-l (sets 4 and 5).  As
    Q >= (2pq + r) l^2 + 2j, |l| <= isqrt((D - 2j) / (2pq + r)); the i and
    k loops stop at the first term past D.
    """
    L = min(M, isqrt(max(0, f4 - 2 * lo2 - 2 * j) // (2 * pq + r)))
    for l in range(max(-j + 2, -L + (j + L) % 2), min(j - 2, L) + 1, 2):
        rl2 = r * l * l
        if plus_form:
            shift = r * (j + l)
            k_floor = -pq * j - shift
        else:
            shift = -r * (j - l)
            k_floor = -pq * j
        k_hi = pq * l
        i = pq * l + 1
        if (m + i) % 2:
            i += 1
        while i <= M:
            if f4 - i * (j + l) + k_hi * (j - l) - rl2 < 2 * lo2:
                break
            k_lo = max(-i - shift, k_floor)
            k = k_hi - 1 - ((k_hi - 1 - i) % step)
            if k > M:
                k -= step * ((k - M + step - 1) // step)
            while k > k_lo and k >= -M:
                e4 = f4 - i * (j + l) + k * (j - l) - rl2
                if e4 < 2 * lo2:
                    break
                if (i + k + shift) % cross_mod == 0:
                    acc[(e4 >> 1) - lo2] += 1
                k -= step
            i += 2


def _cs_ratio(acc, j, f4, m, a, b, r, pq, lo2, M, div_mod):
    """Sets 6-7: three-index tuples with congruence 2*div_mod | 2i + r(j+k)."""
    if r > 0:
        # i may dip below 1 when the twist dominates; the k-window is only
        # nonempty while (2*pq + r) * |i| < r * pq * j
        i_lo = -((r * pq * j) // (2 * pq + r)) - 1
    else:
        i_lo = 1
    i = i_lo + ((m + i_lo) % 2)
    while i <= min(pq * j - 1, M):
        e4 = f4 - 2 * i * j - r * j * j
        if e4 < 2 * lo2:
            break
        k_hi = (i - 1) // pq
        k_lo = (-i - r * j) // (r + pq) + 1
        if r > 0:
            k_lo = max(k_lo, (-2 * i - r * j) // r + 1)
        for k in range(max(k_lo, -M), min(k_hi, M) + 1):
            if (j + k) % 2:
                continue
            if (2 * i + r * (j + k)) % (2 * div_mod) == 0:
                acc[(e4 >> 1) - lo2] += 1
        i += 2


def _cs_tail(acc, j, f4, m, a, b, r, pq, lo2, M, twisted):
    """Sets 8-9: three-index tuples beyond the i = pq*j wall.

    ``twisted`` widens the k-interval by the twist and twists the
    congruence; the plain variant drops r entirely.  Only j with
    (2pq + r) j^2 + 2j <= D reach the window, as i >= pq*j + 1.
    """
    if (2 * pq + r) * j * j + 2 * j > f4 - 2 * lo2:
        return
    if twisted:
        k_floor = -(pq + 2 * r) * j
        target_shift = 2 * r * j
    else:
        k_floor = -pq * j
        target_shift = 0
    for k in range(max(k_floor + 1, -M), min(pq * j - 1, M) + 1):
        if (m + k) % 2:
            continue
        i = pq * j + 1 + ((k - (pq * j + 1)) % (2 * b))
        while i <= M:
            e4 = f4 - 2 * i * j - r * j * j
            if e4 < 2 * lo2:
                break
            if (i + k + target_shift) % (2 * a) == 0:
                acc[(e4 >> 1) - lo2] += 1
            i += 2 * b


# r0 (the r = 0 specialization)

def _r0_pinned(acc, j, f4, m, a, b, lo2, M):
    ab = a * b
    i = ab * j
    if i > M or (m + i) % 2:
        return
    e4 = f4 - 2 * i * j
    if e4 < 2 * lo2:
        return
    for l in range(-j + 2, j, 2):
        k = -ab * j + 1 + ((i - (-ab * j + 1)) % (2 * b))
        while k < ab * j:
            if abs(k) <= M and (i + k) % (2 * a) == 0:
                acc[(e4 >> 1) - lo2] -= 1
            k += 2 * b


def _r0_quad(acc, j, f4, m, a, b, lo2, M, step, cross_mod):
    """Sets 2-3 of the r = 0 family: Q >= 2ab l^2 + 2j as in ``_cs_quad``."""
    ab = a * b
    L = min(M, isqrt(max(0, f4 - 2 * lo2 - 2 * j) // (2 * ab)))
    for l in range(max(-j + 2, -L + (j + L) % 2), min(j - 2, L) + 1, 2):
        k_hi = ab * l
        i = ab * l + 1
        if (m + i) % 2:
            i += 1
        while i <= M:
            if f4 - i * (j + l) + k_hi * (j - l) < 2 * lo2:
                break
            k_lo = max(-i, -ab * j)
            k = k_hi - 1 - ((k_hi - 1 - i) % step)
            if k > M:
                k -= step * ((k - M + step - 1) // step)
            while k > k_lo and k >= -M:
                e4 = f4 - i * (j + l) + k * (j - l)
                if e4 < 2 * lo2:
                    break
                if (i + k) % cross_mod == 0:
                    acc[(e4 >> 1) - lo2] += 1
                k -= step
            i += 2


def _r0_cone(acc, j, f4, m, a, b, lo2, M, div):
    """Sets 4-5 of the r = 0 family: div | i inside the open cone |ab*k| < i."""
    ab = a * b
    i = 1 if (m + 1) % 2 == 0 else 2
    while i <= min(ab * j - 1, M):
        e4 = f4 - 2 * i * j
        if e4 < 2 * lo2:
            break
        if i % div == 0:
            k_max = (i - 1) // ab
            for k in range(max(-k_max, -M), min(k_max, M) + 1):
                if (j + k) % 2 == 0:
                    acc[(e4 >> 1) - lo2] += 1
        i += 2


def _r0_tail(acc, j, f4, m, a, b, lo2, M):
    """Wall tail of the r = 0 family: i > ab*j, so Q = 2ij >= 2ab j^2 + 2j."""
    ab = a * b
    if 2 * ab * j * j + 2 * j > f4 - 2 * lo2:
        return
    for k in range(max(-ab * j + 1, -M), min(ab * j - 1, M) + 1):
        if (m + k) % 2:
            continue
        i = ab * j + 1 + ((k - (ab * j + 1)) % (2 * b))
        while i <= M:
            e4 = f4 - 2 * i * j
            if e4 < 2 * lo2:
                break
            if (i + k) % (2 * a) == 0:
                acc[(e4 >> 1) - lo2] += 2
            i += 2 * b
