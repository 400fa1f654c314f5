"""The lambda engine's l4 loop stepping through every l4: a test oracle.

This is ``orbifold.genfun._lambda_counts`` as it was before its l4 loop
started at ``genfun._lambda_l4_start`` and its l2 loop ended at the first
empty l4 range, and before it walked one side of the r = 0 mirror and
stepped through the class parity: it walks every stratum, runs l2 to the
cap, visits every l4 from 1 (0 on a stratum whose l4 vanishes), tests
each slice's least stable cost against the window, rebuilds its l3
limits and their cuts per slice, and skips each (l1, l3) of the wrong
parity.  It reads each stratum's rows and cost-line slopes from
``genfun._LAMBDA_STRATA``, and returns the stable data it finds rather
than their counts, so a test can check where each one lies.
"""

from orbifold.genfun import _LAMBDA_STRATA
from orbifold.sheafdata import Rank2Datum, f4_exponent, rank2_c1_chi, \
    stability_check


def stable_data(params, m, n, lo2, M):
    """(incidence, weight, (l1, l2, l3, l4), doubled exponent) of each
    stable datum of class (m, n) in the window with jumps up to M."""
    a, b, r = params.a, params.b, params.r
    pq = params.p * params.q
    span = f4_exponent(params.C, r, m, n) - 2 * lo2
    found = []
    for incidence, stratum, slopes, rows, _ in _LAMBDA_STRATA:
        weight, zero, corner = stratum.weight, stratum.zero, stratum.corner
        d12, d14, d32, d34 = slopes
        lo1, top1 = (0, 0) if zero == 1 else (a, M)
        lo3, top3 = (0, 0) if zero == 3 else (b, M)
        for l2 in (0,) if zero == 2 else range(1, M + 1):
            lo4, top4 = (0, 0) if zero == 4 else (1, min(M, span // 2 - l2))
            for l4 in range(lo4 + (lo4 + n + l2) % 2, top4 + 1, 2):
                w2, w4 = pq * l2, (r + pq) * l4
                rl = r * (l2 * l2 - l4 * l4)
                if corner:
                    q_min = rising = (2 * (l2 + l4)
                                      + (r + 2 * pq) * (l4 - l2) ** 2)
                else:
                    q_min = 2 * (l2 + l4) * max(lo1 + lo3,
                                                abs(w2 - w4) + 1) + rl
                    rising = (l2 + l4) * (r * (l2 + l4)
                                          + 2 * pq * (l4 - l2) + 2)
                if l4 >= l2 and rising > span:
                    break
                if q_min > span:
                    continue
                e0 = span - rl
                d1, d3 = d12 * l2 + d14 * l4, d32 * l2 + d34 * l4
                lows, highs = [(0, lo3)], [(0, top3)]
                for c1, c3, k2, k4 in rows:
                    h = k2 * w2 + k4 * w4 - 1
                    if c3 < 0:
                        lows.append((c1, -h))
                    else:
                        highs.append((-c1, h))
                cuts = [(s_hi - s_lo, k_hi - k_lo) for s_lo, k_lo in lows
                        for s_hi, k_hi in highs]
                cuts += [(d1 + d3 * s, e0 + d3 * k)
                         for s, k in (lows if d3 < 0 else highs)]
                # each cut is g l1 + h >= 0
                l1_lo = max([lo1] + [-(h // g) for g, h in cuts if g > 0])
                l1_hi = min([top1] + [h // -g for g, h in cuts if g < 0])
                for l1 in range(l1_lo + (-l1_lo) % a, l1_hi + 1, a):
                    rest = e0 + d1 * l1
                    l3_lo = max([s * l1 + k for s, k in lows])
                    l3_hi = min([s * l1 + k for s, k in highs])
                    if d3 < 0:
                        l3_hi = min(l3_hi, rest // -d3)
                    elif d3 > 0:
                        l3_lo = max(l3_lo, -(rest // d3))
                    for l3 in range(l3_lo + (-l3_lo) % b, l3_hi + 1, b):
                        if (m + l1 + l3 + r * l4) % 2:
                            continue
                        lam = (l1, l2, l3, l4)
                        datum = Rank2Datum(-(m + l1 + l3 + r * l4) // 2,
                                           -(n + l2 + l4) // 2, lam,
                                           incidence)
                        if stability_check(datum, params):
                            _, chi = rank2_c1_chi(datum, params)
                            found.append((incidence, weight, lam, 2 * chi))
    return found
