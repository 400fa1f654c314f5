"""Each csets and r0 constraint set against its per-candidate loop.

``genfun`` adds whole runs of lattice hits at once; ``reference_sets`` keeps
the loops that tested every candidate index.  Both run set by set, j by j,
into their own accumulators, which must agree after every j: comparing each
set, not whole windows, catches errors that cancel, as set 1 subtracts.
"""

import math

import pytest

import reference_sets
from orbifold import genfun
from orbifold.geometry import derive_params
from orbifold.sheafdata import f4_exponent, f_exponent
from test_engine_windows import CLASSES6, SURFACES

SHALLOW, DEEP = 6, 64
DEEP_SURFACES = ((1, 2, 0), (2, 3, 1), (1, 3, 2), (3, 5, 0))


def csets_calls(a, b):
    """The set functions ``_csets_counts`` runs, with their extra arguments."""
    return [("_cs_pinned", ()),
            ("_cs_quad", (2 * b, 2 * a, True)),
            ("_cs_quad", (2 * a, 2 * b, True)),
            ("_cs_quad", (2 * a, 2 * b, False)),
            ("_cs_quad", (2 * b, 2 * a, False)),
            ("_cs_ratio", (b,)), ("_cs_ratio", (a,)),
            ("_cs_tail", (True,)), ("_cs_tail", (False,))]


def r0_calls(a, b):
    """The set functions ``_r0_counts`` runs, with the reference's weight."""
    return [("_r0_pinned", (), 1),
            ("_r0_quad", (2 * b, 2 * a), 2), ("_r0_quad", (2 * a, 2 * b), 2),
            ("_r0_cone", (b,), 1), ("_r0_cone", (a,), 1),
            ("_r0_tail", (), 1)]


def set_mismatches(abr, cls, depth, bounds):
    """(set, extra, bound, j) wherever a set and its reference differ."""
    pr = derive_params(*abr)
    a, b, r = abr
    m, n = cls
    pq = pr.p * pr.q
    f4 = f4_exponent(pr.C, r, m, n)
    lo2 = 2 * (math.floor(f_exponent(pr, m, n)) - depth)
    calls = [(name, (r, pq), extra, 1) for name, extra in csets_calls(a, b)]
    if r == 0:
        calls += [(name, (), extra, w) for name, extra, w in r0_calls(a, b)]
    bad = []
    for bound in bounds + (genfun._box(pr, m, n, lo2),):
        for name, surface, extra, weight in calls:
            new, ref = getattr(genfun, name), getattr(reference_sets, name)
            got = [0] * (f4 // 2 - lo2 + 1)
            want = list(got)
            for j in range(2 - n % 2, bound + 1, 2):
                args = (j, f4, m, a, b) + surface + (lo2, bound) + extra
                new(got, *args)
                for _ in range(weight):
                    ref(want, *args)
                if got != want:
                    bad.append((name, extra, bound, j))
                    break
    return bad


@pytest.mark.parametrize("depth", (SHALLOW, DEEP))
def test_sets_match_per_candidate_loops(depth):
    surfaces = SURFACES["csets"] if depth == SHALLOW else DEEP_SURFACES
    bad = [(abr, cls, miss) for abr in surfaces for cls in CLASSES6
           for miss in set_mismatches(abr, cls, depth, (5, 17))]
    assert not bad, bad[:5]
