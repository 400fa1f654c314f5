"""Each csets and r0 constraint set against its per-candidate loop.

``genfun`` adds whole runs of lattice hits at once; ``reference_sets`` keeps
the loops that tested every candidate index.  Both run set by set, j by j,
into their own accumulators, which must agree after every j: comparing each
set, not whole windows, catches errors that cancel, as set 1 subtracts.
"""

import math
from collections import Counter

import pytest

import reference_sets
from orbifold import genfun
from orbifold.geometry import derive_params
from orbifold.sheafdata import f4_exponent, f_exponent
from test_engine_windows import CLASSES6, SURFACES

SHALLOW, DEEP = 6, 64
DEEP_SURFACES = ((1, 2, 0), (2, 3, 1), (1, 3, 2), (3, 5, 0))
WEIGHTED = ("_cs_quad", "_cs_tail")  # the csets sets that take a weight


def csets_calls(a, b, r):
    """The set functions ``_csets_counts`` runs, with their extra arguments
    and weight; ``_cs_quad`` and ``_cs_tail`` take the weight as one more
    argument.  At r = 0 sets 5, 4 and 9 repeat sets 2, 3 and 8, which run
    once at weight 2."""
    if r == 0:
        return [("_cs_pinned", (), 1),
                ("_cs_quad", (2 * b, 2 * a, True), 2),
                ("_cs_quad", (2 * a, 2 * b, True), 2),
                ("_cs_ratio", (b,), 1), ("_cs_ratio", (a,), 1),
                ("_cs_tail", (True,), 2)]
    return [("_cs_pinned", (), 1),
            ("_cs_quad", (2 * b, 2 * a, True), 1),
            ("_cs_quad", (2 * a, 2 * b, True), 1),
            ("_cs_quad", (2 * a, 2 * b, False), 1),
            ("_cs_quad", (2 * b, 2 * a, False), 1),
            ("_cs_ratio", (b,), 1), ("_cs_ratio", (a,), 1),
            ("_cs_tail", (True,), 1), ("_cs_tail", (False,), 1)]


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
    calls = [(name, (r, pq), extra, w)
             for name, extra, w in csets_calls(a, b, r)]
    if r == 0:
        calls += [(name, (), extra, w) for name, extra, w in r0_calls(a, b)]
    bad = []
    for bound in bounds + (genfun._box(pr, m, n, lo2),):
        for name, surface, extra, weight in calls:
            new, ref = getattr(genfun, name), getattr(reference_sets, name)
            tail = (weight,) if name in WEIGHTED else ()
            got = [0] * (f4 // 2 - lo2 + 1)
            want = list(got)
            for j in range(2 - n % 2, bound + 1, 2):
                args = (j, f4, m, a, b) + surface + (lo2, bound) + extra
                new(got, *args, *tail)
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


@pytest.mark.parametrize("abr, quads, tails",
                         (((1, 2, 0), 2, 1), ((2, 3, 1), 4, 2)))
def test_csets_runs_each_distinct_set_once(monkeypatch, abr, quads, tails):
    """At r = 0 the repeated sets run once, so per j there are half the
    ``_cs_quad`` and ``_cs_tail`` calls of a twisted surface."""
    calls = {"_cs_quad": Counter(), "_cs_tail": Counter()}
    for name, seen in calls.items():
        def counted(acc, j, *rest, _run=getattr(genfun, name), _seen=seen):
            _seen[j] += 1
            return _run(acc, j, *rest)
        monkeypatch.setattr(genfun, name, counted)
    pr = derive_params(*abr)
    genfun.rank2_vb_csets(pr, (0, 0), -40)
    js = set(range(2, genfun._box(pr, 0, 0, -40) + 1, 2))
    assert set(calls["_cs_quad"]) == set(calls["_cs_tail"]) == js
    assert set(calls["_cs_quad"].values()) == {quads}
    assert set(calls["_cs_tail"].values()) == {tails}
