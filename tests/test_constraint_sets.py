"""Each csets and r0 constraint set against its per-candidate loop.

``genfun`` adds whole runs of lattice hits at once; ``reference_sets`` keeps
the loops that tested every candidate index.  Both run set by set, j by j,
into their own accumulators, which must agree after every j: comparing each
set, not whole windows, catches errors that cancel, as set 1 subtracts.  A
``genfun`` set takes its j values as a range, so one j is ``range(j, j + 1)``.
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
                args = (f4, m, a, b) + surface + (lo2, bound) + extra
                new(got, range(j, j + 1), *args, *tail)
                for _ in range(weight):
                    ref(want, j, *args)
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


def set_limit(name, extra, r, pq, span):
    """The largest j at which a set can add a term to a window of depth
    span = D = f4 - 2*lo2, from the set's cost floor (see ``genfun._box``);
    ``extra`` is the set's entry in ``csets_calls`` or ``r0_calls``, and an
    r0 set has r = 0 and pq = ab.  Each set ends its own j loop, and this
    is the only closed-form copy of each set's last j."""
    c = 2 * pq + r
    if name in ("_cs_quad", "_r0_quad"):
        step = extra[0]
        return (4 * c * span + (step - 2) ** 2) // (4 * c * step)
    if name in ("_cs_ratio", "_r0_cone"):
        return (math.isqrt(c * span) - 1) // r if r else span // (2 * extra[0])
    return math.isqrt(span // c)  # pinned and tail


def window_sets(abr, cls, lo2):
    """(f4, box) of the window and (key, set, surface args, extra, weight,
    limit) for each csets set, and each r0 set when r = 0."""
    pr = derive_params(*abr)
    a, b, r = abr
    pq = pr.p * pr.q
    f4 = f4_exponent(pr.C, r, *cls)
    span = f4 - 2 * lo2
    sets = [((name, pos, r > 0), name, (r, pq), extra, w,
             set_limit(name, extra, r, pq, span))
            for pos, (name, extra, w) in enumerate(csets_calls(a, b, r))]
    if r == 0:
        sets += [((name, pos, False), name, (), extra, w,
                  set_limit(name, extra, 0, a * b, span))
                 for pos, (name, extra, w) in enumerate(r0_calls(a, b))]
    return (f4, genfun._box(pr, *cls, lo2)), sets


def test_sets_add_nothing_past_their_limits():
    """Each set and its per-candidate loop add nothing at any j past the
    set's limit, up to twice the box, on both grids; and every limit is
    reached: some window has a term at the last j of its parity within the
    limit, so a limit one step of j lower would lose it."""
    grid = [(abr, cls, SHALLOW) for abr in SURFACES["csets"]
            for cls in CLASSES6]
    grid += [(abr, cls, DEEP) for abr in DEEP_SURFACES for cls in CLASSES6]
    past, reached, limits = [], set(), set()
    for abr, (m, n), depth in grid:
        lo2 = 2 * (math.floor(f_exponent(derive_params(*abr), m, n)) - depth)
        (f4, box), sets = window_sets(abr, (m, n), lo2)
        for key, name, surface, extra, weight, limit in sets:
            limits.add(key)
            new, ref = getattr(genfun, name), getattr(reference_sets, name)
            tail = (weight,) if name in WEIGHTED else ()
            top = limit - (limit - n) % 2  # the last j = n (mod 2) in it
            for j in range(max(top, 2 - n % 2), 2 * box + 1, 2):
                args = (f4, m) + abr[:2] + surface + (lo2, 2 * box) + extra
                for run, js, more in ((new, range(j, j + 1), tail),
                                      (ref, j, ())):
                    acc = [0] * (f4 // 2 - lo2 + 1)
                    run(acc, js, *args, *more)
                    if any(acc) and j > limit:
                        past.append((abr, (m, n), name, extra, j, limit))
                    elif any(acc):
                        reached.add(key)
    assert not past, past[:5]
    assert reached == limits, sorted(limits - reached)


@pytest.mark.parametrize("abr, quads, tails",
                         (((1, 2, 0), 2, 1), ((2, 3, 1), 4, 2)))
def test_csets_runs_each_distinct_set_once(monkeypatch, abr, quads, tails):
    """Each csets set, and at r = 0 each r0 set, is called once per window
    with every j = n (mod 2) up to the box, as it ends its own j loop; at
    r = 0 the repeated csets sets run once, so there are half the
    ``_cs_quad`` and ``_cs_tail`` calls of a twisted surface."""
    pr = derive_params(*abr)
    a, b, r = abr
    names = [name for name, _, _ in csets_calls(a, b, r)]
    if r == 0:
        names += [name for name, _, _ in r0_calls(a, b)]
    calls = []
    for name in set(names):
        def counted(acc, js, *rest, _run=getattr(genfun, name), _name=name):
            calls.append((_name, js))
            return _run(acc, js, *rest)
        monkeypatch.setattr(genfun, name, counted)
    genfun.rank2_vb_csets(pr, (0, 0), -40)
    if r == 0:
        genfun.rank2_vb_r0(a, b, (0, 0), -40)
    box = genfun._box(pr, 0, 0, -40)
    assert Counter(calls) == Counter((name, range(2, box + 1, 2))
                                     for name in names)
    counts = Counter(name for name, _ in calls)
    assert (counts["_cs_quad"], counts["_cs_tail"]) == (quads, tails)
