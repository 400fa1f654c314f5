"""The benchmark's three workloads, as lazy streams of operations.

Each workload is a closed loop: one caller runs a fixed list of operations
back to back, in one process.  ``setup`` builds the inputs (surface
parameters and the seeded draws) and ``operations`` yields one ``Op`` at a
time.  The caller sends each result back into the generator, so an
operation can take an earlier one's output (``vb_to_tf`` takes the csets
window) without the harness holding every result.

Why these three:

* ``series_deep`` -- a few very large enumerations, where the ``genfun``
  engines and the ``exact`` series products do nearly all the work;
* ``series_sweep`` -- the same engines on 112 small windows, where the
  per-call overhead (box doubling from 8, thread-pool start-up, window
  building) dominates, so a change that helps deep windows but costs
  shallow ones shows here;
* ``invariants`` -- no series at all: Euler characteristics and Hilbert
  polynomials over the surface grid (mostly cache hits) plus classes on a
  larger-order surface that miss the caches and run the cyclotomic
  arithmetic, fan reconstruction, lattice kernels, Smith normal forms and
  rank-2 sheaf data.

The full sizes keep one repetition of each workload to a few seconds, so
that a run of the benchmark holds many repetitions (see ``run.py``).

Only the seeded draws depend on ``seed``: the Smith normal form matrices,
the rank-2 data and the large-order classes.  Series windows never do, so
no seed can push an engine across a doubling of its enumeration box.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from orbifold import cli, genfun, geometry, intlattice, sheafdata, stackyfan
from orbifold.verify import GRID

import oracles

CLASSES = ((0, 0), (1, 0), (0, 1), (1, 1))


class Op(NamedTuple):
    """One timed call, ``fn(*args)``.

    ``key`` names the group of operations whose outputs are hashed together
    and compared with the digest recorded in ``expected.json``; operations
    on seeded inputs have no key.  ``check`` is an oracle on the output.
    """

    key: Optional[str]
    fn: Callable
    args: tuple
    check: Optional[Callable[[Any], bool]] = None


SIZES = {
    "full": {
        "series_deep": dict(
            lo2=-108,
            lambda_windows=(((1, 2, 0), (0, 0), -8), ((1, 2, 0), (1, 0), -4),
                            ((1, 2, 0), (0, 1), -4), ((2, 3, 1), (1, 0), 2)),
            twisted=((2, 5, 4), (0, 0), 20),
            rank1=(((1, 2, 0), (0, 0), -200), ((2, 3, 1), (0, 0), -200)),
            cli_min_exp="-40"),
        "series_sweep": dict(a_max=4, b_max=7, r_max=1, depth=12),
        # every (a, b) of the verification grid, with r in -1..1
        "invariants": dict(
            grid=tuple(abr for abr in GRID if abs(abr[2]) <= 1),
            euler_range=10, hilbert_range=3, large=(((7, 11, 3), 20),),
            matrices=500, data=1000),
    },
    # small enough for the benchmark's own tests
    "tiny": {
        "series_deep": dict(
            lo2=-12,
            lambda_windows=(((1, 2, 0), (0, 0), 0), ((2, 3, 1), (1, 0), 2)),
            twisted=((2, 5, 4), (0, 0), 4),
            rank1=(((1, 2, 0), (0, 0), -20),),
            cli_min_exp="-4"),
        "series_sweep": dict(a_max=1, b_max=3, r_max=1, depth=4),
        "invariants": dict(
            grid=((1, 2, 0), (2, 3, 1), (2, 5, -3)), euler_range=2,
            hilbert_range=1, large=(((7, 11, 3), 1),), matrices=20, data=40),
    },
}

def _tag(*parts) -> str:
    return "/".join(",".join(str(x) for x in p) if isinstance(p, tuple)
                    else str(p) for p in parts)


def run_cli(argv):
    """``orbifold <argv>`` in process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# ----------------------------------------------------------- series_deep

def _deep_setup(cfg, rng):
    surfaces = {abr: geometry.derive_params(*abr) for abr in
                [(1, 2, 0), cfg["twisted"][0]]
                + [w[0] for w in cfg["lambda_windows"]]
                + [w[0] for w in cfg["rank1"]]}
    abr, cls, depth = cfg["twisted"]
    f = sheafdata.f_exponent(surfaces[abr], *cls)
    return dict(cfg, surfaces=surfaces,
                twisted_lo2=2 * (math.floor(f) - depth))


def _lambda_agrees(pr, cls, lo2, window):
    return oracles.same_window(window, genfun.rank2_vb_csets(pr, cls, lo2))


def _deep_ops(st):
    surfaces, lo2 = st["surfaces"], st["lo2"]
    p120 = surfaces[(1, 2, 0)]
    for cls in CLASSES:
        w = yield Op(_tag("deep/csets", (1, 2, 0), cls, lo2),
                     genfun.rank2_vb_csets, (p120, cls, lo2))
        same = partial(oracles.same_window, w)
        yield Op(_tag("deep/r0", (1, 2, 0), cls, lo2),
                 genfun.rank2_vb_r0, (1, 2, cls, lo2), same)
        yield Op(_tag("deep/closed", (1, 2, 0), cls, lo2),
                 genfun.rank2_vb_closed_p12, (cls, lo2), same)
        yield Op(_tag("deep/vb_to_tf", (1, 2, 0), cls, lo2),
                 genfun.vb_to_tf, (w, 2, p120))
    for abr, cls, lam_lo2 in st["lambda_windows"]:
        pr = surfaces[abr]
        yield Op(_tag("deep/lambda", abr, cls, lam_lo2),
                 genfun.rank2_vb_lambda, (pr, cls, lam_lo2),
                 partial(_lambda_agrees, pr, cls, lam_lo2))
    abr, cls, _ = st["twisted"]
    yield Op(_tag("deep/csets", abr, cls, st["twisted_lo2"]),
             genfun.rank2_vb_csets, (surfaces[abr], cls, st["twisted_lo2"]))
    for abr, cls, r1_lo2 in st["rank1"]:
        yield Op(_tag("deep/rank1", abr, cls, r1_lo2),
                 genfun.rank1_series, (surfaces[abr], cls, r1_lo2),
                 lambda s, abr=abr, cls=cls: oracles.rank1_matches_partitions(
                     s, *abr, *cls))
    argv = ("genfun", "rank2-tf", "-a", "1", "-b", "2", "-r", "0", "-m", "1",
            "-n", "1", "--min-exp=" + st["cli_min_exp"], "--json")
    yield Op(_tag("deep/cli", " ".join(argv)), run_cli, (argv,),
             lambda out: out[0] == 0)


# ---------------------------------------------------------- series_sweep

def _sweep_setup(cfg, rng):
    calls = []
    for a in range(1, cfg["a_max"] + 1):
        for b in range(a + 1, cfg["b_max"] + 1):
            if math.gcd(a, b) != 1:
                continue
            for r in range(cfg["r_max"] + 1):
                pr = geometry.derive_params(a, b, r)
                for m, n in CLASSES:
                    f = sheafdata.f_exponent(pr, m, n)
                    calls.append((pr, (m, n),
                                  2 * (math.floor(f) - cfg["depth"])))
    return dict(calls=calls)


def _sweep_ops(st):
    for pr, cls, lo2 in st["calls"]:
        yield Op(_tag("sweep/crosscheck", (pr.a, pr.b, pr.r), cls, lo2),
                 genfun.crosscheck, (pr, cls, lo2), lambda rep: rep.agree)


# ------------------------------------------------------------ invariants

def _draw_matrix(rng, trial):
    nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
    rows = [[rng.randrange(-30, 31) for _ in range(nc)] for _ in range(nr)]
    if trial % 11 == 0 and nr > 1:
        rows[-1] = list(rows[0])  # rank deficiency now and then
    if trial % 97 == 0:
        rows = [[0] * nc for _ in range(nr)]
    return rows


def _draw_datum(rng, surfaces):
    abr = rng.choice(sorted(surfaces))
    a, b, _ = abr
    incidence = rng.choice(sheafdata.all_incidence_types())
    lam = [a * rng.randrange(1, 5), rng.randrange(1, 5),
           b * rng.randrange(1, 5), rng.randrange(1, 5)]
    if incidence[0] == "type2":
        lam[incidence[1] - 1] = 0
    datum = sheafdata.Rank2Datum(rng.randrange(-5, 6), rng.randrange(-5, 6),
                                 tuple(lam), incidence)
    return surfaces[abr], datum


def _draw_large_classes(rng, a, b, count):
    """Classes whose residues mod a and mod b are all distinct, so every
    call misses the root-of-unity sum caches, and with n + 1 prime to a
    and b, so no factor of the filtered sums vanishes and every call does
    the full cyclotomic arithmetic."""
    seen_a, seen_b, out = set(), set(), []
    while len(out) < count:
        m, n = rng.randrange(-60, 61), rng.randrange(-60, 61)
        ka, kb = (m % a, (n + 1) % a), (m % b, (n + 1) % b)
        if ka in seen_a or kb in seen_b or not ka[1] or not kb[1]:
            continue
        seen_a.add(ka)
        seen_b.add(kb)
        out.append((m, n))
    return out


def _invariants_setup(cfg, rng):
    surfaces = {abr: geometry.derive_params(*abr) for abr in cfg["grid"]}
    large = [(geometry.derive_params(*abr),
              _draw_large_classes(rng, abr[0], abr[1], count))
             for abr, count in cfg["large"]]
    matrices = [_draw_matrix(rng, t) for t in range(cfg["matrices"])]
    data = [_draw_datum(rng, surfaces) for _ in range(cfg["data"])]
    return dict(cfg, surfaces=surfaces, large=large, matrices=matrices,
                data=data)


def _invariants_ops(st):
    surfaces = st["surfaces"]
    er, hr = st["euler_range"], st["hilbert_range"]
    for abr, pr in surfaces.items():
        key = _tag("inv/euler", abr, er)
        for m in range(-er, er + 1):
            for n in range(-er, er + 1):
                yield Op(key, geometry.euler_characteristic, (pr, (m, n)),
                         partial(oracles.euler_matches, pr, m, n))
    for abr, pr in surfaces.items():
        hkey, mkey = _tag("inv/hilbert", abr, hr), _tag("inv/mhp", abr, hr)
        for m in range(-hr, hr + 1):
            for n in range(-hr, hr + 1):
                yield Op(hkey, geometry.hilbert_polynomial, (pr, (m, n)))
                yield Op(mkey, geometry.modified_hilbert_polynomial,
                         (pr, (m, n)))
    for pr, classes in st["large"]:
        for m, n in classes:
            yield Op(None, geometry.euler_characteristic, (pr, (m, n)),
                     partial(oracles.euler_matches, pr, m, n))
    for (a, b, r), pr in surfaces.items():
        key = _tag("inv/fan", (a, b, r))
        whole = yield Op(key, stackyfan.hirzebruch_fan, (a, b, r))
        base = yield Op(key, stackyfan.wps_fan, ((a, b),))
        built = yield Op(key, stackyfan.projective_bundle,
                         (base, ((0, 0), (pr.s, pr.t))))
        yield Op(key, stackyfan.fans_equal_up_to_ray_order, (built, whole),
                 lambda same: same is True)
        # the ray matrix: rays (b, s), (0, 1), (-a, t), (0, -1) as columns
        rows = ((b, 0, -a, 0), (pr.s, 1, pr.t, -1))
        kernel = yield Op(key, intlattice.integer_kernel,
                          (intlattice.IntMatrix.from_rows(rows),),
                          partial(oracles.kernel_annihilates, rows))
        yield Op(key, intlattice.lattices_equal,
                 (kernel, ((a, 0, b, r), (0, 1, 0, 1))),
                 lambda same: same is True)
    for rows in st["matrices"]:
        yield Op(None, intlattice.smith_normal_form,
                 (intlattice.IntMatrix.from_rows(rows),),
                 partial(oracles.snf_holds, rows))
    for pr, datum in st["data"]:
        yield Op(None, sheafdata.stability_check, (datum, pr),
                 lambda ok, d=datum, p=pr: ok == oracles.stable_by_rule(d, p))
        yield Op(None, sheafdata.rank2_c1_chi, (datum, pr),
                 partial(oracles.c1_chi_matches, geometry, datum, pr))


_DEFS = {
    "series_deep": (_deep_setup, _deep_ops),
    "series_sweep": (_sweep_setup, _sweep_ops),
    "invariants": (_invariants_setup, _invariants_ops),
}


def setup(workload: str, seed: int, size: str = "full"):
    """Build the workload's inputs from the seed.

    Every repetition of a run draws the same inputs, so operation i does
    the same work in each repetition and ``run.py`` can compare them.
    """
    build, _ = _DEFS[workload]
    return build(SIZES[size][workload], random.Random(seed))


def operations(workload: str, state):
    """Generator of the workload's operations; send each result back in."""
    _, ops = _DEFS[workload]
    return ops(state)
