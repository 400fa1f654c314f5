"""End-to-end verification of the package's numerical contracts.

Ten independent checks cover the series engines, the closed Euler and
Hilbert formulas, the lattice algorithms, and the fan constructors; each
returns a CriterionResult.  The series checks (criteria 1, 2, 9 and 10)
read the windows of the seven ``genfun.crosscheck`` reports that
``series_reports`` runs once from ``SERIES_RUNS``, and ``run_all`` passes
them in; criterion 1 also runs the lambda engine itself, on the four (1,2,0)
classes to q^-4.  The other six checks take no input.  ``format_report`` renders
one pass/fail line per criterion for the CLI.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .exact import HalfExpLaurent
from .geometry import (
    derive_params,
    euler_characteristic,
    hilbert_polynomial,
    modified_euler_characteristic,
    modified_hilbert_polynomial,
    point_sheaf_mhp,
)
from .genfun import ENGINES, CrosscheckReport, crosscheck, rank1_series, \
    rank2_vb_csets, rank2_vb_lambda
from .intlattice import IntMatrix, _Value, integer_kernel, lattices_equal, \
    smith_normal_form
from .sheafdata import tensor_shift
from .stackyfan import (
    fans_equal_up_to_ray_order,
    hirzebruch_fan,
    hirzebruch_shear,
    line_bundle_total_space,
    projective_bundle,
    wps_fan,
)

# coprime surface grid shared by the geometry criteria
GRID: Tuple[Tuple[int, int, int], ...] = tuple(
    (a, b, r)
    for a in range(1, 6)
    for b in range(a + 1, 7)
    if math.gcd(a, b) == 1
    for r in range(-6, 7)
)

CLASSES = ((0, 0), (1, 0), (0, 1), (1, 1))

# Quoted reference windows for the (1,2,0) rank-2 series on q^6..q^-4,
# doubled-exponent keys, absent keys meaning 0.  The engines disagree with a
# few of these entries; criterion 1 accepts such a coefficient only when all
# four engines agree against it, lambda (run by criterion 1 alone) among
# them, and lists it in the report detail.
QUOTED_120 = {
    (0, 0): {4: 2, 0: 5, -4: 8, -8: 18},
    (1, 0): {6: 2, 4: 4, 2: 6, 0: 8, -2: 12, -4: 12, -6: 14, -8: 20},
    (0, 1): {8: 2, 6: 1, 4: 6, 2: 1, 0: 9, -2: 5, -4: 14, -6: -3, -8: 17},
    (1, 1): {12: 2, 10: 4, 8: 6, 6: 8, 4: 10, 0: 14, -2: 14, -4: 18,
             -6: 24, -8: 22},
}


class CriterionResult(_Value):
    """One criterion's verdict: its number, name, pass flag and detail."""

    __slots__ = ("index", "name", "passed", "detail")

    def __init__(self, index: int, name: str, passed: bool, detail: str):
        self._store(index, name, passed, detail)


# The crosscheck runs that criteria 1, 2, 9 and 10 read: surface, class,
# doubled cutoff, and the slots the csets window must span from its lead.
SERIES_RUNS = tuple(((1, 2, 0), cls, -16, 11) for cls in CLASSES) + (
    ((1, 1, 0), (0, 0), -22, 12), ((1, 3, 0), (0, 0), -14, 12),
    ((2, 3, 0), (0, 0), -6, 12))


def series_reports() -> Tuple[CrosscheckReport, ...]:
    """One ``crosscheck`` report per row of ``SERIES_RUNS``: csets, r0 and
    closed on the four (1,2,0) classes, csets and r0 on the r = 0 products."""
    return tuple(crosscheck(derive_params(*abr), cls, min2exp)
                 for abr, cls, min2exp, _ in SERIES_RUNS)


def _windows_120(reports) -> Dict[Tuple[int, int], Dict[str, HalfExpLaurent]]:
    """The (1,2,0) windows of the reports, by class, then by engine name."""
    return {(rep.m, rep.n): dict(rep.windows) for rep in reports
            if (rep.a, rep.b, rep.r) == (1, 2, 0)}


def _slots(window: HalfExpLaurent) -> int:
    return (window.max2exp - window.min2exp) // 2 + 1


def criterion_1(reports) -> CriterionResult:
    """Golden rank-2 windows on q^6..q^-4, with logged engine overrides.

    An override needs csets, r0, closed and lambda to agree; lambda counts
    the stable data themselves, so it is the one route that is not a
    transcription of the constraint sets.  It checks each datum it walks
    (stable, on its lattice and zero pattern, in the window); on this
    untwisted surface it walks about half of them and counts the rest
    through the mirror that swaps l2 and l4, which its docstring proves.
    """
    triples = _windows_120(reports)
    p120 = derive_params(1, 2, 0)
    for cls, wins in triples.items():
        wins["lambda"] = rank2_vb_lambda(p120, cls, -8)
    matched = 0
    logged: List[str] = []
    ok = True
    for cls, quoted in QUOTED_120.items():
        wins = triples[cls]
        for e2 in range(-8, 13):
            want = quoted.get(e2, 0)
            got = wins["csets"].coeff2(e2)
            if got == want:
                matched += 1
                continue
            unanimous = all(wins[name].coeff2(e2) == got
                            for name in ("r0", "closed", "lambda"))
            if unanimous:
                logged.append("%s q^%s: quoted %d, engines %d"
                              % (cls, Fraction(e2, 2), want, got))
            else:
                ok = False
                logged.append("%s q^%s: quoted %d, csets %d, engines split"
                              % (cls, Fraction(e2, 2), want, got))
    detail = "%d quoted coefficients matched" % matched
    if logged:
        detail += "; %d overridden by unanimous engines: %s" % (
            len(logged), "; ".join(logged))
    return CriterionResult(1, "golden series windows", ok, detail)


def criterion_2(reports) -> CriterionResult:
    """Independent engines agree coefficient-by-coefficient."""
    problems: List[str] = []
    for rep, (_, _, _, slots) in zip(reports, SERIES_RUNS):
        label = "(%d,%d,%d) %s" % (rep.a, rep.b, rep.r, (rep.m, rep.n))
        if _slots(dict(rep.windows)["csets"]) < slots:
            problems.append("window for %s too short" % label)
        if not rep.agree:
            problems.append("%s disagree on %s at q^%s" % (
                ", ".join(rep.engines), label,
                Fraction(rep.first_disagreement2, 2)))
    detail = ("four classes triple-checked on (1,2,0), three r=0 products "
              "double-checked" if not problems else "; ".join(problems))
    return CriterionResult(2, "engine cross-agreement", not problems, detail)


def criterion_3() -> CriterionResult:
    """Closed Euler-characteristic identities over the surface grid."""
    checked = 0
    problems: List[str] = []
    for a, b, r in GRID:
        pr = derive_params(a, b, r)
        if euler_characteristic(pr, (0, 0)) != 1:
            problems.append("chi(O) != 1 on (%d,%d,%d)" % (a, b, r))
        if euler_characteristic(pr, (0, 1)) != 2 - pr.u:
            problems.append("chi(0,1) != 2-u on (%d,%d,%d)" % (a, b, r))
        if a >= 2:
            for cls in ((a, 0), (b, 0)):
                if euler_characteristic(pr, cls) != 1:
                    problems.append("chi(%s) != 1 on (%d,%d,%d)"
                                    % (cls, a, b, r))
        for m in range(-10, 11):
            for n in range(-10, 11):
                value = euler_characteristic(pr, (m, n))
                if not isinstance(value, int):
                    problems.append("chi not integral at (%d,%d) on"
                                    " (%d,%d,%d)" % (m, n, a, b, r))
                checked += 1
    detail = ("%d classes over %d surfaces, all integral"
              % (checked, len(GRID)) if not problems
              else "; ".join(problems[:6]))
    return CriterionResult(3, "euler characteristic identities",
                           not problems, detail)


def criterion_4() -> CriterionResult:
    """Modified Hilbert polynomial equals the generating-sheaf sum."""
    problems: List[str] = []
    checked = 0
    for a, b, r in GRID:
        pr = derive_params(a, b, r)
        for m in range(-3, 4):
            for n in range(-3, 4):
                left = modified_hilbert_polynomial(pr, (m, n))
                total = hilbert_polynomial(pr, (m, n))
                for k in range(1, a * b):
                    total = total + hilbert_polynomial(pr, (m + k, n))
                if left != total:
                    problems.append("mismatch at (%d,%d) on (%d,%d,%d)"
                                    % (m, n, a, b, r))
                checked += 1
    detail = ("%d identities, all three coefficients" % checked
              if not problems else "; ".join(problems[:6]))
    return CriterionResult(4, "hilbert polynomial consistency",
                           not problems, detail)


def criterion_5() -> CriterionResult:
    """Point sheaves integrate to the orbifold chart multiplicities."""
    problems: List[str] = []
    checked = 0
    for a, b, r in GRID:
        pr = derive_params(a, b, r)
        for chart, (order, want) in enumerate(
                ((b, a), (a, b), (a, b), (b, a)), start=1):
            for grading in range(order):
                if point_sheaf_mhp(pr, chart, grading) != want:
                    problems.append("chart %d grading %d on (%d,%d,%d)"
                                    % (chart, grading, a, b, r))
                checked += 1
    detail = ("%d chart/grading pairs" % checked if not problems
              else "; ".join(problems[:6]))
    return CriterionResult(5, "point sheaf constants", not problems, detail)


def _partition_counts(limit: int) -> List[int]:
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            p[n] += p[n - part]
    return p


def _quadruple_counts(a: int, b: int, limit: int) -> List[int]:
    p = _partition_counts(limit)
    pairs = [sum(p[i] * p[d - i] for i in range(d + 1))
             for d in range(limit + 1)]
    out = []
    for d in range(limit + 1):
        total = 0
        for s in range(d // a + 1):
            rem = d - a * s
            if rem % b == 0:
                total += pairs[s] * pairs[rem // b]
        out.append(total)
    return out


def criterion_6() -> CriterionResult:
    """Rank-1 coefficients equal exhaustive partition-quadruple counts."""
    deficits = 30
    problems: List[str] = []
    for a, b, r in ((1, 1, 0), (1, 2, 0), (2, 3, 1)):
        pr = derive_params(a, b, r)
        chi = modified_euler_characteristic(pr, (0, 0))
        series = rank1_series(pr, (0, 0), 2 * chi - 2 * deficits)
        oracle = _quadruple_counts(a, b, deficits)
        for e2 in range(series.min2exp, 2 * chi + 1):
            off = 2 * chi - e2
            want = oracle[off // 2] if off % 2 == 0 else 0
            if series.coeff2(e2) != want:
                problems.append("(%d,%d,%d) deficit %s"
                                % (a, b, r, Fraction(off, 2)))
    detail = ("3 surfaces, deficits 0..%d" % deficits if not problems
              else "; ".join(problems[:6]))
    return CriterionResult(6, "rank-1 partition oracle", not problems, detail)


def _snf_invariants_hold(m: IntMatrix) -> bool:
    res = smith_normal_form(m)
    if res.U * m * res.V != res.D:
        return False
    if abs(res.U.det()) != 1 or abs(res.V.det()) != 1:
        return False
    for i in range(res.D.nrows):
        for j in range(res.D.ncols):
            if i != j and res.D[i, j] != 0:
                return False
    diag = res.diagonal
    if any(d < 0 for d in diag):
        return False
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            return False
        if x != 0 and y % x != 0:
            return False
    return True


def criterion_7() -> CriterionResult:
    """Lattice algorithms: random SNF, ray-matrix minors, kernel bases."""
    rng = random.Random(20250823)
    problems: List[str] = []

    for trial in range(500):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        rows = [[rng.randrange(-30, 31) for _ in range(nc)] for _ in range(nr)]
        if trial % 11 == 0 and nr > 1:
            rows[-1] = list(rows[0])  # force rank deficiency now and then
        if trial % 97 == 0:
            rows = [[0] * nc for _ in range(nr)]
        if not _snf_invariants_hold(IntMatrix.from_rows(rows)):
            problems.append("snf invariants failed on trial %d" % trial)

    for trial in range(100):
        while True:
            length = rng.randrange(2, 6)
            weights = [rng.randrange(1, 51) for _ in range(length)]
            if math.gcd(*weights) == 1:
                break
        ray_matrix = wps_fan(weights).ray_matrix()
        n = len(weights) - 1
        minors = []
        for i in range(1, len(weights) + 1):
            det = ray_matrix.delete_column(i - 1).det()
            minors.append(det)
            if det != (-1) ** (n + 1 - i) * weights[i - 1]:
                problems.append("minor %d wrong for weights %s"
                                % (i, weights))
        if math.gcd(*[abs(d) for d in minors]) != 1:
            problems.append("minor gcd not 1 for weights %s" % weights)

    for a, b, r in GRID:
        kernel = integer_kernel(hirzebruch_fan(a, b, r).ray_matrix())
        if not lattices_equal(kernel, ((a, 0, b, r), (0, 1, 0, 1))):
            problems.append("kernel lattice wrong on (%d,%d,%d)" % (a, b, r))

    detail = ("500 SNF matrices, 100 weight systems, %d kernels" % len(GRID)
              if not problems else "; ".join(problems[:6]))
    return CriterionResult(7, "lattice and fan invariants",
                           not problems, detail)


def criterion_8() -> CriterionResult:
    """Golden fan constructions and the bundle route to the surfaces."""
    problems: List[str] = []

    total = line_bundle_total_space(wps_fan((2, 1)), (-1, -1))
    if {ray.free for ray in total.rays} != {(1, 1), (-2, 1), (0, 1)}:
        problems.append("line bundle total space rays wrong")

    bundle = projective_bundle(wps_fan((2, 1)), ((0, 0), (0, 2)))
    if {ray.free for ray in bundle.rays} != {(1, 0), (-2, 2), (0, -1), (0, 1)}:
        problems.append("projective bundle rays wrong for (2,1,2)")

    for a, b, r in GRID:
        s, t = hirzebruch_shear(a, b, r)
        built = projective_bundle(wps_fan((a, b)), ((0, 0), (s, t)))
        if not fans_equal_up_to_ray_order(built, hirzebruch_fan(a, b, r)):
            problems.append("bundle fan mismatch on (%d,%d,%d)" % (a, b, r))

    detail = ("two golden fans plus %d bundle reconstructions" % len(GRID)
              if not problems else "; ".join(problems[:6]))
    return CriterionResult(8, "fan golden examples", not problems, detail)


def criterion_9(reports) -> CriterionResult:
    """Tensoring by a line bundle shifts the rank-2 series exponent."""
    base = _windows_120(reports)[(0, 0)]["csets"]
    p120 = derive_params(1, 2, 0)
    problems: List[str] = []
    for (i, j), g_expected in (((1, 0), 2), ((0, 1), 4), ((1, 1), 8)):
        g = tensor_shift(i, j, (0, 0), p120)
        if g != g_expected:
            problems.append("g(%d,%d) = %d, expected %d"
                            % (i, j, g, g_expected))
            continue
        moved = rank2_vb_csets(p120, (2 * i, 2 * j), -16 + 2 * g)
        if moved != base.shift2(2 * g):
            problems.append("shifted series mismatch for (i,j)=(%d,%d)"
                            % (i, j))
    detail = ("three shifts match q^g times the base window"
              if not problems else "; ".join(problems))
    return CriterionResult(9, "shift covariance", not problems, detail)


def criterion_10(reports) -> CriterionResult:
    """Each series is the ``window`` its engine gives at caps 128 and 256.

    Every engine's loops stop at the last index that can reach the window,
    so above the derived box the outer loop limit (l2 or t) adds no term:
    this checks that, not that the box is complete.  The csets and r0 set
    limits on j do not depend on the cap, so a replay cannot show one too
    tight (``tests/test_constraint_sets.py`` checks them).
    """
    problems: List[str] = []
    for rep in reports:
        params = derive_params(rep.a, rep.b, rep.r)
        for name, window in rep.windows:
            if any(ENGINES[name].window(params, rep.m, rep.n, rep.min2exp,
                                        cap) != window for cap in (128, 256)):
                problems.append("%s (%d,%d,%d) %s" % (
                    name, rep.a, rep.b, rep.r, (rep.m, rep.n)))
    runs = sum(len(rep.windows) for rep in reports)
    detail = ("%d engine runs stable at bounds 128 and 256" % runs
              if not problems else "unstable: " + "; ".join(problems))
    return CriterionResult(10, "stabilization robustness",
                           not problems, detail)


# (index, check, whether the check reads the ``series_reports``)
_RUNNERS: Tuple[Tuple[int, Callable, bool], ...] = (
    (1, criterion_1, True), (2, criterion_2, True), (3, criterion_3, False),
    (4, criterion_4, False), (5, criterion_5, False), (6, criterion_6, False),
    (7, criterion_7, False), (8, criterion_8, False), (9, criterion_9, True),
    (10, criterion_10, True),
)


def run_all() -> Tuple[CriterionResult, ...]:
    reports: Tuple[CrosscheckReport, ...] = ()
    results = []
    for index, runner, reads_reports in _RUNNERS:
        try:
            if reads_reports:
                reports = reports or series_reports()
            results.append(runner(reports) if reads_reports else runner())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CriterionResult(index, runner.__name__, False,
                                           "raised %r" % (exc,)))
    return tuple(results)


def format_report(results) -> str:
    lines = []
    for res in results:
        lines.append("criterion %2d %s  %s (%s)"
                     % (res.index, "PASS" if res.passed else "FAIL",
                        res.name, res.detail))
    verdict = "all criteria passed" if all(r.passed for r in results) \
        else "FAILURES present"
    lines.append(verdict)
    return "\n".join(lines)


__all__ = [
    "CriterionResult", "SERIES_RUNS", "series_reports", "run_all",
    "format_report",
    "criterion_1", "criterion_2", "criterion_3", "criterion_4",
    "criterion_5", "criterion_6", "criterion_7", "criterion_8",
    "criterion_9", "criterion_10", "GRID",
]
