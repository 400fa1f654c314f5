"""Committed mutants of the derived loop limits, of the work skipped on
the torsion-free path, of the integer Riemann-Roch forms and the sums
they skip, of lambda's mirror weights and parity classes, of the class
reader, of internal checks, of the polynomial constructor and of the
value types' storing: the tests must kill each.

Run from anywhere:  python tests/mutants.py

Each row names a file, an exact piece of its text, a replacement that
tightens (or loosens) one derived limit or wiring by one unit, ends one
loop one step of its index early, or skips one piece of work that the
output needs, and the tests that must then fail.  For
each row the script copies ``src/`` and ``tests/`` to a temporary
directory, applies the replacement there, and runs ``pytest -x -q`` on the
named tests against the copy, after checking once that those tests pass on
the code as it is.  A row whose text is not found
exactly once is stale, and the script fails rather than pass it by; so
does a mutant the tests let live.  pytest does not collect this
file.  Mutation testing: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer, 1978.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
GENFUN = "src/orbifold/genfun.py"
CLI = "src/orbifold/cli.py"
GEOMETRY = "src/orbifold/geometry.py"
STACKYFAN = "src/orbifold/stackyfan.py"
EXACT = "src/orbifold/exact.py"
INTLATTICE = "src/orbifold/intlattice.py"
SHEAFDATA = "src/orbifold/sheafdata.py"
SETS = "tests/test_constraint_sets.py"
SETS_DEEP = SETS + "::test_sets_match_per_candidate_loops"
SETS_PAST = SETS + "::test_sets_add_nothing_past_their_limits"
BOX = "tests/test_genfun.py::test_derived_box_is_complete"
PINS = "tests/test_engine_windows.py::test_engine_windows_match_pins"
CSETS_PINS, R0_PINS = PINS + "[csets]", PINS + "[r0]"
LAMBDA_PINS = PINS + "[lambda]"
L4_START = ("tests/test_engine_windows.py::"
            "test_lambda_finds_no_datum_before_the_l4_start")
CLOSED_PIN = "tests/test_engine_windows.py::test_closed_windows_match_pin"
RR = "tests/test_geometry.py::test_riemann_roch_matches_fraction_reference"
TWICE = ("tests/test_geometry.py::test_doubled_rho_sum_closed_form",
         "tests/test_geometry.py::test_doubled_sum_refuses_a_non_integer")
UNDER_O = ("tests/test_cli.py::"
           "test_failed_internal_check_is_one_line_exit_1_under_O")
VALUES = ("tests/test_values.py",)


class Row(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


ROWS = (
    # each branch of genfun._box one unit lower
    Row("_box D/2 branch", GENFUN,
        "return max(span // 2, (pq", "return max(span // 2 - 1, (pq", (BOX,)),
    Row("_box wall branch", GENFUN,
        "(pq + 2 * r) * isqrt(span // (2 * pq + r)))",
        "(pq + 2 * r) * isqrt(span // (2 * pq + r)) - 1)", (CSETS_PINS,)),
    # the quad sets' l lower limits one unit higher
    Row("_cs_quad plus-form l floor", GENFUN,
        "l_lo = -((span - 3 * j + r * j * j)",
        "l_lo = 1 - ((span - 3 * j + r * j * j)", (SETS_DEEP,)),
    Row("_cs_quad minus-form l floor", GENFUN,
        "l_lo = -((span - 3 * j - r * j * j)",
        "l_lo = 1 - ((span - 3 * j - r * j * j)", (SETS_DEEP,)),
    Row("_r0_quad l floor", GENFUN,
        "-L, -((span - 3 * j) // (2 * ab * j - 1)))",
        "-L, 1 - ((span - 3 * j) // (2 * ab * j - 1)))", (SETS_DEEP,)),
    # the quad sets' |l| caps one unit lower
    Row("_cs_quad |l| cap", GENFUN,
        "L = min(M, (step - 2 + isqrt(disc)) // (2 * c))",
        "L = min(M, (step - 2 + isqrt(disc)) // (2 * c) - 1)", (SETS_DEEP,)),
    Row("_r0_quad |l| cap", GENFUN,
        "L = min(M, (isqrt(disc) + step - 2) // (4 * ab))",
        "L = min(M, (isqrt(disc) + step - 2) // (4 * ab) - 1)", (SETS_DEEP,)),
    # the minus form's loop ends one j early
    Row("_cs_quad minus-form end", GENFUN,
        "if l_lo > L:", "if l_lo >= L:", (SETS_DEEP,)),
    # the closed engine's t limit both ways
    Row("_p12_tmax lower", GENFUN,
        "return isqrt(max(0, 16 - min2exp) // 4)",
        "return isqrt(max(0, 16 - min2exp) // 4) - 1",
        ("tests/test_genfun.py::test_closed_t_limit_is_complete",)),
    Row("_p12_tmax higher", GENFUN,
        "return isqrt(max(0, 16 - min2exp) // 4)",
        "return isqrt(max(0, 16 - min2exp) // 4) + 1",
        ("tests/test_genfun.py::test_closed_bound_stops_at_t_limit",)),
    Row("_lambda_box", GENFUN,
        "return max((span + params.r) // 2, (params.r * span + 3) // 4)",
        "return max((span + params.r) // 2 - 1, (params.r * span + 3) // 4)",
        (LAMBDA_PINS,)),
    # lambda's l4 loop starts one l4 late
    Row("_lambda_l4_start corner", GENFUN,
        "start = l2 - (1 + isqrt(disc)) // c",
        "start = l2 + 1 - (1 + isqrt(disc)) // c", (L4_START,)),
    Row("_lambda_l4_start no corner", GENFUN,
        "start = -((-t - isqrt(disc)) // big)",
        "start = 1 - ((-t - isqrt(disc)) // big)", (L4_START,)),
    # lambda's l2 loop ends one l2 early
    Row("_lambda_counts l2 end", GENFUN,
        "if lo4 > top4:", "if lo4 >= top4:", (LAMBDA_PINS,)),
    # lambda's W4 >= W2 end and its type2,4 l2 end one step early
    Row("_lambda_counts W4 end", GENFUN,
        "if w4 >= w2 and (l2 + l4) * (\n"
        "                            r * (l2 + l4) + 2 * pq * (l4 - l2) + 2)",
        "if w4 >= w2 and (l2 + l4 + 2) * (\n"
        "                            r * (l2 + l4 + 2) + 2 * pq * (l4 + 2 - l2)"
        " + 2)", (LAMBDA_PINS,)),
    Row("_lambda_counts type2,4 l2 end", GENFUN,
        "if 2 * l2 * max(lo1 + lo3, pq * l2 + 1) + r * l2 * l2 > span:",
        "if 2 * (l2 + 1) * max(lo1 + lo3, pq * (l2 + 1) + 1)"
        " + r * (l2 + 1) ** 2 > span:",
        (LAMBDA_PINS,)),
    # lambda's mirror at r = 0: a pair's weight, the self-mirrored strata's
    # l4 clamp and diagonal weight, and the parity classes of l1 and l3
    Row("lambda mirror weight", GENFUN,
        "twice = weight if r else 2 * weight", "twice = weight",
        (LAMBDA_PINS,)),
    Row("lambda self-mirror clamp", GENFUN,
        "lo4 = max(lo4, l2)", "lo4 = max(lo4, l2 + 1)", (LAMBDA_PINS,)),
    Row("lambda diagonal weight doubled", GENFUN,
        "add = weight if halved and l4 == l2 else twice", "add = twice",
        (LAMBDA_PINS,)),
    Row("lambda l1 parity class", GENFUN,
        "(a * par - l1_lo) % step1", "(a * (par + 1) - l1_lo) % step1",
        (LAMBDA_PINS,)),
    Row("lambda l3 parity class", GENFUN,
        "b * ((par + l1) % 2)", "b * ((par + l1 + 1) % 2)", (LAMBDA_PINS,)),
    # the r = 0 weight and the ENGINES rows' counts and box columns (a
    # larger box never changes a window, so only smaller ones are rows)
    Row("csets weight at r = 0", GENFUN,
        "if r else ((True,), 2)", "if r else ((True,), 1)", (CSETS_PINS,)),
    Row("csets counts wired to r0", GENFUN,
        "rank2_vb_csets(params, cls, min2exp), _csets_counts, _box),",
        "rank2_vb_csets(params, cls, min2exp), _r0_counts, _box),",
        (CSETS_PINS,)),
    Row("closed box one family short", GENFUN,
        "lambda params, m, n, lo2: _p12_tmax(lo2),",
        "lambda params, m, n, lo2: _p12_tmax(lo2) - 1,", (CLOSED_PIN,)),
    Row("lambda box wired to _box", GENFUN,
        "_lambda_box, experimental=True),", "_box, experimental=True),",
        (LAMBDA_PINS,)),
    # each set's j loop ends one step of j early: its end tested at j + 2
    Row("_cs_pinned end", GENFUN,
        "f4 - c * j * j\n        if i > M or e4 < 2 * lo2:",
        "f4 - c * j * j\n        if i > M or e4 - 4 * c * (j + 1) < 2 * lo2:",
        (CSETS_PINS,)),
    Row("_cs_quad end", GENFUN,
        "if disc < 0:\n            return  # disc falls",
        "if disc < 8 * c * step:\n            return  # disc falls",
        (CSETS_PINS,)),
    Row("_cs_ratio twisted end", GENFUN,
        "r * j * (r * j + 2) >= c * span if r",
        "r * (j + 2) * (r * (j + 2) + 2) >= c * span if r", (CSETS_PINS,)),
    Row("_cs_ratio untwisted end", GENFUN,
        "else 2 * div_mod * j > span:", "else 2 * div_mod * (j + 2) > span:",
        (CSETS_PINS,)),
    Row("_cs_tail end", GENFUN,
        "if 2 * pq * j * j + 2 * j > cap:",
        "if 2 * pq * (j + 2) ** 2 + 2 * (j + 2) > cap - 4 * r * (j + 1):",
        (CSETS_PINS,)),
    Row("_r0_pinned end", GENFUN,
        "f4 - 2 * ab * j * j\n        if i > M or e4 < 2 * lo2:",
        "f4 - 2 * ab * j * j\n"
        "        if i > M or e4 - 8 * ab * (j + 1) < 2 * lo2:",
        (R0_PINS,)),
    Row("_r0_quad end", GENFUN,
        "if disc < 0:\n            return  # and at every larger j",
        "if disc < 16 * ab * step:\n"
        "            return  # and at every larger j",
        (R0_PINS,)),
    Row("_r0_cone end", GENFUN,
        "if 2 * div * j > cap:", "if 2 * div * (j + 2) > cap:", (R0_PINS,)),
    Row("_r0_tail end", GENFUN,
        "if 2 * ab * j * j + 2 * j > cap:",
        "if 2 * ab * (j + 2) ** 2 + 2 * (j + 2) > cap:", (R0_PINS,)),
    # lambda's stability rows one unit tighter (drops stable data) and
    # looser (admits unstable data, which the kernel ``_stable`` rejects)
    Row("_lambda_counts row tighter", GENFUN,
        "h = k2 * w2 + k4 * w4 - 1", "h = k2 * w2 + k4 * w4 - 2",
        (LAMBDA_PINS,)),
    Row("_lambda_counts row looser", GENFUN,
        "h = k2 * w2 + k4 * w4 - 1", "h = k2 * w2 + k4 * w4", (LAMBDA_PINS,)),
    # the stability kernel takes a part of exactly half the weight as
    # stable, and lambda drops its per-datum checks one at a time
    Row("_stable boundary", SHEAFDATA,
        "if 2 * (w[i] + w[j]) >= total:", "if 2 * (w[i] + w[j]) > total:",
        ("tests/test_sheafdata.py::"
         "test_stability_type1_matches_explicit_system",
         "tests/test_sheafdata.py::test_stability_type3_displayed_system")),
    Row("lambda stability unchecked", GENFUN,
        "if not _stable(lam, parts, params):", "if False:",
        ("tests/test_engine_windows.py::"
         "test_lambda_raises_on_an_unstable_datum",)),
    Row("lambda zero pattern unchecked", GENFUN,
        "or (l1 > 0, l2 > 0, l3 > 0, l4 > 0)\n"
        "                                != positive):", "):",
        ("tests/test_engine_windows.py::"
         "test_lambda_raises_on_a_datum_off_its_zero_pattern",)),
    Row("lambda window unchecked", GENFUN,
        "if chi4 < 2 * lo2:", "if False:",
        ("tests/test_engine_windows.py::"
         "test_lambda_raises_on_a_datum_below_the_window",)),
    # vb_to_tf runs only the chain at even offsets from the top, and a
    # leaf's path parsers lose the names of their siblings
    Row("vb_to_tf second parity chain", GENFUN,
        "for p in {(top - e2) & 1 for e2 in terms}:", "for p in (0,):",
        ("tests/test_genfun.py::"
         "test_vb_to_tf_runs_each_occupied_parity_chain",)),
    Row("path parsers without metavar", CLI,
        'metavar="{%s}" % ",".join(names) if leaf else None)',
        "metavar=None)",
        ("tests/test_cli.py::test_path_parser_output_matches_full_tree",)),
    # the integer Riemann-Roch forms: a divisor, a residue, a term or a
    # factor off, and the doubled sums' integrality check
    Row("chi over ab", GEOMETRY,
        "divmod(total, 2 * a * b)", "divmod(total, a * b)", (RR,)),
    Row("chi sigma residue from n", GEOMETRY,
        "n1 % b)", "n % b)", (RR,)),
    Row("chi rho weight", GEOMETRY,
        "rho += b * _rho_sum(q, b % q, m % q)",
        "rho += a * _rho_sum(q, b % q, m % q)", (RR,)),
    # a zero-sum guard that also skips a sum that is not zero
    Row("chi sigma skipped at p = 1", GEOMETRY,
        "if p < b:", "if 1 < p < b:", (RR,)),
    Row("hilbert lead over (pq)^2", GEOMETRY,
        "Fraction(a * b * (r + 2 * pq), 2 * pq * pq)",
        "Fraction(a * b * (r + 2 * pq), pq * pq)", (RR,)),
    Row("hilbert lin without 2pq(n+1)", GEOMETRY,
        "2 * m + r + 2 * pq * (n + 1)", "2 * m + r", (RR,)),
    Row("mhp lead twist weight", GEOMETRY,
        "ab * ab * (r + 2 * pq)", "ab * ab * (r + pq)", (RR,)),
    Row("mhp lin without -1", GEOMETRY,
        "2 * m - 1 + ab + 2 * pq", "2 * m + ab + 2 * pq", (RR,)),
    Row("doubled sum halved", GEOMETRY,
        "    return int(twice)", "    return int(value)", TWICE),
    Row("doubled sum unchecked", GEOMETRY,
        "if twice.denominator != 1:", "if False:", TWICE),
    # the class fast path takes any pair, not only two exact ints
    Row("class fast path unchecked", GEOMETRY,
        "if type(m) is int and type(n) is int:", "if True:",
        ("tests/test_geometry.py::"
         "test_class_refuses_non_integral_coordinates",)),
    # the class reader lets a value that ``int`` rejects raise its own error
    Row("_integers catches ValueError only", INTLATTICE,
        "except (TypeError, ValueError, OverflowError):", "except ValueError:",
        ("tests/test_geometry.py::"
         "test_class_refuses_what_tuple_or_int_rejects",)),
    # an internal check dropped: the failure it reports goes unseen
    Row("hirzebruch_fan cokernel unchecked", STACKYFAN,
        "rays, cones)\n    _require_finite_cokernel(fan)\n    return fan\n\n\n"
        "def _split", "rays, cones)\n    return fan\n\n\ndef _split", (UNDER_O,)),
    Row("Engine.window unchecked", GENFUN,
        "        _check_window(top2, lo2)\n", "",
        ("tests/test_genfun.py::"
         "test_engine_window_refuses_over_the_slot_limit",)),
    # the polynomial constructor keeps trailing zeros
    Row("RatPoly untrimmed", EXACT,
        "coeffs = tuple(_trim([c if", "coeffs = tuple(([c if",
        ("tests/test_exact.py::test_ratpoly_keeps_coefficients_as_built",)),
    # the value types' one storing path: a key short of the last field,
    # and a class stored as given
    Row("_store key one field short", INTLATTICE,
        "setters[-1](self, fields)", "setters[-1](self, fields[:-1])",
        VALUES),
    Row("PicClass unchecked", GEOMETRY,
        'self._store(*_integers((m, n), "a class is two integers (m, n)"))',
        "self._store(m, n)", VALUES),
    # each closed-form set limit of the test one lower
    Row("set_limit quad", SETS,
        "return (4 * c * span + (step - 2) ** 2) // (4 * c * step)",
        "return (4 * c * span + (step - 2) ** 2) // (4 * c * step) - 1",
        (SETS_PAST,)),
    Row("set_limit twisted ratio", SETS,
        "return (math.isqrt(c * span) - 1) // r if r",
        "return (math.isqrt(c * span) - 1) // r - 1 if r", (SETS_PAST,)),
    Row("set_limit untwisted ratio", SETS,
        "else span // (2 * extra[0])", "else span // (2 * extra[0]) - 1",
        (SETS_PAST,)),
    Row("set_limit pinned and tail", SETS,
        "return math.isqrt(span // c)  # pinned and tail",
        "return math.isqrt(span // c) - 1  # pinned and tail", (SETS_PAST,)),
)


def run_row(row: Row) -> str:
    """'killed', 'LIVED', 'ERROR' (pytest could not run the tests) or
    'STALE' (the row's text is not found exactly once)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = tmp / row.path
        text = target.read_text()
        if text.count(row.old) != 1:
            return "STALE"
        target.write_text(text.replace(row.old, row.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *row.tests],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=str(tmp / "src")),
            capture_output=True, text=True)
        # pytest exits 1 when a test failed, 0 when all passed, and with
        # another code when it could not run them
        return {0: "LIVED", 1: "killed"}.get(proc.returncode, "ERROR")


def main() -> int:
    # the tests must pass on the code as it is, or a kill would mean nothing
    tests = sorted({test for row in ROWS for test in row.tests})
    if subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                       "no:cacheprovider", *tests], cwd=ROOT,
                      env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                      capture_output=True).returncode:
        print("the named tests fail without a mutant")
        return 1
    failed = 0
    for row in ROWS:
        start = time.perf_counter()
        verdict = run_row(row)
        failed += verdict != "killed"
        print("%-7s %5.1f s  %s" % (verdict, time.perf_counter() - start,
                                    row.name), flush=True)
    print("%d of %d mutants killed" % (len(ROWS) - failed, len(ROWS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
