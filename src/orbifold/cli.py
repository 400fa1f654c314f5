"""Command-line front end for the package.

Subcommands expose the fan constructors, the closed-form Euler and Hilbert
evaluations, the sheaf-datum helpers, the series engines, and the
verification suite.  All numeric output is exact: integers and fraction
strings, never floats, and identical invocations produce identical bytes.

The parser is declared by one table, ``COMMANDS``: one row per subcommand
with its path, help text, argument groups and handler.  ``ARGUMENTS``
defines each argument group once.  ``build_parser`` turns the table into
the parser in one loop and gives every subcommand ``--json`` and ``--out``;
``main`` passes it argv, and for a command line that names a subcommand it
builds only the parsers on that subcommand's path (the root, its group and
the subcommand), with usage lines and errors that read as the whole tree's.

Exit codes: 0 on success, 1 on a domain error (one line on stderr), 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import verify as verify_mod
from .geometry import (
    chart_weight_tables,
    coarse_cartier_ample,
    coarse_fan,
    derive_params,
    euler_characteristic,
    hilbert_polynomial,
    inertia_components,
    modified_hilbert_polynomial,
)
from .genfun import ENGINES as SERIES_ENGINES
from .genfun import crosscheck, rank1_series, run_engine, vb_to_tf
from .sheafdata import (
    EquivLineBundle,
    Rank2Datum,
    fine_gradings,
    gauge_fix,
    rank2_c1_chi,
    stability_check,
    underlying_c1,
)
from .stackyfan import (
    hirzebruch_fan,
    line_bundle_total_space,
    projective_bundle,
    wps_fan,
    wps_gerbe_fan,
)


def _min2exp(text: str) -> int:
    """Cutoff exponent as a doubled integer; accepts forms like -4 or -7/2.

    Half-integer cutoffs begin with a minus sign in practice, so pass them
    attached: --min-exp=-7/2.
    """
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected an integer or half-integer, got %r" % text)
    doubled = value * 2
    if doubled.denominator != 1:
        raise argparse.ArgumentTypeError(
            "cutoff must be an integer or half-integer, got %r" % text)
    return int(doubled)


def _parse_incidence(text: str):
    parts = text.replace(":", " ").replace(",", " ").split()
    if not parts:
        raise argparse.ArgumentTypeError("empty incidence")
    try:
        return (parts[0],) + tuple(int(x) for x in parts[1:])
    except ValueError:
        raise argparse.ArgumentTypeError(
            "incidence indices must be integers, got %r" % text)


def _parse_divisor(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "divisor must be comma-separated integers, got %r" % text)


ENGINES = tuple(SERIES_ENGINES) + ("all",)


# ------------------------------------------------------------------ handlers
#
# Each handler returns (payload, text); payload is what --json and --out
# serialize, text is the default stdout rendering.


def _cmd_fan_wps(args):
    fan = wps_fan(tuple(args.weights))
    return fan.to_json(), str(fan)


def _cmd_fan_gerbe(args):
    fan = wps_gerbe_fan(tuple(args.weights))
    return fan.to_json(), str(fan)


def _cmd_fan_hirzebruch(args):
    fan = hirzebruch_fan(args.a, args.b, args.r)
    return fan.to_json(), str(fan)


def _cmd_fan_linebundle(args):
    fan = line_bundle_total_space(wps_fan(tuple(args.weights)),
                                  tuple(args.coeffs))
    return fan.to_json(), str(fan)


def _cmd_fan_projbundle(args):
    fan = projective_bundle(wps_fan(tuple(args.weights)),
                            tuple(args.divisors))
    return fan.to_json(), str(fan)


def _cmd_charts(args):
    params = derive_params(args.a, args.b, args.r)
    charts = chart_weight_tables(params)
    payload = {"charts": [
        {"index": c.index,
         "coordinates": list(c.coordinates),
         "group_order": c.group_order,
         "action_exponents": list(c.action_exponents),
         "t_weights": [list(w) for w in c.t_weights],
         "overlap_t_weights": [list(w) for w in c.overlap_t_weights]}
        for c in charts]}
    lines = []
    for c in charts:
        lines.append("chart %d (%s, %s): order %d, action %s, weights %s"
                     % (c.index, c.coordinates[0], c.coordinates[1],
                        c.group_order, c.action_exponents, c.t_weights))
    return payload, "\n".join(lines)


def _cmd_euler(args):
    params = derive_params(args.a, args.b, args.r)
    chi = euler_characteristic(params, (args.m, args.n))
    return {"chi": chi}, str(chi)


def _poly_payload(poly):
    doc = poly.to_json()
    doc["variable"] = "T"
    return doc


def _cmd_hilbert(args):
    params = derive_params(args.a, args.b, args.r)
    poly = hilbert_polynomial(params, (args.m, args.n))
    return _poly_payload(poly), str(poly)


def _cmd_mhp(args):
    params = derive_params(args.a, args.b, args.r)
    poly = modified_hilbert_polynomial(params, (args.m, args.n))
    return _poly_payload(poly), str(poly)


def _cmd_inertia(args):
    params = derive_params(args.a, args.b, args.r)
    components = inertia_components(params)
    payload = {"components": [
        {"source": c.source,
         "stabilizer_params": list(c.stabilizer_params),
         "dimension": c.dimension}
        for c in components]}
    lines = []
    for c in components:
        if c.source == "identity":
            lines.append("identity: dimension %d" % c.dimension)
        else:
            lines.append("%s: l in %s, dimension %d"
                         % (c.source, list(c.stabilizer_params), c.dimension))
    return payload, "\n".join(lines)


def _cmd_coarse(args):
    params = derive_params(args.a, args.b, args.r)
    fan = coarse_fan(params)
    payload = {"fan": fan.to_json()}
    text = str(fan)
    if args.t1 is not None or args.t4 is not None:
        if args.t1 is None or args.t4 is None:
            raise ValueError("--t1 and --t4 must be given together")
        cartier, ample = coarse_cartier_ample(params, args.t1, args.t4)
        payload["divisor"] = {"t1": args.t1, "t4": args.t4,
                              "cartier": cartier, "ample": ample}
        text += "\ndivisor (%d, %d): cartier %s, ample %s" % (
            args.t1, args.t4, cartier, ample)
    return payload, text


def _cmd_sheaf_c1(args):
    params = derive_params(args.a, args.b, args.r)
    cls = underlying_c1(EquivLineBundle(*args.gradings), params)
    return {"m": cls.m, "n": cls.n}, "(%d, %d)" % (cls.m, cls.n)


def _cmd_sheaf_grading(args):
    params = derive_params(args.a, args.b, args.r)
    fine = fine_gradings(EquivLineBundle(*args.gradings), params)
    return {"fine_gradings": list(fine)}, " ".join(str(x) for x in fine)


def _cmd_sheaf_gaugefix(args):
    params = derive_params(args.a, args.b, args.r)
    fixed = gauge_fix(EquivLineBundle(*args.gradings), params)
    quad = fixed.as_tuple()
    return {"gradings": list(quad)}, " ".join(str(x) for x in quad)


def _datum(args):
    return Rank2Datum(args.b1, args.b2, tuple(args.lam), args.incidence)


def _cmd_sheaf_stable(args):
    params = derive_params(args.a, args.b, args.r)
    stable = stability_check(_datum(args), params)
    return {"stable": stable}, "stable" if stable else "unstable"


def _cmd_sheaf_chi(args):
    params = derive_params(args.a, args.b, args.r)
    c1, chi = rank2_c1_chi(_datum(args), params)
    payload = {"c1": {"m": c1.m, "n": c1.n}, "chi": chi}
    return payload, "c1 (%d, %d), chi %d" % (c1.m, c1.n, chi)


def _cmd_genfun_rank1(args):
    params = derive_params(args.a, args.b, args.r)
    series = rank1_series(params, (args.m, args.n), args.min_exp)
    return series.to_json(), str(series)


def _cmd_genfun_rank2_vb(args):
    params = derive_params(args.a, args.b, args.r)
    cls = (args.m, args.n)
    if args.engine == "all":
        report = crosscheck(params, cls, args.min_exp)
        return report.to_json(), _crosscheck_text(report)
    series = run_engine(args.engine, params, cls, args.min_exp)
    return series.to_json(), str(series)


def _cmd_genfun_rank2_tf(args):
    if args.engine == "all":
        raise ValueError("rank2-tf needs a single engine, not all")
    params = derive_params(args.a, args.b, args.r)
    vb = run_engine(args.engine, params, (args.m, args.n), args.min_exp)
    series = vb_to_tf(vb, 2, params)
    return series.to_json(), str(series)


def _crosscheck_text(report):
    lines = ["engines: %s" % ", ".join(report.engines)]
    for name, window in report.windows:
        lines.append("%s: %s" % (name, window))
    if report.agree:
        lines.append("agree: yes")
    else:
        lines.append("agree: no, first disagreement at q^%s"
                     % Fraction(report.first_disagreement2, 2))
    return "\n".join(lines)


def _cmd_crosscheck(args):
    params = derive_params(args.a, args.b, args.r)
    report = crosscheck(params, (args.m, args.n), args.min_exp,
                        include_lambda=args.include_lambda)
    return report.to_json(), _crosscheck_text(report)


def _cmd_verify(args):
    results = verify_mod.run_all()
    payload = {"criteria": [
        {"index": res.index, "name": res.name,
         "passed": res.passed, "detail": res.detail}
        for res in results],
        "passed": all(res.passed for res in results)}
    return payload, verify_mod.format_report(results)


# -------------------------------------------------------------------- parser


# Each argument group, as the add_argument calls that define it.
ARGUMENTS = {
    "weights": [("weights", dict(type=int, nargs="+"))],
    "base": [("weights", dict(type=int, nargs="+", help="base weights"))],
    "coeffs": [("--coeffs", dict(
        type=int, nargs="+", required=True,
        help="one divisor coefficient per base ray"))],
    "divisors": [("--divisors", dict(
        type=_parse_divisor, nargs="+", required=True, metavar="C1,C2,...",
        help="per-ray coefficients of each summand"))],
    "surface": [
        ("-a", dict(type=int, required=True, help="first chart order")),
        ("-b", dict(type=int, required=True, help="second chart order")),
        ("-r", dict(type=int, default=0, help="twist (default 0)"))],
    "class": [
        ("-m", dict(type=int, required=True, help="class coordinate m")),
        ("-n", dict(type=int, required=True, help="class coordinate n"))],
    "t1_t4": [
        ("--t1", dict(type=int, help="first divisor coordinate")),
        ("--t4", dict(type=int, help="fourth divisor coordinate"))],
    "gradings": [("--gradings", dict(
        type=int, nargs=4, required=True, metavar=("B1", "B2", "B3", "B4")))],
    "datum": [
        ("--b1", dict(type=int, required=True, help="first grading")),
        ("--b2", dict(type=int, required=True, help="second grading")),
        ("--lam", dict(type=int, nargs=4, required=True,
                       metavar=("L1", "L2", "L3", "L4"),
                       help="filtration jumps")),
        ("--incidence", dict(
            type=_parse_incidence, default=("type1",),
            help="type1, type2:i, or type3:i,j (default type1)"))],
    "window": [("--min-exp", dict(
        type=_min2exp, required=True,
        help="window cutoff; attach half-integers: --min-exp=-7/2"))],
    "engine": [("--engine", dict(choices=ENGINES, default="csets"))],
    "lambda": [("--include-lambda", dict(
        action="store_true",
        help="also run the experimental stratum engine"))],
    "output": [
        ("--json", dict(action="store_true",
                        help="print the JSON payload instead of text")),
        ("--out", dict(metavar="FILE",
                       help="also write the JSON payload to FILE"))],
}

# One row per subcommand, in --help order: path, help, argument groups and
# handler.  A row without a handler is a group of subcommands; every other
# row also gets the "output" group.
COMMANDS = [
    ("fan", "stacky fan constructors", (), None),
    ("fan wps", "weighted projective space", ("weights",), _cmd_fan_wps),
    ("fan gerbe", "gerby weighted projective space", ("weights",),
     _cmd_fan_gerbe),
    ("fan hirzebruch", "orbifold surface fan", ("surface",),
     _cmd_fan_hirzebruch),
    ("fan linebundle",
     "line bundle total space over a weighted projective base",
     ("base", "coeffs"), _cmd_fan_linebundle),
    ("fan projbundle",
     "projectivized sum of line bundles over a weighted projective base",
     ("base", "divisors"), _cmd_fan_projbundle),
    ("charts", "affine chart weight tables", ("surface",), _cmd_charts),
    ("euler", "Euler characteristic of a line bundle", ("surface", "class"),
     _cmd_euler),
    ("hilbert", "Hilbert polynomial of a line bundle", ("surface", "class"),
     _cmd_hilbert),
    ("mhp", "modified Hilbert polynomial", ("surface", "class"), _cmd_mhp),
    ("inertia", "inertia stack components", ("surface",), _cmd_inertia),
    ("coarse", "coarse space fan and divisor tests", ("surface", "t1_t4"),
     _cmd_coarse),
    ("sheaf", "equivariant sheaf data", (), None),
    ("sheaf c1", "underlying first Chern class", ("surface", "gradings"),
     _cmd_sheaf_c1),
    ("sheaf grading", "fine chart gradings", ("surface", "gradings"),
     _cmd_sheaf_grading),
    ("sheaf gaugefix", "canonical grading quadruple", ("surface", "gradings"),
     _cmd_sheaf_gaugefix),
    ("sheaf stable", "slope stability of a datum", ("surface", "datum"),
     _cmd_sheaf_stable),
    ("sheaf chi", "class and Euler characteristic of a datum",
     ("surface", "datum"), _cmd_sheaf_chi),
    ("genfun", "counting series", (), None),
    ("genfun rank1", "rank-1 torsion-free series",
     ("surface", "class", "window"), _cmd_genfun_rank1),
    ("genfun rank2-vb", "rank-2 bundle series",
     ("surface", "class", "window", "engine"), _cmd_genfun_rank2_vb),
    ("genfun rank2-tf", "rank-2 torsion-free series",
     ("surface", "class", "window", "engine"), _cmd_genfun_rank2_tf),
    ("crosscheck", "compare every applicable engine",
     ("surface", "class", "window", "lambda"), _cmd_crosscheck),
    ("verify", "run the full verification suite", (), _cmd_verify),
]


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, or only the part of it that argv runs.

    When a leaf's path opens argv, only the parsers on that path are built:
    the root, the leaf's group if it has one, and the leaf with its
    arguments, as argparse runs no other.  Each subparsers action on the
    path names every one of its rows by ``metavar``, so the usage line that
    the root prints for a stray argument lists them as the whole tree does.
    Any other argv (``--help``, a group alone, a bad command) gets the
    whole tree, with every listing and choice error.
    """
    argv = list(argv or ())
    leaf = next((path for path, _, _, handler in COMMANDS if handler
                 and path.split() == argv[:path.count(" ") + 1]), None)

    def subparsers(parser, dest, head):
        names = [path.rpartition(" ")[2] for path, _, _, _ in COMMANDS
                 if path.rpartition(" ")[0] == head]
        return parser.add_subparsers(
            dest=dest, required=True,
            metavar="{%s}" % ",".join(names) if leaf else None)

    parser = argparse.ArgumentParser(
        prog="orbifold",
        description="Exact invariants and counting series for a family of "
                    "orbifold surfaces fibered over weighted projective "
                    "lines.")
    groups = {"": subparsers(parser, "command", "")}
    for path, help_text, names, handler in COMMANDS:
        if leaf and not (leaf + " ").startswith(path + " "):
            continue  # off the path of the leaf that runs
        head, _, name = path.rpartition(" ")
        p = groups[head].add_parser(name, help=help_text)
        if handler is None:
            groups[path] = subparsers(p, "kind", path)
            continue
        for group in names + ("output",):
            for flag, spec in ARGUMENTS[group]:
                p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        payload, text = args.handler(args)
        # the indented encoder is pure Python: run it only for a reader
        doc = (json.dumps(payload, sort_keys=True, indent=2)
               if args.json or args.out else None)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(doc + "\n")
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:  # deep windows are refused first (MAX_WINDOW_SLOTS)
        print("error: out of memory", file=sys.stderr)
        return 1
    try:
        print(doc if args.json else text, flush=True)
    except BrokenPipeError:  # the reader closed stdout early
        return 1
    if args.handler is _cmd_verify and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
