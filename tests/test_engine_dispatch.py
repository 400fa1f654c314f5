"""Snapshot of the CLI engine dispatch: exit code, stdout and stderr.

Every ``--engine`` name of ``genfun rank2-vb`` and ``genfun rank2-tf`` is
pinned on accepted inputs and on each refusal, together with the engine
lists that ``crosscheck`` reports.  The expectations were recorded from the
CLI before the engines were routed through one table, so any change in
dispatch shows up here byte for byte.
"""

import pytest

from orbifold import cli, genfun
from orbifold.geometry import derive_params

VB00 = "2*q^2 + 5 + 10*q^-2 + O(q^-2)\n"
VB11 = ("2*q^6 + 4*q^5 + 6*q^4 + 8*q^3 + 10*q^2 + 12*q + 14 + 16*q^-1 "
        "+ 18*q^-2 + O(q^-2)\n")
TF00 = "2*q^2 + 8*q + 41 + 132*q^-1 + 450*q^-2 + O(q^-2)\n"
TF11 = ("2*q^6 + 12*q^5 + 58*q^4 + 216*q^3 + 724*q^2 + 2168*q + 6072 "
        "+ 15912*q^-1 + 39774*q^-2 + O(q^-2)\n")

ERR_R0 = "error: engine r0 needs r = 0\n"
ERR_CLOSED = "error: engine closed covers only the (1,2,0) surface\n"
ERR_CLASS = ("error: closed-form terms cover only the classes (0,0), (1,0), "
             "(0,1), (1,1); got (2,0)\n")
ERR_TWIST = "error: rank-2 series engines need r >= 0\n"
ERR_ALL = "error: rank2-tf needs a single engine, not all\n"


def _all_text(series):
    return ("engines: csets, r0, closed\ncsets: %sr0: %sclosed: %sagree: yes\n"
            % (series, series, series))


# (subcommand, engine, (a, b, r), (m, n)) -> (exit code, stdout, stderr)
SNAPSHOT = {}
for _name in ("csets", "r0", "closed", "lambda"):
    SNAPSHOT[("rank2-vb", _name, (1, 2, 0), (0, 0))] = (0, VB00, "")
    SNAPSHOT[("rank2-vb", _name, (1, 2, 0), (1, 1))] = (0, VB11, "")
    SNAPSHOT[("rank2-tf", _name, (1, 2, 0), (0, 0))] = (0, TF00, "")
    SNAPSHOT[("rank2-tf", _name, (1, 2, 0), (1, 1))] = (0, TF11, "")
SNAPSHOT[("rank2-vb", "all", (1, 2, 0), (0, 0))] = (0, _all_text(VB00), "")
SNAPSHOT[("rank2-vb", "all", (1, 2, 0), (1, 1))] = (0, _all_text(VB11), "")
SNAPSHOT[("rank2-tf", "all", (1, 2, 0), (0, 0))] = (1, "", ERR_ALL)
SNAPSHOT[("rank2-tf", "all", (1, 2, 0), (1, 1))] = (1, "", ERR_ALL)
for _kind in ("rank2-vb", "rank2-tf"):
    SNAPSHOT[(_kind, "r0", (2, 3, 1), (0, 0))] = (1, "", ERR_R0)
    SNAPSHOT[(_kind, "closed", (1, 3, 0), (0, 0))] = (1, "", ERR_CLOSED)
    SNAPSHOT[(_kind, "closed", (1, 2, 0), (2, 0))] = (1, "", ERR_CLASS)
    SNAPSHOT[(_kind, "csets", (1, 2, -1), (0, 0))] = (1, "", ERR_TWIST)
    SNAPSHOT[(_kind, "lambda", (1, 2, -1), (0, 0))] = (1, "", ERR_TWIST)


def run_main(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_every_engine_name_is_pinned():
    assert cli.ENGINES == ("csets", "r0", "closed", "lambda", "all")
    pinned = {name for _, name, _, _ in SNAPSHOT}
    assert pinned == set(cli.ENGINES)


@pytest.mark.parametrize("case", sorted(SNAPSHOT), ids=str)
def test_genfun_engine_snapshot(capsys, case):
    kind, engine, (a, b, r), (m, n) = case
    argv = ("genfun", kind, "-a", str(a), "-b", str(b), "-r", str(r),
            "-m", str(m), "-n", str(n), "--min-exp=-2", "--engine", engine)
    assert run_main(capsys, argv) == SNAPSHOT[case]


# (engine, (a, b, r), (m, n)) -> stderr, for every input an engine refuses
REFUSED = {(engine, abr, cls): err
           for (_, engine, abr, cls), (code, _, err) in SNAPSHOT.items()
           if code and err != ERR_ALL}


@pytest.mark.parametrize("case", sorted(REFUSED), ids=str)
def test_engine_run_refuses_what_the_cli_refuses(case):
    # r0 and closed derive their own surface; a run on one they do not
    # cover raises, as the command line does, and computes nothing
    engine, abr, cls = case
    with pytest.raises(ValueError) as exc:
        genfun.ENGINES[engine].run(derive_params(*abr), cls, -2)
    assert "error: %s\n" % exc.value == REFUSED[case]


# (a, b, r), --min-exp, include_lambda -> crosscheck stdout
CROSSCHECK = {
    ((1, 2, 0), "-1", False):
        "engines: csets, r0, closed\ncsets: 2*q^2 + 5 + O(q^-1)\n"
        "r0: 2*q^2 + 5 + O(q^-1)\nclosed: 2*q^2 + 5 + O(q^-1)\nagree: yes\n",
    ((1, 2, 0), "-1", True):
        "engines: csets, r0, closed, lambda\ncsets: 2*q^2 + 5 + O(q^-1)\n"
        "r0: 2*q^2 + 5 + O(q^-1)\nclosed: 2*q^2 + 5 + O(q^-1)\n"
        "lambda: 2*q^2 + 5 + O(q^-1)\nagree: yes\n",
    ((2, 3, 0), "2", False):
        "engines: csets, r0\ncsets: q^8 + 2*q^6 + 7*q^4 + 5*q^2 + O(q^2)\n"
        "r0: q^8 + 2*q^6 + 7*q^4 + 5*q^2 + O(q^2)\nagree: yes\n",
    ((2, 3, 0), "2", True):
        "engines: csets, r0, lambda\n"
        "csets: q^8 + 2*q^6 + 7*q^4 + 5*q^2 + O(q^2)\n"
        "r0: q^8 + 2*q^6 + 7*q^4 + 5*q^2 + O(q^2)\n"
        "lambda: q^8 + 2*q^6 + 7*q^4 + 5*q^2 + O(q^2)\nagree: yes\n",
    ((2, 3, 1), "0", False):
        "engines: csets\n"
        "csets: q^7 + q^6 + q^4 + 3*q^2 + 7*q + 3 + O(q^0)\nagree: yes\n",
    ((2, 3, 1), "0", True):
        "engines: csets, lambda\n"
        "csets: q^7 + q^6 + q^4 + 3*q^2 + 7*q + 3 + O(q^0)\n"
        "lambda: q^7 + q^6 + q^4 + 3*q^2 + 7*q + 3 + O(q^0)\nagree: yes\n",
}


@pytest.mark.parametrize("case", sorted(CROSSCHECK), ids=str)
def test_crosscheck_engine_lists(capsys, case):
    (a, b, r), min_exp, include_lambda = case
    argv = ["crosscheck", "-a", str(a), "-b", str(b), "-r", str(r),
            "-m", "0", "-n", "0", "--min-exp=" + min_exp]
    if include_lambda:
        argv.append("--include-lambda")
    expected = CROSSCHECK[case]
    assert run_main(capsys, argv) == (0, expected, "")
    listed = tuple(expected.splitlines()[0][len("engines: "):].split(", "))
    report = genfun.crosscheck(derive_params(a, b, r), (0, 0),
                               2 * int(min_exp), include_lambda=include_lambda)
    assert report.engines == listed
