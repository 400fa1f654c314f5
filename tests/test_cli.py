"""Subprocess tests for the command-line front end."""

import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys

from orbifold import cli, genfun
from orbifold.exact import HalfExpLaurent
from orbifold.stackyfan import StackyFanData

PIN_PATH = os.path.join(os.path.dirname(__file__), "cli_parser_pin.json")
README_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "orbifold.cli", *args],
        capture_output=True, text=True, **kwargs)


def test_euler_prints_bare_integer():
    proc = run_cli("euler", "-a", "2", "-b", "3", "-r", "1", "-m", "0",
                   "-n", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_rank2_vb_series_text_and_json_roundtrip():
    args = ("genfun", "rank2-vb", "-a", "1", "-b", "2", "-r", "0",
            "-m", "0", "-n", "0", "--min-exp", "-4", "--engine", "csets")
    text = run_cli(*args)
    assert text.returncode == 0
    assert text.stdout.strip() == "2*q^2 + 5 + 10*q^-2 + 18*q^-4 + O(q^-4)"

    as_json = run_cli(*args, "--json")
    assert json.loads(as_json.stdout) == \
        HalfExpLaurent(-8, {4: 2, 0: 5, -4: 10, -8: 18}).to_json()


def readme_examples():
    """Each ``$ orbifold ...`` line of the README with the lines under it."""
    examples, current = [], None
    with open(README_PATH) as fh:
        for line in fh.read().splitlines():
            if line.startswith("$ orbifold "):
                current = (shlex.split(line[len("$ orbifold "):]), [])
                examples.append(current)
            elif current and line and not line.startswith("```"):
                current[1].append(line)
            else:
                current = None
    return examples


def test_readme_examples_print_what_they_show(capsys):
    examples = readme_examples()
    assert len(examples) == 4
    for argv, shown in examples:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == shown, argv


def test_half_integer_cutoff_attached_form():
    proc = run_cli("genfun", "rank1", "-a", "2", "-b", "3", "-r", "1",
                   "-m", "0", "-n", "0", "--min-exp=-7/2", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    terms = {t["exp2"]: t["coeff"] for t in doc["terms"]}
    assert doc["min2exp"] == -7
    assert terms[10] == "1"
    assert terms[-6] == "30"


def test_domain_error_is_one_line_exit_1():
    proc = run_cli("genfun", "rank2-vb", "-a", "2", "-b", "3", "-r", "1",
                   "-m", "0", "-n", "0", "--min-exp", "-2", "--engine", "r0")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


def test_failed_internal_check_is_one_line_exit_1_under_O():
    # internal checks raise ArithmeticError, not assert: they still run
    # under -O, and the command line reports them in one line
    code = ("import sys; from orbifold import cli, stackyfan; "
            "stackyfan.StackyFanData.has_finite_cokernel = lambda self: False; "
            "sys.exit(cli.main(['fan', 'hirzebruch', '-a', '2', '-b', '3']))")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_module_doctests_pass_under_O():
    # every module's examples, with asserts stripped and warnings as
    # errors; doctest runs them itself, as pytest under -O and -W error
    # stops at its own warning about the stripped asserts
    code = ("import doctest, importlib, pkgutil, orbifold\n"
            "names = ['orbifold'] + [info.name for info in pkgutil.iter_modules("
            "orbifold.__path__, 'orbifold.')]\n"
            "results = [doctest.testmod(importlib.import_module(name)) "
            "for name in names]\n"
            "print(len(names), sum(r.failed for r in results), "
            "sum(r.attempted for r in results))\n")
    proc = subprocess.run([sys.executable, "-O", "-W", "error", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    modules, failed, attempted = map(int, proc.stdout.splitlines()[-1].split())
    assert (modules, failed) == (9, 0), proc.stdout
    assert attempted >= 24


def test_memory_error_is_one_line_exit_1(monkeypatch, capsys):
    # stands in for a window too deep to allocate, without allocating it
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(genfun, "rank2_vb_closed_p12", out_of_memory)
    code = cli.main(["genfun", "rank2-vb", "-a", "1", "-b", "2", "-m", "0",
                     "-n", "0", "--engine", "closed", "--min-exp=-1e12"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: out of memory\n"


def _cap_address_space():
    # a window allocated after all fails with MemoryError under this cap
    # instead of filling the machine's memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_window_over_the_limit_is_one_line_exit_1():
    # 2e9 slots would be a 16 GB list; the refusal comes before any list
    for args in (("genfun", "rank2-vb", "--engine", "all"),
                 ("genfun", "rank2-tf", "--engine", "csets"),
                 ("genfun", "rank1"), ("crosscheck", "--include-lambda")):
        proc = run_cli(*args, "-a", "1", "-b", "2", "-m", "0", "-n", "0",
                       "--min-exp=-1000000000",
                       preexec_fn=_cap_address_space)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: window spans 20000000")
        assert proc.stderr.endswith(" more than the limit of 32768\n")
        assert proc.stderr.count("\n") == 1


def test_unwritable_out_is_one_line_exit_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = cli.main(["euler", "-a", "2", "-b", "3", "-r", "1", "-m", "0",
                     "-n", "1", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_quiet_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["fan", "hirzebruch", "-a", "2", "-b", "3", "-r", "1"])
    assert code == 1
    assert capsys.readouterr().err == ""


def test_usage_error_exit_2():
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("euler", "-a", "2").returncode == 2
    assert run_cli("genfun", "rank1", "-a", "1", "-b", "2", "-r", "0",
                   "-m", "0", "-n", "0", "--min-exp", "x").returncode == 2


def test_fan_wps_json_shape():
    proc = run_cli("fan", "wps", "1", "2", "4", "8", "--json")
    assert proc.returncode == 0
    fan = StackyFanData.from_json(json.loads(proc.stdout))
    assert fan.lattice.free_rank == 3
    assert fan.n_rays == 4
    assert len(fan.max_cones) == 4


def test_out_file_matches_json_stdout(tmp_path):
    target = tmp_path / "fan.json"
    args = ("fan", "hirzebruch", "-a", "2", "-b", "3", "-r", "1")
    written = run_cli(*args, "--out", str(target))
    assert written.returncode == 0
    assert written.stdout.startswith("lattice:")  # text mode on stdout
    shown = run_cli(*args, "--json")
    assert json.loads(target.read_text()) == json.loads(shown.stdout)


def test_text_mode_builds_no_json_document(monkeypatch, capsys):
    # text mode without --out prints only the text: the JSON encoder, which
    # would raise here, is never run
    commands = (["euler", "-a", "2", "-b", "3", "-r", "1", "-m", "0",
                 "-n", "1"],
                ["genfun", "rank1", "-a", "1", "-b", "2", "-m", "0", "-n",
                 "0", "--min-exp", "-3"])
    shown = []
    for argv in commands:
        assert cli.main(argv) == 0
        shown.append(capsys.readouterr())

    def no_json(*args, **kwargs):
        raise AssertionError("json.dumps ran in text mode")

    monkeypatch.setattr(cli.json, "dumps", no_json)
    for argv, before in zip(commands, shown):
        assert cli.main(argv) == 0
        assert capsys.readouterr() == before


# sha256 of cli.main's stdout, read when every polynomial coefficient was
# still stored as a Fraction
POLYNOMIAL_OUTPUT_DIGESTS = {
    "hilbert -a 2 -b 3 -r 1 -m 0 -n 1":
        "94a361b158a6bea3191d18ad300cde3afda40ecde22be8fe679030c003af05fb",
    "hilbert -a 2 -b 3 -r 1 -m 0 -n 1 --json":
        "b67b93f4d20b6a4fdc225d84d542ab95b69eacb5ee19bf883a03e23a135e71aa",
    "hilbert -a 1 -b 3 -r -1 -m 1 -n -1":
        "8595cc27d32679a2001180b7abd87f3a066f49c19e233154b30d70ff5e8b8003",
    "hilbert -a 1 -b 3 -r -1 -m 1 -n -1 --json":
        "bdd5ee15fbb03434a697f29486972d556009c48b8d82b2de83e56eccf1f9b199",
    "mhp -a 2 -b 3 -r 1 -m 0 -n 1":
        "325cd14914d142b7796e3dbd5976a62ac2cd22cdc1d386eb4d8e914c10e1e10a",
    "mhp -a 2 -b 3 -r 1 -m 0 -n 1 --json":
        "44584d3d27609cde7eb6b8399bbbcd6e003e6b77661815d0ec861f3c31db7be5",
    "mhp -a 1 -b 3 -r -1 -m 1 -n -1":
        "77d6d5c148e72c24e6ba3ce500238c712957e939c1363edfa740a8875450d9ca",
    "mhp -a 1 -b 3 -r -1 -m 1 -n -1 --json":
        "a0b624305bbd9ca23c3fbdbd4dcf4e57aa470337a43132cd0da5f284f387823f",
}


def test_polynomial_output_matches_pinned_digests(capsys):
    for command, want in POLYNOMIAL_OUTPUT_DIGESTS.items():
        assert cli.main(command.split()) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == want, command


def test_repeated_invocations_are_byte_identical():
    args = ("mhp", "-a", "2", "-b", "3", "-r", "1", "-m", "0", "-n", "0",
            "--json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.stdout != ""


def test_sheaf_stable_verdicts():
    base = ("sheaf", "stable", "-a", "1", "-b", "1", "-r", "0",
            "--b1", "0", "--b2", "0")
    assert run_cli(*base, "--lam", "1", "1", "1", "1").stdout.strip() == "stable"
    assert run_cli(*base, "--lam", "5", "1", "1", "1").stdout.strip() == "unstable"
    bad = run_cli("sheaf", "stable", "-a", "2", "-b", "3", "-r", "1",
                  "--b1", "0", "--b2", "0", "--lam", "1", "1", "3", "1")
    assert bad.returncode == 1


def test_crosscheck_reports_agreement():
    proc = run_cli("crosscheck", "-a", "1", "-b", "2", "-r", "0",
                   "-m", "0", "-n", "1", "--min-exp", "-3", "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["agree"] is True
    assert set(report["engines"]) == {"csets", "r0", "closed"}
    # the same negative coefficient from every engine
    for doc in report["engines"].values():
        assert {"exp2": -6, "coeff": "-4"} in doc["terms"]


def test_rank2_tf_rejects_engine_all():
    proc = run_cli("genfun", "rank2-tf", "-a", "1", "-b", "2", "-r", "0",
                   "-m", "0", "-n", "0", "--min-exp", "-2", "--engine", "all")
    assert proc.returncode == 1
    assert "single engine" in proc.stderr


def test_verify_subcommand_passes(verify_run):
    proc = verify_run.proc
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "all criteria passed"
    pass_lines = [ln for ln in lines if " PASS " in ln]
    assert len(pass_lines) == 10
    # the report's bytes, recorded before the rank-2 engines moved to one
    # list accumulator
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "23f3aa43b9fb5c15da07cd145e63177cd4e28eb59b2c7ffdab402ce712fa701b"


def _parser_structure(parser, path="orbifold", help_text=None):
    """Every parser path with its help string and, per action, the fields
    that decide parsing, --help and usage errors; JSON-shaped."""
    actions, children = [], []
    for action in parser._actions:
        subs = isinstance(action, argparse._SubParsersAction)
        actions.append({
            "option_strings": action.option_strings,
            "dest": action.dest,
            "nargs": action.nargs,
            "default": action.default,
            "choices": list(action.choices) if action.choices else None,
            "required": action.required,
            "help": action.help,
            "metavar": action.metavar,
            "type": action.type and action.type.__name__})
        if subs:
            helps = {a.dest: a.help for a in action._choices_actions}
            children.extend((name, sub, helps.get(name))
                            for name, sub in action.choices.items())
    handler = parser.get_default("handler")
    out = {path: {"help": help_text, "actions": actions,
                  "handler": handler and handler.__name__}}
    for name, sub, sub_help in children:
        out.update(_parser_structure(sub, path + " " + name, sub_help))
    return out


def test_parser_structure_matches_pin():
    # recorded from the parser as it was built by hand, one add_argument
    # call after another, before it was declared as one table
    with open(PIN_PATH) as fh:
        pinned = json.load(fh)
    built = json.loads(json.dumps(_parser_structure(cli.build_parser())))
    assert list(built) == list(pinned)
    for path in pinned:
        assert built[path] == pinned[path], path


def test_parser_for_argv_builds_only_its_leaf():
    # a leaf's argv builds only the parsers on its path: the leaf in full,
    # and above it each subparsers action with its one child and the names
    # of all its children as metavar
    full = _parser_structure(cli.build_parser())
    for path, _, _, handler in cli.COMMANDS:
        if not handler:
            continue
        words = path.split()
        built = _parser_structure(cli.build_parser(words + ["--json"]))
        nodes = [" ".join(["orbifold"] + words[:i])
                 for i in range(len(words) + 1)]
        assert list(built) == nodes, path
        assert built[nodes[-1]] == full[nodes[-1]], path
        for node, child in zip(nodes, words):
            *rest, subs = built[node]["actions"]
            *full_rest, full_subs = full[node]["actions"]
            assert rest == full_rest and built[node]["help"] == \
                full[node]["help"], node
            assert subs["choices"] == [child], node
            assert subs["metavar"] == \
                "{%s}" % ",".join(full_subs["choices"]), node
            assert dict(subs, choices=full_subs["choices"], metavar=None) \
                == full_subs, node
    # argv that no leaf's path opens gets the whole tree
    for argv in ([], ["genfun"], ["--help"], ["--", "euler"], ["-a", "1"]):
        assert _parser_structure(cli.build_parser(argv)) == full


# each leaf's argv with: help, nothing more, an unknown option, a stray
# positional, a bad --engine, an option without its value
SHAPES = (["-h"], [], ["--bogus"], ["stray"], ["--engine", "bogus"],
          ["--out"])
STRAY = (["euler", "-a", "2", "-b", "3", "-r", "1", "-m", "0", "-n", "1",
          "stray"],
         ["genfun", "rank1", "-a", "1", "-b", "2", "-m", "0", "-n", "0",
          "--min-exp=-2", "stray"])


def test_path_parser_output_matches_full_tree(monkeypatch, capsys):
    # help and usage errors read byte for byte as from the whole tree; a
    # stray argument after a valid command prints the root's usage
    monkeypatch.setattr(cli.verify_mod, "run_all", lambda: [])
    argvs = [path.split() + shape for path, _, _, handler in cli.COMMANDS
             if handler for shape in SHAPES] + list(STRAY)
    build = cli.build_parser

    def run(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code,) + capsys.readouterr()

    for argv in argvs:
        monkeypatch.setattr(cli, "build_parser", build)
        got = run(argv)
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: build())
        assert got == run(argv), argv
    monkeypatch.setattr(cli, "build_parser", build)
    for argv in STRAY:
        code, out, err = run(argv)
        assert (code, out) == (2, "") and err.startswith("usage: orbifold ")
        assert "{fan,charts,euler,hilbert,mhp,inertia,coarse,sheaf,genfun," \
            "crosscheck,verify}" in err
        assert err.endswith("error: unrecognized arguments: stray\n")


def test_main_builds_the_parser_for_its_argv(monkeypatch, capsys):
    seen, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda argv=None: seen.append(argv) or build(argv))
    argv = ["euler", "-a", "2", "-b", "3", "-r", "1", "-m", "0", "-n", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "1\n"
    assert seen == [argv]
