"""Acceptance gate: the ten package-level verification criteria.

Every test reads the session's one ``orbifold verify`` run (``verify_run``
in ``conftest.py``): one test per criterion checks its entry in the JSON
payload, and the final test prints the one-line-per-criterion report,
including the logged coefficient overrides from the golden-window check.
"""

from orbifold import verify


def _entry(verify_run, index):
    assert verify_run.payload, verify_run.proc.stderr
    entry = verify_run.payload["criteria"][index - 1]
    assert entry["index"] == index
    assert entry["passed"], "%s: %s" % (entry["name"], entry["detail"])
    return entry


def test_criterion_01_golden_series_windows(verify_run):
    detail = _entry(verify_run, 1)["detail"]
    # mismatches against the quoted windows are only tolerated when all
    # three engines agree, and then they must be spelled out in the report
    if "overridden" in detail:
        assert "engines split" not in detail
        assert "quoted" in detail


def test_criterion_02_engine_cross_agreement(verify_run):
    _entry(verify_run, 2)


def test_criterion_03_euler_identities(verify_run):
    _entry(verify_run, 3)


def test_criterion_04_hilbert_consistency(verify_run):
    _entry(verify_run, 4)


def test_criterion_05_point_sheaf_constants(verify_run):
    _entry(verify_run, 5)


def test_criterion_06_rank1_partition_oracle(verify_run):
    _entry(verify_run, 6)


def test_criterion_07_lattice_invariants(verify_run):
    _entry(verify_run, 7)


def test_criterion_08_fan_golden_examples(verify_run):
    _entry(verify_run, 8)


def test_criterion_09_shift_covariance(verify_run):
    _entry(verify_run, 9)


def test_criterion_10_stabilization_robustness(verify_run):
    _entry(verify_run, 10)


def test_criterion_report(verify_run, capsys):
    results = [verify.CriterionResult(**entry)
               for entry in verify_run.payload["criteria"]]
    with capsys.disabled():
        print()
        print(verify_run.proc.stdout, end="")
    # the printed report is the JSON payload's, line for line
    assert verify_run.proc.stdout == verify.format_report(results) + "\n"
    assert verify_run.payload["passed"]
