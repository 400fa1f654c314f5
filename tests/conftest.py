"""One ``orbifold verify`` run, shared by every test that reads it."""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """``python -W error -m orbifold.cli verify --out FILE``, run once:
    ``proc`` is the finished process, ``payload`` the JSON in FILE (or None).
    """
    out = tmp_path_factory.mktemp("verify") / "verify.json"
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "orbifold.cli",
                           "verify", "--out", str(out)],
                          capture_output=True, text=True)
    payload = json.loads(out.read_text()) if out.exists() else None
    return SimpleNamespace(proc=proc, payload=payload)
