"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
begins with empty ``lru_cache``s, as a command-line user's process does.
It prints one JSON object on its last line of standard output.

Modes:

* ``run`` -- set up, run every operation, check the outputs;
* ``trace`` -- the same with spans recorded around the package's public
  functions (see ``tracing.py``);
* ``setup`` -- set up only, to sample the set-up time once more;
* ``record`` -- run untimed and print the output digest of every keyed
  operation group, for ``expected.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from array import array
from collections import Counter
from time import perf_counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")


def canonical(result) -> str:
    """Stable text of an operation's output, for the digests."""
    to_json = getattr(result, "to_json", None)
    if to_json is not None:
        return json.dumps(to_json(), sort_keys=True)
    return repr(result)


def source_digest() -> str:
    """sha256 over the package sources, naming the code that was measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "orbifold")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD commit read from .git without running git, or "none"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def import_package():
    """Import ``orbifold.cli`` (which imports every layer) from this checkout."""
    sys.path.insert(0, SRC)
    import orbifold.cli  # noqa: F401
    import orbifold
    origin = os.path.dirname(os.path.abspath(orbifold.__file__))
    if origin != os.path.join(SRC, "orbifold"):
        raise SystemExit("orbifold imported from %s, not from %s"
                         % (origin, SRC))


def run_operations(ops, expected, tracer=None, record=False):
    """Run the operation stream; time each call, then check its output.

    Returns a dict with the latencies, the failure counts and, when
    recording, the digest of every keyed group.  The clock covers only the
    call itself; oracles, hashing and building the next operation run
    outside it.
    """
    latencies = array("d")
    digests, group_ops, group_bad = {}, Counter(), Counter()
    attempted = failed = 0
    notes = []
    result = None
    while True:
        try:
            op = ops.send(result)
        except StopIteration:
            break
        attempted += 1
        ok = True
        t0 = perf_counter()
        try:
            result = tracer.op(op.fn, op.args) if tracer else op.fn(*op.args)
        except Exception as exc:  # a failed operation is counted, not fatal
            result, ok = None, False
            notes.append("%s raised %r" % (op.key or op.fn.__name__, exc))
        latencies.append(perf_counter() - t0)
        if ok and op.check is not None:
            try:
                ok = bool(op.check(result))
                why = "failed its check"
            except Exception as exc:  # a crashed check is a failed check
                ok, why = False, "check raised %r" % (exc,)
            if not ok and len(notes) < 20:
                notes.append("%s %s" % (op.key or op.fn.__name__, why))
        if op.key is None:
            failed += not ok
            continue
        if op.key not in digests:
            digests[op.key] = hashlib.sha256()
        digests[op.key].update(canonical(result).encode() + b"\n")
        group_ops[op.key] += 1
        group_bad[op.key] += not ok
    digests = {k: h.hexdigest()[:16] for k, h in digests.items()}
    for key, count in group_ops.items():
        if not record and expected.get(key) != digests[key]:
            failed += count
            if len(notes) < 20:
                notes.append("%s: output digest %s, expected %s"
                             % (key, digests[key], expected.get(key)))
        else:
            failed += group_bad[key]
    return dict(latencies=latencies, attempted=attempted, failed=failed,
                notes=notes, digests=digests)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--mode", default="run",
                    choices=("run", "trace", "setup", "record"))
    args = ap.parse_args(argv)

    expected = {}
    if args.mode != "record":
        with open(EXPECTED) as fh:
            expected = json.load(fh)
    t0 = perf_counter()
    import_package()
    t1 = perf_counter()
    import workloads
    t2 = perf_counter()
    state = workloads.setup(args.workload, args.seed, args.size)
    setup_s = (t1 - t0) + (perf_counter() - t2)

    from orbifold import genfun
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    out["env"] = {
        "cpus": os.cpu_count(),
        # the library's thread default; absent once the pool is gone
        "threads": getattr(genfun, "_thread_count", lambda: 1)(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source": source_digest(),
    }

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install({name: mod for name, mod in sys.modules.items()
                        if name.startswith("orbifold.") and mod is not None})
    ops = workloads.operations(args.workload, state)
    res = run_operations(ops, expected, tracer, record=args.mode == "record")
    out["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = res.pop("latencies")
    out["wall_s"] = sum(latencies)
    out["latencies"] = latencies.tolist()
    if args.mode != "record":
        res.pop("digests")
    out.update(res)
    if tracer is not None:
        per_name, main_self, min_self = tracer.report()
        out["layers"] = tracing.layer_metrics(per_name)
        out["main_self_s"] = main_self
        out["min_self_s"] = min_self
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
