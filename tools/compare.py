"""Compare the output of two featlog checkouts on the benchmark's operations.

Usage, from the root of a featlog checkout:

    python3 tools/compare.py identity OLD NEW --seeds 1,7,201

OLD and NEW are checkout roots; each holds ``src/featlog``.  ``identity``
runs every operation of the benchmark's workloads (``bench/workloads.py``
of this checkout, so both trees get the same operations) at each seed,
with each tree in its own subprocess that imports featlog from that
tree's ``src``.  CLI commands run in-process through ``featlog.cli.main``
with the input on stdin, as the benchmark runs them; ``evaluate`` runs
with one long-lived ``Symbols`` per workload and seed, and the benchmark's
node budget.  A wall-clock alarm cuts each operation off after
``ALARM_S`` seconds, and a cut operation's outcome is ``timeout``.

It prints one line per operation whose exit code, stdout, stderr or
``evaluate`` repr differs between the trees, with the start of each
side, then a count.  The exit status is 0 when nothing differs and 1
otherwise.

``outcomes TREE FILE`` is the subprocess's side: it writes the outcome
of each operation in TREE as one JSON line to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import EVAL_BUDGET  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# wall seconds an operation may run; none of the three workloads' ops
# comes near it, and a tree that hangs is still reported
ALARM_S = 10.0
# characters of each differing field shown per side
SHOWN = 160


class OpTimeout(BaseException):
    """Raised from the alarm; a BaseException so featlog's own ``except``
    clauses cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def _field(text: str) -> dict:
    """A field by its digest, with its start to show in a report."""
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "head": text[:SHOWN]}


def _run_cli(featlog, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = featlog.cli.main([op.command, "-"])
            except SystemExit as exc:  # argparse's own exit
                code = exc.code
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": _field(out.getvalue()), "stderr": _field(err.getvalue())}


def _run_evaluate(featlog, session, op) -> dict:
    kind, bound, _ = op.expect
    phi = featlog.parse_formula(session, op.text)
    result = featlog.evaluate(session, kind, {}, phi, node_bound=bound, budget=EVAL_BUDGET)
    return {"repr": _field(repr(result))}


def outcomes(tree: Path, out: Path, seeds: list[int]) -> None:
    """Write the outcome of each operation, run in the featlog of ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    import featlog
    import featlog.cli

    if Path(featlog.__file__).resolve().parent != (tree / "src" / "featlog").resolve():
        raise SystemExit(f"imported featlog from {featlog.__file__}, not {tree / 'src'}")
    signal.signal(signal.SIGALRM, _on_alarm)
    with out.open("w") as sink:
        for name in WORKLOADS:
            for seed in seeds:
                session = featlog.Symbols()
                for i, op in enumerate(WORKLOADS[name](seed)):
                    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
                    try:
                        try:
                            if op.command == "evaluate":
                                got = _run_evaluate(featlog, session, op)
                            else:
                                got = _run_cli(featlog, op)
                        finally:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    except OpTimeout:
                        got = {"outcome": "timeout"}
                    except Exception as exc:  # an uncaught exception is an outcome too
                        got = {"outcome": f"{type(exc).__name__}: {exc}"}
                    op_id = f"{name} seed={seed} op={i} {op.command} {op.family} {op.size}"
                    sink.write(json.dumps({"op": op_id, **got}) + "\n")


def _differences(old: dict, new: dict) -> list[str]:
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            if a["sha256"] != b["sha256"]:
                lines.append(f"  {key}: {a['head']!r} -> {b['head']!r}")
        elif a != b:
            lines.append(f"  {key}: {a!r} -> {b!r}")
    return lines


def identity(args) -> int:
    """Run both trees and report every operation whose outcome differs."""
    trees = [Path(args.old).resolve(), Path(args.new).resolve()]
    for tree in trees:
        if not (tree / "src" / "featlog" / "__init__.py").is_file():
            print(f"no featlog sources under {tree / 'src'}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        files = [Path(tmp) / "old.jsonl", Path(tmp) / "new.jsonl"]
        procs = []
        for tree, out in zip(trees, files):
            cmd = [sys.executable, str(Path(__file__).resolve()), "outcomes", str(tree), str(out),
                   "--seeds", args.seeds]
            procs.append(subprocess.Popen(cmd, cwd=tree))
        if any([proc.wait() for proc in procs]):
            print("a tree's run failed", file=sys.stderr)
            return 2
        sides = [[json.loads(line) for line in f.read_text().splitlines()] for f in files]
    old, new = sides
    if [r["op"] for r in old] != [r["op"] for r in new]:
        print("the trees ran different operations", file=sys.stderr)
        return 2
    differ = 0
    for a, b in zip(old, new):
        lines = _differences(a, b)
        if lines:
            differ += 1
            print(a["op"])
            print("\n".join(lines))
    print(f"{differ} of {len(old)} operations differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--seeds", default="1,7,201", help="comma-separated workload seeds")
    both = commands.add_parser("identity", parents=[runs], help="report operations whose output differs")
    both.add_argument("old")
    both.add_argument("new")
    one = commands.add_parser("outcomes", parents=[runs], help="write one tree's outcomes as JSON lines")
    one.add_argument("tree")
    one.add_argument("file")
    args = parser.parse_args(argv)
    if args.command == "identity":
        return identity(args)
    outcomes(Path(args.tree).resolve(), Path(args.file), [int(s) for s in args.seeds.split(",")])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
