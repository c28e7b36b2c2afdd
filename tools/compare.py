"""Compare two featlog checkouts on the benchmark's operations: their
output, and their end-to-end metrics.

Usage, from the root of a featlog checkout:

    python3 tools/compare.py identity OLD NEW --seeds 1,7,201
    python3 tools/compare.py bench OLD NEW --workload W --seed K --pairs N --seconds S

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

``bench`` runs ``bench/run.py --workload W --seed K --seconds S`` of each
tree, in that tree and in a subprocess of its own, N times each, in
alternating order: OLD first in odd pairs, NEW first in even ones.  It
reads each run's last line of JSON.  For each end-to-end metric of this
checkout's ``BENCHMARK.json`` it prints OLD's median and quartiles, NEW's
median and its change, how many pairs NEW won (strictly better than OLD
in the same pair), and a verdict, the first that holds of:

- ``worse``: NEW's median is worse than OLD's by more than the metric's
  bound;
- ``unresolved``: OLD's interquartile range is wider than the bound,
  and some run of NEW is no better than some run of OLD;
- ``gain``: there are at least ten pairs, NEW won at least nine in
  ten of them, and its median is better than OLD's by more than OLD's
  interquartile range;
- ``same``.

Its last line is one JSON object with these summaries and every pair's
metrics.  The exit status is 0, 1 when a verdict is ``worse`` or
``unresolved``, and 2 when a run fails or answers wrongly.

``outcomes TREE FILE`` is the subprocess's side of ``identity``: it
writes the outcome of each operation in TREE as one JSON line to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import signal
import statistics
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
# pairs a gain needs: an A/A run of 3 pairs of 20 s on solve-scale (one
# tree against itself, CPython 3.11.7, 2 CPUs) read 3 of 3 wins, by more
# than the quartile range, on 7 of 14 metrics
MIN_GAIN_PAIRS = 10


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


def _run_bench(tree: Path, args) -> dict:
    """The end-to-end metrics of one ``bench/run.py`` run in ``tree``, from
    its last line of JSON."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=args.seconds + 600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.stderr.write(done.stderr)
        print(f"{tree}: bench/run.py exited {done.returncode}, correct={result.get('correct')}",
              file=sys.stderr)
        raise SystemExit(2)
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(metric: dict, pairs: list[dict]) -> dict:
    """One end-to-end metric over the pairs: OLD's median and quartiles,
    NEW's median, NEW's wins, and the verdict."""
    name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
    old = [p["old"][name] for p in pairs]
    new = [p["new"][name] for p in pairs]
    old_med, new_med = statistics.median(old), statistics.median(new)
    q1, q3 = _quartiles(old)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(map(better, new, old))
    gain = old_med - new_med if lower else new_med - old_med
    if -gain > bound * abs(old_med):
        verdict = "worse"
    elif q3 - q1 > bound * abs(old_med) and not all(better(b, a) for a in old for b in new):
        verdict = "unresolved"
    elif len(pairs) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        verdict = "gain"
    else:
        verdict = "same"
    return {"old_median": old_med, "old_quartiles": [q1, q3], "new_median": new_med,
            "change": (new_med - old_med) / old_med if old_med else 0.0,
            "wins": wins, "bound": bound, "verdict": verdict}


def bench(args) -> int:
    """Alternating pairs of benchmark runs, and a verdict per metric."""
    trees = [Path(args.old).resolve(), Path(args.new).resolve()]
    for tree in trees:
        if not (tree / "bench" / "run.py").is_file():
            print(f"no bench/run.py under {tree}", file=sys.stderr)
            return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        runs = {}
        for side in order:
            runs[side] = _run_bench(trees[side], args)
        pairs.append({"old": runs[0], "new": runs[1]})
    summaries = {m["name"]: _summary(m, pairs) for m in metrics}
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s, "
          f"old first in odd pairs")
    print(f"{'metric':18s} {'old median [quartiles]':>30s} {'new median':>12s} "
          f"{'change':>8s} {'wins':>7s} {'bound':>6s}  verdict")
    for name, m in summaries.items():
        q1, q3 = m["old_quartiles"]
        spread = f"{m['old_median']:.4g} [{q1:.4g}, {q3:.4g}]"
        wins = f"{m['wins']}/{len(pairs)}"
        print(f"{name:18s} {spread:>30s} {m['new_median']:>12.4g} {m['change']:>+8.1%} "
              f"{wins:>7s} {m['bound']:>6.0%}  {m['verdict']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "metrics": summaries, "pairs": pairs}))
    bad = any(m["verdict"] in ("worse", "unresolved") for m in summaries.values())
    return 1 if bad else 0


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
    timed = commands.add_parser("bench", help="compare end-to-end metrics in alternating pairs of runs")
    timed.add_argument("old")
    timed.add_argument("new")
    timed.add_argument("--workload", required=True, choices=list(WORKLOADS))
    timed.add_argument("--seed", type=int, default=1)
    timed.add_argument("--pairs", type=int, default=10)
    timed.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if args.command == "identity":
        return identity(args)
    if args.command == "bench":
        return bench(args)
    outcomes(Path(args.tree).resolve(), Path(args.file), [int(s) for s in args.seeds.split(",")])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
