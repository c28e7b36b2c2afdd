"""featlog benchmark: seeded closed-loop workloads, end-to-end and per layer.

Usage, from the root of a featlog checkout:

    python3 bench/run.py --workload qe-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is one client in one process with one thread, sending its
next operation only after the previous one returned (a closed loop).
CLI commands (decide, simplify, entail, witness) run in-process through
``featlog.cli.main`` with the input on stdin, a fresh ``Symbols`` per
call as the CLI makes; bounded evaluation runs through
``featlog.evaluate`` with one long-lived ``Symbols`` per workload, as a
library session would.  The operation list ("pass") is built from the
seed before timing starts and is repeated, whole, until ``--seconds``
have passed.

Times are CPU seconds of the measuring thread in reference seconds
(``speed.py``): a speed probe runs between operations, and each
operation's CPU time is scaled by how long the probe took around it.
The host of a shared machine changes Python's speed twofold within
seconds; raw times would swing whole runs by a third.  The
per-operation limit is in reference seconds too, so the same input
passes or times out whatever the host is doing.

Every answer is checked against a result known by construction
(``checks.py``).  An operation fails on a wrong answer, exit code 2 or
3, an uncaught exception, or more than ``OP_LIMIT_S`` of CPU time.
A wrong answer, or verdicts that differ from the known ones, makes the
run exit 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half with spans around featlog's layer functions
(``spans.py``) and prints per-layer metrics per pass.  The last line of
stdout is one JSON object; the full record, with provenance, goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import check_cli, check_evaluate  # noqa: E402
from speed import speed_probe, to_reference  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

# Reference seconds; the same on every commit, so that failures compare
# across commits.
OP_LIMIT_S = 1.0
# Node budget of every bounded evaluation, as in acceptance criterion 8.
EVAL_BUDGET = 2000
# A run stops starting new operations after this long, whatever the pass.
HARD_STOP_S = 150.0
SETUP_REPEATS = 9
COMMANDS = ("decide", "simplify", "entail", "witness", "evaluate")
FAILURES = ("timeout", "resource_limit", "input_error", "wrong_answer", "exception")
DIGESTED = ("decide", "entail", "witness")


class OpTimeout(BaseException):
    """Raised from the CPU timer; a BaseException so featlog's own
    ``except`` clauses cannot swallow it."""


def load_featlog():
    """Import featlog from this checkout's src/, or exit 2."""
    if not (SRC / "featlog" / "__init__.py").is_file():
        print(f"no featlog sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import featlog
    import featlog.cli

    if Path(featlog.__file__).resolve().parent != SRC / "featlog":
        print(f"imported featlog from {featlog.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return featlog


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median reference seconds a fresh interpreter spends in ``import featlog``."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(HERE)!r}); "
        "from speed import speed_probe; speed_probe(); before = speed_probe(); "
        "t = time.thread_time(); import featlog; t = time.thread_time() - t; "
        "print(t, (before + speed_probe()) / 2)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        if i:  # the first import may compile bytecode; users pay that once
            cpu, probe = map(float, out.split())
            times.append(to_reference(cpu, probe))
    return statistics.median(times)


class Runner:
    """Runs operations one at a time and classifies each outcome.

    While an operation runs, a CPU timer interrupts it every ``SLICE_S``
    of CPU time to run the speed probe, so its reference time follows
    the host's speed changes and the limit is enforced in reference
    seconds.  The process CPU clock is not used: some kernels advance it
    in whole ticks while a CPU timer is armed.
    """

    SLICE_S = 0.05
    # Frames the harness and the timer's handler add below and above
    # featlog's own; granted back so that "nested too deeply" trips at
    # about the depth it does under the featlog command.
    HEADROOM = 40

    def __init__(self, featlog, limit_s: float = OP_LIMIT_S):
        sys.setrecursionlimit(sys.getrecursionlimit() + self.HEADROOM)
        self.featlog = featlog
        self.limit_s = limit_s
        self.session = featlog.Symbols()
        self.probe_s = speed_probe()
        self._spent = 0.0  # reference seconds of the running operation
        self._mark = 0.0  # thread time up to which _spent is counted
        signal.signal(signal.SIGPROF, self._on_slice)

    def _on_slice(self, signum, frame):
        now = time.thread_time()
        probe = speed_probe()
        self._spent += to_reference(now - self._mark, (self.probe_s + probe) / 2)
        self.probe_s = probe
        self._mark = time.thread_time()  # the probe's own time is not counted
        if self._spent >= self.limit_s:
            raise OpTimeout

    def _cli(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(op.text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.featlog.cli.main([op.command, "-"])
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def _evaluate(self, op: Op):
        kind, bound, _ = op.expect
        phi = self.featlog.parse_formula(self.session, op.text)
        return self.featlog.evaluate(
            self.session, kind, {}, phi, node_bound=bound, budget=EVAL_BUDGET
        )

    def run(self, op: Op) -> tuple[str, str | None, float]:
        """(status, verdict token, reference seconds) of one operation.

        A timeout counts as exactly the limit.
        """
        call = self._evaluate if op.command == "evaluate" else self._cli
        status = None
        self._spent = 0.0
        self._mark = time.thread_time()
        try:
            signal.setitimer(signal.ITIMER_PROF, self.SLICE_S, self.SLICE_S)
            try:
                value = call(op)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except OpTimeout:
            status = "timeout"
        except Exception:  # an uncaught exception is a counted failure
            status = "exception"
        rest = time.thread_time() - self._mark
        before = self.probe_s
        self.probe_s = speed_probe()
        elapsed = self._spent + to_reference(rest, (before + self.probe_s) / 2)
        if status == "timeout":
            return status, None, self.limit_s
        if status is not None:
            return status, None, elapsed
        if op.command == "evaluate":
            token, right = check_evaluate(op, value)
        else:
            code, out = value
            if code == 3:
                return "resource_limit", None, elapsed
            if code != 0:
                return "input_error", None, elapsed
            token, right = check_cli(op, out)
        return ("ok" if right else "wrong_answer"), token, elapsed


def expected_token(op: Op) -> str:
    return "SATISFIABLE" if op.command == "witness" else op.expect


def digest(pairs) -> str:
    h = hashlib.sha256()
    for i, token in pairs:
        h.update(f"{i}:{token}\n".encode())
    return h.hexdigest()[:16]


def tail_percentile(n: int) -> float:
    """Highest percentile on a fixed grid with at least ten of n samples
    beyond it.  Computed from the samples of one pass, so it does not
    change with the number of passes a faster commit fits in."""
    grid = [float(p) for p in range(50, 99)] + [99.0, 99.5, 99.9]
    return max((p for p in grid if n * (1 - p / 100) >= 10), default=50.0)


def percentile(xs: list[float], p: float) -> float:
    xs = sorted(xs)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Record:
    """Outcomes of the passes of one phase."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.passes = 0
        self.wall = 0.0
        self.busy = 0.0  # reference seconds inside operations
        self.attempted = 0
        self.latency: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.failures = dict.fromkeys(FAILURES, 0)
        self.failed_ops: dict[str, int] = {}  # "command family size status" -> count
        self.tokens: dict[int, str] = {}
        self.drift: list[int] = []  # ops whose verdict changed between passes
        self.stopped_early = False

    def add(self, i: int, status: str, token: str | None, seconds: float) -> None:
        op = self.ops[i]
        self.attempted += 1
        self.busy += seconds
        self.latency[op.command].append(seconds)
        if status != "ok":
            self.failures[status] += 1
            key = f"{op.command} {op.family} {op.size} {status}"
            self.failed_ops[key] = self.failed_ops.get(key, 0) + 1
        if token is not None and op.command in DIGESTED:
            if self.tokens.setdefault(i, token) != token:
                self.drift.append(i)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_phase(runner: Runner, ops: list[Op], seconds: float, deadline: float, after_pass=None, tracer=None) -> Record:
    """Whole passes over ops until `seconds` have passed (at least one)."""
    rec = Record(ops)
    start = time.perf_counter()
    while rec.passes == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            if time.perf_counter() > deadline:
                rec.stopped_early = True
                break
            status, token, elapsed = runner.run(op)
            if tracer is not None:
                tracer.end_operation()
            rec.add(i, status, token, elapsed)
        else:
            rec.passes += 1
            if after_pass is not None:
                after_pass(rec.passes)
            continue
        break
    rec.wall = time.perf_counter() - start
    return rec


def end_to_end(rec: Record, setup_s: float) -> tuple[dict, dict]:
    metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (rec.attempted / rec.busy, "1/s")}
    detail = {}
    for command in COMMANDS:
        xs = rec.latency[command]
        per_pass = sum(op.command == command for op in rec.ops)
        p = tail_percentile(per_pass)
        metrics[f"{command}_p50_ms"] = (percentile(xs, 50) * 1e3, "ms")
        metrics[f"{command}_tail_ms"] = (percentile(xs, p) * 1e3, "ms")
        detail[command] = {"samples": len(xs), "per_pass": per_pass, "tail_percentile": p}
    metrics["fail_ratio"] = (rec.failed / rec.attempted, "ratio")
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (kib / 1024, "MB")
    return metrics, detail


def per_layer(tracer, traced: Record, untraced: Record, symbols: int) -> dict:
    from spans import COUNTED_GENERATORS, TRACED

    own, top = tracer.self_times()
    # self times partition the time the top-level spans cover
    if abs(sum(own.values()) - top) > 1e-6 * max(1.0, top) + 1e-9 * len(tracer.spans):
        raise AssertionError(f"self times sum to {sum(own.values())}, spans cover {top}")
    k = traced.passes or 1
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        m[f"{name}.calls"] = (c[f"{name}.calls"] / k, "count")
        m[f"{name}.self_s"] = (own[name] / k, "s")
    for mod, fn in COUNTED_GENERATORS:
        m[f"{mod}.{fn}.calls"] = (c[f"{mod}.{fn}.calls"] / k, "count")
        m[f"{mod}.{fn}.yielded"] = (c[f"{mod}.{fn}.yielded"] / k, "count")

    def ratio(part: str, whole: str) -> float:
        return c[part] / c[whole] if c[whole] else 0.0

    for key in (
        "textio.parse_formula.chars_in",
        "solve.basic_simplify.atoms_in",
        "prime.projection.constraints_out",
        "qe.to_prime_dnf.clauses_out",
        "qe.resource_limits",
        "models.feature_tree.nodes_in",
        "models.feature_tree.nodes_out",
    ):
        m[key] = (c[key] / k, "count")
    m["solve.basic_simplify.bottom_ratio"] = (
        ratio("solve.basic_simplify.bottoms", "solve.basic_simplify.calls"), "ratio")
    m["prime.prime_conj.bottom_ratio"] = (
        ratio("prime.prime_conj.bottoms", "prime.prime_conj.calls"), "ratio")
    m["qe.is_joker.true_ratio"] = (ratio("qe.is_joker.trues", "qe.is_joker.calls"), "ratio")
    m["models.evaluate.unknown_ratio"] = (
        ratio("models.evaluate.unknowns", "models.evaluate.calls"), "ratio")
    m["core.symbols_interned"] = (symbols, "count")
    u = untraced.passes or 1
    for cause in FAILURES:
        m[f"fail.{cause}"] = (untraced.failures[cause] / u, "count")
    m["trace.overhead_ratio"] = (
        (untraced.attempted / untraced.busy) / (traced.attempted / traced.busy), "ratio")
    m["trace.span_cover"] = (top / traced.wall, "ratio")
    return m


def session_size(sym) -> int:
    return len(sym._sorts) + len(sym._feats) + len(sym._vars)


def run_workload(args) -> int:
    featlog = load_featlog()
    ops = WORKLOADS[args.workload](args.seed)
    inputs = hashlib.sha256("\n".join(f"{o.command}\t{o.text}" for o in ops).encode())
    setup_s = measure_setup()
    started = time.perf_counter()
    deadline = started + HARD_STOP_S
    runner = Runner(featlog)
    symbols: list[int] = []

    def after_pass(n: int) -> None:
        if n == 1:
            symbols.append(session_size(runner.session))

    tracer = None
    if args.trace:
        from spans import Tracer

        half = args.seconds / 2
        untraced = run_phase(runner, ops, half, deadline, after_pass)
        tracer = Tracer(featlog)
        tracer.install()
        try:
            main = run_phase(runner, ops, half, deadline, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, main, untraced, symbols[0] if symbols else session_size(runner.session))
        detail = {}
    else:
        main = untraced = run_phase(runner, ops, args.seconds, deadline, after_pass)
        metrics, detail = end_to_end(main, setup_s)

    answered = sorted(main.tokens.items())
    got = digest(answered)
    want = digest((i, expected_token(ops[i])) for i, _ in answered)
    wrong = main.failures["wrong_answer"] + untraced.failures["wrong_answer"] * (untraced is not main)
    correct = wrong == 0 and got == want and not main.drift and not untraced.drift
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "op_limit_reference_s": OP_LIMIT_S,
        "eval_budget": EVAL_BUDGET,
        "run_seconds": args.seconds,
        "inputs_sha256": inputs.hexdigest(),
        "ops_per_pass": len(ops),
        "passes": main.passes,
        "stopped_early": main.stopped_early,
        "wall_s": main.wall,
        "busy_reference_s": main.busy,
        "failures": main.failures,
        "failed_ops": main.failed_ops,
        "verdict_digest": got,
        "expected_digest": want,
        "answered": len(answered),
        "latency_detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.tsv")

    prov = {k: record[k] for k in ("workload", "seed", "python", "nproc", "op_limit_reference_s", "passes", "failures", "verdict_digest", "expected_digest")}
    print(f"# {json.dumps(prov)}")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name.endswith("_tail_ms"):
            d = detail[name[: -len("_tail_ms")]]
            extra = f"  (p{d['tail_percentile']:g} of {d['samples']} samples)"
        print(f"{args.workload:12s} {name:42s} {value:14.6g} {unit}{extra}")
    attempted = main.attempted + (untraced.attempted if untraced is not main else 0)
    failed = main.failed + (untraced.failed if untraced is not main else 0)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
