"""The benchmark harness's own tests, run against this checkout.

The harness traces featlog functions by module and name, swaps CLI
commands, and calls the CLI and ``featlog.evaluate`` with fixed
signatures, so renaming or removing one of those names, or changing one
of those signatures, breaks a bench run; running the harness here makes
such a change fail the test suite instead of showing up only as failed
operations in a bench record.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


# The first operation of each command in each workload, run by the
# harness's own Runner; prints {workload: {command: status}}.
_RUN_ONE_OF_EACH = """
import json, run
from workloads import WORKLOADS

runner = run.Runner(run.load_featlog())
statuses = {}
for name, make in WORKLOADS.items():
    picked = {}
    for op in make(1):
        picked.setdefault(op.command, op)
    statuses[name] = {command: runner.run(op)[0] for command, op in picked.items()}
print(json.dumps(statuses))
"""


def test_bench_commands_run_against_this_checkout():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_ONE_OF_EACH],
        cwd=ROOT / "bench",
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    statuses = json.loads(done.stdout.splitlines()[-1])
    for name, by_command in statuses.items():
        assert set(by_command) == {"decide", "simplify", "entail", "witness", "evaluate"}, name
        assert set(by_command.values()) == {"ok"}, (name, by_command)


def _tracer(featlog):
    """The harness's span tracer over ``featlog``, not yet installed."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer(featlog)


@pytest.mark.parametrize(
    "text, walks",
    [
        ("exists x. (f(y, x) & (A(x) | g(x, z)))", 1),
        ("exists x. (f(y, x) & (A(x) | B(y)))", 2),
    ],
)
def test_every_normal_form_walk_is_traced(text, walks):
    """Block elimination makes every prime-DNF walk through the name the
    harness traces, ``qe.to_prime_dnf``: a block whose literals all
    mention it walks once, and one with a literal that does not walks
    twice, both traced."""
    import featlog
    import featlog.cli  # the tracer wraps the CLI's entry point too

    tracer = _tracer(featlog)
    phi = featlog.parse_formula(featlog.Symbols(), text)
    tracer.install()
    try:
        featlog.classify(phi)
    finally:
        tracer.uninstall()
    assert tracer.counts["qe.to_prime_dnf.calls"] == walks


def test_text_spans_count_a_cli_call(capsys, monkeypatch):
    """``expand_sugar`` lives in ``core`` and ``textio`` re-exports it,
    yet the harness's ``textio.expand_sugar`` and ``textio.print_formula``
    spans each count the one call a ``featlog decide`` on sugared open
    input makes."""
    import io

    import featlog
    import featlog.cli

    tracer = _tracer(featlog)
    monkeypatch.setattr(sys, "stdin", io.StringIO("A@x.f & B(y)"))
    tracer.install()
    try:
        code = featlog.cli.main(["decide", "-"])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr()
    assert tracer.counts["textio.expand_sugar.calls"] == 1
    assert tracer.counts["textio.print_formula.calls"] == 1
