"""``tools/compare.py``: the output of two checkouts, op by op, and their
end-to-end metrics in pairs of benchmark runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARE = ROOT / "tools" / "compare.py"


def _identity(old: Path, new: Path) -> subprocess.CompletedProcess:
    """Every operation of each workload at seed 1."""
    return subprocess.run(
        [sys.executable, str(COMPARE), "identity", str(old), str(new), "--seeds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_identity_of_a_checkout_with_itself_reports_nothing():
    done = _identity(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "0 of 1964 operations differ\n"


def test_identity_reports_a_planted_residue_change(tmp_path):
    """A copy of ``src`` whose satisfiable residues are negated: every
    open ``decide`` and non-conjunctive ``simplify`` among the ops
    prints another residue, in text and in its ``--format json`` run,
    and nothing else changes."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    qe = tmp_path / "src" / "featlog" / "qe.py"
    text = qe.read_text()
    kept = "return Verdict(SATISFIABLE, residue=delta)"
    assert text.count(kept) == 1
    qe.write_text(text.replace(kept, "return Verdict(SATISFIABLE, residue=bc_not(delta))"))
    done = _identity(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    reported = [line for line in lines[:-1] if not line.startswith("  ")]
    assert reported == [
        f"solve-scale seed=1 op={i} {family}{flags}"
        for i, family in [
            (5, "simplify agree 12"), (17, "decide flat 50"), (24, "decide flat 50"),
            (34, "decide flat 50"), (42, "decide flat 100"), (44, "simplify agree 24"),
            (45, "decide flat 500"), (60, "decide flat 50"), (71, "decide flat 50"),
            (72, "decide flat 50"), (73, "decide flat 100"), (77, "decide flat 50"),
            (80, "decide flat 50"), (87, "simplify agree 160"), (101, "simplify agree 50"),
            (102, "decide flat 50"), (113, "decide flat 100"), (114, "decide flat 50"),
            (130, "decide flat 100"), (131, "decide flat 50"), (150, "decide flat 50"),
            (159, "decide flat 190"), (166, "decide flat 190"),
        ]
        for flags in ("", " --format json")
    ]
    # one stdout line under each, showing both sides
    assert all(line.startswith("  stdout: ") for line in lines[1:-1:2])
    assert lines[-1] == "46 of 1964 operations differ"


def test_bench_pairs_print_every_end_to_end_metric(tmp_path):
    """``tools/compare.py bench`` on one A/A pair of short runs, in a copy
    of this checkout so that the runs' records stay out of it: a line
    per end-to-end metric of ``BENCHMARK.json``, then the pair as JSON.
    One pair of half-second runs is noisy, so a verdict may read
    ``worse`` and the exit status be 1."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    done = subprocess.run(
        [sys.executable, str(COMPARE), "bench", str(tmp_path), str(tmp_path),
         "--workload", "models", "--seed", "1", "--pairs", "1", "--seconds", "0.5"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode in (0, 1), done.stdout + done.stderr
    lines = done.stdout.splitlines()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = [line.split() for line in lines[2:-1]]
    assert [row[0] for row in rows] == [m["name"] for m in metrics]
    for row, metric in zip(rows, metrics):
        # the last three columns: wins, bound and verdict
        assert row[-3] in ("0/1", "1/1"), row
        assert row[-2] == f"{metric['bound']:.0%}", row
        assert row[-1] in ("same", "gain", "worse", "unresolved"), row
    (pair,) = json.loads(lines[-1])["pairs"]
    for side in ("old", "new"):
        assert list(pair[side]) == [m["name"] for m in metrics]
