import json

from featlog.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, text):
    p = tmp_path / "input.fl"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_decide_closed_invalid(tmp_path, capsys):
    path = write(tmp_path, "exists x. (A(x) & B(x))")
    code, out, _ = run(capsys, "decide", path)
    assert code == 0
    assert out == "INVALID\n"


def test_decide_closed_valid(tmp_path, capsys):
    path = write(tmp_path, "exists x, y, z. (f(x,y) & A(y) & g(x,z) & B(z))")
    code, out, _ = run(capsys, "decide", path)
    assert code == 0
    assert out == "VALID\n"


def test_decide_open_formulae(tmp_path, capsys):
    code, out, _ = run(capsys, "decide", write(tmp_path, "A(x) & B(x)"))
    assert code == 0 and out == "UNSATISFIABLE\n"
    code, out, _ = run(capsys, "decide", write(tmp_path, "A(x)"))
    assert code == 0
    assert out.splitlines() == ["SATISFIABLE", "A(x)"]


def test_simplify_golden(tmp_path, capsys):
    code, out, _ = run(capsys, "simplify", write(tmp_path, "f(x,y) & f(x,z)"))
    assert code == 0
    assert out == "y = z & f(x, z)\n"


def test_simplify_non_conjunctive_prints_residue(tmp_path, capsys):
    code, out, _ = run(capsys, "simplify", write(tmp_path, "A(x) | A(x)"))
    assert code == 0
    assert out == "A(x)\n"


def test_entail(tmp_path, capsys):
    path = write(tmp_path, "A(x) & f(x, y) ; exists z. f(x, z)")
    code, out, _ = run(capsys, "entail", path)
    assert code == 0 and out == "ENTAILED\n"
    path = write(tmp_path, "A(x) ; B(x)")
    code, out, _ = run(capsys, "entail", path)
    assert code == 0 and out == "NOT-ENTAILED\n"


def test_entail_arity_error(tmp_path, capsys):
    code, _, err = run(capsys, "entail", write(tmp_path, "A(x)"))
    assert code == 2 and err


def test_witness_json(tmp_path, capsys):
    path = write(tmp_path, "exists y. (f(x, y) & A(y))")
    code, out, _ = run(capsys, "witness", path)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"nodes", "edges", "vars"}
    assert doc["vars"] == {"x": 0}
    assert all(set(e) == {"src", "feature", "dst"} for e in doc["edges"])


def test_witness_unsat(tmp_path, capsys):
    code, out, _ = run(capsys, "witness", write(tmp_path, "A(x) & B(x)"))
    assert code == 0 and out == "UNSATISFIABLE\n"


def test_witness_respects_default_sort(tmp_path, capsys):
    path = write(tmp_path, "exists y. f(x, y)")
    code, out, _ = run(capsys, "witness", path, "--default-sort", "Dflt")
    assert code == 0
    doc = json.loads(out)
    assert any(n.get("sort") == "Dflt" for n in doc["nodes"])


def test_parse_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "decide", write(tmp_path, "A(x"))
    assert code == 2
    assert "parse error" in err


def test_resource_limit_exit_code(tmp_path, capsys):
    clauses = " & ".join(f"(A(x{i}) | B(x{i}))" for i in range(12))
    path = write(tmp_path, f"exists x0. ({clauses})")
    code, _, err = run(capsys, "decide", path, "--max-dnf-clauses", "5")
    assert code == 3
    assert "resource limit" in err


def test_json_format(tmp_path, capsys):
    path = write(tmp_path, "A(x)")
    code, out, _ = run(capsys, "decide", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"command": "decide", "verdict": "SATISFIABLE", "residue": "A(x)"}


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "exists y. (f(x, y) & A(y) & g(y, z))")
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "witness", path)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_output_is_deterministic_across_processes(tmp_path):
    """Byte-identical output under different hash seeds."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = write(
        tmp_path,
        "forall y. (f(x, y) -> exists z. (g(y, z) & A(z)))",
    )
    outs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "featlog", "decide", path],
            capture_output=True,
            env=env,
            check=True,
        )
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_missing_file(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/path.fl")
    assert code == 2 and "cannot read" in err


def test_pathological_nesting_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "~" * 100000 + "A(x)")
    code, _, err = run(capsys, "decide", path)
    assert code == 2 and "nested too deeply" in err
