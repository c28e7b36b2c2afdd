import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from featlog.cli import build_parser, main

from test_solve import _wall_limit


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


def test_entail_splits_outside_comments(tmp_path, capsys):
    """A ';' inside a comment is part of the comment; each part keeps
    its own text, so spans count from the part's start."""
    path = write(tmp_path, "A(x) & B(x) # both; see below\n; A(x)\n")
    code, out, err = run(capsys, "entail", path)
    assert (code, out, err) == (0, "ENTAILED\n", "")
    code, _, err = run(capsys, "entail", write(tmp_path, "A(x) # a;b\n; B(x) &"))
    assert (code, err) == (2, "parse error: expected a formula at 7..7\n")
    code, _, err = run(capsys, "entail", write(tmp_path, "A(x) ; B(x) ; C(x) # ;"))
    assert (code, err) == (2, "entail needs exactly two formulae separated by ';'\n")


def test_witness_json(tmp_path, capsys):
    path = write(tmp_path, "exists y. (f(x, y) & A(y))")
    code, out, _ = run(capsys, "witness", path)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"nodes", "edges", "vars"}
    assert doc["vars"] == {"x": 0}
    assert all(set(e) == {"src", "feature", "dst"} for e in doc["edges"])


def test_witness_shows_variables_the_prime_drops(tmp_path, capsys):
    """y is free in the input, but the edge from the bound x to y is
    garbage collected, so the prime does not mention y."""
    code, out, _ = run(capsys, "witness", write(tmp_path, "exists x. f(x, y)"))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 1 and doc["edges"] == []
    assert doc["vars"] == {"y": 0}


def test_witness_unsat(tmp_path, capsys):
    code, out, _ = run(capsys, "witness", write(tmp_path, "A(x) & B(x)"))
    assert code == 0 and out == "UNSATISFIABLE\n"


@pytest.mark.parametrize("command", ["witness", "entail"])
@pytest.mark.parametrize(
    "text", ["A(x) & B(x) & (C(x) | D(x))", "(C(x) | D(x)) & A(x) & B(x)"]
)
def test_disjunction_is_rejected_in_any_order(tmp_path, capsys, command, text):
    if command == "entail":
        text = f"{text} ; A(x)"
    code, out, err = run(capsys, command, write(tmp_path, text))
    assert code == 2 and out == "" and "only atoms" in err


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
    # every disjunction mentions the block, so none leaves it
    clauses = " & ".join(f"(A(x0) | B(x{i}))" for i in range(1, 13))
    path = write(tmp_path, f"exists x0. ({clauses})")
    code, _, err = run(capsys, "decide", path, "--max-dnf-clauses", "5")
    assert code == 3
    assert "resource limit" in err


def test_resource_limits_name_stage_and_size(tmp_path, capsys):
    """Open input is searched one DNF clause per branch; quantifier
    elimination names the variable it was eliminating."""
    path = write(tmp_path, "(A(x) | B(x)) & (C(x) | D(x)) & E(x)")
    assert run(capsys, "decide", path, "--max-dnf-clauses", "2") == (
        3,
        "",
        "resource limit: search exceeds 2 branches\n",
    )
    assert run(capsys, "decide", path, "--max-dnf-clauses", "4") == (0, "UNSATISFIABLE\n", "")
    # a clash among the literals every clause shares is found before
    # the search branches
    path = write(tmp_path, "(A(x) | B(x)) & (A(y) | B(y)) & C(z) & D(z)")
    assert run(capsys, "decide", path, "--max-dnf-clauses", "2") == (0, "UNSATISFIABLE\n", "")
    # a disjunction that mentions the block enters the normal form
    path = write(tmp_path, "exists x0. ((A(x0) | B(x1)) & (C(x0) | D(x1)))")
    assert run(capsys, "decide", path, "--max-dnf-clauses", "2") == (
        3,
        "",
        "resource limit: disjunctive normal form exceeds 2 clauses while eliminating x0\n",
    )
    # a block is eliminated at once and named in prefix order
    path = write(tmp_path, "exists x0, x1. ((A(x0) | B(x1)) & (C(x0) | D(x1)))")
    assert run(capsys, "decide", path, "--max-dnf-clauses", "2") == (
        3,
        "",
        "resource limit: disjunctive normal form exceeds 2 clauses while eliminating x0, x1\n",
    )


@pytest.mark.parametrize(
    "n, named",
    [
        (8, "x1, x2, x3, x4, x5, x6, x7, x8"),
        (9, "x1, x2, x3, x4, x5, x6, x7, x8 and 1 more"),
        (10000, "x1, x2, x3, x4, x5, x6, x7, x8 and 9992 more"),
    ],
)
def test_resource_limits_name_a_wide_block_by_its_first_variables(tmp_path, capsys, n, named):
    """A block of more than eight variables is named by its first eight,
    in prefix order, and how many more there are."""
    block = ", ".join(f"x{i}" for i in range(1, n + 1))
    edges = " & ".join(f"f{i}(y, x{i})" for i in range(1, n + 1))
    path = write(tmp_path, f"exists {block}. ({edges} & (A(y) | B(x1)) & (C(y) | D(x1)))")
    with _wall_limit(10.0):
        code, out, err = run(capsys, "decide", path, "--max-dnf-clauses", "2")
    assert (code, out) == (3, "")
    assert err == f"resource limit: disjunctive normal form exceeds 2 clauses while eliminating {named}\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("n", [14, 20])
@pytest.mark.parametrize("clash_first", [True, False], ids=["clash-first", "clash-last"])
def test_shared_clash_closes_the_search_at_the_root(tmp_path, capsys, n, clash_first):
    """2^n clauses all share the inconsistent C(y) & D(y); the search
    finds it once instead of once per branch."""
    choices = [f"(A(x{i}) | B(x{i}))" for i in range(n)]
    clash = ["C(y)", "D(y)"]
    parts = clash + choices if clash_first else choices + clash
    path = write(tmp_path, " & ".join(parts))
    with _wall_limit(5.0):
        assert run(capsys, "decide", path) == (0, "UNSATISFIABLE\n", "")


@pytest.mark.parametrize("n", [14, 20])
def test_shared_clash_closes_a_nested_branch(tmp_path, capsys, n):
    """Both disjuncts are inconsistent; the clash C(y) & D(y) shared by
    every clause of the first one closes its branch before it splits."""
    choices = " & ".join(f"(A(x{i}) | B(x{i}))" for i in range(n))
    path = write(tmp_path, f"X(w) & ((C(y) & D(y) & {choices}) | (E(z) & F(z)))")
    with _wall_limit(5.0):
        assert run(capsys, "decide", path) == (0, "UNSATISFIABLE\n", "")


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


def _chain_entailment(n, entailed):
    """An n-edge chain entails its existentially closed second half; an
    extra edge at the end of that half breaks the entailment."""
    lhs = [f"{'fgh'[i % 3]}(x{i}, x{i + 1})" for i in range(n)]
    seg = range(n // 2, n)
    rhs = [lhs[i] for i in seg]
    bound = [f"x{i + 1}" for i in seg]
    if not entailed:
        rhs.append(f"{'fgh'[(n + 1) % 3]}(x{n}, w)")
        bound.append("w")
    return f"{' & '.join(reversed(lhs))} ; exists {', '.join(bound)}. ({' & '.join(rhs)})"


def _sorted_chain(n):
    atoms = [f"f(x{i}, x{i + 1})" for i in range(n - 1)] + [f"A(x{i})" for i in range(n)]
    return f"exists {', '.join(f'x{i}' for i in range(1, n))}. ({' & '.join(atoms)})"


def _cycle(n, marked):
    atoms = [f"f(x{i}, x{(i + 1) % n})" for i in range(n)]
    atoms += ["A(x0)"] if marked else [f"A(x{i})" for i in range(n)]
    return f"exists {', '.join(f'x{i}' for i in range(1, n))}. ({' & '.join(atoms)})"


@pytest.mark.parametrize(
    "command, text, check",
    [
        pytest.param("entail", _chain_entailment(900, True), "ENTAILED", id="entail-chain-900"),
        pytest.param(
            "entail", _chain_entailment(900, False), "NOT-ENTAILED", id="not-entail-chain-900"
        ),
        pytest.param("witness", _cycle(400, marked=True), 400, id="witness-marked-cycle-400"),
        pytest.param("witness", _cycle(256, marked=False), 1, id="witness-uniform-cycle-256"),
        pytest.param(
            "entail",
            f"{_sorted_chain(8000)} ; {_sorted_chain(8000)}",
            "ENTAILED",
            id="entail-sorted-chain-8000",
        ),
        pytest.param(
            "entail",
            f"{_sorted_chain(7999)} ; {_sorted_chain(8000)}",
            "NOT-ENTAILED",
            id="not-entail-sorted-chain-8000",
        ),
        # a chain witness gives each bound variable its own tree, n * n / 2
        # nodes in all, so the chain is witnessed at 1,000 nodes
        pytest.param("witness", _sorted_chain(1000), 1000, id="witness-sorted-chain-1000"),
        pytest.param("witness", _cycle(8000, marked=False), 1, id="witness-uniform-cycle-8000"),
    ],
)
def test_conjunctions_at_scale(tmp_path, capsys, command, text, check):
    """Wide conjunctions are solved once, not once per atom, and the
    prime of an entailment or a witness is checked in one walk of its
    body."""
    path = write(tmp_path, text)
    with _wall_limit(10.0):
        code, out, err = run(capsys, command, path)
    assert code == 0, err
    if command == "entail":
        assert out == f"{check}\n"
    else:
        assert len(json.loads(out)["nodes"]) == check


def test_a_default_call_after_a_json_call_prints_text(tmp_path, capsys):
    path = write(tmp_path, "forall x. (A(x) | ~A(x))")
    assert run(capsys, "decide", "--format", "json", path) == (
        0,
        json.dumps({"command": "decide", "verdict": "VALID"}, indent=2, sort_keys=True) + "\n",
        "",
    )
    assert run(capsys, "decide", path) == (0, "VALID\n", "")


def test_a_bad_argument_after_a_good_call_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "A(x)")
    assert run(capsys, "decide", path)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["decide", path, "--max-dnf-clauses", "many"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: featlog decide")
    assert "invalid int value: 'many'" in err


@pytest.mark.parametrize("argv", [["--help"], ["witness", "--help"]], ids=["top", "witness"])
def test_help_matches_a_freshly_built_parser(capsys, argv):
    outputs = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        assert exc.value.code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.startswith("usage: featlog")


def test_module_entry_point_reads_standard_input():
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "featlog", "decide", "-"],
        input="forall x. (A(x) | ~A(x))",
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "VALID\n", "")


FLAT_SORTS = " & ".join(f"{'ABC'[i % 3]}(x{i})" for i in range(10000))
FAN_BLOCK = (
    f"exists {', '.join(f'x{i}' for i in range(1, 10001))}. "
    f"({' & '.join(f'f{i}(y, x{i})' for i in range(1, 10001))})"
)
TAUTOLOGY_BLOCK = f"forall {', '.join(f'x{i}' for i in range(1, 5001))}. (A(x1) | ~A(x1))"
CHAIN_BLOCK = (
    f"exists {', '.join(f'x{i}' for i in range(1, 10001))}. "
    f"({' & '.join(f'f(x{i - 1}, x{i})' for i in range(1, 10001))})"
)


def _is_chain_prime(text):
    """``exists q0, ..., q9999.`` over the 10,000 edges of a chain from x0."""
    prefix, body = text.split(". ", 1)
    return len(prefix.split(", ")) == 10000 and body.count("f(") == 10000


@pytest.mark.parametrize(
    "command, text, check",
    [
        pytest.param(
            "simplify",
            " & ".join(f"A(x{i})" for i in range(10000)),
            lambda out: sorted(out.rstrip("\n").split(" & "))
            == sorted(f"A(x{i})" for i in range(10000)),
            id="simplify-flat-10000",
        ),
        pytest.param(
            "simplify",
            " & ".join(f"x{i} = x{i + 1}" for i in range(10000)),
            lambda out: sorted(out.rstrip("\n").split(" & "))
            == sorted(f"x{i} = x10000" for i in range(10000)),
            id="simplify-eq-chain-10000",
        ),
        pytest.param(
            "witness",
            f"exists x. ({' & '.join(f'f(y{i}, x)' for i in range(10000))})",
            lambda out: json.loads(out)["vars"] == {f"y{i}": 0 for i in range(10000)}
            and len(json.loads(out)["nodes"]) == 2,
            id="witness-10000-edges",
        ),
        pytest.param(
            "decide",
            FLAT_SORTS,
            lambda out: out == f"SATISFIABLE\n{FLAT_SORTS}\n",
            id="decide-flat-10000",
        ),
        pytest.param(
            "decide",
            f"{FLAT_SORTS} & B(x0)",
            lambda out: out == "UNSATISFIABLE\n",
            id="decide-flat-clash-10000",
        ),
        pytest.param(
            "decide",
            f"forall x. ({' | '.join(['A(x)', '~A(x)'] * 2000)})",
            lambda out: out == "VALID\n",
            id="decide-4000-disjuncts",
        ),
        pytest.param(
            "witness",
            FAN_BLOCK,
            lambda out: json.loads(out)["vars"] == {"y": 0}
            and len(json.loads(out)["edges"]) == 10000,
            id="witness-10000-variable-block",
        ),
        pytest.param(
            "entail",
            f"{FAN_BLOCK} ; exists z. f5000(y, z)",
            lambda out: out == "ENTAILED\n",
            id="entail-10000-variable-block",
        ),
        pytest.param(
            "decide",
            TAUTOLOGY_BLOCK,
            lambda out: out == "VALID\n",
            id="decide-5000-variable-forall",
        ),
        pytest.param(
            "simplify",
            TAUTOLOGY_BLOCK,
            lambda out: out == "true\n",
            id="simplify-5000-variable-forall",
        ),
        pytest.param(
            "decide",
            CHAIN_BLOCK,
            lambda out: out.startswith("SATISFIABLE\n")
            and _is_chain_prime(out.removeprefix("SATISFIABLE\n")),
            id="decide-10000-variable-chain",
        ),
        pytest.param(
            "simplify",
            CHAIN_BLOCK,
            lambda out: _is_chain_prime(out),
            id="simplify-10000-variable-chain",
        ),
    ],
)
def test_wide_input_at_default_recursion_limit(tmp_path, capsys, command, text, check):
    """A flat n-atom chain and an n-variable quantifier prefix are one
    node deep, not n."""
    path = write(tmp_path, text)
    with _wall_limit(10.0):
        code, out, err = run(capsys, command, path)
    assert code == 0, err
    assert check(out)
