import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from featlog import (
    And,
    Iff,
    Not,
    Or,
    PrimeFormula,
    SolvedFormula,
    Symbols,
    classify,
    decide,
    enumerate_values,
    evaluate,
    expand_sugar,
    mk_prime_exists,
    parse_formula,
    prime_conj,
    prime_entails,
    print_formula,
    simplify_epc,
    single_node_tree,
    solved_to_formula,
    witness_prime,
)
from featlog.cli import build_parser, main
from featlog.core import free_vars
from featlog.qe import BcAnd, BcNot, BcOr, ResourceLimit

from generators import random_epc_formula, random_quantified_formula, random_solved_formula
from oracles import boolcomb_to_formula, reference_print, reference_valuation_json
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
    """A ';' inside a comment is part of the comment; a parse error in
    either part has its span counted from the start of the input."""
    path = write(tmp_path, "A(x) & B(x) # both; see below\n; A(x)\n")
    code, out, err = run(capsys, "entail", path)
    assert (code, out, err) == (0, "ENTAILED\n", "")
    code, _, err = run(capsys, "entail", write(tmp_path, "A(x) # a;b\n; B(x) &"))
    assert (code, err) == (2, "parse error: expected a formula at 19..19\n")
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


_FREE_VARIABLE_CASES = [
    "x = x",
    "exists y. x = y",
    "exists y. (f(x, y) & f(x, z))",
    "x.f = y.g & A@z.h",
]


def test_witness_vars_are_the_free_variables_of_the_input(tmp_path, capsys):
    """``vars`` names exactly the free variables of the expanded input,
    also those the prime drops or merges away, on the inputs above and
    on random conjunctions under a prefix."""
    rng = random.Random(3702)
    drawn = [print_formula(random_epc_formula(rng, Symbols())) for _ in range(200)]
    texts = _FREE_VARIABLE_CASES + drawn
    shown = 0
    for text in texts:
        code, out, _ = run(capsys, "witness", write(tmp_path, text))
        assert code == 0
        if out != "UNSATISFIABLE\n":
            free = free_vars(expand_sugar(parse_formula(Symbols(), text)))
            assert set(json.loads(out)["vars"]) == {v.name for v in free}, text
            shown += 1
    assert shown > 150, shown


def test_witness_does_not_walk_the_input_for_free_variables(tmp_path, capsys, monkeypatch):
    """The free variables come from the walk that collects the input's
    atoms: every binding of ``core.free_vars`` raises, and ``witness``
    still answers."""

    def refuse(phi):
        raise AssertionError("free_vars called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "featlog":
            for attr, value in list(vars(module).items()):
                if value is free_vars:
                    monkeypatch.setattr(module, attr, refuse)
    for text in _FREE_VARIABLE_CASES:
        code, out, err = run(capsys, "witness", write(tmp_path, text))
        assert (code, err) == (0, "") and "vars" in json.loads(out)


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


@pytest.mark.parametrize("command", ["witness", "entail"])
def test_undef_is_named_where_it_is_rejected(tmp_path, capsys, command):
    """``undef`` is an atom of the grammar, but it expands to a negation,
    so the message that rejects it names it."""
    text = "exists x. undef(x, f)"
    if command == "entail":
        text = f"{text} ; A(y)"
    assert run(capsys, command, write(tmp_path, text)) == (
        2,
        "",
        f"{command} inputs must use only atoms other than undef, '&', and 'exists'\n",
    )


def test_witness_respects_default_sort(tmp_path, capsys):
    path = write(tmp_path, "exists y. f(x, y)")
    code, out, _ = run(capsys, "witness", path, "--default-sort", "Dflt")
    assert code == 0
    doc = json.loads(out)
    assert any(n.get("sort") == "Dflt" for n in doc["nodes"])


def _trees_witness(text, default_sort=None):
    """What ``witness`` prints when every free variable gets a standalone
    tree from ``witness_prime``, written by ``json.dumps`` from the
    reference document."""
    sym = Symbols()
    phi = expand_sugar(parse_formula(sym, text))
    beta = simplify_epc(phi)
    default = sym.sort(default_sort) if default_sort else sym.fresh_sort("Default")
    val = witness_prime(beta, default)
    shown = {
        v: val[v] if v in beta.free_vars else single_node_tree(default) for v in free_vars(phi)
    }
    return json.dumps(reference_valuation_json(shown), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "text, default_sort, blocks",
    [
        pytest.param("true", None, [], id="true"),
        pytest.param("exists x. f(x, y) & A(z)", None, [1, 1], id="dropped-variable"),
        pytest.param("exists y. (f(x, y) & g(z, y))", "Dflt", [2, 2], id="default-sort"),
        pytest.param(
            "exists u, v. (f(x, u) & A(u) & f(y, v) & A(v) & A(x) & A(y) & B(z))",
            None,
            [2, 1],
            id="equal-values-share-a-block",
        ),
        pytest.param(
            "exists u. (f(x, u) & g(u, x) & A(x) & B(u) & h(y, x))", None, [2, 3], id="cycle"
        ),
    ],
)
def test_witness_is_written_as_json_dumps_writes_the_trees(
    tmp_path, capsys, text, default_sort, blocks
):
    """The witness is written straight from its pool, byte for byte as
    ``json.dumps`` writes the per-variable trees; ``blocks`` are the node
    counts of the blocks the free variables open, in name order."""
    path = write(tmp_path, text)
    flags = ["--default-sort", default_sort] if default_sort else []
    expected = _trees_witness(text, default_sort)
    assert run(capsys, "witness", path, *flags) == (0, expected + "\n", "")
    code, out, err = run(capsys, "witness", path, "--format", "json", *flags)
    assert (code, err) == (0, "")
    assert out == json.dumps(
        {"command": "witness", "verdict": "SATISFIABLE", "witness": json.loads(expected)},
        indent=2,
        sort_keys=True,
    ) + "\n"
    witness = json.loads(expected)
    starts = sorted(set(witness["vars"].values()))
    assert [b - a for a, b in zip(starts, [*starts[1:], len(witness["nodes"])])] == blocks
    if default_sort:
        assert any(n.get("sort") == default_sort for n in witness["nodes"])


def _chain_prefix(n):
    xs = ", ".join(f"x{i}" for i in range(1, n + 1))
    atoms = ["f(y, x1)"] + [f"f(x{i}, x{i + 1})" for i in range(1, n)]
    return f"exists {xs}. ({' & '.join(atoms)})"


def test_witness_time_grows_linearly_on_a_chain_prefix(tmp_path, capsys):
    """The witness of an n-variable chain prefix is one pool of n + 1
    nodes, checked in one walk and written from the pool: four times the
    chain takes about four times as long, where a tree per variable took
    sixteen times."""
    best = {}
    for n in (2000, 8000):
        path = write(tmp_path, _chain_prefix(n))
        times = []
        for _ in range(3):
            with _wall_limit(10.0):
                start = time.perf_counter()
                code, out, err = run(capsys, "witness", path)
                times.append(time.perf_counter() - start)
            assert code == 0, err
            assert len(json.loads(out)["nodes"]) == n + 1
        best[n] = min(times)
    assert best[8000] < 8 * best[2000], best


def test_parse_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "decide", write(tmp_path, "A(x"))
    assert code == 2
    assert "parse error" in err


def test_resource_limit_exit_code(tmp_path, capsys):
    # every disjunction mentions the block, so none leaves it, and the
    # one clause without a B literal, the edges from x0, is not true, so
    # the whole normal form of 4,096 clauses has to be built
    clauses = " & ".join(f"(f(x0, x{i}) | B(x{i}))" for i in range(1, 13))
    path = write(tmp_path, f"exists x0. ({clauses})")
    code, _, err = run(capsys, "decide", path, "--max-dnf-clauses", "5")
    assert code == 3
    assert "resource limit" in err


def test_true_block_only_clause_answers_under_the_clause_bound(tmp_path, capsys):
    """The whole normal form has 4,096 clauses, but the one clause whose
    literals all mention the block, ``A(x0)``, eliminates to true, so the
    block is true before the clauses with a B literal are built."""
    clauses = " & ".join(f"(A(x0) | B(x{i}))" for i in range(1, 13))
    path = write(tmp_path, f"exists x0. ({clauses})")
    assert run(capsys, "decide", path, "--max-dnf-clauses", "5") == (0, "SATISFIABLE\ntrue\n", "")


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
    "text, named",
    [
        ("forall x0. exists x0. ((A(x0) | B(x1) | C(x1)) & (C(x0) | D(x1) | A(x1)))", "x0"),
        ("forall x0. (B(x0) -> exists x0. ((A(x0) | B(x1) | C(x1)) & (C(x0) | D(x1))))", "x0"),
        ("forall x1. (A(x1) | exists x0, x1. ((A(x0) | B(x1)) & (C(x0) | D(x1))))", "x0, x1"),
        ("forall y. (A(y) -> exists x0. ((A(x0) | B(y)) & (C(x0) | D(y))))", "x0"),
    ],
)
def test_resource_limits_name_nested_blocks_as_the_input_does(tmp_path, capsys, text, named):
    """``decide`` names the variables of a block off the input's leading
    chain of blocks by the block's depth, but a block that exceeds the
    bound is named as the input spells it, also when it shadows an outer
    binder."""
    path = write(tmp_path, text)
    assert run(capsys, "decide", path, "--max-dnf-clauses", "2") == (
        3,
        "",
        f"resource limit: disjunctive normal form exceeds 2 clauses while eliminating {named}\n",
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


def _shape_counts(delta) -> dict:
    """How many nodes of the combination ``delta`` are shared (reached
    from two parents, or twice from one), negated primes with a bound
    variable, and conjunctions or disjunctions under the other kind."""
    parents: dict = {}
    counts = {"shared": 0, "negated bound prime": 0, "nested and/or": 0}
    stack = [delta]
    while stack:
        node = stack.pop()
        args = (node.arg,) if isinstance(node, BcNot) else getattr(node, "args", ())
        if isinstance(node, BcNot) and isinstance(node.arg, PrimeFormula) and node.arg.bound:
            counts["negated bound prime"] += 1
        for arg in args:
            if isinstance(node, (BcAnd, BcOr)) and isinstance(arg, (BcAnd, BcOr)):
                counts["nested and/or"] += 1
            parents[arg] = parents.get(arg, 0) + 1
            if parents[arg] == 1:
                stack.append(arg)
    counts["shared"] = sum(n > 1 for n in parents.values())
    return counts


def test_printing_from_the_dag_matches_the_formula_printer(sym):
    """``print_formula`` prints residues straight from the combination,
    and solved forms as primes with nothing bound, as the CLI does; the
    text equals what the library's conversions and the recursive
    reference printer give.  Residues come
    from random open formulae, each built over two subformulae that it
    uses more than once, one of them at times an existential
    conjunction, so that residues share nodes, negate primes with bound
    variables and nest conjunctions in disjunctions."""
    rng = random.Random(3301)
    seen = dict.fromkeys(("shared", "negated bound prime", "nested and/or"), 0)
    for _ in range(400):
        phi = random_quantified_formula(rng, sym, max_atoms=8)
        if rng.random() < 0.5:
            psi = random_quantified_formula(rng, sym, max_atoms=8)
        else:
            psi = random_epc_formula(rng, sym, max_atoms=4)
        shape = rng.choice(
            (
                Iff(phi, psi),
                Or((And((phi, psi)), Not(phi))),
                And((Or((phi, Not(psi))), Or((Not(phi), psi, phi)))),
                Or((phi, And((Not(psi), Or((psi, phi)))))),
            )
        )
        delta = decide(shape)
        assert print_formula(delta) == reference_print(boolcomb_to_formula(delta)), shape
        for name, n in _shape_counts(delta).items():
            seen[name] += n > 0
    assert min(seen.values()) > 10, seen
    for _ in range(300):
        gamma = random_solved_formula(rng, sym)
        # as given, and with its atoms out of order, as a caller may build one
        shuffled = SolvedFormula(
            tuple(rng.sample(gamma.normalizer, len(gamma.normalizer))),
            tuple(rng.sample(gamma.graph, len(gamma.graph))),
        )
        for g in (gamma, shuffled):
            want = reference_print(solved_to_formula(g))
            assert print_formula(PrimeFormula(frozenset(), g)) == want


def _nested_chain(n: int) -> str:
    """``(…(A(x0) <-> A(x1)) … <-> A(x{n-1}))``: its residue is a DAG
    of about 4n nodes whose tree unfolding doubles with every atom."""
    text = "A(x0)"
    for i in range(1, n):
        text = f"({text}) <-> A(x{i})"
    return text


# length and SHA-256 of what `featlog decide` and `simplify` printed on the
# nested chain at n = 12 when they printed through boolcomb_to_formula
NESTED_CHAIN_12 = {
    "decide": (57338, "f1bc00e5f9c0aa6cd3c261df6ad367a3275216a60ba7ae9a0caf02a3fc50344a"),
    "simplify": (57326, "511b20809fcf1d5195ea6d8f715d4132f49ff6b25bb061af71232b1a27f9ce0f"),
}


@pytest.mark.parametrize("command", ["decide", "simplify"])
def test_nested_chain_prints_or_exits_3_at_the_print_bound(tmp_path, capsys, command):
    """At n = 12 the residue prints the bytes it printed as a formula
    tree.  From n = 18 on, its text passes the print bound, and the CLI
    exits 3 at once instead of writing megabytes (at n = 20 it wrote
    14.7 MB in 35 s, and at n = 100 did not finish)."""
    code, out, err = run(capsys, command, write(tmp_path, _nested_chain(12)))
    assert (code, err) == (0, "")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == NESTED_CHAIN_12[command]
    for n in (20, 100, 200):
        with _wall_limit(5.0):
            code, out, err = run(capsys, command, write(tmp_path, _nested_chain(n)))
        assert (code, out) == (3, ""), n
        assert err == "resource limit: printing builds more than 10000000 characters\n"


def test_library_prints_the_nested_chain_under_the_print_bound():
    """``print_formula`` of the residue, and of its formula from
    ``boolcomb_to_formula``, builds each node's text once: the CLI's
    bytes at n = 12, the whole text at n = 17, and from n = 18 on it
    stops at the print bound at once (walking the unfolding, it took
    4.7 s and built 14.7 M characters at n = 20)."""
    for n in (12, 17, 18, 20, 100):
        with _wall_limit(2.0):
            delta = decide(parse_formula(Symbols(), _nested_chain(n)))
            shown = (delta, boolcomb_to_formula(delta))
            if n > 17:
                for phi in shown:
                    with pytest.raises(ResourceLimit, match="more than 10000000 characters"):
                        print_formula(phi)
                continue
            texts = [print_formula(phi) for phi in shown]
        assert texts[0] == texts[1], n
        if n == 12:
            outs = {"decide": f"SATISFIABLE\n{texts[0]}\n", "simplify": f"{texts[0]}\n"}
            for command, out in outs.items():
                data = out.encode()
                pinned = NESTED_CHAIN_12[command]
                assert (len(data), hashlib.sha256(data).hexdigest()) == pinned


def test_json_format(tmp_path, capsys):
    """One object per answer, laid out as ``json.dumps`` with ``indent=2``
    and sorted keys lays it out."""
    path = write(tmp_path, "A(x)")
    code, out, _ = run(capsys, "decide", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"command": "decide", "verdict": "SATISFIABLE", "residue": "A(x)"}
    for command, text in [
        ("decide", "A(x)"),
        ("simplify", "f(x,y) & f(x,z)"),
        ("entail", "A(x) ; B(x)"),
        ("witness", "A(x) & B(x)"),
    ]:
        code, out, _ = run(capsys, command, write(tmp_path, text), "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def _payload_of_text(command: str, text: str) -> dict:
    """The members, but ``command``, of the JSON object whose text
    output is ``text``: the witness document read back by
    ``json.loads``."""
    assert text.endswith("\n"), text
    if command == "decide":
        lines = text[:-1].split("\n")
        assert len(lines) <= 2, text
        return dict(zip(("verdict", "residue"), lines))
    if command == "simplify":
        (result,) = text[:-1].split("\n")
        return {"result": result}
    if command == "entail":
        return {"entailed": {"ENTAILED\n": True, "NOT-ENTAILED\n": False}[text]}
    if text == "UNSATISFIABLE\n":
        return {"verdict": "UNSATISFIABLE"}
    return {"verdict": "SATISFIABLE", "witness": json.loads(text)}


def test_json_output_is_json_dumps_of_the_text_output(capsys, monkeypatch):
    """Every CLI op of the benchmark's three workloads at seed 1, run in
    process on stdin: with ``--format json`` it exits and writes stderr
    as in text, and its stdout is byte for byte ``json.dumps(payload,
    indent=2, sort_keys=True)`` of the payload its text output gives."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import WORKLOADS

    def call(op, *flags):
        monkeypatch.setattr(sys, "stdin", io.StringIO(op.text))
        return run(capsys, op.command, "-", *flags)

    answered = {"decide": 0, "simplify": 0, "entail": 0, "witness": 0}
    for make in WORKLOADS.values():
        for op in make(1):
            if op.command == "evaluate":
                continue
            code, text, err = call(op)
            json_code, out, json_err = call(op, "--format", "json")
            assert (json_code, json_err) == (code, err), op
            if code != 0:
                assert out == text == "", op
                continue
            payload = {"command": op.command, **_payload_of_text(op.command, text)}
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n", op
            answered[op.command] += 1
    assert min(answered.values()) > 20, answered


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
    inputs = {
        "decide": "forall y. (f(x, y) -> exists z. (g(y, z) & A(z)))",
        # x and y share one block of the witness pool, z and w have blocks
        # of their own, and the pool numbers its blocks in set order
        "witness": "exists u, v, t. (f(x, u) & A(u) & f(y, v) & A(v) & A(x) & A(y)"
        " & g(z, x) & g(w, t) & h(t, w) & B(t) & C(w) & B(z))",
    }
    for command, text in inputs.items():
        path = tmp_path / f"{command}.fl"
        path.write_text(text, encoding="utf-8")
        outs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "featlog", command, str(path)],
                capture_output=True,
                env=env,
                check=True,
            )
            outs.add(proc.stdout)
        assert len(outs) == 1, command
    witness = json.loads(outs.pop())
    assert witness["vars"]["x"] == witness["vars"]["y"]
    assert len(set(witness["vars"].values())) == 3


def test_residue_is_byte_identical_across_hash_seeds(tmp_path):
    """The residue's conjunctions and disjunctions are found in the unique
    table by the set of their arguments, and one is built in two orders
    here; each prints in the order it was first built, never in set or
    hash order."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = write(
        tmp_path,
        "exists u. ((A(x) & B(y) & f(x, u)) | (C(z) & D(x)) | (E(u) & g(u, y)))"
        " & (D(x) & C(z) | E(y) | ~A(z)) & ~(B(x) & C(y) & D(z))",
    )
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "featlog", "decide", path],
            capture_output=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0] == b"SATISFIABLE\n(C(z) & D(x) | E(y) | ~A(z)) & ~(B(x) & C(y) & D(z))\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/path.fl")
    assert code == 2 and "cannot read" in err


def test_standard_input_is_read_after_the_host_process_has_read_it():
    """A stream already read from can no longer be reconfigured, so
    ``main`` reads it as it is, from where the host process left it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, featlog.cli as c; sys.stdin.readline(); print(c.main(['decide', '-']))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        input="first\nA(x) & B(x)\n",
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "UNSATISFIABLE\n0\n", "")


def test_input_that_is_not_utf8_exits_2(tmp_path):
    """A file that does not decode is an input error, not a crash, and
    stdin with the same bytes is the same error, whatever the locale.
    Both read universal newlines, so an error span counts the same
    characters on either."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "LANG" and not k.startswith("LC_")}
    env = dict(env, PYTHONPATH=src)
    data = b"A(x) \xff & B(x)\n"
    path = tmp_path / "latin.fl"
    path.write_bytes(data)
    for source, stdin in ((str(path), None), ("-", data)):
        done = subprocess.run(
            [sys.executable, "-m", "featlog", "decide", source],
            input=stdin,
            capture_output=True,
            env=env,
        )
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.decode() == (
            f"cannot read {source}: 'utf-8' codec can't decode byte 0xff in position 5: "
            "invalid start byte\n"
        )
    path.write_bytes(b"A(x) &\r\n\r\n")
    errors = [
        subprocess.run(
            [sys.executable, "-m", "featlog", "decide", source],
            input=stdin,
            capture_output=True,
            env=env,
        ).stderr
        for source, stdin in ((str(path), None), ("-", path.read_bytes()))
    ]
    assert errors == [b"parse error: expected a formula at 8..8\n"] * 2


@pytest.mark.parametrize("source", ["file", "stdin", "stream"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, monkeypatch, source):
    """A UTF-8 byte-order mark at the start of a file, of stdin, or of
    an in-process text stream put in place of stdin, as some editors
    write one, is not part of the input: the formula decides as it does
    without one, and spans count from after it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "LANG" and not k.startswith("LC_")}
    env = dict(env, PYTHONPATH=src)
    outcomes = []
    for text in ("A(x) & B(x)\n", "A(x) &"):
        data = b"\xef\xbb\xbf" + text.encode()
        if source == "stream":
            monkeypatch.setattr(sys, "stdin", io.StringIO(data.decode()))
            code, out, err = run(capsys, "decide", "-")
            outcomes.append((code, out.encode(), err.encode()))
            continue
        path = tmp_path / "bom.fl"
        path.write_bytes(data)
        stdin = data if source == "stdin" else None
        done = subprocess.run(
            [sys.executable, "-m", "featlog", "decide", "-" if source == "stdin" else str(path)],
            input=stdin,
            capture_output=True,
            env=env,
            timeout=60,
        )
        outcomes.append((done.returncode, done.stdout, done.stderr))
    assert outcomes == [
        (0, b"UNSATISFIABLE\n", b""),
        (2, b"", b"parse error: expected a formula at 6..6\n"),
    ]


@pytest.mark.parametrize(
    "text, atoms",
    [
        pytest.param("(" * 300 + "A(x)" + ")" * 300, 1, id="300-parentheses"),
        pytest.param(
            " & (".join(f"A(x{i})" for i in range(240)) + ")" * 239, 240, id="240-deep-and"
        ),
    ],
)
def test_nesting_at_default_recursion_limit(tmp_path, capsys, text, atoms):
    """The parser spends three frames per parenthesis level, so real
    nesting a few hundred levels deep still decides."""
    code, out, err = run(capsys, "decide", write(tmp_path, text))
    assert code == 0, err
    verdict, residue = out.splitlines()
    assert verdict == "SATISFIABLE" and residue.count("A(x") == atoms


def test_chain_negative_decides_in_linear_time(tmp_path, capsys):
    """The joker check places the negative's n-node chain on the
    positive's in one walk; the path from x1 is pinned by y, so the
    negative is subtracted."""
    n = 4000
    xs = ", ".join(f"x{i}" for i in range(1, n + 1))
    zs = ", ".join(f"z{i}" for i in range(1, n + 1))
    pos = ["f(y, x1)"] + [f"f(x{i}, x{i + 1})" for i in range(1, n)]
    neg = ["f(x1, z1)"] + [f"f(z{i}, z{i + 1})" for i in range(1, n)] + [f"A(z{n})"]
    text = f"exists {xs}. ({' & '.join(pos)} & ~(exists {zs}. ({' & '.join(neg)})))"
    path = write(tmp_path, text)
    with _wall_limit(5.0):
        code, out, err = run(capsys, "decide", path)
    assert code == 0, err
    verdict, residue = out.splitlines()
    assert verdict == "SATISFIABLE"
    assert residue.count("~(exists") == 1 and f"A(q{n})" in residue


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
        # a chain witness is one pool of n nodes, checked in one walk, and
        # only the free variable's tree is written
        pytest.param("witness", _sorted_chain(1000), 1000, id="witness-sorted-chain-1000"),
        pytest.param("witness", _sorted_chain(8000), 8000, id="witness-sorted-chain-8000"),
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


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_a_bound_below_one_is_a_usage_error(tmp_path, capsys, bound):
    path = write(tmp_path, "A(x)")
    assert run(capsys, "decide", path, "--max-dnf-clauses", bound) == (
        2,
        "",
        "--max-dnf-clauses must be positive\n",
    )


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


def test_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    """Everything a call allocates is freed by reference counting when it
    returns: a recursive inner function deletes itself first, so with the
    collector off a collection after each call finds nothing.  The CLI
    writes ``--format json`` without the standard library's indenting
    encoder, whose closures refer to each other on every call."""
    sym = Symbols()

    def formula(text):
        return expand_sugar(parse_formula(sym, text))

    def cli(command, text, *options, expect=0):
        def call():
            code, _, err = run(capsys, command, write(tmp_path, text), *options)
            assert code == expect, err
        return call

    x, A, f = sym.var("x"), sym.sort("A"), sym.feat("f")
    beta = simplify_epc(formula("exists y. (f(x, y) & A(y))"))
    beta2 = simplify_epc(formula("exists z. f(x, z)"))
    loop = simplify_epc(formula("f(x, x)"))
    over_bound = decide(formula(_nested_chain(18)))

    def print_over_bound():
        with pytest.raises(ResourceLimit):
            print_formula(over_bound)

    calls = {
        "decide closed": cli(
            "decide", "forall x. ((exists y. (f(x, y) & A(y))) -> (exists z. (A(z) & f(x, z))))"
        ),
        "decide closed, block-only clauses": cli(
            "decide", "forall x. exists y. ((f(x, y) | A(x)) & (B(y) | ~A(x)))"
        ),
        "decide open": cli("decide", "(exists y. (f(x, y) & A(y))) | B(x)"),
        "decide resource limit": cli(
            "decide",
            "exists y. ((A(y) | B(y)) & (f(x, y) | g(y, x)))",
            "--max-dnf-clauses",
            "1",
            expect=3,
        ),
        "decide parse error": cli("decide", "A(x) &", expect=2),
        "decide print limit": cli("decide", _nested_chain(18), expect=3),
        "simplify solved": cli("simplify", "x.f = y.g"),
        "simplify residue": cli("simplify", "A(x) | exists y. f(x, y)"),
        "entail": cli("entail", "exists y. (f(x, y) & A(y)) ; exists z. f(x, z)"),
        "witness": cli("witness", "exists y. (f(x, y) & A(y))"),
        "witness json": cli("witness", "exists y. (f(x, y) & A(y))", "--format", "json"),
        "decide json": cli("decide", "(exists y. (f(x, y) & A(y))) | B(x)", "--format", "json"),
        "simplify json": cli("simplify", "A(x) | exists y. f(x, y)", "--format", "json"),
        "entail json": cli(
            "entail", "exists y. (f(x, y) & A(y)) ; exists z. f(x, z)", "--format", "json"
        ),
        "classify": lambda: classify(formula("forall x. exists y. (f(x, y) | A(x))")),
        "simplify_epc": lambda: simplify_epc(formula("exists y, z. (f(x, y) & f(x, z))")),
        "prime_conj": lambda: prime_conj(beta, beta2, loop),
        "mk_prime_exists": lambda: mk_prime_exists([x], beta),
        "prime_entails": lambda: prime_entails(beta, beta2),
        "evaluate": lambda: evaluate(
            sym, "tree", {x: single_node_tree(A)}, formula("(exists y. f(x, y)) | A(x)")
        ),
        "witness_prime": lambda: witness_prime(beta, A),
        "print_formula print limit": print_over_bound,
        "enumerate_values": lambda: list(enumerate_values("tree", [A], [f], 2)),
    }
    for call in calls.values():
        call()  # first calls fill caches that outlive them
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()
