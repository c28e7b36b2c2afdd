import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path as FilePath

import pytest

from featlog import (
    Agree,
    Atomic,
    Eq,
    Excl,
    FeatC,
    FeatureGraph,
    FeatureTree,
    Path,
    PrimeFormula,
    Reach,
    SolvedClause,
    SolvedFormula,
    SortAt,
    SortC,
    SugarAgree,
    VarId,
    decide,
    evaluate,
    expand_sugar,
    feature_graph,
    feature_tree,
    parse_formula,
    satisfies_prime,
    simplify_epc,
    single_node_tree,
    tree_subtree,
    valuation_to_json,
    value_to_json,
    witness_prime,
)
from featlog.core import EPS, Exists, Forall, conj, exists_all
from featlog.models import (
    enumerate_values,
    pool_satisfies,
    walk_value,
    witness_pool,
    witness_to_json,
    witness_to_json_text,
)
from featlog.solve import clause_to_formula

from generators import (
    forall_all,
    pools,
    random_model_prime,
    random_prime,
    random_tree_value,
    random_valuation,
)
from oracles import (
    bc_quantifier_free,
    bounded_evaluate,
    holds_path_constraint,
    naive_bisimilarity,
    naive_reachable,
    projection_satisfies,
    witness_solved_clause,
)
from test_solve import _wall_limit, fig2_clause

TESTS = str(FilePath(__file__).resolve().parent)
SRC = str(FilePath(TESTS).parent / "src")


def test_subtree_identity_and_missing_edge(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    t = single_node_tree(A)
    assert tree_subtree(t, EPS) == t
    assert tree_subtree(t, Path((f,))) is None


def test_subtree_of_cyclic_tree(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    t = feature_tree(0, {0: A}, {(0, f): 0})
    assert tree_subtree(t, Path((f, f, f))) == t


def test_tree_values_are_minimized(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    # a two-node cycle unfolds to the same tree as a self loop
    two = feature_tree(0, {0: A, 1: A}, {(0, f): 1, (1, f): 0})
    one = feature_tree(0, {0: A}, {(0, f): 0})
    assert two == one
    assert len(two.labels) == 1


def test_tree_minimization_agrees_with_naive_bisimilarity(sym):
    """Random labeled deterministic graphs, cycles included: a tree value
    has one node per bisimilarity class reachable from its root, and two
    roots give the same tree exactly when they are bisimilar."""
    rng = random.Random(33)
    sorts = [sym.sort("A"), sym.sort("B")]
    feats = [sym.feat("f"), sym.feat("g")]
    for _ in range(300):
        k = rng.randint(1, 8)
        labels = {i: rng.choice(sorts) for i in range(k)}
        edges = {(i, f): rng.randrange(k) for i in range(k) for f in feats if rng.random() < 0.6}
        bisimilar = naive_bisimilarity(labels, edges)
        trees = [feature_tree(r, labels, edges) for r in range(k)]
        for r in range(k):
            reach = naive_reachable(r, edges)
            classes = {frozenset(b for b in reach if (a, b) in bisimilar) for a in reach}
            assert len(trees[r].labels) == len(classes)
            for r2 in range(k):
                assert (trees[r] == trees[r2]) == ((r, r2) in bisimilar)


def test_tree_requires_total_labels(sym):
    f = sym.feat("f")
    with pytest.raises(ValueError):
        feature_tree(0, {0: sym.sort("A"), 1: None}, {(0, f): 1})


def test_witness_self_loop(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x = sym.var("x")
    delta = SolvedClause.from_atoms([SortC(A, x), FeatC(x, f, x)])
    val = witness_solved_clause(delta, {}, sym.fresh_sort("D"))
    t = val[x]
    assert len(t.labels) == 1 and t.labels[0] == A
    assert walk_value(t, Path((f,))) == t
    assert bounded_evaluate(sym, "tree", val, clause_to_formula(delta)) is True


def test_witness_single_sort(sym):
    A = sym.sort("A")
    x = sym.var("x")
    delta = SolvedClause.from_atoms([SortC(A, x)])
    val = witness_solved_clause(delta, {}, sym.fresh_sort("D"))
    assert val[x] == single_node_tree(A)


def test_witness_requires_parameter_trees(sym):
    f = sym.feat("f")
    x, y = sym.var("x"), sym.var("y")
    delta = SolvedClause.from_atoms([FeatC(x, f, y)])
    with pytest.raises(ValueError):
        witness_solved_clause(delta, {}, sym.fresh_sort("D"))


def test_witness_for_the_cyclic_example(sym):
    clause = fig2_clause(sym)
    x, y, z = sym.var("x"), sym.var("y"), sym.var("z")
    f, g, h = sym.feat("f"), sym.feat("g"), sym.feat("h")
    A0 = sym.sort("Azero")
    params = {y: single_node_tree(A0), z: single_node_tree(A0)}
    val = witness_solved_clause(clause, params, sym.fresh_sort("D"))
    assert bounded_evaluate(sym, "tree", val, clause_to_formula(clause)) is True
    tx = val[x]
    # no h edge at the root, C at f, A at g, B at g.h, and no f under g
    assert walk_value(tx, Path((h,))) is None
    assert walk_value(tx, Path((f,))).labels[0] == sym.sort("C")
    assert walk_value(tx, Path((g,))).labels[0] == sym.sort("A")
    assert walk_value(tx, Path((g, h))).labels[0] == sym.sort("B")
    assert walk_value(tx, Path((g, f))) is None
    # the f.h cycle returns to the value of x
    assert walk_value(tx, Path((f, h))) == tx


def test_witness_soundness_on_random_clauses(sym):
    from generators import random_solved_clause

    rng = random.Random(30)
    default = sym.fresh_sort("D")
    for _ in range(100):
        delta = random_solved_clause(rng, sym, max_vars=6)
        params = {
            y: random_tree_value(rng, sym)
            for y in delta.variables - set().union(
                {a.var for a in delta.atoms if isinstance(a, (SortC, Excl))},
                {a.src for a in delta.atoms if isinstance(a, FeatC)},
            )
        }
        val = witness_solved_clause(delta, params, default)
        assert bounded_evaluate(sym, "tree", val, clause_to_formula(delta)) is True


def test_witness_prime_examples(sym):
    A = sym.sort("A")
    x, y = sym.var("x"), sym.var("y")
    default = sym.fresh_sort("D")
    beta = PrimeFormula(frozenset(), SolvedFormula((), (SortC(A, x),)))
    assert witness_prime(beta, default)[x] == single_node_tree(A)
    beta = PrimeFormula(frozenset(), SolvedFormula((Eq(x, y),), (SortC(A, y),)))
    val = witness_prime(beta, default)
    assert val[y] == single_node_tree(A)
    assert val[x] == val[y]
    from featlog import TOP_PRIME

    assert witness_prime(TOP_PRIME, default) == {}


def test_evaluate_atoms(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x = sym.var("x")
    t = single_node_tree(A)
    assert evaluate(sym, "tree", {x: t}, Atomic(SortC(A, x))) is True
    assert evaluate(sym, "tree", {x: t}, Atomic(FeatC(x, f, x))) is False
    assert evaluate(sym, "tree", {x: t}, Atomic(Excl(x, f))) is True
    bare = feature_graph(0, {0: None}, {})
    assert evaluate(sym, "graph", {x: bare}, Atomic(SortC(A, x))) is False


def test_evaluate_leaves_the_session_unchanged(sym):
    A = sym.sort("A")
    # sugar expansion, the conjunction under the quantifiers and their
    # elimination all introduce variables
    text = "forall y. exists z. (z.h = y.eps & B @ z.g & undef(z, f) & ~A(z))"
    phi = parse_formula(sym, text)
    tables = (dict(sym._sorts), dict(sym._feats), dict(sym._vars))
    for _ in range(200):
        for kind in ("tree", "graph"):
            assert evaluate(sym, kind, {}, phi) is True
    assert (sym._sorts, sym._feats, sym._vars) == tables
    assert sym.sort("A") is A


def test_evaluate_does_not_capture_minted_names(sym):
    """Free variables spelled like the names sugar expansion mints are
    never captured by the expansion's binders."""
    A, f = sym.sort("A"), sym.feat("f")
    x = sym.var("x")
    y1, y2, z1 = VarId("_y1"), VarId("_y2"), VarId("_z1")
    leaf = single_node_tree(A)
    loop = feature_tree(0, {0: A}, {(0, f): 0})
    chain = feature_tree(0, {0: A, 1: A}, {(0, f): 1})
    excl = Atomic(Excl(y1, f))
    # a minted spelling bound by a quantifier, with sugar below it whose
    # own binder is _y1 again, shadowing the free _y1 it does not mention
    bound = Exists((y2,), conj([Atomic(FeatC(y1, f, y2)), Atomic(Excl(y2, f))]))
    # the right-hand root is spelled like the meet would be: x.f = _z1
    agree = SugarAgree(x, Path((f,)), z1, EPS)
    cases = [
        ({y1: leaf}, excl, True),
        ({y1: loop}, excl, False),
        ({y1: chain}, bound, True),
        ({y1: loop}, bound, False),
        ({x: chain, z1: leaf}, agree, True),
        ({x: chain, z1: loop}, agree, False),
        ({x: loop, z1: loop}, agree, True),
    ]
    definite = 0
    for alpha, phi, want in cases:
        assert evaluate(sym, "tree", alpha, phi) is want
        oracle = bounded_evaluate(sym, "tree", alpha, phi, node_bound=2)
        assert oracle in (want, None)
        definite += oracle is not None
    # only the loop under the quantifier has no small counterexample
    assert definite == len(cases) - 1


def test_evaluate_quantifiers_three_valued(sym):
    """The bounded oracle is sound and three-valued; exact evaluation
    answers where the oracle's search stays inconclusive."""
    A, B = sym.sort("A"), sym.sort("B")
    x, y = sym.var("x"), sym.var("y")
    t = single_node_tree(A)
    # a witness exists among the small candidates
    phi = Exists((y,), Atomic(Eq(x, y)))
    assert bounded_evaluate(sym, "tree", {x: t}, phi, node_bound=2) is True
    assert evaluate(sym, "tree", {x: t}, phi) is True
    # no counterexample can prove a universal
    phi = Forall((y,), Atomic(SortC(A, y)))
    assert bounded_evaluate(sym, "tree", {}, phi, node_bound=2) is False
    assert evaluate(sym, "tree", {}, phi) is False
    phi = Forall((y,), Exists((x,), Atomic(Eq(x, y))))
    assert bounded_evaluate(sym, "tree", {x: t}, phi, node_bound=1, budget=50) is None
    assert evaluate(sym, "tree", {x: t}, phi) is True
    # unsatisfiable matrix: the search is inconclusive, never positive
    phi = Exists((y,), conj([Atomic(SortC(A, y)), Atomic(SortC(B, y))]))
    assert bounded_evaluate(sym, "tree", {}, phi, node_bound=2) is None
    assert evaluate(sym, "tree", {}, phi) is False


def test_exact_evaluation_agrees_with_the_bounded_oracle(sym):
    """Exact evaluation equals every definite answer of the bounded
    search, over trees and graphs, and is never unknown on them."""
    from featlog import free_vars
    from generators import random_quantified_formula

    rng = random.Random(32)
    # each formula also goes under a block of two or more of its free
    # variables, drawn apart so the formulae stay the same
    blocks = random.Random(33)
    quantified = {"tree": 0, "graph": 0}
    blocked = 0
    for i in range(1000):
        kind = ("tree", "graph")[i % 2]
        phi = random_quantified_formula(rng, sym, max_atoms=8, max_quants=3, n_vars=4)
        fv = sorted(free_vars(phi))
        alpha = random_valuation(rng, sym, fv, kind, max_nodes=2)
        want = bounded_evaluate(sym, kind, alpha, phi, node_bound=2, budget=500)
        if want is not None:
            assert evaluate(sym, kind, alpha, phi) is want, (kind, phi, alpha)
            quantified[kind] += "exists" in str(phi) or "forall" in str(phi)
        if len(fv) < 2:
            continue
        xs = blocks.sample(fv, blocks.randint(2, len(fv)))
        psi = blocks.choice((exists_all, forall_all))(xs, phi)
        want = bounded_evaluate(sym, kind, alpha, psi, node_bound=2, budget=500)
        if want is not None:
            assert evaluate(sym, kind, alpha, psi) is want, (kind, psi, alpha)
            blocked += 1
    assert quantified["tree"] > 100 and quantified["graph"] > 100
    assert blocked > 100


def test_evaluate_is_unknown_only_past_the_clause_bound(sym):
    """Eliminating x from fourteen disjunctions that all mention it
    exceeds the normal form's clause bound (2^14 clauses): evaluation
    gives up at once instead of searching."""
    ys = [f"y{i}" for i in range(1, 15)]
    links = " & ".join(f"(A(x) | f(x, {y}))" for y in ys)
    phi = parse_formula(sym, f"forall {', '.join(ys)}. exists x. ({links})")
    with _wall_limit(1.0):
        assert evaluate(sym, "tree", {}, phi) is None
        assert evaluate(sym, "graph", {}, phi) is None


def test_evaluate_judges_each_node_of_a_shared_residue_once(sym):
    """``decide`` returns the nested chain ``((A(x0) <-> A(x1)) <-> ...)
    <-> A(xn)`` as a DAG whose two sides share each level, so its tree
    unfolding doubles per level; at n = 30 only a walk that judges each
    node once answers in time, and so does the oracle that checks the
    residue is quantifier-free."""
    n = 30
    A, B = sym.sort("A"), sym.sort("B")
    xs = [sym.var(f"x{i}") for i in range(n + 1)]
    text = "A(x0)"
    for i in range(1, n + 1):
        text = f"({text}) <-> A(x{i})"
    phi = parse_formula(sym, text)
    with _wall_limit(1.0):
        assert bc_quantifier_free(decide(expand_sugar(phi)))
    rng = random.Random(2601)
    answers = Counter()
    for _ in range(6):
        sorts = [rng.choice((A, B)) for _ in xs]
        want = sorts[0] == A
        for s in sorts[1:]:
            want = want == (s == A)
        alpha = {x: single_node_tree(s) for x, s in zip(xs, sorts)}
        with _wall_limit(1.0):
            assert evaluate(sym, "tree", alpha, phi) is want
        answers[want] += 1
    assert answers[True] and answers[False]


def test_oracle_consistency_on_labeled_graphs(sym):
    """Tree and graph evaluation agree on quantifier-free formulae.

    The graphs must be totally labeled and in minimal form, since graph
    values are finer than tree values: a two-node cycle and a self loop
    with the same label are distinct graphs but the same tree, so a
    valuation separating them as graphs has no tree counterpart.  Trees
    converted to graphs node for node are minimal by construction.
    """
    rng = random.Random(31)
    from generators import random_basic_formula, random_tree_value

    for _ in range(80):
        basic = random_basic_formula(rng, sym, max_atoms=6)
        phi = conj(Atomic(a) for a in basic.atoms)
        tree_val = {v: random_tree_value(rng, sym) for v in basic.variables}
        graph_val = {}
        for v, t in tree_val.items():
            labels = dict(enumerate(t.labels))
            edges = {(i, f): j for i, row in enumerate(t.edges) for f, j in row}
            graph_val[v] = feature_graph(0, labels, edges)
        assert evaluate(sym, "graph", graph_val, phi) == evaluate(
            sym, "tree", tree_val, phi
        )


def _as_graph(t: FeatureTree) -> FeatureGraph:
    edges = {(i, f): j for i, row in enumerate(t.edges) for f, j in row}
    return feature_graph(0, dict(enumerate(t.labels)), edges)


def test_one_walk_satisfaction_agrees_with_the_projection(sym):
    """``satisfies_prime`` against the truth of every projection member,
    on witnesses, witnesses read as graphs, witnesses with one value
    redrawn, and random tree and graph valuations, some with one value
    shared by every variable."""
    rng = random.Random(142)
    default = sym.fresh_sort("D")
    seen = Counter()
    for _ in range(300):
        beta = random_prime(rng, sym, max_atoms=rng.randint(1, 10), n_vars=rng.randint(2, 7))
        witness = witness_prime(beta, default)
        free = sorted(beta.free_vars)
        valuations = [witness, {v: _as_graph(witness[v]) for v in free}]
        for v in free[:2]:
            valuations.append({**witness, v: random_tree_value(rng, sym, n_sorts=2, n_feats=2)})
        for kind in ("tree", "graph"):
            for sorts in (1, 3):
                valuations.append(random_valuation(rng, sym, free, kind, n_sorts=sorts))
            # one shared value, so that paths of distinct variables meet
            shared = random_valuation(rng, sym, free[:1], kind, max_nodes=4, n_sorts=1, n_feats=2)
            valuations.append(dict.fromkeys(free, *shared.values()))
        for alpha in valuations:
            got = satisfies_prime(alpha, beta)
            assert got == projection_satisfies(alpha, beta), (str(beta), alpha)
            kind = "graph" if any(isinstance(a, FeatureGraph) for a in alpha.values()) else "tree"
            seen[kind, got] += 1
    assert sum(seen.values()) >= 2000
    assert min(seen.values()) > 100, seen


def test_one_walk_satisfaction_agrees_with_the_projection_on_large_primes(sym):
    """``satisfies_prime`` against the projection on primes of 50 to 100
    atoms read off random graphs: under that graph, with one node's sort
    changed, one edge removed or one edge retargeted, with one value
    swapped for another variable's or redrawn, and under the prime's
    witness trees and their graphs."""
    rng = random.Random(145)
    sorts = pools(sym)[0]
    default = sym.fresh_sort("D")
    seen = Counter()
    for _ in range(40):
        beta, labels, edges, node = random_model_prime(rng, sym)
        free = sorted(beta.free_vars)

        def rooted(labels, edges):
            return {v: feature_graph(node[v], labels, edges) for v in free}

        model = rooted(labels, edges)
        sorted_node = rng.choice([i for i, s in labels.items() if s is not None])
        other_sort = rng.choice([s for s in sorts if s != labels[sorted_node]])
        resorted = {**labels, sorted_node: other_sort}
        edge = rng.choice(list(edges))
        witness = witness_prime(beta, default)
        v, w = rng.choice(free), rng.choice(free)
        valuations = [
            model,
            rooted(resorted, edges),
            rooted(labels, {e: dst for e, dst in edges.items() if e != edge}),
            rooted(labels, {**edges, edge: rng.randrange(len(labels))}),
            {**model, v: model[w]},
            {**model, v: random_valuation(rng, sym, [v], "graph", max_nodes=6)[v]},
            witness,
            {x: _as_graph(witness[x]) for x in free},
        ]
        for alpha in valuations:
            got = satisfies_prime(alpha, beta)
            assert got == projection_satisfies(alpha, beta), (str(beta), alpha)
            seen[got] += 1
        seen["large"] += 50 <= len(beta.body.atoms) <= 100
    assert seen[True] > 100 and seen[False] > 100, seen
    assert seen["large"] > 30, seen


def test_pool_walk_agrees_with_the_tree_walk(sym):
    """``pool_satisfies`` compares pool nodes where ``satisfies_prime``
    compares trees: on the pool of one prime and its trees, both give
    the same answer for the prime itself and for random other primes."""
    rng = random.Random(143)
    default = sym.fresh_sort("D")
    seen = Counter()
    for _ in range(300):
        beta = random_prime(rng, sym, max_atoms=rng.randint(1, 10), n_vars=rng.randint(2, 7))
        pool = witness_pool(beta, default)
        trees = witness_prime(beta, default)
        assert trees.keys() == pool.node.keys()
        assert pool_satisfies(pool, beta)
        for _ in range(3):
            other = random_prime(rng, sym, max_atoms=rng.randint(1, 6), n_vars=rng.randint(2, 7))
            if other.free_vars <= pool.node.keys():
                got = pool_satisfies(pool, other)
                assert got == satisfies_prime(trees, other), (str(beta), str(other))
                seen[got] += 1
    assert min(seen[True], seen[False]) > 50, seen


def test_witness_text_is_json_dumps_of_the_trees(sym):
    """Written straight from the pool, a witness is byte for byte
    ``json.dumps(valuation_to_json(trees), indent=2, sort_keys=True)``
    of standalone trees from ``witness_prime``, also when a shown
    variable is one the prime drops and when values are equal."""
    rng = random.Random(144)
    default = sym.fresh_sort("D")
    dropped = sym.var("y")
    shared = 0
    for _ in range(300):
        beta = random_prime(rng, sym, max_atoms=rng.randint(1, 12), n_vars=rng.randint(1, 7))
        pool = witness_pool(beta, default)
        trees = witness_prime(beta, default)
        shown = beta.free_vars | {dropped}
        roots = {v: pool.node[v] if v in beta.free_vars else pool.leaf for v in shown}
        leaf = single_node_tree(default)
        values = {v: trees[v] if v in beta.free_vars else leaf for v in shown}
        doc = valuation_to_json(values)
        assert witness_to_json(pool, roots) == doc
        assert witness_to_json_text(pool, roots) == json.dumps(doc, indent=2, sort_keys=True)
        shared += len(set(roots.values())) < len(roots)
    assert shared > 30, shared


def test_path_constraints_agree_with_walked_subvalues(sym):
    """Comparing end nodes inside a tree matches comparing re-rooted values."""
    rng = random.Random(44)
    sorts, feats, vs = pools(sym, n_sorts=2, n_feats=2, n_vars=3)
    agreed = 0
    for _ in range(600):
        alpha = random_valuation(
            rng, sym, vs, rng.choice(["tree", "graph"]), max_nodes=4, n_sorts=1, n_feats=2
        )
        if rng.random() < 0.5:
            alpha[vs[1]] = alpha[vs[0]]
        x, y = rng.choice(vs), rng.choice(vs)
        p, q = (Path(tuple(rng.choices(feats, k=rng.randint(0, 2)))) for _ in "pq")
        a, b = walk_value(alpha[x], p), walk_value(alpha[y], q)
        same = a is not None and a == b
        agreed += same
        assert holds_path_constraint(alpha, Agree(x, p, y, q)) == same
        assert holds_path_constraint(alpha, Reach(x, p, y)) == (a is not None and a == alpha[y])
        s = rng.choice(sorts)
        assert holds_path_constraint(alpha, SortAt(s, x, p)) == (a is not None and a.labels[0] == s)
    assert agreed > 60


def test_graph_canonical_examples(sym):
    x, y, u = sym.var("x"), sym.var("y"), sym.var("u")
    f, g = sym.feat("f"), sym.feat("g")
    c1 = SolvedClause.from_atoms([FeatC(x, f, y), FeatC(y, g, x)])
    c2 = SolvedClause.from_atoms([FeatC(u, f, x), FeatC(x, g, u)])
    g1 = feature_graph(x, c1.sorts, c1.edges)
    g2 = feature_graph(u, c2.sorts, c2.edges)
    assert g1 == g2
    A = sym.sort("A")
    unlabeled = feature_graph(0, {0: None}, {})
    labeled = feature_graph(0, {0: A}, {})
    assert unlabeled != labeled
    # renumbering a canonical graph from its own root changes nothing
    assert _as_graph(g1) == g1


def test_graphs_are_not_minimized(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    two = feature_graph(0, {0: A, 1: A}, {(0, f): 1, (1, f): 0})
    one = feature_graph(0, {0: A}, {(0, f): 0})
    assert two != one
    assert len(two.labels) == 2


def test_rationality_subtree_count(sym):
    """Distinct nodes of a minimal tree root distinct subtrees."""

    def subtrees(t):
        edges = {(i, f): j for i, row in enumerate(t.edges) for f, j in row}
        return {feature_tree(i, dict(enumerate(t.labels)), edges) for i in range(len(t.labels))}

    rng = random.Random(32)
    for _ in range(60):
        t = random_tree_value(rng, sym, max_nodes=4)
        assert len(subtrees(t)) == len(t.labels)


def test_enumerate_values_small_alphabet(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    trees = list(enumerate_values("tree", [A], [f], 2))
    # one node: leaf or self loop; two nodes: chain, chain with loop,
    # chain into a back edge collapses by minimization when bisimilar
    assert single_node_tree(A) in trees
    assert len(trees) == len(set(trees))
    assert all(len(t.labels) <= 2 for t in trees)
    graphs = list(enumerate_values("graph", [A], [f], 2))
    assert len(graphs) > len(trees)  # unlabeled nodes add values


def test_json_serialization(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x, y = sym.var("x"), sym.var("y")
    t = feature_tree(0, {0: A, 1: A}, {(0, f): 1})
    doc = value_to_json(t)
    assert doc["root"] == 0
    assert {n["id"] for n in doc["nodes"]} == {0, 1}
    assert doc["edges"] == [{"src": 0, "feature": "f", "dst": 1}]
    val = {x: t, y: single_node_tree(A)}
    vd = valuation_to_json(val)
    assert set(vd["vars"]) == {"x", "y"}
    json.dumps(vd)  # serializable
    # shared values share node blocks
    val2 = {x: t, y: t}
    vd2 = valuation_to_json(val2)
    assert vd2["vars"]["x"] == vd2["vars"]["y"]


def _chain_value(sym, build, n):
    """A one-sorted n-node chain; no two of its nodes are bisimilar."""
    A, f = sym.sort("A"), sym.feat("f")
    v = build(0, {i: A for i in range(n)}, {(i, f): i + 1 for i in range(n - 1)})
    assert len(v.labels) == n
    assert v.edges[n - 2] == ((f, n - 1),)


def _satisfies_chain(sym, n):
    """A chain prime checked on a library-built chain tree."""
    A, f = sym.sort("A"), sym.feat("f")
    xs = [sym.var(f"x{i}") for i in range(n)]
    graph = tuple(FeatC(xs[i], f, xs[i + 1]) for i in range(n - 1))
    beta = PrimeFormula(frozenset(xs[1:]), SolvedFormula((), graph + tuple(SortC(A, x) for x in xs)))
    tree = feature_tree(0, {i: A for i in range(n)}, {(i, f): i + 1 for i in range(n - 1)})
    assert satisfies_prime({xs[0]: tree}, beta)


def _chain_text(n):
    atoms = [f"f(x{i}, x{i + 1})" for i in range(n)] + [f"A(x{i})" for i in range(n + 1)]
    return n + 1, f"exists {', '.join(f'x{i}' for i in range(1, n + 1))}. ({' & '.join(atoms)})"


def _marked_cycle_text(n):
    atoms = [f"f(x{i}, x{(i + 1) % n})" for i in range(n)] + ["A(x0)"]
    return n, f"exists {', '.join(f'x{i}' for i in range(1, n))}. ({' & '.join(atoms)})"


def _witness_at_scale(sym, make_text, n):
    nodes, text = make_text(n)
    beta = simplify_epc(expand_sugar(parse_formula(sym, text)))
    val = witness_prime(beta, sym.fresh_sort("D"))
    assert satisfies_prime(val, beta)
    assert len(val[sym.var("x0")].labels) == nodes


def _witness_fan(sym, n):
    """One node with n features: checking the witness walks each once."""
    text = f"exists x. ({' & '.join(f'f{i}(y, x)' for i in range(n))})"
    beta = simplify_epc(expand_sugar(parse_formula(sym, text)))
    val = witness_prime(beta, sym.fresh_sort("D"))
    assert satisfies_prime(val, beta)
    assert len(val[sym.var("y")].edges[0]) == n


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda sym: _chain_value(sym, feature_graph, 5000), id="graph-chain-5000"),
        pytest.param(lambda sym: _chain_value(sym, feature_tree, 5000), id="tree-chain-5000"),
        pytest.param(lambda sym: _witness_at_scale(sym, _chain_text, 200), id="witness-chain-200"),
        pytest.param(
            lambda sym: _witness_at_scale(sym, _marked_cycle_text, 200), id="witness-marked-cycle-200"
        ),
        pytest.param(lambda sym: _satisfies_chain(sym, 1500), id="satisfies-chain-1500"),
        pytest.param(lambda sym: _witness_fan(sym, 10000), id="witness-fan-10000"),
    ],
)
def test_values_at_scale(sym, run):
    """Deep values neither recurse nor refine in exponential time."""
    with _wall_limit(10.0):
        run(sym)


def test_seeded_valuation_is_the_same_in_every_process():
    """A valuation drawn from a seed does not depend on string hashing."""
    code = (
        "import json, random\n"
        "from featlog import Symbols, valuation_to_json\n"
        "from generators import random_valuation\n"
        "sym = Symbols()\n"
        "variables = {sym.var(f'x{i}') for i in range(8)}\n"
        "for kind in ('tree', 'graph'):\n"
        "    alpha = random_valuation(random.Random(7), sym, variables, kind)\n"
        "    print(json.dumps(valuation_to_json(alpha), sort_keys=True))\n"
    )
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join((SRC, TESTS)))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
