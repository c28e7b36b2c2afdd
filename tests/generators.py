"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random

from featlog import (
    And,
    Atomic,
    BasicFormula,
    Bottom,
    Eq,
    Excl,
    Exists,
    FeatC,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Path,
    PrimeFormula,
    SolvedClause,
    SolvedFormula,
    SortC,
    Symbols,
    basic_simplify,
    canonicalize,
    feature_graph,
    feature_tree,
    simplify_epc,
)
from featlog.core import conj, exists_all


def pools(sym: Symbols, n_sorts: int = 3, n_feats: int = 3, n_vars: int = 6):
    sorts = [sym.sort(n) for n in ("A", "B", "C", "D", "E")[:n_sorts]]
    feats = [sym.feat(n) for n in ("f", "g", "h", "k", "m")[:n_feats]]
    vs = [sym.var(f"x{i}") for i in range(n_vars)]
    return sorts, feats, vs


def random_basic_formula(
    rng: random.Random,
    sym: Symbols,
    max_atoms: int = 12,
    n_vars: int = 6,
    n_sorts: int = 3,
    n_feats: int = 3,
) -> BasicFormula:
    sorts, feats, vs = pools(sym, n_sorts, n_feats, n_vars)
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        r = rng.random()
        if r < 0.5:
            atoms.append(FeatC(rng.choice(vs), rng.choice(feats), rng.choice(vs)))
        elif r < 0.8:
            atoms.append(SortC(rng.choice(sorts), rng.choice(vs)))
        else:
            atoms.append(Eq(rng.choice(vs), rng.choice(vs)))
    return BasicFormula(tuple(atoms))


def random_solved_formula(
    rng: random.Random, sym: Symbols, **kwargs
) -> SolvedFormula:
    while True:
        solved = basic_simplify(random_basic_formula(rng, sym, **kwargs))
        if not isinstance(solved, Bottom):
            return solved


def random_solved_clause(
    rng: random.Random,
    sym: Symbols,
    max_vars: int = 8,
    n_feats: int = 3,
    n_sorts: int = 3,
    with_exclusions: bool = True,
) -> SolvedClause:
    """Random clause with cycles; any edge target is fair game."""
    sorts, feats, _ = pools(sym, n_sorts, n_feats, 1)
    k = rng.randint(2, max_vars)
    vs = [sym.var(f"v{i}") for i in range(k)]
    atoms = []
    for v in vs:
        chosen = rng.sample(feats, rng.randint(0, min(3, len(feats))))
        for feat in chosen:
            atoms.append(FeatC(v, feat, rng.choice(vs)))
        if rng.random() < 0.5:
            atoms.append(SortC(rng.choice(sorts), v))
        if with_exclusions:
            for feat in feats:
                if feat not in chosen and rng.random() < 0.25:
                    atoms.append(Excl(v, feat))
    if not atoms:
        atoms.append(SortC(sorts[0], vs[0]))
    return SolvedClause.from_atoms(atoms)


def random_epc_formula(
    rng: random.Random,
    sym: Symbols,
    max_atoms: int = 8,
    n_vars: int = 5,
    n_sorts: int = 3,
    n_feats: int = 3,
    quantify_all: bool = False,
) -> Formula:
    """Random conjunction of atoms under an existential prefix."""
    sorts, feats, vs = pools(sym, n_sorts, n_feats, n_vars)
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        r = rng.random()
        if r < 0.55:
            atoms.append(Atomic(FeatC(rng.choice(vs), rng.choice(feats), rng.choice(vs))))
        elif r < 0.85:
            atoms.append(Atomic(SortC(rng.choice(sorts), rng.choice(vs))))
        else:
            atoms.append(Atomic(Eq(rng.choice(vs), rng.choice(vs))))
    body = conj(atoms)
    if quantify_all:
        bound = list(vs)
    else:
        bound = rng.sample(vs, rng.randint(0, len(vs) - 1))
    return exists_all(bound, body)


def random_prime(rng: random.Random, sym: Symbols, **kwargs) -> PrimeFormula:
    while True:
        beta = simplify_epc(sym, random_epc_formula(rng, sym, **kwargs))
        if not isinstance(beta, Bottom):
            return canonicalize(sym, beta)


def random_quantified_formula(
    rng: random.Random,
    sym: Symbols,
    max_atoms: int = 10,
    max_quants: int = 3,
    n_vars: int = 5,
) -> Formula:
    sorts, feats, vs = pools(sym, 3, 3, n_vars)
    atoms_left = [rng.randint(1, max_atoms)]
    quants_left = [rng.randint(0, max_quants)]

    def atom() -> Formula:
        r = rng.random()
        if r < 0.45:
            return Atomic(FeatC(rng.choice(vs), rng.choice(feats), rng.choice(vs)))
        if r < 0.8:
            return Atomic(SortC(rng.choice(sorts), rng.choice(vs)))
        return Atomic(Eq(rng.choice(vs), rng.choice(vs)))

    def go(depth: int) -> Formula:
        atoms_left[0] -= 1
        if depth > 4 or atoms_left[0] <= 0:
            return atom()
        r = rng.random()
        if r < 0.30:
            return And((go(depth + 1), go(depth + 1)))
        if r < 0.45:
            return Or((go(depth + 1), go(depth + 1)))
        if r < 0.55:
            return Not(go(depth + 1))
        if r < 0.62:
            return Implies(go(depth + 1), go(depth + 1))
        if r < 0.66:
            return Iff(go(depth + 1), go(depth + 1))
        if quants_left[0] > 0:
            quants_left[0] -= 1
            node = Exists if rng.random() < 0.6 else Forall
            return node((rng.choice(vs),), go(depth + 1))
        return atom()

    return go(0)


def random_graph_value(
    rng: random.Random,
    sym: Symbols,
    max_nodes: int = 3,
    n_sorts: int = 3,
    n_feats: int = 3,
    label_prob: float = 0.7,
):
    sorts, feats, _ = pools(sym, n_sorts, n_feats, 1)
    k = rng.randint(1, max_nodes)
    labels = {
        i: rng.choice(sorts) if rng.random() < label_prob else None for i in range(k)
    }
    edges = {}
    # chain guarantees reachability; extra edges add sharing and cycles
    for i in range(1, k):
        edges[(rng.randint(0, i - 1), rng.choice(feats))] = i
    for _ in range(rng.randint(0, 2 * k)):
        edges[(rng.randint(0, k - 1), rng.choice(feats))] = rng.randint(0, k - 1)
    return feature_graph(0, labels, edges)


def random_tree_value(
    rng: random.Random,
    sym: Symbols,
    max_nodes: int = 3,
    n_sorts: int = 3,
    n_feats: int = 3,
):
    sorts, feats, _ = pools(sym, n_sorts, n_feats, 1)
    k = rng.randint(1, max_nodes)
    labels = {i: rng.choice(sorts) for i in range(k)}
    edges = {}
    for i in range(1, k):
        edges[(rng.randint(0, i - 1), rng.choice(feats))] = i
    for _ in range(rng.randint(0, 2 * k)):
        edges[(rng.randint(0, k - 1), rng.choice(feats))] = rng.randint(0, k - 1)
    return feature_tree(0, labels, edges)


def random_valuation(rng: random.Random, sym: Symbols, variables, kind: str, **kwargs):
    """One random value per variable, drawn in name order, so a seed gives
    the same valuation in every process whatever container is passed."""
    make = random_tree_value if kind == "tree" else random_graph_value
    return {v: make(rng, sym, **kwargs) for v in sorted(variables)}
