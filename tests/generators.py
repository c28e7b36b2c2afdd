"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random
from itertools import count

from featlog import (
    BOTTOM,
    TOP,
    Agree,
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
    Top,
    VarId,
    SolvedClause,
    SolvedFormula,
    SortAt,
    SortC,
    Symbols,
    basic_simplify,
    canonicalize,
    feature_graph,
    free_vars,
    feature_tree,
    simplify_epc,
)
from featlog.core import conj, exists_all, rename_atom
from featlog.prime import _prime_of_atoms


def forall_all(vs, body: Formula) -> Formula:
    """One universal block over ``vs``; none gives the body itself."""
    vs = tuple(vs)
    return Forall(vs, body) if vs else body


def requantify(bound, body: SolvedFormula) -> PrimeFormula | Bottom:
    """The canonical prime of ``exists bound`` over a solved body, the
    variables of ``bound`` anywhere in it: one build of its atoms, since
    a solved body re-solves to the same classes."""
    return _prime_of_atoms(body.atoms, bound)


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
        beta = simplify_epc(random_epc_formula(rng, sym, **kwargs))
        if not isinstance(beta, Bottom):
            return canonicalize(beta)


def random_model_prime(
    rng: random.Random, sym: Symbols, cycles: bool = True
) -> tuple[PrimeFormula, dict, dict, dict]:
    """A prime of 50 to 100 atoms, most often, read off a random labeled
    graph: the prime, the graph's labels and edges, and the node of each
    variable.  Rooting the graph at the nodes of the free variables
    satisfies the prime.

    The graph has 30 to 50 nodes, node i being variable x{i}.  Every
    node after the first hangs below an earlier one, and up to 15 more
    edges add sharing, and cycles when ``cycles`` allows edges back to
    earlier nodes.  About half the nodes carry a sort.  A few aliases
    a{j} stand for random nodes through an equation and replace them in
    some edges.  The aliases, x0 and three other nodes stay free; the
    rest is bound.  Never ``false``.
    """
    n_nodes, n_extra = rng.randint(30, 50), rng.randint(0, 15)
    sorts, feats, vs = pools(sym, n_vars=n_nodes)
    labels = {i: rng.choice(sorts) if rng.random() < 0.5 else None for i in range(n_nodes)}
    edges: dict = {}
    open_feats = {i: list(feats) for i in range(n_nodes)}

    def add_edge(src: int, dst: int) -> None:
        if open_feats[src]:
            f = open_feats[src].pop(rng.randrange(len(open_feats[src])))
            edges[(src, f)] = dst

    for i in range(1, n_nodes):
        add_edge(rng.choice([j for j in range(i) if open_feats[j]]), i)
    for _ in range(n_extra):
        src, dst = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if cycles or src < dst:
            add_edge(src, dst)
    free_nodes = [0, *rng.sample(range(1, n_nodes), 3)]
    aliases = {
        sym.var(f"a{j}"): rng.choice(free_nodes) if rng.random() < 0.5 else rng.randrange(n_nodes)
        for j in range(rng.randint(1, 4))
    }
    names: dict[int, list[VarId]] = {i: [v] for i, v in enumerate(vs)}
    atoms: list = []
    for a, i in aliases.items():
        names[i].append(a)
        atoms.append(Eq(a, vs[i]))
    atoms += [SortC(s, vs[i]) for i, s in labels.items() if s is not None]
    atoms += [
        FeatC(rng.choice(names[src]), f, rng.choice(names[dst])) for (src, f), dst in edges.items()
    ]
    rng.shuffle(atoms)
    free = {vs[i] for i in free_nodes} | aliases.keys()
    beta = requantify(set(vs) - free, basic_simplify(BasicFormula(tuple(atoms))))
    return beta, labels, edges, {**{v: i for i, v in enumerate(vs)}, **aliases}


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


def random_sugared_formula(rng: random.Random, sym: Symbols) -> Formula:
    """A formula over everything the concrete syntax has: exclusion and
    path sugar, true and false, ``->`` and ``<->``, blocks of one to
    three variables, at times right under a block of the same or the
    other kind, and subformulae reached twice, as one object."""
    sorts, feats, vs = pools(sym, 3, 3, 5)
    made: list[Formula] = []

    def path() -> Path:
        return Path(tuple(rng.choices(feats, k=rng.randint(0, 2))))

    def leaf() -> Formula:
        r = rng.random()
        if r < 0.15:
            return Atomic(Excl(rng.choice(vs), rng.choice(feats)))
        if r < 0.3:
            return SortAt(rng.choice(sorts), rng.choice(vs), path())
        if r < 0.45:
            return Agree(rng.choice(vs), path(), rng.choice(vs), path())
        if r < 0.55:
            return rng.choice((TOP, BOTTOM))
        if r < 0.7 and made:
            return rng.choice(made)
        return random_quantified_formula(rng, sym, max_atoms=3, n_vars=5)

    def go(depth: int) -> Formula:
        r = rng.random()
        if depth > 3 or r < 0.2:
            phi = leaf()
        elif r < 0.35:
            phi = And(tuple(go(depth + 1) for _ in range(rng.randint(2, 3))))
        elif r < 0.5:
            phi = Or(tuple(go(depth + 1) for _ in range(rng.randint(2, 3))))
        elif r < 0.6:
            phi = Not(go(depth + 1))
        elif r < 0.7:
            phi = Implies(go(depth + 1), go(depth + 1))
        elif r < 0.8:
            phi = Iff(go(depth + 1), go(depth + 1))
        else:
            node = Exists if rng.random() < 0.5 else Forall
            phi = node(tuple(rng.sample(vs, rng.randint(1, 3))), go(depth + 1))
        made.append(phi)
        return phi

    return go(0)


def alpha_variant(rng: random.Random, phi: Formula) -> Formula:
    """phi with every binder renamed apart and the arguments of every
    ``&`` and ``|`` shuffled: equivalent to phi, and equal to it up to
    bound names and argument order.

    Binders get fresh names ``w0, w1, ...`` that are not free in phi.
    Expects sugar-expanded input.
    """
    used = {v.name for v in free_vars(phi)}
    fresh = (f"w{i}" for i in count() if f"w{i}" not in used)

    def go(psi: Formula, env: dict) -> Formula:
        if isinstance(psi, Atomic):
            return Atomic(rename_atom(psi.atom, env))
        if isinstance(psi, (Exists, Forall)):
            vs = tuple(VarId(next(fresh)) for _ in psi.vars)
            return type(psi)(vs, go(psi.body, {**env, **dict(zip(psi.vars, vs))}))
        if isinstance(psi, Not):
            return Not(go(psi.body, env))
        if isinstance(psi, (And, Or)):
            args = [go(arg, env) for arg in psi.args]
            rng.shuffle(args)
            return type(psi)(tuple(args))
        if isinstance(psi, (Implies, Iff)):
            return type(psi)(go(psi.lhs, env), go(psi.rhs, env))
        if isinstance(psi, (Top, Bottom)):
            return psi
        raise ValueError(f"expand sugar first: {psi!r}")

    return go(phi, {})


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
