"""Independent reference implementations used to check the library.

Everything here recomputes results from first principles: the closure by
saturating the five deduction rules up to a path-length bound, freeness
and jokers from that closure, one constraint of a projection at a time,
rule applicability by direct scanning,
and canonical primes by garbage collection and renaming in two separate
searches.  None of it shares code with the walk-based implementations
under test, except the union-find solver, which solves with nothing
quantified as the one-pass builder does and leaves quantification to
the two searches, the pairwise fold, which composes the binary prime
operations that the one-pass ``simplify_epc`` replaces, the closure
classifier, which decides open input by quantifier elimination instead
of the clause search, the block splitter, which makes the library
eliminate a quantifier block one variable at a time instead of at
once, the eager decider, which miniscopes each block and eliminates it
through the library's clause eliminator but builds the block's whole
normal form before eliminating any clause, the bounded evaluator,
which reads values through the library's walks but judges quantifiers
by trying small candidate values instead of eliminating them, the
dict-keyed normal form, which builds the library's prime DNF with
clauses keyed by the primes themselves instead of by integer ids, and
the projection checks, which decide entailment and satisfaction of
primes by walking every constraint of a projection from its root
through the library's closure membership and value walks, instead of
walking the body once.  The prime validator, the witness of a solved
clause with parameter trees grafted on, the quantifier-free check on
Boolean combinations and the canonical order of ``&`` and ``|`` chains
build on the library's search, tree builder and printer.  The
reference parser matches one token at a time, whitespace and comments
as separate matches, into token records, and builds its formulae with
the library's constructors and interns its names in the library's
``Symbols``.  The reference printer walks the tree unfolding
recursively, building a node's text again each time it is reached,
where the library's printer builds it once through a table of the
nodes visited.  ``prime_to_formula`` and ``boolcomb_to_formula`` turn a
prime and a Boolean combination of primes into a ``Formula`` built with
the library's constructors, which the tests compare, print and decide;
the library itself prints a residue straight from the combination.
"""

from __future__ import annotations

import copy
import itertools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from featlog import (
    BOTTOM,
    SATISFIABLE,
    TOP,
    TOP_PRIME,
    UNSATISFIABLE,
    Agree,
    And,
    Atomic,
    BasicFormula,
    Bottom,
    Eq,
    Excl,
    Exists,
    FeatC,
    FeatId,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Path,
    PrimeFormula,
    Reach,
    RootedPath,
    SolvedClause,
    SolvedFormula,
    SortAt,
    SortC,
    SortId,
    SourceSpan,
    SugarAgree,
    SugarSortAt,
    Symbols,
    Top,
    VarId,
    conj,
    constrained_vars,
    decide,
    eliminate_clause,
    expand_sugar,
    feature_tree,
    free_vars,
    is_solved_formula,
    mk_prime_exists,
    prime_closure_contains,
    prime_conj,
    print_formula,
    projection,
    to_prime_dnf,
)
from featlog.core import EPS, RESERVED_WORDS, atom_key, atom_vars, exists_all, rename_atom
from featlog.models import _same_subvalue, _walk, enumerate_values, walk_value
from featlog.prime import adjacency, from_atom
from featlog.paths import PathConstraint, is_proper
from featlog.solve import search_tree
from featlog.qe import (
    BC_FALSE,
    BC_TRUE,
    DEFAULT_MAX_DNF_CLAUSES,
    BcAnd,
    BcNot,
    BcOr,
    BoolComb,
    ResourceLimit,
    _clause_eliminator,
    bc_and,
    bc_not,
    bc_or,
)


class NaiveClosure:
    """Saturation of the deduction rules, paths capped at ``max_len``."""

    def __init__(self, gamma, max_len: int, extra_vars=()):
        if isinstance(gamma, SolvedFormula):
            eqs, graph = gamma.normalizer, gamma.graph
        else:
            eqs, graph = (), gamma.atoms
        self.max_len = max_len
        self.sorts = {a.var: a.sort for a in graph if isinstance(a, SortC)}
        edges: dict = {}
        for a in graph:
            if isinstance(a, FeatC):
                edges.setdefault(a.src, []).append((a.feat, a.dst))
        vars_ = set(gamma.variables) | set(extra_vars)
        reach = {(v, (), v) for v in vars_}
        reach |= {(eq.lhs, (), eq.rhs) for eq in eqs}
        work = list(reach)
        while work:
            x, p, y = work.pop()
            if len(p) >= max_len:
                continue
            for f, d in edges.get(y, ()):
                t = (x, p + (f,), d)
                if t not in reach:
                    reach.add(t)
                    work.append(t)
        self.reach = reach
        self.by_source: dict = {}
        self.by_target: dict = {}
        for x, p, y in reach:
            self.by_source.setdefault((x, p), set()).add(y)
            self.by_target.setdefault(y, set()).add(x)

    def targets(self, x, p) -> set:
        return self.by_source.get((x, tuple(p.feats)), set())

    def contains(self, pi: PathConstraint) -> bool:
        if isinstance(pi, Reach):
            return (pi.src, tuple(pi.path.feats), pi.dst) in self.reach
        if isinstance(pi, Agree):
            return bool(self.targets(pi.lsrc, pi.lpath) & self.targets(pi.rsrc, pi.rpath))
        if isinstance(pi, SortAt):
            return any(self.sorts.get(z) == pi.sort for z in self.targets(pi.src, pi.path))
        raise TypeError(pi)


def _closure_contains(beta: PrimeFormula, clos: NaiveClosure, pi: PathConstraint) -> bool:
    """Whether the closure of beta contains pi, read off the saturated
    closure ``clos`` of beta's body, whose nodes include pi's roots."""
    if not clos.contains(pi):
        return False
    if isinstance(pi, Reach) and not pi.path.feats and pi.src == pi.dst:
        return True
    if (
        isinstance(pi, Agree)
        and not pi.lpath.feats
        and not pi.rpath.feats
        and pi.lsrc == pi.rsrc
    ):
        return True
    return not (_pc_vars(pi) & beta.bound)


def _pc_vars(pi: PathConstraint) -> set:
    if isinstance(pi, Reach):
        return {pi.src, pi.dst}
    if isinstance(pi, Agree):
        return {pi.lsrc, pi.rsrc}
    return {pi.src}


def _joker_closure(beta: PrimeFormula, constraints) -> NaiveClosure:
    """One saturated closure of beta's body that judges every constraint.

    Its paths reach the body's size plus the longest constraint path
    plus two, and every root of the constraints is one of its nodes.
    Past the body's size a longer bound adds no pair of co-reaching
    nodes, since a shortest path between two nodes never revisits one,
    so one closure serves each constraint as its own would.
    """
    roots = set().union(*map(_pc_vars, constraints))
    return NaiveClosure(beta.body, _joker_path_bound(beta, constraints), extra_vars=roots)


def _joker_path_bound(beta: PrimeFormula, constraints) -> int:
    return len(beta.body.variables) + max(map(_pc_len, constraints), default=0) + 2


def joker_closure_walks(beta: PrimeFormula, constraints, cap: int) -> list[int]:
    """How many walks of each length start at a variable of beta's body,
    up to the path bound of ``_joker_closure`` of the constraints: the
    (variable, path) pairs that closure saturates, counted without
    building it.  Stops once their sum passes cap."""
    bound = _joker_path_bound(beta, constraints)
    adj = adjacency(beta.body.edges)
    level = dict.fromkeys(beta.body.variables, 1)
    counts = [len(level)]
    while len(counts) <= bound and sum(counts) <= cap:
        level = {v: sum(level[w] for _, w in adj.get(v, ())) for v in level}
        counts.append(sum(level.values()))
    return counts


def naive_is_free(beta: PrimeFormula, clos: NaiveClosure, xs, rp: RootedPath) -> bool:
    """Freeness for the block xs, whose variables include the root, from
    the saturated closure ``clos`` of beta's body, with the root as a
    node and paths at least as long as the body's size plus rp's path.

    Complete because a shortest witness path never revisits a node: the
    bound covers every co-reaching path that can exist.
    """
    x = rp.root
    if x in beta.bound:
        return True
    for k in range(len(rp.path.feats) + 1):
        pref = tuple(rp.path.feats[:k])
        for z in clos.by_source.get((x, pref), ()):
            for y in clos.by_target.get(z, ()):
                if y not in xs and y not in beta.bound:
                    return False
    return True


def naive_is_joker(beta: PrimeFormula, xs, pi: PathConstraint, clos: NaiveClosure | None = None) -> bool:
    """Whether pi is a joker for the block xs, judged from the saturated
    closure ``clos`` of beta's body, ``_joker_closure`` of pi when none
    is given."""
    if not is_proper(pi):
        raise ValueError(pi)
    if clos is None:
        clos = _joker_closure(beta, [pi])
    if _closure_contains(beta, clos, pi):
        return False
    if isinstance(pi, SortAt):
        return pi.src in xs and naive_is_free(beta, clos, xs, RootedPath(pi.src, pi.path))
    if pi.lsrc in xs and naive_is_free(beta, clos, xs, RootedPath(pi.lsrc, pi.lpath)):
        return True
    return pi.rsrc in xs and naive_is_free(beta, clos, xs, RootedPath(pi.rsrc, pi.rpath))


def projection_has_joker(beta: PrimeFormula, xs, beta2: PrimeFormula) -> bool:
    """Whether some constraint of the projection of ``beta2`` is a joker
    for the block xs, each judged from one saturated closure of beta."""
    constraints = projection(beta2)
    clos = _joker_closure(beta, constraints)
    return any(naive_is_joker(beta, xs, pi, clos) for pi in constraints)


def _pc_len(pi: PathConstraint) -> int:
    if isinstance(pi, Agree):
        return max(len(pi.lpath.feats), len(pi.rpath.feats))
    return len(pi.path.feats)


def is_prime_formula(beta: PrimeFormula) -> bool:
    """Validate the three defining conditions."""
    body = beta.body
    if not is_solved_formula(body):
        return False
    norm_vars = {v for eq in body.normalizer for v in (eq.lhs, eq.rhs)}
    if beta.bound & norm_vars or not beta.bound <= body.variables:
        return False
    tree = search_tree(adjacency(body.edges), sorted(body.variables - beta.bound))
    return beta.bound <= tree.keys()


def holds_path_constraint(alpha, pi: PathConstraint) -> bool:
    """Exact truth of a path constraint under a valuation, each path
    walked from the root of its value."""
    if isinstance(pi, Reach):
        v = alpha[pi.src]
        node = _walk(v, pi.path)
        return node is not None and _same_subvalue(v, node, alpha[pi.dst], 0)
    if isinstance(pi, Agree):
        a, b = alpha[pi.lsrc], alpha[pi.rsrc]
        i, j = _walk(a, pi.lpath), _walk(b, pi.rpath)
        return i is not None and j is not None and _same_subvalue(a, i, b, j)
    if isinstance(pi, SortAt):
        v = alpha[pi.src]
        node = _walk(v, pi.path)
        return node is not None and v.labels[node] == pi.sort
    raise TypeError(f"not a path constraint: {pi!r}")


def witness_solved_clause(delta: SolvedClause, params, default_sort: SortId) -> dict:
    """Trees satisfying a solved clause, for given parameter trees.

    Every constrained variable becomes a node labeled by its sort (or
    the default) and edges follow the clause.  Node i of parameter y's
    tree is the node ``(y, i)``, and an edge to y goes to the root of
    y's tree.  Exclusions hold because the clause admits no edge beside
    them.  Each constrained variable's tree is built from its own node
    by ``feature_tree``; the parameters pass through unchanged.
    """
    cv = constrained_vars(delta)
    pvars = set(delta.variables) - cv
    missing = sorted(v.name for v in pvars if v not in params)
    if missing:
        raise ValueError(f"no parameter trees for: {', '.join(missing)}")
    labels: dict = {x: delta.sorts.get(x, default_sort) for x in cv}
    edges: dict = {}
    for y in pvars:
        tree = params[y]
        labels.update(((y, i), lab) for i, lab in enumerate(tree.labels))
        edges.update((((y, i), f), (y, j)) for i, row in enumerate(tree.edges) for f, j in row)
    for (x, f), y in delta.edges.items():
        edges[(x, f)] = (y, 0) if y in pvars else y
    out = {y: params[y] for y in pvars}
    out.update((x, feature_tree(x, labels, edges)) for x in cv)
    return out


def projection_entails(beta: PrimeFormula, beta2: PrimeFormula) -> bool:
    """Entailment as containment of the projection of ``beta2`` in the
    closure of ``beta``, each constraint walked from its root."""
    return all(prime_closure_contains(beta, pi) for pi in projection(beta2))


def projection_satisfies(alpha, beta: PrimeFormula) -> bool:
    """Satisfaction as the truth of every constraint of the projection,
    each walked from the root of its value."""
    return all(holds_path_constraint(alpha, pi) for pi in projection(beta))


def naive_reachable(root, edges: dict) -> set:
    """Nodes reachable from ``root``, scanning every edge per step."""
    seen = {root}
    while True:
        more = {dst for (src, _f), dst in edges.items() if src in seen} - seen
        if not more:
            return seen
        seen |= more


def naive_bisimilarity(labels: dict, edges: dict) -> set:
    """Bisimilar node pairs of a labeled deterministic graph.

    Greatest fixpoint over node pairs: start from the pairs with equal
    labels and equal feature sets, and drop a pair while some feature
    leads it to a dropped pair.
    """
    out = {n: {f: dst for (src, f), dst in edges.items() if src == n} for n in labels}
    rel = {
        (a, b)
        for a in labels
        for b in labels
        if labels[a] == labels[b] and out[a].keys() == out[b].keys()
    }
    while True:
        broken = {(a, b) for a, b in rel if any((out[a][f], out[b][f]) not in rel for f in out[a])}
        if not broken:
            return rel
        rel -= broken


def randomized_simplify(rng, basic):
    """Apply the five rules to a fixed point in random order.

    Independent of the library's fixed strategy: candidates are scanned
    directly and one is picked at random, including a random choice of
    which feature constraint survives a merge.  Returns None for false,
    otherwise the fixed-point list of atoms.
    """
    atoms = list(basic.atoms)
    while True:
        occ: Counter = Counter()
        for a in atoms:
            occ.update(atom_vars(a))
        candidates = []
        sort_at: dict = {}
        edge_at: dict = {}
        for i, a in enumerate(atoms):
            if isinstance(a, Eq):
                if a.lhs == a.rhs:
                    candidates.append(("drop_reflexive", i))
                elif occ[a.lhs] >= 2:
                    candidates.append(("substitute", i))
            elif isinstance(a, SortC):
                for j in sort_at.get(a.var, ()):
                    if atoms[j].sort != a.sort:
                        candidates.append(("clash", (j, i)))
                    else:
                        candidates.append(("dedup_sort", (j, i)))
                sort_at.setdefault(a.var, []).append(i)
            elif isinstance(a, FeatC):
                for j in edge_at.get((a.src, a.feat), ()):
                    candidates.append(("merge", (j, i)))
                edge_at.setdefault((a.src, a.feat), []).append(i)
        if not candidates:
            return atoms
        kind, data = rng.choice(candidates)
        if kind == "drop_reflexive":
            atoms.pop(data)
        elif kind == "substitute":
            eq = atoms[data]
            atoms = [
                a if k == data else _subst(a, eq.lhs, eq.rhs)
                for k, a in enumerate(atoms)
            ]
        elif kind == "clash":
            return None
        elif kind == "dedup_sort":
            atoms.pop(data[1])
        else:
            j, i = data
            if rng.random() < 0.5:
                j, i = i, j
            # drop atom j, keep atom i, equate the two targets
            eqn = Eq(atoms[j].dst, atoms[i].dst)
            atoms.pop(j)
            atoms.append(eqn)


def _subst(a, x, y):
    if isinstance(a, Eq):
        return Eq(y if a.lhs == x else a.lhs, y if a.rhs == x else a.rhs)
    if isinstance(a, SortC):
        return SortC(a.sort, y) if a.var == x else a
    if isinstance(a, FeatC):
        return FeatC(y if a.src == x else a.src, a.feat, y if a.dst == x else a.dst)
    return a


def simplification_rule_applies(atoms) -> bool:
    """Direct scan for applicability of any of the five rules."""
    occ: Counter = Counter()
    for a in atoms:
        occ.update(atom_vars(a))
    per_var: dict = {}
    edge_keys: list = []
    for a in atoms:
        if isinstance(a, Eq):
            if a.lhs == a.rhs:
                return True  # reflexive equation
            if occ[a.lhs] >= 2:
                return True  # substitution applies
        elif isinstance(a, SortC):
            per_var.setdefault(a.var, []).append(a.sort)
        elif isinstance(a, FeatC):
            edge_keys.append((a.src, a.feat))
    if any(len(s) >= 2 for s in per_var.values()):
        return True  # sort clash or duplicate
    return len(edge_keys) != len(set(edge_keys))


def fold_simplify_epc(phi):
    """Solve an existential conjunction by a recursive pairwise fold.

    One binary ``prime_conj`` per conjunct after the first, folding left,
    and one ``mk_prime_exists`` per quantifier, each re-solving
    everything below it: quadratic in the number of atoms and recursive
    in the depth, but each step is a single, separately tested prime
    operation.
    """
    if isinstance(phi, Top):
        return TOP_PRIME
    if isinstance(phi, Bottom):
        return BOTTOM
    if isinstance(phi, Atomic):
        return from_atom(phi.atom)
    if isinstance(phi, And):
        acc = fold_simplify_epc(phi.args[0])
        for arg in phi.args[1:]:
            if isinstance(acc, Bottom):
                return BOTTOM
            part = fold_simplify_epc(arg)
            if isinstance(part, Bottom):
                return BOTTOM
            acc = prime_conj(acc, part)
        return acc
    if isinstance(phi, Exists):
        inner = fold_simplify_epc(phi.body)
        if isinstance(inner, Bottom):
            return BOTTOM
        for x in reversed(phi.vars):
            inner = mk_prime_exists((x,), inner)
        return inner
    raise ValueError("only atoms, conjunction, and 'exists' are allowed here")


def two_pass_requantify(bound, body):
    """The canonical prime ``exists bound body``, built in two passes.

    First a requantification that only garbage-collects: equations with
    a quantified left side go, a quantified representative is renamed to
    the least variable it represents, and what a search from the free
    variables cannot reach is dropped.  Then a separate canonical
    renaming: a second search assigns each bound variable its access
    path, and the bound variables, sorted by path, become q0, q1, ...
    (skipping free spellings) before both parts of the body are sorted.
    """
    quantified = frozenset(bound)
    eqs = [eq for eq in body.normalizer if eq.lhs not in quantified]
    rename = {}
    for eq in eqs:
        if eq.rhs in quantified:
            rename[eq.rhs] = min(eq.lhs, rename.get(eq.rhs, eq.lhs))
    normalizer = [
        Eq(eq.lhs, rename.get(eq.rhs, eq.rhs)) for eq in eqs if rename.get(eq.rhs) != eq.lhs
    ]
    graph = [rename_atom(a, rename) for a in body.graph]

    def paths(atoms, roots):
        # shortest access paths, roots and features in name order
        out_edges = {}
        for a in atoms:
            if isinstance(a, FeatC):
                out_edges.setdefault(a.src, []).append((a.feat.name, a.dst))
        found = {v: (v.name, ()) for v in sorted(roots)}
        queue = list(found)
        for u in queue:
            for feat, w in sorted(out_edges.get(u, ())):
                if w not in found:
                    found[w] = (found[u][0], found[u][1] + (feat,))
                    queue.append(w)
        return found

    every = {v for a in normalizer + graph for v in atom_vars(a)}
    reached = paths(graph, every - quantified)
    kept = [a for a in graph if all(v in reached for v in atom_vars(a) if v in quantified)]
    free = {v for a in normalizer + kept for v in atom_vars(a)} - quantified
    acc = paths(kept, free)
    ordered = sorted(quantified & acc.keys(), key=lambda v: acc[v])
    names = (f"q{i}" for i in itertools.count() if VarId(f"q{i}") not in free)
    mapping = {v: VarId(next(names)) for v in ordered}
    graph = sorted((rename_atom(a, mapping) for a in kept), key=atom_key)
    return PrimeFormula(
        frozenset(mapping.values()),
        SolvedFormula(tuple(sorted(normalizer, key=atom_key)), tuple(graph)),
    )


def union_find_simplify(phi):
    """Rewrite a basic formula to a solved formula or ``false``, with
    nothing quantified: the first of the two passes that the one-pass
    builder replaces.

    One union-find pass over the atoms in input order.  An equation
    x = y puts the class of x under the class of y.  Two edges with the
    same feature out of one class put the class of the earlier edge's
    target under the class of the later one's, and the later edge stays;
    the merges this causes run as a worklist until no (class, feature)
    key repeats.  Two different sorts on one class give ``false``.  The
    result is emitted once, in ``atom_key`` order: ``v = rep(v)`` for
    each variable that does not represent its class, then one sort per
    sorted class and one edge per (class, feature), over representatives.
    """
    if isinstance(phi, Bottom):
        return BOTTOM
    # union-find over integer nodes
    node = {}
    var = []
    for a in phi.atoms:
        for v in atom_vars(a):
            if v not in node:
                node[v] = len(var)
                var.append(v)
    parent = list(range(len(var)))
    # per class root: feature -> (input position, target node, edge)
    out_edges = {}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def union(pending):
        # put the class of the first node under the class of the second
        while pending:
            x, y = pending.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[rx] = ry
            moved = out_edges.pop(rx, None)
            if moved is None:
                continue
            kept = out_edges.setdefault(ry, moved)
            if kept is moved:
                continue
            if len(moved) > len(kept):
                # which edge stays depends on positions only: merge the smaller row
                out_edges[ry] = moved
                moved, kept = kept, moved
            for f, edge in moved.items():
                other = kept.get(f)
                if other is None:
                    kept[f] = edge
                elif edge[0] < other[0]:
                    pending.append((edge[1], other[1]))
                else:
                    kept[f] = edge
                    pending.append((other[1], edge[1]))

    for pos, a in enumerate(phi.atoms):
        if isinstance(a, Eq):
            union([(node[a.lhs], node[a.rhs])])
        elif isinstance(a, FeatC):
            row = out_edges.setdefault(find(node[a.src]), {})
            dst = node[a.dst]
            earlier = row.get(a.feat)
            row[a.feat] = (pos, dst, a)
            if earlier is not None:
                union([(earlier[1], dst)])

    sorts = {}
    for a in phi.atoms:
        if isinstance(a, SortC):
            if sorts.setdefault(find(node[a.var]), a).sort != a.sort:
                return BOTTOM
    rep = [var[find(i)] for i in range(len(var))]
    normalizer = sorted((Eq(v, r) for v, r in zip(var, rep) if v is not r), key=atom_key)
    # input atoms already over representatives are kept as they are
    graph = [
        a if a.var is var[r] else SortC(a.sort, var[r]) for r, a in sorts.items()
    ]
    for r, row in out_edges.items():
        for _pos, t, a in row.values():
            src, dst = var[r], rep[t]
            graph.append(a if a.src is src and a.dst is dst else FeatC(src, a.feat, dst))
    graph.sort(key=atom_key)
    return SolvedFormula(tuple(normalizer), tuple(graph))


def two_pass_prime(atoms, bound):
    """``exists bound`` over a conjunction of atoms as a prime, or
    ``false``: ``union_find_simplify``, then ``two_pass_requantify``."""
    solved = union_find_simplify(BasicFormula(tuple(atoms)))
    if isinstance(solved, Bottom):
        return BOTTOM
    return two_pass_requantify(bound, solved)


def two_pass_exists_conj(xs, primes):
    """``exists xs`` over a conjunction of primes, in two passes.

    Every bound variable is renamed apart, to its name with a ``'`` and
    the prime's position; no free name has a ``'``.  The bound names
    never reach the result, so this renaming and the library's, which
    renames only clashing names, give equal primes.
    """
    atoms, bound = [], []
    for i, beta in enumerate(primes):
        apart = {v: VarId(f"{v.name}'{i}") for v in beta.bound}
        bound.extend(apart.values())
        atoms.extend(rename_atom(a, apart) for a in beta.body.atoms)
    free = set().union(*(beta.free_vars for beta in primes))
    return two_pass_prime(atoms, bound + [x for x in xs if x in free])


def prime_to_formula(beta: PrimeFormula) -> Formula:
    """Existentially quantified conjunction in canonical atom order."""
    atoms = sorted(beta.body.normalizer, key=atom_key) + sorted(
        beta.body.graph, key=atom_key
    )
    return exists_all(sorted(beta.bound), conj(Atomic(a) for a in atoms))


def boolcomb_to_formula(delta: BoolComb) -> Formula:
    """The formula of a combination.  Each node is converted once per
    call, through a table of the nodes visited, so a node the
    combination shares is one shared subformula."""
    done: dict[BoolComb, Formula] = {}

    def go(node: BoolComb) -> Formula:
        out = done.get(node)
        if out is None:
            if isinstance(node, PrimeFormula):
                out = prime_to_formula(node)
            elif isinstance(node, BcNot):
                out = Not(go(node.arg))
            else:
                out = (And if isinstance(node, BcAnd) else Or)(tuple(map(go, node.args)))
            done[node] = out
        return out

    try:
        return go(delta)
    finally:
        # go refers to itself: deleting it breaks the cycle, so the table
        # dies with the call
        del go


def bc_quantifier_free(delta: BoolComb) -> bool:
    """True: quantifiers occur only inside prime leaves, so every node is a
    prime leaf or a negation, conjunction or disjunction of nodes.  Each
    node of a shared residue is visited once, and nothing recurses."""
    seen: set[int] = set()
    stack = [delta]
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, PrimeFormula):
            continue
        seen.add(id(node))
        if isinstance(node, BcNot):
            stack.append(node.arg)
        elif isinstance(node, (BcAnd, BcOr)):
            stack.extend(node.args)
        else:
            return False
    return True


def dict_prime_dnf(
    delta: BoolComb,
    max_clauses: int = DEFAULT_MAX_DNF_CLAUSES,
    xs: Sequence[VarId] = (),
) -> list[tuple[list[PrimeFormula], list[PrimeFormula]]]:
    """Disjunctive normal form with primes as literals.

    Clauses containing complementary or trivially false literals are
    dropped, duplicate literals merge, and clause growth beyond the
    configured bound raises ResourceLimit, naming the block ``xs`` being
    eliminated, in prefix order, when one is given: its first eight
    variables, then how many more there are.  A conjunction
    costs time linear in its width: a conjunct with a single clause
    extends the accumulated clauses in place, checking only its own
    literals against them.
    """
    limit = f"disjunctive normal form exceeds {max_clauses} clauses"
    if xs:
        limit += f" while eliminating {', '.join(map(str, xs[:8]))}"
        if len(xs) > 8:
            limit += f" and {len(xs) - 8} more"

    def clash(pos: dict, neg: dict, rp: dict, rn: dict) -> bool:
        # each clause is free of complementary literals on its own; a
        # view iterates the smaller side
        return not (
            rp.keys().isdisjoint(neg.keys()) and rn.keys().isdisjoint(pos.keys())
        )

    def cross(
        left: list[tuple[dict, dict]], right: list[tuple[dict, dict]]
    ) -> list[tuple[dict, dict]]:
        if len(right) == 1:
            # the accumulator owns its clauses: extend them in place
            rp, rn = right[0]
            out = [(lp, ln) for lp, ln in left if not clash(lp, ln, rp, rn)]
            if len(out) > max_clauses:
                raise ResourceLimit(limit)
            for lp, ln in out:
                lp.update(rp)
                ln.update(rn)
            return out
        out = []
        for lp, ln in left:
            for rp, rn in right:
                if clash(lp, ln, rp, rn):
                    continue
                out.append(({**lp, **rp}, {**ln, **rn}))
                if len(out) > max_clauses:
                    raise ResourceLimit(limit)
        return out

    def go(node: BoolComb, negate: bool) -> list[tuple[dict, dict]]:
        if isinstance(node, PrimeFormula):
            if node.is_top():
                return [] if negate else [({}, {})]
            if negate:
                return [({}, {node: None})]
            return [({node: None}, {})]
        if isinstance(node, BcNot):
            return go(node.arg, not negate)
        distribute = isinstance(node, BcOr) != negate
        if distribute:
            out: list[tuple[dict, dict]] = []
            seen: set = set()
            for a in node.args:
                for clause in go(a, negate):
                    key = (frozenset(clause[0]), frozenset(clause[1]))
                    if key not in seen:
                        seen.add(key)
                        out.append(clause)
                if len(out) > max_clauses:
                    raise ResourceLimit(limit)
            return out
        acc = [({}, {})]
        for a in node.args:
            acc = cross(acc, go(a, negate))
        return acc

    return [(list(pos), list(neg)) for pos, neg in go(delta, False)]


def split_blocks(phi):
    """The formula with every quantifier block written as the nested
    one-variable blocks it abbreviates.

    ``Exists((x, y), body)`` becomes ``Exists((x,), Exists((y,), body))``;
    the constructors keep the nesting, so ``decide`` eliminates the
    variables one at a time, innermost first.
    """
    if isinstance(phi, Not):
        return Not(split_blocks(phi.body))
    if isinstance(phi, (And, Or)):
        return type(phi)(tuple(split_blocks(arg) for arg in phi.args))
    if isinstance(phi, (Implies, Iff)):
        return type(phi)(split_blocks(phi.lhs), split_blocks(phi.rhs))
    if isinstance(phi, (Exists, Forall)):
        out = split_blocks(phi.body)
        for x in reversed(phi.vars):
            out = type(phi)((x,), out)
        return out
    return phi


def unscoped_decide(phi, max_clauses=DEFAULT_MAX_DNF_CLAUSES):
    """``decide`` with every block eliminated from its whole matrix.

    A block ``exists X`` puts the entire matrix through one prime DNF
    and one ``eliminate_clause`` per clause, with no miniscoping and
    nothing shared between clauses; ``forall X`` is ``not exists X not``.
    Expects sugar-expanded input, as ``decide`` does, and hands it the
    quantifier-free leaves.
    """
    if isinstance(phi, Not):
        return bc_not(unscoped_decide(phi.body, max_clauses))
    if isinstance(phi, (And, Or)):
        combine = bc_and if isinstance(phi, And) else bc_or
        return combine(*[unscoped_decide(arg, max_clauses) for arg in phi.args])
    if isinstance(phi, Implies):
        return bc_or(
            bc_not(unscoped_decide(phi.lhs, max_clauses)),
            unscoped_decide(phi.rhs, max_clauses),
        )
    if isinstance(phi, Iff):
        lhs = unscoped_decide(phi.lhs, max_clauses)
        rhs = unscoped_decide(phi.rhs, max_clauses)
        return bc_or(bc_and(lhs, rhs), bc_and(bc_not(lhs), bc_not(rhs)))
    if isinstance(phi, (Exists, Forall)):
        universal = isinstance(phi, Forall)
        delta = unscoped_decide(phi.body, max_clauses)
        delta = bc_not(delta) if universal else delta
        clauses = to_prime_dnf(delta, max_clauses, phi.vars)
        delta = bc_or(*[eliminate_clause(phi.vars, pos, neg) for pos, neg in clauses])
        return bc_not(delta) if universal else delta
    return decide(phi, max_clauses)


def eager_decide(phi, max_clauses=DEFAULT_MAX_DNF_CLAUSES):
    """``decide`` with each block's whole normal form built first.

    A block is miniscoped as ``decide`` does it, and what is left goes
    through one ``to_prime_dnf``, built whole, so the clause bound
    applies to all of it.  Its clauses are then eliminated shortest
    first through one clause eliminator per block; the first that
    eliminates to true makes the block true, and otherwise the results
    are joined in normal-form order.  Expects sugar-expanded input.
    """
    if isinstance(phi, Not):
        return bc_not(eager_decide(phi.body, max_clauses))
    if isinstance(phi, (And, Or)):
        combine = bc_and if isinstance(phi, And) else bc_or
        return combine(*[eager_decide(arg, max_clauses) for arg in phi.args])
    if isinstance(phi, Implies):
        return bc_or(
            bc_not(eager_decide(phi.lhs, max_clauses)), eager_decide(phi.rhs, max_clauses)
        )
    if isinstance(phi, Iff):
        lhs = eager_decide(phi.lhs, max_clauses)
        rhs = eager_decide(phi.rhs, max_clauses)
        return bc_or(bc_and(lhs, rhs), bc_and(bc_not(lhs), bc_not(rhs)))
    if isinstance(phi, (Exists, Forall)):
        universal = isinstance(phi, Forall)
        delta = eager_decide(phi.body, max_clauses)
        delta = bc_not(delta) if universal else delta
        delta = _eager_eliminate_exists(phi.vars, delta, max_clauses)
        return bc_not(delta) if universal else delta
    return decide(phi, max_clauses)


def _eager_eliminate_exists(xs, delta: BoolComb, max_clauses: int) -> BoolComb:
    block = frozenset(xs)
    eliminate = _clause_eliminator(block)

    def go(node: BoolComb, negate: bool) -> BoolComb:
        if block.isdisjoint(node.free_vars):
            return bc_not(node) if negate else node
        if isinstance(node, BcNot):
            return go(node.arg, not negate)
        if isinstance(node, PrimeFormula):
            return normal_form(node, negate)
        if isinstance(node, BcOr) != negate:
            return bc_or(*[go(a, negate) for a in node.args])
        inside = [a for a in node.args if not block.isdisjoint(a.free_vars)]
        if len(inside) == len(node.args):
            return normal_form(node, negate)
        outside = [a for a in node.args if block.isdisjoint(a.free_vars)]
        rest = inside[0] if len(inside) == 1 else type(node)(tuple(inside))
        return bc_and(*[bc_not(a) if negate else a for a in outside], go(rest, negate))

    def normal_form(node: BoolComb, negate: bool) -> BoolComb:
        clauses = to_prime_dnf(bc_not(node) if negate else node, max_clauses, xs)
        out: list[BoolComb] = [BC_FALSE] * len(clauses)
        sizes = [len(pos) + len(neg) for pos, neg in clauses]
        for i in sorted(range(len(clauses)), key=sizes.__getitem__):
            out[i] = eliminate(*clauses[i])
            if out[i] is BC_TRUE:
                return BC_TRUE
        return bc_or(*out)

    return go(delta, False)


def closure_classify(phi, max_clauses=DEFAULT_MAX_DNF_CLAUSES):
    """Satisfiability of open input by eliminating its free variables.

    The existential closure is taken one free variable at a time, in
    name order, each step a full quantifier elimination over the prime
    DNF of the step before, until the closed residue folds to a
    constant.  Quadratic or worse in the number of free variables, but
    built only from the separately tested elimination steps.
    """
    phi = expand_sugar(phi)
    closure = decide(phi, max_clauses)
    for v in sorted(free_vars(phi)):
        clauses = to_prime_dnf(closure, max_clauses)
        closure = bc_or(*[eliminate_clause((v,), pos, neg) for pos, neg in clauses])
    return UNSATISFIABLE if closure == BC_FALSE else SATISFIABLE


def _eval_atom(alpha, atom) -> bool:
    if isinstance(atom, SortC):
        return alpha[atom.var].labels[0] == atom.sort
    if isinstance(atom, FeatC):
        got = walk_value(alpha[atom.src], Path((atom.feat,)))
        return got is not None and got == alpha[atom.dst]
    if isinstance(atom, Eq):
        return alpha[atom.lhs] == alpha[atom.rhs]
    assert isinstance(atom, Excl)
    return all(f != atom.feat for f, _ in alpha[atom.var].edges[0])


def _collect_symbols(phi, alpha) -> tuple[set, set]:
    sorts: set = set()
    feats: set = set()

    def go(psi) -> None:
        if isinstance(psi, Atomic):
            a = psi.atom
            if isinstance(a, SortC):
                sorts.add(a.sort)
            elif isinstance(a, (FeatC, Excl)):
                feats.add(a.feat)
        elif isinstance(psi, Not):
            go(psi.body)
        elif isinstance(psi, (And, Or)):
            for arg in psi.args:
                go(arg)
        elif isinstance(psi, (Implies, Iff)):
            go(psi.lhs)
            go(psi.rhs)
        elif isinstance(psi, (Exists, Forall)):
            go(psi.body)
        elif isinstance(psi, SugarSortAt):
            sorts.add(psi.sort)
            feats.update(psi.path.feats)
        elif isinstance(psi, SugarAgree):
            feats.update(psi.lpath.feats)
            feats.update(psi.rpath.feats)

    go(phi)
    for v in alpha.values():
        sorts.update(lab for lab in v.labels if lab is not None)
        for row in v.edges:
            feats.update(f for f, _ in row)
    return sorts, feats


# The extra candidate sort and feature.  Fresh names always end in a
# number, so these never collide.  The sort orders after user sorts, the
# feature before.
_EXTRA_SORT = SortId("_S")
_EXTRA_FEAT = FeatId("_f")


def bounded_evaluate(sym, kind, alpha, phi, node_bound=4, budget=20000):
    """Sound three-valued evaluation by small candidate values.

    Quantifier-free formulae (exclusions and path sugar included) are
    decided exactly.  A quantifier enumerates candidate values up to the
    node bound over the symbols of the formula and valuation plus one
    extra sort and one extra feature; an existential returns True on a
    witness and None otherwise, a universal returns False on a
    counterexample and None otherwise.  The shared budget caps the total
    number of candidates tried across all quantifiers.  Every quantifier
    instance reads the same candidate list, filled lazily from one
    enumeration.  ``sym`` is not read.
    """
    sorts, feats = _collect_symbols(phi, alpha)
    sorts.add(_EXTRA_SORT)
    feats.add(_EXTRA_FEAT)
    remaining = [budget]
    # never advanced, so each copy starts from the first candidate and
    # all copies share one lazily filled buffer
    (candidates,) = itertools.tee(enumerate_values(kind, sorts, feats, node_bound), 1)

    def ev(psi, env):
        if isinstance(psi, Top):
            return True
        if isinstance(psi, Bottom):
            return False
        if isinstance(psi, Atomic):
            return _eval_atom(env, psi.atom)
        if isinstance(psi, SugarAgree):
            return holds_path_constraint(env, Agree(psi.lhs, psi.lpath, psi.rhs, psi.rpath))
        if isinstance(psi, SugarSortAt):
            return holds_path_constraint(env, SortAt(psi.sort, psi.var, psi.path))
        if isinstance(psi, Not):
            r = ev(psi.body, env)
            return None if r is None else not r
        if isinstance(psi, (And, Or)):
            # the value that decides the connective: False for &, True for |
            decisive = isinstance(psi, Or)
            out = not decisive
            for arg in psi.args:
                r = ev(arg, env)
                if r is decisive:
                    return decisive
                if r is None:
                    out = None
            return out
        if isinstance(psi, Implies):
            return ev(Or((Not(psi.lhs), psi.rhs)), env)
        if isinstance(psi, Iff):
            a = ev(psi.lhs, env)
            b = ev(psi.rhs, env)
            if a is None or b is None:
                return None
            return a == b
        if isinstance(psi, (Exists, Forall)):
            return block(psi, 0, env)
        raise ValueError(f"cannot evaluate {psi!r}")

    def block(psi, i, env):
        """The block from its i-th variable on, as the nested chain of
        one-variable quantifiers it abbreviates."""
        if i == len(psi.vars):
            return ev(psi.body, env)
        existential = isinstance(psi, Exists)
        for v in copy.copy(candidates):
            if remaining[0] <= 0:
                return None
            remaining[0] -= 1
            inner = dict(env)
            inner[psi.vars[i]] = v
            r = block(psi, i + 1, inner)
            if existential and r is True:
                return True
            if not existential and r is False:
                return False
        return None

    try:
        return ev(phi, dict(alpha))
    finally:
        # ev refers to itself, so its closure outlives this call until the
        # cyclic collector runs: release the candidates now
        candidates = None


# ---------------------------------------------------------------------------
# Reference parser


@dataclass(frozen=True)
class _Token:
    kind: str  # 'uident', 'lident', 'kw', punctuation text, or 'eof'
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<punct>[()~&|=@.,])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1)
            )
        start, end = m.span()
        if m.lastgroup == "ws":
            pos = end
            continue
        if m.lastgroup == "ident":
            word = m.group("ident")
            if word.startswith("_"):
                raise ParseError(
                    "identifiers starting with '_' are reserved",
                    SourceSpan(start, end),
                )
            if word in RESERVED_WORDS:
                kind = "kw"
            elif word[0].isupper():
                kind = "uident"
            else:
                kind = "lident"
            toks.append(_Token(kind, word, start, end))
        elif m.lastgroup == "iff":
            toks.append(_Token("<->", "<->", start, end))
        elif m.lastgroup == "imp":
            toks.append(_Token("->", "->", start, end))
        else:
            toks.append(_Token(m.group("punct"), m.group("punct"), start, end))
        pos = end
    toks.append(_Token("eof", "", n, n))
    return toks


def _reference_block(node, vs, body):
    if isinstance(body, node):
        return node((*vs, *body.vars), body.body)
    return node(tuple(vs), body)


class _ReferenceParser:
    def __init__(self, sym: Symbols, text: str):
        self.sym = sym
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

    def parse(self):
        phi = self.parse_iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.span)
        return phi

    def parse_iff(self):
        lhs = self.parse_implies()
        if self.peek().kind == "<->":
            self.next()
            return Iff(lhs, self.parse_iff())
        return lhs

    def parse_implies(self):
        lhs = self.parse_or()
        if self.peek().kind == "->":
            self.next()
            return Implies(lhs, self.parse_implies())
        return lhs

    def parse_or(self):
        return self.parse_chain(Or, "|", self.parse_and)

    def parse_and(self):
        return self.parse_chain(And, "&", self.parse_unary)

    def parse_chain(self, node, op: str, operand):
        first = operand()
        if self.peek().kind != op:
            return first
        args = [first]
        while self.peek().kind == op:
            self.next()
            args.append(operand())
        return node(tuple(args))

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            return Not(self.parse_unary())
        if tok.kind == "kw" and tok.text in ("exists", "forall"):
            self.next()
            names = [self.parse_var()]
            while self.peek().kind == ",":
                self.next()
                names.append(self.parse_var())
            self.expect(".", "'.' after quantified variables")
            node = Exists if tok.text == "exists" else Forall
            return _reference_block(node, names, self.parse_iff())
        return self.parse_primary()

    def parse_var(self) -> VarId:
        tok = self.expect("lident", "a variable")
        return self.sym.var(tok.text)

    def parse_feat(self) -> FeatId:
        tok = self.expect("lident", "a feature")
        return self.sym.feat(tok.text)

    def parse_path(self) -> Path:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "eps":
            self.next()
            if self.peek().kind == ".":
                raise self.fail("'eps' stands alone as a path")
            return EPS
        feats = [self.parse_feat()]
        while self.peek().kind == ".":
            self.next()
            feats.append(self.parse_feat())
        return Path(tuple(feats))

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            phi = self.parse_iff()
            self.expect(")", "')'")
            return phi
        if tok.kind == "kw" and tok.text == "true":
            self.next()
            return TOP
        if tok.kind == "kw" and tok.text == "false":
            self.next()
            return BOTTOM
        if tok.kind == "kw" and tok.text == "undef":
            self.next()
            self.expect("(", "'(' after undef")
            v = self.parse_var()
            self.expect(",", "','")
            f = self.parse_feat()
            self.expect(")", "')'")
            return Atomic(Excl(v, f))
        if tok.kind == "uident":
            self.next()
            sort = self.sym.sort(tok.text)
            nxt = self.peek()
            if nxt.kind == "(":
                self.next()
                v = self.parse_var()
                self.expect(")", "')'")
                return Atomic(SortC(sort, v))
            if nxt.kind == "@":
                self.next()
                v = self.parse_var()
                self.expect(".", "'.' before the path")
                p = self.parse_path()
                return SugarSortAt(sort, v, p)
            raise self.fail("expected '(' or '@' after a sort name")
        if tok.kind == "lident":
            self.next()
            nxt = self.peek()
            if nxt.kind == "(":
                feat = self.sym.feat(tok.text)
                self.next()
                a = self.parse_var()
                self.expect(",", "','")
                b = self.parse_var()
                self.expect(")", "')'")
                return Atomic(FeatC(a, feat, b))
            if nxt.kind == "=":
                self.next()
                rhs = self.parse_var()
                if self.peek().kind == ".":
                    raise self.fail(
                        "equations relate plain variables; "
                        "write x.eps = y.p for path agreement"
                    )
                return Atomic(Eq(self.sym.var(tok.text), rhs))
            if nxt.kind == ".":
                self.next()
                lpath = self.parse_path()
                self.expect("=", "'=' in a path agreement")
                rhs = self.parse_var()
                self.expect(".", "'.' before the right-hand path")
                rpath = self.parse_path()
                return SugarAgree(self.sym.var(tok.text), lpath, rhs, rpath)
            raise self.fail("expected '(', '=' or '.' after an identifier")
        raise self.fail("expected a formula")


def reference_parse(sym: Symbols, text: str):
    """``parse_formula`` as a token-record tokenizer, matching one token
    at a time after skipping whitespace as its own match, and a
    recursive-descent parser over those records."""
    return _ReferenceParser(sym, text).parse()


def canonical_formula(phi):
    """Reorder conjunction and disjunction chains into a fixed form.

    Used to compare formulae modulo associativity and commutativity of
    the two lattice connectives; a quantifier block whose body is a
    block of the same kind merges with it, and everything else is
    untouched.
    """
    if isinstance(phi, (And, Or)):
        node = type(phi)
        parts = []
        for arg in phi.args:
            arg = canonical_formula(arg)
            parts.extend(arg.args if isinstance(arg, node) else (arg,))
        parts.sort(key=print_formula)
        return node(tuple(parts))
    if isinstance(phi, Not):
        return Not(canonical_formula(phi.body))
    if isinstance(phi, (Implies, Iff)):
        return type(phi)(canonical_formula(phi.lhs), canonical_formula(phi.rhs))
    if isinstance(phi, (Exists, Forall)):
        return _reference_block(type(phi), phi.vars, canonical_formula(phi.body))
    return phi


# ---------------------------------------------------------------------------
# Reference printer: the recursive walk ``print_formula`` was, which
# walks the tree unfolding and builds every node's text anew each time
# the node is reached.

_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NOT = 5
_PREC_ATOM = 6


# Identifiers print by their spelling, ``.name``, which reads it in C;
# formatting one calls ``_Ident.__str__``.
def _atom_str(atom) -> str:
    if isinstance(atom, SortC):
        return f"{atom.sort.name}({atom.var.name})"
    if isinstance(atom, FeatC):
        return f"{atom.feat.name}({atom.src.name}, {atom.dst.name})"
    if isinstance(atom, Eq):
        return f"{atom.lhs.name} = {atom.rhs.name}"
    return f"undef({atom.var.name}, {atom.feat.name})"


def _operand(part: tuple[str, int], min_prec: int) -> str:
    """The text of an operand, parenthesised when it binds looser than
    ``min_prec``."""
    text, prec = part
    return text if prec >= min_prec else f"({text})"


_NARY_OP = {_PREC_AND: " & ", _PREC_OR: " | "}


def _nary_text(prec: int, parts: list[tuple[str, int]]) -> tuple[str, int]:
    """A conjunction (``prec`` is ``_PREC_AND``) or disjunction of the
    rendered operands: the first at the connective's own precedence, the
    rest one level higher, so a left-nested chain prints unparenthesised."""
    first, *rest = parts
    return _NARY_OP[prec].join(
        [_operand(first, prec)] + [_operand(part, prec + 1) for part in rest]
    ), prec


def _quantified_text(word: str, names, body: tuple[str, int]) -> tuple[str, int]:
    """A quantifier block over the variable spellings ``names``; a binary
    connective as its body is parenthesised."""
    text, prec = body
    if _PREC_IFF <= prec <= _PREC_AND:
        text = f"({text})"
    return f"{word} {', '.join(names)}. {text}", 0


def _render(phi: Formula) -> tuple[str, int]:
    if isinstance(phi, Top):
        return "true", _PREC_ATOM
    if isinstance(phi, Bottom):
        return "false", _PREC_ATOM
    if isinstance(phi, Atomic):
        return _atom_str(phi.atom), _PREC_ATOM
    if isinstance(phi, SugarAgree):
        return f"{phi.lhs.name}.{phi.lpath} = {phi.rhs.name}.{phi.rpath}", _PREC_ATOM
    if isinstance(phi, SugarSortAt):
        return f"{phi.sort.name}@{phi.var.name}.{phi.path}", _PREC_ATOM
    if isinstance(phi, Not):
        return "~" + _operand(_render(phi.body), _PREC_NOT), _PREC_NOT
    if isinstance(phi, (And, Or)):
        prec = _PREC_AND if isinstance(phi, And) else _PREC_OR
        return _nary_text(prec, list(map(_render, phi.args)))
    if isinstance(phi, Implies):
        lhs = _operand(_render(phi.lhs), _PREC_IMPLIES + 1)
        return lhs + " -> " + _operand(_render(phi.rhs), _PREC_IMPLIES), _PREC_IMPLIES
    if isinstance(phi, Iff):
        lhs = _operand(_render(phi.lhs), _PREC_IFF + 1)
        return lhs + " <-> " + _operand(_render(phi.rhs), _PREC_IFF), _PREC_IFF
    if isinstance(phi, (Exists, Forall)):
        word = "exists" if isinstance(phi, Exists) else "forall"
        return _quantified_text(word, [v.name for v in phi.vars], _render(phi.body))
    raise ValueError(f"unknown formula node {phi!r}")


def reference_print(phi) -> str:
    """``print_formula`` as the recursive walk of the tree unfolding
    that builds each node's text from its operands', with no table of
    the nodes visited and no bound on the characters built.

    Reparsing yields the same tree, except that a first argument of the
    same connective joins its parent: ``And((And((a, b)), c))`` prints
    as ``a & b & c``, which parses as ``And((a, b, c))``.  Likewise a
    quantifier block prints its own variables and a block of the same
    kind as its body joins it: ``Exists((x,), Exists((y,), b))`` prints
    as ``exists x. exists y. b``, which parses as ``Exists((x, y), b)``.
    """
    return _render(phi)[0]
