"""Feature trees, feature graphs, witnesses, and an exact evaluator.

A feature tree is a sort-labeled, feature-deterministic rooted value;
only the rational ones (finitely many distinct subtrees) are
representable here, as finite rooted graphs.  Two representations
denote the same tree exactly when their roots are bisimilar, so a
standalone tree value is minimized and canonically numbered when it is
built, and equality is plain structural equality.  Feature graphs keep
their node structure: they are identified up to renaming only,
implemented by the same canonical numbering without minimization, and
their nodes may lack sort labels.

A witness is one minimal graph with a node per variable
(``WitnessPool``): equal values share a node, and no standalone tree is
numbered unless a caller asks for one (``witness_prime``).  Its JSON is
written straight from the pool.

Both kinds of value support exact evaluation of every formula:
quantifier elimination reduces it to a Boolean combination of prime
formulae, and each prime is checked on its finite projection, in one
walk of its body.  The answer is None only when elimination exceeds
its clause bound.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Union

from .core import FeatId, Formula, Path, Record, SortId, Symbols, VarId
from .paths import Agree, PathConstraint, Reach, SortAt
from .prime import Position, PrimeFormula, adjacency, positions
from .qe import BcAnd, BcNot, BoolComb, PrimeLeaf, ResourceLimit, decide
from .solve import SolvedClause, constrained_vars
from .textio import expand_sugar

Label = Union[SortId, None]
EdgeRow = tuple[tuple[FeatId, int], ...]


class FeatureTree(Record):
    """Canonical minimal representation of a rational feature tree.

    Node 0 is the root; every node carries a sort and the per-node edge
    rows are sorted by feature name.  Distinct values denote distinct
    trees, so ``==`` is tree equality.
    """

    labels: tuple[SortId, ...]
    edges: tuple[EdgeRow, ...]


class FeatureGraph(Record):
    """Canonical representative of a feature graph (labels optional).

    The identification up to renaming is load-bearing.  Were rooted
    clause representations taken literally as values, two values could
    pin incompatible constraints on one shared root name: f(x, y) and
    g(x, z) would then have no solution for y and z chosen as literal
    representations sharing a root that carries clashing sorts, since a
    single clause cannot hold both.  The quotient removes exactly that
    obstacle, and with it the solved-clause satisfiability principle
    holds in this structure.
    """

    labels: tuple[Label, ...]
    edges: tuple[EdgeRow, ...]


Value = Union[FeatureTree, FeatureGraph]
Valuation = dict[VarId, Value]


def _preorder(root, adj: Mapping) -> list:
    """Nodes reachable from the root, depth-first, features in name order."""
    order = [root]
    seen = {root}
    stack = [iter(adj.get(root, ()))]
    while stack:
        for _f, w in stack[-1]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                stack.append(iter(adj.get(w, ())))
                break
        else:
            stack.pop()
    return order


def _number(root, labels: Mapping, adj: Mapping) -> tuple[tuple, tuple]:
    """Canonical rows: nodes numbered in depth-first preorder."""
    order = _preorder(root, adj)
    index = {u: i for i, u in enumerate(order)}
    out_labels = tuple(labels.get(u) for u in order)
    out_edges = tuple(tuple((f, index[w]) for f, w in adj.get(u, ())) for u in order)
    return out_labels, out_edges


def _quotient(nodes: list, labels: Mapping, adj: Mapping) -> tuple[dict, dict, dict]:
    """Quotient by bisimilarity via partition refinement.

    Blocks are integer ids, first one per label and features, then
    split by the blocks of the successors until no block splits.  The
    members of a block that are not re-keyed share the block's recorded
    successor key, so a round re-keys only the predecessors of the nodes
    that moved in the round before; a block whose members are all
    re-keyed takes the key of the first of them.  Returns the quotient's
    labels and adjacency over block ids, and the block of every node.
    """
    preds: dict = {n: [] for n in nodes}
    for n in nodes:
        for _f, w in adj.get(n, ()):
            preds[w].append(n)
    ids: dict = {}
    block = {
        n: ids.setdefault((labels.get(n), tuple(f for f, _ in adj.get(n, ()))), len(ids))
        for n in nodes
    }
    size = Counter(block.values())
    key: dict[int, tuple] = {}
    dirty = nodes
    while dirty:
        succ = [tuple(block[w] for _f, w in adj.get(n, ())) for n in dirty]
        for b, k in Counter(block[n] for n in dirty).items():
            if k == size[b]:
                key.pop(b, None)
        split: dict = {}
        moved = []
        for n, s in zip(dirty, succ):
            b = block[n]
            if key.setdefault(b, s) != s:
                if (b, s) not in split:
                    split[(b, s)] = c = len(size)
                    key[c] = s
                    size[c] = 0
                block[n] = c = split[(b, s)]
                size[b] -= 1
                size[c] += 1
                moved.append(n)
        dirty = list(dict.fromkeys(p for n in moved for p in preds[n]))
    q_labels: dict = {}
    q_adj: dict = {}
    for n in nodes:
        b = block[n]
        if b not in q_labels:
            q_labels[b] = labels.get(n)
            q_adj[b] = [(f, block[w]) for f, w in adj.get(n, ())]
    return q_labels, q_adj, block


def _tree(root, labels: Mapping, adj: Mapping) -> FeatureTree:
    out_labels, out_edges = _number(root, labels, adj)
    if any(lab is None for lab in out_labels):
        raise ValueError("feature trees need a sort on every node")
    return FeatureTree(out_labels, out_edges)


def feature_tree(root, labels: Mapping, edges: Mapping) -> FeatureTree:
    """Build a tree value from node maps; nodes unreachable from the
    root are discarded and the rest must be totally labeled."""
    adj = adjacency(edges)
    q_labels, q_adj, block = _quotient(_preorder(root, adj), labels, adj)
    return _tree(block[root], q_labels, q_adj)


def feature_graph(root, labels: Mapping, edges: Mapping) -> FeatureGraph:
    return FeatureGraph(*_number(root, labels, adjacency(edges)))


def single_node_tree(sort: SortId) -> FeatureTree:
    return FeatureTree((sort,), ((),))


def _reroot(v: Value, node: int) -> Value:
    """The value rooted at one of its nodes, numbered canonically.

    A sub-rooted part of a minimal value is minimal, so trees need no
    second quotient: renumbering from the new root is enough.
    """
    labels = dict(enumerate(v.labels))
    adj = dict(enumerate(v.edges))
    return type(v)(*_number(node, labels, adj))


def graph_canonical(g: FeatureGraph) -> FeatureGraph:
    """Canonical form under consistent node renaming (idempotent)."""
    return _reroot(g, 0)


def pregraph_to_graph(root: VarId, clause: SolvedClause) -> FeatureGraph:
    """The feature graph rooted at a variable of an exclusion-free clause."""
    if clause.exclusions:
        raise ValueError("feature graphs come from clauses without exclusions")
    return feature_graph(root, clause.sorts, clause.edges)


def root_sort(v: Value) -> Label:
    return v.labels[0]


def subvalue(v: Value, f: FeatId) -> Value | None:
    """The direct subvalue at a feature, re-rooted canonically."""
    return walk_value(v, Path((f,)))


def _step(v: Value, node: int, f: FeatId) -> int | None:
    """The node one feature from a node, None off the domain.

    Edge rows are sorted by feature name, so the step bisects the row.
    """
    row = v.edges[node]
    i = bisect_left(row, f, key=itemgetter(0))
    if i == len(row) or row[i][0] != f:
        return None
    return row[i][1]


def _walk(v: Value, p: Path) -> int | None:
    """The node at the end of a path from the root, None off the domain."""
    node: int | None = 0
    for f in p.feats:
        if node is None:
            return None
        node = _step(v, node, f)
    return node


def walk_value(v: Value, p: Path) -> Value | None:
    """The subvalue at the end of a path: walk node indices, re-root once."""
    node = _walk(v, p)
    if node is None:
        return None
    return v if node == 0 else _reroot(v, node)


def _same_subvalue(a: Value, i: int, b: Value, j: int) -> bool:
    """Whether node i of a and node j of b root the same value.

    A node of a value roots the same value as itself.  Distinct nodes of
    a minimal tree are distinct trees, so inside one tree value the
    nodes are compared; otherwise both sides are re-rooted.
    """
    if a is b and i == j:
        return True
    if isinstance(a, FeatureTree) and a == b:
        return i == j
    return (a if i == 0 else _reroot(a, i)) == (b if j == 0 else _reroot(b, j))


def tree_subtree(t: FeatureTree, p: Path) -> FeatureTree | None:
    """Subtree at a path, None when the path leaves the domain."""
    out = walk_value(t, p)
    assert out is None or isinstance(out, FeatureTree)
    return out


def subvalues(v: Value) -> set[Value]:
    """All distinct sub-rooted values (for trees: the distinct subtrees)."""
    return {_reroot(v, node) for node in range(len(v.labels))}


# ---------------------------------------------------------------------------
# Witness construction


class WitnessPool:
    """A valuation as one minimal graph plus one node per variable.

    ``labels`` and ``adj`` are the quotient's sorts and out-edges over
    block ids, edge rows sorted by feature name.  The pool is minimal, so
    two variables have equal tree values exactly when they sit at the
    same node.  ``leaf`` is the node of the default one-node tree.  A
    plain class, not a ``Record``: its tables are dictionaries, which
    have no hash.
    """

    __slots__ = ("labels", "adj", "node", "leaf")

    def __init__(
        self,
        labels: dict[int, SortId],
        adj: dict[int, list[tuple[FeatId, int]]],
        node: dict[VarId, int],
        leaf: int,
    ) -> None:
        self.labels = labels
        self.adj = adj
        self.node = node
        self.leaf = leaf


# the graph node of the default one-node tree; no variable or grafted
# parameter node is a 1-tuple
_LEAF = ("leaf",)


def _clause_graph(
    delta: SolvedClause, params: Mapping[VarId, FeatureTree], default_sort: SortId
) -> tuple[dict, dict]:
    """The graph of a solved clause with parameter trees grafted on.

    Every other variable of the clause is a node labeled by its sort or
    the default; node i of parameter y's tree is the node ``(y, i)``,
    and an edge to y goes to the root of y's tree.  Exclusions hold
    because the clause admits no edge beside them.
    """
    labels: dict = {
        x: delta.sorts.get(x, default_sort) for x in delta.variables if x not in params
    }
    edges: dict = {}
    for y, tree in params.items():
        for i, lab in enumerate(tree.labels):
            labels[(y, i)] = lab
        for i, row in enumerate(tree.edges):
            for f, j in row:
                edges[((y, i), f)] = (y, j)
    for (x, f), y in delta.edges.items():
        edges[(x, f)] = (y, 0) if y in params else y
    return labels, edges


def _trees(labels: Mapping, adj: Mapping, node: Mapping) -> dict:
    """The standalone tree at each variable's node, one per node."""
    trees: dict = {}
    out: dict = {}
    for v, b in node.items():
        if b not in trees:
            trees[b] = _tree(b, labels, adj)
        out[v] = trees[b]
    return out


def witness_solved_clause(
    delta: SolvedClause,
    params: Mapping[VarId, FeatureTree],
    default_sort: SortId,
) -> Valuation:
    """Trees satisfying a solved clause, for given parameter trees.

    Every constrained variable becomes a node labeled by its sort (or
    the default), edges follow the clause, and parameter positions graft
    the supplied parameter trees (``_clause_graph``).  The result maps
    constrained variables to rational trees and passes the parameters
    through unchanged.  The whole graph is quotiented once; each
    variable's tree is the quotient renumbered from its node.
    """
    cv = constrained_vars(delta)
    pvars = set(delta.variables) - cv
    missing = sorted(v.name for v in pvars if v not in params)
    if missing:
        raise ValueError(f"no parameter trees for: {', '.join(missing)}")
    given = {y: params[y] for y in pvars}
    labels, edges = _clause_graph(delta, given, default_sort)
    q_labels, q_adj, block = _quotient(list(labels), labels, adjacency(edges))
    out: Valuation = dict(given)
    out.update(_trees(q_labels, q_adj, {x: block[x] for x in cv}))
    return out


def witness_pool(beta: PrimeFormula, default_sort: SortId) -> WitnessPool:
    """One minimal pool satisfying a prime formula.

    The graph of the body is witnessed as a solved clause whose
    unconstrained variables, and the right-hand sides of the normalizer
    outside it, are default leaves; one more default leaf gives the pool
    its ``leaf``.  The graph is quotiented once, so equal values share
    one node, and each equation's left-hand side takes the node of its
    right-hand side.  Bound variables get nodes too.
    """
    body = beta.body
    labels, edges = _clause_graph(SolvedClause(body.graph), {}, default_sort)
    for eq in body.normalizer:
        labels.setdefault(eq.rhs, default_sort)
    labels[_LEAF] = default_sort
    q_labels, q_adj, node = _quotient(list(labels), labels, adjacency(edges))
    leaf = node.pop(_LEAF)
    for eq in body.normalizer:
        node[eq.lhs] = node[eq.rhs]
    return WitnessPool(q_labels, q_adj, node, leaf)


def witness_prime(beta: PrimeFormula, default_sort: SortId) -> Valuation:
    """Trees satisfying a prime formula: the trees of ``witness_pool``.

    Bound variables receive values too; their part of the witness is
    determined by the free part anyway, and callers evaluating the body
    need them.  Each tree is numbered on its own, so on a chain the
    trees hold quadratically many nodes in all; ``witness_pool`` is
    linear.
    """
    pool = witness_pool(beta, default_sort)
    return _trees(pool.labels, pool.adj, pool.node)


# ---------------------------------------------------------------------------
# Truth of path constraints and primes


def holds_path_constraint(alpha: Mapping[VarId, Value], pi: PathConstraint) -> bool:
    """Exact truth of a path constraint under a valuation."""
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


def _walk_prime(
    beta: PrimeFormula,
    start: Callable[[VarId], Position],
    step: Callable[[Position, FeatId], Position | None],
    label: Callable[[Position], Label],
    same: Callable[[Position, Position], bool],
) -> bool:
    """Whether a prime holds where ``start`` puts its free variables.

    A prime formula is equivalent to its projection, a finite
    conjunction of proper path constraints over free variables only, so
    no quantifier enumeration is needed.  The projection is checked in
    one walk of the body: each variable gets the position its access
    path leads to (``positions``), and then each equation, sort and edge
    is one comparison.
    """
    pos = positions(beta, start, step)
    if pos is None:
        return False
    body = beta.body

    def edge_holds(u: VarId, f: FeatId, w: VarId) -> bool:
        at = step(pos[u], f)
        return at is not None and same(at, pos[w])

    return (
        all(same(pos[eq.lhs], pos[eq.rhs]) for eq in body.normalizer)
        and all(label(pos[v]) == sort for v, sort in body.sorts.items())
        and all(edge_holds(u, f, w) for (u, f), w in body.edges.items())
    )


def satisfies_prime(alpha: Mapping[VarId, Value], beta: PrimeFormula) -> bool:
    """Exact satisfaction of a prime formula on its free variables.

    Positions are (value, node) pairs, a free variable at the root of its
    value (``_walk_prime``).
    """

    def step(at: tuple[Value, int], f: FeatId) -> tuple[Value, int] | None:
        node = _step(at[0], at[1], f)
        return None if node is None else (at[0], node)

    return _walk_prime(
        beta,
        lambda v: (alpha[v], 0),
        step,
        lambda at: at[0].labels[at[1]],
        lambda a, b: _same_subvalue(*a, *b),
    )


def pool_satisfies(pool: WitnessPool, beta: PrimeFormula) -> bool:
    """Exact satisfaction of a prime formula by the pool's valuation.

    Positions are pool nodes, a free variable at its own node
    (``_walk_prime``); in one minimal pool, equal nodes are equal values.
    """
    steps = {(b, f): w for b, row in pool.adj.items() for f, w in row}
    return _walk_prime(
        beta,
        pool.node.__getitem__,
        lambda b, f: steps.get((b, f)),
        pool.labels.__getitem__,
        operator.eq,
    )


# ---------------------------------------------------------------------------
# Value enumeration


def _shapes(k: int, feats: list[FeatId]) -> Iterator[dict]:
    """Edge structures on nodes 0..k-1 numbered in discovery order.

    Slots are scanned breadth-first; a target is either absent, an
    already known node, or the next new node.  Each isomorphism class of
    reachable deterministic rooted structures on exactly k nodes shows
    up once.
    """
    m = len(feats)

    def rec(node: int, slot: int, created: int, edges: dict) -> Iterator[dict]:
        if node == created:
            if created == k:
                yield dict(edges)
            return
        if slot == m:
            yield from rec(node + 1, 0, created, edges)
            return
        yield from rec(node, slot + 1, created, edges)
        for tgt in range(created):
            edges[(node, feats[slot])] = tgt
            yield from rec(node, slot + 1, created, edges)
            del edges[(node, feats[slot])]
        if created < k:
            edges[(node, feats[slot])] = created
            yield from rec(node, slot + 1, created + 1, edges)
            del edges[(node, feats[slot])]

    try:
        yield from rec(0, 0, 1, {})
    finally:
        # rec refers to itself: deleting it breaks the cycle
        del rec


def enumerate_values(
    kind: str,
    sorts: Iterable[SortId],
    feats: Iterable[FeatId],
    max_nodes: int,
) -> Iterator[Value]:
    """Stream canonical values over finite alphabets, smallest first.

    Tree values may coincide after minimization, so duplicates are
    filtered.  The stream can be very long for larger bounds; consumers
    are expected to impose their own budget.
    """
    sorts = sorted(set(sorts))
    feats = sorted(set(feats))
    if kind == "tree":
        options: list[Label] = list(sorts)
    elif kind == "graph":
        options = [None] + list(sorts)
    else:
        raise ValueError("kind must be 'tree' or 'graph'")
    if not options:
        return
    seen: set[Value] = set()
    for k in range(1, max_nodes + 1):
        for edges in _shapes(k, feats):
            for labeling in itertools.product(options, repeat=k):
                labels = dict(enumerate(labeling))
                try:
                    if kind == "tree":
                        v: Value = feature_tree(0, labels, edges)
                    else:
                        v = feature_graph(0, labels, edges)
                except ValueError:
                    continue
                if v not in seen:
                    seen.add(v)
                    yield v


# ---------------------------------------------------------------------------
# Evaluation


def _holds(alpha: Mapping[VarId, Value], delta: BoolComb) -> bool:
    """Exact truth of a Boolean combination of primes, short-circuiting."""
    if isinstance(delta, PrimeLeaf):
        return satisfies_prime(alpha, delta.beta)
    if isinstance(delta, BcNot):
        return not _holds(alpha, delta.arg)
    if isinstance(delta, BcAnd):
        return all(_holds(alpha, a) for a in delta.args)
    return any(_holds(alpha, a) for a in delta.args)


def evaluate(
    sym: Symbols,
    kind: str,
    alpha: Mapping[VarId, Value],
    phi: Formula,
    node_bound: int = 4,
    budget: int = 20000,
) -> bool | None:
    """Exact evaluation through quantifier elimination; None only when
    elimination exceeds its clause bound.

    Trees, rational trees and feature graphs are elementarily equivalent
    models of the theory, and ``decide`` is an equivalence in the
    theory, so phi holds under alpha exactly when its quantifier-free
    residue does, one ``satisfies_prime`` per prime leaf.  The names
    that sugar expansion and elimination introduce are bound where they
    are made, so they capture no variable of phi or alpha.  ``sym``,
    ``node_bound`` and ``budget`` are not read; they stay for callers
    that pass them.
    """
    if kind not in ("tree", "graph"):
        raise ValueError("kind must be 'tree' or 'graph'")
    try:
        delta = decide(expand_sugar(phi))
    except ResourceLimit:
        return None
    return _holds(alpha, delta)


# ---------------------------------------------------------------------------
# JSON serialization
#
# A valuation is written as one node pool in three rows: the sort of
# each node (None for an unlabeled graph node), the edges as
# (src, feature, dst) in that order, and the node of each variable.


def _json_pool(values: Iterable[Value]) -> tuple[list, list, dict]:
    """The rows of the values in turn; equal values share a block."""
    blocks: dict[Value, int] = {}
    sorts: list[Label] = []
    edges: list[tuple[int, FeatId, int]] = []
    for value in values:
        if value in blocks:
            continue
        offset = blocks[value] = len(sorts)
        sorts.extend(value.labels)
        edges.extend(
            (offset + i, f, offset + j) for i, row in enumerate(value.edges) for f, j in row
        )
    edges.sort()
    return sorts, edges, blocks


def _json_rows(sorts: list[Label], edges: list) -> tuple[list, list]:
    """The ``nodes`` and ``edges`` documents of two rows."""
    nodes = [
        {"id": i} if lab is None else {"id": i, "sort": lab.name} for i, lab in enumerate(sorts)
    ]
    return nodes, [{"src": s, "feature": f.name, "dst": d} for s, f, d in edges]


def value_to_json(v: Value) -> dict:
    nodes, edges = _json_rows(*_json_pool([v])[:2])
    return {"root": 0, "nodes": nodes, "edges": edges}


def valuation_to_json(alpha: Mapping[VarId, Value]) -> dict:
    """One shared node pool; equal values share their block of nodes."""
    names = sorted(alpha)
    sorts, edges, blocks = _json_pool(alpha[v] for v in names)
    nodes, edge_docs = _json_rows(sorts, edges)
    return {"nodes": nodes, "edges": edge_docs, "vars": {v.name: blocks[alpha[v]] for v in names}}


def _witness_rows(pool: WitnessPool, roots: Mapping[VarId, int]) -> tuple[list, list, dict]:
    """The rows ``valuation_to_json`` gives the trees at the roots.

    For each variable in name order, a node not seen before opens a
    block, numbered in the depth-first preorder of ``_number``; equal
    nodes are equal trees and share the block.  Edges come out in
    (src, feature, dst) order, because sources are numbered in turn and
    each row is sorted by feature.
    """
    labels, adj = pool.labels, pool.adj
    offsets: dict[int, int] = {}
    sorts: list[SortId] = []
    edges: list[tuple[int, FeatId, int]] = []
    where: dict[str, int] = {}
    for v in sorted(roots):
        root = roots[v]
        if root not in offsets:
            offset = offsets[root] = len(sorts)
            order = _preorder(root, adj)
            index = {u: offset + i for i, u in enumerate(order)}
            for u in order:
                sorts.append(labels[u])
                src = index[u]
                edges.extend((src, f, index[w]) for f, w in adj.get(u, ()))
        where[v.name] = offsets[root]
    return sorts, edges, where


def witness_to_json(pool: WitnessPool, roots: Mapping[VarId, int]) -> dict:
    """``valuation_to_json`` of the trees at the given pool nodes, built
    without a standalone tree."""
    sorts, edges, where = _witness_rows(pool, roots)
    nodes, edge_docs = _json_rows(sorts, edges)
    return {"nodes": nodes, "edges": edge_docs, "vars": where}


def _json_items(items: list[str], brackets: str) -> str:
    """A top-level list or map of ``indent=2`` layout: its items one per
    line, or the empty brackets."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n  {brackets[1]}"


def witness_to_json_text(pool: WitnessPool, roots: Mapping[VarId, int]) -> str:
    """``json.dumps(witness_to_json(pool, roots), indent=2, sort_keys=True)``,
    written straight from the rows in that fixed layout.

    Names go through ``json.dumps``, so they are escaped as there.
    """
    from json import dumps  # not on import: ``import featlog`` does not load json

    sorts, edges, where = _witness_rows(pool, roots)
    feat = {f: dumps(f.name) for f in {e[1] for e in edges}}
    sort = {s: dumps(s.name) for s in set(sorts)}
    edge_items = [
        f'    {{\n      "dst": {d},\n      "feature": {feat[f]},\n      "src": {s}\n    }}'
        for s, f, d in edges
    ]
    node_items = [
        f'    {{\n      "id": {i},\n      "sort": {sort[s]}\n    }}' for i, s in enumerate(sorts)
    ]
    var_items = [f"    {dumps(name)}: {at}" for name, at in where.items()]
    return (
        f'{{\n  "edges": {_json_items(edge_items, "[]")},'
        f'\n  "nodes": {_json_items(node_items, "[]")},'
        f'\n  "vars": {_json_items(var_items, "{}")}\n}}'
    )
