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
(``witness_pool``): equal values share a node.  ``pool_satisfies``
checks a prime on the pool and ``witness_to_json`` writes its JSON
straight from it: ``_number``, which numbers every value, numbers its
rows from each variable's node, and no standalone tree is built;
``witness_prime`` builds one tree per variable, quadratically many
nodes on a chain.

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
from typing import Iterable, Iterator, Mapping, Union

from .core import FeatId, Formula, Path, Record, SortId, Symbols, VarId, expand_sugar
from .prime import PrimeFormula, adjacency, holds_at
from .qe import BcAnd, BcNot, BoolComb, ResourceLimit, decide

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


# ---------------------------------------------------------------------------
# Witness construction


class WitnessPool(Record):
    """A valuation as one minimal graph plus one node per variable.

    ``labels`` and ``adj`` are the quotient's sorts and out-edges over
    block ids, edge rows sorted by feature name.  The pool is minimal, so
    two variables have equal tree values exactly when they sit at the
    same node.  ``leaf`` is the node of the default one-node tree.
    """

    labels: dict[int, SortId]
    adj: dict[int, list[tuple[FeatId, int]]]
    node: dict[VarId, int]
    leaf: int

    __hash__ = None  # its tables are dictionaries, which have no hash


# the graph node of the default one-node tree; no variable is a 1-tuple
_LEAF = ("leaf",)


def witness_pool(beta: PrimeFormula, default_sort: SortId) -> WitnessPool:
    """One minimal pool satisfying a prime formula.

    Every variable of the body that the normalizer does not bind is a
    node labeled by its sort or the default, with the graph's edges, so
    a right-hand side outside the graph is a default leaf; one more
    default leaf gives the pool its ``leaf``.  The graph is quotiented
    once, so equal values share one node, and each equation's left-hand
    side takes the node of its right-hand side.  Bound variables get
    nodes too.
    """
    body = beta.body
    labels = {x: body.sorts.get(x, default_sort) for x in body.variables if x not in body.binding}
    labels[_LEAF] = default_sort
    q_labels, q_adj, node = _quotient(list(labels), labels, adjacency(body.edges))
    leaf = node.pop(_LEAF)
    for eq in body.normalizer:
        node[eq.lhs] = node[eq.rhs]
    return WitnessPool(q_labels, q_adj, node, leaf)


def witness_prime(beta: PrimeFormula, default_sort: SortId) -> Valuation:
    """Trees satisfying a prime formula: the trees of ``witness_pool``.

    Bound variables receive values too; their part of the witness is
    determined by the free part anyway, and callers evaluating the body
    need them.  Each tree is numbered on its own, so on a chain the
    trees hold quadratically many nodes in all.  The linear witness is
    the pool itself: ``witness_pool`` builds it, ``pool_satisfies``
    checks a prime on it and ``witness_to_json`` writes it.
    """
    pool = witness_pool(beta, default_sort)
    trees = {b: _tree(b, pool.labels, pool.adj) for b in set(pool.node.values())}
    return {v: trees[b] for v, b in pool.node.items()}


# ---------------------------------------------------------------------------
# Truth of primes


def satisfies_prime(alpha: Mapping[VarId, Value], beta: PrimeFormula) -> bool:
    """Exact satisfaction of a prime formula on its free variables.

    Positions are (value, node) pairs, a free variable at the root of its
    value (``holds_at``).
    """

    def step(at: tuple[Value, int], f: FeatId) -> tuple[Value, int] | None:
        node = _step(at[0], at[1], f)
        return None if node is None else (at[0], node)

    return holds_at(
        beta,
        lambda v: (alpha[v], 0),
        step,
        lambda at, sort: at[0].labels[at[1]] == sort,
        lambda a, b: _same_subvalue(*a, *b),
    )


def pool_satisfies(pool: WitnessPool, beta: PrimeFormula) -> bool:
    """Exact satisfaction of a prime formula by the pool's valuation.

    Positions are pool nodes, a free variable at its own node
    (``holds_at``); in one minimal pool, equal nodes are equal values.
    """
    steps = {(b, f): w for b, row in pool.adj.items() for f, w in row}
    return holds_at(
        beta,
        pool.node.__getitem__,
        lambda b, f: steps.get((b, f)),
        lambda b, sort: pool.labels[b] == sort,
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
    """Exact truth of a Boolean combination of primes, short-circuiting.

    A residue shares its subcombinations, so its unfolding as a tree can
    be exponential in its size: each node is judged once per call.
    """
    known: dict[BoolComb, bool] = {}

    def holds(node: BoolComb) -> bool:
        got = known.get(node)
        if got is None:
            if isinstance(node, PrimeFormula):
                got = satisfies_prime(alpha, node)
            elif isinstance(node, BcNot):
                got = not holds(node.arg)
            elif isinstance(node, BcAnd):
                got = all(map(holds, node.args))
            else:
                got = any(map(holds, node.args))
            known[node] = got
        return got

    try:
        return holds(delta)
    finally:
        # holds refers to itself: deleting it breaks the cycle
        del holds


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
    that pass them.  A free variable of the residue that alpha gives no
    value is a ``ValueError``, even where the answer would not read it;
    one the residue drops, as in ``x = x``, needs no value.
    """
    if kind not in ("tree", "graph"):
        raise ValueError("kind must be 'tree' or 'graph'")
    try:
        delta = decide(expand_sugar(phi))
    except ResourceLimit:
        return None
    missing = delta.free_vars.difference(alpha)
    if missing:
        raise ValueError(f"no value for {', '.join(v.name for v in sorted(missing))}")
    return _holds(alpha, delta)


# ---------------------------------------------------------------------------
# JSON serialization
#
# A valuation is written as one node pool in three rows: the sort of
# each node (None for an unlabeled graph node), the edges as
# (src, feature, dst) in that order, and the node of each variable.


def _json_pool(rows: Iterable[tuple]) -> tuple[list, list, dict]:
    """Pool ``(name, key, labels, edges)`` rows given in name order: a
    new key opens a block and each name maps to its key's offset.
    Blocks come in turn and rows are sorted by feature, so the edges
    are in (src, feature, dst) order."""
    offsets: dict = {}
    sorts: list[Label] = []
    edges: list[tuple[int, FeatId, int]] = []
    where: dict = {}
    for name, key, labels, out in rows:
        offset = offsets.get(key)
        if offset is None:
            offset = offsets[key] = len(sorts)
            sorts.extend(labels)
            edges.extend((offset + i, f, offset + j) for i, row in enumerate(out) for f, j in row)
        where[name] = offset
    return sorts, edges, where


def _json_doc(sorts: list[Label], edges: list, where: dict) -> dict:
    """The ``nodes``, ``edges`` and ``vars`` document of a pool's rows."""
    return {
        "nodes": [{"id": i, "sort": s.name} if s else {"id": i} for i, s in enumerate(sorts)],
        "edges": [{"src": s, "feature": f.name, "dst": d} for s, f, d in edges],
        "vars": where,
    }


def value_to_json(v: Value) -> dict:
    """The document of one value, its root in front in place of ``vars``."""
    doc = _json_doc(*_json_pool([("root", v, v.labels, v.edges)]))
    return {"root": doc.pop("vars")["root"], **doc}


def valuation_to_json(alpha: Mapping[VarId, Value]) -> dict:
    """One shared node pool; equal values share their block of nodes."""
    rows = ((v.name, value, value.labels, value.edges) for v, value in sorted(alpha.items()))
    return _json_doc(*_json_pool(rows))


def _witness_rows(pool: WitnessPool, roots: Mapping[VarId, int]) -> tuple[list, list, dict]:
    """The rows ``valuation_to_json`` gives the trees at the roots: each
    distinct root is numbered once by ``_number``, as a standalone tree
    is, and pooled under the root, so equal nodes (equal trees) share a
    block."""
    rows = {b: _number(b, pool.labels, pool.adj) for b in set(roots.values())}
    return _json_pool((v.name, roots[v], *rows[roots[v]]) for v in sorted(roots))


def witness_to_json(pool: WitnessPool, roots: Mapping[VarId, int]) -> dict:
    """``valuation_to_json`` of the trees at the given pool nodes, built
    without a standalone tree."""
    return _json_doc(*_witness_rows(pool, roots))


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
