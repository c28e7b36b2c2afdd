"""Solved forms and the basic simplification engine.

A conjunction of sort, feature, and equation atoms is rewritten to an
equivalent solved formula or to ``false``.  The five rules:

    1. f(x,y) & f(x,z) & rest   =>  f(x,z) & y = z & rest
    2. A(x) & B(x) & rest       =>  false                     (A distinct from B)
    3. A(x) & A(x) & rest       =>  A(x) & rest
    4. x = y & rest             =>  x = y & rest[x := y]      (x in rest, x /= y)
    5. x = x & rest             =>  rest

Rules never add variables and preserve equivalence over every structure
with functional features and disjoint sorts, so the result describes the
same solutions as the input.  A formula is solved exactly when no rule
applies: every equation's left-hand variable occurs nowhere else, and
the remaining atoms form a solved clause (no duplicates, at most one
sort per variable, deterministic features, no edge next to a matching
exclusion).

The rules are the specification.  ``solve_atoms``, the one builder of
solved forms and primes, implements them by congruence closure over a
union-find of variables (Ait-Kaci & Nasr 1986; Ait-Kaci, Podelski &
Smolka 1994), whose fixed point is unique up to the variable that
represents each class: after x = y the class of y represents x, and of
two merged edges the later one in the input stays.
"""

from __future__ import annotations

from itertools import count, filterfalse
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence, Union

from .core import (
    BOTTOM,
    Atom,
    Atomic,
    BasicFormula,
    Bottom,
    Eq,
    Excl,
    Exists,
    FeatC,
    FeatId,
    Formula,
    Record,
    SortC,
    SortId,
    Top,
    VarId,
    And,
    atom_key,
    atom_vars,
    cached_field,
    conj,
    rename_atom,
)

ClauseAtom = Union[SortC, FeatC, Excl]
GraphAtom = Union[SortC, FeatC]


class SolvedClause(Record):
    """Duplicate-free sort/feature/exclusion atoms with deterministic edges."""

    atoms: tuple[ClauseAtom, ...]

    @classmethod
    def from_atoms(cls, atoms: Iterable[ClauseAtom]) -> "SolvedClause":
        clause = cls(tuple(atoms))
        if not is_solved_clause(clause.atoms):
            raise ValueError("atoms do not form a solved clause")
        return clause

    @cached_field
    def edges(self) -> dict[tuple[VarId, FeatId], VarId]:
        return {(a.src, a.feat): a.dst for a in self.atoms if isinstance(a, FeatC)}

    @cached_field
    def sorts(self) -> dict[VarId, SortId]:
        return {a.var: a.sort for a in self.atoms if isinstance(a, SortC)}

    @cached_field
    def exclusions(self) -> frozenset[tuple[VarId, FeatId]]:
        return frozenset((a.var, a.feat) for a in self.atoms if isinstance(a, Excl))

    @cached_field
    def variables(self) -> frozenset[VarId]:
        return frozenset([v for a in self.atoms for v in atom_vars(a)])

    def __str__(self) -> str:
        return str(clause_to_formula(self))


class SolvedFormula(Record):
    """Equations that eliminate their left-hand sides, plus a solved graph."""

    normalizer: tuple[Eq, ...]
    graph: tuple[GraphAtom, ...]

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.normalizer + self.graph

    @cached_field
    def binding(self) -> dict[VarId, VarId]:
        return {eq.lhs: eq.rhs for eq in self.normalizer}

    @cached_field
    def edges(self) -> dict[tuple[VarId, FeatId], VarId]:
        return {(a.src, a.feat): a.dst for a in self.graph if isinstance(a, FeatC)}

    @cached_field
    def sorts(self) -> dict[VarId, SortId]:
        return {a.var: a.sort for a in self.graph if isinstance(a, SortC)}

    @cached_field
    def variables(self) -> frozenset[VarId]:
        return frozenset([v for a in self.atoms for v in atom_vars(a)])

    def is_top(self) -> bool:
        return not self.normalizer and not self.graph

    def __str__(self) -> str:
        return str(solved_to_formula(self))


def basic_simplify(phi: BasicFormula | Bottom) -> SolvedFormula | Bottom:
    """Rewrite a basic formula to a solved formula or ``false``: the
    build of ``solve_atoms`` with nothing quantified."""
    if isinstance(phi, Bottom):
        return BOTTOM
    built = solve_atoms(phi.atoms)
    return built if isinstance(built, Bottom) else built[1]


def solve_atoms(
    atoms: Sequence[Atom], bound: Iterable[VarId] = ()
) -> tuple[frozenset[VarId], SolvedFormula] | Bottom:
    """The canonical prime of ``exists bound`` over the atoms, as its
    bound names and solved body, or ``false``: one build.

    One union-find pass over the atoms in input order.  An equation
    x = y puts the class of x under the class of y.  Two edges with the
    same feature out of one class put the class of the earlier edge's
    target under the class of the later one's, and the later edge stays;
    the merges this causes run as a worklist until no (class, feature)
    key repeats.  Two different sorts on one class give ``false``.  Each
    class is named by its representative unless ``_name_classes`` says
    otherwise, and the result is emitted once, in ``atom_key`` order:
    ``v = name(v)`` for each free variable that does not name its class,
    then one sort per sorted class and one edge per (class, feature).
    """
    # union-find over integer nodes, numbered as the variables are met
    node: dict[VarId, int] = {}
    at = node.setdefault
    parent = list(range(2 * len(atoms)))
    # per class root: feature -> (input position, target node, edge)
    out_edges: dict[int, dict[FeatId, tuple[int, int, FeatC]]] = {}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def union(pending: list[tuple[int, int]]) -> None:
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

    sort_atoms: list[SortC] = []
    for pos, a in enumerate(atoms):
        if isinstance(a, FeatC):
            row = out_edges.setdefault(find(at(a.src, len(node))), {})
            dst = at(a.dst, len(node))
            earlier = row.get(a.feat)
            row[a.feat] = (pos, dst, a)
            if earlier is not None:
                union([(earlier[1], dst)])
        elif isinstance(a, SortC):
            at(a.var, len(node))
            sort_atoms.append(a)
        elif isinstance(a, Eq):
            union([(at(a.lhs, len(node)), at(a.rhs, len(node)))])
        else:
            raise ValueError("only sort, feature and equation atoms are solved")

    sorts: dict[int, SortC] = {}
    for a in sort_atoms:
        if sorts.setdefault(find(node[a.var]), a).sort != a.sort:
            return BOTTOM
    var = list(node)
    root = [find(i) for i in range(len(var))]
    # name of each class root; None for a bound class that is dropped
    name: list[VarId | None] = var[:]
    hidden = {node[v] for v in bound if v in node}
    names = _name_classes(var, node, root, hidden, name, out_edges, sorts)
    lhs = [name[r] for r in root]
    for i in hidden:
        lhs[i] = var[i]  # a quantified variable keeps no equation
    normalizer = sorted((Eq(v, c) for v, c in zip(var, lhs) if v is not c), key=attrgetter("lhs"))
    # input atoms already over their names are kept as they are
    graph: list[GraphAtom] = [
        a if a.var is name[r] else SortC(a.sort, name[r]) for r, a in sorts.items() if name[r]
    ]
    edges: list[FeatC] = []
    for r, row in out_edges.items():
        src = name[r]
        if src is not None:
            for _pos, t, a in row.values():
                dst = name[root[t]]
                edges.append(a if a.src is src and a.dst is dst else FeatC(src, a.feat, dst))
    # names are unique per class and edges per (class, feature), so
    # these keys order the atoms as atom_key does
    graph.sort(key=_SORT_KEY)
    graph += sorted(edges, key=_EDGE_KEY)
    result = SolvedFormula(tuple(normalizer), tuple(graph))
    assert is_solved_formula(result), "simplification did not reach a solved form"
    return frozenset(names), result


def _name_classes(var, node, root, hidden, name, out_edges, sorts) -> list[VarId]:
    """Name the classes of ``solve_atoms`` that a quantified node (in
    ``hidden``) represents, into ``name``; return the bound names.

    Such a class is named by its least free member.  A class without one
    stays bound if the search from the free classes (``search_tree``, in
    name order) reaches it, and is dropped (None) with its sorts and
    edges otherwise: solved-clause satisfiability guarantees they never
    exclude a solution.  The reached ones are named q0, q1, ... in the
    preorder of the search tree, which is access-path order, skipping
    any spelling of a free variable of the result.
    """
    if not any(root[i] == i for i in hidden):
        return []
    for i, r in enumerate(root):
        if r in hidden and i not in hidden and (name[r] is var[r] or var[i] < name[r]):
            name[r] = var[i]
    closed = {r for r in hidden if root[r] == r and name[r] is var[r]}
    if not closed:
        return []
    starts = sorted((name[i], i) for i, r in enumerate(root) if r == i and i not in closed)
    adj = {r: [(f, root[row[f][1]]) for f in sorted(row)] for r, row in out_edges.items()}
    tree = search_tree(adj, [r for _, r in starts])
    children: dict[int, list[int]] = {}
    for w, up in tree.items():
        if up is not None:
            children.setdefault(up[0], []).append(w)

    def taken(q: VarId) -> bool:
        # whether the result mentions a free variable spelled q: in an
        # equation, when its class has two free members, or naming a
        # class with a sort or a kept edge
        i = node.get(q)
        if i is None or i in hidden:
            return False
        r, kept = root[i], (w for u in tree for _, w in adj.get(u, ()))
        members = sum(root[j] == r and j not in hidden for j in range(len(var)))
        return members > 1 or r in sorts or r in out_edges or r in kept

    spell = filterfalse(taken, map(VarId, map("q{}".format, count())))
    names: list[VarId] = []
    stack = [r for _, r in reversed(starts)]
    while stack:
        u = stack.pop()
        if u in closed:
            name[u] = next(spell)
            names.append(name[u])
        stack.extend(reversed(children.get(u, ())))
    for r in closed - tree.keys():
        name[r] = None
    return names


def search_tree(adj: Mapping, roots: Iterable) -> dict:
    """Breadth-first search from the roots, in the order given, along the
    out-edges ``(feature, target)`` of ``adj``, in the order listed: every
    reached node maps to the ``(node, feature)`` it was first reached
    through, a root to None, in order of discovery."""
    tree: dict = dict.fromkeys(roots)
    queue = list(tree)
    for u in queue:  # the queue grows while it is read
        for feat, w in adj.get(u, ()):
            if w not in tree:
                tree[w] = (u, feat)
                queue.append(w)
    return tree


_SORT_KEY = attrgetter("var")
_EDGE_KEY = attrgetter("src", "feat")
_GRAPH_KEYS = {SortC: _SORT_KEY, FeatC: _EDGE_KEY}
_CLAUSE_KEYS = {**_GRAPH_KEYS, Excl: attrgetter("var", "feat")}


def _keys_distinct(atoms: Iterable, keys: dict) -> bool:
    """Whether ``keys`` keys each atom by its class and no key repeats."""
    try:
        found = [keys[a.__class__](a) for a in atoms]
    except KeyError:
        return False
    return len(set(found)) == len(found)


def is_solved_clause(atoms: Iterable[ClauseAtom] | SolvedClause) -> bool:
    """Check the four solved-clause conditions on a multiset of atoms:
    sort, feature and exclusion atoms, no two with one key, a sort's
    being its variable and an edge's or exclusion's (variable, feature)."""
    if isinstance(atoms, SolvedClause):
        atoms = atoms.atoms
    return _keys_distinct(atoms, _CLAUSE_KEYS)


def is_solved_formula(phi: BasicFormula | SolvedFormula) -> bool:
    """Each equation's left-hand side occurs once, and the other atoms
    are sorts and edges that form a solved clause."""
    eqs = [a for a in phi.atoms if isinstance(a, Eq)]
    graph = [a for a in phi.atoms if not isinstance(a, Eq)]
    lhs = {a.lhs for a in eqs}
    rest = [a.rhs for a in eqs] + [v for a in graph for v in atom_vars(a)]
    return len(lhs) == len(eqs) and lhs.isdisjoint(rest) and _keys_distinct(graph, _GRAPH_KEYS)


def constrained_vars(delta: SolvedClause | SolvedFormula | Iterable[Atom]) -> set[VarId]:
    """Variables carrying a sort, an outgoing edge, or an exclusion."""
    if isinstance(delta, (SolvedClause, SolvedFormula)):
        delta = delta.atoms
    return {a.src if isinstance(a, FeatC) else a.var for a in delta if not isinstance(a, Eq)}


def parameters(delta: SolvedClause) -> set[VarId]:
    return set(delta.variables) - constrained_vars(delta)


# ---------------------------------------------------------------------------
# conversions


def conjunction_atoms(
    phi: Formula, binder: Callable[[VarId], VarId] | None = None
) -> tuple[list[Atom], list[VarId], set[VarId]] | Bottom:
    """The atoms of a conjunction in left-to-right order, or ``false``.

    One iterative walk over true, false, sort, feature and equation
    atoms and conjunction, and over ``exists`` when a ``binder`` is
    given: ``binder(x)`` returns the variable that stands for x inside
    the quantifier's scope.  Returns the atoms, the variables the binder
    returned in the order the quantifiers were met, and the variables
    that occur free (left empty without a binder).  Any other node raises ValueError, also after a
    ``false``, so rejection does not depend on the order of conjuncts.
    """
    atoms: list[Atom] = []
    bound: list[VarId] = []
    free: set[VarId] = set()
    scope: dict[VarId, VarId] = {}
    false = False
    # a (variable, outer binding) pair on the stack closes a scope
    stack: list = [phi]
    while stack:
        psi = stack.pop()
        if isinstance(psi, And):
            stack.extend(reversed(psi.args))
        elif isinstance(psi, Atomic) and not isinstance(psi.atom, Excl):
            a = psi.atom
            if scope:
                vs = atom_vars(a)
                free.update(v for v in vs if v not in scope)
                if any(scope.get(v, v) is not v for v in vs):
                    a = rename_atom(a, scope)
            elif binder is not None:
                free.update(atom_vars(a))
            atoms.append(a)
        elif isinstance(psi, Top):
            pass
        elif isinstance(psi, Bottom):
            false = True
        elif isinstance(psi, Exists) and binder is not None:
            for x in psi.vars:
                stack.append((x, scope.get(x)))
                scope[x] = binder(x)
                bound.append(scope[x])
            stack.append(psi.body)
        elif isinstance(psi, tuple):
            x, outer = psi
            if outer is None:
                del scope[x]
            else:
                scope[x] = outer
        elif binder is None:
            raise ValueError("not a conjunction of sort, feature, and equation atoms")
        else:
            raise ValueError("only atoms, conjunction, and 'exists' are allowed here")
    if false:
        return BOTTOM
    return atoms, bound, free


def formula_to_basic(phi: Formula) -> BasicFormula | Bottom:
    """View a conjunction of atoms as a basic formula.

    Raises ValueError when the formula contains anything beyond
    true/false, sort, feature and equation atoms, and conjunction.
    """
    walked = conjunction_atoms(phi)
    if isinstance(walked, Bottom):
        return BOTTOM
    return BasicFormula(tuple(walked[0]))


def solved_to_formula(gamma: SolvedFormula) -> Formula:
    """Canonically ordered conjunction equivalent to the solved formula."""
    atoms = sorted(gamma.normalizer, key=atom_key) + sorted(gamma.graph, key=atom_key)
    return conj(Atomic(a) for a in atoms)


def clause_to_formula(delta: SolvedClause) -> Formula:
    atoms = sorted(delta.atoms, key=atom_key)
    return conj(Atomic(a) for a in atoms)
