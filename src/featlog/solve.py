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

The rules are the specification.  ``basic_simplify`` implements them by
congruence closure over a union-find of variables (Ait-Kaci & Nasr 1986;
Ait-Kaci, Podelski & Smolka 1994), whose fixed point is unique up to the
variable that represents each class: after x = y the class of y
represents x, and of two merged edges the later one in the input stays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Union

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


@dataclass(frozen=True)
class SolvedClause:
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
        out: set[VarId] = set()
        for a in self.atoms:
            out.update(atom_vars(a))
        return frozenset(out)

    def __str__(self) -> str:
        return str(clause_to_formula(self))


@dataclass(frozen=True)
class SolvedFormula:
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
        out: set[VarId] = set()
        for a in self.atoms:
            out.update(atom_vars(a))
        return frozenset(out)

    def graph_clause(self) -> SolvedClause:
        return SolvedClause(self.graph)

    def is_top(self) -> bool:
        return not self.normalizer and not self.graph

    def __str__(self) -> str:
        return str(solved_to_formula(self))


def basic_simplify(phi: BasicFormula | Bottom) -> SolvedFormula | Bottom:
    """Rewrite a basic formula to a solved formula or ``false``.

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
    node: dict[VarId, int] = {}
    var: list[VarId] = []
    for a in phi.atoms:
        for v in atom_vars(a):
            if v not in node:
                node[v] = len(var)
                var.append(v)
    parent = list(range(len(var)))
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

    sorts: dict[int, SortC] = {}
    for a in phi.atoms:
        if isinstance(a, SortC):
            if sorts.setdefault(find(node[a.var]), a).sort != a.sort:
                return BOTTOM
    rep = [var[find(i)] for i in range(len(var))]
    normalizer = sorted((Eq(v, r) for v, r in zip(var, rep) if v is not r), key=atom_key)
    # input atoms already over representatives are kept as they are
    graph: list[GraphAtom] = [
        a if a.var is var[r] else SortC(a.sort, var[r]) for r, a in sorts.items()
    ]
    for r, row in out_edges.items():
        for _pos, t, a in row.values():
            src, dst = var[r], rep[t]
            graph.append(a if a.src is src and a.dst is dst else FeatC(src, a.feat, dst))
    graph.sort(key=atom_key)
    result = SolvedFormula(tuple(normalizer), tuple(graph))
    assert is_solved_formula(result), "simplification did not reach a solved form"
    return result


def is_solved_clause(atoms: Iterable[ClauseAtom] | SolvedClause) -> bool:
    """Check the four solved-clause conditions on a multiset of atoms."""
    if isinstance(atoms, SolvedClause):
        atoms = atoms.atoms
    atoms = tuple(atoms)
    seen: set[Atom] = set()
    sorts: dict[VarId, SortId] = {}
    edges: dict[tuple[VarId, FeatId], VarId] = {}
    excls: set[tuple[VarId, FeatId]] = set()
    for a in atoms:
        if a in seen:
            return False
        seen.add(a)
        if isinstance(a, SortC):
            if sorts.get(a.var, a.sort) != a.sort:
                return False
            sorts[a.var] = a.sort
        elif isinstance(a, FeatC):
            key = (a.src, a.feat)
            if edges.get(key, a.dst) != a.dst:
                return False
            edges[key] = a.dst
        elif isinstance(a, Excl):
            excls.add((a.var, a.feat))
        else:
            return False
    return not (excls & set(edges))


def is_solved_formula(phi: BasicFormula | SolvedFormula) -> bool:
    """Equations eliminate their left-hand sides and the graph is solved."""
    atoms = phi.atoms
    occ: Counter[VarId] = Counter()
    for a in atoms:
        occ.update(atom_vars(a))
    eqs = [a for a in atoms if isinstance(a, Eq)]
    graph = [a for a in atoms if not isinstance(a, Eq)]
    for eq in eqs:
        if eq.lhs == eq.rhs or occ[eq.lhs] != 1:
            return False
    if any(isinstance(a, Excl) for a in graph):
        return False
    return is_solved_clause(graph)


def constrained_vars(delta: SolvedClause | SolvedFormula | Iterable[Atom]) -> set[VarId]:
    """Variables carrying a sort, an outgoing edge, or an exclusion."""
    if isinstance(delta, (SolvedClause, SolvedFormula)):
        atoms: Iterable[Atom] = delta.atoms
    else:
        atoms = delta
    out: set[VarId] = set()
    for a in atoms:
        if isinstance(a, SortC):
            out.add(a.var)
        elif isinstance(a, FeatC):
            out.add(a.src)
        elif isinstance(a, Excl):
            out.add(a.var)
    return out


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
