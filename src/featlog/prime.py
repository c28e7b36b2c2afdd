"""Prime formulae: solved forms closed under conjunction and quantification.

A prime formula is an existentially quantified solved formula whose
bound variables stay out of the normalizer and are all reachable from a
free variable.  Primes are closed under conjunction (up to ``false``)
and under existential quantification, and entailment between primes is
decidable through finite projections, which makes them the building
blocks of the full decision procedure.

Every prime the library builds is canonical by construction: one
requantification garbage-collects the unreachable part of the body,
names the bound variables q0, q1, ... by their access paths and sorts
the atoms, so primes equal up to renaming of bound variables are equal
values.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, TypeVar

from .core import (
    BOTTOM,
    EPS,
    Atom,
    Atomic,
    BasicFormula,
    Bottom,
    Eq,
    Excl,
    FeatC,
    FeatId,
    Formula,
    Record,
    SortC,
    VarId,
    atom_key,
    atom_vars,
    cached_field,
    conj,
    exists_all,
    rename_atom,
)
from .paths import Agree, PathConstraint, RootedPath, SortAt
from .solve import SolvedFormula, basic_simplify, conjunction_atoms, is_solved_formula


class PrimeFormula(Record):
    """Bound variables plus a solved body."""

    bound: frozenset[VarId]
    body: SolvedFormula

    @cached_field
    def free_vars(self) -> frozenset[VarId]:
        return self.body.variables - self.bound

    @cached_field
    def _hash(self) -> int:
        return hash((self.bound, self.body))

    def __hash__(self) -> int:
        # computed once: primes key the literal tables of every normal
        # form and search, which look each one up many times
        return self._hash

    def is_top(self) -> bool:
        return not self.bound and self.body.is_top()

    def __str__(self) -> str:
        from .textio import print_formula

        return print_formula(prime_to_formula(self))


TOP_PRIME = PrimeFormula(frozenset(), SolvedFormula((), ()))


def from_atom(atom: Atom) -> PrimeFormula:
    """The prime formula of a single atom; x = x collapses to true."""
    if isinstance(atom, Excl):
        raise ValueError("exclusion constraints must be expanded first")
    if isinstance(atom, Eq):
        if atom.lhs == atom.rhs:
            return TOP_PRIME
        return PrimeFormula(frozenset(), SolvedFormula((atom,), ()))
    return PrimeFormula(frozenset(), SolvedFormula((), (atom,)))


def adjacency(edges: Mapping) -> dict:
    """Per-node out-edges ``(feature, target)`` sorted by feature name."""
    adj: dict = {}
    for (src, feat), dst in edges.items():
        adj.setdefault(src, []).append((feat, dst))
    for row in adj.values():
        row.sort(key=itemgetter(0))
    return adj


def _bfs_tree(
    body: SolvedFormula, roots: Iterable[VarId]
) -> dict[VarId, tuple[VarId, FeatId] | None]:
    """Breadth-first search from the roots along feature edges.

    Roots are visited in name order and each node's features in name
    order.  Every reached variable maps to the ``(variable, feature)``
    it was first reached through, a root to None, in order of discovery.
    """
    adj = adjacency(body.edges)
    tree: dict[VarId, tuple[VarId, FeatId] | None] = dict.fromkeys(sorted(roots))
    queue = deque(tree)
    while queue:
        u = queue.popleft()
        for feat, w in adj.get(u, ()):
            if w not in tree:
                tree[w] = (u, feat)
                queue.append(w)
    return tree


def is_prime_formula(beta: PrimeFormula) -> bool:
    """Validate the three defining conditions."""
    body = beta.body
    if not is_solved_formula(body):
        return False
    norm_vars: set[VarId] = set()
    for eq in body.normalizer:
        norm_vars.update((eq.lhs, eq.rhs))
    if beta.bound & norm_vars:
        return False
    if not beta.bound <= body.variables:
        return False
    return beta.bound <= _bfs_tree(body, body.variables - beta.bound).keys()


def requantify(bound: Iterable[VarId], body: SolvedFormula) -> PrimeFormula:
    """The canonical prime formula equivalent to ``exists bound`` applied to ``body``.

    The variables in ``bound`` may sit anywhere in the solved body.
    Equations whose left side is quantified are dropped: that variable
    occurs nowhere else.  A quantified variable that still represents
    free ones is renamed to the least of them by name, whose equation is
    dropped.  Then one breadth-first search from the free variables
    (``_bfs_tree``) does two jobs.  What it does not reach is garbage
    collected, with its bound variables; solved-clause satisfiability
    guarantees the dropped constraints never exclude a solution.  And
    the bound variables it reaches, ordered by access path (root name,
    then feature names), are renamed q0, q1, ..., skipping the spelling
    of any free variable of the result.  Both parts of the body are
    sorted by ``atom_key``, so two primes that differ only in the names
    of their bound variables come out equal.  The names avoid the
    reserved ``_`` prefix, so the result stays printable and reparseable.
    """
    quantified = frozenset(bound)
    eqs = [eq for eq in body.normalizer if eq.lhs not in quantified]
    rename: dict[VarId, VarId] = {}
    for eq in eqs:
        if eq.rhs in quantified:
            rename[eq.rhs] = min(eq.lhs, rename.get(eq.rhs, eq.lhs))
    normalizer = tuple(
        sorted(
            (Eq(eq.lhs, rename.get(eq.rhs, eq.rhs)) for eq in eqs if rename.get(eq.rhs) != eq.lhs),
            key=atom_key,
        )
    )
    graph = tuple(rename_atom(a, rename) for a in body.graph) if rename else body.graph
    mapping: dict[VarId, VarId] = {}
    if quantified:
        renamed = SolvedFormula(normalizer, graph)
        free = renamed.variables - quantified
        tree = _bfs_tree(renamed, free)
        dropped = quantified - tree.keys()
        if dropped:
            graph = tuple(a for a in graph if dropped.isdisjoint(atom_vars(a)))
            free = SolvedFormula(normalizer, graph).variables - quantified
        taken = {v.name for v in free}
        names = (f"q{i}" for i in count() if f"q{i}" not in taken)
        # access-path order is the preorder of the search tree, children by feature
        children: dict[VarId, list[VarId]] = {}
        for w, parent in tree.items():
            if parent is not None:
                children.setdefault(parent[0], []).append(w)
        stack = [v for v in reversed(tree) if tree[v] is None]
        while stack:
            u = stack.pop()
            if tree[u] is not None:
                mapping[u] = VarId(next(names))
            stack.extend(reversed(children.get(u, ())))
        graph = tuple(rename_atom(a, mapping) for a in graph)
    body = SolvedFormula(normalizer, tuple(sorted(graph, key=atom_key)))
    return PrimeFormula(frozenset(mapping.values()), body)


def mk_prime_exists(xs: Collection[VarId], beta: PrimeFormula) -> PrimeFormula:
    """A prime formula equivalent to ``exists xs`` applied to ``beta``.

    ``beta`` itself when no variable of the block is free in it;
    otherwise one ``requantify`` with those variables added to the bound
    ones, which is canonical.
    """
    hit = beta.free_vars.intersection(xs)
    if not hit:
        return beta
    return requantify(beta.bound | hit, beta.body)


def _prime_of_atoms(atoms: list[Atom], bound: list[VarId]) -> PrimeFormula | Bottom:
    """Solve the atoms once, then quantify the bound variables once."""
    solved = basic_simplify(BasicFormula(tuple(atoms)))
    if isinstance(solved, Bottom):
        return BOTTOM
    return requantify(bound, solved)


def _renamer(taken: set[VarId]):
    """A function from a variable to a transient name not in ``taken``,
    which the name then joins.

    Transient names contain a ``'``, which neither a parsed name nor a
    minted ``_`` name can, and they are numbered per renamer.  They are
    only ever given to bound variables, which ``requantify`` renames, so
    none leaves the prime it was made for.
    """
    numbers = count(1)

    def fresh(x: VarId) -> VarId:
        while True:
            v = VarId(f"{x.name}'{next(numbers)}")
            if v not in taken:
                taken.add(v)
                return v

    return fresh


def prime_conj(*primes: PrimeFormula) -> PrimeFormula | Bottom:
    """Conjunction of primes: prime again, or ``false``.

    No primes give true, and one prime is returned as it is.  Otherwise
    bound variables are renamed apart in one pass: a bound variable gets
    a transient name when it occurs free in another prime or is bound in
    an earlier one.  The bodies together run through one basic
    simplification, and all bound variables are requantified together
    over the solved result.
    """
    if len(primes) < 2:
        return primes[0] if primes else TOP_PRIME
    taken: set[VarId] = set()
    for beta in primes:
        taken |= beta.free_vars
    fresh = _renamer(taken)
    atoms: list[Atom] = []
    bound: list[VarId] = []
    for beta in primes:
        mapping = {v: fresh(v) for v in sorted(beta.bound & taken)}
        taken |= beta.bound
        bound.extend(mapping.get(v, v) for v in beta.bound)
        atoms.extend(beta.body.normalizer)
        if mapping:
            atoms.extend(rename_atom(a, mapping) for a in beta.body.graph)
        else:
            atoms.extend(beta.body.graph)
    return _prime_of_atoms(atoms, bound)


def simplify_epc(phi: Formula) -> PrimeFormula | Bottom:
    """Solve a formula built from atoms, conjunction, and ``exists``.

    One walk collects the atoms and the quantified variables, and
    rejects any other connective before anything is solved.  A
    quantifier keeps its variable unless that variable also occurs free
    or is bound by an earlier quantifier; only then a second walk renames
    it to a transient name, as ``prime_conj`` does.  The atoms are
    solved once and the quantified variables requantified once.
    """
    walked = conjunction_atoms(phi, binder=lambda x: x)
    if isinstance(walked, Bottom):
        return BOTTOM
    atoms, bound, free = walked
    if len(set(bound)) < len(bound) or not free.isdisjoint(bound):
        taken = set(free)
        fresh = _renamer(taken)

        def binder(x: VarId) -> VarId:
            if x in taken:
                return fresh(x)
            taken.add(x)
            return x

        atoms, bound, _ = conjunction_atoms(phi, binder)
    return _prime_of_atoms(atoms, bound)


# ---------------------------------------------------------------------------
# Access functions, projections, entailment


Position = TypeVar("Position")


def positions(
    beta: PrimeFormula,
    start: Callable[[VarId], Position | None],
    step: Callable[[Position, FeatId], Position | None],
) -> dict[VarId, Position] | None:
    """One position per body variable, found along the access paths.

    The variables are visited in the breadth-first order of
    ``_bfs_tree`` from the free ones, as ``requantify`` names them.  A
    free variable is at ``start(v)`` and a bound one at
    ``step(position of its parent, feature)``, so every shared prefix
    of the access paths is walked once.  None as soon as either gives
    None, which stands for a position that does not exist.
    """
    tree = _bfs_tree(beta.body, beta.free_vars)
    if not beta.bound <= tree.keys():
        raise ValueError("bound variable unreachable; not a prime formula")
    pos: dict[VarId, Position] = {}
    for v, parent in tree.items():
        at = start(v) if parent is None else step(pos[parent[0]], parent[1])
        if at is None:
            return None
        pos[v] = at
    return pos


def access_function(beta: PrimeFormula) -> dict[VarId, RootedPath]:
    """One rooted path per body variable, injectively.

    Free variables address themselves at the empty path.  Bound
    variables are addressed by the breadth-first search ``requantify``
    names them by, from the free variables in name order exploring
    features alphabetically, so the chosen paths are shortest and the
    choice is reproducible.
    """
    acc = positions(
        beta,
        lambda v: RootedPath(v, EPS),
        lambda at, feat: RootedPath(at.root, at.path.append(feat)),
    )
    assert acc is not None
    return acc


def projection(beta: PrimeFormula) -> tuple[PathConstraint, ...]:
    """The finite set of proper path constraints equivalent to ``beta``.

    Every equation contributes an agreement at the empty paths, every
    sort constraint a sort-at-path through the access function, and
    every feature constraint an agreement between the extended source
    address and the target address.

    The constraints are distinct by construction, so none is dropped:
    the equations' left sides are distinct, so their agreements are; a
    variable has one sort and each (source, feature) one edge, so sort
    constraints differ in their variable and edge agreements in their
    (source, feature); the access function is injective, so distinct
    variables, and distinct (source, feature) pairs extended by the
    feature, have distinct addresses; and edge agreements have a
    non-empty left path, which no equation's agreement has.
    """
    acc = access_function(beta)
    body = beta.body
    out: list[PathConstraint] = []
    for eq in sorted(body.normalizer, key=atom_key):
        out.append(Agree(eq.lhs, EPS, eq.rhs, EPS))
    for a in sorted((g for g in body.graph if isinstance(g, SortC)), key=atom_key):
        at = acc[a.var]
        out.append(SortAt(a.sort, at.root, at.path))
    for a in sorted((g for g in body.graph if isinstance(g, FeatC)), key=atom_key):
        src = acc[a.src]
        dst = acc[a.dst]
        out.append(Agree(src.root, src.path.append(a.feat), dst.root, dst.path))
    return tuple(out)


def prime_entails(beta: PrimeFormula, beta2: PrimeFormula) -> bool:
    """Whether every model of ``beta`` satisfies ``beta2``.

    Holds exactly when the projection of the right-hand side lies inside
    the closure of the left-hand side, checked in one walk of the left
    body: each variable of the right-hand side gets the variable of the
    left body its access path leads to (``positions``).  A free variable
    starts at its binding; one that is bound on the left has no
    position, since the closure of a prime holds no constraint rooted
    at a bound variable.  Then each equation, sort and edge of the
    right-hand side is one lookup.
    """
    body = beta.body
    binding, edges, sorts = body.binding, body.edges, body.sorts
    pos = positions(
        beta2,
        lambda v: None if v in beta.bound else binding.get(v, v),
        lambda u, feat: edges.get((u, feat)),
    )
    if pos is None:
        return False
    body2 = beta2.body
    return (
        all(pos[eq.lhs] == pos[eq.rhs] for eq in body2.normalizer)
        and all(sorts.get(pos[v]) == sort for v, sort in body2.sorts.items())
        and all(edges.get((pos[u], feat)) == pos[w] for (u, feat), w in body2.edges.items())
    )


# ---------------------------------------------------------------------------
# Canonical forms


def canonicalize(beta: PrimeFormula) -> PrimeFormula:
    """The canonical form of a prime: ``requantify`` of its own parts.

    Bound variables are renamed q0, q1, ... in access-path order and the
    body is sorted, so two primes that differ only in bound names get
    identical forms.  Every prime the library builds is canonical
    already, so this is the identity on them.
    """
    return requantify(beta.bound, beta.body)


def prime_to_formula(beta: PrimeFormula) -> Formula:
    """Existentially quantified conjunction in canonical atom order."""
    atoms = sorted(beta.body.normalizer, key=atom_key) + sorted(
        beta.body.graph, key=atom_key
    )
    return exists_all(sorted(beta.bound), conj(Atomic(a) for a in atoms))
