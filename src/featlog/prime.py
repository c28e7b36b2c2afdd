"""Prime formulae: solved forms closed under conjunction and quantification.

A prime formula is an existentially quantified solved formula whose
bound variables stay out of the normalizer and are all reachable from a
free variable.  Primes are closed under conjunction (up to ``false``)
and under existential quantification, and entailment between primes is
decidable through finite projections, which makes them the building
blocks of the full decision procedure.

Every prime the library builds is canonical by construction: one
build (``solve.solve_atoms``) solves the atoms and quantifies the bound
variables together, garbage-collects the unreachable part of the body,
names the bound variables q0, q1, ... by their access paths and sorts
the atoms, so primes equal up to renaming of bound variables are equal
values.  The ``$k`` names that bound variables get when they are
renamed apart before a build thus never reach a prime.
"""

from __future__ import annotations

import operator
from itertools import count
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Sequence, TypeVar

from .core import (
    BOTTOM,
    EPS,
    Atom,
    Bottom,
    Eq,
    Excl,
    FeatC,
    FeatId,
    Formula,
    Record,
    SortC,
    SortId,
    VarId,
    atom_key,
    cached_field,
    rename_atom,
)
from .paths import Agree, PathConstraint, RootedPath, SortAt
from .solve import SolvedFormula, conjunction_atoms, search_tree, solve_atoms


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

        return print_formula(self)


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


def mk_prime_exists(xs: Collection[VarId], beta: PrimeFormula) -> PrimeFormula:
    """A prime formula equivalent to ``exists xs`` applied to ``beta``.

    ``beta`` itself when no variable of the block is free in it;
    otherwise one build of the body with those variables added to the
    bound ones, which is canonical.
    """
    hit = beta.free_vars.intersection(xs)
    if not hit:
        return beta
    return _prime_of_atoms(beta.body.atoms, beta.bound | hit)


def _prime_of_atoms(atoms: Sequence[Atom], bound: Iterable[VarId]) -> PrimeFormula | Bottom:
    """Solve the atoms and quantify the bound variables in one build."""
    built = solve_atoms(atoms, bound)
    return BOTTOM if isinstance(built, Bottom) else PrimeFormula(*built)


def exists_conj(xs: Collection[VarId], primes: Sequence[PrimeFormula]) -> PrimeFormula | Bottom:
    """The canonical prime of ``exists xs`` over the conjunction of the
    primes, or ``false``: bound variables are renamed apart in one pass,
    and one build solves the bodies and quantifies the bound variables
    and those of ``xs``.  When no prime has a bound variable there is
    nothing to rename, and the bodies and ``xs`` go to the build as
    they are; the build ignores a variable of ``xs`` that no body has.

    A bound variable that occurs free in another prime or is bound in
    an earlier one is renamed ``$0``, ``$1``, ..., numbered per call.
    These names capture nothing: no parsed, sugar (``_y1``) or
    requantified (``qN``) name starts with ``$``; a ``$k`` name is bound
    in the one build, which renames it, so it never leaves the call; and
    it has no dot, so it never equals a ``$d.i`` name of ``decide``.
    """
    if not any(beta.bound for beta in primes):
        return _prime_of_atoms([a for beta in primes for a in beta.body.atoms], xs)
    taken = set().union(*(beta.free_vars for beta in primes))
    bound = [x for x in xs if x in taken]
    numbers = count()
    atoms: list[Atom] = []
    for beta in primes:
        mapping = {v: VarId(f"${next(numbers)}") for v in sorted(beta.bound & taken)}
        taken |= beta.bound
        bound.extend(mapping.get(v, v) for v in beta.bound)
        atoms += beta.body.normalizer
        atoms += (rename_atom(a, mapping) for a in beta.body.graph) if mapping else beta.body.graph
    return _prime_of_atoms(atoms, bound)


def prime_conj(*primes: PrimeFormula) -> PrimeFormula | Bottom:
    """Conjunction of primes: prime again, or ``false``.

    No primes give true, and one prime is returned as it is.  Otherwise
    one build of ``exists_conj`` with nothing further quantified.
    """
    if len(primes) < 2:
        return primes[0] if primes else TOP_PRIME
    return exists_conj((), primes)


def simplify_epc(phi: Formula) -> PrimeFormula | Bottom:
    """Solve a formula built from atoms, conjunction, and ``exists``.

    One walk collects the atoms, renaming every quantified variable to a
    ``$k`` name, safe for the reasons ``exists_conj`` gives, and rejects
    any other connective before anything is solved.  One build solves
    the atoms and quantifies the ``$k`` names together.
    """
    walked = conjunction_atoms(phi, quantified=True)
    if isinstance(walked, Bottom):
        return BOTTOM
    return _prime_of_atoms(*walked)


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
    ``search_tree`` from the free ones in name order, features in name
    order, the search by whose preorder the prime builder names them.  A
    free variable is at ``start(v)`` and a bound one at
    ``step(position of its parent, feature)``, so every shared prefix
    of the access paths is walked once.  None as soon as either gives
    None, which stands for a position that does not exist.
    """
    tree = search_tree(adjacency(beta.body.edges), sorted(beta.free_vars))
    if not beta.bound <= tree.keys():
        raise ValueError("bound variable unreachable; not a prime formula")
    pos: dict[VarId, Position] = {}
    for v, parent in tree.items():
        at = start(v) if parent is None else step(pos[parent[0]], parent[1])
        if at is None:
            return None
        pos[v] = at
    return pos


def holds_at(
    beta: PrimeFormula,
    start: Callable[[VarId], Position | None],
    step: Callable[[Position, FeatId], Position | None],
    has_sort: Callable[[Position, SortId], bool],
    same: Callable[[Position, Position], bool],
) -> bool:
    """Whether a prime holds where ``start`` puts its free variables.

    A prime is equivalent to its projection, a finite conjunction of
    proper path constraints over its free variables, so no quantifier
    is enumerated.  The projection is checked in one walk of the body:
    each variable gets the position its access path leads to
    (``positions``), and then each equation, sort and edge, in that
    order, is one test of ``same`` or ``has_sort``.  False when a
    position does not exist.
    """
    pos = positions(beta, start, step)
    if pos is None:
        return False
    body = beta.body

    def edge_holds(u: VarId, feat: FeatId, w: VarId) -> bool:
        at = step(pos[u], feat)
        return at is not None and same(at, pos[w])

    return (
        all(same(pos[eq.lhs], pos[eq.rhs]) for eq in body.normalizer)
        and all(has_sort(pos[v], sort) for v, sort in body.sorts.items())
        and all(edge_holds(u, feat, w) for (u, feat), w in body.edges.items())
    )


def access_function(beta: PrimeFormula) -> dict[VarId, RootedPath]:
    """One rooted path per body variable, injectively.

    Free variables address themselves at the empty path.  Bound
    variables are addressed by the breadth-first search the prime
    builder names them by, from the free variables in name order
    exploring features alphabetically, so the chosen paths are shortest
    and the choice is reproducible.
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
    the closure of the left-hand side: ``beta2`` holds at the variables
    of the left body (``holds_at``).  A free variable starts at its
    binding; one that is bound on the left has no position, since the
    closure of a prime holds no constraint rooted at a bound variable.
    """
    body = beta.body
    binding, edges, sorts = body.binding, body.edges, body.sorts
    return holds_at(
        beta2,
        lambda v: None if v in beta.bound else binding.get(v, v),
        lambda u, feat: edges.get((u, feat)),
        lambda u, sort: sorts.get(u) == sort,
        operator.eq,
    )


# ---------------------------------------------------------------------------
# Canonical forms


def canonicalize(beta: PrimeFormula) -> PrimeFormula:
    """The canonical form of a prime: one build of its own body with its
    bound variables quantified.

    Bound variables are renamed q0, q1, ... in access-path order and the
    body is sorted, so two primes that differ only in bound names get
    identical forms.  A solved body re-solves to the same classes, and
    every prime the library builds is canonical already, so this is the
    identity on them.
    """
    return _prime_of_atoms(beta.body.atoms, beta.bound)
