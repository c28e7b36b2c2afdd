"""Prime formulae: solved forms closed under conjunction and quantification.

A prime formula is an existentially quantified solved formula whose
bound variables stay out of the normalizer and are all reachable from a
free variable.  Primes are closed under conjunction (up to ``false``)
and under existential quantification, and entailment between primes is
decidable through finite projections, which makes them the building
blocks of the full decision procedure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .core import (
    BOTTOM,
    EPS,
    And,
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
    Symbols,
    Top,
    VarId,
    atom_key,
    atom_vars,
    conj,
    exists_all,
)
from .paths import Agree, PathConstraint, RootedPath, SortAt, prime_closure_contains
from .solve import SolvedFormula, basic_simplify, is_solved_formula


@dataclass(frozen=True)
class PrimeFormula:
    """Bound variables plus a solved body."""

    bound: frozenset[VarId]
    body: SolvedFormula

    @cached_property
    def free_vars(self) -> frozenset[VarId]:
        return self.body.variables - self.bound

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


def _adjacency(body: SolvedFormula) -> dict[VarId, list[tuple[FeatId, VarId]]]:
    adj: dict[VarId, list[tuple[FeatId, VarId]]] = {}
    for (src, feat), dst in body.edges.items():
        adj.setdefault(src, []).append((feat, dst))
    for lst in adj.values():
        lst.sort(key=lambda e: e[0].name)
    return adj


def _graph_reachable(body: SolvedFormula, roots: set[VarId]) -> set[VarId]:
    """Roots plus everything reachable from them along feature edges."""
    adj = _adjacency(body)
    seen = set(roots)
    queue = deque(sorted(roots))
    while queue:
        u = queue.popleft()
        for _, w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


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
    reached = _graph_reachable(body, set(body.variables - beta.bound))
    return beta.bound <= reached


def requantify(bound: Iterable[VarId], body: SolvedFormula) -> PrimeFormula:
    """A prime formula equivalent to ``exists bound`` applied to ``body``.

    The variables in ``bound`` may sit anywhere in the solved body.
    Equations whose left side is quantified are dropped: that variable
    occurs nowhere else.  A quantified variable that still represents
    free ones is renamed to the least of them by name, whose equation is
    dropped.  Then one breadth-first pass from the free variables keeps
    what it reaches; the rest of the graph, with its bound variables, is
    garbage collected, and solved-clause satisfiability guarantees the
    dropped constraints never exclude a solution.
    """
    quantified = frozenset(bound)
    if not quantified:
        return PrimeFormula(quantified, body)
    eqs = [eq for eq in body.normalizer if eq.lhs not in quantified]
    rename: dict[VarId, VarId] = {}
    for eq in eqs:
        if eq.rhs in quantified:
            rename[eq.rhs] = min(eq.lhs, rename.get(eq.rhs, eq.lhs))
    normalizer = tuple(
        Eq(eq.lhs, rename.get(eq.rhs, eq.rhs)) for eq in eqs if rename.get(eq.rhs) != eq.lhs
    )
    graph = tuple(_rename_atom(a, rename) for a in body.graph) if rename else body.graph
    renamed = SolvedFormula(normalizer, graph)
    reached = _graph_reachable(renamed, set(renamed.variables - quantified))
    dropped = quantified - reached
    kept = tuple(a for a in graph if dropped.isdisjoint(atom_vars(a)))
    return PrimeFormula(quantified & reached, SolvedFormula(normalizer, kept))


def mk_prime_exists(x: VarId, beta: PrimeFormula) -> PrimeFormula:
    """A prime formula equivalent to ``exists x`` applied to ``beta``.

    ``beta`` itself when x is not free in it; otherwise ``requantify``
    with x added to the bound variables.
    """
    if x not in beta.free_vars:
        return beta
    return requantify(beta.bound | {x}, beta.body)


def _rename_bound(
    sym: Symbols, beta: PrimeFormula, avoid: frozenset[VarId]
) -> PrimeFormula:
    clashes = sorted(beta.bound & avoid)
    if not clashes:
        return beta
    mapping = {v: sym.fresh_var(v.name) for v in clashes}
    bound = frozenset(mapping.get(v, v) for v in beta.bound)
    graph = tuple(_rename_atom(a, mapping) for a in beta.body.graph)
    return PrimeFormula(bound, SolvedFormula(beta.body.normalizer, graph))


def prime_conj(
    sym: Symbols, beta: PrimeFormula, beta2: PrimeFormula
) -> PrimeFormula | Bottom:
    """Conjunction of two primes: prime again, or ``false``.

    Bound variables are renamed apart, the combined bodies run through
    basic simplification, and the bound variables of both sides are
    requantified together over the solved result.
    """
    beta2 = _rename_bound(sym, beta2, beta.body.variables | beta.bound)
    beta = _rename_bound(sym, beta, beta2.body.variables | beta2.bound)
    combined = BasicFormula(beta.body.atoms + beta2.body.atoms)
    solved = basic_simplify(combined)
    if isinstance(solved, Bottom):
        return BOTTOM
    return requantify(beta.bound | beta2.bound, solved)


def simplify_epc(sym: Symbols, phi: Formula) -> PrimeFormula | Bottom:
    """Solve a formula built from atoms, conjunction, and ``exists``."""
    if isinstance(phi, Top):
        return TOP_PRIME
    if isinstance(phi, Bottom):
        return BOTTOM
    if isinstance(phi, Atomic):
        return from_atom(phi.atom)
    if isinstance(phi, And):
        lhs = simplify_epc(sym, phi.lhs)
        if isinstance(lhs, Bottom):
            return BOTTOM
        rhs = simplify_epc(sym, phi.rhs)
        if isinstance(rhs, Bottom):
            return BOTTOM
        return prime_conj(sym, lhs, rhs)
    if isinstance(phi, Exists):
        inner = simplify_epc(sym, phi.body)
        if isinstance(inner, Bottom):
            return BOTTOM
        return mk_prime_exists(phi.var, inner)
    raise ValueError("only atoms, conjunction, and 'exists' are allowed here")


# ---------------------------------------------------------------------------
# Access functions, projections, entailment


def access_function(beta: PrimeFormula) -> dict[VarId, RootedPath]:
    """One rooted path per body variable, injectively.

    Free variables address themselves at the empty path.  Bound
    variables are addressed by breadth-first search from the free
    variables in name order, exploring features alphabetically, so the
    chosen paths are shortest and the choice is reproducible.
    """
    body = beta.body
    acc = {v: RootedPath(v, EPS) for v in sorted(body.variables - beta.bound)}
    adj = _adjacency(body)
    queue = deque(sorted(body.variables - beta.bound))
    seen = set(queue)
    while queue:
        u = queue.popleft()
        base = acc[u]
        for feat, w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                acc[w] = RootedPath(base.root, base.path.append(feat))
                queue.append(w)
    if not beta.bound <= acc.keys():
        raise ValueError("bound variable unreachable; not a prime formula")
    return acc


def projection(beta: PrimeFormula) -> tuple[PathConstraint, ...]:
    """The finite set of proper path constraints equivalent to ``beta``.

    Every equation contributes an agreement at the empty paths, every
    sort constraint a sort-at-path through the access function, and
    every feature constraint an agreement between the extended source
    address and the target address.
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
    deduped: list[PathConstraint] = []
    seen: set[PathConstraint] = set()
    for pi in out:
        if pi not in seen:
            seen.add(pi)
            deduped.append(pi)
    return tuple(deduped)


def prime_entails(beta: PrimeFormula, beta2: PrimeFormula) -> bool:
    """Whether every model of ``beta`` satisfies ``beta2``.

    Holds exactly when the projection of the right-hand side lies inside
    the closure of the left-hand side.
    """
    return all(prime_closure_contains(beta, pi) for pi in projection(beta2))


# ---------------------------------------------------------------------------
# Canonical forms


def canonicalize(sym: Symbols, beta: PrimeFormula) -> PrimeFormula:
    """Rename bound variables to a fixed scheme and sort the body.

    Bound variables are ordered by their access paths and renamed to
    q0, q1, ... (skipping any spelling already used by a free variable),
    so two primes that differ only in bound names get identical forms.
    The scheme avoids the reserved ``_`` prefix so canonical results
    stay printable and reparseable.
    """
    acc = access_function(beta)
    free_names = {v.name for v in beta.free_vars}
    ordered = sorted(
        beta.bound,
        key=lambda v: (acc[v].root.name, tuple(f.name for f in acc[v].path.feats)),
    )
    names: list[str] = []
    i = 0
    while len(names) < len(ordered):
        cand = f"q{i}"
        i += 1
        if cand not in free_names:
            names.append(cand)
    mapping = {v: sym.var(n) for v, n in zip(ordered, names)}
    graph = tuple(
        _rename_atom(a, mapping) for a in beta.body.graph
    )
    normalizer = tuple(sorted(beta.body.normalizer, key=atom_key))
    graph = tuple(sorted(graph, key=atom_key))
    return PrimeFormula(frozenset(mapping.values()), SolvedFormula(normalizer, graph))


def _rename_atom(a: Atom, mapping: dict[VarId, VarId]) -> Atom:
    if isinstance(a, SortC):
        return SortC(a.sort, mapping.get(a.var, a.var))
    if isinstance(a, FeatC):
        return FeatC(mapping.get(a.src, a.src), a.feat, mapping.get(a.dst, a.dst))
    if isinstance(a, Eq):
        return Eq(mapping.get(a.lhs, a.lhs), mapping.get(a.rhs, a.rhs))
    return Excl(mapping.get(a.var, a.var), a.feat)


def prime_to_formula(beta: PrimeFormula) -> Formula:
    """Existentially quantified conjunction in canonical atom order."""
    atoms = sorted(beta.body.normalizer, key=atom_key) + sorted(
        beta.body.graph, key=atom_key
    )
    return exists_all(sorted(beta.bound), conj(Atomic(a) for a in atoms))
