"""Path constraints and closure membership for solved forms.

The closure of a solved formula is everything derivable from its atoms
by the five deduction rules

    |- x eps x          x = y |- x eps y        x p y,  y f z |- x pf z
    x p z,  y q z |- x p # y q                  A y,  x p y   |- A x p

(written ``#`` for agreement).  The closure is infinite as soon as the
graph has a cycle, so it is never materialized; membership is decided by
walking the graph.  In a solved formula an eliminated variable occurs
nowhere but its own equation, so a walk dereferences at most one binding
at the start and then follows feature edges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .core import Path, Record, SortId, VarId
from .solve import SolvedClause, SolvedFormula

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .prime import PrimeFormula

Gamma = Union[SolvedFormula, SolvedClause]


class RootedPath(Record):
    """A variable together with a path starting from it."""

    root: VarId
    path: Path

    def __str__(self) -> str:
        return f"{self.root}.{self.path}"


class Reach(Record):
    """x p y: the path p leads from the value of x to the value of y."""

    src: VarId
    path: Path
    dst: VarId

    def __str__(self) -> str:
        return f"{self.src}.{self.path} -> {self.dst}"


class Agree(Record):
    """x p # y q: the two paths are defined and meet in the same value."""

    lsrc: VarId
    lpath: Path
    rsrc: VarId
    rpath: Path

    def __str__(self) -> str:
        return f"{self.lsrc}.{self.lpath} = {self.rsrc}.{self.rpath}"


class SortAt(Record):
    """A x p: the path p is defined on x and its target has sort A."""

    sort: SortId
    src: VarId
    path: Path

    def __str__(self) -> str:
        return f"{self.sort}@{self.src}.{self.path}"


PathConstraint = Union[Reach, Agree, SortAt]


def is_proper(pi: PathConstraint) -> bool:
    return isinstance(pi, (Agree, SortAt))


def constraint_vars(pi: PathConstraint) -> set[VarId]:
    if isinstance(pi, Reach):
        return {pi.src, pi.dst}
    if isinstance(pi, Agree):
        return {pi.lsrc, pi.rsrc}
    return {pi.src}


def _binding(gamma: Gamma, x: VarId) -> VarId | None:
    if isinstance(gamma, SolvedFormula):
        return gamma.binding.get(x)
    return None


def deref(gamma: Gamma, x: VarId) -> VarId:
    """The start node of walks from x: its binding when eliminated."""
    b = _binding(gamma, x)
    return x if b is None else b


def walk_path(gamma: Gamma, x: VarId, p: Path) -> VarId | None:
    """Follow p from x through the graph; None when some edge is missing.

    For the empty path the walk stays at x itself.  For nonempty paths
    the result is the unique variable reached, if any: after the initial
    dereference every node on the walk occurs in the graph, where edges
    are deterministic.
    """
    if not p.feats:
        return x
    node = deref(gamma, x)
    edges = gamma.edges
    for f in p.feats:
        nxt = edges.get((node, f))
        if nxt is None:
            return None
        node = nxt
    return node


def targets(gamma: Gamma, x: VarId, p: Path) -> frozenset[VarId]:
    """All y with ``x p y`` in the closure.

    Nonempty paths reach at most one variable.  The empty path reaches x
    itself and, because equations are directed, additionally the binding
    of x when x is eliminated, but never the other way around.
    """
    if not p.feats:
        b = _binding(gamma, x)
        return frozenset((x,)) if b is None else frozenset((x, b))
    y = walk_path(gamma, x, p)
    return frozenset(()) if y is None else frozenset((y,))


def closure_contains(gamma: Gamma, pi: PathConstraint) -> bool:
    """Decide membership of a path constraint in the closure of gamma."""
    if isinstance(pi, Reach):
        if not pi.path.feats:
            return pi.src == pi.dst or _binding(gamma, pi.src) == pi.dst
        return walk_path(gamma, pi.src, pi.path) == pi.dst
    if isinstance(pi, Agree):
        return bool(
            targets(gamma, pi.lsrc, pi.lpath) & targets(gamma, pi.rsrc, pi.rpath)
        )
    if isinstance(pi, SortAt):
        sorts = gamma.sorts
        return any(
            sorts.get(z) == pi.sort for z in targets(gamma, pi.src, pi.path)
        )
    raise TypeError(f"not a path constraint: {pi!r}")


def _is_trivial_shape(pi: PathConstraint) -> bool:
    # x eps x and x eps # x eps hold of every variable, bound or not
    if isinstance(pi, Reach):
        return not pi.path.feats and pi.src == pi.dst
    if isinstance(pi, Agree):
        return (
            not pi.lpath.feats
            and not pi.rpath.feats
            and pi.lsrc == pi.rsrc
        )
    return False


def prime_closure_contains(beta: "PrimeFormula", pi: PathConstraint) -> bool:
    """Closure membership for a prime formula.

    The closure of the body is filtered down to constraints that avoid
    the bound variables; only the two reflexive shapes survive the
    filter regardless of the variables they mention.
    """
    if not closure_contains(beta.body, pi):
        return False
    if _is_trivial_shape(pi):
        return True
    return not (constraint_vars(pi) & beta.bound)
