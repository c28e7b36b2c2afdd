"""Identifiers, formula syntax, and shared structural operations.

The signature has two alphabets of predicate symbols: sorts (unary,
spelled with a leading upper-case letter) and features (binary, spelled
lower-case).  Variables are spelled lower-case as well; the three
namespaces are disjoint, so the same spelling may serve as both a
feature and a variable without clash.  Both alphabets are unbounded: a
session can always mint identifiers that were never seen before, which
is what several constructions rely on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Union

NAME_PATTERN = re.compile(r"\A[A-Za-z][A-Za-z0-9_]*\Z")
RESERVED_WORDS = frozenset({"true", "false", "exists", "forall", "undef", "eps"})
RESERVED_PREFIX = "_"


@dataclass(frozen=True)
class _Ident:
    """Interned identifier: spelling plus a per-session numeric handle.

    Equality and hashing use the spelling only, so values built in
    different sessions compare the way their printed forms do.  Ordering
    is lexicographic on the spelling, which keeps canonical forms stable
    across sessions.
    """

    name: str
    num: int = field(compare=False)

    def __str__(self) -> str:
        return self.name

    def __lt__(self, other: "_Ident") -> bool:
        return self.name < other.name

    def __le__(self, other: "_Ident") -> bool:
        return self.name <= other.name


class SortId(_Ident):
    """Name of a sort (unary predicate)."""


class FeatId(_Ident):
    """Name of a feature (binary predicate)."""


class VarId(_Ident):
    """Name of a first-order variable."""


class Symbols:
    """Interning session for sorts, features, and variables.

    Fresh identifiers carry the reserved ``_`` prefix, which the concrete
    syntax rejects and the programmatic constructors refuse, so generated
    names can never collide with user-supplied ones.  The session is the
    only mutable object in the library; confine it to one thread or
    synchronize access externally.
    """

    def __init__(self) -> None:
        self._sorts: dict[str, SortId] = {}
        self._feats: dict[str, FeatId] = {}
        self._vars: dict[str, VarId] = {}
        self._fresh = 0

    def _check(self, name: str, upper: bool) -> None:
        if not name or not NAME_PATTERN.match(name):
            raise ValueError(f"bad identifier {name!r}")
        if name in RESERVED_WORDS:
            raise ValueError(f"{name!r} is a reserved word")
        if upper and not name[0].isupper():
            raise ValueError(f"sort names start upper-case: {name!r}")
        if not upper and not name[0].islower():
            raise ValueError(f"feature and variable names start lower-case: {name!r}")

    def sort(self, name: str) -> SortId:
        self._check(name, upper=True)
        ident = self._sorts.get(name)
        if ident is None:
            ident = SortId(name, len(self._sorts))
            self._sorts[name] = ident
        return ident

    def feat(self, name: str) -> FeatId:
        self._check(name, upper=False)
        ident = self._feats.get(name)
        if ident is None:
            ident = FeatId(name, len(self._feats))
            self._feats[name] = ident
        return ident

    def var(self, name: str) -> VarId:
        self._check(name, upper=False)
        ident = self._vars.get(name)
        if ident is None:
            ident = VarId(name, len(self._vars))
            self._vars[name] = ident
        return ident

    def _fresh_name(self, table: dict, hint: str) -> str:
        hint = hint.lstrip("_") or "v"
        while True:
            self._fresh += 1
            name = f"_{hint}{self._fresh}"
            if name not in table:
                return name

    def fresh_var(self, hint: str = "v") -> VarId:
        """A variable distinct from everything interned so far."""
        name = self._fresh_name(self._vars, hint)
        ident = VarId(name, len(self._vars))
        self._vars[name] = ident
        return ident

    def fresh_sort(self, hint: str = "S") -> SortId:
        name = self._fresh_name(self._sorts, hint)
        ident = SortId(name, len(self._sorts))
        self._sorts[name] = ident
        return ident

    def fresh_feat(self, hint: str = "f") -> FeatId:
        name = self._fresh_name(self._feats, hint)
        ident = FeatId(name, len(self._feats))
        self._feats[name] = ident
        return ident


# ---------------------------------------------------------------------------
# Paths


@dataclass(frozen=True)
class Path:
    """A finite word over the feature alphabet; the empty word is eps."""

    feats: tuple[FeatId, ...] = ()

    def __len__(self) -> int:
        return len(self.feats)

    def __add__(self, other: "Path") -> "Path":
        return Path(self.feats + other.feats)

    def append(self, f: FeatId) -> "Path":
        return Path(self.feats + (f,))

    def is_prefix_of(self, other: "Path") -> bool:
        return self.feats == other.feats[: len(self.feats)]

    def prefixes(self) -> Iterator["Path"]:
        """All prefixes from eps up to the path itself."""
        for i in range(len(self.feats) + 1):
            yield Path(self.feats[:i])

    def __str__(self) -> str:
        if not self.feats:
            return "eps"
        return ".".join(f.name for f in self.feats)


EPS = Path()


# ---------------------------------------------------------------------------
# Atoms


@dataclass(frozen=True)
class SortC:
    """Sort constraint: the value of ``var`` has sort ``sort``."""

    sort: SortId
    var: VarId


@dataclass(frozen=True)
class FeatC:
    """Feature constraint: ``feat`` maps the value of ``src`` to ``dst``."""

    src: VarId
    feat: FeatId
    dst: VarId


@dataclass(frozen=True)
class Eq:
    """Directed equation.  Eq(x, y) and Eq(y, x) are distinct values."""

    lhs: VarId
    rhs: VarId


@dataclass(frozen=True)
class Excl:
    """Exclusion constraint: ``feat`` is undefined on the value of ``var``.

    Exclusions never occur inside basic formulae; they appear in solved
    clauses and as input sugar (``undef``), where they abbreviate the
    negated existential feature constraint.
    """

    var: VarId
    feat: FeatId


Atom = Union[SortC, FeatC, Eq, Excl]

_ATOM_RANK = {Eq: 0, SortC: 1, FeatC: 2, Excl: 3}


def atom_key(a: Atom):
    """Total order on atoms: kind first, then spellings."""
    if isinstance(a, Eq):
        return (0, a.lhs.name, a.rhs.name)
    if isinstance(a, SortC):
        return (1, a.var.name, a.sort.name)
    if isinstance(a, FeatC):
        return (2, a.src.name, a.feat.name, a.dst.name)
    return (3, a.var.name, a.feat.name)


def atom_vars(a: Atom) -> tuple[VarId, ...]:
    if isinstance(a, Eq):
        return (a.lhs, a.rhs)
    if isinstance(a, SortC):
        return (a.var,)
    if isinstance(a, FeatC):
        return (a.src, a.dst)
    return (a.var,)


def substitute_atom(a: Atom, x: VarId, y: VarId) -> Atom:
    if isinstance(a, Eq):
        return Eq(y if a.lhs == x else a.lhs, y if a.rhs == x else a.rhs)
    if isinstance(a, SortC):
        return SortC(a.sort, y) if a.var == x else a
    if isinstance(a, FeatC):
        return FeatC(y if a.src == x else a.src, a.feat, y if a.dst == x else a.dst)
    return Excl(y, a.feat) if a.var == x else a


# ---------------------------------------------------------------------------
# Formulae


class Formula:
    """Base class of the abstract syntax tree."""

    def __str__(self) -> str:
        from . import textio

        return textio.print_formula(self)


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Atomic(Formula):
    atom: Atom


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: VarId
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: VarId
    body: Formula


@dataclass(frozen=True)
class SugarAgree(Formula):
    """Path agreement sugar: the paths from two roots meet in one value."""

    lhs: VarId
    lpath: Path
    rhs: VarId
    rpath: Path


@dataclass(frozen=True)
class SugarSortAt(Formula):
    """Sort-at-path sugar: the value reached along ``path`` has ``sort``."""

    sort: SortId
    var: VarId
    path: Path


TOP = Top()
BOTTOM = Bottom()

_BINARY = (And, Or, Implies, Iff)
_QUANT = (Exists, Forall)


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-nested conjunction of ``parts``; empty gives ``true``."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TOP if out is None else out


def conjuncts(phi: Formula) -> list[Formula]:
    """Flatten a conjunction tree into its leaves (``true`` drops out)."""
    if isinstance(phi, And):
        return conjuncts(phi.lhs) + conjuncts(phi.rhs)
    if isinstance(phi, Top):
        return []
    return [phi]


def exists_all(vs: Iterable[VarId], body: Formula) -> Formula:
    out = body
    for v in reversed(list(vs)):
        out = Exists(v, out)
    return out


def forall_all(vs: Iterable[VarId], body: Formula) -> Formula:
    out = body
    for v in reversed(list(vs)):
        out = Forall(v, out)
    return out


def free_vars(phi: Formula) -> set[VarId]:
    """The variables occurring free in ``phi``."""
    out: set[VarId] = set()

    def go(psi: Formula, bound: frozenset[VarId]) -> None:
        if isinstance(psi, Atomic):
            out.update(v for v in atom_vars(psi.atom) if v not in bound)
        elif isinstance(psi, Not):
            go(psi.body, bound)
        elif isinstance(psi, _BINARY):
            go(psi.lhs, bound)
            go(psi.rhs, bound)
        elif isinstance(psi, _QUANT):
            go(psi.body, bound | {psi.var})
        elif isinstance(psi, SugarAgree):
            out.update(v for v in (psi.lhs, psi.rhs) if v not in bound)
        elif isinstance(psi, SugarSortAt):
            if psi.var not in bound:
                out.add(psi.var)

    go(phi, frozenset())
    return out


def substitute(phi: Formula, x: VarId, y: VarId) -> Formula:
    """Replace every occurrence of ``x`` by ``y``.

    Only defined on quantifier-free formulae; the callers that need
    substitution never apply it under a binder, which keeps capture out
    of the picture entirely.
    """
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, Atomic):
        return Atomic(substitute_atom(phi.atom, x, y))
    if isinstance(phi, Not):
        return Not(substitute(phi.body, x, y))
    if isinstance(phi, _BINARY):
        return type(phi)(substitute(phi.lhs, x, y), substitute(phi.rhs, x, y))
    if isinstance(phi, SugarAgree):
        return SugarAgree(
            y if phi.lhs == x else phi.lhs,
            phi.lpath,
            y if phi.rhs == x else phi.rhs,
            phi.rpath,
        )
    if isinstance(phi, SugarSortAt):
        return SugarSortAt(phi.sort, y if phi.var == x else phi.var, phi.path)
    raise ValueError("substitution is only defined on quantifier-free formulae")


# ---------------------------------------------------------------------------
# Basic formulae


@dataclass(frozen=True)
class BasicFormula:
    """A multiset of sort, feature, and equation atoms.

    Conjunction is kept as an ordered sequence; duplicates are
    preserved until simplification removes them.  ``false`` is
    represented by the separate ``Bottom`` value, not by an atom.
    """

    atoms: tuple[Union[SortC, FeatC, Eq], ...]

    def __post_init__(self) -> None:
        for a in self.atoms:
            if isinstance(a, Excl):
                raise ValueError("exclusion constraints do not occur in basic formulae")

    @cached_property
    def variables(self) -> frozenset[VarId]:
        out: set[VarId] = set()
        for a in self.atoms:
            out.update(atom_vars(a))
        return frozenset(out)

