"""Identifiers, formula syntax, and shared structural operations.

The signature has two alphabets of predicate symbols: sorts (unary,
spelled with a leading upper-case letter) and features (binary, spelled
lower-case).  Variables are spelled lower-case as well; the three
namespaces are disjoint, so the same spelling may serve as both a
feature and a variable without clash.  Both alphabets are unbounded:
there is always a sort and a feature that a given formula does not
mention, which the decision procedure relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Union

NAME_PATTERN = re.compile(r"\A[A-Za-z][A-Za-z0-9_]*\Z")
RESERVED_WORDS = frozenset({"true", "false", "exists", "forall", "undef", "eps"})


class _Ident(tuple):
    """Interned identifier: the pair (kind, spelling).

    Equality, hashing and ordering are the tuple's own, so they run in C.
    Identifiers of different kinds never compare equal, values built in
    different sessions compare the way their printed forms do, and within
    a kind lexicographic order on the spelling keeps canonical forms
    stable across sessions.
    """

    __slots__ = ()

    def __new__(cls, name: str):
        return tuple.__new__(cls, (cls.__name__, name))

    def __getnewargs__(self) -> tuple[str]:
        # pickle and copy rebuild the identifier from its spelling
        return (self[1],)

    name = property(itemgetter(1))

    def __str__(self) -> str:
        return self[1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self[1]!r})"


class SortId(_Ident):
    """Name of a sort (unary predicate)."""

    __slots__ = ()


class FeatId(_Ident):
    """Name of a feature (binary predicate)."""

    __slots__ = ()


class VarId(_Ident):
    """Name of a first-order variable."""

    __slots__ = ()


class cached_field:
    """A method computed on first access and stored in the instance dict.

    A non-data descriptor: once the value is in ``__dict__`` it shadows
    the descriptor, so later reads are plain attribute lookups.  The
    value is written into ``__dict__`` directly, which frozen dataclasses
    allow, and without the lock ``functools.cached_property`` takes on
    Python 3.11; two threads may both compute it, and one value wins.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.attr = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attr] = self.func(instance)
        return value


class Symbols:
    """Interning session for sorts, features, and variables.

    The session is the parser's symbol table: nothing after parsing
    reads or writes it, so one session may serve any number of
    decisions without growing beyond the spellings it has parsed.  A
    spelling is checked once, when it enters its table; a lookup of a
    spelling already there is one dictionary access.  The one name the
    session mints is ``fresh_sort``'s, carrying the reserved ``_``
    prefix, which the concrete syntax rejects and the programmatic
    constructors refuse, so it never collides with a user-supplied
    sort; minted sorts stay out of the table, so ``sort`` refuses their
    spelling too.  The session is mutable; confine it to one thread or
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
        ident = self._sorts.get(name)
        if ident is None:
            self._check(name, upper=True)
            ident = self._sorts[name] = SortId(name)
        return ident

    def feat(self, name: str) -> FeatId:
        ident = self._feats.get(name)
        if ident is None:
            self._check(name, upper=False)
            ident = self._feats[name] = FeatId(name)
        return ident

    def var(self, name: str) -> VarId:
        ident = self._vars.get(name)
        if ident is None:
            self._check(name, upper=False)
            ident = self._vars[name] = VarId(name)
        return ident

    def fresh_sort(self, hint: str = "S") -> SortId:
        """A sort distinct from every sort interned or minted so far."""
        self._fresh += 1
        return SortId(f"_{hint.lstrip('_') or 'S'}{self._fresh}")


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

def atom_key(a: Atom):
    """Total order on atoms: kind first, then identifiers, which order by
    spelling within one kind and compare in C."""
    if isinstance(a, Eq):
        return (0, a.lhs, a.rhs)
    if isinstance(a, SortC):
        return (1, a.var, a.sort)
    if isinstance(a, FeatC):
        return (2, a.src, a.feat, a.dst)
    return (3, a.var, a.feat)


def atom_vars(a: Atom) -> tuple[VarId, ...]:
    if isinstance(a, Eq):
        return (a.lhs, a.rhs)
    if isinstance(a, SortC):
        return (a.var,)
    if isinstance(a, FeatC):
        return (a.src, a.dst)
    return (a.var,)


def rename_atom(a: Atom, mapping: dict[VarId, VarId]) -> Atom:
    """Replace every variable of ``a`` by its image under ``mapping``."""
    if isinstance(a, SortC):
        return SortC(a.sort, mapping.get(a.var, a.var))
    if isinstance(a, FeatC):
        return FeatC(mapping.get(a.src, a.src), a.feat, mapping.get(a.dst, a.dst))
    if isinstance(a, Eq):
        return Eq(mapping.get(a.lhs, a.lhs), mapping.get(a.rhs, a.rhs))
    return Excl(mapping.get(a.var, a.var), a.feat)


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
    """Conjunction of two or more formulae, built as ``And((a, b, ...))``."""

    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction of two or more formulae, built as ``Or((a, b, ...))``."""

    args: tuple[Formula, ...]


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
    """Existential block over one or more variables, built as
    ``Exists((x, y, ...), body)``; it means ``exists x. exists y. ... body``."""

    vars: tuple[VarId, ...]
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    """Universal block over one or more variables, built as
    ``Forall((x, y, ...), body)``; it means ``forall x. forall y. ... body``."""

    vars: tuple[VarId, ...]
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

_NARY = (And, Or)
_BINARY = (Implies, Iff)
_QUANT = (Exists, Forall)


def conj(parts: Iterable[Formula]) -> Formula:
    """Conjunction of ``parts``: none gives ``true``, one gives the part."""
    args = tuple(parts)
    if len(args) < 2:
        return args[0] if args else TOP
    return And(args)


def exists_all(vs: Iterable[VarId], body: Formula) -> Formula:
    """One existential block over ``vs``; none gives the body itself."""
    vs = tuple(vs)
    return Exists(vs, body) if vs else body


def forall_all(vs: Iterable[VarId], body: Formula) -> Formula:
    """One universal block over ``vs``; none gives the body itself."""
    vs = tuple(vs)
    return Forall(vs, body) if vs else body


def free_vars(phi: Formula) -> set[VarId]:
    """The variables occurring free in ``phi``."""
    out: set[VarId] = set()

    def go(psi: Formula, bound: frozenset[VarId]) -> None:
        if isinstance(psi, Atomic):
            out.update(v for v in atom_vars(psi.atom) if v not in bound)
        elif isinstance(psi, Not):
            go(psi.body, bound)
        elif isinstance(psi, _NARY):
            for arg in psi.args:
                go(arg, bound)
        elif isinstance(psi, _BINARY):
            go(psi.lhs, bound)
            go(psi.rhs, bound)
        elif isinstance(psi, _QUANT):
            go(psi.body, bound.union(psi.vars))
        elif isinstance(psi, SugarAgree):
            out.update(v for v in (psi.lhs, psi.rhs) if v not in bound)
        elif isinstance(psi, SugarSortAt):
            if psi.var not in bound:
                out.add(psi.var)

    try:
        go(phi, frozenset())
    finally:
        # go refers to itself: deleting it breaks the cycle
        del go
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
        return Atomic(rename_atom(phi.atom, {x: y}))
    if isinstance(phi, Not):
        return Not(substitute(phi.body, x, y))
    if isinstance(phi, _NARY):
        return type(phi)(tuple(substitute(arg, x, y) for arg in phi.args))
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

    @cached_field
    def variables(self) -> frozenset[VarId]:
        out: set[VarId] = set()
        for a in self.atoms:
            out.update(atom_vars(a))
        return frozenset(out)

