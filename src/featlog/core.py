"""Identifiers, formula syntax, sugar expansion, and shared structural
operations.

The signature has two alphabets of predicate symbols: sorts (unary,
spelled with a leading upper-case letter) and features (binary, spelled
lower-case).  Variables are spelled lower-case as well; the three
namespaces are disjoint, so the same spelling may serve as both a
feature and a variable without clash.  Both alphabets are unbounded:
there is always a sort and a feature that a given formula does not
mention, which the decision procedure relies on.

This is the bottom layer.  The modules import one another in one order,
core, solve, paths, prime, qe, models, textio, cli, each only from those
before it, so sugar expansion lives here, where ``qe`` and ``models``
reach it.  Only ``Formula.__str__`` and ``PrimeFormula.__str__`` import
a later module, the printer, when called.
"""

from __future__ import annotations

import re
from itertools import count
from keyword import iskeyword
from operator import is_, itemgetter
from typing import Iterable, Union

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
    value is written into ``__dict__`` directly, past the frozen
    ``__setattr__`` of a ``Record``, and without the lock
    ``functools.cached_property`` takes on Python 3.11; two threads may
    both compute it, and one value wins.
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


class Record:
    """Base of the immutable value classes.

    A subclass declares its fields as annotated class attributes, after
    those of its base; an annotated attribute given a value is that
    field's default.  When the subclass is created, its ``__init__``,
    ``__eq__`` and ``__hash__`` are compiled from one generated source,
    except those its body defines itself.  ``__init__`` takes the fields
    positionally or by keyword and stores them with
    ``object.__setattr__``: assigning or deleting an attribute raises
    ``AttributeError``.  Equality asks for the same class and
    equal fields, and the hash is that of the tuple of fields.  A class
    with its own ``__new__`` builds its instances itself: it gets none of
    the generated methods and keeps identity equality.  Pickling and
    copying go through the constructor, so values cached in the instance
    dict are computed afresh.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        for name in own:
            # the names are spliced into source; "_" names are the source's own
            if not name.isidentifier() or iskeyword(name) or name[0] == "_" or name == "self":
                raise TypeError(f"{cls.__name__}: {name!r} cannot name a field")
        fields = cls._fields = cls._fields + own
        if cls.__new__ is not object.__new__:
            return
        given = [name for name in fields if any(name in vars(k) for k in cls.__mro__)]
        if given != list(fields[len(fields) - len(given):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        params = "".join(f", {name}" for name in fields)
        stores = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
        mine = "".join(f"self.{name}," for name in fields)
        theirs = "".join(f"other.{name}," for name in fields)
        source = (
            f"def __init__(self{params}):\n{stores or '    pass'}\n"
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            f"def __hash__(self):\n    return hash(({mine}))\n"
        )
        namespace = {"_set": object.__setattr__}
        exec(source, namespace)
        namespace["__init__"].__defaults__ = tuple(getattr(cls, name) for name in given)
        for name in ("__init__", "__eq__", "__hash__"):
            if name not in vars(cls):
                method = namespace[name]
                method.__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Symbols:
    """Interning session for sorts, features, and variables.

    The session is the parser's symbol table: nothing after parsing
    reads or writes it, so one session may serve any number of
    decisions without growing beyond the spellings it has parsed.  A
    spelling is checked once, by the lexer or by the method that interns
    it, when it enters its table: ``parse_formula`` enters the names of
    its tokens directly, and ``sort``, ``feat`` and ``var`` check the
    spellings library callers pass them.  A lookup of a spelling already
    there is one dictionary access.  The one name the session mints is
    ``fresh_sort``'s, carrying the reserved ``_`` prefix, which the
    concrete syntax rejects and the programmatic constructors refuse, so
    it never collides with a user-supplied sort; minted sorts stay out
    of the table, so ``sort`` refuses their spelling too.  The session
    is mutable; confine it to one thread or synchronize access
    externally.
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


class Path(Record):
    """A finite word over the feature alphabet; the empty word is eps."""

    feats: tuple[FeatId, ...] = ()

    def __len__(self) -> int:
        return len(self.feats)

    def append(self, f: FeatId) -> "Path":
        return Path(self.feats + (f,))

    def __str__(self) -> str:
        if not self.feats:
            return "eps"
        return ".".join(f.name for f in self.feats)


EPS = Path()


# ---------------------------------------------------------------------------
# Atoms


class SortC(Record):
    """Sort constraint: the value of ``var`` has sort ``sort``."""

    sort: SortId
    var: VarId


class FeatC(Record):
    """Feature constraint: ``feat`` maps the value of ``src`` to ``dst``."""

    src: VarId
    feat: FeatId
    dst: VarId


class Eq(Record):
    """Directed equation.  Eq(x, y) and Eq(y, x) are distinct values."""

    lhs: VarId
    rhs: VarId


class Excl(Record):
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


class Formula(Record):
    """Base class of the abstract syntax tree."""

    def __str__(self) -> str:
        from . import textio

        return textio.print_formula(self)


class Top(Formula):
    pass


class Bottom(Formula):
    pass


class Atomic(Formula):
    atom: Atom


class Not(Formula):
    body: Formula


class And(Formula):
    """Conjunction of two or more formulae, built as ``And((a, b, ...))``."""

    args: tuple[Formula, ...]


class Or(Formula):
    """Disjunction of two or more formulae, built as ``Or((a, b, ...))``."""

    args: tuple[Formula, ...]


class Implies(Formula):
    lhs: Formula
    rhs: Formula


class Iff(Formula):
    lhs: Formula
    rhs: Formula


class Exists(Formula):
    """Existential block over one or more variables, built as
    ``Exists((x, y, ...), body)``; it means ``exists x. exists y. ... body``."""

    vars: tuple[VarId, ...]
    body: Formula


class Forall(Formula):
    """Universal block over one or more variables, built as
    ``Forall((x, y, ...), body)``; it means ``forall x. forall y. ... body``."""

    vars: tuple[VarId, ...]
    body: Formula


class SugarAgree(Formula):
    """Path agreement sugar: the paths from two roots meet in one value."""

    lhs: VarId
    lpath: Path
    rhs: VarId
    rpath: Path


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


# ---------------------------------------------------------------------------
# Sugar expansion


def expand_sugar(phi: Formula) -> Formula:
    """Rewrite exclusion and path sugar into core atoms and quantifiers.

    The result contains only true/false, sort, feature and equation
    atoms, connectives, and quantifiers.  The variables a sugar node
    introduces are bound by its own expansion and spelled with the
    reserved ``_`` prefix, numbered per call (``_y1``, ``_z2``, ...),
    skipping a spelling the node itself mentions.  Such a binder may
    shadow an unrelated outer variable of the same spelling, which is
    harmless: the expansion's body mentions only the node's own
    variables and binders.
    """
    numbers = count(1)

    def fresh(hint: str, mentioned: tuple[VarId, ...]) -> VarId:
        while True:
            v = VarId(f"_{hint}{next(numbers)}")
            if v not in mentioned:
                return v

    def chain(x: VarId, p: Path, z: VarId, mentioned) -> tuple[list[VarId], list[Formula]]:
        # atoms stating that p leads from x to z, with fresh inner nodes;
        # the empty path degenerates to the equation x = z
        if not p.feats:
            return [], [Atomic(Eq(x, z))]
        inner = [fresh("z", mentioned) for _ in p.feats[:-1]]
        nodes = [x] + inner + [z]
        atoms = [Atomic(FeatC(nodes[i], f, nodes[i + 1])) for i, f in enumerate(p.feats)]
        return inner, atoms

    def go(phi: Formula) -> Formula:
        if isinstance(phi, (Top, Bottom)):
            return phi
        if isinstance(phi, Atomic):
            if isinstance(phi.atom, Excl):
                x = phi.atom.var
                w = fresh("y", (x,))
                return Not(Exists((w,), Atomic(FeatC(x, phi.atom.feat, w))))
            return phi
        if isinstance(phi, SugarSortAt):
            mentioned = (phi.var,)
            w = fresh("y", mentioned)
            inner, atoms = chain(phi.var, phi.path, w, mentioned)
            return exists_all(inner + [w], conj(atoms + [Atomic(SortC(phi.sort, w))]))
        if isinstance(phi, SugarAgree):
            mentioned = (phi.lhs, phi.rhs)
            z = fresh("z", mentioned)
            linner, latoms = chain(phi.lhs, phi.lpath, z, mentioned)
            rinner, ratoms = chain(phi.rhs, phi.rpath, z, mentioned)
            return exists_all([z] + linner + rinner, conj(latoms + ratoms))
        # a node with no sugar below it is returned as it is
        if isinstance(phi, (Not, Exists, Forall)):
            body = go(phi.body)
            if body is phi.body:
                return phi
            return Not(body) if isinstance(phi, Not) else type(phi)(phi.vars, body)
        if isinstance(phi, (And, Or)):
            args = tuple(map(go, phi.args))
            return phi if all(map(is_, args, phi.args)) else type(phi)(args)
        if isinstance(phi, (Implies, Iff)):
            lhs, rhs = go(phi.lhs), go(phi.rhs)
            return phi if lhs is phi.lhs and rhs is phi.rhs else type(phi)(lhs, rhs)
        raise ValueError(f"unknown formula node {phi!r}")

    try:
        return go(phi)
    finally:
        # go refers to itself: deleting it breaks the cycle
        del go


# ---------------------------------------------------------------------------
# Basic formulae


class BasicFormula(Record):
    """A multiset of sort, feature, and equation atoms.

    Conjunction is kept as an ordered sequence; duplicates are
    preserved until simplification removes them.  ``false`` is
    represented by the separate ``Bottom`` value, not by an atom.
    """

    atoms: tuple[Union[SortC, FeatC, Eq], ...]

    def __init__(self, atoms: tuple[Union[SortC, FeatC, Eq], ...]) -> None:
        for a in atoms:
            if isinstance(a, Excl):
                raise ValueError("exclusion constraints do not occur in basic formulae")
        object.__setattr__(self, "atoms", atoms)

    @cached_field
    def variables(self) -> frozenset[VarId]:
        out: set[VarId] = set()
        for a in self.atoms:
            out.update(atom_vars(a))
        return frozenset(out)

