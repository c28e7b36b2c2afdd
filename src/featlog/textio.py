"""Concrete syntax: parsing, sugar expansion, and deterministic printing.

Grammar (operators listed loosest first; ``->`` and ``<->`` associate to
the right, quantifier scope extends maximally to the right)::

    formula  := "true" | "false" | atom | "~" formula | formula "&" formula
              | formula "|" formula | formula "->" formula | formula "<->" formula
              | ("exists"|"forall") var ("," var)* "." formula | "(" formula ")"
    atom     := UIdent "(" var ")"                    sort constraint A(x)
              | lident "(" var "," var ")"            feature constraint f(x,y)
              | var "=" var                           equation
              | "undef" "(" var "," lident ")"        feature exclusion
              | var "." path "=" var "." path         path agreement
              | UIdent "@" var "." path               sort at path
    path     := "eps" | lident ("." lident)*

``UIdent`` starts upper-case, ``lident`` and ``var`` start lower-case.
Identifiers beginning with ``_`` are reserved for generated names and
rejected on input.  Whitespace and ``#`` comments are ignored; input is
UTF-8.

The lexer is one ``findall`` of one regular expression, which yields
every token and comment and skips whitespace between them.  A token's
kind is its own text for punctuation and reserved words, and ``uident``
or ``lident``, by the case of its first letter, for any other
identifier; a leading ``_`` or any other character is an error.  So a
name the parser takes from a ``uident`` or ``lident`` token is already a
valid spelling of its kind, and the parser interns it straight into the
session's table, without the check ``Symbols.sort``, ``feat`` and
``var`` make.

``print_formula`` is the one printer, of formulae and of the Boolean
combinations of primes that decisions leave as residues: one walk that
builds each node's text once and stops past ``MAX_PRINT_CHARS``
characters built.  This module sits above ``prime`` and ``qe`` and
imports the node classes it prints from them.  Sugar expansion lives in
``core``, where ``qe`` and ``models`` import it from; this module
re-exports ``expand_sugar``, so the concrete syntax is parse, expand and
print in one place.
"""

from __future__ import annotations

import re
from itertools import islice

from .core import (
    BOTTOM,
    RESERVED_WORDS,
    EPS,
    TOP,
    Agree,
    And,
    Atomic,
    Bottom,
    Eq,
    Excl,
    Exists,
    FeatC,
    FeatId,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Path,
    Record,
    SortAt,
    SortC,
    SortId,
    Symbols,
    Top,
    VarId,
    atom_key,
    expand_sugar,
)
from .prime import PrimeFormula
from .qe import BcAnd, BcNot, BcOr, BoolComb, ResourceLimit


class SourceSpan(Record):
    """Character offsets (start, end) into the input text, counted in
    code points, not in bytes of its UTF-8 encoding."""

    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


# One alternative per lexeme, and none for whitespace: the search loop of
# ``findall`` skips it between matches, in C.  A comment is a match of its
# own, which ``_scan`` drops.  Skipped text is never a prefix of a token,
# which keeps the scan linear; a prefix such as ``(?:\s+|#[^\n]*)*``
# backtracks exponentially.  The identifier comes first, so it is always
# matched whole; punctuation and any other character are one ``\S`` each.
# The pattern has no capture group, so ``findall`` returns whole matches.
_LEXEME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|<->|->|#[^\n]*|\S")

# the kind of a lexeme that is a kind of its own: punctuation and keywords
_OWN_KIND = {w: w for w in ("<->", "->", *"()~&|=@.,", *RESERVED_WORDS)}
# the kind of any other identifier, by its first letter
_IDENT_KIND = {
    c: "uident" if c.isupper() else "lident"
    for c in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
}


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The tokens of ``text`` as parallel lists of kind and text, ending
    with an ``eof`` token."""
    texts = _LEXEME_RE.findall(text)
    if "#" in text:
        texts = [t for t in texts if t[0] != "#"]
    kinds = [_OWN_KIND.get(t) or _IDENT_KIND.get(t[0]) for t in texts]
    if not all(kinds):
        i = kinds.index(None)
        lexeme, start = texts[i], _token_start(text, i)
        if lexeme[0] == "_":
            raise ParseError(
                "identifiers starting with '_' are reserved",
                SourceSpan(start, start + len(lexeme)),
            )
        raise ParseError(f"unexpected character {lexeme!r}", SourceSpan(start, start + 1))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _token_start(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts, and for the ``eof`` token the
    end of the text.  Positions are found again only for an error."""
    starts = (m.start() for m in _LEXEME_RE.finditer(text) if text[m.start()] != "#")
    return next(islice(starts, i, None), len(text))


_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NOT = 5
_PREC_ATOM = 6

_BINARY = {
    "<->": (Iff, _PREC_IFF),
    "->": (Implies, _PREC_IMPLIES),
    "|": (Or, _PREC_OR),
    "&": (And, _PREC_AND),
}


def _intern(table: dict, kind, name: str):
    """Enter ``name``, seen for the first time, into a table of the
    session, unchecked: the lexer has made it an identifier that is not
    reserved, has no leading ``_`` and has the case its token kind says."""
    ident = table[name] = kind(name)
    return ident


class _Parser:
    """Recursive descent over the token lists; ``pos`` never passes the
    ``eof`` token, whose kind no rule consumes.  Names go straight into
    the session's tables (``_intern``)."""

    def __init__(self, sym: Symbols, text: str):
        self.sorts, self.feats, self.vars = sym._sorts, sym._feats, sym._vars
        self.text = text
        self.kinds, self.texts = _scan(text)
        self.pos = 0

    def take(self, kind: str, what: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.fail(f"expected {what}, found {self.texts[pos] or 'end of input'!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def fail(self, message: str) -> ParseError:
        """An error at the next token."""
        start = _token_start(self.text, self.pos)
        return ParseError(message, SourceSpan(start, start + len(self.texts[self.pos])))

    def parse(self) -> Formula:
        phi = self.parse_binary(_PREC_IFF)
        if self.kinds[self.pos] != "eof":
            raise self.fail(f"unexpected {self.texts[self.pos]!r} after formula")
        return phi

    def parse_binary(self, least: int) -> Formula:
        """Precedence climbing over connectives at least as tight as
        ``least``: a chain of ``&`` or ``|`` is one n-ary node of tighter
        operands, and ``->`` and ``<->`` associate to the right."""
        lhs = self.parse_unary()
        kinds = self.kinds
        while True:
            op = kinds[self.pos]
            node, prec = _BINARY.get(op, (None, 0))
            if prec < least:
                return lhs
            if node is Implies or node is Iff:
                self.pos += 1
                lhs = node(lhs, self.parse_binary(prec))
                continue
            args = [lhs]
            while kinds[self.pos] == op:
                self.pos += 1
                args.append(self.parse_unary() if node is And else self.parse_binary(prec + 1))
            lhs = node(tuple(args))

    def parse_unary(self) -> Formula:
        kind = self.kinds[self.pos]
        if kind == "~":
            self.pos += 1
            return Not(self.parse_unary())
        if kind == "exists" or kind == "forall":
            self.pos += 1
            names = [self.parse_var()]
            while self.kinds[self.pos] == ",":
                self.pos += 1
                names.append(self.parse_var())
            self.take(".", "'.' after quantified variables")
            body = self.parse_binary(_PREC_IFF)
            return _block(Exists if kind == "exists" else Forall, names, body)
        return self.parse_primary()

    def var(self, name: str) -> VarId:
        return self.vars.get(name) or _intern(self.vars, VarId, name)

    def feat(self, name: str) -> FeatId:
        return self.feats.get(name) or _intern(self.feats, FeatId, name)

    def parse_var(self) -> VarId:
        return self.var(self.take("lident", "a variable"))

    def parse_feat(self) -> FeatId:
        return self.feat(self.take("lident", "a feature"))

    def parse_path(self) -> Path:
        if self.kinds[self.pos] == "eps":
            self.pos += 1
            if self.kinds[self.pos] == ".":
                raise self.fail("'eps' stands alone as a path")
            return EPS
        feats = [self.parse_feat()]
        while self.kinds[self.pos] == ".":
            self.pos += 1
            feats.append(self.parse_feat())
        return Path(tuple(feats))

    def parse_primary(self) -> Formula:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "(":
            self.pos = pos + 1
            phi = self.parse_binary(_PREC_IFF)
            self.take(")", "')'")
            return phi
        if kind == "uident":
            name = self.texts[pos]
            sort = self.sorts.get(name) or _intern(self.sorts, SortId, name)
            nxt = self.kinds[pos + 1]
            if nxt == "(":
                self.pos = pos + 2
                v = self.parse_var()
                self.take(")", "')'")
                return Atomic(SortC(sort, v))
            if nxt == "@":
                self.pos = pos + 2
                v = self.parse_var()
                self.take(".", "'.' before the path")
                return SortAt(sort, v, self.parse_path())
            self.pos = pos + 1
            raise self.fail("expected '(' or '@' after a sort name")
        if kind == "lident":
            name = self.texts[pos]
            nxt = self.kinds[pos + 1]
            self.pos = pos + 2
            if nxt == "(":
                feat = self.feat(name)
                a = self.parse_var()
                self.take(",", "','")
                b = self.parse_var()
                self.take(")", "')'")
                return Atomic(FeatC(a, feat, b))
            if nxt == "=":
                rhs = self.parse_var()
                if self.kinds[self.pos] == ".":
                    raise self.fail(
                        "equations relate plain variables; "
                        "write x.eps = y.p for path agreement"
                    )
                return Atomic(Eq(self.var(name), rhs))
            if nxt == ".":
                lpath = self.parse_path()
                self.take("=", "'=' in a path agreement")
                rhs = self.parse_var()
                self.take(".", "'.' before the right-hand path")
                return Agree(self.var(name), lpath, rhs, self.parse_path())
            self.pos = pos + 1
            raise self.fail("expected '(', '=' or '.' after an identifier")
        if kind == "true":
            self.pos = pos + 1
            return TOP
        if kind == "false":
            self.pos = pos + 1
            return BOTTOM
        if kind == "undef":
            self.pos = pos + 1
            self.take("(", "'(' after undef")
            v = self.parse_var()
            self.take(",", "','")
            f = self.parse_feat()
            self.take(")", "')'")
            return Atomic(Excl(v, f))
        raise self.fail("expected a formula")


def _block(node, vs, body: Formula) -> Formula:
    """One quantifier node over ``vs``, merged with a block of the same
    kind that is its whole body."""
    if isinstance(body, node):
        return node((*vs, *body.vars), body.body)
    return node(tuple(vs), body)


def parse_formula(sym: Symbols, text: str) -> Formula:
    """Parse one formula; raises ParseError with a source span on failure."""
    return _Parser(sym, text).parse()


# ---------------------------------------------------------------------------
# Printing

# Characters printing may build: past it, ``ResourceLimit``.  A residue of
# n atoms can unfold to 2**n; the bound leaves room for solved forms and
# residues of input far wider than any the tests and the benchmark use.
MAX_PRINT_CHARS = 10_000_000


# Identifiers print by their spelling, ``.name``, which reads it in C;
# formatting one calls ``_Ident.__str__``.
def _atom_str(atom) -> str:
    if isinstance(atom, SortC):
        return f"{atom.sort.name}({atom.var.name})"
    if isinstance(atom, FeatC):
        return f"{atom.feat.name}({atom.src.name}, {atom.dst.name})"
    if isinstance(atom, Eq):
        return f"{atom.lhs.name} = {atom.rhs.name}"
    return f"undef({atom.var.name}, {atom.feat.name})"


def _operand(part: tuple[str, int], min_prec: int) -> str:
    """The text of an operand, parenthesised when it binds looser than
    ``min_prec``."""
    text, prec = part
    return text if prec >= min_prec else f"({text})"


def _quantified_text(word: str, names, body: tuple[str, int]) -> tuple[str, int]:
    """A quantifier block over the variable spellings ``names``; a binary
    connective as its body is parenthesised."""
    text, prec = body
    if _PREC_IFF <= prec <= _PREC_AND:
        text = f"({text})"
    return f"{word} {', '.join(names)}. {text}", 0


def print_formula(phi: Formula | BoolComb) -> str:
    """Deterministic text form of a formula, or of a Boolean combination
    of primes, which prints as the formula it stands for: a prime as its
    atoms in ``atom_key`` order under ``exists`` of its sorted bound
    variables, and the negations, conjunctions and disjunctions of primes
    as the connectives they are.

    Reparsing yields the same tree, except that a first argument of the
    same connective joins its parent: ``And((And((a, b)), c))`` prints
    as ``a & b & c``, which parses as ``And((a, b, c))``.  Likewise a
    quantifier block prints its own variables and a block of the same
    kind as its body joins it: ``Exists((x,), Exists((y,), b))`` prints
    as ``exists x. exists y. b``, which parses as ``Exists((x, y), b)``.

    A residue is a hash-consed DAG whose tree unfolding can be
    exponential in its size.  The walk builds each node's text once,
    through a table keyed by node identity (a formula's hash walks its
    subtree), and counts the characters it builds; past
    ``MAX_PRINT_CHARS`` it raises ``ResourceLimit``.  Each node's text
    holds its operands', so the count bounds the text printed as well as
    the time and memory spent building it.
    """
    done: dict[int, tuple[str, int]] = {}
    built = 0

    def go(node) -> tuple[str, int]:
        nonlocal built
        key = id(node)
        out = done.get(key)
        if out is not None:
            return out
        # no node class has subclasses: its exact class is cheaper to test
        kind = type(node)
        if kind is Atomic:
            out = _atom_str(node.atom), _PREC_ATOM
        elif kind is And or kind is Or or kind is BcAnd or kind is BcOr:
            # the first operand at the connective's own precedence, the
            # rest one level higher, so a left-nested chain prints
            # unparenthesised
            prec = _PREC_AND if kind is And or kind is BcAnd else _PREC_OR
            first, *rest = map(go, node.args)
            texts = [_operand(first, prec)] + [_operand(part, prec + 1) for part in rest]
            out = (" & " if prec == _PREC_AND else " | ").join(texts), prec
        elif kind is PrimeFormula:
            atoms = node.body.normalizer + node.body.graph
            if len(atoms) > 1:
                # sorted together: the normalizer holds only equations,
                # which come first in atom_key order
                out = " & ".join(map(_atom_str, sorted(atoms, key=atom_key))), _PREC_AND
            else:
                out = (_atom_str(atoms[0]) if atoms else "true"), _PREC_ATOM
            if node.bound:
                out = _quantified_text("exists", [v.name for v in sorted(node.bound)], out)
        elif kind is Not or kind is BcNot:
            arg = node.body if kind is Not else node.arg
            out = "~" + _operand(go(arg), _PREC_NOT), _PREC_NOT
        elif kind is Exists or kind is Forall:
            word = "exists" if kind is Exists else "forall"
            out = _quantified_text(word, [v.name for v in node.vars], go(node.body))
        elif kind is Implies or kind is Iff:
            prec, op = (_PREC_IMPLIES, " -> ") if kind is Implies else (_PREC_IFF, " <-> ")
            out = _operand(go(node.lhs), prec + 1) + op + _operand(go(node.rhs), prec), prec
        elif kind is Top or kind is Bottom:
            out = ("true" if kind is Top else "false"), _PREC_ATOM
        elif kind is Agree:
            out = f"{node.lhs.name}.{node.lpath} = {node.rhs.name}.{node.rpath}", _PREC_ATOM
        elif kind is SortAt:
            out = f"{node.sort.name}@{node.var.name}.{node.path}", _PREC_ATOM
        else:
            raise ValueError(f"unknown formula node {node!r}")
        built += len(out[0])
        if built > MAX_PRINT_CHARS:
            raise ResourceLimit(f"printing builds more than {MAX_PRINT_CHARS} characters")
        done[key] = out
        return out

    try:
        return go(phi)[0]
    finally:
        # go refers to itself: deleting it breaks the cycle
        del go
