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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    BOTTOM,
    RESERVED_WORDS,
    EPS,
    TOP,
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
    SortC,
    SugarAgree,
    SugarSortAt,
    Symbols,
    Top,
    VarId,
    conj,
    exists_all,
)

@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets (start, end) into the input text."""

    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.message = message
        self.span = span


@dataclass(frozen=True)
class _Token:
    kind: str  # 'uident', 'lident', 'kw', punctuation text, or 'eof'
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<punct>[()~&|=@.,])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1)
            )
        start, end = m.span()
        if m.lastgroup == "ws":
            pos = end
            continue
        if m.lastgroup == "ident":
            word = m.group("ident")
            if word.startswith("_"):
                raise ParseError(
                    "identifiers starting with '_' are reserved",
                    SourceSpan(start, end),
                )
            if word in RESERVED_WORDS:
                kind = "kw"
            elif word[0].isupper():
                kind = "uident"
            else:
                kind = "lident"
            toks.append(_Token(kind, word, start, end))
        elif m.lastgroup == "iff":
            toks.append(_Token("<->", "<->", start, end))
        elif m.lastgroup == "imp":
            toks.append(_Token("->", "->", start, end))
        else:
            toks.append(_Token(m.group("punct"), m.group("punct"), start, end))
        pos = end
    toks.append(_Token("eof", "", n, n))
    return toks


class _Parser:
    def __init__(self, sym: Symbols, text: str):
        self.sym = sym
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

    # precedence climbing: iff < implies < or < and < not/quantifier < atom

    def parse(self) -> Formula:
        phi = self.parse_iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.span)
        return phi

    def parse_iff(self) -> Formula:
        lhs = self.parse_implies()
        if self.peek().kind == "<->":
            self.next()
            return Iff(lhs, self.parse_iff())
        return lhs

    def parse_implies(self) -> Formula:
        lhs = self.parse_or()
        if self.peek().kind == "->":
            self.next()
            return Implies(lhs, self.parse_implies())
        return lhs

    def parse_or(self) -> Formula:
        return self.parse_chain(Or, "|", self.parse_and)

    def parse_and(self) -> Formula:
        return self.parse_chain(And, "&", self.parse_unary)

    def parse_chain(self, node, op: str, operand) -> Formula:
        """One n-ary node for a chain of ``op``; a lone operand as it is."""
        first = operand()
        if self.peek().kind != op:
            return first
        args = [first]
        while self.peek().kind == op:
            self.next()
            args.append(operand())
        return node(tuple(args))

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            return Not(self.parse_unary())
        if tok.kind == "kw" and tok.text in ("exists", "forall"):
            self.next()
            names = [self.parse_var()]
            while self.peek().kind == ",":
                self.next()
                names.append(self.parse_var())
            self.expect(".", "'.' after quantified variables")
            return _block(Exists if tok.text == "exists" else Forall, names, self.parse_iff())
        return self.parse_primary()

    def parse_var(self) -> VarId:
        tok = self.expect("lident", "a variable")
        return self.sym.var(tok.text)

    def parse_feat(self) -> FeatId:
        tok = self.expect("lident", "a feature")
        return self.sym.feat(tok.text)

    def parse_path(self) -> Path:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "eps":
            self.next()
            if self.peek().kind == ".":
                raise self.fail("'eps' stands alone as a path")
            return EPS
        feats = [self.parse_feat()]
        while self.peek().kind == ".":
            self.next()
            feats.append(self.parse_feat())
        return Path(tuple(feats))

    def parse_primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            phi = self.parse_iff()
            self.expect(")", "')'")
            return phi
        if tok.kind == "kw" and tok.text == "true":
            self.next()
            return TOP
        if tok.kind == "kw" and tok.text == "false":
            self.next()
            return BOTTOM
        if tok.kind == "kw" and tok.text == "undef":
            self.next()
            self.expect("(", "'(' after undef")
            v = self.parse_var()
            self.expect(",", "','")
            f = self.parse_feat()
            self.expect(")", "')'")
            return Atomic(Excl(v, f))
        if tok.kind == "uident":
            self.next()
            sort = self.sym.sort(tok.text)
            nxt = self.peek()
            if nxt.kind == "(":
                self.next()
                v = self.parse_var()
                self.expect(")", "')'")
                return Atomic(SortC(sort, v))
            if nxt.kind == "@":
                self.next()
                v = self.parse_var()
                self.expect(".", "'.' before the path")
                p = self.parse_path()
                return SugarSortAt(sort, v, p)
            raise self.fail("expected '(' or '@' after a sort name")
        if tok.kind == "lident":
            self.next()
            nxt = self.peek()
            if nxt.kind == "(":
                feat = self.sym.feat(tok.text)
                self.next()
                a = self.parse_var()
                self.expect(",", "','")
                b = self.parse_var()
                self.expect(")", "')'")
                return Atomic(FeatC(a, feat, b))
            if nxt.kind == "=":
                self.next()
                rhs = self.parse_var()
                if self.peek().kind == ".":
                    raise self.fail(
                        "equations relate plain variables; "
                        "write x.eps = y.p for path agreement"
                    )
                return Atomic(Eq(self.sym.var(tok.text), rhs))
            if nxt.kind == ".":
                self.next()
                lpath = self.parse_path()
                self.expect("=", "'=' in a path agreement")
                rhs = self.parse_var()
                self.expect(".", "'.' before the right-hand path")
                rpath = self.parse_path()
                return SugarAgree(self.sym.var(tok.text), lpath, rhs, rpath)
            raise self.fail("expected '(', '=' or '.' after an identifier")
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
# Sugar expansion


def _reach_chain(sym: Symbols, x: VarId, p: Path, z: VarId) -> tuple[list[VarId], list[Formula]]:
    """Atoms stating that ``p`` leads from x to z, with fresh inner nodes.

    The empty path degenerates to the equation x = z.
    """
    if not p.feats:
        return [], [Atomic(Eq(x, z))]
    inner = [sym.fresh_var("z") for _ in p.feats[:-1]]
    nodes = [x] + inner + [z]
    atoms = [
        Atomic(FeatC(nodes[i], f, nodes[i + 1])) for i, f in enumerate(p.feats)
    ]
    return inner, atoms


def expand_sugar(sym: Symbols, phi: Formula) -> Formula:
    """Rewrite exclusion and path sugar into core atoms and quantifiers.

    The result contains only true/false, sort, feature and equation
    atoms, connectives, and quantifiers.  All introduced variables are
    fresh ``_``-prefixed names, so expansion is idempotent.
    """
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, Atomic):
        if isinstance(phi.atom, Excl):
            w = sym.fresh_var("y")
            return Not(Exists((w,), Atomic(FeatC(phi.atom.var, phi.atom.feat, w))))
        return phi
    if isinstance(phi, SugarSortAt):
        w = sym.fresh_var("y")
        inner, atoms = _reach_chain(sym, phi.var, phi.path, w)
        return exists_all(inner + [w], conj(atoms + [Atomic(SortC(phi.sort, w))]))
    if isinstance(phi, SugarAgree):
        z = sym.fresh_var("z")
        linner, latoms = _reach_chain(sym, phi.lhs, phi.lpath, z)
        rinner, ratoms = _reach_chain(sym, phi.rhs, phi.rpath, z)
        return exists_all([z] + linner + rinner, conj(latoms + ratoms))
    if isinstance(phi, Not):
        return Not(expand_sugar(sym, phi.body))
    if isinstance(phi, (And, Or)):
        return type(phi)(tuple(expand_sugar(sym, arg) for arg in phi.args))
    if isinstance(phi, (Implies, Iff)):
        return type(phi)(expand_sugar(sym, phi.lhs), expand_sugar(sym, phi.rhs))
    if isinstance(phi, (Exists, Forall)):
        return type(phi)(phi.vars, expand_sugar(sym, phi.body))
    raise ValueError(f"unknown formula node {phi!r}")


# ---------------------------------------------------------------------------
# Printing

_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NOT = 5
_PREC_ATOM = 6


def _atom_str(atom) -> str:
    if isinstance(atom, SortC):
        return f"{atom.sort}({atom.var})"
    if isinstance(atom, FeatC):
        return f"{atom.feat}({atom.src}, {atom.dst})"
    if isinstance(atom, Eq):
        return f"{atom.lhs} = {atom.rhs}"
    return f"undef({atom.var}, {atom.feat})"


def _render(phi: Formula) -> tuple[str, int]:
    if isinstance(phi, Top):
        return "true", _PREC_ATOM
    if isinstance(phi, Bottom):
        return "false", _PREC_ATOM
    if isinstance(phi, Atomic):
        return _atom_str(phi.atom), _PREC_ATOM
    if isinstance(phi, SugarAgree):
        return f"{phi.lhs}.{phi.lpath} = {phi.rhs}.{phi.rpath}", _PREC_ATOM
    if isinstance(phi, SugarSortAt):
        return f"{phi.sort}@{phi.var}.{phi.path}", _PREC_ATOM
    if isinstance(phi, Not):
        return "~" + _child(phi.body, _PREC_NOT), _PREC_NOT
    if isinstance(phi, (And, Or)):
        # the first argument at the connective's own precedence, the rest
        # one level higher, so a left-nested chain prints unparenthesised
        op, prec = (" & ", _PREC_AND) if isinstance(phi, And) else (" | ", _PREC_OR)
        first, *rest = phi.args
        return op.join([_child(first, prec)] + [_child(arg, prec + 1) for arg in rest]), prec
    if isinstance(phi, Implies):
        return _child(phi.lhs, _PREC_IMPLIES + 1) + " -> " + _child(phi.rhs, _PREC_IMPLIES), _PREC_IMPLIES
    if isinstance(phi, Iff):
        return _child(phi.lhs, _PREC_IFF + 1) + " <-> " + _child(phi.rhs, _PREC_IFF), _PREC_IFF
    if isinstance(phi, (Exists, Forall)):
        word = "exists" if isinstance(phi, Exists) else "forall"
        body_str, _ = _render(phi.body)
        if isinstance(phi.body, (And, Or, Implies, Iff)):
            body_str = f"({body_str})"
        return f"{word} {', '.join(v.name for v in phi.vars)}. {body_str}", 0
    raise ValueError(f"unknown formula node {phi!r}")


def _child(phi: Formula, min_prec: int) -> str:
    s, prec = _render(phi)
    if prec < min_prec:
        return f"({s})"
    return s


def print_formula(phi: Formula) -> str:
    """Deterministic text form.

    Reparsing yields the same tree, except that a first argument of the
    same connective joins its parent: ``And((And((a, b)), c))`` prints
    as ``a & b & c``, which parses as ``And((a, b, c))``.  Likewise a
    quantifier block prints its own variables and a block of the same
    kind as its body joins it: ``Exists((x,), Exists((y,), b))`` prints
    as ``exists x. exists y. b``, which parses as ``Exists((x, y), b)``.
    """
    return _render(phi)[0]


def canonical_formula(phi: Formula) -> Formula:
    """Reorder conjunction and disjunction chains into a fixed form.

    Used to compare formulae modulo associativity and commutativity of
    the two lattice connectives; a quantifier block whose body is a
    block of the same kind merges with it, and everything else is
    untouched.
    """
    if isinstance(phi, (And, Or)):
        node = type(phi)
        parts: list[Formula] = []
        for arg in phi.args:
            arg = canonical_formula(arg)
            parts.extend(arg.args if isinstance(arg, node) else (arg,))
        parts.sort(key=print_formula)
        return node(tuple(parts))
    if isinstance(phi, Not):
        return Not(canonical_formula(phi.body))
    if isinstance(phi, (Implies, Iff)):
        return type(phi)(canonical_formula(phi.lhs), canonical_formula(phi.rhs))
    if isinstance(phi, (Exists, Forall)):
        return _block(type(phi), phi.vars, canonical_formula(phi.body))
    return phi
