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
from itertools import count, islice
from operator import is_

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
    Record,
    SortC,
    SugarAgree,
    SugarSortAt,
    Symbols,
    Top,
    VarId,
    conj,
    exists_all,
)


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


# One alternative per lexeme class.  The matches of ``findall`` tile the
# text: every character is whitespace or the start of a match.  Skipped
# text is its own alternative, not a prefix of every token, which keeps
# the scan linear; a prefix such as ``(?:\s+|#[^\n]*)*`` backtracks
# exponentially.  Only a token is captured, so ``findall`` gives the
# empty string for skipped text and no match carries its position.
_LEXEME_RE = re.compile(
    r"""\s+ | \#[^\n]*            # whitespace or a comment, skipped
      | ( <-> | -> | [()~&|=@.,]  # punctuation, its own kind
        | [A-Za-z_][A-Za-z0-9_]*  # identifier
        | \S )                    # anything else, an error
    """,
    re.VERBOSE,
)

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
    texts = list(filter(None, _LEXEME_RE.findall(text)))
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
    starts = (m.start() for m in _LEXEME_RE.finditer(text) if m.group(1))
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


class _Parser:
    """Recursive descent over the token lists; ``pos`` never passes the
    ``eof`` token, whose kind no rule consumes."""

    def __init__(self, sym: Symbols, text: str):
        self.sym = sym
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

    def parse_var(self) -> VarId:
        return self.sym.var(self.take("lident", "a variable"))

    def parse_feat(self) -> FeatId:
        return self.sym.feat(self.take("lident", "a feature"))

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
            sort = self.sym.sort(self.texts[pos])
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
                return SugarSortAt(sort, v, self.parse_path())
            self.pos = pos + 1
            raise self.fail("expected '(' or '@' after a sort name")
        if kind == "lident":
            name = self.texts[pos]
            nxt = self.kinds[pos + 1]
            self.pos = pos + 2
            if nxt == "(":
                feat = self.sym.feat(name)
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
                return Atomic(Eq(self.sym.var(name), rhs))
            if nxt == ".":
                lpath = self.parse_path()
                self.take("=", "'=' in a path agreement")
                rhs = self.parse_var()
                self.take(".", "'.' before the right-hand path")
                return SugarAgree(self.sym.var(name), lpath, rhs, self.parse_path())
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
# Printing

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

