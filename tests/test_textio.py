import random
from collections import Counter

import pytest

from featlog import (
    And,
    Atomic,
    Or,
    Eq,
    Excl,
    Exists,
    FeatC,
    Forall,
    Iff,
    Implies,
    Not,
    ParseError,
    Path,
    SortC,
    SugarAgree,
    SugarSortAt,
    Symbols,
    expand_sugar,
    free_vars,
    parse_formula,
    print_formula,
)
from featlog.core import EPS
from featlog.textio import _scan

from generators import random_quantified_formula, random_sugared_formula
from oracles import canonical_formula, reference_parse, reference_print
from test_solve import _wall_limit


def test_parse_exists_conjunction(sym):
    got = parse_formula(sym, "exists x. (A(x) & B(x))")
    x = sym.var("x")
    want = Exists((x,), And((Atomic(SortC(sym.sort("A"), x)), Atomic(SortC(sym.sort("B"), x)))))
    assert got == want


def test_parse_feature_functionality_shape(sym):
    got = parse_formula(sym, "forall x. forall y. forall z. (f(x,y) & f(x,z) -> y = z)")
    x, y, z = sym.var("x"), sym.var("y"), sym.var("z")
    f = sym.feat("f")
    body = Implies(
        And((Atomic(FeatC(x, f, y)), Atomic(FeatC(x, f, z)))), Atomic(Eq(y, z))
    )
    assert got == Forall((x, y, z), body)


def test_parse_undef_is_a_distinguished_node(sym):
    got = parse_formula(sym, "undef(x, f)")
    assert got == Atomic(Excl(sym.var("x"), sym.feat("f")))


def test_parse_comma_quantifier_lists(sym):
    assert parse_formula(sym, "exists x, y. A(x)") == parse_formula(
        sym, "exists x. exists y. A(x)"
    )


def test_parse_path_sugar(sym):
    got = parse_formula(sym, "A@x.f.g")
    f, g = sym.feat("f"), sym.feat("g")
    assert got == SugarSortAt(sym.sort("A"), sym.var("x"), Path((f, g)))
    got = parse_formula(sym, "x.eps = y.eps")
    assert got == SugarAgree(sym.var("x"), EPS, sym.var("y"), EPS)


def test_parse_errors_carry_spans(sym):
    cases = [
        "A(x",
        "_x = y",
        "A(x, y)",
        "f(x)",
        "x = y.f",
        "x",
        "eps(x, y)",
        "exists x A(x)",
        "A(x) &",
        "x.eps.f = y.eps",
    ]
    for text in cases:
        with pytest.raises(ParseError) as err:
            parse_formula(sym, text)
        span = err.value.span
        assert 0 <= span.start <= span.end <= len(text)


def test_comments_and_whitespace(sym):
    text = "# a comment\n  A(x) &  # trailing\n  B(x)\n"
    assert parse_formula(sym, text) == parse_formula(sym, "A(x) & B(x)")


def test_spans_count_characters_not_bytes(sym):
    text = "# caf\u00e9\nA(x) &"
    assert len(text) == 13 and len(text.encode("utf-8")) == 14
    with pytest.raises(ParseError) as err:
        parse_formula(sym, text)
    assert str(err.value) == "expected a formula at 13..13"


def test_scanning_is_linear_in_skipped_text(sym):
    """Whitespace and comments are skipped in one match each, so long
    runs of them cost linear time and a comment's text is never read
    as tokens."""
    atom = parse_formula(sym, "A(x)")
    with _wall_limit(5.0):
        assert parse_formula(sym, "A(x)" + " " * 10**6) == atom
        assert parse_formula(sym, "A(x) #" + " y" * 500_000) == atom
        assert parse_formula(sym, "#" + " y" * 500_000 + "\nA(x)") == atom
    n = 100_000
    text = "  \n\t &  \n ".join(f"A(x{i})" for i in range(n)) + " \n" * 1000
    with _wall_limit(10.0):
        phi = parse_formula(sym, text)
    assert isinstance(phi, And) and len(phi.args) == n
    assert phi.args[-1] == parse_formula(sym, f"A(x{n - 1})")


# printed forms with every construct the random formulae lack
_SUGAR_TEXTS = [
    "undef(x, f) | A@y.g & x.f = y.eps",
    "x.f.g = y.h -> true <-> ~false",
    "exists x, y. forall z. (B@x.eps & undef(z, g)) | x = y",
    "(A(x) <-> B(x)) <-> (C(x) -> D(x) -> A(y))",
]

# what a mutation inserts or substitutes
_MUTATIONS = [
    "_", "#", ";", "\n", "   ", "\u00e9", "\u00a0", "\t", "_x", "# note\n",
    "(", ")", "~", "&", "|", "=", "@", ".", ",", "->", "<->", "<", "-", ">",
    "x", "A", "f", "9", "eps", "exists", "true", "undef",
]


def _mutate(rng: random.Random, text: str) -> str:
    """``text`` with one to three characters deleted, inserted or
    substituted."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        how = rng.random()
        if how < 0.3 and text:
            i = min(i, len(text) - 1)
            text = text[:i] + text[i + 1 :]
        elif how < 0.65:
            text = text[:i] + rng.choice(_MUTATIONS) + text[i:]
        else:
            text = text[:i] + rng.choice(_MUTATIONS) + text[i + 1 :]
    return text


def test_parser_agrees_with_the_reference_parser(sym):
    """The same tree, or the same error message and span, as the
    token-record parser on random formulae and on mutated copies."""
    rng = random.Random(15)
    texts = list(_SUGAR_TEXTS)
    while len(texts) < 500:
        texts.append(print_formula(random_quantified_formula(rng, sym)))
    texts += [_mutate(rng, text) for text in texts for _ in range(4)]
    outcomes: Counter = Counter()
    for text in texts:
        try:
            want = reference_parse(Symbols(), text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_formula(Symbols(), text)
            assert (err.value.message, err.value.span) == (exc.message, exc.span), text
            unexpected = exc.message.startswith("unexpected character")
            outcomes["unexpected character" if unexpected else exc.message] += 1
        else:
            assert parse_formula(Symbols(), text) == want, text
            outcomes["parsed"] += 1
    assert len(texts) >= 2000
    assert outcomes["parsed"] >= 700
    assert outcomes["unexpected character"] >= 50
    assert outcomes["identifiers starting with '_' are reserved"] >= 50


def _reference_corpus(sym) -> list[str]:
    """The texts of ``test_parser_agrees_with_the_reference_parser``."""
    rng = random.Random(15)
    texts = list(_SUGAR_TEXTS)
    while len(texts) < 500:
        texts.append(print_formula(random_quantified_formula(rng, sym)))
    return texts + [_mutate(rng, text) for text in texts for _ in range(4)]


def test_lexed_names_need_no_second_check(sym):
    """The parser interns the names of its tokens unchecked, because the
    lexer already guarantees what ``Symbols._check`` checks: every
    ``uident`` and ``lident`` token passes it with its case, and the
    tables a parse leaves are those the checked methods build."""
    checker = Symbols()
    names = parsed = 0
    for text in _reference_corpus(sym):
        try:
            kinds, texts = _scan(text)
        except ParseError:
            kinds, texts = [], []
        for kind, name in zip(kinds, texts):
            if kind in ("uident", "lident"):
                checker._check(name, upper=kind == "uident")
                names += 1
        session = Symbols()
        try:
            parse_formula(session, text)
        except ParseError:
            pass
        checked = Symbols()
        tables = [(session._sorts, checked.sort), (session._feats, checked.feat),
                  (session._vars, checked.var)]
        for table, intern in tables:
            assert [intern(name) for name in table] == list(table.values()), text
        assert (checked._sorts, checked._feats, checked._vars) == (
            session._sorts, session._feats, session._vars), text
        try:
            reference_parse(reference := Symbols(), text)
        except ParseError:
            continue
        parsed += 1
        for mine, theirs in zip(tables, (reference._sorts, reference._feats, reference._vars)):
            assert list(mine[0].items()) == list(theirs.items()), text
    assert names >= 10_000 and parsed >= 700
    for method, name in [("var", "_x"), ("sort", "a"), ("var", "exists"), ("feat", "A"),
                         ("sort", "A-B"), ("var", "")]:
        with pytest.raises(ValueError):
            getattr(Symbols(), method)(name)


def test_expand_exclusion(sym):
    phi = expand_sugar(parse_formula(sym, "undef(x, f)"))
    assert isinstance(phi, Not)
    assert isinstance(phi.body, Exists)
    inner = phi.body
    (w,) = inner.vars
    assert inner.body == Atomic(FeatC(sym.var("x"), sym.feat("f"), w))
    assert w.name.startswith("_")


def test_expand_sort_at_path(sym):
    phi = expand_sugar(parse_formula(sym, "A@x.f"))
    assert isinstance(phi, Exists)
    (w,) = phi.vars
    assert phi.body == And(
        (
            Atomic(FeatC(sym.var("x"), sym.feat("f"), w)),
            Atomic(SortC(sym.sort("A"), w)),
        )
    )


def test_expand_agreement_at_empty_paths(sym):
    phi = expand_sugar(parse_formula(sym, "x.eps = y.eps"))
    assert isinstance(phi, Exists)
    (z,) = phi.vars
    assert phi.body == And((Atomic(Eq(sym.var("x"), z)), Atomic(Eq(sym.var("y"), z))))


def test_expand_agreement_longer_paths(sym):
    phi = expand_sugar(parse_formula(sym, "x.f.g = y.h"))
    assert free_vars(phi) == {sym.var("x"), sym.var("y")}
    # expansion only introduces reserved names
    def bound_names(psi):
        if isinstance(psi, Exists):
            return [v.name for v in psi.vars] + bound_names(psi.body)
        return []

    assert all(n.startswith("_") for n in bound_names(phi))


def test_expand_is_idempotent(sym):
    phi = parse_formula(sym, "undef(x, f) | A@y.g & x.f = y.eps")
    once = expand_sugar(phi)
    assert expand_sugar(once) == once


def test_print_examples(sym):
    from featlog import TOP

    assert print_formula(TOP) == "true"
    x, y = sym.var("x"), sym.var("y")
    phi = And((Atomic(SortC(sym.sort("A"), x)), Atomic(FeatC(x, sym.feat("f"), y))))
    assert print_formula(phi) == "A(x) & f(x, y)"
    u = sym.var("u")
    assert print_formula(Exists((u,), Atomic(FeatC(x, sym.feat("f"), u)))) == "exists u. f(x, u)"


def test_print_respects_precedence(sym):
    texts = [
        "~(A(x) & B(x))",
        "A(x) & (B(x) | C(x))",
        "A(x) -> B(x) -> C(x)",
        "(A(x) -> B(x)) -> C(x)",
        "(exists x. A(x)) & B(y)",
        "forall x. A(x) <-> B(x)",
    ]
    for text in texts:
        phi = parse_formula(sym, text)
        assert parse_formula(sym, print_formula(phi)) == phi


def test_nested_blocks_print_apart_and_reparse_merged(sym):
    """A block prints its own variables; the parser merges a block of
    the same kind that is the whole body of another."""
    x, y = sym.var("x"), sym.var("y")
    b = Atomic(FeatC(x, sym.feat("f"), y))
    nested = Exists((x,), Exists((y,), b))
    assert print_formula(nested) == "exists x. exists y. f(x, y)"
    assert parse_formula(sym, print_formula(nested)) == Exists((x, y), b)
    assert canonical_formula(nested) == Exists((x, y), b)
    mixed = Exists((x,), Forall((y,), b))
    assert print_formula(mixed) == "exists x. forall y. f(x, y)"
    assert parse_formula(sym, print_formula(mixed)) == mixed


def test_round_trip_on_random_formulae(sym):
    rng = random.Random(2)
    for _ in range(200):
        phi = random_quantified_formula(rng, sym)
        back = parse_formula(sym, print_formula(phi))
        assert canonical_formula(back) == canonical_formula(phi)


def _shapes(phi) -> set[str]:
    """The kinds of node in ``phi``, the blocks of more than one
    variable, the blocks right under a block, and whether a node is
    reached twice."""
    shapes, reached = set(), set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if id(node) in reached:
            shapes.add("shared")
        reached.add(id(node))
        shapes.add(type(node.atom if isinstance(node, Atomic) else node).__name__)
        if isinstance(node, (Exists, Forall)):
            if len(node.vars) > 1:
                shapes.add("block of two or more")
            if isinstance(node.body, (Exists, Forall)):
                shapes.add("block under a block")
        if isinstance(node, (And, Or)):
            stack.extend(node.args)
        elif isinstance(node, (Not, Exists, Forall)):
            stack.append(node.body)
        elif isinstance(node, (Implies, Iff)):
            stack += [node.lhs, node.rhs]
    return shapes


def test_printer_agrees_with_the_recursive_reference_printer(sym):
    """The same text as the recursive walk of the tree unfolding, on
    random formulae with sugar, exclusions, ``->``, ``<->``, blocks of
    several variables, blocks under blocks and shared subformulae."""
    rng = random.Random(34)
    seen: Counter = Counter()
    for _ in range(500):
        phi = random_sugared_formula(rng, sym)
        assert print_formula(phi) == reference_print(phi)
        seen.update(_shapes(phi))
    assert len(seen) == 18 and min(seen.values()) >= 50, seen


def test_round_trip_of_sugar_nodes(sym):
    for text in ["undef(x, f)", "A@x.f.g", "x.f = y.eps", "B@y.eps"]:
        phi = parse_formula(sym, text)
        assert parse_formula(sym, print_formula(phi)) == phi


def test_print_nested_nary_chains(sym):
    """The first argument prints at the connective's own precedence, the
    others one level higher."""
    a, b, c = (Atomic(SortC(sym.sort(n), sym.var("x"))) for n in "ABC")
    cases = [
        (And((And((a, b)), c)), "A(x) & B(x) & C(x)"),
        (And((a, And((b, c)))), "A(x) & (B(x) & C(x))"),
        (Or((Or((a, b)), c)), "A(x) | B(x) | C(x)"),
        (Or((a, Or((b, c)))), "A(x) | (B(x) | C(x))"),
        (Or((And((a, b)), c)), "A(x) & B(x) | C(x)"),
        (Or((a, And((b, c)))), "A(x) | B(x) & C(x)"),
        (And((Or((a, b)), c)), "(A(x) | B(x)) & C(x)"),
        (And((a, Or((b, c)))), "A(x) & (B(x) | C(x))"),
    ]
    for phi, text in cases:
        assert print_formula(phi) == text


def test_parsed_chains_round_trip(sym):
    texts = [
        "A(x) & B(x) & C(x)",
        "A(x) & (B(x) & C(x)) & D(x)",
        "A(x) | B(x) & C(x) | D(x)",
        "A(x) & (B(x) | C(x) | D(x)) & ~(A(x) & B(x))",
        "(A(x) -> B(x)) & (C(x) <-> D(x)) | exists y. (f(x, y) & A(y) & B(y))",
        "(exists y. f(x, y) & A(y)) & (forall y. g(x, y) | B(y) | C(y)) & D(x)",
    ]
    for text in texts:
        phi = parse_formula(sym, text)
        assert parse_formula(sym, print_formula(phi)) == phi
    for text in texts[:4]:
        assert print_formula(parse_formula(sym, text)) == text


def test_wide_chains_at_default_recursion_limit(sym):
    """A 10,000-atom chain is one node deep, so no walker recurses
    through it."""
    n = 5000
    text = " | ".join(f"A(x{i}) & f(x{i}, x{i + 1})" for i in range(n))
    flipped = " | ".join(f"f(x{i}, x{i + 1}) & A(x{i})" for i in reversed(range(n)))
    with _wall_limit(10.0):
        phi = expand_sugar(parse_formula(sym, text))
        assert print_formula(phi) == text
        assert free_vars(phi) == {sym.var(f"x{i}") for i in range(n + 1)}
        assert canonical_formula(phi) == canonical_formula(parse_formula(sym, flipped))
    # a 10,000-variable prefix is one block, not 10,000 nested nodes
    m = 10000
    names = ", ".join(f"x{i}" for i in range(1, m + 1))
    edges = [f"f(y, x{i})" for i in range(1, m + 1)]
    block = f"exists {names}. ({' & '.join(edges)})"
    flipped = f"exists {names}. ({' & '.join(reversed(edges))})"
    with _wall_limit(10.0):
        phi = expand_sugar(parse_formula(sym, block))
        assert isinstance(phi, Exists) and len(phi.vars) == m
        assert print_formula(phi) == block
        assert free_vars(phi) == {sym.var("y")}
        assert canonical_formula(phi) == canonical_formula(parse_formula(sym, flipped))
