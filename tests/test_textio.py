import random

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
    Implies,
    Not,
    ParseError,
    Path,
    SortC,
    SugarAgree,
    SugarSortAt,
    canonical_formula,
    expand_sugar,
    free_vars,
    parse_formula,
    print_formula,
)
from featlog.core import EPS

from generators import random_quantified_formula
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


def test_expand_exclusion(sym):
    phi = expand_sugar(sym, parse_formula(sym, "undef(x, f)"))
    assert isinstance(phi, Not)
    assert isinstance(phi.body, Exists)
    inner = phi.body
    (w,) = inner.vars
    assert inner.body == Atomic(FeatC(sym.var("x"), sym.feat("f"), w))
    assert w.name.startswith("_")


def test_expand_sort_at_path(sym):
    phi = expand_sugar(sym, parse_formula(sym, "A@x.f"))
    assert isinstance(phi, Exists)
    (w,) = phi.vars
    assert phi.body == And(
        (
            Atomic(FeatC(sym.var("x"), sym.feat("f"), w)),
            Atomic(SortC(sym.sort("A"), w)),
        )
    )


def test_expand_agreement_at_empty_paths(sym):
    phi = expand_sugar(sym, parse_formula(sym, "x.eps = y.eps"))
    assert isinstance(phi, Exists)
    (z,) = phi.vars
    assert phi.body == And((Atomic(Eq(sym.var("x"), z)), Atomic(Eq(sym.var("y"), z))))


def test_expand_agreement_longer_paths(sym):
    phi = expand_sugar(sym, parse_formula(sym, "x.f.g = y.h"))
    assert free_vars(phi) == {sym.var("x"), sym.var("y")}
    # expansion only introduces reserved names
    def bound_names(psi):
        if isinstance(psi, Exists):
            return [v.name for v in psi.vars] + bound_names(psi.body)
        return []

    assert all(n.startswith("_") for n in bound_names(phi))


def test_expand_is_idempotent(sym):
    phi = parse_formula(sym, "undef(x, f) | A@y.g & x.f = y.eps")
    once = expand_sugar(sym, phi)
    assert expand_sugar(sym, once) == once


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
        phi = expand_sugar(sym, parse_formula(sym, text))
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
        phi = expand_sugar(sym, parse_formula(sym, block))
        assert isinstance(phi, Exists) and len(phi.vars) == m
        assert print_formula(phi) == block
        assert free_vars(phi) == {sym.var("y")}
        assert canonical_formula(phi) == canonical_formula(parse_formula(sym, flipped))
