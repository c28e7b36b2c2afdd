import random

import pytest

from featlog import (
    EPS,
    TOP,
    And,
    Atomic,
    BasicFormula,
    Eq,
    Excl,
    Exists,
    FeatC,
    Path,
    SortC,
    Symbols,
    free_vars,
    substitute,
)
from featlog.core import atom_key, conj, conjuncts, exists_all

from generators import random_basic_formula


def test_namespaces_are_disjoint(sym):
    f_feat = sym.feat("age")
    f_var = sym.var("age")
    assert f_feat != f_var
    assert f_feat.name == f_var.name


def test_identifier_validation(sym):
    with pytest.raises(ValueError):
        sym.var("_hidden")
    with pytest.raises(ValueError):
        sym.sort("lower")
    with pytest.raises(ValueError):
        sym.feat("Upper")
    with pytest.raises(ValueError):
        sym.var("exists")
    with pytest.raises(ValueError):
        sym.var("")


def test_interning_is_stable(sym):
    assert sym.var("x") is sym.var("x")
    assert sym.sort("A") == sym.sort("A")


def test_fresh_vars_are_distinct_and_reserved(sym):
    a = sym.fresh_var("y")
    b = sym.fresh_var("y")
    assert a != b
    assert a.name.startswith("_") and b.name.startswith("_")
    assert a.name == "_y1"


def test_fresh_never_collides_with_interned(sym):
    taken = {sym.var(f"v{i}").name for i in range(10)}
    for _ in range(50):
        assert sym.fresh_var("v").name not in taken


def test_path_concatenation_and_prefixes(sym):
    f, g = sym.feat("f"), sym.feat("g")
    p = Path((f, g))
    assert EPS + p == p == p + EPS
    assert (EPS + p) + p == EPS + (p + p)
    prefixes = list(p.prefixes())
    assert prefixes == [EPS, Path((f,)), p]
    assert EPS.is_prefix_of(p) and p.is_prefix_of(p)
    assert not p.is_prefix_of(Path((f,)))
    assert str(EPS) == "eps" and str(p) == "f.g"


def test_free_vars_closed_formula():
    assert free_vars(TOP) == set()


def test_free_vars_bound_occurrence(sym):
    x, y = sym.var("x"), sym.var("y")
    f = sym.feat("f")
    assert free_vars(Exists(y, Atomic(FeatC(x, f, y)))) == {x}


def test_free_vars_record_description(sym):
    # x is a woman whose father and husband share an age
    x, y, fa, hu = (sym.var(n) for n in ("x", "y", "fa", "hu"))
    woman, engineer, painter = (sym.sort(n) for n in ("Woman", "Engineer", "Painter"))
    father, husband, age = (sym.feat(n) for n in ("father", "husband", "age"))
    body = conj(
        [
            Atomic(SortC(woman, x)),
            Atomic(FeatC(x, father, fa)),
            Atomic(SortC(engineer, fa)),
            Atomic(FeatC(fa, age, y)),
            Atomic(FeatC(x, husband, hu)),
            Atomic(SortC(painter, hu)),
            Atomic(FeatC(hu, age, y)),
        ]
    )
    phi = exists_all([y, fa, hu], body)
    assert free_vars(phi) == {x}


def test_substitute_examples(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x, y, z, u, v = (sym.var(n) for n in "xyzuv")
    phi = And(Atomic(SortC(A, x)), Atomic(FeatC(x, f, z)))
    assert substitute(phi, x, y) == And(Atomic(SortC(A, y)), Atomic(FeatC(y, f, z)))
    assert substitute(Atomic(Eq(u, v)), x, y) == Atomic(Eq(u, v))
    assert substitute(Atomic(Eq(y, x)), x, y) == Atomic(Eq(y, y))


def test_substitute_rejects_quantifiers(sym):
    x, y = sym.var("x"), sym.var("y")
    with pytest.raises(ValueError):
        substitute(Exists(x, TOP), x, y)


def test_substitute_free_var_property(sym):
    rng = random.Random(0)
    for _ in range(100):
        basic = random_basic_formula(rng, sym, max_atoms=6)
        phi = conj(Atomic(a) for a in basic.atoms)
        fv = free_vars(phi)
        if not fv:
            continue
        x = sorted(fv)[0]
        y = sym.var("fresh0")
        if y == x:
            continue
        got = free_vars(substitute(phi, x, y))
        assert got == (fv - {x}) | {y}
        assert x not in got


def test_basic_formula_rejects_exclusions(sym):
    x = sym.var("x")
    f = sym.feat("f")
    with pytest.raises(ValueError):
        BasicFormula((Excl(x, f),))


def test_atom_key_orders_by_kind_then_names(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x, y = sym.var("x"), sym.var("y")
    atoms = [FeatC(x, f, y), SortC(A, x), Eq(x, y)]
    atoms.sort(key=atom_key)
    assert [type(a) for a in atoms] == [Eq, SortC, FeatC]


def test_conjuncts_flattens(sym):
    A, B = sym.sort("A"), sym.sort("B")
    x = sym.var("x")
    phi = And(And(Atomic(SortC(A, x)), TOP), Atomic(SortC(B, x)))
    assert conjuncts(phi) == [Atomic(SortC(A, x)), Atomic(SortC(B, x))]
