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
    FeatId,
    Forall,
    Not,
    Or,
    Path,
    SortC,
    SugarAgree,
    Symbols,
    VarId,
    expand_sugar,
    free_vars,
    parse_formula,
    substitute,
)
from featlog.core import atom_key, conj, exists_all

from generators import random_basic_formula


def test_namespaces_are_disjoint(sym):
    f_feat = sym.feat("age")
    f_var = sym.var("age")
    assert f_feat != f_var
    assert f_feat.name == f_var.name


def test_identifier_kinds_never_compare_equal():
    from featlog import FeatId, SortId, VarId

    ids = [SortId("a"), FeatId("a"), VarId("a")]
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    assert len(set(ids)) == 3
    assert set(ids) | {SortId("a"), VarId("a")} == set(ids)
    assert VarId("a") == VarId("a") and hash(VarId("a")) == hash(VarId("a"))


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


def test_minted_sorts_stay_reserved():
    """A name is checked when it enters the session, and a minted sort
    never enters it, so ``sort`` refuses the spelling ``fresh_sort``
    gave out."""
    sym = Symbols()
    assert sym.fresh_sort("Default").name == "_Default1"
    with pytest.raises(ValueError):
        sym.sort("_Default1")
    assert sym.fresh_sort("Default").name == "_Default2"


def _binders(phi):
    """The variables of every quantifier block, outermost first."""
    if isinstance(phi, (Exists, Forall)):
        return list(phi.vars) + _binders(phi.body)
    if isinstance(phi, Not):
        return _binders(phi.body)
    if isinstance(phi, (And, Or)):
        return [v for arg in phi.args for v in _binders(arg)]
    return []


def test_fresh_vars_are_distinct_and_reserved(sym):
    """Sugar expansion's variables are reserved, distinct, and numbered
    per call, so expanding twice gives the same names."""
    phi = parse_formula(sym, "undef(x, f) & B @ x.g.h & x.f = y.g | A @ y.eps")
    names = dict(sym._vars)
    got = expand_sugar(phi)
    minted = [v.name for v in _binders(got)]
    assert minted == ["_y1", "_z3", "_y2", "_z4", "_y5"]
    assert expand_sugar(phi) == got
    assert sym._vars == names


def test_minted_names_skip_the_variables_of_their_sugar():
    """A minted name never equals a variable of the sugar node it
    expands, even one spelled like a minted name."""
    f, g = FeatId("f"), FeatId("g")
    y1, y2, z1, z2 = (VarId(n) for n in ("_y1", "_y2", "_z1", "_z2"))
    assert expand_sugar(Atomic(Excl(y1, f))) == Not(Exists((y2,), Atomic(FeatC(y1, f, y2))))
    # the meet skips both roots, and the inner node of the path takes
    # the next number
    got = expand_sugar(SugarAgree(z2, Path((f, g)), z1, EPS))
    assert _binders(got) == [VarId("_z3"), VarId("_z4")]
    assert free_vars(got) == {z1, z2}


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
    assert free_vars(Exists((y,), Atomic(FeatC(x, f, y)))) == {x}


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
    phi = And((Atomic(SortC(A, x)), Atomic(FeatC(x, f, z)), Atomic(SortC(A, u))))
    assert substitute(phi, x, y) == And(
        (Atomic(SortC(A, y)), Atomic(FeatC(y, f, z)), Atomic(SortC(A, u)))
    )
    assert substitute(Atomic(Eq(u, v)), x, y) == Atomic(Eq(u, v))
    assert substitute(Atomic(Eq(y, x)), x, y) == Atomic(Eq(y, y))


def test_substitute_rejects_quantifiers(sym):
    x, y = sym.var("x"), sym.var("y")
    with pytest.raises(ValueError):
        substitute(Exists((x,), TOP), x, y)


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


PUBLIC_NAMES = """
    Agree And Atomic BOTTOM BasicFormula BcAnd BcNot BcOr BoolComb Bottom EPS Eq
    Excl Exists FeatC FeatId FeatureGraph FeatureTree Forall Formula INVALID Iff
    Implies Not Or ParseError Path PathConstraint PrimeFormula PrimeLeaf Reach
    ResourceLimit RootedPath SATISFIABLE SolvedClause SolvedFormula SortAt SortC
    SortId SourceSpan SugarAgree SugarSortAt Symbols TOP TOP_PRIME Top
    UNSATISFIABLE VALID VarId Verdict access_function basic_simplify
    boolcomb_to_formula canonical_formula canonicalize classify clause_to_formula
    closure_contains conj constrained_vars decide eliminate_clause eliminate_neg
    enumerate_values evaluate expand_sugar feature_graph feature_tree
    formula_to_basic free_vars graph_canonical holds_path_constraint is_free
    is_joker is_prime_formula is_solved_clause is_solved_formula mk_prime_exists
    parameters parse_formula pregraph_to_graph prime_closure_contains prime_conj
    prime_entails prime_to_formula print_formula projection satisfies_prime
    simplify_epc single_node_tree solved_to_formula substitute targets
    to_prime_dnf tree_subtree valuation_to_json value_to_json walk_path
    witness_prime witness_solved_clause
""".split()


def test_public_names():
    """The names ``featlog`` exports are a contract: a change to them
    must show up here."""
    import types

    import featlog

    got = {
        name
        for name, value in vars(featlog).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(got) == sorted(PUBLIC_NAMES)
