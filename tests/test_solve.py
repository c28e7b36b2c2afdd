import contextlib
import random
import signal

import pytest

from featlog import (
    BasicFormula,
    Bottom,
    Eq,
    Excl,
    FeatC,
    SolvedClause,
    SolvedFormula,
    SortC,
    basic_simplify,
    constrained_vars,
    formula_to_basic,
    is_solved_clause,
    is_solved_formula,
    parameters,
    parse_formula,
    print_formula,
    solved_to_formula,
)
from featlog.core import Atomic, conj

from generators import random_basic_formula, random_valuation
from oracles import bounded_evaluate, randomized_simplify, simplification_rule_applies


def fig2_clause(sym) -> SolvedClause:
    A, B, C = (sym.sort(s) for s in "ABC")
    f, g, h = (sym.feat(s) for s in "fgh")
    x, u, v, w, y, z = (sym.var(s) for s in "xuvwyz")
    return SolvedClause.from_atoms(
        [
            FeatC(x, f, u),
            FeatC(x, g, v),
            Excl(x, h),
            SortC(C, u),
            FeatC(u, h, x),
            FeatC(u, g, y),
            FeatC(u, f, z),
            SortC(A, v),
            FeatC(v, g, z),
            FeatC(v, h, w),
            Excl(v, f),
            SortC(B, w),
            Excl(w, f),
            Excl(w, g),
        ]
    )


def test_feature_merge_golden(sym):
    f = sym.feat("f")
    x, y, z = sym.var("x"), sym.var("y"), sym.var("z")
    solved = basic_simplify(BasicFormula((FeatC(x, f, y), FeatC(x, f, z))))
    assert solved == SolvedFormula((Eq(y, z),), (FeatC(x, f, z),))
    assert print_formula(solved_to_formula(solved)) == "y = z & f(x, z)"


def test_sort_clash_gives_false(sym):
    A, B = sym.sort("A"), sym.sort("B")
    x = sym.var("x")
    assert isinstance(basic_simplify(BasicFormula((SortC(A, x), SortC(B, x)))), Bottom)


def test_reflexive_equation_vanishes(sym):
    x = sym.var("x")
    solved = basic_simplify(BasicFormula((Eq(x, x),)))
    assert solved == SolvedFormula((), ())
    assert solved.is_top()


def test_substitution_golden(sym):
    A = sym.sort("A")
    x, y = sym.var("x"), sym.var("y")
    solved = basic_simplify(BasicFormula((Eq(x, y), SortC(A, x))))
    assert solved == SolvedFormula((Eq(x, y),), (SortC(A, y),))


def test_fig2_is_a_solved_clause(sym):
    assert is_solved_clause(fig2_clause(sym))


def test_edge_beside_exclusion_is_not_solved(sym):
    x, y = sym.var("x"), sym.var("y")
    f = sym.feat("f")
    assert not is_solved_clause([FeatC(x, f, y), Excl(x, f)])


def test_empty_clause_is_solved():
    assert is_solved_clause([])


def test_solved_clause_rejects_duplicates_and_clashes(sym):
    A, B = sym.sort("A"), sym.sort("B")
    f = sym.feat("f")
    x, y, z = sym.var("x"), sym.var("y"), sym.var("z")
    assert not is_solved_clause([SortC(A, x), SortC(A, x)])
    assert not is_solved_clause([SortC(A, x), SortC(B, x)])
    assert not is_solved_clause([FeatC(x, f, y), FeatC(x, f, z)])


def test_constrained_vars_fig2(sym):
    clause = fig2_clause(sym)
    names = {v.name for v in constrained_vars(clause)}
    assert names == {"x", "u", "v", "w"}
    assert {v.name for v in parameters(clause)} == {"y", "z"}


def test_constrained_vars_simple(sym):
    A = sym.sort("A")
    x = sym.var("x")
    assert constrained_vars([SortC(A, x)]) == {x}
    assert constrained_vars([]) == set()


def test_solved_formula_conditions(sym):
    A = sym.sort("A")
    x, y, z = sym.var("x"), sym.var("y"), sym.var("z")
    assert is_solved_formula(SolvedFormula((Eq(x, y),), (SortC(A, y),)))
    # left side occurring again is not eliminated
    assert not is_solved_formula(BasicFormula((Eq(x, y), SortC(A, x))))
    assert not is_solved_formula(BasicFormula((Eq(x, x),)))
    assert not is_solved_formula(BasicFormula((Eq(x, y), Eq(x, z))))


def test_formula_to_basic(sym):
    basic = formula_to_basic(parse_formula(sym, "A(x) & f(x, y)"))
    assert isinstance(basic, BasicFormula) and len(basic.atoms) == 2
    with pytest.raises(ValueError):
        formula_to_basic(parse_formula(sym, "A(x) | B(x)"))
    with pytest.raises(ValueError):
        formula_to_basic(parse_formula(sym, "undef(x, f)"))
    assert isinstance(formula_to_basic(parse_formula(sym, "A(x) & false & true")), Bottom)
    with pytest.raises(ValueError):
        formula_to_basic(parse_formula(sym, "false & (A(x) | B(x))"))


def test_simplification_is_deterministic(sym):
    rng = random.Random(3)
    for _ in range(50):
        basic = random_basic_formula(rng, sym)
        assert basic_simplify(basic) == basic_simplify(basic)


def test_simplification_properties(sym):
    """Fixed point, variable containment, and model agreement."""
    rng = random.Random(4)
    checked = 0
    for _ in range(200):
        basic = random_basic_formula(rng, sym)
        solved = basic_simplify(basic)
        if isinstance(solved, Bottom):
            continue
        checked += 1
        assert not simplification_rule_applies(solved.atoms)
        assert is_solved_formula(solved)
        assert solved.variables <= basic.variables
        phi_in = conj(Atomic(a) for a in basic.atoms)
        phi_out = solved_to_formula(solved)
        for _ in range(5):
            alpha = random_valuation(rng, sym, basic.variables, "graph")
            assert bounded_evaluate(sym, "graph", alpha, phi_in) == bounded_evaluate(
                sym, "graph", alpha, phi_out
            )
    assert checked > 100


def test_bottom_inputs_stay_bottom():
    from featlog import BOTTOM

    assert isinstance(basic_simplify(BOTTOM), Bottom)


def test_any_maximal_strategy_gives_an_equivalent_result(sym):
    """Random rule orders land on false together or on equivalent forms."""
    rng = random.Random(40)
    compared = 0
    for _ in range(150):
        basic = random_basic_formula(rng, sym, max_atoms=10)
        fixed = basic_simplify(basic)
        other = randomized_simplify(rng, basic)
        if isinstance(fixed, Bottom) or other is None:
            assert isinstance(fixed, Bottom) and other is None
            continue
        compared += 1
        assert not simplification_rule_applies(other)
        assert is_solved_formula(BasicFormula(tuple(other)))
        phi_fixed = solved_to_formula(fixed)
        phi_other = conj(Atomic(a) for a in other)
        for _ in range(8):
            alpha = random_valuation(
                rng, sym, basic.variables | {sym.var("pad0")}, "graph"
            )
            assert bounded_evaluate(sym, "graph", alpha, phi_fixed) == bounded_evaluate(
                sym, "graph", alpha, phi_other
            )
    assert compared > 60


def test_simplification_agrees_with_the_full_decision_procedure(sym):
    """The solved form is equivalent to its input as a first-order fact."""
    from featlog import Iff, classify
    from generators import forall_all
    from featlog.qe import VALID

    rng = random.Random(41)
    for _ in range(60):
        basic = random_basic_formula(rng, sym, max_atoms=8)
        solved = basic_simplify(basic)
        phi_in = conj(Atomic(a) for a in basic.atoms)
        if isinstance(solved, Bottom):
            from featlog import Not

            closed = forall_all(sorted(basic.variables), Not(phi_in))
        else:
            closed = forall_all(
                sorted(basic.variables), Iff(phi_in, solved_to_formula(solved))
            )
        assert classify(closed).kind == VALID


def _structure(variables, atoms):
    """Classes of equated variables, the sort per class, and the target
    class per (class, feature) of a solved formula's atoms."""
    rep = {v: v for v in variables}
    for a in atoms:
        if isinstance(a, Eq):
            rep[a.lhs] = a.rhs
    members: dict = {}
    for v in variables:
        members.setdefault(rep[v], set()).add(v)
    cls = {v: frozenset(members[rep[v]]) for v in variables}
    sorts = {cls[a.var]: a.sort for a in atoms if isinstance(a, SortC)}
    edges = {(cls[a.src], a.feat): cls[a.dst] for a in atoms if isinstance(a, FeatC)}
    return set(cls.values()), sorts, edges


def test_union_find_agrees_with_random_rule_orders_on_structure(sym):
    """Same partition, sorts per class and edge targets as the rules."""
    rng = random.Random(42)
    compared = 0
    for _ in range(2000):
        basic = random_basic_formula(
            rng,
            sym,
            max_atoms=30,
            n_vars=rng.randint(2, 14),
            n_sorts=rng.randint(1, 3),
            n_feats=rng.randint(1, 3),
        )
        fixed = basic_simplify(basic)
        other = randomized_simplify(rng, basic)
        if isinstance(fixed, Bottom) or other is None:
            assert isinstance(fixed, Bottom) and other is None
            continue
        compared += 1
        assert _structure(basic.variables, fixed.atoms) == _structure(basic.variables, other)
    assert compared > 800


@contextlib.contextmanager
def _wall_limit(seconds: float):
    """Fail with TimeoutError instead of hanging past the limit."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_simplify_at_scale(sym):
    """10k-atom inputs: an equation chain whose edges all merge, and a
    congruence cascade down two edge chains joined by one equation."""
    A, f = sym.sort("A"), sym.feat("f")
    n = 5000
    xs = [sym.var(f"x{i}") for i in range(n + 1)]
    ys = [sym.var(f"y{i}") for i in range(n)]
    chain = BasicFormula(
        tuple(a for i in range(n) for a in (Eq(xs[i], xs[i + 1]), FeatC(xs[i], f, ys[i])))
    )
    bs = [sym.var(f"b{i}") for i in range(n + 1)]
    cascade = BasicFormula(
        tuple(FeatC(xs[i], f, xs[i + 1]) for i in range(n))
        + tuple(FeatC(bs[i], f, bs[i + 1]) for i in range(n))
        + (SortC(A, bs[n]), Eq(xs[0], bs[0]))
    )
    with _wall_limit(10.0):
        merged = basic_simplify(chain)
        cascaded = basic_simplify(cascade)
    assert merged.graph == (FeatC(xs[n], f, ys[n - 1]),)
    assert len(merged.normalizer) == 2 * n - 1
    assert cascaded.normalizer == tuple(Eq(xs[i], bs[i]) for i in sorted(range(n + 1), key=str))
    assert SortC(A, bs[n]) in cascaded.graph and len(cascaded.graph) == n + 1
