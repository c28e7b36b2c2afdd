import random

from featlog import (
    Agree,
    BasicFormula,
    Bottom,
    Eq,
    FeatC,
    Path,
    PrimeFormula,
    Reach,
    SolvedFormula,
    SortAt,
    SortC,
    basic_simplify,
    closure_contains,
    prime_closure_contains,
    simplify_epc,
    targets,
    walk_path,
)
from featlog.core import EPS, Atomic, conj
from featlog.core import exists_all

from generators import random_basic_formula
from oracles import NaiveClosure
from test_solve import fig2_clause


def test_walk_examples(sym):
    clause = fig2_clause(sym)
    x = sym.var("x")
    f, g, h = sym.feat("f"), sym.feat("g"), sym.feat("h")
    assert walk_path(clause, x, Path((f, h))) == x
    assert walk_path(clause, x, EPS) == x
    assert walk_path(clause, x, Path((h,))) is None


def test_walk_dereferences_initial_binding(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x, y, z = sym.var("x"), sym.var("y"), sym.var("z")
    gamma = SolvedFormula((Eq(x, y),), (FeatC(y, f, z), SortC(A, z)))
    assert walk_path(gamma, x, Path((f,))) == z
    assert walk_path(gamma, x, EPS) == x


def test_closure_examples(sym):
    clause = fig2_clause(sym)
    x = sym.var("x")
    C = sym.sort("C")
    f, g = sym.feat("f"), sym.feat("g")
    assert closure_contains(clause, SortAt(C, x, Path((f,))))
    assert not closure_contains(clause, Agree(x, Path((f, g)), x, Path((g, g))))
    assert closure_contains(clause, Agree(x, EPS, x, EPS))


def test_directed_equations_are_asymmetric(sym):
    x, y = sym.var("x"), sym.var("y")
    gamma = SolvedFormula((Eq(x, y),), ())
    assert closure_contains(gamma, Reach(x, EPS, y))
    assert not closure_contains(gamma, Reach(y, EPS, x))
    assert closure_contains(gamma, Agree(x, EPS, y, EPS))


def test_prime_closure_examples(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x, u = sym.var("x"), sym.var("u")
    beta = simplify_epc(exists_all([u], conj([Atomic(FeatC(x, f, u)), Atomic(SortC(A, u))])))
    assert isinstance(beta, PrimeFormula)
    assert prime_closure_contains(beta, SortAt(A, x, Path((f,))))
    assert not prime_closure_contains(beta, Reach(x, Path((f,)), u))
    assert prime_closure_contains(beta, Agree(u, EPS, u, EPS))
    assert prime_closure_contains(beta, Reach(u, EPS, u))


def test_prefix_monotonicity(sym):
    rng = random.Random(5)
    feats = [sym.feat(n) for n in "fgh"]
    for _ in range(100):
        solved = basic_simplify(random_basic_formula(rng, sym))
        if isinstance(solved, Bottom):
            continue
        vs = sorted(solved.variables)
        if not vs:
            continue
        x = rng.choice(vs)
        p = Path(tuple(rng.choice(feats) for _ in range(rng.randint(1, 4))))
        if walk_path(solved, x, p) is not None:
            for pref in (Path(p.feats[:i]) for i in range(len(p) + 1)):
                assert walk_path(solved, x, pref) is not None


def test_closure_agrees_with_naive_fixpoint(sym):
    """Walk-based membership vs rule saturation, length up to 4."""
    rng = random.Random(6)
    feats = [sym.feat(n) for n in "fgh"]
    sorts = [sym.sort(n) for n in "ABC"]
    L = 4
    compared = 0
    for _ in range(60):
        solved = basic_simplify(random_basic_formula(rng, sym))
        if isinstance(solved, Bottom):
            continue
        vs = sorted(solved.variables)
        if not vs:
            continue
        clos = NaiveClosure(solved, L)
        paths = [EPS]
        frontier = [EPS]
        for _ in range(L):
            frontier = [p.append(f) for p in frontier for f in feats]
            paths.extend(frontier)
        for x in vs:
            for p in paths:
                assert targets(solved, x, p) == frozenset(clos.targets(x, p))
        for _ in range(100):
            x, y = rng.choice(vs), rng.choice(vs)
            p = rng.choice(paths)
            q = rng.choice(paths)
            agree = Agree(x, p, y, q)
            assert closure_contains(solved, agree) == clos.contains(agree)
            sortat = SortAt(rng.choice(sorts), x, p)
            assert closure_contains(solved, sortat) == clos.contains(sortat)
            compared += 1
    assert compared > 2000


def test_soundness_of_closure_members_under_models(sym):
    """Everything in the closure holds in every satisfying valuation."""
    from featlog import witness_prime
    from oracles import holds_path_constraint

    rng = random.Random(7)
    feats = [sym.feat(n) for n in "fgh"]
    sorts = [sym.sort(n) for n in "ABC"]
    for _ in range(50):
        solved = basic_simplify(random_basic_formula(rng, sym, max_atoms=8))
        if isinstance(solved, Bottom):
            continue
        beta = PrimeFormula(frozenset(), solved)
        alpha = witness_prime(beta, sym.fresh_sort("D"))
        clos = NaiveClosure(solved, 3)
        for (x, p, y) in sorted(clos.reach, key=str):
            pi = Reach(x, Path(p), y)
            assert holds_path_constraint(alpha, pi)
