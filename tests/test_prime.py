import random
from collections import Counter

import pytest

from featlog import (
    Agree,
    Atomic,
    BasicFormula,
    Bottom,
    Eq,
    Exists,
    FeatC,
    Path,
    PrimeFormula,
    SolvedFormula,
    SortAt,
    SortC,
    TOP_PRIME,
    VarId,
    access_function,
    basic_simplify,
    canonicalize,
    expand_sugar,
    feature_tree,
    mk_prime_exists,
    parse_formula,
    prime_closure_contains,
    prime_conj,
    prime_entails,
    projection,
    satisfies_prime,
    simplify_epc,
    witness_prime,
)
from featlog.core import EPS, conj, exists_all, free_vars, rename_atom
from featlog.prime import exists_conj, from_atom

from generators import (
    pools,
    random_basic_formula,
    random_epc_formula,
    random_model_prime,
    random_prime,
    random_solved_formula,
    requantify,
)
from oracles import (
    fold_simplify_epc,
    is_prime_formula,
    prime_to_formula,
    projection_entails,
    two_pass_exists_conj,
    two_pass_prime,
    two_pass_requantify,
    union_find_simplify,
)
from test_core import _binders
from test_solve import _wall_limit


def epc(sym, text):
    return simplify_epc(expand_sugar(parse_formula(sym, text)))


def test_mk_exists_drops_an_eliminating_equation(sym):
    x, y = sym.var("x"), sym.var("y")
    beta = PrimeFormula(frozenset(), SolvedFormula((Eq(x, y),), ()))
    assert mk_prime_exists((x,), beta) == TOP_PRIME


def test_mk_exists_garbage_collects(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x, y, z = sym.var("x"), sym.var("y"), sym.var("z")
    beta = PrimeFormula(frozenset(), SolvedFormula((), (FeatC(x, f, y), SortC(A, y))))
    got = mk_prime_exists((x,), beta)
    assert got == PrimeFormula(frozenset(), SolvedFormula((), (SortC(A, y),)))
    # absent variable leaves the formula alone
    assert mk_prime_exists((z,), got) == got


def test_mk_exists_renames_equation_targets(sym):
    A = sym.sort("A")
    x, y = sym.var("x"), sym.var("y")
    beta = PrimeFormula(frozenset(), SolvedFormula((Eq(y, x),), (SortC(A, x),)))
    got = mk_prime_exists((x,), beta)
    assert got == PrimeFormula(frozenset(), SolvedFormula((), (SortC(A, y),)))


def test_mk_exists_keeps_reachable_variables_bound(sym):
    beta = epc(sym, "f(y, x)")
    got = mk_prime_exists((sym.var("x"),), beta)
    q0, y = sym.var("q0"), sym.var("y")
    assert got == PrimeFormula(frozenset({q0}), SolvedFormula((), (FeatC(y, sym.feat("f"), q0),)))
    assert is_prime_formula(got)


def test_requantify_equals_sequential_exists(sym):
    """Quantifying a set at once equals one variable at a time, in any order."""
    rng = random.Random(43)
    for _ in range(400):
        body = random_solved_formula(rng, sym, max_atoms=rng.randint(1, 14))
        vs = sorted(body.variables)
        bound = rng.sample(vs, rng.randint(0, len(vs)))
        once = requantify(bound, body)
        assert is_prime_formula(once)
        seq = PrimeFormula(frozenset(), body)
        for v in bound:
            seq = mk_prime_exists((v,), seq)
        assert canonicalize(once) == canonicalize(seq)
        assert mk_prime_exists(bound, PrimeFormula(frozenset(), body)) == once


def test_requantify_agrees_with_two_pass_oracle(sym):
    """One search garbage-collects and names the bound variables exactly
    as separate garbage collection and canonical renaming do."""
    rng = random.Random(46)
    respell = {sym.var("x0"): sym.var("q0"), sym.var("x1"): sym.var("q2")}
    pairs = targets = collected = skipped = 0
    while pairs < 2000:
        basic = random_basic_formula(rng, sym, max_atoms=rng.randint(1, 14))
        if rng.random() < 0.3:
            # free variables spelled like canonical names are skipped
            basic = BasicFormula(tuple(rename_atom(a, respell) for a in basic.atoms))
        body = basic_simplify(basic)
        if isinstance(body, Bottom):
            continue
        pairs += 1
        vs = sorted(body.variables)
        bound = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
        got = requantify(bound, body)
        assert got == two_pass_requantify(bound, body)
        assert is_prime_formula(got)
        assert requantify(got.bound, got.body) == got
        targets += any(eq.rhs in bound for eq in body.normalizer)
        collected += len(got.body.graph) < len(body.graph)
        skipped += bool(got.bound) and any(v.name[0] == "q" for v in got.free_vars)
    assert targets > 300 and collected > 300 and skipped > 40


def _wide_atoms(rng, sym):
    """1-200 atoms over about as many variables, a fifth spelled like
    canonical names: edges with any target make cycles, and the sorts of
    a quarter of the variables mostly agree with one sort per variable,
    so about half the lists clash."""
    n = rng.randint(1, 200)
    sorts, _, _ = pools(sym, rng.randint(1, 4), 0, 0)
    feats = [sym.feat(f"f{i}") for i in range(rng.randint(1, 8))]
    k = rng.randint(n // 3 + 1, n + 1)
    vs = [sym.var(f"q{i}" if rng.random() < 0.2 else f"x{i}") for i in range(k)]
    home = {v: rng.choice(sorts) for v in rng.sample(vs, (k + 3) // 4)}
    atoms = []
    for _ in range(n):
        r = rng.random()
        if r < 0.7:
            atoms.append(FeatC(rng.choice(vs), rng.choice(feats), rng.choice(vs)))
        elif r < 0.9:
            v = rng.choice(list(home))
            atoms.append(SortC(home[v] if rng.random() < 0.98 else rng.choice(sorts), v))
        else:
            atoms.append(Eq(rng.choice(vs), rng.choice(vs)))
    return atoms


def _some_free(rng, vs):
    """Few, half or most of ``vs``."""
    k = rng.choice([rng.randint(1, 3), len(vs) // 2, len(vs) - rng.randint(0, 3)])
    return rng.sample(vs, max(0, min(k, len(vs))))


def test_bound_names_skip_free_spellings_of_the_result(sym):
    """A bound variable is named q0, q1, ... skipping the spelling of a
    free variable the result mentions, in an equation on either side,
    and only such a variable."""
    cases = {
        "exists u. (x = q0 & g(y, u))": "exists q1. (x = q0 & g(y, q1))",
        "exists u. (q0 = x & g(y, u))": "exists q1. (q0 = x & g(y, q1))",
        "exists u. (A(q0) & g(y, u))": "exists q1. (A(q0) & g(y, q1))",
        "exists u, v. (f(u, q0) & g(y, v))": "exists q0. g(y, q0)",
        "exists u, v. (f(u, q0) & g(y, v) & h(y, q0))": "exists q1. (g(y, q1) & h(y, q0))",
    }
    for text, want in cases.items():
        assert str(epc(sym, text)) == want


def test_one_build_agrees_with_the_two_passes(sym):
    """Every prime operation builds what solving and then requantifying
    built: ``basic_simplify`` equals the union-find pass of the oracles;
    ``simplify_epc``, ``mk_prime_exists`` and ``prime_conj`` equal it
    followed by ``two_pass_requantify``; and ``exists_conj``, which
    subtracts a negative in clause elimination, equals ``prime_conj``
    followed by a second requantification."""
    rng = random.Random(2501)
    primes: list = []
    seen = Counter()
    for _ in range(300):
        atoms = _wide_atoms(rng, sym)
        basic = BasicFormula(tuple(atoms))
        solved = basic_simplify(basic)
        assert solved == union_find_simplify(basic)
        vs = sorted(basic.variables)
        bound = [v for v in vs if v not in set(_some_free(rng, vs))]
        beta = simplify_epc(exists_all(bound, conj(Atomic(a) for a in atoms)))
        assert beta == two_pass_prime(atoms, bound)
        seen["bottom"] += isinstance(beta, Bottom)
        if isinstance(beta, Bottom):
            continue
        assert is_prime_formula(beta)
        seen["collected"] += len(beta.body.graph) < len(solved.graph)
        seen["skipped"] += any(v.name[0] == "q" for v in beta.free_vars) and bool(beta.bound)
        xs = _some_free(rng, sorted(beta.free_vars))
        hit = beta.bound | beta.free_vars.intersection(xs)
        assert mk_prime_exists(xs, beta) == two_pass_requantify(hit, beta.body)
        for others in (primes[-1:], primes[-2:]):
            group = [beta, *others]
            both = prime_conj(*group)
            assert both == two_pass_exists_conj((), group)
            seen["conj_bottom"] += isinstance(both, Bottom)
            if isinstance(both, Bottom):
                continue
            ys = _some_free(rng, sorted(both.free_vars))
            hit = both.bound | both.free_vars.intersection(ys)
            assert exists_conj(ys, group) == two_pass_requantify(hit, both.body)
            assert exists_conj(ys, group) == two_pass_exists_conj(ys, group)
        primes.append(beta)
    assert min(seen.values()) > 40, seen


def test_prime_conj_detects_clash(sym):
    assert isinstance(prime_conj(epc(sym, "A(x)"), epc(sym, "B(x)")), Bottom)


def test_prime_conj_merges_features(sym):
    got = prime_conj(epc(sym, "f(x, y)"), epc(sym, "f(x, z)"))
    x, y, z = sym.var("x"), sym.var("y"), sym.var("z")
    f = sym.feat("f")
    assert got == PrimeFormula(frozenset(), SolvedFormula((Eq(y, z),), (FeatC(x, f, z),)))


def test_prime_conj_top_is_neutral(sym):
    beta = epc(sym, "exists u. (f(x, u) & A(u))")
    got = prime_conj(beta, TOP_PRIME)
    assert canonicalize(got) == canonicalize(beta)


def test_prime_conj_renames_bound_apart(sym):
    left = epc(sym, "exists u. f(x, u)")
    right = epc(sym, "exists u. g(y, u)")
    got = prime_conj(left, right)
    assert isinstance(got, PrimeFormula)
    assert is_prime_formula(got)
    assert len(got.bound) == 2


def test_access_function_example(sym):
    beta = epc(sym, "exists u. (f(x, u) & A(u) & g(u, y))")
    acc = access_function(beta)
    x, y, u = sym.var("x"), sym.var("y"), sym.var("u")
    # the bound variable kept its spelling here
    u_bound = next(iter(beta.bound))
    assert acc[x].root == x and acc[x].path == EPS
    assert acc[y].root == y and acc[y].path == EPS
    assert acc[u_bound].root == x and acc[u_bound].path == Path((sym.feat("f"),))
    # injective on the body variables
    assert len(set(acc.values())) == len(acc)


def test_access_function_quantifier_free(sym):
    beta = epc(sym, "A(x) & f(x, y)")
    acc = access_function(beta)
    assert all(rp.root == v and rp.path == EPS for v, rp in acc.items())
    assert access_function(TOP_PRIME) == {}


def test_projection_example(sym):
    beta = epc(sym, "exists u. (f(x, u) & A(u) & g(u, y))")
    x, y = sym.var("x"), sym.var("y")
    f, g = sym.feat("f"), sym.feat("g")
    A = sym.sort("A")
    lam = set(projection(beta))
    assert lam == {
        Agree(x, Path((f,)), x, Path((f,))),
        SortAt(A, x, Path((f,))),
        Agree(x, Path((f, g)), y, EPS),
    }


def test_projection_of_equation_and_top(sym):
    x, y = sym.var("x"), sym.var("y")
    beta = PrimeFormula(frozenset(), SolvedFormula((Eq(x, y),), ()))
    assert projection(beta) == (Agree(x, EPS, y, EPS),)
    assert projection(TOP_PRIME) == ()


def test_projections_are_duplicate_free(sym):
    rng = random.Random(46)
    for _ in range(500):
        lam = projection(random_prime(rng, sym))
        assert len(set(lam)) == len(lam)


def test_projection_members_are_in_the_closure(sym):
    rng = random.Random(8)
    for _ in range(100):
        beta = random_prime(rng, sym)
        for pi in projection(beta):
            assert prime_closure_contains(beta, pi)


def test_entailment_examples(sym):
    assert prime_entails(epc(sym, "A(x)"), TOP_PRIME)
    assert prime_entails(epc(sym, "f(x, y) & A(y)"), epc(sym, "exists z. f(x, z)"))
    assert not prime_entails(epc(sym, "A(x)"), epc(sym, "B(x)"))


def test_simplify_epc_examples(sym):
    beta = epc(sym, "exists y. (f(x, y) & A(y))")
    assert isinstance(beta, PrimeFormula)
    assert len(beta.bound) == 1
    assert beta.free_vars == {sym.var("x")}
    assert isinstance(epc(sym, "exists x. (A(x) & B(x))"), Bottom)


def test_simplify_epc_record_description(sym):
    text = (
        "exists y, fa, hu. (Woman(x) & father(x, fa) & Engineer(fa) & age(fa, y)"
        " & husband(x, hu) & Painter(hu) & age(hu, y))"
    )
    beta = epc(sym, text)
    assert isinstance(beta, PrimeFormula)
    assert beta.free_vars == {sym.var("x")}
    assert len(beta.bound) == 3
    assert is_prime_formula(beta)


def test_simplify_epc_rejects_other_connectives(sym):
    with pytest.raises(ValueError):
        simplify_epc(parse_formula(sym, "A(x) | B(x)"))


@pytest.mark.parametrize(
    "text", ["A(x) & B(x) & (C(x) | D(x))", "(C(x) | D(x)) & A(x) & B(x)"]
)
def test_simplify_epc_rejects_before_solving(sym, text):
    """A clash next to a disjunction is rejected whatever the order."""
    with pytest.raises(ValueError):
        simplify_epc(parse_formula(sym, text))


def _least_representatives(sym, beta):
    """The canonical form of ``beta`` once each class of equated free
    variables is represented by its least member."""
    if isinstance(beta, Bottom):
        return beta
    classes: dict = {}
    for eq in beta.body.normalizer:
        classes.setdefault(eq.rhs, [eq.rhs]).append(eq.lhs)
    least = {v: min(members) for members in classes.values() for v in members}
    normalizer = tuple(Eq(v, r) for v, r in least.items() if v != r)
    graph = tuple(rename_atom(a, least) for a in beta.body.graph)
    return canonicalize(PrimeFormula(beta.bound, SolvedFormula(normalizer, graph)))


def _transient_names(beta):
    """The names of a prime that renaming apart gives out: ``$0``, ``$1``,
    ... in the library, a spelling with a ``'`` in these tests."""
    if isinstance(beta, Bottom):
        return set()
    names = {v.name for v in beta.body.variables | beta.bound}
    return {name for name in names if name.startswith("$") or "'" in name}


def _clashing_epc(rng, sym):
    """Existential conjunctions side by side over one variable pool, maybe
    under one more quantifier: binders shadow free variables of other
    conjuncts, and several quantifiers bind one name."""
    parts = [random_epc_formula(rng, sym, max_atoms=6) for _ in range(rng.randint(1, 3))]
    phi = conj(parts)
    if rng.random() < 0.3:
        phi = Exists((sym.var(f"x{rng.randrange(5)}"),), phi)
    return phi


def test_simplify_epc_agrees_with_pairwise_fold(sym):
    """One solve over all atoms equals the fold of binary conjunctions.

    The two may pick different free variables to represent a class of
    equated ones (union-find roots depend on the order in which atoms
    are met, and the fold meets solved forms, not input atoms), so both
    sides are compared with least representatives.
    """
    rng = random.Random(44)
    shadowing = reusing = 0
    for _ in range(1200):
        phi = _clashing_epc(rng, sym)
        bound = _binders(phi)
        shadowing += not free_vars(phi).isdisjoint(bound)
        reusing += len(set(bound)) < len(bound)
        got = simplify_epc(phi)
        want = fold_simplify_epc(phi)
        assert isinstance(got, Bottom) or is_prime_formula(got)
        assert not _transient_names(got)
        assert _least_representatives(sym, got) == _least_representatives(sym, want)
    assert shadowing > 300 and reusing > 300


def test_conjunctions_are_solved_once(sym, monkeypatch):
    """One build, solving and quantifying together, per conjunction,
    whatever its number of atoms, quantifiers or primes, and for an
    existential conjunction one walk, also when its binders clash."""
    import featlog.prime

    calls: list = []
    fn = featlog.prime.solve_atoms
    monkeypatch.setattr(featlog.prime, "solve_atoms", lambda *a: calls.append(len(a[0])) or fn(*a))
    chain = " & ".join(f"f(x{i}, x{i + 1}) & A(x{i})" for i in range(150))
    primes = [epc(sym, f"exists x{i}, x{i + 1}. ({chain})") for i in range(1, 4)]
    assert calls == [300] * 3
    calls.clear()
    assert isinstance(prime_conj(*primes), PrimeFormula)
    assert calls == [sum(len(beta.body.atoms) for beta in primes)]
    # a binder that reuses a free name, and two binders of one name
    walks: list = []
    walk = featlog.prime.conjunction_atoms
    monkeypatch.setattr(
        featlog.prime, "conjunction_atoms", lambda *a, **k: walks.append(1) or walk(*a, **k)
    )
    calls.clear()
    beta = epc(sym, "A(x) & (exists x. (f(y, x) & B(x))) & (exists x. g(y, x))")
    assert walks == [1] and calls == [4]
    assert beta == epc(sym, "A(x) & (exists u. (f(y, u) & B(u))) & (exists w. g(y, w))")
    assert not _transient_names(beta)


def test_prime_conj_of_none_or_one(sym):
    beta = epc(sym, "exists u. (f(x, u) & A(u))")
    assert prime_conj() == TOP_PRIME
    assert prime_conj(beta) is beta


def _some_prime(rng, sym):
    """Canonical primes bind q0, q1, ...; raw ones bind names of the
    shared pool, which are free in other primes."""
    beta = random_prime(rng, sym, max_atoms=5)
    if rng.random() < 0.5:
        return beta
    pool = [v for v in (sym.var(f"x{i}") for i in range(5)) if v not in beta.free_vars]
    mapping = dict(zip(sorted(beta.bound), pool))
    graph = tuple(rename_atom(a, mapping) for a in beta.body.graph)
    return PrimeFormula(frozenset(mapping.values()), SolvedFormula(beta.body.normalizer, graph))


def test_nary_prime_conj_agrees_with_binary_fold(sym):
    rng = random.Random(45)
    clashes = {"earlier": 0, "later": 0}
    for _ in range(400):
        primes = [_some_prime(rng, sym) for _ in range(rng.randint(0, 6))]
        for i, b1 in enumerate(primes):
            for j, b2 in enumerate(primes):
                if i != j and b1.bound & b2.free_vars:
                    clashes["earlier" if i < j else "later"] += 1
        got = prime_conj(*primes)
        want = TOP_PRIME
        for beta in primes:
            want = prime_conj(want, beta)
            if isinstance(want, Bottom):
                break
        assert isinstance(got, Bottom) or is_prime_formula(got)
        # renaming apart is transient: requantify names every bound variable
        assert not _transient_names(got)
        assert _least_representatives(sym, got) == _least_representatives(sym, want)
    assert min(clashes.values()) > 40


def test_canonicalize_alpha_equivalence(sym):
    b1 = epc(sym, "exists u. f(x, u)")
    b2 = epc(sym, "exists w. f(x, w)")
    assert canonicalize(b1) == canonicalize(b2)


def test_canonicalize_idempotent_on_randoms(sym):
    rng = random.Random(9)
    for _ in range(100):
        beta = random_prime(rng, sym)
        assert canonicalize(beta) == beta  # generator canonicalizes
        assert canonicalize(canonicalize(beta)) == canonicalize(beta)
    assert canonicalize(TOP_PRIME) == TOP_PRIME


def test_canonical_names_avoid_free_variables(sym):
    # a free variable already called q0 must not be captured
    beta = epc(sym, "exists u. (f(q0, u) & g(u, x))")
    got = canonicalize(beta)
    assert sym.var("q0") in got.free_vars
    assert sym.var("q0") not in got.bound
    assert is_prime_formula(got)


def test_operation_outputs_are_valid_primes(sym):
    rng = random.Random(10)
    for _ in range(150):
        beta = random_prime(rng, sym)
        assert is_prime_formula(beta)
        x = rng.choice(sorted(beta.body.variables | {sym.var("zz")}))
        after = mk_prime_exists((x,), beta)
        assert is_prime_formula(after)
        assert x not in after.free_vars
        assert after.free_vars <= beta.free_vars
        other = random_prime(rng, sym, max_atoms=4)
        both = prime_conj(beta, other)
        if not isinstance(both, Bottom):
            assert is_prime_formula(both)
            assert both.free_vars <= beta.free_vars | other.free_vars


def test_constructed_primes_are_satisfiable(sym):
    rng = random.Random(11)
    default = sym.fresh_sort("D")
    for _ in range(100):
        beta = random_prime(rng, sym)
        alpha = witness_prime(beta, default)
        assert satisfies_prime(alpha, beta)


def test_entailment_is_a_preorder(sym):
    rng = random.Random(12)
    for _ in range(60):
        beta = random_prime(rng, sym)
        assert prime_entails(beta, beta)
        extra = random_prime(rng, sym, max_atoms=3)
        stronger = prime_conj(beta, extra)
        if isinstance(stronger, Bottom):
            continue
        stronger = canonicalize(stronger)
        assert prime_entails(stronger, beta)
        more = random_prime(rng, sym, max_atoms=3)
        strongest = prime_conj(stronger, more)
        if isinstance(strongest, Bottom):
            continue
        strongest = canonicalize(strongest)
        # transitivity along the chain
        assert prime_entails(strongest, stronger)
        assert prime_entails(strongest, beta)


def test_equivalent_primes_have_equal_closures_at_small_lengths(sym):
    """Mutual entailment coincides with equal proper-closure membership."""
    rng = random.Random(13)
    feats = [sym.feat(n) for n in "fgh"]
    sorts = [sym.sort(n) for n in "ABC"]
    pairs = 0
    for _ in range(40):
        b1 = random_prime(rng, sym, max_atoms=5)
        b2 = random_prime(rng, sym, max_atoms=5)
        both_ways = prime_entails(b1, b2) and prime_entails(b2, b1)
        vs = sorted(b1.free_vars | b2.free_vars)
        if not vs:
            continue
        paths = [EPS]
        frontier = [EPS]
        for _ in range(3):
            frontier = [p.append(f) for p in frontier for f in feats]
            paths.extend(frontier)
        same = True
        for x in vs:
            for p in paths:
                for s in sorts:
                    pi = SortAt(s, x, p)
                    if prime_closure_contains(b1, pi) != prime_closure_contains(b2, pi):
                        same = False
        for _ in range(200):
            pi = Agree(
                rng.choice(vs),
                rng.choice(paths),
                rng.choice(vs),
                rng.choice(paths),
            )
            if prime_closure_contains(b1, pi) != prime_closure_contains(b2, pi):
                same = False
        if both_ways:
            assert same
        if not same:
            assert not both_ways
        pairs += 1
    assert pairs > 20


def test_prime_to_formula_round_trips_through_epc(sym):
    rng = random.Random(14)
    for _ in range(50):
        beta = random_prime(rng, sym)
        again = simplify_epc(prime_to_formula(beta))
        assert canonicalize(again) == beta


def test_from_atom_trivial_equation(sym):
    x = sym.var("x")
    assert from_atom(Eq(x, x)) == TOP_PRIME


def test_entailment_agrees_with_the_decision_procedure(sym):
    """Projection-based entailment vs the quantifier eliminator.

    Two independent routes to the same judgement: containment of the
    projection in the closure, and validity of the universally closed
    implication.
    """
    from featlog import Implies, classify
    from generators import forall_all
    from featlog.qe import VALID

    rng = random.Random(15)
    agreements = {True: 0, False: 0}
    for _ in range(80):
        b1 = random_prime(rng, sym, max_atoms=5)
        b2 = random_prime(rng, sym, max_atoms=4)
        if rng.random() < 0.5:
            merged = prime_conj(b1, b2)
            if not isinstance(merged, Bottom):
                b1 = canonicalize(merged)  # bias toward entailment
        got = prime_entails(b1, b2)
        phi = Implies(prime_to_formula(b1), prime_to_formula(b2))
        closed = forall_all(sorted(free_vars(phi)), phi)
        assert classify(closed).kind == (VALID if got else "INVALID")
        agreements[got] += 1
    assert agreements[True] > 20 and agreements[False] > 20


def _free_renamed(beta, mapping):
    """``beta`` with its free variables renamed by ``mapping``.

    Its bound variables move to transient names first, so a new free
    name may spell one of them, such as ``q0``.
    """
    apart = {v: VarId(f"{v.name}'") for v in beta.bound}
    rename = {**mapping, **apart}
    body = SolvedFormula(
        tuple(rename_atom(a, rename) for a in beta.body.normalizer),
        tuple(rename_atom(a, rename) for a in beta.body.graph),
    )
    return requantify(apart.values(), body)


def _part_of(rng, beta):
    """A prime made of some atoms of ``beta``, with some of its bound
    variables left free under their ``q`` names."""
    keep = [a for a in beta.body.atoms if rng.random() < 0.6]
    body = basic_simplify(BasicFormula(tuple(keep)))
    bound = [v for v in sorted(beta.bound) if rng.random() < 0.3]
    return requantify(bound, body)


def test_one_walk_entailment_agrees_with_the_projection(sym):
    """``prime_entails`` against containment of the projection in the
    closure, on pairs that include free names equal to bound ones."""
    rng = random.Random(141)
    seen = Counter()
    for _ in range(400):
        b1 = random_prime(rng, sym, max_atoms=rng.randint(1, 10), n_vars=rng.randint(2, 7))
        b2 = random_prime(rng, sym, max_atoms=rng.randint(1, 6), n_vars=rng.randint(2, 7))
        pairs = [(b1, b2), (b2, b1), (b1, b1), (b1, TOP_PRIME), (TOP_PRIME, b2)]
        lefts = [b1]
        merged = prime_conj(b1, b2)
        if not isinstance(merged, Bottom):
            lefts.append(merged)
            pairs += [(merged, b2), (merged, b1)]
        free = sorted(b2.free_vars)
        for lhs in lefts:
            pairs += [(lhs, _part_of(rng, lhs)) for _ in range(2)]
            names = [VarId(f"q{i}") for i in rng.sample(range(len(free) + 1), len(free))]
            pairs.append((lhs, _free_renamed(b2, dict(zip(free, names)))))
        for lhs, rhs in pairs:
            got = prime_entails(lhs, rhs)
            assert got == projection_entails(lhs, rhs), (str(lhs), str(rhs))
            seen["pairs"] += 1
            seen[got] += 1
            seen["collisions"] += bool(rhs.free_vars & lhs.bound)
            seen["eliminated"] += bool(lhs.body.normalizer and rhs.body.normalizer)
            seen["top"] += lhs.is_top() or rhs.is_top()
    assert seen["pairs"] >= 2000
    assert seen[True] > 500 and seen[False] > 500
    assert seen["collisions"] > 250 and seen["eliminated"] > 100 and seen["top"] > 300


def _weakened(rng, beta, extra=()):
    """``beta`` with some atoms dropped and ``extra`` atoms added, its
    bound variables bound again; None when that is false."""
    keep = [a for a in beta.body.atoms if rng.random() < 0.8] + list(extra)
    body = basic_simplify(BasicFormula(tuple(keep)))
    return None if isinstance(body, Bottom) else requantify(beta.bound, body)


def test_one_walk_entailment_agrees_with_the_projection_on_large_primes(sym):
    """``prime_entails`` against the projection on primes of 50 to 100
    atoms read off random graphs, each against itself, weakened, cut
    down with bound variables left free, given one more atom, renamed
    onto its own bound names, and against a prime of another graph and
    the conjunction of both.  The added atom may name a new variable."""
    rng = random.Random(144)
    sorts, feats, _ = pools(sym)
    new = sym.var("new")
    seen = Counter()
    for _ in range(40):
        b1, b2 = (random_model_prime(rng, sym)[0] for _ in range(2))
        free = sorted(b1.free_vars)
        vs = sorted(b1.body.variables)
        v, w = rng.choice(vs), rng.choice([new, rng.choice(vs)])
        extra = rng.choice([SortC(rng.choice(sorts), v), FeatC(v, rng.choice(feats), w), Eq(w, v)])
        names = [VarId(f"q{i}") for i in rng.sample(range(len(free) + 1), len(free))]
        rhss = [
            b1,
            mk_prime_exists(rng.sample(free, 2), b1),
            _weakened(rng, b1),
            _weakened(rng, b1, [extra]),
            _part_of(rng, b1),
            _free_renamed(_weakened(rng, b1), dict(zip(free, names))),
            b2,
        ]
        pairs = [(b1, rhs) for rhs in rhss]
        both = prime_conj(b1, b2)
        if not isinstance(both, Bottom):
            pairs += [(both, b1), (both, b2), (both, _weakened(rng, both))]
        for lhs, rhs in pairs:
            if rhs is None:
                continue
            got = prime_entails(lhs, rhs)
            assert got == projection_entails(lhs, rhs), (str(lhs), str(rhs))
            seen[got] += 1
            seen["large"] += 50 <= len(lhs.body.atoms) <= 100
    assert seen[True] > 100 and seen[False] > 100, seen
    assert seen["large"] > 0.8 * (seen[True] + seen[False]), seen


def test_only_holds_at_and_access_function_walk_positions():
    """``holds_at`` is the one check of a prime at positions: a call of
    ``positions`` anywhere else in the library, or an import of it, would
    be a second copy of that check."""
    import ast
    import pathlib

    import featlog

    uses = []
    for path in sorted(pathlib.Path(featlog.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scope = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                called = "positions" in (getattr(func, "id", None), getattr(func, "attr", None))
                imported = isinstance(node, ast.ImportFrom) and any(
                    alias.name == "positions" for alias in node.names
                )
                if called or imported:
                    uses.append((path.name, scope))
    assert sorted(uses) == [("prime.py", "access_function"), ("prime.py", "holds_at")]


def _sorted_ring_prime(sym, n, closed):
    """n one-sorted nodes joined by f from x0, and back to x0 when
    ``closed``; free only at x0."""
    A, f = sym.sort("A"), sym.feat("f")
    xs = [sym.var(f"x{i}") for i in range(n)]
    edges = tuple(FeatC(xs[i], f, xs[(i + 1) % n]) for i in range(n if closed else n - 1))
    return requantify(xs[1:], SolvedFormula((), edges + tuple(SortC(A, x) for x in xs)))


def _chain_tree(sym, n):
    A, f = sym.sort("A"), sym.feat("f")
    return feature_tree(0, {i: A for i in range(n)}, {(i, f): i + 1 for i in range(n - 1)})


@pytest.mark.parametrize("shape", ["chain", "uniform-cycle"])
def test_prime_checks_walk_the_body_once(sym, shape):
    """Entailment and satisfaction of an 8,000-node prime take one walk
    of its body, not one walk per path constraint.

    The chain's value is built directly: ``witness_prime`` gives every
    bound variable of a chain its own tree, n * n / 2 nodes in all.
    """
    n = 8000
    if shape == "chain":
        beta = _sorted_ring_prime(sym, n, closed=False)
        alpha = {sym.var("x0"): _chain_tree(sym, n)}
        short = {sym.var("x0"): _chain_tree(sym, n - 1)}
    else:
        beta = _sorted_ring_prime(sym, n, closed=True)
        alpha = witness_prime(beta, sym.fresh_sort("D"))
        short = {sym.var("x0"): _chain_tree(sym, n)}
    last = max(beta.bound, key=lambda v: int(v.name[1:]))
    unsorted = tuple(a for a in beta.body.graph if a != SortC(sym.sort("A"), last))
    weaker = requantify(beta.bound, SolvedFormula((), unsorted))
    with _wall_limit(1.0):
        assert prime_entails(beta, beta)
    with _wall_limit(1.0):
        assert prime_entails(beta, weaker) and not prime_entails(weaker, beta)
    with _wall_limit(1.0):
        assert satisfies_prime(alpha, beta)
    with _wall_limit(1.0):
        assert not satisfies_prime(short, beta)
