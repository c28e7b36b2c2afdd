import pathlib
import random
import runpy
from collections import Counter
from itertools import product

import pytest

from featlog import (
    Agree,
    And,
    Atomic,
    BasicFormula,
    Bottom,
    Eq,
    FeatC,
    Iff,
    Not,
    Path,
    PrimeFormula,
    ResourceLimit,
    SolvedFormula,
    SortAt,
    SortC,
    TOP_PRIME,
    basic_simplify,
    canonicalize,
    classify,
    decide,
    eliminate_clause,
    eliminate_neg,
    evaluate,
    expand_sugar,
    free_vars,
    is_joker,
    mk_prime_exists,
    parse_formula,
    prime_conj,
    simplify_epc,
    to_prime_dnf,
)
from featlog.core import EPS, Exists, Forall, Implies, Or, conj, exists_all
from featlog.prime import from_atom, projection
from featlog.textio import print_formula
from featlog.qe import (
    BC_FALSE,
    BC_TRUE,
    DEFAULT_MAX_DNF_CLAUSES,
    BcAnd,
    BcNot,
    BcOr,
    INVALID,
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    bc_and,
    bc_not,
    bc_or,
    _has_joker,
    _placer,
    satisfiable,
)

from generators import (
    alpha_variant,
    forall_all,
    pools,
    random_basic_formula,
    random_epc_formula,
    random_model_prime,
    random_prime,
    random_quantified_formula,
    random_valuation,
    requantify,
)
from oracles import (
    bc_quantifier_free,
    boolcomb_to_formula,
    bounded_evaluate,
    closure_classify,
    dict_prime_dnf,
    eager_decide,
    joker_closure_walks,
    naive_is_joker,
    projection_has_joker,
    split_blocks,
    two_pass_exists_conj,
    unscoped_decide,
)
from test_solve import _wall_limit


def epc(sym, text):
    return simplify_epc(expand_sugar(parse_formula(sym, text)))


# --------------------------------------------------------------------------
# jokers


def test_is_joker_examples(sym):
    A, B = sym.sort("A"), sym.sort("B")
    f, g = sym.feat("f"), sym.feat("g")
    x, y = sym.var("x"), sym.var("y")
    beta = epc(sym, "f(x, y) & A(y)")
    assert is_joker(beta, (x,), SortAt(B, x, Path((g,))))
    assert not is_joker(beta, (x,), SortAt(A, x, Path((f,))))  # already entailed
    assert not is_joker(beta, (x,), SortAt(B, x, Path((f,))))  # f lands on y
    # x reaches y, so every path from y is pinned while x is outside the block
    assert not is_joker(beta, (y,), SortAt(B, y, Path((g,))))
    # a root outside the body is a node of its own, free in the block
    z = sym.var("zfree")
    assert is_joker(beta, (z,), SortAt(B, z, Path((f, g))))
    assert is_joker(beta, (z,), SortAt(B, z, EPS))
    assert not is_joker(beta, (z,), Agree(z, EPS, z, EPS))
    assert is_joker(beta, (z,), Agree(z, EPS, x, EPS))
    assert not is_joker(beta, (x,), Agree(z, EPS, y, EPS))  # z is not in the block
    # so is a root spelled like a bound q0 of beta: another variable
    beta = epc(sym, "exists x. (f(y, x) & A(x) & f(x, x))")
    q0 = sym.var("q0")
    assert q0 in beta.bound
    assert not is_joker(beta, (q0,), Agree(q0, EPS, q0, EPS))
    assert is_joker(beta, (q0,), SortAt(A, q0, EPS))
    assert is_joker(beta, (q0,), Agree(q0, Path((f,)), q0, EPS))
    assert not is_joker(beta, (y,), SortAt(A, q0, EPS))  # q0 is not in the block


def test_variables_in_the_normalizer_are_never_free_roots(sym):
    """An eliminated root starts at its binding, which a variable
    outside the block pins."""
    A, B = sym.sort("A"), sym.sort("B")
    x = sym.var("x")
    beta = epc(sym, "x = y & A(y)")
    assert not is_joker(beta, (x,), SortAt(B, x, EPS))
    assert not is_joker(beta, (x,), SortAt(A, x, EPS))  # x = y and A(y)
    assert is_joker(beta, (x, sym.var("y")), SortAt(B, x, EPS))


def test_is_joker_rejects_reach_constraints(sym):
    x = sym.var("x")
    from featlog import Reach

    with pytest.raises(ValueError):
        is_joker(TOP_PRIME, (x,), Reach(x, EPS, x))


def test_is_joker_agrees_with_naive_oracle(sym):
    """Blocks of one to three variables.  Roots include a variable
    outside every prime and q0, which the primes may bind; paths reach
    three features, past the end of most bodies."""
    rng = random.Random(21)
    sorts, feats, vs = pools(sym)
    roots = vs + [sym.var("outside"), sym.var("q0")]
    jokers = 0
    for _ in range(250):
        beta = random_prime(rng, sym, max_atoms=6)
        xs = tuple(rng.sample(roots, rng.randint(1, 3)))
        for _ in range(6):
            if rng.random() < 0.5:
                pi = SortAt(
                    rng.choice(sorts),
                    rng.choice(roots),
                    Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 3)))),
                )
            else:
                pi = Agree(
                    rng.choice(roots),
                    Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 3)))),
                    rng.choice(roots),
                    Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 3)))),
                )
            got = is_joker(beta, xs, pi)
            assert got == naive_is_joker(beta, xs, pi)
            jokers += got
    assert jokers > 100


def test_clause_joker_check_agrees_with_projection_oracle(sym):
    """Clause elimination decides jokers in one walk of the negative's
    body; the oracle judges every constraint of its projection from the
    saturated closure.  Blocks draw from a variable outside every prime
    and from q0.  Some negatives get a free variable q0, which the
    positive may bind; others extend the positive's body and quantify
    half its free variables, so their paths run through it."""
    rng = random.Random(24)
    sorts, feats, vs = pools(sym)
    outside, q0 = sym.var("outside"), sym.var("q0")
    counts = Counter()
    for _ in range(1500):
        beta = random_prime(rng, sym, max_atoms=6)
        beta2 = random_prime(rng, sym, max_atoms=6)
        r = rng.random()
        if r < 0.4:
            v, f = rng.choice(vs), rng.choice(feats)
            atom = rng.choice([FeatC(q0, f, v), FeatC(v, f, q0), Eq(v, q0), SortC(sorts[0], q0)])
            beta2 = prime_conj(beta2, from_atom(atom))
        elif r < 0.8:
            beta2 = prime_conj(beta, beta2)
            if not isinstance(beta2, Bottom):
                free = sorted(beta2.free_vars)
                beta2 = mk_prime_exists(rng.sample(free, len(free) // 2), beta2)
        if isinstance(beta2, Bottom):
            continue
        xs = tuple(rng.sample(vs + [outside, q0], rng.randint(1, 3)))
        exists_beta = mk_prime_exists(xs, beta)
        both = prime_conj(beta, beta2)
        if isinstance(both, Bottom):
            continue
        joker = projection_has_joker(beta, xs, beta2)
        want = exists_beta if joker else bc_and(
            exists_beta, bc_not(mk_prime_exists(xs, both))
        )
        assert eliminate_neg(xs, beta, beta2) == want
        counts["joker" if joker else "subtracted"] += 1
        counts["q0 twice"] += q0 in beta.bound and q0 in beta2.free_vars
    assert min(counts.values()) > 20, counts


def test_joker_walk_agrees_with_projection_oracle_on_large_primes(sym):
    """``_has_joker`` called directly against the projection oracle, on
    positives of 50 to 100 atoms read off random graphs.  Negatives are
    primes of another graph, cycles allowed, and weakened positives
    given three random atoms, which may lead off the positive to a new
    bound variable or name the free variable outside, which is in the
    block; with many of them the positive conjoins to false, a pair
    clause elimination drops before it looks for a joker.  The block
    holds any number of the positive's free variables: paths that the
    others reach are not free.

    Positives may have cycles.  The oracle saturates every path of the
    positive up to a bound past the longest path of the negatives'
    projections, which cycles can make exponential, so a positive whose
    saturation would pass 50,000 paths is skipped before the oracle
    runs: about a quarter of them."""
    rng = random.Random(146)
    sorts, feats, _ = pools(sym)
    q0, outside, new = sym.var("q0"), sym.var("outside"), sym.var("new")
    seen = Counter()
    for _ in range(80):
        beta = random_model_prime(rng, sym)[0]
        vs = sorted(beta.body.variables) + [new, outside]
        negatives = [random_model_prime(rng, sym)[0]]
        for _ in range(2):
            keep = [a for a in beta.body.atoms if rng.random() < 0.5]
            for _ in range(3):
                v, w, s, f = rng.choice(vs), rng.choice(vs), rng.choice(sorts), rng.choice(feats)
                keep.append(rng.choice([SortC(s, v), FeatC(v, f, w), Eq(v, w), Eq(outside, v)]))
            body = basic_simplify(BasicFormula(tuple(keep)))
            if not isinstance(body, Bottom):
                negatives.append(requantify(beta.bound | {new}, body))
        free = sorted(beta.free_vars)
        xs = rng.sample(free, rng.randint(0, len(free))) + [q0, outside]
        walks = joker_closure_walks(beta, [pi for b in negatives for pi in projection(b)], 50000)
        if sum(walks) > 50000:
            seen["skipped"] += 1
            continue
        placer = _placer(beta, frozenset(xs))
        for beta2 in negatives:
            got = _has_joker(beta, placer, beta2)
            assert got == projection_has_joker(beta, xs, beta2), (str(beta), xs, str(beta2))
            seen[got, isinstance(prime_conj(beta, beta2), Bottom)] += 1
        seen["large"] += 50 <= len(beta.body.atoms) <= 100
        # a walk as long as the body has variables repeats one
        seen["cyclic"] += walks[len(beta.body.variables)] > 0
    assert min(seen[key] for key in product((True, False), repeat=2)) > 10, seen
    assert seen["large"] > 40 and seen["cyclic"] > 20, seen


def test_jokers_for_a_block(sym):
    """A path rooted in the block is free when only variables of the
    block reach it: A(y) is a joker for f(x, y) once x is quantified
    together with y, so the negation drops out."""
    A = sym.sort("A")
    x, y = sym.var("x"), sym.var("y")
    beta = epc(sym, "f(x, y)")
    assert not is_joker(beta, (y,), SortAt(A, y, EPS))
    assert is_joker(beta, (x, y), SortAt(A, y, EPS))
    beta2 = epc(sym, "A(y)")
    assert eliminate_clause((y,), [beta], [beta2]) == bc_and(
        epc(sym, "exists y. f(x, y)"),
        bc_not(epc(sym, "exists y. (f(x, y) & A(y))")),
    )
    assert eliminate_clause((x, y), [beta], [beta2]) == BC_TRUE


def test_joker_insensitivity_to_updates(sym):
    """Non-jokers keep their truth value across x-updates preserving beta."""
    from featlog import satisfies_prime, witness_prime
    from oracles import holds_path_constraint
    from featlog.models import enumerate_values

    rng = random.Random(22)
    sorts, feats, vs = pools(sym)
    default = sym.fresh_sort("D")
    candidates = list(enumerate_values("tree", sorts, feats[:2], 2))
    checked = 0
    for _ in range(200):
        beta = random_prime(rng, sym, max_atoms=5)
        x = rng.choice(vs)
        alpha = witness_prime(beta, default)
        for v in vs:
            alpha.setdefault(v, rng.choice(candidates))
        alpha = {v: alpha[v] for v in set(vs) | beta.free_vars}
        if not satisfies_prime(alpha, beta):
            continue
        alpha2 = dict(alpha)
        alpha2[x] = rng.choice(candidates)
        if not satisfies_prime(alpha2, beta):
            continue
        for _ in range(6):
            roots = sorted(set(alpha) | {x})
            pi = Agree(
                rng.choice(roots),
                Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 2)))),
                rng.choice(roots),
                Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 2)))),
            )
            if is_joker(beta, (x,), pi):
                continue
            assert holds_path_constraint(alpha, pi) == holds_path_constraint(
                alpha2, pi
            )
            checked += 1
    assert checked > 100


# --------------------------------------------------------------------------
# elimination


def test_eliminate_neg_joker_case(sym):
    x = sym.var("x")
    got = eliminate_neg((x,), TOP_PRIME, epc(sym, "A(x)"))
    assert got == BC_TRUE


def test_eliminate_neg_no_joker_case(sym):
    x, y = sym.var("x"), sym.var("y")
    beta = epc(sym, "A(y)")
    beta2 = epc(sym, "B(y)")
    got = eliminate_neg((x,), beta, beta2)
    assert got == canonicalize(beta)


def test_eliminate_neg_against_top_is_false(sym):
    x = sym.var("x")
    beta = epc(sym, "A(y)")
    assert eliminate_neg((x,), beta, TOP_PRIME) == BC_FALSE


def test_eliminate_clause_examples(sym):
    x, y = sym.var("x"), sym.var("y")
    got = eliminate_clause((x,), [epc(sym, "f(x, y)")], [])
    assert got == BC_TRUE
    got = eliminate_clause((x,), [epc(sym, "A(x)"), epc(sym, "B(x)")], [epc(sym, "C(y)")])
    assert got == BC_FALSE
    got = eliminate_clause((x,), [], [epc(sym, "A(x)")])
    assert got == BC_TRUE


def _counting_builds(monkeypatch) -> list:
    """Make every prime build append its atoms to the returned list."""
    import featlog.prime

    builds = []
    solve = featlog.prime.solve_atoms
    monkeypatch.setattr(
        featlog.prime, "solve_atoms", lambda *args: builds.append(args[0]) or solve(*args)
    )
    return builds


def test_eliminate_clause_merges_positives_once(sym, monkeypatch):
    """A clause of four positives and no negative is one build:
    ``exists y`` over their conjunction, where conjoining them first and
    requantifying the conjunction makes two."""
    positives = [epc(sym, t) for t in ("f(x, y)", "A(y)", "g(y, z)", "exists u. h(z, u)")]
    builds = _counting_builds(monkeypatch)
    got = eliminate_clause((sym.var("y"),), positives, [])
    assert len(builds) == 1
    want = epc(sym, "exists y, u. (f(x, y) & A(y) & g(y, z) & h(z, u))")
    assert got == canonicalize(want)


def test_clause_with_a_negative_builds_beta_only_when_the_block_binds(sym, monkeypatch):
    """With a negative, positives the block reaches cost two builds,
    ``exists y`` over them and their merge beta, before the subtracted
    literal's; positives it misses are their own ``exists y beta``, one
    build."""
    y = sym.var("y")
    negative = epc(sym, "exists w. f(x, w)")
    for texts, want_builds in [(("f(x, y)", "A(y)"), 2), (("g(x, z)", "A(z)"), 1)]:
        positives = [epc(sym, t) for t in texts]
        builds = _counting_builds(monkeypatch)
        got = eliminate_clause((y,), positives, [negative])
        assert len(builds) == want_builds + 1, texts
        merged = epc(sym, " & ".join(texts))
        assert got == eliminate_clause((y,), [merged], [negative]), texts


def test_positive_clauses_agree_with_conjoining_first(sym):
    """``eliminate_clause`` of positives alone, one build of ``exists xs``
    over them, equals requantifying their conjunction and the two-pass
    oracle.  Primes with bound variables all name them q0, q1, ..., so
    their bound names clash, and q0 is in some blocks; some clauses are
    atoms with nothing bound, which skip renaming apart."""
    rng = random.Random(3101)
    sorts, feats, vs = pools(sym, n_vars=5)
    seen = Counter()
    for _ in range(400):
        if rng.random() < 0.3:
            atoms = random_basic_formula(rng, sym, max_atoms=5, n_vars=5).atoms
            positives = [from_atom(a) for a in atoms if not isinstance(a, Eq) or a.lhs != a.rhs]
        else:
            positives = [random_prime(rng, sym, max_atoms=5) for _ in range(rng.randint(2, 4))]
        if len(positives) < 2:
            continue
        xs = tuple(rng.sample(vs + [sym.var("q0")], rng.randint(1, 3)))
        got = eliminate_clause(xs, positives, [])
        both = prime_conj(*positives)
        want = BC_FALSE if isinstance(both, Bottom) else mk_prime_exists(xs, both)
        assert got == want
        oracle = two_pass_exists_conj(xs, positives)
        assert got == (BC_FALSE if isinstance(oracle, Bottom) else oracle)
        bound = [v for beta in positives for v in beta.bound]
        seen["false"] += got is BC_FALSE
        seen["true"] += got is BC_TRUE
        seen["nothing bound"] += not bound
        seen["names clash"] += len(set(bound)) < len(bound)
    assert min(seen.values()) > 20, seen


def test_block_over_a_conjunction_of_literals_walks_no_normal_form(sym, monkeypatch):
    """A literal or a conjunction of literals under a block is its own
    normal form, one clause, so the block walks none."""
    import featlog.qe

    walked = []
    dnf = featlog.qe.to_prime_dnf
    monkeypatch.setattr(
        featlog.qe, "to_prime_dnf", lambda *args: walked.append(args[0]) or dnf(*args)
    )
    texts = (
        "exists x. (f(y, x) & A(x) & ~g(x, z))",
        "exists x, u. (f(y, x) & g(x, u) & h(u, z))",
        "exists x. ~f(y, x)",
        "x.f.g = y.h",
    )
    for text in texts:
        assert classify(parse_formula(sym, text)).kind == SATISFIABLE
    assert walked == []


@pytest.mark.parametrize("n", [1, 2, 6, 24])
def test_simplify_builds_each_path_agreement_once(sym, monkeypatch, tmp_path, capsys, n):
    """``featlog simplify`` of the chain ``x0.f.g = x1.h & ...`` of n
    path agreements, as solve-scale draws them: each agreement is a
    block over a conjunction of three atoms, one build, and the
    satisfiability check conjoins the n primes in one more, or takes
    the one prime as it is."""
    from featlog.cli import main

    text = " & ".join(f"x{i}.f.g = x{i + 1}.h" for i in range(n))
    path = tmp_path / "input.fl"
    path.write_text(text, encoding="utf-8")
    builds = _counting_builds(monkeypatch)
    assert main(["simplify", str(path)]) == 0
    assert len(builds) == n + (n > 1)
    assert capsys.readouterr().out.count("exists q0, q1.") == n


def test_to_prime_dnf_examples(sym):
    b1 = epc(sym, "A(x)")
    b2 = epc(sym, "B(x)")
    b3 = epc(sym, "C(y)")
    assert to_prime_dnf(b1) == [([b1], [])]
    assert to_prime_dnf(BcNot(b1)) == [([], [b1])]
    got = to_prime_dnf(bc_and(bc_or(b1, b2), bc_not(b3)))
    assert got == [([b1], [b3]), ([b2], [b3])]


def test_to_prime_dnf_drops_contradictory_clauses(sym):
    b1 = epc(sym, "A(x)")
    delta = BcAnd((b1, BcNot(b1)))
    assert to_prime_dnf(delta) == []


def test_to_prime_dnf_resource_limit(sym):
    leaves = [epc(sym, f"f(x{i}, y{i})") for i in range(8)]
    delta = bc_and(*[bc_or(l, BcNot(l2)) for l in leaves for l2 in leaves if l != l2])
    with pytest.raises(ResourceLimit):
        to_prime_dnf(delta, max_clauses=10)


def test_to_prime_dnf_is_linear_in_conjunction_width(sym):
    """Conjunctions of 20,000 and 160,000 literals, half of them negated,
    are one clause, merged from their single-clause conjuncts in one
    pass.  Linear work takes under half a second at 160,000 literals; a
    copy per conjunct, or a clause kept as a bitset over the primes,
    takes seconds."""
    A = sym.sort("A")
    for width in (20000, 160000):
        leaves = [from_atom(SortC(A, sym.var(f"x{i}"))) for i in range(width)]
        delta = bc_and(*[bc_not(leaf) if i % 2 else leaf for i, leaf in enumerate(leaves)])
        with _wall_limit(2.0):
            got = to_prime_dnf(delta)
        assert got == [(leaves[0::2], leaves[1::2])]


def test_to_prime_dnf_is_linear_in_disjunction_width(sym):
    """``B(x) & (A1(x) | ... | A40000(x))`` has 40,000 clauses: the base
    clause crossed with each disjunct is one union of small id sets."""
    x = sym.var("x")
    base = from_atom(SortC(sym.sort("B"), x))
    leaves = [from_atom(SortC(sym.sort(f"A{i}"), x)) for i in range(1, 40001)]
    delta = bc_and(base, bc_or(*leaves))
    with _wall_limit(3.0):
        got = to_prime_dnf(delta, max_clauses=50000)
    assert got == [([base, leaf], []) for leaf in leaves]


def test_to_prime_dnf_returns_the_first_equal_prime_met(sym):
    """Equal primes built apart come back as one object, the one the
    walk met first, in the order the walk first met them."""
    texts = ("A(x)", "f(x, y)", "exists u. g(y, u)", "B(y)")
    one = [epc(sym, t) for t in texts]
    two = [epc(sym, t) for t in texts]
    assert all(a == b and a is not b for a, b in zip(one, two))
    delta = bc_or(
        bc_and(one[0], bc_not(one[1]), bc_or(two[2], one[3])),
        bc_and(two[0], bc_not(two[3]), one[2]),
        bc_and(bc_not(two[1]), two[2], two[3]),
    )
    first = [one[0], one[1], two[2], one[3]]
    got = to_prime_dnf(delta)
    assert [(set(p), set(n)) for p, n in got] == [
        (set(p), set(n)) for p, n in dict_prime_dnf(delta)
    ]
    for pos, neg in got:
        assert pos == [b for b in first if b in pos]
        assert neg == [b for b in first if b in neg]
        assert all(any(lit is b for b in first) for lit in pos + neg)


def _random_combination(rng, pool, depth):
    """A random ``bc_and``/``bc_or``/``bc_not`` tree whose leaves pick a
    random copy of a random prime of the pool."""
    if depth == 0 or rng.random() < 0.1:
        leaf = rng.choice(rng.choice(pool))
        return bc_not(leaf) if rng.random() < 0.4 else leaf
    if rng.random() < 0.1:
        return bc_not(_random_combination(rng, pool, depth - 1))
    combine = bc_and if rng.random() < 0.5 else bc_or
    return combine(*[_random_combination(rng, pool, depth - 1) for _ in range(rng.randint(2, 3))])


def test_to_prime_dnf_agrees_with_dict_oracle(sym):
    """Integer-id clauses give the prime-keyed normal form's clauses in
    its order, and never trip the bound where it answers.

    Inputs are 1,000 ``decide`` residues, of random formulae or of the
    equivalence of two, each negated or not, and 1,000 random
    combinations over pools whose equal primes were built apart (the
    same seed three times), so that they are distinct objects.
    """
    rng = random.Random(131)

    def formula():
        return random_quantified_formula(rng, sym, max_atoms=rng.choice((6, 12, 20)))

    inputs = []
    while len(inputs) < 1000:
        phi = formula() if rng.random() < 0.5 else Iff(formula(), formula())
        try:
            delta = decide(expand_sugar(phi))
        except ResourceLimit:
            continue
        inputs.append(bc_not(delta) if rng.random() < 0.5 else delta)
    pools = [
        [[random_prime(random.Random(s), sym) for _ in range(3)] + [TOP_PRIME] for s in seeds]
        for seeds in (range(1000 * p, 1000 * p + 16) for p in range(10))
    ]
    copies = pools[0][0]
    assert copies[0] == copies[1] and copies[0] is not copies[1]
    for i in range(1000):
        inputs.append(_random_combination(rng, pools[i % 10], rng.randint(3, 7)))
    for max_clauses, tripped in ((8, 150), (64, 5), (DEFAULT_MAX_DNF_CLAUSES, 0)):
        answered = 0
        for delta in inputs:
            try:
                want = dict_prime_dnf(delta, max_clauses)
            except ResourceLimit:
                continue
            got = to_prime_dnf(delta, max_clauses)
            assert [(set(p), set(n)) for p, n in got] == [(set(p), set(n)) for p, n in want]
            answered += 1
        assert len(inputs) - tripped >= answered > 1500


def test_smart_constructors_fold(sym):
    a = epc(sym, "A(x)")
    assert bc_not(bc_not(a)) == a
    assert bc_and(a, BC_TRUE) == a
    assert bc_and(a, BC_FALSE) == BC_FALSE
    assert bc_or(a, BC_TRUE) == BC_TRUE
    assert bc_and(a, bc_not(a)) == BC_FALSE
    assert bc_or(a, bc_not(a)) == BC_TRUE
    assert bc_and(a, a) == a


def test_leaves_are_primes(sym):
    """The leaves of a combination are the primes themselves: an atom
    decides to its own prime, true is ``TOP_PRIME`` and false its
    negation, and every node of a satisfiable residue is a prime, a
    negation, a conjunction or a disjunction."""
    for text in ("A(x)", "f(x, y)", "x = y"):
        phi = parse_formula(sym, text)
        assert decide(phi) == from_atom(phi.atom)
    assert BC_TRUE is TOP_PRIME
    assert bc_not(TOP_PRIME) is BC_FALSE
    rng = random.Random(3030)
    residues = primes = 0
    while residues < 40:
        phi = random_quantified_formula(rng, sym, max_atoms=12)
        if not free_vars(phi):
            continue
        verdict = classify(phi)
        if verdict.kind != SATISFIABLE:
            continue
        residues += 1
        seen, stack = set(), [verdict.residue]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            assert type(node) in (PrimeFormula, BcNot, BcAnd, BcOr), node
            if isinstance(node, PrimeFormula):
                primes += not node.is_top()
            elif isinstance(node, BcNot):
                stack.append(node.arg)
            else:
                stack.extend(node.args)
    assert primes > 40


def test_combinations_are_unique_up_to_argument_order(sym):
    """Nodes equal up to the order of their arguments are one object,
    which keeps the order it was first built with."""
    a = epc(sym, "A(x)")
    b = epc(sym, "B(y)")
    c = epc(sym, "C(z)")
    assert bc_not(BC_TRUE) is BC_FALSE
    assert bc_not(TOP_PRIME) is BC_FALSE
    ab = bc_and(a, b)
    assert bc_and(b, a) is ab
    assert BcAnd((b, a)) is ab
    assert bc_not(ab) is bc_not(bc_and(b, a))
    assert bc_or(bc_and(a, b), bc_not(bc_and(b, a))) is BC_TRUE
    assert bc_and(bc_or(a, b), bc_not(bc_or(b, a))) is BC_FALSE
    # the complement is found before the disjunction is flattened into its
    # disjuncts, and inside an argument that flattening dissolves
    assert bc_or(bc_or(a, b), c, bc_not(bc_or(b, a))) is BC_TRUE
    assert bc_or(bc_or(a, b), bc_or(c, bc_not(bc_or(b, a)))) is BC_TRUE
    assert bc_and(ab, bc_and(c, a)) is bc_and(a, b, c)
    assert bc_and(b, a) != bc_and(a, c)
    assert boolcomb_to_formula(bc_and(b, a)) == And(
        (boolcomb_to_formula(a), boolcomb_to_formula(b))
    )


# --------------------------------------------------------------------------
# decide and classify


def golden_valid(sym):
    return [
        "exists x, y, z. (f(x,y) & A(y) & g(x,z) & B(z))",
        "forall x, y, z. (f(x,y) & f(x,z) -> y = z)",
        "forall u, z. exists x, y. (f(x,y) & g(y,u) & h(y,z) & undef(y,f))",
        "forall z. exists x, y. (f(x,y) & g(y,x) & h(y,z) & undef(y,f))",
        "forall x. (A(x) & B(x) -> false)",
    ]


def test_decide_golden_formulae(sym):
    for text in golden_valid(sym):
        phi = expand_sugar(parse_formula(sym, text))
        assert decide(phi) == BC_TRUE, text
    phi = expand_sugar(parse_formula(sym, "exists x. (A(x) & B(x))"))
    assert decide(phi) == BC_FALSE


def test_decide_output_shape(sym):
    rng = random.Random(23)
    for _ in range(100):
        phi = expand_sugar(random_quantified_formula(rng, sym))
        delta = decide(phi)
        assert bc_quantifier_free(delta)
        assert delta.free_vars <= free_vars(phi)


SEMANTIC_GOLDENS = [
    # expected verdicts derived by hand from the tree semantics
    ("forall x. exists y. f(x, y)", INVALID),  # a value may lack f
    ("exists x. f(x, x)", VALID),
    ("exists x. (f(x, x) & undef(x, f))", INVALID),
    ("forall x. (A(x) | ~A(x))", VALID),
    ("exists x. forall y. (f(x, y) -> A(y))", VALID),  # pick x without f
    ("forall x. forall y. x = y", INVALID),
    ("exists x. exists y. ~(x = y)", VALID),
    ("exists x. exists y. (f(x, y) & ~(x = y))", VALID),
    ("forall x. exists y. f(y, x)", VALID),  # a parent always exists
    ("forall x. exists y. (f(y, x) & undef(y, g))", VALID),
    ("forall x, y. exists z. (f(z, x) & g(z, y))", VALID),  # pairing
    ("exists x. (A(x) & forall y. (f(x, y) -> B(y)))", VALID),
    ("forall x. (undef(x, f) | exists y. f(x, y))", VALID),
    ("forall x, y. (x.f = y.f -> exists z. f(x, z))", VALID),
    ("forall x, y, z. (f(x,y) & f(x,z) & A(y) -> A(z))", VALID),
    ("forall x, y. (f(x, y) -> f(y, x))", INVALID),
    ("exists x, y. (f(x,y) & f(y,x) & A(x) & B(y))", VALID),
    ("forall x. (A(x) -> exists y. f(x, y))", INVALID),
    ("(exists x. (A(x) & B(x))) | (exists x. A(x))", VALID),
    ("A@x.f & B@x.f", UNSATISFIABLE),
    ("x.f.g = x.g.f", SATISFIABLE),
    ("forall x. (A@x.f -> exists y. f(x, y))", VALID),
    ("exists y. (f(x, y) & undef(x, f))", UNSATISFIABLE),
]


def test_semantic_goldens(sym):
    for text, want in SEMANTIC_GOLDENS:
        assert classify(parse_formula(sym, text)).kind == want, text


def test_classify_examples(sym):
    assert classify(parse_formula(sym, "true")).kind == VALID
    assert classify(parse_formula(sym, "A(x) & B(x)")).kind == UNSATISFIABLE
    verdict = classify(parse_formula(sym, "A(x)"))
    assert verdict.kind == SATISFIABLE
    assert boolcomb_to_formula(verdict.residue) == parse_formula(sym, "A(x)")


def test_classify_handles_sugar(sym):
    assert classify(parse_formula(sym, "undef(x, f) & f(x, y)")).kind == UNSATISFIABLE


def test_closed_inputs_always_fold(sym):
    rng = random.Random(24)
    folded = 0
    for _ in range(150):
        phi = random_quantified_formula(rng, sym, max_atoms=6, max_quants=3)
        fv = sorted(free_vars(phi))
        closed = forall_all(fv, phi)
        verdict = classify(closed)
        assert verdict.kind in (VALID, INVALID)
        flipped = classify(Not(closed))
        assert (verdict.kind == VALID) == (flipped.kind == INVALID)
        folded += 1
    assert folded == 150


def test_decide_equivalence_via_classify(sym):
    rng = random.Random(25)
    for _ in range(60):
        phi = expand_sugar(random_quantified_formula(rng, sym))
        delta = decide(phi)
        back = boolcomb_to_formula(delta)
        equal = forall_all(sorted(free_vars(phi)), Iff(phi, back))
        assert classify(equal).kind == VALID


def test_decide_handles_shadowed_binders(sym):
    from featlog import Exists

    phi = parse_formula(sym, "A(x) & exists x. B(x)")
    verdict = classify(phi)
    assert verdict.kind == SATISFIABLE
    # the inner binder is resolved before the outer variable matters
    assert boolcomb_to_formula(verdict.residue) == parse_formula(sym, "A(x)")
    inner_unsat = parse_formula(sym, "A(x) & exists x. (A(x) & B(x))")
    assert classify(inner_unsat).kind == UNSATISFIABLE
    phi = parse_formula(sym, "A(x) & exists x. (B(x) & exists x. C(x))")
    assert boolcomb_to_formula(classify(phi).residue) == parse_formula(sym, "A(x)")
    # a shadowing binder gets its own name, by its depth, and the outer
    # variable is back in force after its block
    cases = {
        "exists x. (A(x) & exists x. B(x))": VALID,
        "exists x. (A(x) & exists x. (A(x) & B(x)))": INVALID,
        "exists x. ((exists x. B(x)) & A(x))": VALID,
        "exists x. ((exists x. B(x)) & A(x) & B(x))": INVALID,
        "forall x. ((exists x. f(x, x)) -> exists y. f(y, y))": VALID,
        "forall x. exists y. (f(x, y) & exists x. (g(y, x) & ~f(x, y)))": INVALID,
        "forall x. exists y. (f(y, x) & exists x. (g(y, x) & ~f(x, y)))": VALID,
        "forall x. (A(x) -> exists x. (B(x) & exists x. (f(x, x) & A(x))))": VALID,
        "forall x. (A(x) -> (exists x. B(x)) & B(x))": INVALID,
    }
    for text, kind in cases.items():
        phi = expand_sugar(parse_formula(sym, text))
        assert classify(phi).kind == kind, text
        assert decide(phi) == eager_decide(phi), text


def test_search_agrees_with_closure_oracle(sym):
    """The clause search and per-variable elimination give one verdict.

    The oracle's DNF may cross the clause bound where the search stops
    at its first satisfiable clause; such inputs are skipped.
    """
    rng = random.Random(28)
    compared = unsat = 0
    while compared < 2000:
        phi = random_quantified_formula(rng, sym, max_atoms=rng.choice((6, 12, 20)))
        if not free_vars(phi):
            continue
        try:
            want = closure_classify(phi)
        except ResourceLimit:
            continue
        got = classify(phi).kind
        assert got == want, phi
        compared += 1
        unsat += got == UNSATISFIABLE
    assert unsat > 50


def test_block_elimination_agrees_with_nested_one_variable_blocks(sym):
    """Eliminating a block at once and one variable at a time give one
    verdict, and residues that agree under bounded evaluation.

    Each random formula goes under an ``exists``/``forall`` block of two
    or more of its free variables, and ``split_blocks`` writes every
    block as nested one-variable blocks.  Miniscoping may write the
    residue of open input differently on the two sides, so two residues
    that differ are evaluated at eight seeded tree valuations of the
    free variables, and must agree wherever the bounded evaluator gives a
    definite answer for both.  Inputs on which either side crosses the
    clause bound are skipped.
    """
    rng = random.Random(30)
    values = random.Random(33)
    compared = closed = evaluated = 0
    while compared < 2000:
        phi = random_quantified_formula(rng, sym, max_atoms=rng.choice((6, 12)))
        fv = sorted(free_vars(phi))
        if len(fv) < 2:
            continue
        block = rng.sample(fv, rng.randint(2, len(fv)))
        phi = rng.choice((exists_all, forall_all))(block, phi)
        try:
            want = classify(split_blocks(phi))
            got = classify(phi)
        except ResourceLimit:
            continue
        assert got.kind == want.kind, phi
        compared += 1
        closed += got.kind in (VALID, INVALID)
        if got.residue == want.residue:
            continue
        residues = [boolcomb_to_formula(v.residue) for v in (got, want)]
        for _ in range(8):
            alpha = random_valuation(values, sym, fv, "tree", max_nodes=2)
            answers = [
                bounded_evaluate(sym, "tree", alpha, r, node_bound=2, budget=500)
                for r in residues
            ]
            if None not in answers:
                assert answers[0] == answers[1], phi
                evaluated += 1
    assert closed > 200 and evaluated > 30


def test_miniscoping_agrees_with_whole_matrix_elimination(sym):
    """Miniscoped, memoized elimination and the whole-matrix elimination
    of ``unscoped_decide`` give one verdict.

    Half the inputs go under an ``exists``/``forall`` block of some of
    their free variables.  Inputs on which either side crosses the
    clause bound are skipped.
    """
    rng = random.Random(34)
    compared = closed = 0
    for i in range(2000):
        phi = random_quantified_formula(rng, sym, max_atoms=rng.choice((6, 12)))
        fv = sorted(free_vars(phi))
        if i % 2 and fv:
            block = rng.sample(fv, rng.randint(1, len(fv)))
            phi = rng.choice((exists_all, forall_all))(block, phi)
        phi = expand_sugar(phi)
        try:
            got = classify(phi).kind
            delta = unscoped_decide(phi)
            if free_vars(phi):
                want = SATISFIABLE if satisfiable(delta) else UNSATISFIABLE
            else:
                want = {BC_TRUE: VALID, BC_FALSE: INVALID}[delta]
        except ResourceLimit:
            continue
        assert got == want, phi
        compared += 1
        closed += want in (VALID, INVALID)
    assert compared > 1900 and closed > 300


# the benchmark's input generators, read from this checkout's bench/
WORKLOADS = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
)


@pytest.mark.parametrize("negate", [False, True], ids=["invalid", "valid"])
@pytest.mark.parametrize("k", [8, 10, 12, 100])
def test_alternation_ladder_at_scale(sym, k, negate):
    """forall x1 exists x2 ... over k - 1 links has 4^(k-1) DNF clauses
    as one matrix; miniscoped, each block sees only the link it meets."""
    op = WORKLOADS["alternation_ladder"](WORKLOADS["Names"](random.Random(0)), k, negate)
    with _wall_limit(1.0):
        assert classify(parse_formula(sym, op.text)).kind == op.expect


def test_qe_mix_iff_sentence_solves_each_clause_prime_once(sym):
    """The qe-mix iff sentence of size 32 at seed 201 distributes its
    matrix into clauses that share positives and negatives; it exits on
    the clause bound without miniscoping and takes seconds without the
    memo tables."""
    op = WORKLOADS["qe_mix"](201)[534]
    assert (op.family, op.size, op.expect) == ("iff", 32, INVALID)
    with _wall_limit(2.0):
        assert classify(parse_formula(sym, op.text)).kind == INVALID


def _counting_eliminator(monkeypatch, log):
    """Make every clause eliminator append its clauses and results to log."""
    import featlog.qe

    make = featlog.qe._clause_eliminator

    def counting(block):
        eliminate = make(block)

        def logged(positives, negatives):
            result = eliminate(positives, negatives)
            log.append((positives, negatives, result))
            return result

        return logged

    monkeypatch.setattr(featlog.qe, "_clause_eliminator", counting)


def test_qe_mix_iff_sentence_stops_at_its_first_true_clause(sym, monkeypatch):
    """The same sentence has two normal forms of 6,920 clauses.  Only
    one clause in each is true, and it has one positive and one negative
    literal; eliminating shortest first and stopping there makes 41
    clause eliminations where all of them make 13,876, and trying the
    block-only clauses first makes 38.  The blocks of phi' are renamed
    copies of those of phi and share their eliminations, which makes
    19."""
    log = []
    _counting_eliminator(monkeypatch, log)
    op = WORKLOADS["qe_mix"](201)[534]
    assert classify(parse_formula(sym, op.text)).kind == INVALID
    assert 0 < len(log) <= 100


def test_qe_mix_iff_sentence_builds_only_block_only_clauses(sym, monkeypatch):
    """The true clauses of the qe-mix iff sentence of size 32 at seed 201
    have only literals with a block variable free, so each block builds
    those clauses first and is true before its whole normal form is
    built: under 100 clauses in all, where building each normal form
    whole made 13,876."""
    import featlog.qe

    built = []
    dnf = featlog.qe.to_prime_dnf

    def counting_dnf(*args):
        clauses = dnf(*args)
        built.append(len(clauses))
        return clauses

    monkeypatch.setattr(featlog.qe, "to_prime_dnf", counting_dnf)
    op = WORKLOADS["qe_mix"](201)[534]
    assert classify(parse_formula(sym, op.text)).kind == INVALID
    assert 0 < sum(built) < 100


def test_block_elimination_stops_at_its_shortest_true_clause(sym, monkeypatch):
    """``exists x ((A(x) & f(x, y) | C(x)) & (B(x) & g(x, y) | C(x)))``
    distributes into four clauses, and the only true one, ``C(x)``, is
    the shortest and the last in normal-form order.  It is eliminated
    first, and nothing else is."""
    import featlog.qe

    def leaf(text):
        return from_atom(parse_formula(sym, text).atom)

    delta = bc_and(
        bc_or(bc_and(leaf("A(x)"), leaf("f(x, y)")), leaf("C(x)")),
        bc_or(bc_and(leaf("B(x)"), leaf("g(x, y)")), leaf("C(x)")),
    )
    clauses = to_prime_dnf(delta)
    assert [len(pos) + len(neg) for pos, neg in clauses] == [4, 3, 3, 1]
    log = []
    _counting_eliminator(monkeypatch, log)
    x = sym.var("x")
    assert featlog.qe._eliminate_exists((x,), delta, DEFAULT_MAX_DNF_CLAUSES) is BC_TRUE
    assert log == [(clauses[-1][0], [], BC_TRUE)]


def test_block_only_clauses_never_trip_the_bound_first(sym):
    """``~(~B(y) | ~A(x))`` is the one clause ``B(y) & A(x)``, which every
    clause of the first disjunction clashes with, so the whole normal
    form is empty and never holds more than three clauses.  Its
    block-only clauses drop ``B(y)``, which has no x free, and with it
    ``A(x)``; the conjunction then yields none before it crosses the two
    disjunctions, whose nine products would pass a bound of 4."""
    first = " | ".join(f"(~A(x) & C{i}(x))" for i in range(3))
    second = " | ".join(f"D{i}(x)" for i in range(3))
    phi = parse_formula(sym, f"exists x. (({first}) & ({second}) & ~(~B(y) | ~A(x)))")
    assert classify(phi, 4).kind == UNSATISFIABLE


@pytest.mark.parametrize(
    "text, walks",
    [
        ("exists x. (f(y, x) & (A(x) | g(x, z)))", 1),
        ("exists x. (f(y, x) & (A(x) | B(y)))", 2),
    ],
)
def test_block_builds_its_normal_form_once_when_it_drops_no_literal(sym, monkeypatch, text, walks):
    """Neither block is true.  When every literal mentions the block,
    its block-only clauses are its whole normal form, and they are
    joined without a second walk.  ``B(y)`` has no x free, so the first
    walk is of a rewritten matrix and the second of the matrix itself."""
    import featlog.qe

    walked = []
    dnf = featlog.qe.to_prime_dnf

    def counting_dnf(delta, *args):
        walked.append(delta)
        return dnf(delta, *args)

    monkeypatch.setattr(featlog.qe, "to_prime_dnf", counting_dnf)
    assert classify(parse_formula(sym, text)).kind == SATISFIABLE
    assert len(walked) == walks
    if walks == 2:
        assert walked[0] is not walked[1]


def _random_block(rng, sym, body):
    """``exists`` or ``forall`` over a nonempty random part of body's free
    variables, sugar expanded; None when body is closed."""
    vs = sorted(free_vars(body))
    if not vs:
        return None
    block = tuple(rng.sample(vs, rng.randint(1, len(vs))))
    return expand_sugar((Exists if rng.random() < 0.5 else Forall)(block, body))


def test_decide_agrees_with_eager_normal_forms(sym):
    """Building a block's block-only clauses first changes no answer.

    Random formulae under a random ``exists`` or ``forall`` block are
    decided with each block's whole normal form built first, as the
    oracle does.  Where the oracle answers, ``decide`` answers too, with
    the same combination, which prints the same when each is built
    alone.  Where the bound stops the oracle, a true block-only clause
    can still answer.
    """
    rng = random.Random(2020)
    for max_clauses in (8, 64, DEFAULT_MAX_DNF_CLAUSES):
        answered = gained = 0
        for _ in range(1000):
            body = random_quantified_formula(rng, sym, max_atoms=rng.choice((6, 12, 20)))
            phi = _random_block(rng, sym, body)
            if phi is None:
                continue
            try:
                text = print_formula(boolcomb_to_formula(eager_decide(phi, max_clauses)))
            except ResourceLimit:
                try:
                    decide(phi, max_clauses)
                    gained += 1
                except ResourceLimit:
                    pass
                continue
            got = decide(phi, max_clauses)
            assert print_formula(boolcomb_to_formula(got)) == text, phi
            # the same object: combinations are unique and compare by identity
            assert got == eager_decide(phi, max_clauses), phi
            answered += 1
        assert answered > 900, max_clauses
        if max_clauses == 8:
            assert gained > 0


def test_decide_agrees_with_eager_normal_forms_on_literal_blocks(sym):
    """A block over a conjunction of literals is eliminated as its one
    clause, with no normal form built; one over a negated disjunction
    of literals, or under ``forall``, goes through the walk.  Literals
    are atoms or small existential conjunctions, some negated.  Either
    way ``decide`` gives the combination the eager oracle gives."""
    rng = random.Random(3102)
    sorts, feats, vs = pools(sym, n_vars=4)

    def literal():
        if rng.random() < 0.3:
            phi = random_epc_formula(rng, sym, max_atoms=3, n_vars=4)
        else:
            phi = Atomic(random_basic_formula(rng, sym, max_atoms=1, n_vars=4).atoms[0])
        return Not(phi) if rng.random() < 0.4 else phi

    seen = Counter()
    for _ in range(600):
        literals = tuple(literal() for _ in range(rng.randint(1, 5)))
        negated = rng.random() < 0.5
        if len(literals) == 1:
            body = Not(literals[0]) if negated else literals[0]
        else:
            body = Not(Or(literals)) if negated else And(literals)
        phi = _random_block(rng, sym, body)
        if phi is None:
            continue
        got = decide(phi)
        want = eager_decide(phi)
        assert got == want, phi
        assert print_formula(boolcomb_to_formula(got)) == print_formula(boolcomb_to_formula(want))
        seen[negated, isinstance(phi, Exists)] += 1
        seen["constant"] += got is BC_TRUE or got is BC_FALSE
    assert min(seen.values()) > 50, seen


def test_clauses_with_block_free_literals_never_eliminate_to_true(sym):
    """A positive literal with no block variable free is entailed by the
    requantified clause and is not valid; a negative one is never a
    joker and never clashes with a positive part whose requantification
    is true.  So a clause holding either never eliminates to true, and
    only the clauses without one need to be tried for a true block."""
    rng = random.Random(2021)
    checked = true_block_only = 0
    for _ in range(2000):
        body = random_quantified_formula(rng, sym, max_atoms=rng.choice((6, 12, 20)))
        phi = _random_block(rng, sym, body)
        if phi is None:
            continue
        try:
            delta = decide(phi.body)
            delta = bc_not(delta) if isinstance(phi, Forall) else delta
            clauses = to_prime_dnf(delta, 64)
        except ResourceLimit:
            continue
        xs = phi.vars
        for pos, neg in clauses:
            result = eliminate_clause(xs, pos, neg)
            if any(set(xs).isdisjoint(beta.free_vars) for beta in pos + neg):
                assert result is not BC_TRUE, (xs, pos, neg)
                checked += 1
            else:
                true_block_only += result is BC_TRUE
    assert checked > 800 and true_block_only > 1000


def _prime_leaves(delta):
    """The prime leaves of a combination, each node visited once."""
    seen, stack, out = set(), [delta], []
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, PrimeFormula):
            out.append(node)
        elif isinstance(node, BcNot):
            stack.append(node.arg)
        else:
            stack.extend(node.args)
    return out


def test_block_only_walk_gives_exactly_the_block_only_clauses(sym):
    """The normal form of ``_block_only(delta, block)`` is the list of
    the clauses of delta's whole normal form whose literals all have a
    block variable free, in the same order and with their primes in the
    same order, and the rewrite gives delta itself exactly when every
    prime leaf but a true one mentions the block.  Matrices are drawn as
    in the test above.  The fixed matrix first has two disjunctions with
    one set of block parts in two orders: rebuilt through the unique
    table, the second would come back in the first's order and list its
    clauses in it."""
    import featlog.qe

    def leaf(text):
        return from_atom(parse_formula(sym, text).atom)

    a, b, c, d = (leaf(f"{s}(x)") for s in "ABCD")
    fixed = bc_or(bc_and(bc_or(a, leaf("E(y)"), b), c), bc_and(bc_or(b, leaf("F(y)"), a), d))
    rng = random.Random(2029)
    matrices = [((sym.var("x"),), fixed)]
    for _ in range(1500):
        body = random_quantified_formula(rng, sym, max_atoms=rng.choice((6, 12, 20)))
        phi = _random_block(rng, sym, body)
        if phi is not None:
            delta = decide(phi.body)
            matrices.append((phi.vars, bc_not(delta) if isinstance(phi, Forall) else delta))
    checked = kept = 0
    for xs, delta in matrices:
        block = frozenset(xs)
        try:
            whole = to_prime_dnf(delta, 64)
        except ResourceLimit:
            continue
        only = featlog.qe._block_only(delta, block)
        want = [
            (pos, neg) for pos, neg in whole
            if all(not block.isdisjoint(beta.free_vars) for beta in pos + neg)
        ]
        assert to_prime_dnf(only, 64) == want, (xs, delta)
        mention = all(
            leaf.is_top() or not block.isdisjoint(leaf.free_vars)
            for leaf in _prime_leaves(delta)
        )
        assert (only is delta) == mention, (xs, delta)
        checked += 1
        kept += mention
    assert checked > 1000 and 200 < kept < checked - 200


def test_block_only_rewrites_each_node_of_a_dag_once(sym):
    """``_block_only`` on the nested ``<->`` chain of depth 24, a DAG
    whose unfolding has 2^24 leaves, rewrites each node once per
    polarity: with a block of x0 alone every other leaf is replaced,
    and with the whole chain as the block the chain comes back."""
    import featlog.qe

    text = "A(x0)"
    for i in range(1, 25):
        text = f"({text}) <-> A(x{i})"
    delta = decide(parse_formula(sym, text))
    xs = frozenset(sym.var(f"x{i}") for i in range(25))
    with _wall_limit(1.0):
        assert featlog.qe._block_only(delta, frozenset((sym.var("x0"),))) is not delta
        assert featlog.qe._block_only(delta, xs) is delta


def test_prime_dnf_walks_each_node_of_a_dag_once(sym):
    """The block-only rewrite of the nested ``<->`` chain of depth 24
    for the block {x0} has no clause, and its normal form says so after
    one walk per node and polarity: walked as its tree unfolding, with
    2^24 leaves, it takes minutes."""
    import featlog.qe

    text = "A(x0)"
    for i in range(1, 25):
        text = f"({text}) <-> A(x{i})"
    only = featlog.qe._block_only(decide(parse_formula(sym, text)), frozenset((sym.var("x0"),)))
    with _wall_limit(1.0):
        assert to_prime_dnf(only) == []


def test_residue_converts_each_shared_node_once(sym):
    """The residue of the open nested ``<->`` chain of n atoms is a DAG
    whose unfolding doubles with every atom.  ``boolcomb_to_formula``
    converts each of its nodes once, so the formula shares what the
    residue shares and n = 16 to 22 each take milliseconds; converting
    the unfolding took seconds at n = 18."""
    for n in (16, 18, 20, 22):
        text = "A(x0)"
        for i in range(1, n):
            text = f"({text}) <-> A(x{i})"
        delta = decide(parse_formula(sym, text))
        with _wall_limit(0.5):
            phi = boolcomb_to_formula(delta)
        nodes, stack = set(), [phi]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes.add(id(node))
                stack.extend(getattr(node, "args", ()))
                if hasattr(node, "body"):
                    stack.append(node.body)
        assert len(nodes) < 10 * n


@pytest.mark.parametrize("index, size", [(10, 32), (430, 22)])
def test_qe_mix_iff_sentence_folds_sides_equal_up_to_order(sym, index, size):
    """Two qe-mix iff sentences at seed 201, ``forall fv (phi <-> phi')``
    with phi' a reordered copy of phi.  Once its inner blocks are
    eliminated, the two sides are one node, since combinations are unique
    up to argument order, and the equivalence folds to true before the
    outermost block is put in normal form.  Compared as argument tuples,
    the sides stay apart and that normal form exceeds the clause bound."""
    op = WORKLOADS["qe_mix"](201)[index]
    assert (op.family, op.size, op.expect) == ("iff", size, VALID)
    with _wall_limit(1.0):
        assert classify(parse_formula(sym, op.text)).kind == VALID


def test_qe_mix_iff_sentence_compares_equal_primes_once_per_leaf(sym, monkeypatch):
    """The qe-mix iff sentence of size 20 at seed 201 meets equal primes
    built apart in each of its normal forms.  A prime is compared with
    the ones met before it only when it gets its id, so inside the
    normal-form walk ``PrimeFormula.__eq__`` runs at most once per prime
    leaf visited, not once per pair of clauses (148,501 with clauses
    keyed by the primes themselves).  22 leaves are visited: the inner
    block of phi is walked twice, once with its parts that have no block
    variable free replaced by five constants (10 leaves), for its one
    block-only clause, which is not true, and once whole over its 12
    leaves (24 when the first walk skipped those parts itself).  The inner
    block of phi' is the same block up to the name of its bound
    variable, so ``decide`` gives it the same matrix and eliminates it
    once for both (48 leaves when each block was walked apart).  The
    sides of the outermost equivalence are one node, so it folds before
    the outermost block builds a normal form (147 leaves in one walk
    when the sides compared as argument tuples)."""
    import featlog.qe

    op = WORKLOADS["qe_mix"](201)[485]
    assert (op.family, op.size, op.expect) == ("iff", 20, VALID)
    counts = {"inside": False, "eq": 0, "leaves": 0}

    def leaves(node):
        if isinstance(node, PrimeFormula):
            return 1
        if isinstance(node, BcNot):
            return leaves(node.arg)
        return sum(leaves(a) for a in node.args)

    eq = PrimeFormula.__eq__

    def counting_eq(self, other):
        counts["eq"] += counts["inside"]
        return eq(self, other)

    dnf = featlog.qe.to_prime_dnf

    def counting_dnf(delta, *args):
        counts["leaves"] += leaves(delta)
        counts["inside"] = True
        try:
            return dnf(delta, *args)
        finally:
            counts["inside"] = False

    monkeypatch.setattr(PrimeFormula, "__eq__", counting_eq)
    monkeypatch.setattr(featlog.qe, "to_prime_dnf", counting_dnf)
    assert classify(parse_formula(sym, op.text)).kind == VALID
    assert counts["leaves"] == 22
    assert counts["eq"] <= counts["leaves"]


def _counting_eliminations(monkeypatch, log):
    """Make ``_eliminate_exists`` append the block names it is given to log."""
    import featlog.qe

    eliminate = featlog.qe._eliminate_exists

    def counting(xs, delta, max_clauses, names=()):
        log.append(tuple(map(str, names or xs)))
        return eliminate(xs, delta, max_clauses, names)

    monkeypatch.setattr(featlog.qe, "_eliminate_exists", counting)


def test_blocks_equal_up_to_bound_names_are_eliminated_once(sym, monkeypatch):
    """``exists y (f(x, y) & A(y))`` and ``exists z (A(z) & f(x, z))`` are
    one block up to the name of its variable and the order of its
    conjuncts.  ``decide`` names both variables by their binder's depth,
    so the two blocks have one matrix and only the first is eliminated;
    the implication then folds, and the outer block is eliminated from
    false."""
    log = []
    _counting_eliminations(monkeypatch, log)
    text = "forall x. ((exists y. (f(x, y) & A(y))) -> (exists z. (A(z) & f(x, z))))"
    assert classify(parse_formula(sym, text)).kind == VALID
    assert log == [("y",), ("x",)]


def test_only_blocks_off_the_leading_chain_are_renamed(sym, monkeypatch):
    """No block lies beside the input's leading chain of negations and
    blocks, so no block can repeat one of them: their variables keep
    their names, and only atoms under a block off that chain are
    renamed."""
    import featlog.qe

    renamed = []
    rename = featlog.qe.rename_atom

    def counting(atom, mapping):
        renamed.append(atom)
        return rename(atom, mapping)

    monkeypatch.setattr(featlog.qe, "rename_atom", counting)
    prenex = "~forall x. exists y, z. ~(f(x, y) & g(y, z) & A(z))"
    assert classify(parse_formula(sym, prenex)).kind == INVALID
    assert renamed == []
    text = "forall x. (A(x) -> (exists y. (f(x, y) & B(y))) | exists y. g(x, y))"
    assert classify(parse_formula(sym, text)).kind == INVALID
    assert len(renamed) == 3


def test_qe_mix_iff_sentence_eliminates_each_block_once(sym, monkeypatch):
    """The qe-mix iff sentence of size 32 at seed 201 has an outer block,
    two inner blocks in phi and their renamed copies in phi'.  The
    copies are the same eliminations as the originals, so three blocks
    are eliminated where naming each apart made five."""
    log = []
    _counting_eliminations(monkeypatch, log)
    op = WORKLOADS["qe_mix"](201)[10]
    assert (op.family, op.size, op.expect) == ("iff", 32, VALID)
    assert classify(parse_formula(sym, op.text)).kind == VALID
    assert len(log) == 3


def _text(delta) -> str:
    return print_formula(boolcomb_to_formula(delta))


def _oracle_verdict(chi, delta, max_clauses):
    """classify's answer from the oracle's combination delta for chi:
    (kind, residue text), or ("limit", message) from the search."""
    if not free_vars(chi):
        return (VALID if delta is BC_TRUE else INVALID), None
    try:
        if satisfiable(delta, max_clauses):
            return SATISFIABLE, _text(delta)
    except ResourceLimit as exc:
        return "limit", str(exc)
    return UNSATISFIABLE, None


def _verdict(chi, max_clauses):
    try:
        verdict = classify(chi, max_clauses)
    except ResourceLimit as exc:
        return "limit", str(exc)
    return verdict.kind, None if verdict.residue is None else _text(verdict.residue)


def test_alpha_variant_blocks_agree_with_the_memo_free_oracle(sym, monkeypatch):
    """Sharing one elimination between blocks equal up to bound names
    changes no verdict, no message and, where the oracle itself treats
    the blocks alike, no residue.

    phi is a random formula, most often under a random block, and phi'
    is phi with every binder renamed apart and the arguments of its
    conjunctions and disjunctions shuffled.  ``phi <-> phi'``, its
    negation, its universal closure, and open inputs where phi and phi'
    sit under different connectives are decided by ``decide`` and by
    ``eager_decide``, which recurses by itself, keeps the input's names
    and eliminates every block it meets.  Where the oracle stops at the
    bound, ``decide`` stops with the same message, unless a true
    block-only clause answers first.  Where it answers, ``classify``
    gives its verdict.  When the oracle decides phi and phi' alone to
    one combination, ``decide`` gives the oracle's combination for the
    whole input too, which prints the same.  Otherwise the oracle's two
    results differ only in which free variable represents a class of
    equal ones, as the argument order it met first decides, and
    ``decide`` gives phi' the result of phi: its residue is equivalent
    to the oracle's, and may fold further (4 of 5 such inputs here).
    ``decide`` makes 5,729 block eliminations where the oracle makes
    10,892.
    """
    import featlog.qe
    import oracles

    counts = Counter()
    counting = {"on": False}
    for name, module, attr in (
        ("decide", featlog.qe, "_eliminate_exists"),
        ("oracle", oracles, "_eager_eliminate_exists"),
    ):

        def counted(*args, original=getattr(module, attr), name=name):
            counts[name] += counting["on"]
            return original(*args)

        monkeypatch.setattr(module, attr, counted)

    def run(decider, chi, max_clauses):
        counting["on"] = True
        try:
            return decider(chi, max_clauses), None
        except ResourceLimit as exc:
            return None, str(exc)
        finally:
            counting["on"] = False

    rng = random.Random(2122)
    for max_clauses in (8, 64, DEFAULT_MAX_DNF_CLAUSES):
        answered = limits = 0
        for _ in range(150):
            body = random_quantified_formula(
                rng, sym, max_atoms=rng.choice((12, 20, 40)), max_quants=rng.choice((3, 6))
            )
            phi = _random_block(rng, sym, body) or expand_sugar(body)
            variant = alpha_variant(rng, phi)
            psi = expand_sugar(random_quantified_formula(rng, sym, max_atoms=6))
            try:
                alike = eager_decide(phi, max_clauses) == eager_decide(variant, max_clauses)
            except ResourceLimit:
                alike = False
            both = Iff(phi, variant)
            for chi in (
                both,
                Not(both),
                forall_all(sorted(free_vars(phi)), both),
                Or((And((phi, psi)), Not(variant))),
                And((Implies(psi, phi), Or((variant, psi)))),
            ):
                want, message = run(eager_decide, chi, max_clauses)
                got, got_message = run(decide, chi, max_clauses)
                if got is None:
                    assert want is None and got_message == message, chi
                    limits += 1
                    continue
                if want is None:
                    continue  # a true block-only clause answered under the bound
                kind, text = _verdict(chi, max_clauses)
                want_kind, want_text = _oracle_verdict(chi, want, max_clauses)
                assert kind == want_kind, chi
                if alike:
                    assert got == want, chi  # identity, but for a single leaf
                    assert _text(got) == _text(want), chi
                    assert text == want_text, chi
                else:
                    same = Iff(boolcomb_to_formula(got), boolcomb_to_formula(want))
                    assert classify(forall_all(sorted(free_vars(chi)), same)).kind == VALID
                answered += 1
        assert answered > 600, max_clauses
        if max_clauses == 8:
            assert limits > 0
    assert counts["decide"] < 0.6 * counts["oracle"], counts


def test_search_checks_negatives_by_entailment(sym):
    """Clauses whose consistent positives entail a negative are closed.

    ``beta & ~exists ys. beta'`` with ``beta'`` drawn from the atoms of
    ``beta``, half the time plus one atom more: the verdict turns on
    ``prime_entails`` exactly when beta is consistent.
    """
    rng = random.Random(29)
    by_entailment = sat = 0
    for _ in range(500):
        atoms = [Atomic(a) for a in random_basic_formula(rng, sym, max_atoms=8, n_vars=4).atoms]
        part = rng.sample(atoms, rng.randint(1, len(atoms)))
        if rng.random() < 0.5:
            extra = random_basic_formula(rng, sym, max_atoms=1, n_vars=4).atoms[0]
            part.append(Atomic(extra))
        vs = sorted(set().union(*(free_vars(a) for a in part)))
        beta = conj(atoms)
        phi = And((beta, Not(exists_all(rng.sample(vs, rng.randint(0, len(vs))), conj(part)))))
        got = classify(phi).kind
        assert got == closure_classify(phi), phi
        consistent = not isinstance(simplify_epc(beta), Bottom)
        by_entailment += consistent and got == UNSATISFIABLE
        sat += got == SATISFIABLE
    assert by_entailment > 30 and sat > 30


def test_classification_agrees_with_bounded_model_checking(sym):
    """The procedure never contradicts brute-force evaluation.

    Definite answers from small-model enumeration are sound for the
    intended structures, so a classification disagreeing with one would
    be wrong.  Formulae are kept tiny so the search often concludes.
    """
    from featlog.core import exists_all

    rng = random.Random(27)
    definite = {VALID: 0, INVALID: 0, SATISFIABLE: 0, UNSATISFIABLE: 0}
    for _ in range(120):
        phi = random_quantified_formula(rng, sym, max_atoms=3, max_quants=2, n_vars=3)
        phi = expand_sugar(phi)
        fv = sorted(free_vars(phi))
        closed = forall_all(fv, phi)
        brute = bounded_evaluate(sym, "tree", {}, closed, node_bound=2, budget=4000)
        if brute is not None:
            verdict = classify(closed)
            assert verdict.kind == (VALID if brute else INVALID), closed
            definite[verdict.kind] += 1
        some = exists_all(fv, phi)
        brute = bounded_evaluate(sym, "tree", {}, some, node_bound=2, budget=4000)
        if brute is not None and fv:
            verdict = classify(phi)
            want = SATISFIABLE if brute else UNSATISFIABLE
            assert verdict.kind == want, phi
            definite[verdict.kind] += 1
    # a bounded search can refute universals and witness existentials,
    # but never the other way around, so those two sides dominate;
    # valid cases arise only through negation shapes
    assert definite[INVALID] > 10 and definite[SATISFIABLE] > 10
    assert definite[VALID] >= 1


def test_satisfiable_existentials_have_witnesses(sym):
    from featlog import satisfies_prime, witness_prime

    rng = random.Random(26)
    default = sym.fresh_sort("D")
    seen_sat = 0
    for _ in range(100):
        phi = random_epc_formula(rng, sym, quantify_all=True)
        verdict = classify(phi)
        beta = simplify_epc(expand_sugar(phi))
        if verdict.kind == VALID:
            assert isinstance(beta, PrimeFormula)
            alpha = witness_prime(beta, default)
            assert satisfies_prime(alpha, beta)
            seen_sat += 1
        else:
            assert verdict.kind == INVALID
            assert isinstance(beta, Bottom)
    assert seen_sat > 20


def test_a_long_lived_session_keeps_only_parsed_names(sym):
    """Parsing is the only step that interns: deciding, expanding,
    solving, conjoining and evaluating the same inputs over and over
    leaves the session's tables as the parser left them.  The names
    ``decide`` gives bound variables are never interned."""
    texts = [
        "forall x. exists y. (f(x, y) <-> A @ y.g)",
        "exists y. (x.f = y.g & undef(y, h)) | ~B(x)",
        "forall y. exists z. (z.h = y.eps & B @ z.g & undef(z, f) & ~A(z))",
        "forall x. (x.f.g = x.h <-> exists y. (f(x, y) & undef(y, g)))",
        # nested and shadowed binders, which decide names by their depth
        "forall x. exists y. (f(x, y) & forall x. exists y. (g(x, y) | ~f(y, x)))",
        "exists x. (A(x) & exists x. (B(x) & exists x. ~A(x)))",
        "exists y. (f(x, y) & forall z. (g(y, z) -> exists x. h(z, x)))",
    ]
    # conjunctions whose binders shadow free variables and each other
    epcs = [
        "exists u. (f(x, u) & A(u)) & exists u. g(x, u) & u = x",
        "exists u. (h(u, x) & exists u. f(u, x)) & x.g = u.f",
    ]
    phis = [parse_formula(sym, t) for t in texts]
    conjunctions = [parse_formula(sym, t) for t in epcs]
    tables = (dict(sym._sorts), dict(sym._feats), dict(sym._vars))
    for _ in range(20):
        for phi in phis:
            verdict = classify(phi)
            if not free_vars(phi):
                assert evaluate(sym, "tree", {}, phi) is (verdict.kind == VALID)
        primes = [simplify_epc(expand_sugar(phi)) for phi in conjunctions]
        assert all(isinstance(beta, PrimeFormula) for beta in primes)
        assert isinstance(prime_conj(*primes, *primes), PrimeFormula)
    assert (sym._sorts, sym._feats, sym._vars) == tables


def test_nested_iff_chain_decides_in_polynomial_time(sym):
    """``(...((A(x0) <-> A(x1)) <-> A(x2)) ... <-> A(x24))``: each level
    uses both sides twice, so the combination is a DAG whose unfolding
    has 2^24 leaves.  A node hashes by identity, since equal combinations
    are one object, so building and searching it never unfolds it, and
    neither does comparing it with a second decision of the same chain."""
    text = "A(x0)"
    for i in range(1, 25):
        text = f"({text}) <-> A(x{i})"
    phi = parse_formula(sym, text)
    with _wall_limit(1.0):
        delta = decide(phi)
        assert satisfiable(delta)
        again = decide(phi)
        assert again == delta
        assert again is delta


def test_block_over_nested_iff_chain_exceeds_the_bound_at_once(sym):
    """``exists x0, ..., x24.`` over the nested ``<->`` chain: every leaf
    mentions the block, and the normal form doubles with every level, so
    the block-only walk passes a bound of 100 clauses within a few
    levels.  A walk of the matrix that unfolds its DAG as a tree before
    any clause is built takes seconds."""
    n = 24
    text = "A(x0)"
    for i in range(1, n + 1):
        text = f"({text}) <-> A(x{i})"
    block = ", ".join(f"x{i}" for i in range(n + 1))
    phi = parse_formula(sym, f"exists {block}. ({text})")
    with _wall_limit(1.0):
        with pytest.raises(ResourceLimit, match="exceeds 100 clauses while eliminating x0"):
            classify(phi, max_clauses=100)


def test_unique_table_holds_only_live_combinations(sym):
    """10,000 classifications in one process, each of a different random
    formula, leave the unique table as the first 100 left it: it holds a
    combination only while something else refers to it.  The collector is
    off throughout, so each call's combinations must die by reference
    counting as it returns."""
    import gc

    from featlog.qe import _UNIQUE

    rng = random.Random(41)
    phis = [random_quantified_formula(rng, sym, max_atoms=4) for _ in range(10000)]
    sizes = []
    gc.disable()
    try:
        for i, phi in enumerate(phis):
            classify(phi)
            if i + 1 in (100, len(phis)):
                sizes.append(len(_UNIQUE))
        assert sizes[0] == sizes[1]
        kept = [classify(phi) for phi in phis[:100]]
        assert len(_UNIQUE) > sizes[0] + 20
        del kept
        assert len(_UNIQUE) == sizes[0]
    finally:
        gc.enable()
