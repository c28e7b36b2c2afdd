import random

import pytest

from featlog import (
    Agree,
    And,
    Atomic,
    Bottom,
    FeatC,
    Iff,
    Not,
    Path,
    PrimeFormula,
    PrimeLeaf,
    ResourceLimit,
    RootedPath,
    SolvedFormula,
    SortAt,
    SortC,
    TOP_PRIME,
    boolcomb_to_formula,
    canonicalize,
    classify,
    decide,
    eliminate_clause,
    eliminate_neg,
    expand_sugar,
    free_vars,
    is_free,
    is_joker,
    parse_formula,
    prime_conj,
    simplify_epc,
    to_prime_dnf,
)
from featlog.core import EPS, conj, exists_all, forall_all
from featlog.prime import from_atom
from featlog.qe import (
    BC_FALSE,
    BC_TRUE,
    BcAnd,
    BcNot,
    BcOr,
    INVALID,
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    bc_and,
    bc_free_vars,
    bc_not,
    bc_or,
    bc_quantifier_free,
)

from generators import (
    pools,
    random_basic_formula,
    random_epc_formula,
    random_prime,
    random_quantified_formula,
)
from oracles import (
    bounded_evaluate,
    closure_classify,
    naive_is_free,
    naive_is_joker,
    split_blocks,
)
from test_solve import _wall_limit


def epc(sym, text):
    return simplify_epc(sym, expand_sugar(sym, parse_formula(sym, text)))


# --------------------------------------------------------------------------
# freeness


def test_is_free_examples(sym):
    x, y = sym.var("x"), sym.var("y")
    f, g = sym.feat("f"), sym.feat("g")
    beta = epc(sym, "f(x, y)")
    assert not is_free(beta, (y,), RootedPath(y, Path((g,))))
    assert is_free(beta, (x,), RootedPath(x, Path((g,))))
    z = sym.var("zfree")
    assert is_free(beta, (z,), RootedPath(z, Path((f, g))))
    assert is_free(beta, (z,), RootedPath(z, EPS))


def test_variables_in_the_normalizer_are_never_free_roots(sym):
    beta = epc(sym, "x = y & A(y)")
    x = sym.var("x")
    assert not is_free(beta, (x,), RootedPath(x, EPS))


def test_is_free_agrees_with_naive_oracle(sym):
    """Blocks of one to three variables, the root among them."""
    rng = random.Random(20)
    _, feats, vs = pools(sym)
    extra = sym.var("outside")
    for _ in range(300):
        beta = random_prime(rng, sym, max_atoms=6)
        for _ in range(8):
            root = rng.choice(vs + [extra])
            others = [v for v in vs if v != root]
            xs = (root, *rng.sample(others, rng.randint(0, 2)))
            p = Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 3))))
            rp = RootedPath(root, p)
            assert is_free(beta, xs, rp) == naive_is_free(beta, xs, rp)


# --------------------------------------------------------------------------
# jokers


def test_is_joker_examples(sym):
    A, B = sym.sort("A"), sym.sort("B")
    f, g = sym.feat("f"), sym.feat("g")
    x = sym.var("x")
    beta = epc(sym, "f(x, y) & A(y)")
    assert is_joker(beta, (x,), SortAt(B, x, Path((g,))))
    assert not is_joker(beta, (x,), SortAt(A, x, Path((f,))))  # already entailed
    assert not is_joker(beta, (x,), SortAt(B, x, Path((f,))))  # f lands on y


def test_is_joker_rejects_reach_constraints(sym):
    x = sym.var("x")
    from featlog import Reach

    with pytest.raises(ValueError):
        is_joker(TOP_PRIME, (x,), Reach(x, EPS, x))


def test_is_joker_agrees_with_naive_oracle(sym):
    """Blocks of one to three variables."""
    rng = random.Random(21)
    sorts, feats, vs = pools(sym)
    jokers = 0
    for _ in range(250):
        beta = random_prime(rng, sym, max_atoms=6)
        xs = tuple(rng.sample(vs, rng.randint(1, 3)))
        for _ in range(6):
            if rng.random() < 0.5:
                pi = SortAt(
                    rng.choice(sorts),
                    rng.choice(vs),
                    Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 2)))),
                )
            else:
                pi = Agree(
                    rng.choice(vs),
                    Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 2)))),
                    rng.choice(vs),
                    Path(tuple(rng.choice(feats) for _ in range(rng.randint(0, 2)))),
                )
            got = is_joker(beta, xs, pi)
            assert got == naive_is_joker(beta, xs, pi)
            jokers += got
    assert jokers > 100


def test_jokers_for_a_block(sym):
    """A path rooted in the block is free when only variables of the
    block reach it: A(y) is a joker for f(x, y) once x is quantified
    together with y, so the negation drops out."""
    A = sym.sort("A")
    x, y = sym.var("x"), sym.var("y")
    beta = epc(sym, "f(x, y)")
    assert not is_free(beta, (y,), RootedPath(y, EPS))
    assert is_free(beta, (x, y), RootedPath(y, EPS))
    assert not is_joker(beta, (y,), SortAt(A, y, EPS))
    assert is_joker(beta, (x, y), SortAt(A, y, EPS))
    beta2 = epc(sym, "A(y)")
    assert eliminate_clause(sym, (y,), [beta], [beta2]) == bc_and(
        PrimeLeaf(epc(sym, "exists y. f(x, y)")),
        bc_not(PrimeLeaf(epc(sym, "exists y. (f(x, y) & A(y))"))),
    )
    assert eliminate_clause(sym, (x, y), [beta], [beta2]) == BC_TRUE


def test_joker_insensitivity_to_updates(sym):
    """Non-jokers keep their truth value across x-updates preserving beta."""
    from featlog import holds_path_constraint, satisfies_prime, witness_prime
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
    got = eliminate_neg(sym, (x,), TOP_PRIME, epc(sym, "A(x)"))
    assert got == BC_TRUE


def test_eliminate_neg_no_joker_case(sym):
    x, y = sym.var("x"), sym.var("y")
    beta = epc(sym, "A(y)")
    beta2 = epc(sym, "B(y)")
    got = eliminate_neg(sym, (x,), beta, beta2)
    assert got == PrimeLeaf(canonicalize(sym, beta))


def test_eliminate_neg_against_top_is_false(sym):
    x = sym.var("x")
    beta = epc(sym, "A(y)")
    assert eliminate_neg(sym, (x,), beta, TOP_PRIME) == BC_FALSE


def test_eliminate_clause_examples(sym):
    x, y = sym.var("x"), sym.var("y")
    got = eliminate_clause(sym, (x,), [epc(sym, "f(x, y)")], [])
    assert got == BC_TRUE
    got = eliminate_clause(sym, (x,), [epc(sym, "A(x)"), epc(sym, "B(x)")], [epc(sym, "C(y)")])
    assert got == BC_FALSE
    got = eliminate_clause(sym, (x,), [], [epc(sym, "A(x)")])
    assert got == BC_TRUE


def test_eliminate_clause_merges_positives_once(sym, monkeypatch):
    import featlog.qe

    calls = []
    conj = featlog.qe.prime_conj
    monkeypatch.setattr(
        featlog.qe, "prime_conj", lambda sym, *ps: calls.append(len(ps)) or conj(sym, *ps)
    )
    positives = [epc(sym, t) for t in ("f(x, y)", "A(y)", "g(y, z)", "exists u. h(z, u)")]
    got = eliminate_clause(sym, (sym.var("y"),), positives, [])
    assert calls == [4]
    want = epc(sym, "exists y, u. (f(x, y) & A(y) & g(y, z) & h(z, u))")
    assert got == PrimeLeaf(canonicalize(sym, want))


def test_to_prime_dnf_examples(sym):
    b1 = PrimeLeaf(epc(sym, "A(x)"))
    b2 = PrimeLeaf(epc(sym, "B(x)"))
    b3 = PrimeLeaf(epc(sym, "C(y)"))
    assert to_prime_dnf(b1) == [([b1.beta], [])]
    assert to_prime_dnf(BcNot((b1,)[0])) == [([], [b1.beta])]
    got = to_prime_dnf(bc_and(bc_or(b1, b2), bc_not(b3)))
    assert got == [([b1.beta], [b3.beta]), ([b2.beta], [b3.beta])]


def test_to_prime_dnf_drops_contradictory_clauses(sym):
    b1 = PrimeLeaf(epc(sym, "A(x)"))
    delta = BcAnd((b1, BcNot(b1)))
    assert to_prime_dnf(delta) == []


def test_to_prime_dnf_resource_limit(sym):
    leaves = [PrimeLeaf(epc(sym, f"f(x{i}, y{i})")) for i in range(8)]
    delta = bc_and(*[bc_or(l, BcNot(l2)) for l in leaves for l2 in leaves if l != l2])
    with pytest.raises(ResourceLimit):
        to_prime_dnf(delta, max_clauses=10)


def test_to_prime_dnf_is_linear_in_conjunction_width(sym):
    """A 20,000-literal conjunction, half of it negated, is one clause;
    each conjunct extends it in place instead of copying it.  Linear
    work takes a few hundredths of a second, a copy per conjunct several
    seconds."""
    A = sym.sort("A")
    leaves = [PrimeLeaf(from_atom(SortC(A, sym.var(f"x{i}")))) for i in range(20000)]
    delta = bc_and(*[bc_not(leaf) if i % 2 else leaf for i, leaf in enumerate(leaves)])
    with _wall_limit(2.0):
        got = to_prime_dnf(delta)
    assert got == [([l.beta for l in leaves[0::2]], [l.beta for l in leaves[1::2]])]


def test_smart_constructors_fold(sym):
    a = PrimeLeaf(epc(sym, "A(x)"))
    assert bc_not(bc_not(a)) == a
    assert bc_and(a, BC_TRUE) == a
    assert bc_and(a, BC_FALSE) == BC_FALSE
    assert bc_or(a, BC_TRUE) == BC_TRUE
    assert bc_and(a, bc_not(a)) == BC_FALSE
    assert bc_or(a, bc_not(a)) == BC_TRUE
    assert bc_and(a, a) == a


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
        phi = expand_sugar(sym, parse_formula(sym, text))
        assert decide(sym, phi) == BC_TRUE, text
    phi = expand_sugar(sym, parse_formula(sym, "exists x. (A(x) & B(x))"))
    assert decide(sym, phi) == BC_FALSE


def test_decide_output_shape(sym):
    rng = random.Random(23)
    for _ in range(100):
        phi = expand_sugar(sym, random_quantified_formula(rng, sym))
        delta = decide(sym, phi)
        assert bc_quantifier_free(delta)
        assert bc_free_vars(delta) <= free_vars(phi)


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
        assert classify(sym, parse_formula(sym, text)).kind == want, text


def test_classify_examples(sym):
    assert classify(sym, parse_formula(sym, "true")).kind == VALID
    assert classify(sym, parse_formula(sym, "A(x) & B(x)")).kind == UNSATISFIABLE
    verdict = classify(sym, parse_formula(sym, "A(x)"))
    assert verdict.kind == SATISFIABLE
    assert boolcomb_to_formula(verdict.residue) == parse_formula(sym, "A(x)")


def test_classify_handles_sugar(sym):
    assert classify(sym, parse_formula(sym, "undef(x, f) & f(x, y)")).kind == UNSATISFIABLE


def test_closed_inputs_always_fold(sym):
    rng = random.Random(24)
    folded = 0
    for _ in range(150):
        phi = random_quantified_formula(rng, sym, max_atoms=6, max_quants=3)
        fv = sorted(free_vars(phi))
        closed = forall_all(fv, phi)
        verdict = classify(sym, closed)
        assert verdict.kind in (VALID, INVALID)
        flipped = classify(sym, Not(closed))
        assert (verdict.kind == VALID) == (flipped.kind == INVALID)
        folded += 1
    assert folded == 150


def test_decide_equivalence_via_classify(sym):
    rng = random.Random(25)
    for _ in range(60):
        phi = expand_sugar(sym, random_quantified_formula(rng, sym))
        delta = decide(sym, phi)
        back = boolcomb_to_formula(delta)
        equal = forall_all(sorted(free_vars(phi)), Iff(phi, back))
        assert classify(sym, equal).kind == VALID


def test_decide_handles_shadowed_binders(sym):
    from featlog import Exists

    phi = parse_formula(sym, "A(x) & exists x. B(x)")
    verdict = classify(sym, phi)
    assert verdict.kind == SATISFIABLE
    # the inner binder is resolved before the outer variable matters
    assert boolcomb_to_formula(verdict.residue) == parse_formula(sym, "A(x)")
    inner_unsat = parse_formula(sym, "A(x) & exists x. (A(x) & B(x))")
    assert classify(sym, inner_unsat).kind == UNSATISFIABLE


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
            want = closure_classify(sym, phi)
        except ResourceLimit:
            continue
        got = classify(sym, phi).kind
        assert got == want, phi
        compared += 1
        unsat += got == UNSATISFIABLE
    assert unsat > 50


def test_block_elimination_agrees_with_nested_one_variable_blocks(sym):
    """Eliminating a block at once and one variable at a time give one
    verdict, and the same residue on open input.

    Each random formula goes under an ``exists``/``forall`` block of two
    or more of its free variables, and ``split_blocks`` writes every
    block as nested one-variable blocks.  Inputs on which either side
    crosses the clause bound are skipped.
    """
    rng = random.Random(30)
    compared = closed = 0
    while compared < 2000:
        phi = random_quantified_formula(rng, sym, max_atoms=rng.choice((6, 12)))
        fv = sorted(free_vars(phi))
        if len(fv) < 2:
            continue
        block = rng.sample(fv, rng.randint(2, len(fv)))
        phi = rng.choice((exists_all, forall_all))(block, phi)
        try:
            want = classify(sym, split_blocks(phi))
            got = classify(sym, phi)
        except ResourceLimit:
            continue
        assert got == want, phi
        compared += 1
        closed += got.kind in (VALID, INVALID)
    assert closed > 200


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
        got = classify(sym, phi).kind
        assert got == closure_classify(sym, phi), phi
        consistent = not isinstance(simplify_epc(sym, beta), Bottom)
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
        phi = expand_sugar(sym, phi)
        fv = sorted(free_vars(phi))
        closed = forall_all(fv, phi)
        brute = bounded_evaluate(sym, "tree", {}, closed, node_bound=2, budget=4000)
        if brute is not None:
            verdict = classify(sym, closed)
            assert verdict.kind == (VALID if brute else INVALID), closed
            definite[verdict.kind] += 1
        some = exists_all(fv, phi)
        brute = bounded_evaluate(sym, "tree", {}, some, node_bound=2, budget=4000)
        if brute is not None and fv:
            verdict = classify(sym, phi)
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
        verdict = classify(sym, phi)
        beta = simplify_epc(sym, expand_sugar(sym, phi))
        if verdict.kind == VALID:
            assert isinstance(beta, PrimeFormula)
            alpha = witness_prime(beta, default)
            assert satisfies_prime(alpha, beta)
            seen_sat += 1
        else:
            assert verdict.kind == INVALID
            assert isinstance(beta, Bottom)
    assert seen_sat > 20
