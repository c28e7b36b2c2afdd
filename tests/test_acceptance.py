"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every tolerance is exact; the only numeric bounds are the
stated wall-clock budgets.
"""

import random
import string
import time
from contextlib import contextmanager

from featlog import (
    Agree,
    Bottom,
    Iff,
    Not,
    Path,
    PrimeFormula,
    SortAt,
    basic_simplify,
    boolcomb_to_formula,
    canonicalize,
    classify,
    closure_contains,
    decide,
    expand_sugar,
    formula_to_basic,
    free_vars,
    parse_formula,
    prime_closure_contains,
    prime_conj,
    prime_entails,
    projection,
    satisfies_prime,
    simplify_epc,
    single_node_tree,
    solved_to_formula,
    targets,
    witness_prime,
)
from featlog.core import EPS, Atomic, conj, exists_all, forall_all
from featlog.qe import INVALID, SATISFIABLE, UNSATISFIABLE, VALID, bc_free_vars, bc_quantifier_free
from featlog.solve import clause_to_formula, constrained_vars, parameters

from generators import (
    random_basic_formula,
    random_epc_formula,
    random_prime,
    random_quantified_formula,
    random_solved_clause,
    random_solved_formula,
    random_valuation,
)
from oracles import NaiveClosure, bounded_evaluate, simplification_rule_applies


@contextmanager
def criterion(number: int, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS in {time.monotonic() - start:.2f}s")


def _random_name(rng: random.Random, upper: bool) -> str:
    first = rng.choice(string.ascii_uppercase if upper else string.ascii_lowercase)
    rest = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
    return first + rest


def test_criterion_1_golden_closed_formulae(sym):
    with criterion(1, "golden closed formulae"):
        start = time.monotonic()
        rng = random.Random(101)
        valid_texts = [
            "exists x, y, z. (f(x,y) & A(y) & g(x,z) & B(z))",
            "forall u, z. exists x, y. (f(x,y) & g(y,u) & h(y,z) & undef(y,f))",
            "forall z. exists x, y. (f(x,y) & g(y,x) & h(y,z) & undef(y,f))",
        ]
        for _ in range(20):
            f = _random_name(rng, upper=False)
            valid_texts.append(
                f"forall x, y, z. ({f}(x,y) & {f}(x,z) -> y = z)"
            )
        seen_pairs = set()
        while len(seen_pairs) < 20:
            a, b = _random_name(rng, True), _random_name(rng, True)
            if a != b and (a, b) not in seen_pairs:
                seen_pairs.add((a, b))
                valid_texts.append(f"forall x. ({a}(x) & {b}(x) -> false)")
        for text in valid_texts:
            phi = parse_formula(sym, text)
            assert classify(sym, phi).kind == VALID, text
            assert classify(sym, Not(phi)).kind == INVALID, text
        clash = parse_formula(sym, "exists x. (A(x) & B(x))")
        assert classify(sym, clash).kind == INVALID
        assert classify(sym, Not(clash)).kind == VALID
        assert time.monotonic() - start < 1.0


def test_criterion_2_solved_clause_satisfiability_at_scale(sym):
    with criterion(2, "closed solved-clause instances"):
        start = time.monotonic()
        rng = random.Random(102)
        with_excl = 0
        with_cycle = 0
        for _ in range(200):
            delta = random_solved_clause(rng, sym, max_vars=8)
            with_excl += bool(delta.exclusions)
            adj = {}
            for (s, _f), d in delta.edges.items():
                adj.setdefault(s, []).append(d)

            def cyclic() -> bool:
                for start in adj:
                    stack, seen = list(adj[start]), set()
                    while stack:
                        u = stack.pop()
                        if u == start:
                            return True
                        if u not in seen:
                            seen.add(u)
                            stack.extend(adj.get(u, ()))
                return False

            with_cycle += cyclic()
            cv = sorted(constrained_vars(delta))
            params = sorted(parameters(delta))
            phi = forall_all(
                params, exists_all(cv, conj(Atomic(a) for a in delta.atoms))
            )
            verdict = classify(sym, expand_sugar(sym, phi))
            assert verdict.kind == VALID, clause_to_formula(delta)
        assert with_excl > 50 and with_cycle > 50
        assert time.monotonic() - start < 60.0


def test_criterion_3_solved_form_suite(sym):
    with criterion(3, "basic simplification suite"):
        rng = random.Random(103)
        non_bottom = 0
        for _ in range(500):
            basic = random_basic_formula(
                rng, sym, max_atoms=12, n_vars=6, n_sorts=3, n_feats=3
            )
            solved = basic_simplify(basic)
            if isinstance(solved, Bottom):
                continue
            non_bottom += 1
            assert not simplification_rule_applies(solved.atoms)
            assert solved.variables <= basic.variables
            phi_in = conj(Atomic(a) for a in basic.atoms)
            phi_out = solved_to_formula(solved)
            for _ in range(20):
                alpha = random_valuation(rng, sym, basic.variables, "graph")
                assert bounded_evaluate(sym, "graph", alpha, phi_in) == bounded_evaluate(
                    sym, "graph", alpha, phi_out
                )
        assert non_bottom > 250


def test_criterion_4_closure_oracle_agreement(sym):
    with criterion(4, "closure vs naive fixpoint"):
        rng = random.Random(104)
        feats = [sym.feat(n) for n in "fgh"]
        sorts = [sym.sort(n) for n in "ABC"]
        L = 6
        paths = [EPS]
        frontier = [EPS]
        for _ in range(L):
            frontier = [p.append(f) for p in frontier for f in feats]
            paths.extend(frontier)
        for _ in range(200):
            solved = random_solved_formula(rng, sym)
            vs = sorted(solved.variables)
            if not vs:
                continue
            clos = NaiveClosure(solved, L)
            # Reachability agreement on every rooted path up to length 6.
            # Agreement constraints are intersections of these target
            # sets on both sides, so equal maps settle every agreement
            # of the same length; sampled direct calls exercise the
            # actual membership entry points as well.
            tmap = {}
            for x in vs:
                for p in paths:
                    got = targets(solved, x, p)
                    assert got == frozenset(clos.targets(x, p)), (x, p)
                    tmap[(x, p)] = got
            for x in vs:
                for p in paths:
                    got_sorts = {solved.sorts.get(z) for z in tmap[(x, p)]}
                    for s in sorts:
                        want = any(
                            clos.sorts.get(z) == s for z in clos.targets(x, p)
                        )
                        assert closure_contains(solved, SortAt(s, x, p)) == want
                        assert want == (s in got_sorts)
            for _ in range(120):
                pi = Agree(
                    rng.choice(vs),
                    rng.choice(paths),
                    rng.choice(vs),
                    rng.choice(paths),
                )
                assert closure_contains(solved, pi) == clos.contains(pi)


def test_criterion_5_entailment_properties(sym):
    with criterion(5, "entailment properties"):
        rng = random.Random(105)
        from featlog import TOP_PRIME

        for _ in range(100):
            beta = random_prime(rng, sym)
            assert prime_entails(beta, beta)
            assert prime_entails(beta, TOP_PRIME)
        transitive_chains = 0
        for _ in range(100):
            b3 = random_prime(rng, sym, max_atoms=4)
            mid = prime_conj(sym, b3, random_prime(rng, sym, max_atoms=3))
            if isinstance(mid, Bottom):
                continue
            b2 = canonicalize(sym, mid)
            top = prime_conj(sym, b2, random_prime(rng, sym, max_atoms=3))
            if isinstance(top, Bottom):
                continue
            b1 = canonicalize(sym, top)
            assert prime_entails(b1, b2) and prime_entails(b2, b3)
            assert prime_entails(b1, b3)
            transitive_chains += 1
        assert transitive_chains > 40
        # the procedural two-way reading: entailment holds exactly when
        # every projection member of the right side is certified
        for _ in range(100):
            b1 = random_prime(rng, sym, max_atoms=5)
            b2 = random_prime(rng, sym, max_atoms=5)
            certified = all(
                prime_closure_contains(b1, pi) for pi in projection(b2)
            )
            assert prime_entails(b1, b2) == certified


def test_criterion_6_witness_soundness(sym):
    with criterion(6, "witness soundness"):
        rng = random.Random(106)
        default = sym.fresh_sort("Dflt")
        satisfiable = 0
        for _ in range(200):
            phi = random_epc_formula(rng, sym)
            verdict = classify(sym, phi)
            if verdict.kind in (INVALID, UNSATISFIABLE):
                continue
            satisfiable += 1
            # strip the existential prefix down to the matrix
            matrix = phi
            while hasattr(matrix, "vars"):
                matrix = matrix.body
            solved = basic_simplify(formula_to_basic(matrix))
            assert not isinstance(solved, Bottom)
            alpha = witness_prime(PrimeFormula(frozenset(), solved), default)
            for v in free_vars(matrix):
                # variables erased by reflexive equations are unconstrained
                alpha.setdefault(v, single_node_tree(default))
            assert bounded_evaluate(sym, "tree", alpha, matrix) is True
            # and the quantified solved form is witnessed as well
            beta = simplify_epc(sym, phi)
            assert isinstance(beta, PrimeFormula)
            assert satisfies_prime(witness_prime(beta, default), beta)
        assert satisfiable > 100


def test_criterion_7_quantifier_elimination_contracts(sym):
    with criterion(7, "quantifier elimination contracts"):
        start = time.monotonic()
        rng = random.Random(107)
        for _ in range(100):
            phi = expand_sugar(
                sym, random_quantified_formula(rng, sym, max_atoms=10, max_quants=3)
            )
            delta = decide(sym, phi)
            assert bc_quantifier_free(delta)
            assert bc_free_vars(delta) <= free_vars(phi)
            back = boolcomb_to_formula(delta)
            closed = forall_all(sorted(free_vars(phi)), Iff(phi, back))
            assert classify(sym, closed).kind == VALID
        assert time.monotonic() - start < 120.0


def test_criterion_8_negative_soundness_spot_check(sym):
    with criterion(8, "bounded-model check of invalid existentials"):
        rng = random.Random(108)
        found = 0
        attempts = 0
        while found < 50 and attempts < 1000:
            attempts += 1
            phi = random_epc_formula(rng, sym, max_atoms=8, quantify_all=True)
            if classify(sym, phi).kind != INVALID:
                continue
            found += 1
            result = bounded_evaluate(sym, "tree", {}, phi, node_bound=4, budget=2000)
            assert result is not True
        assert found == 50
