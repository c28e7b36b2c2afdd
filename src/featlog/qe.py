"""Quantifier elimination and the top-level decision procedure.

Every formula reduces to a Boolean combination of prime formulae with
the same free variables.  Atoms are already prime; connectives map
structurally; a universal quantifier becomes a negated existential; and
an existential quantifier is pushed through a disjunctive normal form
whose literals are primes, then eliminated clause by clause.

The elimination of ``exists x`` from a clause ``beta and not beta'``
hinges on jokers: proper path constraints outside the closure of beta
whose x-rooted path is free, meaning no prefix of it provably coincides
with a path rooted elsewhere.  A quantified x can always be moved to
falsify a joker without disturbing beta, so when the projection of
beta' contains one, the negation is vacuous and ``exists x beta``
remains.  Otherwise the needed x is pinned down and the clause is
equivalent to ``exists x beta and not exists x (beta and beta')``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import (
    And,
    Atomic,
    Bottom,
    Excl,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Symbols,
    Top,
    VarId,
    free_vars,
)
from .paths import (
    Agree,
    PathConstraint,
    RootedPath,
    SortAt,
    constraint_key,
    is_proper,
    prime_closure_contains,
)
from .prime import (
    PrimeFormula,
    TOP_PRIME,
    canonicalize,
    from_atom,
    mk_prime_exists,
    prime_conj,
    prime_to_formula,
)

DEFAULT_MAX_DNF_CLAUSES = 10000

VALID = "VALID"
INVALID = "INVALID"
SATISFIABLE = "SATISFIABLE"
UNSATISFIABLE = "UNSATISFIABLE"


class ResourceLimit(Exception):
    """Raised when normal-form computation exceeds the clause bound."""


# ---------------------------------------------------------------------------
# Boolean combinations of primes


@dataclass(frozen=True)
class PrimeLeaf:
    beta: PrimeFormula


@dataclass(frozen=True)
class BcNot:
    arg: "BoolComb"


@dataclass(frozen=True)
class BcAnd:
    args: tuple["BoolComb", ...]


@dataclass(frozen=True)
class BcOr:
    args: tuple["BoolComb", ...]


BoolComb = Union[PrimeLeaf, BcNot, BcAnd, BcOr]

BC_TRUE = PrimeLeaf(TOP_PRIME)
BC_FALSE = BcNot(BC_TRUE)


def bc_not(a: BoolComb) -> BoolComb:
    return a.arg if isinstance(a, BcNot) else BcNot(a)


def _bc_nary(node, args, unit, zero) -> BoolComb:
    flat: list[BoolComb] = []
    for a in args:
        if isinstance(a, node):
            flat.extend(a.args)
        else:
            flat.append(a)
    out: list[BoolComb] = []
    seen: set[BoolComb] = set()
    for a in flat:
        if a == unit:
            continue
        if a == zero:
            return zero
        if a in seen:
            continue
        if bc_not(a) in seen:
            return zero
        seen.add(a)
        out.append(a)
    if not out:
        return unit
    if len(out) == 1:
        return out[0]
    return node(tuple(out))


def bc_and(*args: BoolComb) -> BoolComb:
    return _bc_nary(BcAnd, args, BC_TRUE, BC_FALSE)


def bc_or(*args: BoolComb) -> BoolComb:
    return _bc_nary(BcOr, args, BC_FALSE, BC_TRUE)


def bc_free_vars(delta: BoolComb) -> set[VarId]:
    if isinstance(delta, PrimeLeaf):
        return set(delta.beta.free_vars)
    if isinstance(delta, BcNot):
        return bc_free_vars(delta.arg)
    out: set[VarId] = set()
    for a in delta.args:
        out |= bc_free_vars(a)
    return out


def bc_quantifier_free(delta: BoolComb) -> bool:
    """True: quantifiers occur only inside prime leaves."""
    if isinstance(delta, PrimeLeaf):
        return True
    if isinstance(delta, BcNot):
        return bc_quantifier_free(delta.arg)
    return all(bc_quantifier_free(a) for a in delta.args)


def boolcomb_to_formula(delta: BoolComb) -> Formula:
    if isinstance(delta, PrimeLeaf):
        return prime_to_formula(delta.beta)
    if isinstance(delta, BcNot):
        return Not(boolcomb_to_formula(delta.arg))
    parts = [boolcomb_to_formula(a) for a in delta.args]
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p) if isinstance(delta, BcAnd) else Or(out, p)
    return out


# ---------------------------------------------------------------------------
# Freeness and jokers


def is_free(beta: PrimeFormula, rp: RootedPath) -> bool:
    """Whether no realized prefix of the rooted path is provably shared.

    The rooted path x.p is unfree when some prefix p' reaches a node
    that is also reached from a different variable outside the bound
    set; such agreements survive in the closure of the prime formula and
    pin the node down independently of x.
    """
    x = rp.root
    if x in beta.bound:
        return True
    body = beta.body
    edges = body.edges
    adj: dict[VarId, list[VarId]] = {}
    for (src, _), dst in edges.items():
        adj.setdefault(src, []).append(dst)

    desc_memo: dict[VarId, set[VarId]] = {}

    def descendants(w: VarId) -> set[VarId]:
        # nodes reachable along one or more edges
        if w in desc_memo:
            return desc_memo[w]
        out: set[VarId] = set()
        stack = list(adj.get(w, ()))
        while stack:
            u = stack.pop()
            if u not in out:
                out.add(u)
                stack.extend(adj.get(u, ()))
        desc_memo[w] = out
        return out

    gvars = body.variables
    binding = body.binding

    def co_reached(z: VarId) -> bool:
        # is z also the target of y.q for some admissible y distinct from x?
        for y in gvars:
            if y == x or y in beta.bound:
                continue
            if y == z or binding.get(y) == z:
                return True
            if z in descendants(binding.get(y, y)):
                return True
        return False

    # prefix eps: both x and its binding are reached at the empty path
    for z in (x, binding.get(x)):
        if z is not None and co_reached(z):
            return False
    node = binding.get(x, x)
    for f in rp.path.feats:
        node = edges.get((node, f))
        if node is None:
            return True
        if co_reached(node):
            return False
    return True


def is_joker(beta: PrimeFormula, x: VarId, pi: PathConstraint) -> bool:
    """Whether the constraint lies outside the closure on a free x-path.

    Jokers are exactly the proper constraints a quantified x can always
    escape: their x-rooted side can be rerouted without touching the
    rest of the formula.
    """
    if not is_proper(pi):
        raise ValueError("jokers are defined for proper path constraints")
    if prime_closure_contains(beta, pi):
        return False
    if isinstance(pi, SortAt):
        return pi.src == x and is_free(beta, RootedPath(x, pi.path))
    assert isinstance(pi, Agree)
    if pi.lsrc == x and is_free(beta, RootedPath(x, pi.lpath)):
        return True
    return pi.rsrc == x and is_free(beta, RootedPath(x, pi.rpath))


# ---------------------------------------------------------------------------
# Clause elimination


def _leaf(sym: Symbols, beta: PrimeFormula) -> BoolComb:
    return PrimeLeaf(canonicalize(sym, beta))


def eliminate_neg(
    sym: Symbols, x: VarId, beta: PrimeFormula, beta2: PrimeFormula
) -> BoolComb:
    """Boolean combination equivalent to ``exists x (beta and not beta2)``.

    When the projection of beta2 contains an x-joker for beta the
    negation never constrains the choice of x, leaving ``exists x
    beta``.  Otherwise the clause splits into ``exists x beta`` minus
    ``exists x (beta and beta2)``; an inconsistent conjunction drops the
    subtracted part.
    """
    from .prime import projection

    lam = sorted(projection(beta2), key=constraint_key)
    if any(is_joker(beta, x, pi) for pi in lam):
        return _leaf(sym, mk_prime_exists(x, beta))
    quantified = _leaf(sym, mk_prime_exists(x, beta))
    both = prime_conj(sym, beta, beta2)
    if isinstance(both, Bottom):
        return quantified
    return bc_and(quantified, bc_not(_leaf(sym, mk_prime_exists(x, both))))


def eliminate_clause(
    sym: Symbols,
    x: VarId,
    positives: list[PrimeFormula],
    negatives: list[PrimeFormula],
) -> BoolComb:
    """Eliminate ``exists x`` from a conjunction of prime literals.

    The positive literals merge into a single prime (or the clause is
    unsatisfiable); with no negatives a single quantification remains,
    and otherwise the existential distributes over the negated literals
    one at a time.
    """
    beta = TOP_PRIME
    for b in positives:
        merged = prime_conj(sym, beta, b)
        if isinstance(merged, Bottom):
            return BC_FALSE
        beta = merged
    if not negatives:
        return _leaf(sym, mk_prime_exists(x, beta))
    return bc_and(*[eliminate_neg(sym, x, beta, b) for b in negatives])


def to_prime_dnf(
    delta: BoolComb, max_clauses: int = DEFAULT_MAX_DNF_CLAUSES
) -> list[tuple[list[PrimeFormula], list[PrimeFormula]]]:
    """Disjunctive normal form with primes as literals.

    Clauses containing complementary or trivially false literals are
    dropped, duplicate literals merge, and clause growth beyond the
    configured bound raises ResourceLimit.
    """
    def cross(
        left: list[tuple[dict, dict]], right: list[tuple[dict, dict]]
    ) -> list[tuple[dict, dict]]:
        out = []
        for lp, ln in left:
            for rp, rn in right:
                pos = dict(lp)
                pos.update(rp)
                neg = dict(ln)
                neg.update(rn)
                if set(pos) & set(neg):
                    continue
                out.append((pos, neg))
                if len(out) > max_clauses:
                    raise ResourceLimit(
                        f"disjunctive normal form exceeds {max_clauses} clauses"
                    )
        return out

    def go(node: BoolComb, negate: bool) -> list[tuple[dict, dict]]:
        if isinstance(node, PrimeLeaf):
            if node.beta.is_top():
                return [] if negate else [({}, {})]
            if negate:
                return [({}, {node.beta: None})]
            return [({node.beta: None}, {})]
        if isinstance(node, BcNot):
            return go(node.arg, not negate)
        distribute = isinstance(node, BcOr) != negate
        if distribute:
            out: list[tuple[dict, dict]] = []
            seen: set = set()
            for a in node.args:
                for clause in go(a, negate):
                    key = (frozenset(clause[0]), frozenset(clause[1]))
                    if key not in seen:
                        seen.add(key)
                        out.append(clause)
                if len(out) > max_clauses:
                    raise ResourceLimit(
                        f"disjunctive normal form exceeds {max_clauses} clauses"
                    )
            return out
        acc = [({}, {})]
        for a in node.args:
            acc = cross(acc, go(a, negate))
        return acc

    return [(list(pos), list(neg)) for pos, neg in go(delta, False)]


def _eliminate_exists(
    sym: Symbols, x: VarId, delta: BoolComb, max_clauses: int
) -> BoolComb:
    clauses = to_prime_dnf(delta, max_clauses)
    return bc_or(
        *[eliminate_clause(sym, x, pos, neg) for pos, neg in clauses]
    )


# ---------------------------------------------------------------------------
# The decision procedure


def decide(
    sym: Symbols, phi: Formula, max_clauses: int = DEFAULT_MAX_DNF_CLAUSES
) -> BoolComb:
    """Quantifier-free Boolean combination of primes equivalent to phi.

    Expects sugar-expanded input.  The result mentions no variable
    beyond the free variables of phi, and for closed phi it folds to a
    constant, true or its negation.
    """
    if isinstance(phi, Top):
        return BC_TRUE
    if isinstance(phi, Bottom):
        return BC_FALSE
    if isinstance(phi, Atomic):
        if isinstance(phi.atom, Excl):
            raise ValueError("expand sugar before deciding")
        return PrimeLeaf(canonicalize(sym, from_atom(phi.atom)))
    if isinstance(phi, Not):
        return bc_not(decide(sym, phi.body, max_clauses))
    if isinstance(phi, And):
        return bc_and(
            decide(sym, phi.lhs, max_clauses), decide(sym, phi.rhs, max_clauses)
        )
    if isinstance(phi, Or):
        return bc_or(
            decide(sym, phi.lhs, max_clauses), decide(sym, phi.rhs, max_clauses)
        )
    if isinstance(phi, Implies):
        return bc_or(
            bc_not(decide(sym, phi.lhs, max_clauses)),
            decide(sym, phi.rhs, max_clauses),
        )
    if isinstance(phi, Iff):
        lhs = decide(sym, phi.lhs, max_clauses)
        rhs = decide(sym, phi.rhs, max_clauses)
        return bc_or(bc_and(lhs, rhs), bc_and(bc_not(lhs), bc_not(rhs)))
    if isinstance(phi, Exists):
        inner = decide(sym, phi.body, max_clauses)
        return _eliminate_exists(sym, phi.var, inner, max_clauses)
    if isinstance(phi, Forall):
        inner = decide(sym, phi.body, max_clauses)
        return bc_not(_eliminate_exists(sym, phi.var, bc_not(inner), max_clauses))
    raise ValueError(f"cannot decide formula node {phi!r}; expand sugar first")


@dataclass(frozen=True)
class Verdict:
    """Outcome of classification.

    VALID and INVALID apply to closed formulae only; SATISFIABLE and
    UNSATISFIABLE report on the existential closure of open formulae,
    with the quantifier-free residue attached in the satisfiable case.
    """

    kind: str
    residue: BoolComb | None = None


def classify(
    sym: Symbols, phi: Formula, max_clauses: int = DEFAULT_MAX_DNF_CLAUSES
) -> Verdict:
    """Decide validity of closed input or satisfiability of open input."""
    from .textio import expand_sugar

    phi = expand_sugar(sym, phi)
    fv = sorted(free_vars(phi))
    delta = decide(sym, phi, max_clauses)
    if not fv:
        if delta == BC_TRUE:
            return Verdict(VALID)
        if delta == BC_FALSE:
            return Verdict(INVALID)
        raise AssertionError("closed input did not fold to a constant")
    closure = delta
    for v in fv:
        closure = _eliminate_exists(sym, v, closure, max_clauses)
    if closure == BC_FALSE:
        return Verdict(UNSATISFIABLE)
    return Verdict(SATISFIABLE, residue=delta)
