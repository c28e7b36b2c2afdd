"""Quantifier elimination and the top-level decision procedure.

Every formula reduces to a Boolean combination of prime formulae with
the same free variables.  Atoms are already prime; connectives map
structurally; a universal block becomes a negated existential one; and
an existential block ``exists X`` is pushed through one disjunctive
normal form whose literals are primes, then eliminated clause by
clause, the whole block at once.

The elimination of ``exists X`` from a clause ``beta and not beta'``
hinges on X-jokers: proper path constraints outside the closure of beta
with a free path rooted in X, meaning no prefix of it provably
coincides with a path rooted outside X.  The quantified variables can
always be moved to falsify a joker without disturbing beta, so when the
projection of beta' contains one, the negation is vacuous and
``exists X beta`` remains.  Otherwise what beta' asks of X is pinned
down and the clause is equivalent to
``exists X beta and not exists X (beta and beta')``.

Open input needs no elimination of its free variables: because sorts
and features are unbounded, a clause of prime literals is satisfiable
exactly when its positives are consistent and entail none of its
negatives, so one search over the clauses of the residue decides the
existential closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence, Union

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
    is_proper,
    prime_closure_contains,
)
from .prime import (
    PrimeFormula,
    TOP_PRIME,
    adjacency,
    from_atom,
    mk_prime_exists,
    prime_conj,
    prime_entails,
    prime_to_formula,
    projection,
)
from .textio import expand_sugar

DEFAULT_MAX_DNF_CLAUSES = 10000

VALID = "VALID"
INVALID = "INVALID"
SATISFIABLE = "SATISFIABLE"
UNSATISFIABLE = "UNSATISFIABLE"


class ResourceLimit(Exception):
    """Raised when a normal form or a clause search exceeds the clause bound."""


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
    node = And if isinstance(delta, BcAnd) else Or
    return node(tuple(boolcomb_to_formula(a) for a in delta.args))


# ---------------------------------------------------------------------------
# Freeness and jokers


def is_free(beta: PrimeFormula, xs: Collection[VarId], rp: RootedPath) -> bool:
    """Whether no realized prefix of the rooted path is provably shared.

    The rooted path x.p, x in the block xs, is unfree when some prefix
    p' reaches a node that is also reached from a variable outside both
    the block and the bound set; such agreements survive in the closure
    of the prime formula and pin the node down independently of the
    block.  One search collects every such node: each admissible
    variable, its binding, and everything reachable from the binding.
    """
    x = rp.root
    if x in beta.bound:
        return True
    block = frozenset(xs)
    body = beta.body
    edges = body.edges
    binding = body.binding
    adj = adjacency(edges)
    admissible = [y for y in body.variables if y not in block and y not in beta.bound]
    reached: set[VarId] = set()
    stack = [binding.get(y, y) for y in admissible]
    while stack:
        u = stack.pop()
        if u not in reached:
            reached.add(u)
            stack.extend(w for _f, w in adj.get(u, ()))
    shared = reached.union(admissible)
    # prefix eps: both x and its binding are reached at the empty path
    if x in shared or binding.get(x) in shared:
        return False
    node = binding.get(x, x)
    for f in rp.path.feats:
        node = edges.get((node, f))
        if node is None:
            return True
        if node in shared:
            return False
    return True


def is_joker(beta: PrimeFormula, xs: Collection[VarId], pi: PathConstraint) -> bool:
    """Whether the constraint lies outside the closure on a free path
    rooted in the block xs.

    Jokers are exactly the proper constraints a quantified block can
    always escape: their side rooted in the block can be rerouted
    without touching the rest of the formula.
    """
    if not is_proper(pi):
        raise ValueError("jokers are defined for proper path constraints")
    if prime_closure_contains(beta, pi):
        return False
    if isinstance(pi, SortAt):
        return pi.src in xs and is_free(beta, xs, RootedPath(pi.src, pi.path))
    assert isinstance(pi, Agree)
    if pi.lsrc in xs and is_free(beta, xs, RootedPath(pi.lsrc, pi.lpath)):
        return True
    return pi.rsrc in xs and is_free(beta, xs, RootedPath(pi.rsrc, pi.rpath))


# ---------------------------------------------------------------------------
# Clause elimination


def eliminate_neg(
    sym: Symbols, xs: Collection[VarId], beta: PrimeFormula, beta2: PrimeFormula
) -> BoolComb:
    """Boolean combination equivalent to ``exists xs (beta and not beta2)``:
    the clause of one positive and one negative literal."""
    return eliminate_clause(sym, xs, [beta], [beta2])


def eliminate_clause(
    sym: Symbols,
    xs: Collection[VarId],
    positives: list[PrimeFormula],
    negatives: list[PrimeFormula],
) -> BoolComb:
    """Eliminate the block ``exists xs`` from a conjunction of prime literals.

    The positive literals merge into a single prime beta in one
    conjunction (or the clause is unsatisfiable), and ``exists xs beta``
    is built once, by one requantification.  A negated beta' whose
    projection contains a joker for the block never constrains the
    choice of its variables and drops out; so does one inconsistent
    with beta.  Every other one subtracts ``exists xs (beta and beta')``,
    again one requantification.
    """
    block = frozenset(xs)
    beta = prime_conj(sym, *positives)
    if isinstance(beta, Bottom):
        return BC_FALSE
    subtracted: list[BoolComb] = []
    for beta2 in negatives:
        if any(is_joker(beta, block, pi) for pi in projection(beta2)):
            continue
        both = prime_conj(sym, beta, beta2)
        if not isinstance(both, Bottom):
            subtracted.append(bc_not(PrimeLeaf(mk_prime_exists(block, both))))
    return bc_and(PrimeLeaf(mk_prime_exists(block, beta)), *subtracted)


def to_prime_dnf(
    delta: BoolComb,
    max_clauses: int = DEFAULT_MAX_DNF_CLAUSES,
    xs: Sequence[VarId] = (),
) -> list[tuple[list[PrimeFormula], list[PrimeFormula]]]:
    """Disjunctive normal form with primes as literals.

    Clauses containing complementary or trivially false literals are
    dropped, duplicate literals merge, and clause growth beyond the
    configured bound raises ResourceLimit, naming the block ``xs`` being
    eliminated, in prefix order, when one is given.  A conjunction
    costs time linear in its width: a conjunct with a single clause
    extends the accumulated clauses in place, checking only its own
    literals against them.
    """
    limit = f"disjunctive normal form exceeds {max_clauses} clauses"
    if xs:
        limit += f" while eliminating {', '.join(map(str, xs))}"

    def clash(pos: dict, neg: dict, rp: dict, rn: dict) -> bool:
        # each clause is free of complementary literals on its own; a
        # view iterates the smaller side
        return not (
            rp.keys().isdisjoint(neg.keys()) and rn.keys().isdisjoint(pos.keys())
        )

    def cross(
        left: list[tuple[dict, dict]], right: list[tuple[dict, dict]]
    ) -> list[tuple[dict, dict]]:
        if len(right) == 1:
            # the accumulator owns its clauses: extend them in place
            rp, rn = right[0]
            out = [(lp, ln) for lp, ln in left if not clash(lp, ln, rp, rn)]
            if len(out) > max_clauses:
                raise ResourceLimit(limit)
            for lp, ln in out:
                lp.update(rp)
                ln.update(rn)
            return out
        out = []
        for lp, ln in left:
            for rp, rn in right:
                if clash(lp, ln, rp, rn):
                    continue
                out.append(({**lp, **rp}, {**ln, **rn}))
                if len(out) > max_clauses:
                    raise ResourceLimit(limit)
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
                    raise ResourceLimit(limit)
            return out
        acc = [({}, {})]
        for a in node.args:
            acc = cross(acc, go(a, negate))
        return acc

    return [(list(pos), list(neg)) for pos, neg in go(delta, False)]


def _eliminate_exists(
    sym: Symbols, xs: tuple[VarId, ...], delta: BoolComb, max_clauses: int
) -> BoolComb:
    clauses = to_prime_dnf(delta, max_clauses, xs)
    block = frozenset(xs)
    return bc_or(
        *[eliminate_clause(sym, block, pos, neg) for pos, neg in clauses]
    )


# ---------------------------------------------------------------------------
# Satisfiability by clause search


def _clause_satisfiable(
    sym: Symbols, positives: Iterable[PrimeFormula], negatives: Iterable[PrimeFormula]
) -> bool:
    """Independence: a clause of prime literals is satisfiable exactly
    when its positives are consistent and entail none of its negatives."""
    beta = prime_conj(sym, *positives)
    if isinstance(beta, Bottom):
        return False
    return not any(prime_entails(beta, b) for b in negatives)


def _is_literal(delta: BoolComb) -> bool:
    return isinstance(delta, PrimeLeaf) or (
        isinstance(delta, BcNot) and isinstance(delta.arg, PrimeLeaf)
    )


def satisfiable(
    sym: Symbols, delta: BoolComb, max_clauses: int = DEFAULT_MAX_DNF_CLAUSES
) -> bool:
    """Whether the existential closure of a Boolean combination of primes holds.

    The clauses of the prime DNF are visited one at a time, depth first,
    and the search stops at the first satisfiable one.  A branch keeps a
    stack of pending ``(node, negated)`` items: a conjunctive node pushes
    its arguments, a disjunctive node continues with its first argument
    and leaves the others as choice points, and a complementary literal
    or a false leaf closes the branch.  The literals asserted on a branch
    sit on a trail, so backtracking to a choice point pops them.  Nothing
    recurses, and starting more than ``max_clauses`` branches raises
    ResourceLimit.  A conjunctive node with an argument that is not a
    literal first checks its literal arguments, which every clause below
    it shares, together with the literals on the branch, so a clash
    among them closes the branch before it splits.
    """
    # a linked stack ((node, negated), rest): a choice point shares the
    # tail it resumes from instead of copying it
    pending: tuple | None = ((delta, False), None)
    literals: tuple[dict, dict] = ({}, {})  # positives, negatives
    trail: list[tuple[dict, PrimeFormula]] = []
    choices: list[tuple[tuple, int]] = []
    branches = 1
    while True:
        closed = False
        while pending is not None:
            (node, negated), pending = pending
            if isinstance(node, BcNot):
                pending = ((node.arg, not negated), pending)
            elif isinstance(node, PrimeLeaf):
                beta = node.beta
                if beta.is_top():
                    if negated:
                        closed = True
                        break
                    continue
                own, other = literals[negated], literals[not negated]
                if beta in other:
                    closed = True
                    break
                if beta not in own:
                    own[beta] = None
                    trail.append((own, beta))
            elif isinstance(node, BcOr) != negated:
                for a in reversed(node.args[1:]):
                    choices.append((((a, negated), pending), len(trail)))
                pending = ((node.args[0], negated), pending)
            else:
                if not all(map(_is_literal, node.args)):
                    shared = (list(literals[0]), list(literals[1]))
                    for a in node.args:
                        if isinstance(a, PrimeLeaf):
                            shared[negated].append(a.beta)
                        elif _is_literal(a):
                            shared[not negated].append(a.arg.beta)
                    if not _clause_satisfiable(sym, *shared):
                        closed = True
                        break
                for a in reversed(node.args):
                    pending = ((a, negated), pending)
        if not closed and _clause_satisfiable(sym, *literals):
            return True
        if not choices:
            return False
        branches += 1
        if branches > max_clauses:
            raise ResourceLimit(f"search exceeds {max_clauses} branches")
        pending, mark = choices.pop()
        while len(trail) > mark:
            own, beta = trail.pop()
            del own[beta]


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
        return PrimeLeaf(from_atom(phi.atom))
    if isinstance(phi, Not):
        return bc_not(decide(sym, phi.body, max_clauses))
    if isinstance(phi, (And, Or)):
        combine = bc_and if isinstance(phi, And) else bc_or
        return combine(*[decide(sym, arg, max_clauses) for arg in phi.args])
    if isinstance(phi, Implies):
        return bc_or(
            bc_not(decide(sym, phi.lhs, max_clauses)),
            decide(sym, phi.rhs, max_clauses),
        )
    if isinstance(phi, Iff):
        lhs = decide(sym, phi.lhs, max_clauses)
        rhs = decide(sym, phi.rhs, max_clauses)
        return bc_or(bc_and(lhs, rhs), bc_and(bc_not(lhs), bc_not(rhs)))
    if isinstance(phi, (Exists, Forall)):
        # the whole block at once, and forall as not exists not
        universal = isinstance(phi, Forall)
        delta = decide(sym, phi.body, max_clauses)
        delta = bc_not(delta) if universal else delta
        delta = _eliminate_exists(sym, phi.vars, delta, max_clauses)
        return bc_not(delta) if universal else delta
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
    """Decide validity of closed input or satisfiability of open input.

    Closed input folds to a constant through quantifier elimination.
    Open input is decided by one clause search over its quantifier-free
    residue, which is returned as it is when satisfiable.
    """
    phi = expand_sugar(sym, phi)
    delta = decide(sym, phi, max_clauses)
    if free_vars(phi):
        if satisfiable(sym, delta, max_clauses):
            return Verdict(SATISFIABLE, residue=delta)
        return Verdict(UNSATISFIABLE)
    if delta == BC_TRUE:
        return Verdict(VALID)
    if delta == BC_FALSE:
        return Verdict(INVALID)
    raise AssertionError("closed input did not fold to a constant")
