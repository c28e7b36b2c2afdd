"""Quantifier elimination and the top-level decision procedure.

Every formula reduces to a Boolean combination of prime formulae with
the same free variables.  Atoms are already prime; connectives map
structurally; a universal block becomes a negated existential one; and
an existential block ``exists X`` is eliminated the whole block at
once.  It is miniscoped first: a part with no variable of X free is
left alone, ``exists X`` distributes over a disjunction, and the
conjuncts of a conjunction that miss X move outside it.  A literal
or a conjunction of literals that remains is one clause and is
eliminated as it is.  Anything else is put in a disjunctive normal form
whose literals are primes and eliminated clause by clause, in two
passes.  A clause that holds a
literal with no block variable free never eliminates to true, so the
first pass builds only the other, block-only clauses and eliminates
them shortest first, since a clause with fewer literals is weaker, so
likelier true, and stops at a true one.  Only when none is true are
the whole normal form's clauses joined; they are walked again only if
the first pass dropped a literal.  The clauses of one block share
their work through the tables of one clause eliminator.

``decide`` names bound variables by the depth of their binder and their
place in its block, so blocks equal up to the names of their bound
variables have one matrix, and each distinct pair of block and matrix
is eliminated once per call.  In ``forall fv (phi <-> phi')`` every
inner block of phi' is then the same elimination as one of phi.  The
blocks of the input's leading chain of negations and blocks, which no
other block can repeat, keep their names.

The leaves of a Boolean combination are the primes themselves, and
``TOP_PRIME`` is true.  Combinations are canonical up to the order of
arguments: every negation, conjunction and disjunction is found in one
unique table by its kind and its argument, or the set of its arguments,
so combinations equal up to argument order are one object and equality
is identity.
The two sides of ``forall fv (phi <-> phi')``, with phi' a reordered
phi, thus meet as one node and the equivalence folds to true before the
outermost block is put in normal form.  The table holds its nodes
weakly, so it keeps only the combinations something still refers to.
A combination is never turned back into a formula: a later layer,
``textio.print_formula``, prints it straight from the DAG.

The elimination of ``exists X`` from a clause ``beta and not beta'``
hinges on X-jokers: proper path constraints outside the closure of beta
with a free path rooted in X, meaning no prefix of it provably
coincides with a path rooted outside X.  The quantified variables can
always be moved to falsify a joker without disturbing beta, so when the
projection of beta' contains one, the negation is vacuous and
``exists X beta`` remains.  Otherwise what beta' asks of X is pinned
down and the clause is equivalent to
``exists X beta and not exists X (beta and beta')``.  The projection is
never built: ``holds_at`` places each variable of beta' on beta's body,
with whether its access path is free, so each equation, sort and edge
of beta' is one test.

Open input needs no elimination of its free variables: because sorts
and features are unbounded, a clause of prime literals is satisfiable
exactly when its positives are consistent and entail none of its
negatives, so one search over the clauses of the residue decides the
existential closure.
"""

from __future__ import annotations

import operator
import weakref
from functools import lru_cache, reduce
from itertools import chain
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
    Record,
    Top,
    VarId,
    cached_field,
    expand_sugar,
    free_vars,
    rename_atom,
)
from .paths import PathConstraint, SortAt, is_proper
from .prime import (
    PrimeFormula,
    TOP_PRIME,
    adjacency,
    exists_conj,
    from_atom,
    holds_at,
    prime_conj,
    prime_entails,
)
from .solve import search_tree

DEFAULT_MAX_DNF_CLAUSES = 10000

VALID = "VALID"
INVALID = "INVALID"
SATISFIABLE = "SATISFIABLE"
UNSATISFIABLE = "UNSATISFIABLE"


class ResourceLimit(Exception):
    """Raised when a normal form a block builds, or a clause search,
    exceeds the clause bound."""


# ---------------------------------------------------------------------------
# Boolean combinations of primes


# Every BcNot, BcAnd and BcOr a constructor builds comes from this
# table (a pickle or a copy too: ``Record`` rebuilds it through its
# constructor), which maps its key to a weak reference.  The reference's
# callback removes the entry when the node dies, so the table never
# holds a combination nothing else refers to.  The leaves are the primes
# themselves, which stay out of the table: a key holds one by its cached
# hash and its value equality.
_UNIQUE: dict = {}


def _forget(key, ref) -> None:
    # only its own entry: a key whose node died may map to a newer node
    # by the time a collection runs the callback
    if _UNIQUE.get(key) is ref:
        del _UNIQUE[key]


def _unique(cls, key, field: str, value):
    ref = _UNIQUE.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(cls)
        object.__setattr__(node, field, value)
        _UNIQUE[key] = weakref.ref(node, lambda ref, key=key: _forget(key, ref))
    return node


class BcNot(Record):
    arg: "BoolComb"

    def __new__(cls, arg: "BoolComb") -> "BcNot":
        return _unique(cls, (cls, arg), "arg", arg)

    @property
    def free_vars(self) -> frozenset[VarId]:
        return self.arg.free_vars


class _BcNary(Record):
    """A conjunction or disjunction, found in the table by the set of its
    arguments.  It keeps the argument order it was first built with,
    which is the order it prints in."""

    args: tuple["BoolComb", ...]

    def __new__(cls, args: Iterable["BoolComb"]):
        args = tuple(args)
        return _unique(cls, (cls, frozenset(args)), "args", args)

    @cached_field
    def free_vars(self) -> frozenset[VarId]:
        # computed once: block elimination asks every node it visits
        return frozenset().union(*(a.free_vars for a in self.args))


class BcAnd(_BcNary):
    pass


class BcOr(_BcNary):
    pass


BoolComb = Union[PrimeFormula, BcNot, BcAnd, BcOr]

BC_TRUE = TOP_PRIME
BC_FALSE = BcNot(BC_TRUE)  # the table's entry for the negated top prime


def bc_not(a: BoolComb) -> BoolComb:
    """Negation, folding a double one.  The node comes from the unique
    table, so ``bc_not(BC_TRUE)`` is ``BC_FALSE`` itself and the
    negations of one combination are one object."""
    return a.arg if isinstance(a, BcNot) else BcNot(a)


def _bc_nary(node, args, unit, zero) -> BoolComb:
    """The n-ary ``node`` of args: arguments of the same kind are
    flattened into it, units and repeats dropped, and a zero or a pair of
    complements gives zero.  What is left is looked up in the unique
    table by its set, so the result is canonical up to argument order
    and compares by identity; a new node keeps the order of ``args``.

    A complement is a negation whose argument is also an argument, as
    given or after flattening, so ``d | ~d`` is true also when d is a
    disjunction that flattening dissolves.  The test looks up the
    arguments themselves and builds no negation.
    """
    flat: list[BoolComb] = []
    dissolved: set[BoolComb] = set()
    for a in args:
        if isinstance(a, node):
            flat.extend(a.args)
            dissolved.add(a)
        else:
            flat.append(a)
    out: list[BoolComb] = []
    seen: set[BoolComb] = set()
    for a in flat:
        # identity and type first: most arguments are neither constant
        if a is unit or (type(a) is type(unit) and a == unit):
            continue
        if a is zero or (type(a) is type(zero) and a == zero):
            return zero
        if a not in seen:
            seen.add(a)
            out.append(a)
    for a in out:
        if type(a) is BcNot and (a.arg in seen or a.arg in dissolved):
            return zero
    if not out:
        return unit
    if len(out) == 1:
        return out[0]
    return node(tuple(out))


def bc_and(*args: BoolComb) -> BoolComb:
    return _bc_nary(BcAnd, args, BC_TRUE, BC_FALSE)


def bc_or(*args: BoolComb) -> BoolComb:
    return _bc_nary(BcOr, args, BC_FALSE, BC_TRUE)


# ---------------------------------------------------------------------------
# Jokers


def _placer(beta: PrimeFormula, block: frozenset[VarId]):
    """``start`` and ``step`` for ``holds_at``, placing a rooted path at
    (the node of beta's body it reaches or None, whether it is free).

    The pinned nodes are where the variables outside both the block and
    the bound set start, at their bindings, and all they reach.  A root
    outside the body, or bound by beta, is a node of its own; any other
    root starts at its binding.  A path rooted in the block is free until
    it meets a pinned node, so one that steps off the body stays as it was.
    """
    body = beta.body
    binding, edges = body.binding, body.edges
    roots = {binding.get(y, y) for y in body.variables - block - beta.bound}
    pinned = search_tree(adjacency(edges), roots).keys()

    def start(v: VarId) -> tuple:
        node = (v,) if v in beta.bound or v not in body.variables else binding.get(v, v)
        return node, v in block and node not in pinned

    def step(place: tuple, feat) -> tuple:
        node = edges.get((place[0], feat))
        return node, place[1] and node not in pinned

    return start, step


def _agree_joker(lhs: tuple, rhs: tuple) -> bool:
    # outside the closure, where the sides miss each other, and free on a side
    return (lhs[0] is None or lhs[0] != rhs[0]) and (lhs[1] or rhs[1])


def _has_joker(beta: PrimeFormula, placer, beta2: PrimeFormula) -> bool:
    """Whether the projection of beta2 holds a joker: whether beta2 fails
    to hold at the places of the placer (``holds_at``), where a sort
    holds at a place that is not free or has that sort, and two places
    agree unless ``_agree_joker`` says otherwise."""
    sorts = beta.body.sorts
    return not holds_at(
        beta2,
        *placer,
        lambda place, sort: not place[1] or sorts.get(place[0]) == sort,
        lambda lhs, rhs: not _agree_joker(lhs, rhs),
    )


def is_joker(beta: PrimeFormula, xs: Collection[VarId], pi: PathConstraint) -> bool:
    """Whether the constraint lies outside the closure on a free path
    rooted in the block xs.

    Jokers are exactly the proper constraints a quantified block can
    always escape: their side rooted in the block can be rerouted
    without touching the rest of the formula.  A side is placed by
    folding the placer's step over its path.
    """
    if not is_proper(pi):
        raise ValueError("jokers are defined for proper path constraints")
    start, step = _placer(beta, frozenset(xs))
    if isinstance(pi, SortAt):
        node, free = reduce(step, pi.path.feats, start(pi.src))
        return free and beta.body.sorts.get(node) != pi.sort
    lhs = reduce(step, pi.lpath.feats, start(pi.lsrc))
    return _agree_joker(lhs, reduce(step, pi.rpath.feats, start(pi.rsrc)))


# ---------------------------------------------------------------------------
# Clause elimination


def eliminate_neg(xs: Collection[VarId], beta: PrimeFormula, beta2: PrimeFormula) -> BoolComb:
    """Boolean combination equivalent to ``exists xs (beta and not beta2)``:
    the clause of one positive and one negative literal."""
    return eliminate_clause(xs, [beta], [beta2])


def eliminate_clause(
    xs: Collection[VarId],
    positives: list[PrimeFormula],
    negatives: list[PrimeFormula],
) -> BoolComb:
    """Eliminate the block ``exists xs`` from a conjunction of prime literals.

    ``exists xs`` over the positives is at most one build
    (``exists_conj``), or the clause is unsatisfiable.  Only when there
    is a negative literal do the positives also merge into a single
    prime beta, in one conjunction.  A negated beta' whose projection
    contains a joker for the block never constrains the choice of its
    variables and drops out; so does one inconsistent with beta.  Every other one subtracts ``exists xs (beta and beta')``,
    which one build (``exists_conj``) conjoins and quantifies together.
    """
    return _clause_eliminator(frozenset(xs))(positives, negatives)


def _clause_eliminator(block: frozenset[VarId]):
    """``eliminate_clause`` for one block, remembering what it solved.

    Clauses of one normal form share positives and negatives, so
    ``exists xs`` over the positives, their merge beta and the placer
    are kept per set of positives, and the literal each negative
    subtracts (true when it drops out) per pair of merged positives and
    negative.  The placer is made when a negative first needs it.  So
    is beta when the block has a variable free in the positives:
    ``exists xs`` over them is one build of its own, and building beta
    first would make it two.  Otherwise beta is ``exists xs beta``
    itself, no build for one positive.  Sets of positives
    that merge to equal primes find one another's pairs through the
    primes' cached hashes.  The tables live as long as the returned
    function.
    """
    solved: dict[frozenset, list | None] = {}
    subtracted: dict[tuple[PrimeFormula, PrimeFormula], BoolComb] = {}

    def eliminate(positives: list[PrimeFormula], negatives: list[PrimeFormula]) -> BoolComb:
        key = frozenset(positives)
        if key not in solved:
            if block.isdisjoint(chain.from_iterable(b.free_vars for b in positives)):
                # the block binds nothing: exists xs beta is beta
                beta = exists_beta = prime_conj(*positives)
            else:
                # one build; beta waits until a negative needs it
                beta, exists_beta = None, exists_conj(block, positives)
            solved[key] = None if isinstance(exists_beta, Bottom) else [
                beta, exists_beta, None, positives
            ]
        entry = solved[key]
        if entry is None:
            return BC_FALSE
        beta, exists_beta, placer, first = entry
        if negatives and beta is None:
            # in the order first met: class representatives follow it
            beta = entry[0] = prime_conj(*first)
        literals = [exists_beta]
        for beta2 in negatives:
            pair = (beta, beta2)
            literal = subtracted.get(pair)
            if literal is None:
                if placer is None:
                    placer = entry[2] = _placer(beta, block)
                literal = BC_TRUE  # a joker, or a clash with beta: it drops out
                if not _has_joker(beta, placer, beta2):
                    both = exists_conj(block, (beta, beta2))
                    if not isinstance(both, Bottom):
                        literal = bc_not(both)
                subtracted[pair] = literal
            literals.append(literal)
        return bc_and(*literals)

    return eliminate


def to_prime_dnf(
    delta: BoolComb,
    max_clauses: int = DEFAULT_MAX_DNF_CLAUSES,
    xs: Sequence[VarId] = (),
) -> list[tuple[list[PrimeFormula], list[PrimeFormula]]]:
    """Disjunctive normal form with primes as literals.

    Clauses with complementary or trivially false literals are dropped,
    duplicate literals merge, and growth past the bound raises
    ResourceLimit, naming the block ``xs`` when one is given: its first
    eight variables in prefix order, then how many more there are.

    Each distinct prime gets a small integer id where the walk first
    meets it, so a clause is a pair of frozensets of ids, positives and
    negatives: a clash is a disjointness test and the pair is the key
    that merges duplicates.  A conjunction merges its single-clause
    arguments into one base clause in one pass, yields no clause when an
    argument has none, and only then crosses the others.  Each clause
    lists its primes in the order the walk met them, from the one list
    of distinct primes, so equal primes come back as one object.  The
    clauses of each conjunction and disjunction are kept per polarity
    for the call, so a node the combination shares is walked once.
    """
    ids: dict[PrimeFormula, int] = {}
    primes: list[PrimeFormula] = []
    empty: frozenset[int] = frozenset()
    # read only, so a shared node's list serves every parent
    memo: dict[tuple[BoolComb, bool], list[tuple[frozenset[int], frozenset[int]]]] = {}

    def go(node: BoolComb, negate: bool) -> list[tuple[frozenset[int], frozenset[int]]]:
        if isinstance(node, PrimeFormula):
            if node.is_top():
                return [] if negate else [(empty, empty)]
            i = ids.get(node)
            if i is None:
                i = ids[node] = len(primes)
                primes.append(node)
            return [(empty, frozenset((i,)))] if negate else [(frozenset((i,)), empty)]
        if isinstance(node, BcNot):
            return go(node.arg, not negate)
        clauses = memo.get((node, negate))
        if clauses is None:
            clauses = memo[node, negate] = combine(node, negate)
        return clauses

    def combine(node: BoolComb, negate: bool) -> list[tuple[frozenset[int], frozenset[int]]]:
        if isinstance(node, BcOr) != negate:
            out: list[tuple[frozenset[int], frozenset[int]]] = []
            seen: set = set()
            for a in node.args:
                for clause in go(a, negate):
                    if clause not in seen:
                        seen.add(clause)
                        out.append(clause)
                if len(out) > max_clauses:
                    raise _dnf_limit(max_clauses, xs)
            return out
        pos: set[int] = set()
        neg: set[int] = set()
        factors = []
        for a in node.args:
            clauses = go(a, negate)
            if len(clauses) == 1:
                pos.update(clauses[0][0])
                neg.update(clauses[0][1])
            else:
                factors.append(clauses)
        if not pos.isdisjoint(neg) or [] in factors:
            return []
        acc = [(frozenset(pos), frozenset(neg))]
        for right in factors:
            out = []
            for lp, ln in acc:
                for rp, rn in right:
                    if ln.isdisjoint(rp) and lp.isdisjoint(rn):
                        out.append((lp | rp, ln | rn))
                        if len(out) > max_clauses:
                            raise _dnf_limit(max_clauses, xs)
            acc = out
        return acc

    try:
        return [
            ([primes[i] for i in sorted(pos)], [primes[i] for i in sorted(neg)])
            for pos, neg in go(delta, False)
        ]
    finally:
        # go and combine refer to each other: deleting both breaks the
        # cycle, so the id table, the primes and the memo die with the call
        del go, combine


def _dnf_limit(max_clauses: int, xs: Sequence[VarId]) -> ResourceLimit:
    """The ``ResourceLimit`` that ``to_prime_dnf`` raises past its bound."""
    more = f" and {len(xs) - 8} more" if len(xs) > 8 else ""
    block = f" while eliminating {', '.join(map(str, xs[:8]))}{more}" if xs else ""
    return ResourceLimit(f"disjunctive normal form exceeds {max_clauses} clauses{block}")


def _block_only(node: BoolComb, block: frozenset[VarId]) -> BoolComb:
    """node with each part that has no block variable free, but a true
    leaf, replaced by what yields no clause there: false unnegated, true
    under a negation.  Its normal form is node's block-only clauses, in
    the same order and with their primes in the same order.  Each node
    is rewritten once per polarity, and comes back as itself when nothing
    in it is replaced.  New nodes bypass the unique table, which keeps
    one argument order per set of arguments."""
    memo: dict[tuple[BoolComb, bool], BoolComb] = {}

    def go(node: BoolComb, negate: bool) -> BoolComb:
        if isinstance(node, BcNot):
            arg = go(node.arg, not negate)
            return node if arg is node.arg else BcNot(arg)
        if block.isdisjoint(node.free_vars):
            top = isinstance(node, PrimeFormula) and node.is_top()
            return node if top else BC_TRUE if negate else BC_FALSE
        if isinstance(node, PrimeFormula):
            return node
        out = memo.get((node, negate))
        if out is None:
            args = [go(a, negate) for a in node.args]
            out = node
            if not all(map(operator.is_, args, node.args)):
                out = object.__new__(type(node))
                object.__setattr__(out, "args", tuple(args))
            memo[node, negate] = out
        return out

    try:
        return go(node, False)
    finally:
        # go refers to itself: deleting it breaks the cycle, so the memo dies
        del go


def _literal_clause(node: BoolComb) -> tuple[list[PrimeFormula], list[PrimeFormula]] | None:
    """node's one clause when it is a literal or a conjunction of
    literals, else None: its positives and negatives in argument order,
    the order ``to_prime_dnf`` lists them in.  The unique table has
    already folded equal and complementary arguments."""
    clause: tuple[list[PrimeFormula], list[PrimeFormula]] = ([], [])
    for a in node.args if isinstance(node, BcAnd) else (node,):
        negated = isinstance(a, BcNot)
        a = a.arg if negated else a
        if not isinstance(a, PrimeFormula):
            return None
        clause[negated].append(a)
    return clause


def _eliminate_exists(
    xs: tuple[VarId, ...], delta: BoolComb, max_clauses: int, names: Sequence[VarId] = ()
) -> BoolComb:
    """Boolean combination equivalent to ``exists xs delta``; ``names``,
    when given, spell the block as the input does, for a ``ResourceLimit``.

    The block is miniscoped first, in one walk with a negation flag: a
    part with no block variable free is kept as it is, a disjunction
    eliminates the block from each disjunct, and a conjunction keeps
    its arguments with no block variable outside the block.  What is
    left, the negation flag applied, goes to one clause eliminator.  A
    literal or a conjunction of literals is its own normal form, one
    clause, and goes to it as it is, its literals in the order the walk
    would list them, with no rewrite or walk.  Anything else, a negated
    disjunction included, is eliminated in two passes.

    Only a block-only clause, one whose literals all have a block
    variable free, can eliminate to true.  A positive literal gamma with
    none is entailed by the clause's ``exists xs beta`` and is not
    valid; a negative one is never a joker, and it clashes with no beta
    whose ``exists xs beta`` is true, since gamma is satisfiable and the
    block can be extended.  So the first pass eliminates the clauses of
    ``_block_only`` of what is left, shortest first, and stops at a true
    one.  Otherwise the second pass joins the whole normal form's clause
    results in DNF order, walking again only if the rewrite replaced a
    part; the eliminator's tables answer the clauses already tried.
    """
    block = frozenset(xs)
    names = names or xs
    eliminate = _clause_eliminator(block)

    def go(node: BoolComb, negate: bool) -> BoolComb:
        if block.isdisjoint(node.free_vars):
            return bc_not(node) if negate else node
        if isinstance(node, BcNot):
            return go(node.arg, not negate)
        if isinstance(node, PrimeFormula):
            return normal_form(node, negate)
        if isinstance(node, BcOr) != negate:
            return bc_or(*[go(a, negate) for a in node.args])
        inside = [a for a in node.args if not block.isdisjoint(a.free_vars)]
        if len(inside) == len(node.args):
            return normal_form(node, negate)
        outside = [a for a in node.args if block.isdisjoint(a.free_vars)]
        rest = inside[0] if len(inside) == 1 else type(node)(tuple(inside))
        return bc_and(*[bc_not(a) if negate else a for a in outside], go(rest, negate))

    def normal_form(node: BoolComb, negate: bool) -> BoolComb:
        node = bc_not(node) if negate else node
        clause = _literal_clause(node)
        if clause is not None:
            return eliminate(*clause)
        only = _block_only(node, block)
        clauses = to_prime_dnf(only, max_clauses, names)
        # fewer literals make a weaker clause, likelier true
        for pos, neg in sorted(clauses, key=lambda clause: len(clause[0]) + len(clause[1])):
            if eliminate(pos, neg) is BC_TRUE:
                return BC_TRUE
        # none is true, so neither is any clause of the whole normal form
        whole = clauses if only is node else to_prime_dnf(node, max_clauses, names)
        return bc_or(*[eliminate(*clause) for clause in whole])

    try:
        return go(delta, False)
    finally:
        # go refers to itself: deleting it breaks the cycle, so the
        # eliminator's tables die with the call
        del go


# ---------------------------------------------------------------------------
# Satisfiability by clause search


def _clause_satisfiable(
    positives: Iterable[PrimeFormula], negatives: Iterable[PrimeFormula]
) -> bool:
    """Independence: a clause of prime literals is satisfiable exactly
    when its positives are consistent and entail none of its negatives."""
    beta = prime_conj(*positives)
    if isinstance(beta, Bottom):
        return False
    return not any(prime_entails(beta, b) for b in negatives)


def _is_literal(delta: BoolComb) -> bool:
    return isinstance(delta, PrimeFormula) or (
        isinstance(delta, BcNot) and isinstance(delta.arg, PrimeFormula)
    )


def satisfiable(delta: BoolComb, max_clauses: int = DEFAULT_MAX_DNF_CLAUSES) -> bool:
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
            elif isinstance(node, PrimeFormula):
                if node.is_top():
                    if negated:
                        closed = True
                        break
                    continue
                own, other = literals[negated], literals[not negated]
                if node in other:
                    closed = True
                    break
                if node not in own:
                    own[node] = None
                    trail.append((own, node))
            elif isinstance(node, BcOr) != negated:
                for a in reversed(node.args[1:]):
                    choices.append((((a, negated), pending), len(trail)))
                pending = ((node.args[0], negated), pending)
            else:
                if not all(map(_is_literal, node.args)):
                    shared = (list(literals[0]), list(literals[1]))
                    for a in node.args:
                        if isinstance(a, PrimeFormula):
                            shared[negated].append(a)
                        elif _is_literal(a):
                            shared[not negated].append(a.arg)
                    if not _clause_satisfiable(*shared):
                        closed = True
                        break
                for a in reversed(node.args):
                    pending = ((a, negated), pending)
        if not closed and _clause_satisfiable(*literals):
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


@lru_cache(maxsize=256)
def _binder_names(depth: int, width: int) -> tuple[VarId, ...]:
    """The names ``decide`` gives the variables of a block of ``width``
    under ``depth`` enclosing blocks.  Kept for the most recent shapes, so
    a call does not spell its names anew."""
    return tuple(VarId(f"${depth}.{i}") for i in range(width))


def decide(phi: Formula, max_clauses: int = DEFAULT_MAX_DNF_CLAUSES) -> BoolComb:
    """Quantifier-free Boolean combination of primes equivalent to phi.

    Expects sugar-expanded input.  The result mentions no variable
    beyond the free variables of phi, and for closed phi it folds to a
    constant, true or its negation.

    Bound variables are named by the depth of their binder (de Bruijn
    levels): variable i of a block under d enclosing blocks is ``$d.i``,
    and an atom is renamed as it becomes a prime.  No parsed name,
    sugar name (``_y1``) or requantified name (``qN``) starts with
    ``$``, and the ``$k`` names of renaming apart (``exists_conj``) have
    no dot and never leave their build, so the names capture nothing,
    and they are never interned in a ``Symbols`` session.  Blocks equal
    up to the names of their bound variables thus meet the same matrix
    object, and each distinct pair of block and matrix is eliminated
    once per call; the result mentions no block variable, so the memo is
    exact.  The blocks in the chain of negations and blocks that starts
    at phi keep their names: no block lies beside that chain, so none
    can repeat one of them, and a sentence in prenex form renames
    nothing.  A ``ResourceLimit`` still names the block's variables as
    phi spells them.
    """
    names: dict[VarId, VarId] = {}  # each renamed variable in scope to its name
    depth = 0
    prefix = True  # in the chain of negations and blocks that starts at phi
    eliminated: dict[tuple[tuple[VarId, ...], BoolComb], BoolComb] = {}

    def go(phi: Formula) -> BoolComb:
        nonlocal names, depth, prefix
        # the commonest nodes first: atoms, then conjunctions and disjunctions
        if isinstance(phi, Atomic):
            if isinstance(phi.atom, Excl):
                raise ValueError("expand sugar before deciding")
            return from_atom(rename_atom(phi.atom, names) if names else phi.atom)
        if isinstance(phi, (And, Or)):
            prefix = False
            combine = bc_and if isinstance(phi, And) else bc_or
            return combine(*[go(arg) for arg in phi.args])
        if isinstance(phi, Not):
            return bc_not(go(phi.body))
        if isinstance(phi, (Exists, Forall)):
            # the whole block at once, and forall as not exists not
            universal = isinstance(phi, Forall)
            outer = names
            if prefix:
                # no block lies beside the chain from phi down, so none
                # repeats a block in it, and its variables keep their names
                block = phi.vars
            else:
                block = _binder_names(depth, len(phi.vars))
                names = outer | dict(zip(phi.vars, block))
            depth += 1
            delta = go(phi.body)
            names = outer
            depth -= 1
            delta = bc_not(delta) if universal else delta
            key = (block, delta)
            result = eliminated.get(key)
            if result is None:
                result = eliminated[key] = _eliminate_exists(block, delta, max_clauses, phi.vars)
            return bc_not(result) if universal else result
        prefix = False
        if isinstance(phi, Implies):
            return bc_or(bc_not(go(phi.lhs)), go(phi.rhs))
        if isinstance(phi, Iff):
            lhs = go(phi.lhs)
            rhs = go(phi.rhs)
            return bc_or(bc_and(lhs, rhs), bc_and(bc_not(lhs), bc_not(rhs)))
        if isinstance(phi, Top):
            return BC_TRUE
        if isinstance(phi, Bottom):
            return BC_FALSE
        raise ValueError(f"cannot decide formula node {phi!r}; expand sugar first")

    try:
        return go(phi)
    finally:
        # go refers to itself: deleting it breaks the cycle, so the memo
        # and what it holds die with the call, not at a later collection
        del go


class Verdict(Record):
    """Outcome of classification.

    VALID and INVALID apply to closed formulae only; SATISFIABLE and
    UNSATISFIABLE report on the existential closure of open formulae,
    with the quantifier-free residue attached in the satisfiable case.
    """

    kind: str
    residue: BoolComb | None = None


def classify(phi: Formula, max_clauses: int = DEFAULT_MAX_DNF_CLAUSES) -> Verdict:
    """Decide validity of closed input or satisfiability of open input.

    Closed input folds to a constant through quantifier elimination.
    Open input is decided by one clause search over its quantifier-free
    residue, which is returned as it is when satisfiable.
    """
    phi = expand_sugar(phi)
    delta = decide(phi, max_clauses)
    if free_vars(phi):
        if satisfiable(delta, max_clauses):
            return Verdict(SATISFIABLE, residue=delta)
        return Verdict(UNSATISFIABLE)
    if delta == BC_TRUE:
        return Verdict(VALID)
    if delta == BC_FALSE:
        return Verdict(INVALID)
    raise AssertionError("closed input did not fold to a constant")
