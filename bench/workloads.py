"""Seeded operation lists for the featlog benchmark.

Every operation carries an answer known by construction, so the runner
can check featlog's output without asking featlog.  A workload is a
fixed list of operations (one "pass"); the same seed always yields the
same list, byte for byte.  The seed respells every sort and feature and
draws the shapes of the small random inputs; the size ladders, the
shapes of wide and luck-sensitive inputs, and the order of a pass are
fixed (see ``_shape``), so run-to-run differences come from the program
and not from a luckier draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VALID = "VALID"
INVALID = "INVALID"


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``command`` is a featlog CLI subcommand, or ``evaluate`` for the
    bounded evaluator.  ``expect`` is the known answer: a verdict token,
    or for simplify/witness/evaluate the data its checker needs.
    """

    command: str
    family: str
    size: int
    text: str
    expect: object


class Names:
    """Seeded spellings for sorts and features, distinct per seed."""

    def __init__(self, rng: random.Random):
        letters = "abcdefghijklmnopqrstuvwxyz"
        pairs = [a + b for a in letters for b in letters]
        rng.shuffle(pairs)
        self._pairs = pairs
        self._next = 0

    def _take(self) -> str:
        pair = self._pairs[self._next % len(self._pairs)]
        self._next += 1
        return pair

    def sorts(self, n: int) -> list[str]:
        return ["S" + self._take() for _ in range(n)]

    def feats(self, n: int) -> list[str]:
        return ["f" + self._take() for _ in range(n)]


def _conj(atoms: list[str]) -> str:
    return " & ".join(atoms)


# ---------------------------------------------------------------------------
# Independent reference: congruence closure over sort/feature/equation atoms


class Closure:
    """Union-find closure of a conjunction of basic atoms.

    This is the benchmark's own reference for solved forms: two solved
    forms are equivalent exactly when they induce the same variable
    partition, the same feature edge per (class, feature) and the same
    sort per class.
    """

    def __init__(self, atoms: list[tuple]):
        self.parent: dict[str, str] = {}
        self.clash = False
        eqs, edges, sorts = [], [], []
        for a in atoms:
            for v in a[2:] if a[0] in ("feat", "sort") else a[1:]:
                self._add(v)
            if a[0] == "eq":
                eqs.append(a)
            elif a[0] == "feat":
                edges.append(a)
            else:
                sorts.append(a)
        for _, x, y in eqs:
            self._union(x, y)
        changed = True
        while changed:
            changed = False
            table: dict[tuple[str, str], str] = {}
            for _, f, x, y in edges:
                key = (self.find(x), f)
                if key in table and self.find(table[key]) != self.find(y):
                    self._union(table[key], y)
                    changed = True
                table.setdefault(key, y)
        self.edges = {(self.find(x), f): self.find(y) for _, f, x, y in edges}
        self.sorts: dict[str, str] = {}
        for _, s, x in sorts:
            r = self.find(x)
            if self.sorts.setdefault(r, s) != s:
                self.clash = True

    def _add(self, v: str) -> None:
        self.parent.setdefault(v, v)

    def find(self, v: str) -> str:
        self._add(v)
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def _union(self, x: str, y: str) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def signature(self) -> tuple:
        """Representative-independent description of the closure."""
        classes: dict[str, set[str]] = {}
        for v in self.parent:
            classes.setdefault(self.find(v), set()).add(v)
        name = {r: min(vs) for r, vs in classes.items()}
        part = frozenset(frozenset(vs) for vs in classes.values() if len(vs) > 1)
        edges = frozenset((name[s], f, name[d]) for (s, f), d in self.edges.items())
        sorts = frozenset((name[r], s) for r, s in self.sorts.items())
        return part, edges, sorts


def basic_atoms_text(atoms: list[tuple]) -> list[str]:
    out = []
    for a in atoms:
        if a[0] == "eq":
            out.append(f"{a[1]} = {a[2]}")
        elif a[0] == "feat":
            out.append(f"{a[1]}({a[2]}, {a[3]})")
        else:
            out.append(f"{a[1]}({a[2]})")
    return out


# ---------------------------------------------------------------------------
# qe-mix: many small decide calls


def _random_quantified(rng: random.Random, names: Names, n_atoms: int, n_quants: int):
    """A random formula tree with n_atoms leaves and up to n_quants binders."""
    sorts, feats = names.sorts(3), names.feats(3)
    vs = [f"x{i}" for i in range(6)]
    quants = [n_quants]

    def atom():
        r = rng.random()
        if r < 0.45:
            return ("atom", "feat", rng.choice(feats), rng.choice(vs), rng.choice(vs))
        if r < 0.8:
            return ("atom", "sort", rng.choice(sorts), rng.choice(vs))
        return ("atom", "eq", rng.choice(vs), rng.choice(vs))

    def go(n: int):
        if quants[0] > 0 and rng.random() < 0.25:
            quants[0] -= 1
            kind = "exists" if rng.random() < 0.6 else "forall"
            return ("q", kind, rng.choice(vs), go(n))
        if n == 1:
            return atom() if rng.random() < 0.85 else ("not", atom())
        k = rng.randint(1, n - 1)
        r = rng.random()
        op = "and" if r < 0.45 else "or" if r < 0.75 else "imp" if r < 0.88 else "iff"
        node = (op, go(k), go(n - k))
        return ("not", node) if rng.random() < 0.1 else node

    return go(n_atoms)


def _free(t, bound=frozenset()) -> set[str]:
    if t[0] == "atom":
        args = t[3:] if t[1] in ("feat", "sort") else t[2:]
        return {v for v in args if v not in bound}
    if t[0] == "not":
        return _free(t[1], bound)
    if t[0] == "q":
        return _free(t[3], bound | {t[2]})
    return _free(t[1], bound) | _free(t[2], bound)


_OPS = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def _render(t, env: dict, fresh: list, variant: bool) -> str:
    """Text of a formula tree; the variant renames binders apart and
    commutes the operands of & and |, which preserves meaning."""
    if t[0] == "atom":
        if t[1] == "feat":
            return f"{t[2]}({env.get(t[3], t[3])}, {env.get(t[4], t[4])})"
        if t[1] == "sort":
            return f"{t[2]}({env.get(t[3], t[3])})"
        return f"{env.get(t[2], t[2])} = {env.get(t[3], t[3])}"
    if t[0] == "not":
        return f"~({_render(t[1], env, fresh, variant)})"
    if t[0] == "q":
        name = t[2]
        if variant:
            name = f"b{fresh[0]}"
            fresh[0] += 1
        inner = dict(env)
        inner[t[2]] = name
        return f"{t[1]} {name}. ({_render(t[3], inner, fresh, variant)})"
    lhs = _render(t[1], env, fresh, variant)
    rhs = _render(t[2], env, fresh, variant)
    if variant and t[0] in ("and", "or"):
        lhs, rhs = rhs, lhs
    return f"({lhs}) {_OPS[t[0]]} ({rhs})"


def _prefix(word: str, vs) -> str:
    vs = sorted(vs)
    return f"{word} {', '.join(vs)}. " if vs else ""


# Shapes of the random quantified formulae are drawn from this fixed seed;
# --seed only respells their sorts and features.  Which of these
# formulae exceed the clause bound or the time limit is a matter of luck
# of the draw, and redrawing per seed would make fail_ratio swing from
# run to run more than any change to featlog moves it.
IFF_SHAPES_SEED = "qe-mix/iff-shapes"


def qe_iff_sentences(names: Names, count: int) -> list[Op]:
    """forall fv. (phi <-> phi') is VALID for a meaning-preserving variant
    phi' of phi; its negation is INVALID."""
    shapes = random.Random(IFF_SHAPES_SEED)
    ops = []
    for i in range(count):
        t = _random_quantified(shapes, names, shapes.randint(10, 16), shapes.randint(1, 3))
        phi = _render(t, {}, [0], False)
        phi2 = _render(t, {}, [0], True)
        body = f"{_prefix('forall', _free(t))}(({phi}) <-> ({phi2}))"
        if i % 2:
            ops.append(Op("decide", "iff", 2 * _leaves(t), f"~({body})", INVALID))
        else:
            ops.append(Op("decide", "iff", 2 * _leaves(t), body, VALID))
    return ops


def _leaves(t) -> int:
    if t[0] == "atom":
        return 1
    return sum(_leaves(c) for c in t[1:] if isinstance(c, tuple))


def solved_clause(rng: random.Random, names: Names, max_vars: int = 8):
    """A random solved clause: at most one sort and one edge per
    (variable, feature), exclusions only on absent features."""
    sorts, feats = names.sorts(3), names.feats(3)
    vs = [f"v{i}" for i in range(rng.randint(2, max_vars))]
    atoms = []
    for v in vs:
        chosen = rng.sample(feats, rng.randint(0, 3))
        for f in chosen:
            atoms.append(("feat", f, v, rng.choice(vs)))
        if rng.random() < 0.5:
            atoms.append(("sort", rng.choice(sorts), v))
        for f in feats:
            if f not in chosen and rng.random() < 0.25:
                atoms.append(("excl", f, v))
    if not atoms:
        atoms.append(("sort", sorts[0], vs[0]))
    return atoms


def _clause_text(atoms) -> tuple[str, set[str], set[str]]:
    parts, constrained, seen = [], set(), set()
    for a in atoms:
        if a[0] == "feat":
            parts.append(f"{a[1]}({a[2]}, {a[3]})")
            constrained.add(a[2])
            seen.update(a[2:])
        elif a[0] == "sort":
            parts.append(f"{a[1]}({a[2]})")
            constrained.add(a[2])
            seen.add(a[2])
        else:
            parts.append(f"undef({a[2]}, {a[1]})")
            constrained.add(a[2])
            seen.add(a[2])
    return _conj(parts), constrained, seen - constrained


def qe_solved_clause_sentences(names: Names, count: int) -> list[Op]:
    """forall params. exists cv. delta holds for every solved clause delta.

    The clause shapes are fixed: the largest of them set decide_tail_ms,
    and redrawing them per seed would move it by a tenth.
    """
    shapes = _shape("qe-mix", "solved-clause")
    ops = []
    for i in range(count):
        text, cv, params = _clause_text(solved_clause(shapes, names))
        body = f"{_prefix('forall', params)}{_prefix('exists', cv)}({text})"
        if i % 2:
            ops.append(Op("decide", "solved-clause", len(cv), f"~({body})", INVALID))
        else:
            ops.append(Op("decide", "solved-clause", len(cv), body, VALID))
    return ops


def qe_law_sentences(rng: random.Random, names: Names, count: int) -> list[Op]:
    """Functional features and disjoint sorts, with known verdicts."""
    ops = []
    for i in range(count):
        s1, s2 = names.sorts(2)
        depth = rng.randint(1, 4)
        path = names.feats(depth)
        ys = [f"y{j}" for j in range(depth + 1)]
        zs = ["y0"] + [f"z{j}" for j in range(1, depth + 1)]
        left = [f"{f}({ys[j]}, {ys[j + 1]})" for j, f in enumerate(path)]
        right = [f"{f}({zs[j]}, {zs[j + 1]})" for j, f in enumerate(path)]
        every = _prefix("forall", set(ys) | set(zs))
        some = _prefix("exists", set(ys) | set(zs))
        kind = i % 5
        if kind == 0:
            text, want = f"{every}({_conj(left + right)} -> {ys[-1]} = {zs[-1]})", VALID
        elif kind == 1:
            text, want = f"forall x. ({s1}(x) & {s2}(x) -> false)", VALID
        elif kind == 2:
            text, want = f"exists x. ({s1}(x) & {s2}(x))", INVALID
        elif kind == 3:
            atoms = left + right + [f"{s1}({ys[-1]})", f"{s2}({zs[-1]})"]
            text, want = f"{some}({_conj(atoms)})", INVALID
        else:
            sugar = f"{s1}@y0.{'.'.join(path)}"
            every = _prefix("forall", set(ys))
            text, want = f"{every}({_conj(left + [f'{s1}({ys[-1]})'])} -> {sugar})", VALID
        ops.append(Op("decide", "laws", depth, text, want))
    return ops


LADDER_KS = (4, 5, 6, 7, 8, 9, 10)


def alternation_ladder(names: Names, k: int, negate: bool) -> Op:
    """forall x1 exists x2 forall x3 ... over links (f|g|h|=)(x_i, x_i+1).

    Invalid for k >= 3: x3 can always be chosen unrelated to x2.  The
    disjunctive normal form of the matrix has 4^(k-1) clauses, so the
    exponential stage is exercised on purpose.
    """
    feats = names.feats(3)
    vs = [f"x{i}" for i in range(1, k + 1)]
    prefix = " ".join(
        ("forall" if i % 2 == 0 else "exists") + f" {v}." for i, v in enumerate(vs)
    )
    links = _conj(
        "(" + " | ".join([f"{f}({a}, {b})" for f in feats] + [f"{a} = {b}"]) + ")"
        for a, b in zip(vs, vs[1:])
    )
    text = f"{prefix} ({links})"
    if negate:
        return Op("decide", "ladder", k, f"~({text})", VALID)
    return Op("decide", "ladder", k, text, INVALID)


def qe_mix(seed: int) -> list[Op]:
    rng = random.Random(f"qe-mix/{seed}")
    names = Names(rng)
    ops = (
        qe_iff_sentences(names, 100)
        + qe_solved_clause_sentences(names, 240)
        + qe_law_sentences(rng, names, 100)
        + [alternation_ladder(names, k, neg) for k in LADDER_KS for neg in (False, True)]
        + probes(names, ("simplify", "entail", "witness", "evaluate"))
    )
    _shape("qe-mix", "order").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# solve-scale: few, wide inputs on a size ladder


def equation_chain(rng: random.Random, names: Names, atoms: int) -> Op:
    """x_i = x_i+1 and f(x_i, y_i): every x and every y collapse."""
    n = atoms // 2
    f = names.feats(1)[0]
    perm = list(range(n + 1))
    rng.shuffle(perm)
    xs = [f"x{p}" for p in perm]
    parts = [("eq", xs[i], xs[i + 1]) for i in range(n)]
    parts += [("feat", f, xs[i], f"y{i}") for i in range(n)]
    rng.shuffle(parts)
    return Op("simplify", "eq-chain", atoms, _conj(basic_atoms_text(parts)), parts)


def flat_sorts(rng: random.Random, names: Names, atoms: int, clash: bool) -> Op:
    sorts = names.sorts(3)
    parts = [("sort", sorts[i % 3], f"x{i}") for i in range(atoms)]
    rng.shuffle(parts)
    if clash:
        # Where the clash sits in the conjunction changes decide's time
        # more than twofold, so it is always last.
        _, s, x = parts[len(parts) // 2]
        parts.append(("sort", sorts[(sorts.index(s) + 1) % 3], x))
    family = "flat-sorts-clash" if clash else "flat-sorts"
    return Op("simplify", family, atoms, _conj(basic_atoms_text(parts)), parts)


def path_agreements(rng: random.Random, names: Names, count: int, clash: bool) -> Op:
    """x_i.f.g = x_i+1.h chains; the clash variant pins two sorts on one path."""
    f, g, h = names.feats(3)
    s1, s2 = names.sorts(2)
    parts = [f"x{i}.{f}.{g} = x{i + 1}.{h}" for i in range(count)]
    rng.shuffle(parts)
    if clash:
        # last, for the same reason as in flat_sorts
        j = count // 2
        parts += [f"{s1}@x{j}.{f}.{g}", f"{s2}@x{j + 1}.{h}"]
    family = "agree-clash" if clash else "agree"
    return Op("simplify", family, 2 * count, _conj(parts), "false" if clash else "sat")


def chain_entailment(rng: random.Random, names: Names, atoms: int, entailed: bool) -> Op:
    """A chain entails each existentially closed sub-chain; adding an edge
    the chain does not have breaks the entailment."""
    feats = names.feats(3)
    labels = [rng.choice(feats) for _ in range(atoms)]
    lhs = [f"{labels[i]}(x{i}, x{i + 1})" for i in range(atoms)]
    start = rng.randrange(atoms // 2)
    length = atoms // 2
    seg = range(start, start + length)
    rhs = [f"{labels[i]}(x{i}, x{i + 1})" for i in seg]
    bound = [f"x{i + 1}" for i in seg]
    if not entailed:
        missing = next(f for f in feats if f != labels[start + length])
        rhs.append(f"{missing}(x{start + length}, w)")
        bound.append("w")
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    text = f"{_conj(lhs)} ; exists {', '.join(bound)}. ({_conj(rhs)})"
    token = "ENTAILED" if entailed else "NOT-ENTAILED"
    return Op("entail", "chain-entail" if entailed else "chain-not-entail", atoms, text, token)


def flat_decide(rng: random.Random, names: Names, atoms: int, clash: bool) -> Op:
    op = flat_sorts(rng, names, atoms, clash)
    want = "UNSATISFIABLE" if clash else "SATISFIABLE"
    return Op("decide", "flat-clash" if clash else "flat", atoms, op.text, want)


# Size ladders in atoms.  Times grow steeply with size, so each ladder is
# spaced so that at the seed no point sits near the per-operation limit;
# the top points of each ladder exceed it at the seed on purpose.
EQ_CHAIN_SIZES = (50, 100, 200, 400, 800, 1200)
FLAT_SIMPLIFY_SIZES = (50, 100, 200, 400, 800)
AGREE_COUNTS = (6, 12, 25, 80)
ENTAIL_SIZES = (60, 120, 240, 600)
FLAT_DECIDE_SIZES = (50, 100, 190, 500)
FLAT_DECIDE_CLASH_SIZES = (70, 140, 280, 800)


def _variants(size: int) -> int:
    """Small inputs are cheap, so they get more variants; this gives
    every command enough samples for a tail percentile."""
    return 12 if size <= 70 else 4 if size <= 140 else 2 if size <= 280 else 1


def _shape(*key) -> random.Random:
    """Fixed randomness for what the seed must not change.

    On wide inputs featlog's time depends more than twofold on the order
    of the atoms, so ladder points drawn afresh per seed would flip
    between passing and timing out; and a small operation runs slower
    right after a large one, so the order of a pass is fixed too.  The
    seed respells the sorts and features of these inputs.
    """
    return random.Random("/".join(map(str, key)))


def solve_scale(seed: int) -> list[Op]:
    rng = random.Random(f"solve-scale/{seed}")
    names = Names(rng)
    ops: list[Op] = []
    for n in EQ_CHAIN_SIZES:
        ops += [equation_chain(_shape("eq", n, v), names, n) for v in range(_variants(n))]
    for n in FLAT_SIMPLIFY_SIZES:
        # half the variants: these are the cheapest simplify inputs, and
        # with more of them the median would fall between two size groups
        for clash in (False, True):
            variants = max(1, _variants(n) // 2)
            ops += [flat_sorts(_shape("fs", n, clash, v), names, n, clash) for v in range(variants)]
    for n in AGREE_COUNTS:
        for clash in (False, True):
            ops.append(path_agreements(_shape("ag", n, clash), names, n, clash))
    for n in ENTAIL_SIZES:
        for ok in (True, False):
            ops += [chain_entailment(_shape("en", n, ok, v), names, n, ok) for v in range(_variants(n))]
    for n in FLAT_DECIDE_SIZES:
        ops += [flat_decide(_shape("fd", n, v), names, n, False) for v in range(_variants(n))]
    for n in FLAT_DECIDE_CLASH_SIZES:
        ops += [flat_decide(_shape("fc", n, v), names, n, True) for v in range(_variants(n))]
    ops += probes(names, ("witness", "evaluate"))
    _shape("solve-scale", "order").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# models: witnesses and bounded evaluation


def sorted_chain(rng: random.Random, names: Names, n: int) -> Op:
    """n edges over n+1 nodes of one sort: the minimal tree has n+1 nodes."""
    (f,), (s,) = names.feats(1), names.sorts(1)
    atoms = [f"{f}(x{i}, x{i + 1})" for i in range(n)] + [f"{s}(x{i})" for i in range(n + 1)]
    rng.shuffle(atoms)
    bound = ", ".join(f"x{i}" for i in range(1, n + 1))
    text = f"exists {bound}. ({_conj(atoms)})"
    return Op("witness", "chain", n, text, ("chain", f, s, n))


def uniform_cycle(rng: random.Random, names: Names, n: int) -> Op:
    """A cycle whose nodes all carry one sort is the one-node tree s[f->self]."""
    (f,), (s,) = names.feats(1), names.sorts(1)
    atoms = [f"{f}(x{i}, x{(i + 1) % n})" for i in range(n)] + [f"{s}(x{i})" for i in range(n)]
    rng.shuffle(atoms)
    bound = ", ".join(f"x{i}" for i in range(1, n))
    text = f"exists {bound}. ({_conj(atoms)})"
    return Op("witness", "uniform-cycle", n, text, ("cycle", f, s, 1))


def marked_cycle(rng: random.Random, names: Names, n: int) -> Op:
    """A cycle with one sorted node: no two positions are bisimilar, so
    the witness for x0 has exactly n nodes."""
    (f,), (s,) = names.feats(1), names.sorts(1)
    atoms = [f"{f}(x{i}, x{(i + 1) % n})" for i in range(n)] + [f"{s}(x0)"]
    rng.shuffle(atoms)
    bound = ", ".join(f"x{i}" for i in range(1, n))
    text = f"exists {bound}. ({_conj(atoms)})"
    return Op("witness", "marked-cycle", n, text, ("cycle", f, s, n))


def random_model_conjunction(rng: random.Random, names: Names) -> Op:
    """Atoms read off a random deterministic graph, so a model exists.

    Variables map to graph nodes; a variable mapped to an already used
    node yields an equation.  Free variables are the ones the checker
    sees in the witness; bound ones are reachable from them by edges.
    """
    sorts, feats = names.sorts(3), names.feats(3)
    k = rng.randint(2, 6)
    label = {i: rng.choice(sorts) for i in range(k)}
    edges = {}
    for i in range(1, k):
        edges[(rng.randrange(i), rng.choice(feats))] = i
    for _ in range(rng.randint(0, k)):
        edges[(rng.randrange(k), rng.choice(feats))] = rng.randrange(k)
    node_vars: dict[int, list[str]] = {i: [f"x{i}"] for i in range(k)}
    extra = 0
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(k)
        node_vars[i].append(f"e{extra}")
        extra += 1
    atoms = []
    for (src, f), dst in edges.items():
        atoms.append(("feat", f, rng.choice(node_vars[src]), rng.choice(node_vars[dst])))
    for i in range(k):
        if rng.random() < 0.7:
            atoms.append(("sort", label[i], rng.choice(node_vars[i])))
        vs = node_vars[i]
        for a, b in zip(vs, vs[1:]):
            atoms.append(("eq", a, b))
    rng.shuffle(atoms)
    # bind what the edges reach from x0: the witness for the free
    # variables then determines every bound one
    reached, frontier = {"x0"}, ["x0"]
    while frontier:
        v = frontier.pop()
        for a in atoms:
            if a[0] == "feat" and a[2] == v and a[3] not in reached:
                reached.add(a[3])
                frontier.append(a[3])
    bound = sorted(reached - {"x0"})
    text = _conj(basic_atoms_text(atoms))
    if bound:
        text = f"exists {', '.join(bound)}. ({text})"
    return Op("witness", "random-conj", len(atoms), text, ("conj", atoms, tuple(bound)))


def evaluation_sentences(rng: random.Random, names: Names, count: int) -> list[Op]:
    """Closed sentences with a known truth value.

    The bounded evaluator is sound, not complete: it may answer unknown
    (None), never the opposite of the truth.  Nested quantifiers share
    one candidate budget, so they mostly end unknown after spending it
    all; single quantifiers reach a definite answer among the first
    candidates.
    """
    ops = []
    for i in range(count):
        s1, s2, s3 = names.sorts(3)
        f, g = names.feats(2)
        kind = i % 5
        if kind == 0:
            # acceptance criterion 8: an existential with a planted clash
            filler = [
                rng.choice([f"{f}(x{a}, x{b})", f"{g}(x{a}, x{b})", f"{s3}(x{a})"])
                for a, b in ((rng.randrange(3), rng.randrange(3)) for _ in range(3))
            ]
            atoms = filler + [f"{f}(x0, x1)", f"{f}(x0, x2)", f"{s1}(x1)", f"{s2}(x2)"]
            rng.shuffle(atoms)
            text, truth, domain, bound = f"exists x0, x1, x2. ({_conj(atoms)})", False, "tree", 4
        elif kind == 1:
            text = f"forall x, y, z. ({f}(x, y) & {f}(x, z) -> y = z)"
            truth, domain, bound = True, "graph", 3
        elif kind == 2:
            text = f"exists x. ({s1}(x) & {f}(x, x))"
            truth, domain, bound = True, rng.choice(["tree", "graph"]), 3
        elif kind == 3:
            text = f"forall x. ({s1}(x) | {s2}(x))"
            truth, domain, bound = False, "tree", 4
        else:
            text = f"forall x. exists y. ({f}(x, y) & {s1}(y))"
            truth, domain, bound = False, "tree", 3
        ops.append(Op("evaluate", f"eval-{domain}", bound, text, (domain, bound, truth)))
    return ops


def evaluation_probes(names: Names, count: int) -> list[Op]:
    """A valid one-quantifier sentence at node bound 3: every candidate
    is tried and none refutes it.  All alike, so their median is steady."""
    ops = []
    for _ in range(count):
        (s,) = names.sorts(1)
        ops.append(Op("evaluate", "eval-probe", 3, f"forall x. ({s}(x) | ~{s}(x))", ("tree", 3, True)))
    return ops


# Every workload reports every command's latency, so each also runs a
# fixed number of small "probe" operations of the commands it is not
# about; they cost a few percent of its time.
PROBES = 24


def probes(names: Names, commands: tuple[str, ...]) -> list[Op]:
    """Probe shapes are fixed and alike within a command, so that their
    median does not sit between two kinds of input; the seed respells
    them."""
    rng = _shape("probes")
    ops: list[Op] = []
    if "decide" in commands:
        for f in names.feats(PROBES):
            text = f"forall x, y, z. ({f}(x, y) & {f}(x, z) -> y = z)"
            ops.append(Op("decide", "law-probe", 3, text, VALID))
    if "simplify" in commands:
        ops += [equation_chain(rng, names, 10) for _ in range(PROBES)]
    if "entail" in commands:
        ops += [chain_entailment(rng, names, 8, i % 2 == 0) for i in range(PROBES)]
    if "witness" in commands:
        ops += [random_model_conjunction(rng, names) for _ in range(PROBES)]
    if "evaluate" in commands:
        ops += evaluation_probes(names, PROBES)
    return ops


# Witness time grows about twofold per node; chains of 12 and 13 would
# sit too close to the per-operation limit to classify steadily.  The
# ladders are dense enough that witness_tail_ms falls between two of
# their points, not between a ladder point and a random input.
WITNESS_CHAIN_SIZES = (4, 6, 7, 8, 9, 10, 11, 14)
MARKED_CYCLE_SIZES = (4, 6, 7, 8, 9, 10, 12)
UNIFORM_CYCLE_SIZES = (4, 16, 64, 256)


def models(seed: int) -> list[Op]:
    rng = random.Random(f"models/{seed}")
    names = Names(rng)
    ops: list[Op] = []
    ops += [sorted_chain(_shape("chain", n), names, n) for n in WITNESS_CHAIN_SIZES]
    ops += [marked_cycle(_shape("marked", n), names, n) for n in MARKED_CYCLE_SIZES]
    ops += [uniform_cycle(_shape("uniform", n), names, n) for n in UNIFORM_CYCLE_SIZES]
    ops += [random_model_conjunction(rng, names) for _ in range(150)]
    ops += evaluation_sentences(rng, names, 80)
    ops += probes(names, ("decide", "simplify", "entail"))
    _shape("models", "order").shuffle(ops)
    return ops


WORKLOADS = {"qe-mix": qe_mix, "solve-scale": solve_scale, "models": models}
