"""Known-answer checks for featlog's outputs.

Each check reads what a user would read (CLI stdout, or the evaluator's
return value) and compares it with the answer the workload built in.
Nothing here calls featlog.
"""

from __future__ import annotations

import json
import re

from workloads import Closure, Op

_ATOM = re.compile(
    r"\A(?:(?P<l>\w+) = (?P<r>\w+)|(?P<f>[a-z]\w*)\((?P<s>\w+), (?P<d>\w+)\)"
    r"|(?P<S>[A-Z]\w*)\((?P<v>\w+)\))\Z"
)


def parse_solved(text: str) -> list[tuple] | None:
    """Atoms of a printed conjunction of basic atoms, or None."""
    if text == "true":
        return []
    atoms = []
    for part in text.split(" & "):
        m = _ATOM.match(part)
        if m is None:
            return None
        if m["l"]:
            atoms.append(("eq", m["l"], m["r"]))
        elif m["f"]:
            atoms.append(("feat", m["f"], m["s"], m["d"]))
        else:
            atoms.append(("sort", m["S"], m["v"]))
    return atoms


def bisimilarity(sorts: dict, edges: dict) -> dict:
    """Class id per node: equal ids denote equal rational trees."""
    block = {n: s for n, s in sorts.items()}
    count = len(set(block.values()))
    while True:
        sig = {
            n: (block[n], tuple(sorted((f, block[d]) for (m, f), d in edges.items() if m == n)))
            for n in sorts
        }
        ids: dict = {}
        block = {n: ids.setdefault(sig[n], len(ids)) for n in sorts}
        if len(ids) == count:
            return block
        count = len(ids)


def _check_witness(out: str, expect: tuple) -> bool:
    w = json.loads(out)
    sorts = {n["id"]: n.get("sort") for n in w["nodes"]}
    edges = {(e["src"], e["feature"]): e["dst"] for e in w["edges"]}
    where = w["vars"]
    if expect[0] in ("chain", "cycle"):
        _, f, s, length = expect
        nodes = length + 1 if expect[0] == "chain" else length
        if len(sorts) != nodes or "x0" not in where:
            return False
        walk = [where["x0"]]
        for _ in range(length):
            if (walk[-1], f) not in edges:
                return False
            walk.append(edges[(walk[-1], f)])
        if expect[0] == "chain":
            # every node of one sort, and the last one a leaf
            return all(sorts[n] == s for n in walk) and not any(
                src == walk[-1] for src, _ in edges
            )
        # the walk closes after exactly `length` distinct nodes, and only
        # the root carries the sort
        return (
            walk[-1] == walk[0]
            and len(set(walk)) == length
            and sorts[walk[0]] == s
            and all(sorts[n] != s for n in walk[1:-1])
        )
    _, atoms, bound = expect
    at = {v: n for v, n in where.items()}
    if any(v not in at for a in atoms for v in _vars(a) if v not in bound):
        return False
    changed = True
    while changed:
        changed = False
        for a in atoms:
            if a[0] == "feat" and a[2] in at and a[3] not in at:
                dst = edges.get((at[a[2]], a[1]))
                if dst is None:
                    return False
                at[a[3]] = dst
                changed = True
    if any(v not in at for v in bound):
        return False
    cls = bisimilarity(sorts, edges)
    for a in atoms:
        if a[0] == "sort" and sorts[at[a[2]]] != a[1]:
            return False
        if a[0] == "eq" and cls[at[a[1]]] != cls[at[a[2]]]:
            return False
        if a[0] == "feat":
            dst = edges.get((at[a[2]], a[1]))
            if dst is None or cls[dst] != cls[at[a[3]]]:
                return False
    return True


def _vars(a: tuple) -> tuple:
    return a[2:] if a[0] in ("feat", "sort") else a[1:]


def check_cli(op: Op, out: str) -> tuple[str, bool]:
    """(verdict token, answer is right) for one CLI operation's stdout."""
    text = out.strip()
    first = text.split("\n", 1)[0]
    if op.command in ("decide", "entail"):
        return first, first == op.expect
    if op.command == "witness":
        if first == "UNSATISFIABLE":
            return first, False
        try:
            return "SATISFIABLE", _check_witness(text, op.expect)
        except (ValueError, KeyError):
            return "MALFORMED", False
    # simplify
    if isinstance(op.expect, str):
        return first, (first == "false") == (op.expect == "false")
    want = Closure(op.expect)
    if want.clash:
        return first, first == "false"
    got = parse_solved(first)
    if got is None:
        return first, False
    return "SOLVED", Closure(got).signature() == want.signature()


def check_evaluate(op: Op, result) -> tuple[str, bool]:
    """The bounded evaluator is sound: it may say unknown, never the
    opposite of the known truth value."""
    truth = op.expect[2]
    return str(result), result is None or result is truth
