"""Outside-in spans around featlog's public layer functions.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (name, start, end, parent) and a few per-call counts.
featlog modules bind imported names locally (``featlog.qe.prime_conj``
is the same object as ``featlog.prime.prime_conj``), so the wrapper is
bound under every name, in every ``featlog`` module, that holds the
original; otherwise internal calls would bypass the span.  Spans live
in one flat array in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

# (module, function) pairs, named by layer as in the metric names.
TRACED = (
    ("textio", "parse_formula"),
    ("textio", "expand_sugar"),
    ("textio", "print_formula"),
    ("solve", "basic_simplify"),
    ("paths", "closure_contains"),
    ("paths", "prime_closure_contains"),
    ("prime", "prime_conj"),
    ("prime", "mk_prime_exists"),
    ("prime", "canonicalize"),
    ("prime", "projection"),
    ("prime", "simplify_epc"),
    ("prime", "prime_entails"),
    ("qe", "classify"),
    ("qe", "to_prime_dnf"),
    ("qe", "eliminate_clause"),
    ("qe", "eliminate_neg"),
    ("qe", "is_joker"),
    ("models", "feature_tree"),
    ("models", "feature_graph"),
    ("models", "witness_prime"),
    ("models", "satisfies_prime"),
    ("models", "evaluate"),
    ("cli", "main"),
)
# Generators get no span: their work happens while the caller iterates,
# inside the caller's span.  They are counted instead.
COUNTED_GENERATORS = (("models", "enumerate_values"),)


def _observers(featlog) -> dict:
    """Per-function counts taken from arguments and results."""
    Bottom = featlog.Bottom

    def parse(c, args, result):
        c["textio.parse_formula.chars_in"] += len(args[1])

    def simplify(c, args, result):
        c["solve.basic_simplify.atoms_in"] += len(getattr(args[0], "atoms", ()))
        c["solve.basic_simplify.bottoms"] += isinstance(result, Bottom)

    def conj(c, args, result):
        c["prime.prime_conj.bottoms"] += isinstance(result, Bottom)

    def projection(c, args, result):
        c["prime.projection.constraints_out"] += len(result)

    def dnf(c, args, result):
        c["qe.to_prime_dnf.clauses_out"] += len(result)

    def joker(c, args, result):
        c["qe.is_joker.trues"] += bool(result)

    def tree(c, args, result):
        c["models.feature_tree.nodes_in"] += len(args[1])
        c["models.feature_tree.nodes_out"] += len(result.labels)

    def evaluate(c, args, result):
        c["models.evaluate.unknowns"] += result is None

    return {
        "textio.parse_formula": parse,
        "solve.basic_simplify": simplify,
        "prime.prime_conj": conj,
        "prime.projection": projection,
        "qe.to_prime_dnf": dnf,
        "qe.is_joker": joker,
        "models.feature_tree": tree,
        "models.evaluate": evaluate,
    }


class Tracer:
    def __init__(self, featlog):
        self.featlog = featlog
        self.names: list[str] = []
        # four slots per span: name id, parent span (-1 at top), start, end
        self.spans: array = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._undo: list[tuple] = []
        self._base_limit = sys.getrecursionlimit()

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn, observe):
        name_id = len(self.names)
        self.names.append(name)
        calls = f"{name}.calls"
        counts, stack, spans = self.counts, self._stack, self.spans
        clock = time.perf_counter
        limit_error = self.featlog.ResourceLimit
        base = self._base_limit
        set_limit = sys.setrecursionlimit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # One extend per span keeps the record whole even when a
            # timeout signal interrupts between statements.
            span = len(spans)
            spans.extend((name_id, stack[-1], clock(), 0.0))
            stack.append(span)
            # Each open span is one wrapper frame on the stack; granting
            # that many frames keeps "nested too deeply" where it is
            # untraced (expand_sugar and simplify_epc recurse).
            set_limit(base + len(stack))
            try:
                result = fn(*args, **kwargs)
            except limit_error:
                counts["qe.resource_limits"] += name == "qe.to_prime_dnf"
                raise
            finally:
                spans[span + 3] = clock()
                with contextlib.suppress(RecursionError):
                    set_limit(base + len(stack) - 1)
                stack.pop()
                counts[calls] += 1
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            for item in fn(*args, **kwargs):
                counts[f"{name}.yielded"] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Bind wrappers in place of the originals in every featlog module."""
        modules = [m for k, m in sys.modules.items() if k == "featlog" or k.startswith("featlog.")]
        observers = _observers(self.featlog)
        plan = [(m, f, False) for m, f in TRACED] + [(m, f, True) for m, f in COUNTED_GENERATORS]
        for mod_name, fn_name, is_gen in plan:
            original = getattr(sys.modules[f"featlog.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            if is_gen:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, observers.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        sys.setrecursionlimit(self._base_limit)

    # -- results ---------------------------------------------------------

    def end_operation(self) -> None:
        """Forget spans left open by an interrupted operation."""
        del self._stack[1:]
        sys.setrecursionlimit(self._base_limit)

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per span name, and the seconds top-level spans cover.

        A span's self time is its duration minus the durations of its
        direct children; spans of one thread nest strictly, so children
        never overlap one another.  A span an interrupt left open counts
        as empty.
        """
        spans = self.spans
        child: dict[int, float] = {}
        own = {name: 0.0 for name in self.names}
        top = 0.0
        for i in range(0, len(spans), 4):
            d = max(0.0, spans[i + 3] - spans[i + 2])
            p = int(spans[i + 1])
            if p >= 0:
                child[p] = child.get(p, 0.0) + d
            else:
                top += d
            own[self.names[int(spans[i])]] += d
        for p, d in child.items():
            own[self.names[int(spans[p])]] -= d
        return own, top

    def write(self, path) -> None:
        """Spans as tab-separated rows: name, parent row, start, end."""
        spans = self.spans
        t0 = spans[2] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent_row\tstart_s\tend_s\n")
            for i in range(0, len(spans), 4):
                p = int(spans[i + 1])
                fh.write(
                    f"{self.names[int(spans[i])]}\t{p // 4 if p >= 0 else -1}\t"
                    f"{spans[i + 2] - t0:.7f}\t{max(spans[i + 2], spans[i + 3]) - t0:.7f}\n"
                )
