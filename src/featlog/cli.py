"""Command-line driver: decide, simplify, entail, witness.

Each subcommand reads one input (a file path, or ``-`` for standard
input) holding a single formula; ``entail`` expects two formulae
separated by a ``;`` outside ``#`` comments.  Verdicts are printed as
fixed upper-case tokens so scripts can match on them.  Exit codes: 0
verdict produced, 2 parse or validation error, 3 resource limit: a
normal form or search past ``--max-dnf-clauses``, or a residue or solved
form whose text passes ``textio.MAX_PRINT_CHARS`` characters ("resource
limit: printing builds more than 10000000 characters").

Residues and solved forms (the latter as primes with nothing bound) are
printed by ``print_formula`` straight from the hash-consed DAG, each
node's text built once, so printing takes time linear in the characters
it builds, which the bound caps.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys

from .core import Bottom, Formula, Symbols, free_vars
from .models import pool_satisfies, witness_pool, witness_to_json, witness_to_json_text
from .prime import PrimeFormula, prime_entails, simplify_epc
from .qe import (
    DEFAULT_MAX_DNF_CLAUSES,
    INVALID,
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    ResourceLimit,
    classify,
)
from .solve import basic_simplify, formula_to_basic
from .textio import ParseError, expand_sugar, parse_formula, print_formula


def _read(source: str) -> str:
    if source == "-":
        stream = sys.stdin
        # strict UTF-8 with universal newlines, as a file is read; a
        # stream without reconfigure (an io.StringIO), or one the host
        # process has already read from, is read as it is
        try:
            stream.reconfigure(encoding="utf-8", errors="strict", newline=None)
        except (AttributeError, io.UnsupportedOperation):
            pass
        return stream.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of a payload built
    from maps with string keys, lists and scalars.

    The standard library indents through closures that call each other,
    a reference cycle on every call; this recursion is a plain function.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
    elif isinstance(value, list) and value:
        items = [_json_text(v, inner) for v in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + inner + f",{inner}".join(items) + indent + brackets[1]


def _emit(cfg: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if cfg.format == "json":
        print(_json_text(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_decide(cfg: argparse.Namespace, sym: Symbols, text: str) -> int:
    phi = parse_formula(sym, text)
    verdict = classify(phi, cfg.max_dnf_clauses)
    payload: dict = {"command": "decide", "verdict": verdict.kind}
    lines = [verdict.kind]
    if verdict.kind == SATISFIABLE and verdict.residue is not None:
        residue = print_formula(verdict.residue)
        payload["residue"] = residue
        lines.append(residue)
    _emit(cfg, payload, lines)
    return 0


def _cmd_simplify(cfg: argparse.Namespace, sym: Symbols, text: str) -> int:
    # a conjunction of atoms holds no sugar; anything else classify expands
    phi = parse_formula(sym, text)
    try:
        basic = formula_to_basic(phi)
    except ValueError:
        basic = None
    if basic is not None:
        solved = basic_simplify(basic)
        if isinstance(solved, Bottom):
            out = "false"
        else:
            # a solved formula prints as a prime with nothing bound
            out = print_formula(PrimeFormula(frozenset(), solved))
        _emit(cfg, {"command": "simplify", "result": out}, [out])
        return 0
    verdict = classify(phi, cfg.max_dnf_clauses)
    if verdict.kind in (VALID, INVALID):
        out = "true" if verdict.kind == VALID else "false"
    elif verdict.kind == UNSATISFIABLE:
        out = "false"
    else:
        assert verdict.residue is not None
        out = print_formula(verdict.residue)
    _emit(cfg, {"command": "simplify", "result": out}, [out])
    return 0


def _solve_epc(
    command: str, sym: Symbols, text: str
) -> tuple[Formula, PrimeFormula | Bottom] | None:
    """Parse, expand and solve one existential conjunction: the expanded
    formula and its prime, or false; None once the input is reported as
    not being one."""
    phi = expand_sugar(parse_formula(sym, text))
    try:
        return phi, simplify_epc(phi)
    except ValueError:
        print(f"{command} inputs must use only atoms, '&', and 'exists'", file=sys.stderr)
        return None


# a ';' separates the formulae of an entailment, except inside a comment
_SEPARATOR_RE = re.compile(r"#[^\n]*|;")


def _split_formulae(text: str) -> list[str]:
    """The parts of ``text`` between its separators, each after as many
    blanks as it has characters before it, so its spans count from the
    start of ``text``."""
    cuts = [m.start() for m in _SEPARATOR_RE.finditer(text) if m.group() == ";"]
    bounds = [-1, *cuts, len(text)]
    return [" " * (a + 1) + text[a + 1 : b] for a, b in zip(bounds, bounds[1:])]


def _cmd_entail(cfg: argparse.Namespace, sym: Symbols, text: str) -> int:
    parts = _split_formulae(text)
    if len(parts) != 2:
        print("entail needs exactly two formulae separated by ';'", file=sys.stderr)
        return 2
    primes = []
    for part in parts:
        solved = _solve_epc("entail", sym, part)
        if solved is None:
            return 2
        primes.append(solved[1])
    lhs, rhs = primes
    if isinstance(lhs, Bottom):
        entailed = True
    elif isinstance(rhs, Bottom):
        entailed = False
    else:
        entailed = prime_entails(lhs, rhs)
    token = "ENTAILED" if entailed else "NOT-ENTAILED"
    _emit(cfg, {"command": "entail", "entailed": entailed}, [token])
    return 0


def _cmd_witness(cfg: argparse.Namespace, sym: Symbols, text: str) -> int:
    solved = _solve_epc("witness", sym, text)
    if solved is None:
        return 2
    phi, beta = solved
    if isinstance(beta, Bottom):
        _emit(cfg, {"command": "witness", "verdict": UNSATISFIABLE}, [UNSATISFIABLE])
        return 0
    default_sort = (
        sym.sort(cfg.default_sort) if cfg.default_sort else sym.fresh_sort("Default")
    )
    pool = witness_pool(beta, default_sort)
    if not pool_satisfies(pool, beta):
        raise AssertionError("the witness does not satisfy its prime")
    # a free variable the prime dropped is unconstrained: any tree will do
    roots = {v: pool.node[v] if v in beta.free_vars else pool.leaf for v in free_vars(phi)}
    if cfg.format == "json":
        witness = witness_to_json(pool, roots)
        _emit(cfg, {"command": "witness", "verdict": SATISFIABLE, "witness": witness}, [])
    else:
        print(witness_to_json_text(pool, roots))
    return 0


_COMMANDS = {
    "decide": _cmd_decide,
    "simplify": _cmd_simplify,
    "entail": _cmd_entail,
    "witness": _cmd_witness,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="featlog",
        description="Decide feature descriptions over sorts and features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "decide": "classify a formula (validity / satisfiability)",
        "simplify": "solve a conjunctive formula or print the decision residue",
        "entail": "decide entailment between two existential conjunctions",
        "witness": "print a JSON witness for a satisfiable existential conjunction",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file, or - for standard input")
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="print the result as text lines or as one JSON object (default: text)",
        )
        p.add_argument(
            "--max-dnf-clauses",
            type=int,
            default=DEFAULT_MAX_DNF_CLAUSES,
            metavar="N",
            help="bound on the clauses of a normal form a quantifier block has to build "
            "and on the branches of the open-input search; past it, exit 3 "
            f"(default: {DEFAULT_MAX_DNF_CLAUSES})",
        )
        p.add_argument(
            "--default-sort",
            default=None,
            metavar="NAME",
            help="sort of the witness nodes the input leaves unsorted "
            "(default: a fresh internal sort)",
        )
    return parser


# built on the first call to main, not on import; parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.max_dnf_clauses <= 0:
        print("counts must be positive", file=sys.stderr)
        return 2
    try:
        text = _read(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    sym = Symbols()
    try:
        return _COMMANDS[args.command](args, sym, text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: formula is nested too deeply", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
