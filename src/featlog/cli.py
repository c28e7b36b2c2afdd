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

Every command prints through ``_emit``: its text lines, or with
``--format json`` one object in the layout of ``json.dumps(indent=2,
sort_keys=True)``, written member by member as JSON text.  Scalars go
through ``json.dumps``; the ``witness`` member is the text
``witness_to_json_text`` writes for the default format, indented one
level, and its names are ASCII-escaped, so no string in it holds a raw
newline.  No indenting encoder runs, so a call leaves no reference
cycle behind.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from typing import Callable

from .core import Bottom, Formula, Symbols, atom_vars
from .models import pool_satisfies, witness_pool, witness_to_json_text
from .prime import PrimeFormula, _prime_of_atoms, prime_entails, simplify_epc
from .qe import DEFAULT_MAX_DNF_CLAUSES, SATISFIABLE, UNSATISFIABLE, VALID, ResourceLimit, classify
from .solve import basic_simplify, conjunction_atoms, formula_to_basic
from .textio import ParseError, expand_sugar, parse_formula, print_formula


def _read(source: str) -> str:
    """The input, strict UTF-8 with universal newlines, without one
    leading byte-order mark, whatever its source."""
    if source == "-":
        stream = sys.stdin
        # a stream without reconfigure (an io.StringIO), or one the host
        # process has already read from, is read as it is
        try:
            stream.reconfigure(encoding="utf-8", errors="strict", newline=None)
        except (AttributeError, io.UnsupportedOperation):
            pass
        text = stream.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")


def _emit(cfg: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """Print ``lines``, or with ``--format json`` the command's name and
    the payload as one object, as the module docstring says."""
    if cfg.format != "json":
        print("\n".join(lines))
        return
    payload["command"] = cfg.command
    items = [
        f'  "{key}": ' + (value.replace("\n", "\n  ") if key == "witness" else json.dumps(value))
        for key, value in sorted(payload.items())
    ]
    print("{\n" + ",\n".join(items) + "\n}")


def _cmd_decide(cfg: argparse.Namespace, sym: Symbols, text: str) -> int:
    """classify a formula (validity / satisfiability)"""
    verdict = classify(parse_formula(sym, text), cfg.max_dnf_clauses)
    payload = {"verdict": verdict.kind}
    # only a satisfiable verdict carries a residue
    if verdict.residue is not None:
        payload["residue"] = print_formula(verdict.residue)
    _emit(cfg, payload, list(payload.values()))
    return 0


def _cmd_simplify(cfg: argparse.Namespace, sym: Symbols, text: str) -> int:
    """solve a conjunctive formula or print the decision residue"""
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
    else:
        verdict = classify(phi, cfg.max_dnf_clauses)
        if verdict.residue is not None:
            out = print_formula(verdict.residue)
        else:
            out = "true" if verdict.kind == VALID else "false"
    _emit(cfg, {"result": out}, [out])
    return 0


def _read_epc(command: str, sym: Symbols, text: str, walk: Callable[[Formula], object]):
    """Parse and expand one existential conjunction and pass it to
    ``walk``: what it returns, or None once the input is reported as not
    being one."""
    phi = expand_sugar(parse_formula(sym, text))
    try:
        return walk(phi)
    except ValueError:
        print(
            f"{command} inputs must use only atoms other than undef, '&', and 'exists'",
            file=sys.stderr,
        )
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
    """decide entailment between two existential conjunctions"""
    parts = _split_formulae(text)
    if len(parts) != 2:
        print("entail needs exactly two formulae separated by ';'", file=sys.stderr)
        return 2
    primes = []
    for part in parts:
        solved = _read_epc("entail", sym, part, simplify_epc)
        if solved is None:
            return 2
        primes.append(solved)
    lhs, rhs = primes
    if isinstance(lhs, Bottom):
        entailed = True
    elif isinstance(rhs, Bottom):
        entailed = False
    else:
        entailed = prime_entails(lhs, rhs)
    _emit(cfg, {"entailed": entailed}, ["ENTAILED" if entailed else "NOT-ENTAILED"])
    return 0


def _cmd_witness(cfg: argparse.Namespace, sym: Symbols, text: str) -> int:
    """print a JSON witness for a satisfiable existential conjunction"""
    # simplify_epc's walk, its atoms kept: their variables but the
    # quantified ones are the input's free variables
    walked = _read_epc("witness", sym, text, lambda phi: conjunction_atoms(phi, True))
    if walked is None:
        return 2
    beta = walked if isinstance(walked, Bottom) else _prime_of_atoms(*walked)
    if isinstance(beta, Bottom):
        _emit(cfg, {"verdict": UNSATISFIABLE}, [UNSATISFIABLE])
        return 0
    atoms, bound = walked
    default_sort = (
        sym.sort(cfg.default_sort) if cfg.default_sort else sym.fresh_sort("Default")
    )
    pool = witness_pool(beta, default_sort)
    if not pool_satisfies(pool, beta):
        raise AssertionError("the witness does not satisfy its prime")
    # a free variable the prime dropped is unconstrained: any tree will do
    free = {v for a in atoms for v in atom_vars(a)}.difference(bound)
    roots = {v: pool.node[v] if v in beta.free_vars else pool.leaf for v in free}
    witness = witness_to_json_text(pool, roots)
    _emit(cfg, {"verdict": SATISFIABLE, "witness": witness}, [witness])
    return 0


# each command's handler, whose docstring is the command's help
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
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
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
        print("--max-dnf-clauses must be positive", file=sys.stderr)
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
