"""Full first-order decisions: validity, satisfiability, residues.

Any formula, with arbitrary connectives and quantifiers, reduces to a
quantifier-free Boolean combination of prime formulae over the same
free variables.  Closed formulae therefore fold to a constant, and the
theory of feature trees is decided completely.
"""

from featlog import (
    Symbols,
    classify,
    parse_formula,
    print_formula,
)

sym = Symbols()


def show(text: str) -> None:
    verdict = classify(parse_formula(sym, text))
    line = f"{text:68} : {verdict.kind}"
    if verdict.residue is not None and verdict.kind == "SATISFIABLE":
        line += f"   residue: {print_formula(verdict.residue)}"
    print(line)


# Closed formulae are valid or invalid.
show("exists x, y, z. (f(x,y) & A(y) & g(x,z) & B(z))")
show("forall x, y, z. (f(x,y) & f(x,z) -> y = z)")
show("forall x. (A(x) & B(x) -> false)")
show("exists x. (A(x) & B(x))")

# Exclusions interact with quantifiers; cyclic descriptions are fine.
show("forall u, z. exists x, y. (f(x,y) & g(y,u) & h(y,z) & undef(y,f))")
show("forall z. exists x, y. (f(x,y) & g(y,x) & h(y,z) & undef(y,f))")

# A value cannot lack an attribute it has.
show("exists y. (f(x, y) & undef(x, f))")

# Open formulae report on satisfiability and keep a residue.
show("A(x) & B(x)")
show("A(x) & f(x, y)")
show("forall y. (f(x, y) -> A(y))")
