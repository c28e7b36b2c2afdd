"""Solving conjunctions of constraints into solved forms.

The basic simplifier rewrites any conjunction of sort constraints,
feature constraints, and equations into an equivalent solved formula,
or into false when the constraints clash.  Solved formulae split into a
normalizer (equations whose left sides are eliminated) and a graph.
"""

from featlog import (
    Bottom,
    SolvedClause,
    Symbols,
    basic_simplify,
    constrained_vars,
    formula_to_basic,
    parameters,
    parse_formula,
    print_formula,
    solved_to_formula,
)

sym = Symbols()


def solve(text: str) -> None:
    basic = formula_to_basic(parse_formula(sym, text))
    solved = basic_simplify(basic)
    if isinstance(solved, Bottom):
        print(f"{text:55} => false")
    else:
        print(f"{text:55} => {print_formula(solved_to_formula(solved))}")


# Functional features force targets together.
solve("f(x, y) & f(x, z)")

# Distinct sorts are disjoint.
solve("A(x) & B(x)")

# Equations substitute through the rest and stay as bindings.
solve("x = y & A(x) & f(x, z)")

# Trivial equations vanish; duplicate constraints collapse.
solve("x = x & A(y) & A(y)")

# A cyclic description is perfectly solvable.
solve("f(x, y) & g(y, x) & A(x) & B(y)")

# Constrained variables carry a sort, an edge, or an exclusion;
# the remaining variables are parameters.
basic = formula_to_basic(parse_formula(sym, "f(x, y) & A(x) & g(x, z)"))
solved = basic_simplify(basic)
clause = SolvedClause(solved.graph)
print("constrained:", sorted(v.name for v in constrained_vars(clause)))
print("parameters: ", sorted(v.name for v in parameters(clause)))
