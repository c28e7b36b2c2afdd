"""Existential conjunctions, their projections, and entailment.

An existentially quantified solved formula whose bound variables are
reachable from free ones is called prime.  A prime formula is
equivalent to its projection, a finite set of path constraints over the
free variables alone, and entailment between primes reduces to checking
the right-hand projection against the left-hand closure.
"""

from featlog import (
    Symbols,
    access_function,
    expand_sugar,
    parse_formula,
    prime_entails,
    projection,
    simplify_epc,
)

sym = Symbols()


def prime_of(text: str):
    return simplify_epc(sym, expand_sugar(sym, parse_formula(sym, text)))


beta = prime_of("exists u. (f(x, u) & A(u) & g(u, y))")
print("prime:", beta)

# The prime is canonical, so u is bound as q0.  Each body variable is
# addressed by a rooted path from a free variable: q0 via x.f.
for var, rooted in sorted(access_function(beta).items(), key=lambda kv: kv[0].name):
    print(f"  access {var.name:4} via {rooted}")

# The projection spells the formula out as path constraints.
print("projection:")
for pi in projection(beta):
    print("  ", str(pi))

# Entailment is decided through projections.
cases = [
    ("f(x, y) & A(y)", "exists z. f(x, z)"),
    ("exists z. f(x, z)", "f(x, y) & A(y)"),
    ("f(x, y) & g(y, x)", "exists u. exists v. (f(x, u) & g(u, v))"),
    ("A(x)", "B(x)"),
]
for left, right in cases:
    verdict = prime_entails(prime_of(left), prime_of(right))
    print(f"{left!r:30} entails {right!r:45} : {verdict}")
