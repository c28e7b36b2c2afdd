"""Feature trees, feature graphs, witnesses, and exact evaluation.

Values are rooted, feature-deterministic graphs.  Trees carry a sort on
every node and are identified by their unfoldings (a one-node loop and
a two-node cycle with the same labels are the same tree); graphs keep
their node structure and may leave nodes unlabeled.  Every satisfiable
existential conjunction has a tree witness that can be checked exactly.
"""

import json

from featlog import (
    Path,
    Symbols,
    evaluate,
    expand_sugar,
    feature_tree,
    parse_formula,
    satisfies_prime,
    simplify_epc,
    single_node_tree,
    tree_subtree,
    valuation_to_json,
    value_to_json,
    witness_prime,
)

sym = Symbols()
A = sym.sort("A")
f = sym.feat("f")

# An infinite (rational) tree as a finite cyclic representation.
loop = feature_tree(0, {0: A}, {(0, f): 0})
print("self-loop tree:", json.dumps(value_to_json(loop)))
print("subtree at f.f.f is the same value:", tree_subtree(loop, Path((f, f, f))) == loop)

two_node = feature_tree(0, {0: A, 1: A}, {(0, f): 1, (1, f): 0})
print("two-node cycle denotes the same tree:", two_node == loop)

# Witness a cyclic description.
text = "exists y. (f(x, y) & g(y, x) & A(x) & B(y))"
beta = simplify_epc(sym, expand_sugar(sym, parse_formula(sym, text)))
default = sym.fresh_sort("Dflt")
val = witness_prime(beta, default)
print("witness satisfies the description:", satisfies_prime(val, beta))
print(json.dumps(valuation_to_json({v: val[v] for v in beta.free_vars}), indent=2))

# Evaluation of quantifier-free formulae.
x = sym.var("x")
alpha = {x: single_node_tree(A)}
print("A(x) holds:", evaluate(sym, "tree", alpha, parse_formula(sym, "A(x)")))
print("undef(x, f) holds:", evaluate(sym, "tree", alpha, parse_formula(sym, "undef(x, f)")))

# Quantified evaluation is exact too, through quantifier elimination:
# None only when elimination exceeds its clause bound (ResourceLimit).
phi = parse_formula(sym, "exists y. f(x, y)")
rich = feature_tree(0, {0: A, 1: A}, {(0, f): 1})
print("exists y. f(x, y) with an f edge:", evaluate(sym, "tree", {x: rich}, phi))
print("exists y. f(x, y) on a leaf:", evaluate(sym, "tree", alpha, phi))
phi = parse_formula(sym, "forall y. A(y)")
print("forall y. A(y):", evaluate(sym, "tree", {}, phi))
phi = parse_formula(sym, "forall y. exists z. (f(z, y) & A(z))")
print("forall y. exists z. (f(z, y) & A(z)):", evaluate(sym, "tree", {}, phi))
