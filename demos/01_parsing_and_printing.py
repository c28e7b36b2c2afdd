"""A tour of the concrete syntax: parsing, sugar, and printing.

Feature descriptions talk about record-like values.  Sorts (upper-case)
classify values, features (lower-case) are functional attributes, and
variables (lower-case) name values.  Run this file directly; it prints
what it does at every step.
"""

from featlog import ParseError, Symbols, expand_sugar, parse_formula, print_formula

sym = Symbols()

# A description of x: a woman whose father and husband share an age.
text = """
exists y, fa, hu. (
    Woman(x) &
    father(x, fa) & Engineer(fa) & age(fa, y) &
    husband(x, hu) & Painter(hu) & age(hu, y)
)
"""
phi = parse_formula(sym, text)
print("parsed: ", print_formula(phi))

# Printing is deterministic and reparses to the same tree.
assert parse_formula(sym, print_formula(phi)) == phi

# Sugar: exclusions, sort-at-path, and path agreement.  The variables an
# expansion introduces are bound by it and spelled with the reserved "_"
# prefix; each expansion numbers them from 1, and the session is not
# touched.
for sweet in [
    "undef(x, f)",          # f is undefined on x
    "Engineer@x.father",    # the value at x.father has sort Engineer
    "x.father.age = x.husband.age",  # the two paths agree
]:
    parsed = parse_formula(sym, sweet)
    expanded = expand_sugar(parsed)
    print(f"{sweet!r:40} expands to {print_formula(expanded)}")

# Parse errors carry byte spans into the input.
try:
    parse_formula(sym, "Woman(x & A(y)")
except ParseError as err:
    print("error:  ", err)
