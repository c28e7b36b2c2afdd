"""Deciding first-order feature descriptions over sorts and features.

The library solves, decides, and witnesses formulae built from sort
constraints A(x), feature constraints f(x, y), equations, and the full
first-order connectives and quantifiers, interpreted over feature trees
and feature graphs.
"""

from .core import (
    BOTTOM,
    EPS,
    TOP,
    Agree,
    And,
    Atomic,
    BasicFormula,
    Bottom,
    Eq,
    Excl,
    Exists,
    FeatC,
    FeatId,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Path,
    SortAt,
    SortC,
    SortId,
    Symbols,
    Top,
    VarId,
    conj,
    free_vars,
)
from .models import (
    FeatureGraph,
    FeatureTree,
    WitnessPool,
    enumerate_values,
    evaluate,
    feature_graph,
    feature_tree,
    pool_satisfies,
    satisfies_prime,
    single_node_tree,
    tree_subtree,
    value_to_json,
    witness_pool,
    witness_prime,
    witness_to_json,
)
from .paths import (
    PathConstraint,
    Reach,
    RootedPath,
    closure_contains,
    prime_closure_contains,
    targets,
    walk_path,
)
from .prime import (
    PrimeFormula,
    TOP_PRIME,
    access_function,
    canonicalize,
    mk_prime_exists,
    prime_conj,
    prime_entails,
    projection,
    simplify_epc,
)
from .qe import (
    INVALID,
    SATISFIABLE,
    UNSATISFIABLE,
    VALID,
    BcAnd,
    BcNot,
    BcOr,
    BoolComb,
    ResourceLimit,
    Verdict,
    classify,
    decide,
    eliminate_clause,
    eliminate_neg,
    is_joker,
    to_prime_dnf,
)
from .solve import (
    SolvedClause,
    SolvedFormula,
    basic_simplify,
    clause_to_formula,
    constrained_vars,
    formula_to_basic,
    is_solved_clause,
    is_solved_formula,
    parameters,
    solved_to_formula,
)
from .textio import (
    ParseError,
    SourceSpan,
    expand_sugar,
    parse_formula,
    print_formula,
)

__version__ = "0.1.0"
