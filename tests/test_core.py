import random

import pytest

from featlog import (
    EPS,
    TOP,
    And,
    Atomic,
    BasicFormula,
    Eq,
    Excl,
    Exists,
    FeatC,
    FeatId,
    Forall,
    Not,
    Or,
    Path,
    SortC,
    SugarAgree,
    Symbols,
    VarId,
    expand_sugar,
    free_vars,
    parse_formula,
    substitute,
)
from featlog.core import atom_key, conj, exists_all

from generators import random_basic_formula, random_quantified_formula


def test_namespaces_are_disjoint(sym):
    f_feat = sym.feat("age")
    f_var = sym.var("age")
    assert f_feat != f_var
    assert f_feat.name == f_var.name


def test_identifier_kinds_never_compare_equal():
    from featlog import FeatId, SortId, VarId

    ids = [SortId("a"), FeatId("a"), VarId("a")]
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)
    assert len(set(ids)) == 3
    assert set(ids) | {SortId("a"), VarId("a")} == set(ids)
    assert VarId("a") == VarId("a") and hash(VarId("a")) == hash(VarId("a"))


def test_identifiers_print_as_their_spelling():
    from featlog import FeatId, SortId, VarId

    for kind, spelling in ((SortId, "A"), (FeatId, "f"), (VarId, "x")):
        ident = kind(spelling)
        assert ident.name == str(ident) == f"{ident}" == spelling
        assert repr(ident) == f"{kind.__name__}(name={spelling!r})"


def test_identifiers_survive_pickle_and_deepcopy():
    import copy
    import pickle

    from featlog import FeatId, SortId, VarId

    ids = [SortId("A"), FeatId("f"), VarId("x"), VarId("f")]
    for ident in ids:
        for back in (pickle.loads(pickle.dumps(ident)), copy.deepcopy(ident)):
            assert type(back) is type(ident) and back == ident and back.name == ident.name
    atom = FeatC(VarId("x"), FeatId("f"), VarId("y"))
    assert pickle.loads(pickle.dumps(atom)) == copy.deepcopy(atom) == atom


def test_prime_hash_is_recomputed_after_pickle():
    """A loaded prime hashes as a fresh equal prime does, even under
    another hash seed: its cached hash is not carried along."""
    import os
    import pickle
    import subprocess
    import sys

    import featlog
    from featlog.prime import from_atom

    beta = from_atom(FeatC(VarId("x"), FeatId("f"), VarId("y")))
    hash(beta)  # fills the cache
    code = (
        "import pickle, sys; from featlog import FeatC, FeatId, VarId; "
        "from featlog.prime import from_atom; "
        "loaded = pickle.loads(sys.stdin.buffer.read()); "
        "fresh = from_atom(FeatC(VarId('x'), FeatId('f'), VarId('y'))); "
        "print(loaded == fresh, len({loaded, fresh}))"
    )
    src = os.path.dirname(os.path.dirname(featlog.__file__))
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(beta),
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            check=True,
        ).stdout
        assert out.split() == [b"True", b"1"]


def test_combinations_and_verdicts_survive_pickle_and_deepcopy(sym):
    """Pickling and copying rebuild a combination through its
    constructor, so the copy is the unique-table node itself."""
    import copy
    import pickle

    from featlog import BcAnd, BcNot, BcOr, classify

    verdict = classify(parse_formula(sym, "A(x) | ~f(x, y)"))
    residue = verdict.residue
    assert isinstance(residue, BcOr) and isinstance(residue.args[1], BcNot)
    conj_node = BcAnd(residue.args)
    for node in (residue, residue.args[1], conj_node):
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.deepcopy(node) is node
    for back in (pickle.loads(pickle.dumps(verdict)), copy.deepcopy(verdict)):
        assert back == verdict and back.residue is residue


def test_identifiers_sort_by_spelling_within_a_kind():
    from featlog import SortId, VarId

    spellings = ["x10", "x2", "a", "x1", "b_", "B"]
    assert [v.name for v in sorted(map(VarId, spellings))] == sorted(spellings)
    assert min(map(SortId, ["C", "A", "B"])) == SortId("A")
    assert VarId("a") < VarId("b") <= VarId("b")


def test_cached_fields_are_computed_once_into_the_instance_dict(sym):
    from featlog.core import cached_field
    from featlog.prime import from_atom
    from featlog.qe import PrimeLeaf, bc_and

    class Counted:
        runs = 0

        @cached_field
        def value(self):
            Counted.runs += 1
            return [Counted.runs]

    first, second = Counted(), Counted()
    assert first.value is first.value and first.__dict__["value"] == [1]
    assert second.value == [2] and Counted.runs == 2
    assert isinstance(Counted.value, cached_field)

    # records: the value lands in __dict__ past the frozen __setattr__
    beta = from_atom(FeatC(sym.var("x"), sym.feat("f"), sym.var("y")))
    assert "free_vars" not in beta.__dict__
    assert beta.free_vars == {sym.var("x"), sym.var("y")}
    assert beta.__dict__["free_vars"] is beta.free_vars
    assert hash(beta) == beta.__dict__["_hash"]
    body = beta.body
    assert body.edges is body.edges and "edges" in body.__dict__
    node = bc_and(PrimeLeaf(beta), PrimeLeaf(from_atom(SortC(sym.sort("A"), sym.var("z")))))
    assert node.free_vars == {sym.var("x"), sym.var("y"), sym.var("z")}
    assert node.__dict__["free_vars"] is node.free_vars


def test_identifier_validation(sym):
    with pytest.raises(ValueError):
        sym.var("_hidden")
    with pytest.raises(ValueError):
        sym.sort("lower")
    with pytest.raises(ValueError):
        sym.feat("Upper")
    with pytest.raises(ValueError):
        sym.var("exists")
    with pytest.raises(ValueError):
        sym.var("")


def test_interning_is_stable(sym):
    assert sym.var("x") is sym.var("x")
    assert sym.sort("A") == sym.sort("A")


def test_minted_sorts_stay_reserved():
    """A name is checked when it enters the session, and a minted sort
    never enters it, so ``sort`` refuses the spelling ``fresh_sort``
    gave out."""
    sym = Symbols()
    assert sym.fresh_sort("Default").name == "_Default1"
    with pytest.raises(ValueError):
        sym.sort("_Default1")
    assert sym.fresh_sort("Default").name == "_Default2"


def _binders(phi):
    """The variables of every quantifier block, outermost first."""
    if isinstance(phi, (Exists, Forall)):
        return list(phi.vars) + _binders(phi.body)
    if isinstance(phi, Not):
        return _binders(phi.body)
    if isinstance(phi, (And, Or)):
        return [v for arg in phi.args for v in _binders(arg)]
    return []


def test_fresh_vars_are_distinct_and_reserved(sym):
    """Sugar expansion's variables are reserved, distinct, and numbered
    per call, so expanding twice gives the same names."""
    phi = parse_formula(sym, "undef(x, f) & B @ x.g.h & x.f = y.g | A @ y.eps")
    names = dict(sym._vars)
    got = expand_sugar(phi)
    minted = [v.name for v in _binders(got)]
    assert minted == ["_y1", "_z3", "_y2", "_z4", "_y5"]
    assert expand_sugar(phi) == got
    assert sym._vars == names


def test_expansion_keeps_nodes_without_sugar(sym):
    """A node with no sugar below it comes back as the same object, and
    one above sugar is rebuilt around the expansion."""
    rng = random.Random(2502)
    for _ in range(200):
        phi = random_quantified_formula(rng, sym, max_atoms=30)
        assert expand_sugar(phi) is phi
    left = parse_formula(sym, "forall x. (f(x, y) -> ~A(y))")
    phi = And((left, Or((Not(Atomic(Excl(sym.var("y"), sym.feat("g")))), left))))
    got = expand_sugar(phi)
    assert got.args[0] is left and got.args[1].args[1] is left
    y, g, y1 = sym.var("y"), sym.feat("g"), VarId("_y1")
    assert got.args[1].args[0] == Not(Not(Exists((y1,), Atomic(FeatC(y, g, y1)))))


def test_minted_names_skip_the_variables_of_their_sugar():
    """A minted name never equals a variable of the sugar node it
    expands, even one spelled like a minted name."""
    f, g = FeatId("f"), FeatId("g")
    y1, y2, z1, z2 = (VarId(n) for n in ("_y1", "_y2", "_z1", "_z2"))
    assert expand_sugar(Atomic(Excl(y1, f))) == Not(Exists((y2,), Atomic(FeatC(y1, f, y2))))
    # the meet skips both roots, and the inner node of the path takes
    # the next number
    got = expand_sugar(SugarAgree(z2, Path((f, g)), z1, EPS))
    assert _binders(got) == [VarId("_z3"), VarId("_z4")]
    assert free_vars(got) == {z1, z2}


def test_path_concatenation_and_prefixes(sym):
    f, g = sym.feat("f"), sym.feat("g")
    p = Path((f, g))
    assert EPS + p == p == p + EPS
    assert (EPS + p) + p == EPS + (p + p)
    prefixes = list(p.prefixes())
    assert prefixes == [EPS, Path((f,)), p]
    assert EPS.is_prefix_of(p) and p.is_prefix_of(p)
    assert not p.is_prefix_of(Path((f,)))
    assert str(EPS) == "eps" and str(p) == "f.g"


def test_free_vars_closed_formula():
    assert free_vars(TOP) == set()


def test_free_vars_bound_occurrence(sym):
    x, y = sym.var("x"), sym.var("y")
    f = sym.feat("f")
    assert free_vars(Exists((y,), Atomic(FeatC(x, f, y)))) == {x}


def test_free_vars_record_description(sym):
    # x is a woman whose father and husband share an age
    x, y, fa, hu = (sym.var(n) for n in ("x", "y", "fa", "hu"))
    woman, engineer, painter = (sym.sort(n) for n in ("Woman", "Engineer", "Painter"))
    father, husband, age = (sym.feat(n) for n in ("father", "husband", "age"))
    body = conj(
        [
            Atomic(SortC(woman, x)),
            Atomic(FeatC(x, father, fa)),
            Atomic(SortC(engineer, fa)),
            Atomic(FeatC(fa, age, y)),
            Atomic(FeatC(x, husband, hu)),
            Atomic(SortC(painter, hu)),
            Atomic(FeatC(hu, age, y)),
        ]
    )
    phi = exists_all([y, fa, hu], body)
    assert free_vars(phi) == {x}


def test_substitute_examples(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x, y, z, u, v = (sym.var(n) for n in "xyzuv")
    phi = And((Atomic(SortC(A, x)), Atomic(FeatC(x, f, z)), Atomic(SortC(A, u))))
    assert substitute(phi, x, y) == And(
        (Atomic(SortC(A, y)), Atomic(FeatC(y, f, z)), Atomic(SortC(A, u)))
    )
    assert substitute(Atomic(Eq(u, v)), x, y) == Atomic(Eq(u, v))
    assert substitute(Atomic(Eq(y, x)), x, y) == Atomic(Eq(y, y))


def test_substitute_rejects_quantifiers(sym):
    x, y = sym.var("x"), sym.var("y")
    with pytest.raises(ValueError):
        substitute(Exists((x,), TOP), x, y)


def test_substitute_free_var_property(sym):
    rng = random.Random(0)
    for _ in range(100):
        basic = random_basic_formula(rng, sym, max_atoms=6)
        phi = conj(Atomic(a) for a in basic.atoms)
        fv = free_vars(phi)
        if not fv:
            continue
        x = sorted(fv)[0]
        y = sym.var("fresh0")
        if y == x:
            continue
        got = free_vars(substitute(phi, x, y))
        assert got == (fv - {x}) | {y}
        assert x not in got


def test_basic_formula_rejects_exclusions(sym):
    x = sym.var("x")
    f = sym.feat("f")
    with pytest.raises(ValueError):
        BasicFormula((Excl(x, f),))
    with pytest.raises(ValueError):
        BasicFormula(atoms=(SortC(sym.sort("A"), x), Excl(x, f)))
    assert BasicFormula(atoms=(SortC(sym.sort("A"), x),)).variables == {x}


def test_records_are_frozen_values(sym):
    """Value classes are frozen, compare by class and fields, hash by
    fields, take their fields positionally or by keyword, and print as
    ``Class(field=value, ...)``."""
    from featlog import SortId, Verdict, VALID

    x, y, f = VarId("x"), VarId("y"), FeatId("f")
    atom = FeatC(x, f, y)
    with pytest.raises(AttributeError):
        atom.src = y
    with pytest.raises(AttributeError):
        del atom.src
    with pytest.raises(AttributeError):
        atom.extra = 1
    assert atom == FeatC(src=x, feat=f, dst=y) == FeatC(x, dst=y, feat=f)
    assert atom != FeatC(x, f, x) and atom != Eq(x, y)
    assert hash(atom) == hash(FeatC(x, f, y)) and len({atom, FeatC(x, f, y)}) == 1
    body = Atomic(atom)
    assert Exists((y,), body) != Forall((y,), body)
    assert And((body, TOP)) != Or((body, TOP))
    assert TOP == type(TOP)() and hash(TOP) == hash(type(TOP)())
    assert Path() == EPS and Path().feats == ()
    assert Verdict(VALID) == Verdict(VALID, None) == Verdict(kind=VALID, residue=None)
    for args, kwargs in (((x, f), {}), ((x, f, y, y), {}), ((x, f), {"dst": y, "other": y})):
        with pytest.raises(TypeError):
            FeatC(*args, **kwargs)
    with pytest.raises(TypeError):
        Path(feats=(), extra=())
    assert repr(atom) == "FeatC(src=VarId(name='x'), feat=FeatId(name='f'), dst=VarId(name='y'))"
    assert repr(Verdict(VALID)) == "Verdict(kind='VALID', residue=None)"
    assert repr(TOP) == "Top()" and repr(EPS) == "Path(feats=())"
    assert repr(SortC(SortId("A"), x)) == "SortC(sort=SortId(name='A'), var=VarId(name='x'))"


def test_record_fields_are_checked():
    """Field names are spliced into generated source, so a name that is
    not a plain identifier is refused; so is a field without a default
    after one with a default."""
    from featlog.core import Record

    for name in ("class", "None", "self", "_x"):
        with pytest.raises(TypeError):
            type("Bad", (Record,), {"__annotations__": {name: int}})
    with pytest.raises(TypeError):
        type("Bad", (Record,), {"__annotations__": {"a": int, "b": int}, "a": 0})

    class Pair(Record):
        a: int
        b: int = 2

    assert Pair(1) == Pair(1, 2) == Pair(a=1) and Pair(1) != Pair(1, 3)
    assert repr(Pair(1)).endswith(".Pair(a=1, b=2)")


def test_atom_key_orders_by_kind_then_names(sym):
    A = sym.sort("A")
    f = sym.feat("f")
    x, y = sym.var("x"), sym.var("y")
    atoms = [FeatC(x, f, y), SortC(A, x), Eq(x, y)]
    atoms.sort(key=atom_key)
    assert [type(a) for a in atoms] == [Eq, SortC, FeatC]


PUBLIC_NAMES = """
    Agree And Atomic BOTTOM BasicFormula BcAnd BcNot BcOr BoolComb Bottom EPS Eq
    Excl Exists FeatC FeatId FeatureGraph FeatureTree Forall Formula INVALID Iff
    Implies Not Or ParseError Path PathConstraint PrimeFormula PrimeLeaf Reach
    ResourceLimit RootedPath SATISFIABLE SolvedClause SolvedFormula SortAt SortC
    SortId SourceSpan SugarAgree SugarSortAt Symbols TOP TOP_PRIME Top
    UNSATISFIABLE VALID VarId Verdict access_function basic_simplify
    boolcomb_to_formula canonical_formula canonicalize classify clause_to_formula
    closure_contains conj constrained_vars decide eliminate_clause eliminate_neg
    enumerate_values evaluate expand_sugar feature_graph feature_tree
    formula_to_basic free_vars graph_canonical holds_path_constraint
    is_joker is_prime_formula is_solved_clause is_solved_formula mk_prime_exists
    parameters parse_formula pregraph_to_graph prime_closure_contains prime_conj
    prime_entails prime_to_formula print_formula projection satisfies_prime
    simplify_epc single_node_tree solved_to_formula substitute targets
    to_prime_dnf tree_subtree valuation_to_json value_to_json walk_path
    witness_prime witness_solved_clause
""".split()


def test_public_names():
    """The names ``featlog`` exports are a contract: a change to them
    must show up here."""
    import types

    import featlog

    got = {
        name
        for name, value in vars(featlog).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(got) == sorted(PUBLIC_NAMES)


def test_import_loads_no_dataclasses():
    """``import featlog`` builds its value classes without ``dataclasses``
    (and so without ``inspect``) and reads no ``string`` table, yet loads
    every submodule it exports from."""
    import os
    import subprocess
    import sys

    import featlog

    code = (
        "import featlog, sys; "
        "print([m for m in ('dataclasses', 'inspect', 'string') if m in sys.modules]); "
        "print(sorted(m for m in sys.modules if m.startswith('featlog.')))"
    )
    src = os.path.dirname(os.path.dirname(featlog.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out[0] == "[]"
    submodules = ["core", "models", "paths", "prime", "qe", "solve", "textio"]
    assert out[1] == str([f"featlog.{m}" for m in submodules])
