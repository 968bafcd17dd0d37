import dataclasses
import pickle
import random
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beliefrev import logic
from beliefrev.logic import (
    FALSE,
    MAX_FORMULA_DEPTH,
    TRUE,
    And,
    Atom,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    SignatureMismatchError,
    UnknownAtomError,
    WorldSet,
    dnf_of,
    entails,
    expand,
    formula_text,
    models,
    parse_formula,
    satisfies,
)

RGS = Signature(("r", "g", "s"))
PQ = Signature(("p", "q"))


def ws(sig, *bits):
    return WorldSet.from_bitstrings(sig, bits)


# --- signatures and worldsets -------------------------------------------------


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(())
    with pytest.raises(ValueError):
        Signature(("p", "p"))
    with pytest.raises(ValueError):
        Signature(("P",))
    with pytest.raises(ValueError):
        Signature(tuple(f"a{i}" for i in range(17)))
    # the parser reads these words as constants, so an atom so named is unreachable
    for word in ("true", "false"):
        with pytest.raises(ValueError, match="reserved atom name"):
            Signature(("p", word))


def test_signature_rejects_a_bare_string():
    # a string iterates by character, so "pq" must not become the atoms p and q
    for text in ("pq", "p"):
        with pytest.raises(TypeError, match="not the string"):
            Signature(text)
    assert Signature(["p", "q"]).atoms == ("p", "q")


def test_bitstring_convention():
    # first atom is the leftmost digit: "100" means r true, g and s false
    v = RGS.valuation_of("100")
    assert RGS.atom_true(v, 0) and not RGS.atom_true(v, 1) and not RGS.atom_true(v, 2)
    assert RGS.bitstring(v) == "100"


def test_worldset_ops():
    a = ws(PQ, "00", "01")
    b = ws(PQ, "01", "10")
    assert (a & b).bitstrings() == ["01"]
    assert (a | b).bitstrings() == ["00", "01", "10"]
    assert (a - b).bitstrings() == ["00"]
    assert a.complement().bitstrings() == ["10", "11"]
    assert len(a) == 2 and bool(a) and PQ.valuation_of("00") in a


def test_worldset_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        entails(ws(PQ, "00"), ws(RGS, "000"))
    # an equal signature built separately is the same signature
    twin = Signature(("p", "q"))
    assert twin is not PQ and (ws(PQ, "00", "01") & ws(twin, "01")).bitstrings() == ["01"]


def test_signature_sizes_and_worldset_mask_range():
    for sig in (PQ, RGS, Signature(tuple(f"a{i}" for i in range(16)))):
        assert (sig.n, sig.num_valuations) == (len(sig.atoms), 2 ** len(sig.atoms))
        assert sig.full_mask == 2 ** sig.num_valuations - 1
        assert WorldSet.full(sig).mask == sig.full_mask
        with pytest.raises(ValueError, match="out of range"):
            WorldSet(sig, -1)
        with pytest.raises(ValueError, match="out of range"):
            WorldSet(sig, sig.full_mask + 1)


def test_sixteen_atom_signature_works():
    sig = Signature(tuple(f"a{i}" for i in range(16)))
    f = parse_formula("a0 & !a15", sig)
    w = models(f, sig)
    assert len(w) == 1 << 14
    v = next(iter(w))
    assert satisfies(f, v, sig)
    assert entails(w, models(parse_formula("a0", sig), sig))


# --- parsing -------------------------------------------------------------------


def test_parse_disjunction_models_all_but_zero():
    f = parse_formula("r | g | s", RGS)
    assert isinstance(f, Or)
    assert models(f, RGS).bitstrings() == [
        "001", "010", "011", "100", "101", "110", "111"
    ]


def test_parse_negated_conjunction():
    f = parse_formula("!r & (g | s)", RGS)
    assert models(f, RGS) == ws(RGS, "010", "011", "001")


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("r & & g", RGS)
    assert exc.value.position == 4


def test_parse_unknown_atom_named():
    with pytest.raises(UnknownAtomError) as exc:
        parse_formula("r & zebra", RGS)
    assert exc.value.atom == "zebra"


def test_parse_trailing_junk():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("r )", RGS)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("", RGS)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(r", RGS)


def test_parse_precedence_and_associativity():
    # ! > & > | > -> > <->, right-associative ->
    f = parse_formula("!p & q | p -> q <-> p", PQ)
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)
    g = parse_formula("p -> q -> p", PQ)
    assert isinstance(g, Implies) and isinstance(g.right, Implies)
    assert models(g, PQ) == WorldSet.full(PQ)


def test_parse_constants():
    assert models(parse_formula("true", PQ), PQ) == WorldSet.full(PQ)
    assert models(parse_formula("false", PQ), PQ) == WorldSet.empty(PQ)


def _deep(shape: str, depth: int) -> str:
    """A formula over p of the given nesting depth in one of four shapes."""
    if shape == "negations":
        return "!" * depth + "p"
    if shape == "parentheses":
        return "(" * depth + "p" + ")" * depth
    if shape == "flat-chain":
        return " & ".join(["p"] * (depth + 1))
    return " -> ".join(["p"] * (depth + 1))  # right-nested implications


@pytest.mark.parametrize("shape", ["negations", "parentheses", "flat-chain", "implications"])
def test_formula_at_depth_bound_evaluates_consistently(shape):
    f = parse_formula(_deep(shape, MAX_FORMULA_DEPTH), PQ)
    assert set(models(f, PQ)) == {v for v in PQ.valuations() if satisfies(f, v, PQ)}


# the position is that of the token opening the first level too many
@pytest.mark.parametrize("shape, position", [
    ("negations", MAX_FORMULA_DEPTH),
    ("parentheses", MAX_FORMULA_DEPTH),
    ("flat-chain", 4 * MAX_FORMULA_DEPTH + 2),
    ("implications", 5 * MAX_FORMULA_DEPTH + 2),
])
def test_formula_past_depth_bound_is_a_syntax_error(shape, position):
    with pytest.raises(FormulaSyntaxError, match="nested too deeply") as exc:
        parse_formula(_deep(shape, MAX_FORMULA_DEPTH + 1), PQ)
    assert exc.value.position == position
    with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
        parse_formula(_deep(shape, 1000), PQ)


# --- models --------------------------------------------------------------------


def test_models_not_criminal_singleton():
    # denial of the disjunctive abbreviation pins exactly the all-false world
    f = parse_formula("!(r | g | s)", RGS)
    assert models(f, RGS) == ws(RGS, "000")


def test_models_tautology():
    assert models(TRUE, RGS) == WorldSet.full(RGS)


def test_models_biconditional():
    f = parse_formula("p <-> q", PQ)
    assert models(f, PQ) == ws(PQ, "00", "11")


# --- entailment and expansion ---------------------------------------------------


def test_entails_examples():
    g_models = models(Atom("g"), RGS)
    assert g_models == ws(RGS, "010", "011", "110", "111")
    assert entails(ws(RGS, "010", "011"), g_models)
    assert entails(WorldSet.empty(RGS), ws(RGS, "111"))
    assert not entails(ws(RGS, "000"), ws(RGS, "111"))


def test_expand_recovery_witness():
    # Independent oracle: contract the worked example's initial state by r
    # with explicit per-valuation scans, then expand by r; the original
    # belief set must come back.
    initial_rank = {"100": 0, "101": 0, "110": 0, "111": 0,
                    "010": 1, "011": 1, "000": 2, "001": 2}
    rank = {RGS.valuation_of(k): r for k, r in initial_rank.items()}
    belief = {v for v, r in rank.items() if r == 0}
    r_models = {v for v in RGS.valuations() if RGS.atom_true(v, 0)}
    assert belief == r_models  # r is believed
    non_r = [v for v in RGS.valuations() if v not in r_models]
    best = min(rank[v] for v in non_r)
    contracted_belief = belief | {v for v in non_r if rank[v] == best}
    assert contracted_belief == {RGS.valuation_of(b) for b in
                                 ("100", "101", "110", "111", "010", "011")}
    k = WorldSet.of(RGS, contracted_belief)
    recovered = expand(k, WorldSet.of(RGS, r_models))
    assert recovered == WorldSet.of(RGS, belief)


def test_expand_trivial_identities():
    k = ws(PQ, "00", "10")
    assert expand(k, k.complement()) == WorldSet.empty(PQ)
    assert expand(k, WorldSet.full(PQ)) == k


# --- dnf ------------------------------------------------------------------------


def tree_dnf(w, sig):
    """dnf_of's formula built as a tree: fresh And and Or nodes for every
    world set, nothing shared with any other formula."""
    minterms = [reduce(And, [Atom(a) if sig.atom_true(v, i) else Not(Atom(a))
                             for i, a in enumerate(sig.atoms)]) for v in w]
    return reduce(Or, minterms) if minterms else FALSE


def assert_round_trip_matches_the_tree(sig, masks):
    """dnf_of of each mask equals the tree-built formula (by ==, text and
    hash), and models of it gives the world set, as satisfies reads it too."""
    for mask in masks:
        w = WorldSet(sig, mask)
        f, tree = dnf_of(w, sig), tree_dnf(w, sig)
        assert f == tree and hash(f) == hash(tree), mask
        assert formula_text(f) == formula_text(tree), mask
        assert models(f, sig) == w, mask
        assert sum(1 << v for v in sig.valuations() if satisfies(f, v, sig)) == mask, mask


def test_dnf_shape_and_text():
    f = dnf_of(ws(RGS, "010", "011"), RGS)
    assert formula_text(f) == "!r & g & !s | !r & g & s"
    assert models(f, RGS) == ws(RGS, "010", "011")


def test_dnf_empty_and_full():
    assert dnf_of(WorldSet.empty(RGS), RGS) == FALSE
    full = dnf_of(WorldSet.full(RGS), RGS)
    assert models(full, RGS) == WorldSet.full(RGS)


def test_dnf_roundtrip_exhaustive_small():
    for sig in (Signature(("p",)), PQ, RGS):
        assert_round_trip_matches_the_tree(sig, range(sig.full_mask + 1))


def test_dnf_deterministic():
    w = ws(PQ, "01", "10")
    assert dnf_of(w, PQ) == dnf_of(WorldSet.from_bitstrings(PQ, ["10", "01"]), PQ)


def test_round_trip_matches_the_tree_at_four_atoms():
    # all 65,536 world sets at four atoms are checked in CI
    sig = Signature(("a", "b", "c", "d"))
    assert_round_trip_matches_the_tree(sig, random.Random(4).sample(range(sig.full_mask + 1), 600))


@pytest.mark.parametrize("n", [10, 11])
def test_round_trip_of_every_world_is_not_bounded_by_recursion(n):
    # the full set's DNF is a chain of 2**n disjuncts: models folds the chain
    # and == compares it with an equal one built apart, each in a loop, so
    # the recursion goes no deeper than a minterm
    sig = Signature(tuple("abcdefghijk"[:n]))
    full = WorldSet.full(sig)
    f, tree = dnf_of(full, sig), tree_dnf(full, sig)
    assert models(f, sig) == full
    assert f == tree and hash(f) == hash(tree)
    assert f != Or(f.left, Not(f.right))


def test_round_trip_of_ten_atoms_is_bounded_in_memory():
    sig = Signature(tuple("abcdefghij"))
    full = WorldSet.full(sig)
    tracemalloc.start()
    try:
        assert models(dnf_of(full, sig), sig) == full
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 1.3-1.5 MiB: 1,024 shared minterms, one Or node per prefix and a
    # bounded node memo.  Prefixes kept as chains of their own take 35 MiB
    assert peak < 4 * 2**20


def test_round_trip_memos_are_bounded():
    # every memo of the round trip is bounded: models and the minterms in LRUs
    # of a finite size, dnf_of's prefixes and the node masks in dicts emptied
    # when full.  The memos hand equal world sets and equal formulas the same
    # answer, and a kept prefix is the left operand of every longer DNF
    for memoized in (models, logic._minterm):
        assert memoized.cache_info().maxsize == logic._ROUND_TRIP_MEMO
    for mask in range(RGS.full_mask + 1):
        w, same = WorldSet(RGS, mask), WorldSet(Signature(("r", "g", "s")), mask)
        assert w is not same
        f = dnf_of(w, RGS)
        assert dnf_of(same, RGS) == f and dnf_of(same, same.sig) is f
        assert models(f, RGS) == w
        assert models(parse_formula(formula_text(f), RGS), RGS) == w
        if len(w) > 1:
            top = max(w)
            assert f.left is dnf_of(WorldSet(RGS, mask ^ 1 << top), RGS)
            assert f.right is dnf_of(WorldSet.of(RGS, [top]), RGS)
    sig = Signature(("a", "b", "c", "d"))
    for mask in range(3 * logic._ROUND_TRIP_MEMO):
        models(dnf_of(WorldSet(sig, mask), sig), sig)
        assert len(logic._prefixes) <= logic._ROUND_TRIP_MEMO
        assert len(logic._node_masks) <= logic._ROUND_TRIP_MEMO


_NODES = [
    Atom("r"), TRUE, FALSE, Not(Atom("g")), And(Atom("r"), Not(Atom("s"))),
    Or(TRUE, Atom("g")), Implies(Atom("r"), FALSE), Iff(Not(Atom("s")), Atom("g")),
]


@pytest.mark.parametrize("f", _NODES, ids=lambda f: type(f).__name__ + ":" + str(f))
def test_formula_nodes_are_slotted_values(f):
    fields = tuple(getattr(f, x.name) for x in dataclasses.fields(f))
    assert not hasattr(f, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(f, dataclasses.fields(f)[0].name, None)
    # equality and hashing by fields, as a plain frozen dataclass has them
    twin = type(f)(*fields)
    assert twin == f and twin is not f and hash(twin) == hash(f) == hash(fields)
    assert f != Atom("q") and {f: 1}[twin] == 1
    assert str(f) == formula_text(f) == str(parse_formula(str(f), RGS))
    assert repr(f).startswith(type(f).__name__ + "(")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(f, protocol))
        assert back == f and hash(back) == hash(f) and str(back) == str(f)


# --- property tests --------------------------------------------------------------


def formulas(sig, depth=4):
    atoms = st.sampled_from([Atom(a) for a in sig.atoms])
    consts = st.sampled_from([TRUE, FALSE])
    base = st.one_of(atoms, consts)

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Implies(*t)),
            st.tuples(children, children).map(lambda t: Iff(*t)),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(formulas(RGS))
def test_models_matches_per_valuation_evaluation(f):
    bit_parallel = models(f, RGS)
    brute = {v for v in RGS.valuations() if satisfies(f, v, RGS)}
    assert set(bit_parallel) == brute


@given(formulas(PQ))
def test_parse_print_roundtrip(f):
    assert models(parse_formula(formula_text(f), PQ), PQ) == models(f, PQ)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_entails_partial_order(x, y, z):
    a, b, c = WorldSet(PQ, x), WorldSet(PQ, y), WorldSet(PQ, z)
    assert entails(a, a)
    if entails(a, b) and entails(b, c):
        assert entails(a, c)
    if entails(a, b) and entails(b, a):
        assert a == b


@given(st.integers(0, 15), st.integers(0, 15))
def test_expand_properties(x, y):
    k, a = WorldSet(PQ, x), WorldSet(PQ, y)
    assert entails(expand(k, a), k)
    assert entails(expand(k, a), a)
    assert expand(k, WorldSet.full(PQ)) == k
