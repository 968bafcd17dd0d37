import pytest
from hypothesis import given
from hypothesis import strategies as st

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
        for mask in range(sig.full_mask + 1):
            w = WorldSet(sig, mask)
            assert models(dnf_of(w, sig), sig) == w


def test_dnf_deterministic():
    w = ws(PQ, "01", "10")
    assert dnf_of(w, PQ) == dnf_of(WorldSet.from_bitstrings(PQ, ["10", "01"]), PQ)


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
