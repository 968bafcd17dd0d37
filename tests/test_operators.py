import pytest
from hypothesis import given
from hypothesis import strategies as st

from beliefrev.logic import Signature, WorldSet, models, parse_formula
from beliefrev.operators import (
    ABSURD,
    CONTRACTION_OPERATORS,
    REVISION_OPERATORS,
    UnsupportedSequenceError,
    apply_sequence,
    drastic_withdrawal,
    flatten_revision,
    get_revision,
    lexicographic_revision,
    make_pair,
    natural_contraction,
    natural_revision,
    outcome_belief_set,
    reverse_revision,
)
from beliefrev.states import (
    RankedState,
    belief_set,
    enumerate_states,
    min_worlds,
    normalize,
    sample_states,
    state_equal,
    uniform_state,
)

PQ = Signature(("p", "q"))
RGS = Signature(("r", "g", "s"))

INITIAL = {"100": 0, "101": 0, "110": 0, "111": 0,
           "010": 1, "011": 1, "000": 2, "001": 2}


def ws(sig, *bits):
    return WorldSet.from_bitstrings(sig, bits)


def table(s):
    return {s.sig.bitstring(v): s.ranks[v] for v in s.sig.valuations()}


@pytest.fixture
def start():
    return normalize(RGS, INITIAL)


@pytest.fixture
def not_criminal():
    return models(parse_formula("!(r | g | s)", RGS), RGS)


@pytest.fixture
def gun_or_shoplift():
    return models(parse_formula("!r & (g | s)", RGS), RGS)


# --- natural revision ---------------------------------------------------------


def test_natural_reproduces_first_table(start, not_criminal):
    out = natural_revision(start, not_criminal)
    assert table(out) == {"000": 0,
                          "100": 1, "101": 1, "110": 1, "111": 1,
                          "010": 2, "011": 2,
                          "001": 3}


def test_natural_reproduces_second_table(start, not_criminal, gun_or_shoplift):
    mid = natural_revision(start, not_criminal)
    out = natural_revision(mid, gun_or_shoplift)
    assert table(out) == {"010": 0, "011": 0,
                          "000": 1,
                          "100": 2, "101": 2, "110": 2, "111": 2,
                          "001": 3}


def test_natural_by_tautology_is_identity(start):
    out = natural_revision(start, WorldSet.full(RGS))
    assert state_equal(out, start)


def test_revision_by_empty_input_is_absurd(start):
    for op in REVISION_OPERATORS.values():
        assert op(start, WorldSet.empty(RGS)) is ABSURD


# --- flatten revision -----------------------------------------------------------


def test_flatten_reproduces_first_table(start, not_criminal):
    out = flatten_revision(start, not_criminal)
    assert table(out) == {"000": 0,
                          "100": 1, "101": 1, "110": 1, "111": 1,
                          "010": 2, "011": 2, "001": 2}


def test_flatten_reproduces_second_table(start, not_criminal, gun_or_shoplift):
    mid = flatten_revision(start, not_criminal)
    out = flatten_revision(mid, gun_or_shoplift)
    assert table(out) == {"010": 0, "011": 0, "001": 0,
                          "000": 1,
                          "100": 2, "101": 2, "110": 2, "111": 2}


def test_flatten_by_tautology_drops_empty_tier(start):
    out = flatten_revision(start, WorldSet.full(RGS))
    assert belief_set(out) == belief_set(start)
    assert out.num_levels == 2
    assert set(out.level(1)) == set(belief_set(start).complement())


# --- reverse and lexicographic ----------------------------------------------------


def test_reverse_flips_complement_order():
    s = normalize(PQ, {"00": 0, "01": 1, "10": 2, "11": 2})
    out = reverse_revision(s, ws(PQ, "10", "11"))
    assert table(out) == {"10": 0, "11": 0, "01": 1, "00": 2}
    # the minimal countermodels moved from 00 to 01
    not_a = ws(PQ, "10", "11").complement()
    assert min_worlds(s, not_a) == ws(PQ, "00")
    assert min_worlds(out, not_a) == ws(PQ, "01")


def test_reverse_vacuous_when_complement_single_level():
    # reversal does nothing wherever the complement occupies one rank level
    for s in enumerate_states(PQ):
        for mask in range(1, PQ.full_mask + 1):
            a = WorldSet(PQ, mask)
            not_a = a.complement()
            if len({s.ranks[v] for v in not_a}) > 1:
                continue
            out = reverse_revision(s, a)
            assert min_worlds(s, not_a).issubset(min_worlds(out, not_a))


def test_lexicographic_moves_all_input_worlds_below():
    s = normalize(PQ, {"00": 0, "01": 1, "10": 2, "11": 3})
    out = lexicographic_revision(s, ws(PQ, "10", "11"))
    assert table(out) == {"10": 0, "11": 1, "00": 2, "01": 3}


# --- natural contraction ------------------------------------------------------------


def test_natural_contraction_brute_force_table(start):
    r_worlds = models(parse_formula("r", RGS), RGS)
    out = natural_contraction(start, r_worlds)
    # brute-force application of the definition over all 8 valuations:
    # rank 0 grows by the best non-r worlds (010, 011 at rank 1)
    assert table(out) == {"100": 0, "101": 0, "110": 0, "111": 0,
                          "010": 0, "011": 0,
                          "000": 1, "001": 1}
    recovered = belief_set(out) & r_worlds
    assert recovered == belief_set(start)  # recovery witnessed


def test_natural_contraction_vacuity(start):
    g_worlds = models(parse_formula("g", RGS), RGS)
    assert natural_contraction(start, g_worlds) is start


def test_natural_contraction_tautology_guard(start):
    assert natural_contraction(start, WorldSet.full(RGS)) is start


# --- drastic withdrawal ----------------------------------------------------------------


def test_drastic_on_believed_input_goes_uniform(start):
    r_worlds = models(parse_formula("r", RGS), RGS)
    out = drastic_withdrawal(start, r_worlds)
    assert state_equal(out, uniform_state(RGS))


def test_drastic_on_unbelieved_input_is_identity(start):
    g_worlds = models(parse_formula("g", RGS), RGS)
    assert drastic_withdrawal(start, g_worlds) is start


def test_drastic_recovery_non_falsifying_here(start):
    # expanding the flattened state back by r returns exactly M(r), which
    # equals the original belief set, so recovery is not refuted here
    r_worlds = models(parse_formula("r", RGS), RGS)
    out = drastic_withdrawal(start, r_worlds)
    assert (belief_set(out) & r_worlds) == r_worlds == belief_set(start)


def test_drastic_fails_recovery_somewhere():
    s = normalize(PQ, {"10": 0, "11": 1, "00": 1, "01": 1})
    a = ws(PQ, "10", "11")
    out = drastic_withdrawal(s, a)
    recovered = belief_set(out) & a
    assert not recovered.issubset(belief_set(s))


# --- sequences ------------------------------------------------------------------------


def test_sequence_natural_trace(start, not_criminal, gun_or_shoplift):
    pair = make_pair("natural", "natural-con")
    trace = apply_sequence(pair, start, [("revise", not_criminal),
                                         ("revise", gun_or_shoplift)])
    assert len(trace) == 3
    assert trace[0] is start
    assert table(trace[1])["001"] == 3
    assert belief_set(trace[2]) == ws(RGS, "010", "011")


def test_sequence_flatten_trace(start, not_criminal, gun_or_shoplift):
    pair = make_pair("flatten", "natural-con")
    trace = apply_sequence(pair, start, [("revise", not_criminal),
                                         ("revise", gun_or_shoplift)])
    assert belief_set(trace[2]) == ws(RGS, "001", "010", "011")


def test_sequence_empty(start):
    pair = make_pair()
    assert apply_sequence(pair, start, []) == [start]


def test_sequence_absurd_restart(start):
    pair = make_pair()
    empty = WorldSet.empty(RGS)
    r_worlds = models(parse_formula("r", RGS), RGS)
    trace = apply_sequence(pair, start, [("revise", empty), ("revise", r_worlds)])
    assert trace[1] is ABSURD
    assert state_equal(trace[2], natural_revision(uniform_state(RGS), r_worlds))


def test_sequence_absurd_contraction_rejected(start):
    pair = make_pair()
    empty = WorldSet.empty(RGS)
    with pytest.raises(UnsupportedSequenceError):
        apply_sequence(pair, start, [("revise", empty), ("contract", empty)])
    with pytest.raises(UnsupportedSequenceError):
        apply_sequence(pair, start, [("revise", empty), ("revise", empty)])
    with pytest.raises(ValueError):
        apply_sequence(pair, start, [("mutate", empty)])


# --- neutrality: the contract that lets scans decide one instance per orbit -------------


def _swap_state(s, v):
    ranks = list(s.ranks)
    ranks[v], ranks[v + 1] = ranks[v + 1], ranks[v]
    return RankedState(s.sig, tuple(ranks))


def _swap_mask(mask, v):
    # exchange bits v and v + 1
    pair = (mask >> v) & 3
    return mask & ~(3 << v) | ((pair >> 1) | (pair & 1) << 1) << v


@pytest.mark.parametrize("sig, states", [
    (PQ, enumerate_states(PQ)),
    (RGS, sample_states(RGS, 16, seed=11)),
], ids=["n2-all", "n3-sampled"])
@pytest.mark.parametrize("op", [*REVISION_OPERATORS.values(), *CONTRACTION_OPERATORS.values()],
                         ids=lambda op: op.name)
def test_operators_commute_with_valuation_swaps(op, sig, states):
    # op(pi.s, pi.a) == pi.op(s, a) for every adjacent transposition pi of
    # the valuations, which generate every permutation; inputs include the
    # empty one, whose revision is ABSURD on both sides
    for s in states:
        for mask in range(sig.full_mask + 1):
            a = WorldSet(sig, mask)
            out = op(s, a)
            for v in range(sig.num_valuations - 1):
                moved = op(_swap_state(s, v), WorldSet(sig, _swap_mask(mask, v)))
                assert moved == (ABSURD if out is ABSURD else _swap_state(out, v)), (
                    op.name, s.ranks, mask, v)


# --- exhaustive invariants at n = 2 ------------------------------------------------------


def test_faithfulness_exhaustive():
    for name, op in REVISION_OPERATORS.items():
        for s in enumerate_states(PQ):
            for mask in range(1, PQ.full_mask + 1):
                a = WorldSet(PQ, mask)
                out = op(s, a)
                assert outcome_belief_set(out, PQ) == min_worlds(s, a), name


def test_stability_of_minimal_countermodels_exhaustive():
    # natural and flatten keep the minimal countermodels in place everywhere
    for name in ("natural", "flatten", "lex"):
        op = get_revision(name)
        for s in enumerate_states(PQ):
            for mask in range(1, PQ.full_mask + 1):
                a = WorldSet(PQ, mask)
                out = op(s, a)
                not_a = a.complement()
                assert min_worlds(out, not_a) == min_worlds(s, not_a), name


def test_reverse_breaks_stability_somewhere():
    broken = False
    for s in enumerate_states(PQ):
        for mask in range(1, PQ.full_mask + 1):
            a = WorldSet(PQ, mask)
            out = reverse_revision(s, a)
            not_a = a.complement()
            if not min_worlds(s, not_a).issubset(min_worlds(out, not_a)):
                broken = True
    assert broken


def test_natural_contraction_recovery_exhaustive():
    for s in enumerate_states(PQ):
        base = belief_set(s)
        for mask in range(1, PQ.full_mask + 1):
            a = WorldSet(PQ, mask)
            if not base.issubset(a):
                continue
            out = natural_contraction(s, a)
            assert (belief_set(out) & a) == base


def test_extensionality_through_formulas(start):
    alpha = models(parse_formula("r | (r & g)", RGS), RGS)
    beta = models(parse_formula("r", RGS), RGS)
    assert alpha == beta
    for op in REVISION_OPERATORS.values():
        assert state_equal(op(start, alpha), op(start, beta))
    for cop in CONTRACTION_OPERATORS.values():
        assert state_equal(cop(start, alpha), cop(start, beta))


@given(st.lists(st.integers(0, 7), min_size=4, max_size=4), st.integers(0, 15))
def test_operator_outputs_are_normalized(raw, mask):
    s = normalize(PQ, raw)
    a = WorldSet(PQ, mask)
    for op in REVISION_OPERATORS.values():
        out = op(s, a)
        if out is not ABSURD:
            assert normalize(PQ, out.ranks) == out
    for cop in CONTRACTION_OPERATORS.values():
        out = cop(s, a)
        assert normalize(PQ, out.ranks) == out
