import itertools
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beliefrev.logic import Signature, SignatureMismatchError, TRUE, WorldSet, parse_formula
from beliefrev.operators import natural_revision
from beliefrev.states import (
    RankedState,
    StateFileError,
    belief_set,
    believes,
    enumerate_states,
    min_worlds,
    normalize,
    parse_state_text,
    sample_states,
    state_equal,
    state_to_text,
    uniform_state,
)

PQ = Signature(("p", "q"))
RGS = Signature(("r", "g", "s"))

# The worked example's rank tables, used as fixed points throughout.
INITIAL = {"100": 0, "101": 0, "110": 0, "111": 0,
           "010": 1, "011": 1, "000": 2, "001": 2}
AFTER_FIRST = {"000": 0, "100": 1, "101": 1, "110": 1, "111": 1,
               "010": 2, "011": 2, "001": 3}
AFTER_FIRST_FLAT = {"000": 0, "100": 1, "101": 1, "110": 1, "111": 1,
                    "010": 2, "011": 2, "001": 2}
AFTER_SECOND = {"010": 0, "011": 0, "000": 1,
                "100": 2, "101": 2, "110": 2, "111": 2, "001": 3}
AFTER_SECOND_FLAT = {"010": 0, "011": 0, "001": 0, "000": 1,
                     "100": 2, "101": 2, "110": 2, "111": 2}


def ws(sig, *bits):
    return WorldSet.from_bitstrings(sig, bits)


# --- normalize --------------------------------------------------------------


def test_normalize_compacts_gaps():
    s = normalize(PQ, {"00": 5, "01": 5, "10": 9, "11": 9})
    assert s.ranks == (0, 0, 1, 1)


def test_normalize_idempotent_on_normalized_input():
    s = normalize(RGS, INITIAL)
    again = normalize(RGS, {RGS.bitstring(v): s.ranks[v] for v in RGS.valuations()})
    assert s == again


def test_normalize_keeps_already_contiguous_table():
    s = normalize(RGS, INITIAL)
    assert {RGS.bitstring(v): s.ranks[v] for v in RGS.valuations()} == INITIAL


def test_normalize_rejects_missing_and_bad_input():
    with pytest.raises(ValueError, match="missing valuation"):
        normalize(PQ, {"00": 0, "01": 1, "10": 2})
    with pytest.raises(ValueError, match="natural"):
        normalize(PQ, {"00": 0, "01": -1, "10": 0, "11": 0})
    with pytest.raises(ValueError):
        normalize(PQ, [0, 1, 2])  # wrong length
    with pytest.raises(ValueError, match="duplicate"):
        normalize(PQ, {"00": 0, 0: 1, "01": 0, "10": 0, "11": 0})


def test_ranked_state_requires_normalized_ranks():
    with pytest.raises(ValueError):
        RankedState(PQ, (0, 2, 2, 0))
    for ranks in ((0, 1, 0), (0, 1, 0, 1, 0)):
        with pytest.raises(ValueError, match="expected 4 ranks"):
            RankedState(PQ, ranks)


def test_state_built_five_ways_is_one_cache_key():
    sampled = next(iter(sample_states(PQ, 1, seed=11)))
    ranks = sampled.ranks
    ways = [
        RankedState(Signature(("p", "q")), ranks),
        normalize(PQ, [3 * r + 2 for r in ranks]),
        next(s for s in enumerate_states(PQ) if s.ranks == ranks),
        sampled,
        pickle.loads(pickle.dumps(sampled)),
    ]
    assert len({id(s) for s in ways}) == 5
    assert all(s == ways[0] and hash(s) == hash(ways[0]) for s in ways)
    a = ws(PQ, "01", "10")
    first = natural_revision(ways[0], a)
    before = natural_revision.cache_info()
    assert all(natural_revision(s, a) is first for s in ways[1:])
    after = natural_revision.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (4, 0)


# --- extraction --------------------------------------------------------------


def test_min_worlds_worked_example():
    s = normalize(RGS, INITIAL)
    a = ws(RGS, "010", "011", "001")
    assert min_worlds(s, a) == ws(RGS, "010", "011")
    flat = normalize(RGS, AFTER_FIRST_FLAT)
    assert min_worlds(flat, a) == a
    assert min_worlds(s, WorldSet.empty(RGS)) == WorldSet.empty(RGS)


def test_min_worlds_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        min_worlds(normalize(RGS, INITIAL), WorldSet.full(PQ))


def test_belief_set_examples():
    assert belief_set(normalize(RGS, INITIAL)) == ws(RGS, "100", "101", "110", "111")
    assert belief_set(normalize(RGS, AFTER_SECOND)) == ws(RGS, "010", "011")
    assert belief_set(uniform_state(RGS)) == WorldSet.full(RGS)


def test_believes_examples():
    g = parse_formula("g", RGS)
    assert believes(normalize(RGS, AFTER_SECOND), g)
    assert not believes(normalize(RGS, AFTER_SECOND_FLAT), g)
    assert believes(normalize(RGS, INITIAL), TRUE)


def test_state_equal():
    second = normalize(RGS, AFTER_FIRST)
    second_flat = normalize(RGS, AFTER_FIRST_FLAT)
    assert not state_equal(second, second_flat)  # 001 at rank 3 vs rank 2
    shifted = normalize(RGS, {k: r + 7 for k, r in AFTER_FIRST.items()})
    assert state_equal(second, shifted)
    assert state_equal(second, second)
    with pytest.raises(SignatureMismatchError):
        state_equal(second, uniform_state(PQ))


# --- state files ---------------------------------------------------------------


def test_state_text_roundtrip():
    s = normalize(RGS, INITIAL)
    assert parse_state_text(state_to_text(s)) == s


def test_state_text_comments_order_and_normalization():
    text = """
    # plausibility for the worked example, shifted ranks
    atoms: p q
    11: 9   # most plausible last
    00: 3
    10: 9
    01: 7
    """
    s = parse_state_text(text)
    assert s.sig == PQ
    assert s.ranks == (0, 1, 2, 2)


@pytest.mark.parametrize("text", [
    "",
    "11: 0",
    "atoms: p q\n00: 0\n01: 0\n10: 0",
    "atoms: p q\n00: 0\n01: 0\n10: 0\n11: 0\n00: 1",
    "atoms: p q\n00: 0\n01: 0\n10: 0\n11: x",
    "atoms: p q\n00: 0\n01: 0\n10: 0\n11: -2",
    "atoms: p q\n000: 0\n01: 0\n10: 0\n11: 0",
])
def test_state_text_errors(text):
    with pytest.raises(StateFileError):
        parse_state_text(text)


# --- enumeration -----------------------------------------------------------------


def brute_force_weak_order_count(m):
    # Oracle: ordered-Bell recurrence, independent of the generator.
    counts = [1]
    for t in range(1, m + 1):
        counts.append(sum(math.comb(t, j) * counts[t - j] for j in range(1, t + 1)))
    return counts[m]


def test_enumerate_counts_small():
    one = list(enumerate_states(Signature(("p",))))
    assert len(one) == brute_force_weak_order_count(2) == 3
    two = list(enumerate_states(PQ))
    assert len(two) == brute_force_weak_order_count(4) == 75
    assert len({s.ranks for s in two}) == 75
    assert enumerate_states(RGS).count == brute_force_weak_order_count(8) == 545835


def test_enumerate_order_is_levels_then_lexicographic():
    assert [s.ranks for s in enumerate_states(Signature(("p",)))] == [
        (0, 0), (0, 1), (1, 0)
    ]
    first_six = [s.ranks for s in itertools.islice(enumerate_states(PQ), 6)]
    assert first_six == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
        (0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 0, 1),
    ]


def test_enumerate_rejects_large_signature():
    with pytest.raises(ValueError, match="too large"):
        enumerate_states(Signature(("a", "b", "c", "d")))


def test_enumerate_n2_pairwise_distinct_preorders():
    seen = []
    for s in enumerate_states(PQ):
        assert all(not state_equal(s, t) for t in seen)
        seen.append(s)
    assert len(seen) == 75


# --- sampling ---------------------------------------------------------------------


def test_sample_deterministic_given_seed():
    first = [s.ranks for s in sample_states(RGS, 100, 42)]
    second = [s.ranks for s in sample_states(RGS, 100, 42)]
    assert first == second
    other = [s.ranks for s in sample_states(RGS, 100, 43)]
    assert first != other


def test_sample_states_are_normalized():
    for s in sample_states(RGS, 50, 3):
        assert normalize(RGS, s.ranks) == s


def test_sample_covers_every_weak_order_at_n2():
    # regression pin: this seed/count pair reaches all 75 weak orders
    seen = {s.ranks for s in sample_states(PQ, 10000, 7)}
    assert seen == {s.ranks for s in enumerate_states(PQ)}


def test_sample_requires_positive_count():
    with pytest.raises(ValueError):
        sample_states(PQ, 0, 1)


# --- properties --------------------------------------------------------------------


def rank_vectors(sig, max_rank=None):
    top = (max_rank if max_rank is not None else sig.num_valuations) - 1
    return st.lists(
        st.integers(0, top),
        min_size=sig.num_valuations,
        max_size=sig.num_valuations,
    )


@given(rank_vectors(PQ, 8))
def test_normalize_idempotent(raw):
    s = normalize(PQ, raw)
    assert normalize(PQ, s.ranks) == s


@given(rank_vectors(PQ, 8), st.integers(1, 5))
def test_state_equal_invariant_under_rank_translation(raw, shift):
    s = normalize(PQ, raw)
    translated = normalize(PQ, [r + shift for r in s.ranks])
    assert state_equal(s, translated)


@given(rank_vectors(PQ, 8), st.integers(0, 15))
def test_min_worlds_against_linear_scan(raw, mask):
    s = normalize(PQ, raw)
    a = WorldSet(PQ, mask)
    got = min_worlds(s, a)
    assert got.issubset(a)
    if a:
        best = min(s.ranks[v] for v in a)
        assert set(got) == {v for v in a if s.ranks[v] == best}
    else:
        assert not got


@given(rank_vectors(PQ, 8))
def test_belief_set_is_minimal_nonempty_level(raw):
    s = normalize(PQ, raw)
    assert belief_set(s)
    assert belief_set(s) == min_worlds(s, WorldSet.full(PQ))
