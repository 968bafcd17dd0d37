import dataclasses
import gc
import hashlib
import itertools
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beliefrev import states
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


def atoms(n):
    return Signature(tuple(f"a{i}" for i in range(n)))


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


@pytest.mark.parametrize("make", [tuple, iter, lambda ranks: (r for r in ranks)],
                         ids=["tuple", "iterator", "generator"])
def test_normalize_accepts_any_iterable(make):
    raw = [5, 0, 5, 9]
    assert normalize(PQ, make(raw)) == normalize(PQ, raw) == RankedState(PQ, (1, 0, 1, 2))


def test_normalize_accepts_range():
    assert normalize(PQ, range(3, 7)) == normalize(PQ, [3, 4, 5, 6])
    assert normalize(PQ, range(4)).ranks == (0, 1, 2, 3)


def test_normalize_error_messages_and_order():
    # the length check runs before any rank is converted or range-checked
    with pytest.raises(ValueError, match=r"^expected 4 ranks, got 3$"):
        normalize(PQ, [0, "x", -1])
    with pytest.raises(ValueError, match=r"^expected 4 ranks, got 5$"):
        normalize(PQ, (r for r in range(5)))
    with pytest.raises(ValueError, match="invalid literal for int"):
        normalize(PQ, [0, "x", -1, 0])
    with pytest.raises(ValueError, match=r"^ranks must be natural numbers$"):
        normalize(PQ, (0, -1, 0, 0))
    with pytest.raises(ValueError, match=r"^missing valuation\(s\): 10, 11$"):
        normalize(PQ, {"00": 0, "01": 1})
    with pytest.raises(ValueError, match=r"^valuation 4 out of range$"):
        normalize(PQ, {0: 0, 1: 0, 2: 0, 4: 0})
    with pytest.raises(ValueError, match=r"^duplicate rank for valuation 00$"):
        normalize(PQ, {"00": 0, 0: 1})


def test_ranked_state_requires_normalized_ranks():
    for ranks in ((0, 2, 2, 0), (1, 1, 1, 1), (0, 1, 0, -1)):
        with pytest.raises(ValueError, match=r"^ranks not normalized: must cover 0\.\.k contiguously$"):
            RankedState(PQ, ranks)
    for ranks in ((0, 1, 0), (0, 1, 0, 1, 0)):
        with pytest.raises(ValueError, match=rf"^expected 4 ranks, got {len(ranks)}$"):
            RankedState(PQ, ranks)


def test_ranked_state_constructor_fields():
    for make in (list, iter, lambda r: (x for x in r)):
        s = RankedState(PQ, make([0, 1, 1, 0]))
        assert s.ranks == (0, 1, 1, 0) and type(s.ranks) is tuple
        assert s.sig is PQ
    for name, value in (("sig", RGS), ("ranks", (0, 0, 0, 0)), ("_hash", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
    assert s.ranks == (0, 1, 1, 0) and s._hash is None
    assert dataclasses.replace(s, ranks=[1, 0, 0, 0]) == RankedState(PQ, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="not normalized"):
        dataclasses.replace(s, ranks=(0, 2, 0, 0))


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


def test_state_equality_by_value():
    s = RankedState(PQ, (0, 1, 1, 0))
    twin = RankedState(Signature(("p", "q")), [0, 1, 1, 0])
    assert twin.sig is not PQ
    assert s == twin and twin == s and not s != twin
    assert hash(s) == hash(twin)
    other_sig = RankedState(Signature(("p", "r")), (0, 1, 1, 0))
    assert s != other_sig and not s == other_sig
    assert s != RankedState(PQ, (0, 1, 0, 1))
    assert RankedState.__eq__(s, s.ranks) is NotImplemented
    assert s != s.ranks and s != None  # noqa: E711


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


def test_repr_reads_the_level_masks_once(monkeypatch):
    # a sampled n = 10 state has hundreds of levels, and the masks are
    # computed afresh on each read, so a read per level would be quadratic
    calls = []
    level_masks = states._level_masks

    def counted(s):
        calls.append(s.ranks)
        return level_masks(s)

    monkeypatch.setattr(states, "_level_masks", counted)
    assert repr(RankedState(PQ, (3, 2, 1, 0))) == "RankedState({11} < {10} < {01} < {00})"
    assert calls == [(3, 2, 1, 0)]


def test_level_masks_are_not_retained():
    # a sampled n = 12 state has thousands of levels, each a 4096-bit mask;
    # once the states are dropped, no table may keep their masks alive
    sampled = list(sample_states(atoms(12), 3, 0))
    gc.collect()
    tracemalloc.start()
    try:
        for s in sampled:
            belief_set(s)
        del s, sampled
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained


def test_contiguity_check_keeps_no_table():
    # each sampled n = 12 state has its own level count; checking that its
    # ranks cover 0..k-1 must leave nothing behind once the state is dropped
    gc.collect()
    tracemalloc.start()
    try:
        for s in sample_states(atoms(12), 20, 0):
            pass
        del s
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained


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
    # int() would read these as 10, 1 and 1: ranks are ASCII decimal digits only
    "atoms: p q\n00: 0\n01: 0\n10: 0\n11: 1_0",
    "atoms: p q\n00: 0\n01: 0\n10: 0\n11: +1",
    "atoms: p q\n00: 0\n01: 0\n10: 0\n11: \u0661",
    # more digits than int() converts by default
    "atoms: p q\n00: 0\n01: 0\n10: 0\n11: " + "9" * 5000,
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


def _enumerate_brute_force(sig):
    """Oracle: recursive surjections onto 1, 2, ... levels, lexicographic
    within each level count."""
    total = sig.num_valuations
    vec = [0] * total

    def go(i, used, onto):
        if i == total:
            yield tuple(vec)
            return
        budget = total - i - 1
        for value in range(onto):
            new_used = used | (1 << value)
            if onto - new_used.bit_count() <= budget:
                vec[i] = value
                yield from go(i + 1, new_used, onto)

    for levels in range(1, total + 1):
        yield from go(0, 0, levels)


def _ranks_digest(vectors):
    digest = hashlib.sha256()
    for ranks in vectors:
        digest.update(bytes(ranks))
    return digest.hexdigest()


@pytest.mark.parametrize("sig", [Signature(("p",)), PQ], ids=["n1", "n2"])
def test_enumerate_matches_brute_force_small(sig):
    assert [s.ranks for s in enumerate_states(sig)] == list(_enumerate_brute_force(sig))


def test_enumerate_n3_matches_brute_force_in_bounded_memory():
    # one streamed pass: the suffix tables stay small and no state is kept
    expected = _ranks_digest(_enumerate_brute_force(RGS))
    stream = enumerate_states(RGS)
    tracemalloc.start()
    try:
        got = _ranks_digest(s.ranks for s in stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 4 * 1024 * 1024


def test_enumerate_n3_rank_vectors_match_brute_force_in_bounded_memory():
    # the vector layer alone: the same stream without building a state
    expected = _ranks_digest(_enumerate_brute_force(RGS))
    stream = enumerate_states(RGS)
    tracemalloc.start()
    try:
        got = _ranks_digest(stream.rank_vectors())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 4 * 1024 * 1024


def _layers_agree(stream):
    """Whether rank_vectors() and the stream's states agree, position by position."""
    pairs = itertools.zip_longest(stream.rank_vectors(), stream)
    return all(s is not None and vec == s.ranks for vec, s in pairs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_rank_vectors_are_the_states_ranks(n):
    assert _layers_agree(enumerate_states(atoms(n)))


@pytest.mark.parametrize("n, count", [(1, 200), (2, 200), (3, 500), (4, 100), (7, 5), (8, 2)],
                         ids=["n1", "n2", "n3", "n4", "n7", "n8"])
def test_sampled_rank_vectors_are_the_states_ranks(n, count):
    for seed in (0, 1, 7, 2**40 + 3):
        assert _layers_agree(sample_states(atoms(n), count, seed))


@pytest.mark.parametrize("stream", [
    *(enumerate_states(atoms(n)) for n in (1, 2, 3)),
    *(sample_states(atoms(3), 2000, seed) for seed in (0, 5)),
    *(sample_states(atoms(8), 3, seed) for seed in (0, 5)),
], ids=["exhaustive-n1", "exhaustive-n2", "exhaustive-n3",
        "sampled-n3-seed0", "sampled-n3-seed5", "sampled-n8-seed0", "sampled-n8-seed5"])
def test_every_rank_vector_is_a_valid_state(stream):
    # the vector layer skips the constructor's check; this is its oracle
    count = 0
    for vec in stream.rank_vectors():
        assert type(vec) is tuple
        assert RankedState(stream.sig, vec).ranks == vec
        count += 1
    assert count == stream.count


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


# n = 7 is the widest signature whose ranks are drawn as bytes; n = 8 draws
# each rank on its own
@pytest.mark.parametrize("n, count", [(1, 200), (2, 200), (3, 200), (4, 50), (7, 5), (8, 2)],
                         ids=["n1", "n2", "n3", "n4", "n7", "n8"])
def test_sample_matches_randrange_reference(n, count):
    sig = atoms(n)
    total = sig.num_valuations
    for seed in (*range(10), 2**40 + 3):
        rng = random.Random(seed)
        expected = [normalize(sig, [rng.randrange(total) for _ in range(total)])
                    for _ in range(count)]
        assert list(sample_states(sig, count, seed)) == expected


@pytest.mark.parametrize("n", [1, 3, 7])
def test_sample_prefix_is_independent_of_count(n):
    # draws come in blocks sized from the states still to make, so a longer
    # stream refills at other points; about half the words are accepted
    total = 2 ** n
    per_block = states._BLOCK_WORDS // (2 * total)
    longest = 4 * per_block
    full = [s.ranks for s in sample_states(atoms(n), longest, 5)]
    for count in (1, 2, per_block - 1, per_block, per_block + 1, 2 * per_block + 3, longest - 1):
        assert [s.ranks for s in sample_states(atoms(n), count, 5)] == full[:count]


def _sampled_byte_iter_oracle(sig, count, seed):
    """Sampled rank vectors compacted one state at a time: each state's
    sorted set of used ranks is mapped onto 0..k-1 by a maketrans table."""
    total = sig.num_valuations
    to_rank = bytes(b >> (7 - sig.n) for b in range(256))
    ident = bytes(range(256))
    getrandbits = random.Random(seed).getrandbits
    tables = {}
    pending = b""
    while count:
        words = min(2 * (count * total - len(pending)) + 64, 1 << 14)
        block = getrandbits(32 * words).to_bytes(4 * words, "little")
        draws = pending + block[3::4].translate(to_rank, ident[128:])
        stop = min(len(draws) // total, count) * total
        for start in range(0, stop, total):
            raw = draws[start:start + total]
            used = frozenset(raw)
            table = tables.get(used)
            if table is None:
                table = tables[used] = bytes.maketrans(bytes(sorted(used)), ident[:len(used)])
            yield tuple(raw.translate(table))
        count -= stop // total
        pending = draws[stop:]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_compaction_matches_per_state_oracle(n):
    # counts straddle the refills of the draw buffer
    sig = atoms(n)
    per_block = states._BLOCK_WORDS // (2 * sig.num_valuations)
    for seed in (0, 1, 7, 2**40 + 3):
        for count in (1, per_block - 1, per_block + 1, 2 * per_block + 3):
            expected = list(_sampled_byte_iter_oracle(sig, count, seed))
            assert list(sample_states(sig, count, seed).rank_vectors()) == expected
            assert sample_states(sig, count, seed).distinct() == len(set(expected))


@pytest.mark.parametrize("stream", [
    *(sample_states(atoms(n), count, seed)
      for n, count in ((1, 50), (2, 2000), (3, 3000), (4, 500), (5, 200), (6, 50), (7, 20),
                       (8, 3))
      for seed in (0, 7)),
    *(enumerate_states(atoms(n)) for n in (1, 2)),
], ids=[*(f"sampled-n{n}-seed{seed}" for n in range(1, 9) for seed in (0, 7)),
        "exhaustive-n1", "exhaustive-n2"])
def test_distinct_counts_distinct_rank_vectors(stream):
    assert stream.distinct() == len(set(stream.rank_vectors()))


def test_sample_distinct_memory_is_bounded_at_n3():
    # the compacted blocks are counted as one int per row, with no tuple per
    # state: 200,000 n = 3 samples hold 154,999 distinct rows
    stream = sample_states(atoms(3), 200000, 0)
    tracemalloc.start()
    try:
        distinct = stream.distinct()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert distinct == 154999
    assert peak < 12 * 1024 * 1024, peak


def test_sample_memory_is_bounded_at_n7():
    # the draw buffer is refilled a block at a time and no compaction table
    # is kept at n = 7, so the peak stays flat however many states stream by
    stream = sample_states(atoms(7), 2000, 1)
    tracemalloc.start()
    try:
        for _ in stream:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_sample_requires_positive_count():
    with pytest.raises(ValueError):
        sample_states(PQ, 0, 1)


def test_sample_rejects_negative_seed():
    # Random seeds by absolute value: -5 would draw the states of seed 5
    with pytest.raises(ValueError, match=r"^seed must be a natural number, got -5$"):
        sample_states(PQ, 10, -5)
    assert len(list(sample_states(PQ, 10, 0))) == 10


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
