"""Acceptance suite: one test per criterion, exact tolerances, timed bounds.

Each test name carries its criterion number; the terminal summary prints one
pass/fail line per criterion (see conftest).
"""

import random
import time

from beliefrev.logic import Signature, WorldSet, dnf_of, models
from beliefrev.operators import (
    ABSURD,
    REVISION_OPERATORS,
    make_pair,
    outcome_belief_set,
)
from beliefrev.postulates import (
    FAILS,
    HOLDS,
    check_instance,
    run_suite,
    search_counterexample,
)
from beliefrev.states import (
    belief_set,
    enumerate_states,
    min_worlds,
    normalize,
    state_equal,
)
from beliefrev.theorems import (
    CONSISTENT,
    VACUOUSLY_CONSISTENT,
    run_george,
    verify_corollary1,
    verify_hansson,
    verify_observation1,
    verify_theorem1,
)

PQ = Signature(("p", "q"))
RGS = Signature(("r", "g", "s"))

FIRST_TABLE_NATURAL = {"000": 0, "100": 1, "101": 1, "110": 1, "111": 1,
                       "010": 2, "011": 2, "001": 3}
SECOND_TABLE_NATURAL = {"010": 0, "011": 0, "000": 1,
                        "100": 2, "101": 2, "110": 2, "111": 2, "001": 3}
FIRST_TABLE_FLATTEN = {"000": 0, "100": 1, "101": 1, "110": 1, "111": 1,
                       "010": 2, "011": 2, "001": 2}
SECOND_TABLE_FLATTEN = {"010": 0, "011": 0, "001": 0, "000": 1,
                        "100": 2, "101": 2, "110": 2, "111": 2}


def table(state):
    return {state.sig.bitstring(v): state.ranks[v] for v in state.sig.valuations()}


def test_c01_george_natural_golden_trace():
    start = time.perf_counter()
    result = run_george("natural")
    stages = result.stages
    assert table(stages[1].state) == FIRST_TABLE_NATURAL
    assert table(stages[2].state) == SECOND_TABLE_NATURAL
    assert result.gun_believed is True
    assert result.ok
    assert time.perf_counter() - start < 1.0


def test_c02_george_flatten_golden_trace():
    start = time.perf_counter()
    result = run_george("flatten")
    stages = result.stages
    assert table(stages[1].state) == FIRST_TABLE_FLATTEN
    assert table(stages[2].state) == SECOND_TABLE_FLATTEN
    assert result.gun_believed is False
    assert result.ok
    assert time.perf_counter() - start < 1.0


def test_c03_c2_discrimination():
    start = time.perf_counter()
    natural = run_george("natural")
    flat = run_george("flatten")
    assert natural.c2_status == HOLDS
    assert flat.c2_status == FAILS
    assert flat.c2_two_step.bitstrings() == ["001", "010", "011"]
    assert flat.c2_direct.bitstrings() == ["010", "011"]
    assert time.perf_counter() - start < 1.0


def test_c04_agm_suite_exhaustive():
    start = time.perf_counter()
    pids = [f"PC{i}" for i in range(1, 9)] + [f"PR{i}" for i in range(1, 9)]
    report = run_suite(make_pair("natural", "natural-con"), PQ, pids)
    assert report.total_fails == 0
    for r in report.results:
        expected = 75 * 15 * (15 if r.postulate in ("PC7", "PC8", "PR7", "PR8") else 1)
        assert r.checked == expected, r.postulate
        assert r.counterexample is None
    assert time.perf_counter() - start < 10.0


def test_c05_theorem1_four_pairs():
    start = time.perf_counter()
    for rev in ("natural", "flatten", "lex", "reverse"):
        report = verify_theorem1(make_pair(rev, "natural-con"), PQ)
        assert all(c.status == CONSISTENT for c in report.claims), rev
    # the engineered violator must show both sides of the biconditional
    reverse = make_pair("reverse", "natural-con")
    assert search_counterexample("S1", reverse, PQ) is not None
    assert search_counterexample("R1", reverse, PQ) is not None
    assert search_counterexample("S2", reverse, PQ) is not None
    assert any(
        search_counterexample(pid, reverse, PQ) is not None for pid in ("R2", "R3", "R4")
    )
    assert time.perf_counter() - start < 60.0


def test_c06_corollary1_zero_violations():
    start = time.perf_counter()
    for rev in ("natural", "flatten"):
        report = verify_corollary1(make_pair(rev, "natural-con"), PQ)
        claim = report.claims[0]
        assert claim.status == CONSISTENT, rev
        assert "0 violations" in claim.detail
        assert not claim.witnesses
    assert time.perf_counter() - start < 10.0


def test_c07_observation1_profile():
    start = time.perf_counter()
    report = verify_observation1(make_pair("natural", "natural-con"), PQ)
    claims = {c.claim: c for c in report.claims}
    for item in (2, 3, 4, 6, 7):
        claim = claims[f"observation1.{item}"]
        assert claim.status == CONSISTENT, item
        assert not claim.witnesses, item
    item5 = claims["observation1.5"]
    assert item5.status == CONSISTENT
    cex = item5.witnesses[0]
    assert cex.postulate == "R7"
    replay = check_instance("R7", make_pair(cex.revision, cex.contraction), cex.instance)
    assert replay.status == FAILS
    assert time.perf_counter() - start < 30.0


def test_c08_hansson_implication():
    start = time.perf_counter()
    natural = verify_hansson("natural-con", PQ)
    assert natural.claims[0].status == CONSISTENT
    assert not natural.claims[0].witnesses

    drastic = verify_hansson("drastic", PQ)
    claim = drastic.claims[0]
    assert claim.status == VACUOUSLY_CONSISTENT
    witnesses = {w.postulate: w for w in claim.witnesses}
    assert set(witnesses) == {"CORE", "PC6"}
    for pid, w in witnesses.items():
        pair = make_pair(w.revision, w.contraction)
        assert check_instance(pid, pair, w.instance).status == FAILS
    assert time.perf_counter() - start < 30.0


def test_c09_enumeration_counts():
    start = time.perf_counter()
    one = [s.ranks for s in enumerate_states(Signature(("a",)))]
    assert len(one) == 3 and len(set(one)) == 3

    two = [s.ranks for s in enumerate_states(PQ)]
    assert len(two) == 75 and len(set(two)) == 75

    count = 0
    for s in enumerate_states(RGS):  # streamed, not stored
        ranks = s.ranks
        top = max(ranks)
        assert set(ranks) == set(range(top + 1))  # normalized
        count += 1
    assert count == 545835
    assert time.perf_counter() - start < 60.0


def test_c10_property_suites():
    start = time.perf_counter()
    rng = random.Random(2024)

    # normalization idempotence
    for _ in range(300):
        raw = [rng.randrange(9) for _ in range(4)]
        s = normalize(PQ, raw)
        assert normalize(PQ, s.ranks) == s

    # rank-translation invariance of state equality
    for _ in range(300):
        raw = [rng.randrange(6) for _ in range(4)]
        shift = rng.randrange(1, 9)
        s = normalize(PQ, raw)
        assert state_equal(s, normalize(PQ, [r + shift for r in s.ranks]))

    # dnf/models roundtrip over one- to three-atom signatures
    for sig in (Signature(("a",)), PQ, RGS):
        for _ in range(150):
            w = WorldSet(sig, rng.randrange(sig.full_mask + 1))
            assert models(dnf_of(w, sig), sig) == w

    # faithfulness of every revision operator on random larger states
    for _ in range(200):
        raw = [rng.randrange(8) for _ in range(8)]
        s = normalize(RGS, raw)
        a = WorldSet(RGS, rng.randrange(1, RGS.full_mask + 1))
        for name, op in REVISION_OPERATORS.items():
            out = op(s, a)
            assert out is not ABSURD
            assert outcome_belief_set(out, RGS) == min_worlds(s, a), name

    # counterexample replay across operators, modes and postulates
    replayed = 0
    searches = [
        ("R7", make_pair("natural", "natural-con"), "exhaustive"),
        ("S1", make_pair("reverse", "natural-con"), "exhaustive"),
        ("R1", make_pair("reverse", "natural-con"), "exhaustive"),
        ("PC6", make_pair("natural", "drastic"), "exhaustive"),
        ("CORE", make_pair("natural", "drastic"), "exhaustive"),
        ("R7", make_pair("natural", "natural-con"), "sample"),
    ]
    for pid, pair, mode in searches:
        cex = search_counterexample(pid, pair, PQ, mode=mode, samples=300, seed=17)
        assert cex is not None, (pid, pair.name, mode)
        assert check_instance(pid, pair, cex.instance).status == FAILS
        replayed += 1
    assert replayed == len(searches)
    assert time.perf_counter() - start < 30.0


def test_c11_exhaustive_three_atom_search():
    # R1 holds for reverse+drastic, so the search meets all 139,187,925
    # single-input instances at three atoms.  It walks one state per shape
    # and replays the other states (about 1.5 s on 2 cores; 42 s when it
    # walked every state)
    start = time.perf_counter()
    assert search_counterexample("R1", make_pair("reverse", "drastic"), RGS,
                                 allow_large=True) is None
    assert time.perf_counter() - start < 20.0


def test_c12_exhaustive_three_atom_two_input_table():
    # C2 for flatten at three atoms: 586,604 cell patterns decided for
    # 35,492,920,875 instances, then a walk for each row's first instance
    # over one state per shape (about 2 s on 2 cores; 6.5-8.8 s when that
    # walk took every state)
    start = time.perf_counter()
    pair = make_pair("flatten", "natural-con")
    (result,) = run_suite(pair, RGS, ["C2"], allow_large=True).results
    assert result.checked == 545835 * 255 * 255
    assert result.fails > 0
    assert check_instance("C2", pair, result.counterexample.instance).status == FAILS
    assert time.perf_counter() - start < 20.0
