import pytest

from beliefrev import postulates, theorems
from beliefrev.logic import Signature, WorldSet
from beliefrev.operators import ContractionOperator, make_pair, natural_contraction
from beliefrev.postulates import FAILS, HOLDS, check_instance
from beliefrev.states import belief_set, enumerate_states, normalize
from beliefrev.theorems import (
    CONSISTENT,
    GEORGE_EXPECTED,
    INCONSISTENT,
    RECORDED,
    SKIPPED,
    VACUOUSLY_CONSISTENT,
    rank_table_diff,
    run_george,
    verify_corollary1,
    verify_hansson,
    verify_observation1,
    verify_theorem1,
)

PQ = Signature(("p", "q"))


# --- theorem 1 -----------------------------------------------------------------


@pytest.mark.parametrize("rev", ["natural", "flatten", "lex"])
def test_theorem1_consistent_for_stable_operators(rev):
    report = verify_theorem1(make_pair(rev, "natural-con"), PQ)
    assert report.ok
    for claim in report.claims:
        assert claim.status == CONSISTENT
        assert not claim.witnesses


def test_theorem1_consistent_for_reverse_with_witnesses():
    report = verify_theorem1(make_pair("reverse", "natural-con"), PQ)
    assert report.ok
    claim1, claim2 = report.claims
    assert claim1.status == CONSISTENT
    assert {w.postulate for w in claim1.witnesses} == {"S1", "R1"}
    assert claim2.status == CONSISTENT
    assert "S2" in {w.postulate for w in claim2.witnesses}
    assert {w.postulate for w in claim2.witnesses} & {"R2", "R3", "R4"}
    # every witness replays
    for claim in report.claims:
        for w in claim.witnesses:
            pair = make_pair(w.revision, w.contraction)
            assert check_instance(w.postulate, pair, w.instance).status == FAILS


def test_theorem1_skipped_without_agm_precondition():
    report = verify_theorem1(make_pair("natural", "drastic"), PQ)
    assert not report.ok
    assert all(c.status == SKIPPED for c in report.claims)
    assert "PC6" in report.claims[0].detail or "CORE" in report.claims[0].detail


def test_theorem1_reproducible():
    first = verify_theorem1(make_pair("reverse", "natural-con"), PQ)
    second = verify_theorem1(make_pair("reverse", "natural-con"), PQ)
    assert first == second


@pytest.mark.parametrize("rev", ["natural", "flatten", "lex", "reverse"])
def test_theorem1_consistent_at_single_atom(rev):
    # only two valuations: any proper input has a one-world complement, so
    # even the order-reversing operator keeps the stability conditions
    report = verify_theorem1(make_pair(rev, "natural-con"), Signature(("p",)))
    assert report.ok


# --- corollary 1 ----------------------------------------------------------------


@pytest.mark.parametrize("rev", ["natural", "flatten"])
def test_corollary1_zero_violations(rev):
    report = verify_corollary1(make_pair(rev, "natural-con"), PQ)
    claim = report.claims[0]
    assert claim.status == CONSISTENT
    assert "0 violations" in claim.detail
    # independent census: applicability means the input's negation is not
    # believed, so the starting belief set meets the input
    applicable = sum(
        1
        for s in enumerate_states(PQ)
        for mask in range(1, PQ.full_mask + 1)
        if not belief_set(s).issubset(WorldSet(PQ, mask).complement())
    )
    assert f"{applicable} applicable" in claim.detail
    assert f"{75 * 15 - applicable} inapplicable" in claim.detail


def test_corollary1_skipped_when_stability_fails():
    report = verify_corollary1(make_pair("reverse", "natural-con"), PQ)
    assert report.claims[0].status == SKIPPED


# --- observation 1 -----------------------------------------------------------------


@pytest.mark.parametrize("rev", ["natural", "flatten"])
def test_observation1_profile(rev):
    report = verify_observation1(make_pair(rev, "natural-con"), PQ)
    claims = {c.claim: c for c in report.claims}
    assert claims["observation1.1"].status == RECORDED
    assert "R3 holds" in claims["observation1.1"].detail
    for item in (2, 3, 4, 6, 7):
        assert claims[f"observation1.{item}"].status == CONSISTENT, item
        assert not claims[f"observation1.{item}"].witnesses
    item5 = claims["observation1.5"]
    assert item5.status == CONSISTENT
    assert len(item5.witnesses) == 1
    cex = item5.witnesses[0]
    pair = make_pair(cex.revision, cex.contraction)
    assert check_instance("R7", pair, cex.instance).status == FAILS


def test_observation1_reverse_records_linked_failures():
    report = verify_observation1(make_pair("reverse", "natural-con"), PQ)
    claims = {c.claim: c for c in report.claims}
    # the S2-linked postulates co-fail, keeping every item consistent
    assert "R3 counterexample" in claims["observation1.1"].detail
    assert claims["observation1.4"].status == CONSISTENT
    assert "R6 fails" in claims["observation1.4"].detail
    assert not any(c.status == INCONSISTENT for c in report.claims)


# --- recovery implication ------------------------------------------------------------


def test_hansson_natural_contraction_consistent():
    report = verify_hansson("natural-con", PQ)
    claim = report.claims[0]
    assert claim.status == CONSISTENT
    assert not claim.witnesses
    assert claim.postulates == ("PC1", "PC2", "PC3", "PC4", "PC5", "CORE", "PC6")


def test_hansson_drastic_vacuously_consistent_with_witnesses():
    report = verify_hansson("drastic", PQ)
    claim = report.claims[0]
    assert claim.status == VACUOUSLY_CONSISTENT
    found = {w.postulate for w in claim.witnesses}
    assert found == {"CORE", "PC6"}
    for w in claim.witnesses:
        pair = make_pair(w.revision, w.contraction)
        assert check_instance(w.postulate, pair, w.instance).status == FAILS


def test_hansson_accepts_duplicate_of_natural_contraction():
    clone = ContractionOperator("natural-clone", lambda s, a: natural_contraction(s, a))
    report = verify_hansson(clone, PQ)
    assert report.claims[0].status == CONSISTENT


# --- one scan per harness ---------------------------------------------------------------


NATURAL = make_pair("natural", "natural-con")
DRASTIC = make_pair("natural", "drastic")


@pytest.mark.parametrize("verify, target, skipped", [
    (verify_theorem1, NATURAL, False),
    (verify_theorem1, DRASTIC, True),
    (verify_corollary1, NATURAL, False),
    (verify_corollary1, DRASTIC, False),
    (verify_corollary1, make_pair("reverse", "natural-con"), True),
    (verify_observation1, NATURAL, False),
    (verify_observation1, DRASTIC, True),
    (verify_hansson, "natural-con", False),
    (verify_hansson, "drastic", False),
], ids=lambda v: getattr(v, "__name__", getattr(v, "name", v)))
def test_each_harness_is_one_scan(monkeypatch, verify, target, skipped):
    # both bindings count, so a suite or search inside a harness would too
    scans = []
    scan = postulates._scan

    def counting(pids, *args, **kwargs):
        scans.append(list(pids))
        return scan(pids, *args, **kwargs)

    monkeypatch.setattr(postulates, "_scan", counting)
    monkeypatch.setattr(theorems, "_scan", counting)
    report = verify(target, PQ)
    assert len(scans) == 1
    assert all(c.status == SKIPPED for c in report.claims) == skipped


# --- the worked example ----------------------------------------------------------------


def test_george_natural_golden():
    result = run_george("natural")
    assert result.ok
    tables = [
        {result.sig.bitstring(v): stage.state.ranks[v] for v in result.sig.valuations()}
        for stage in result.stages
    ]
    assert tables[1] == GEORGE_EXPECTED["natural"][0]
    assert tables[2] == GEORGE_EXPECTED["natural"][1]
    assert result.gun_believed is True
    assert result.c2_status == HOLDS
    assert all(stage.s1 and stage.s2 for stage in result.stages[1:])


def test_george_flatten_golden():
    result = run_george("flatten")
    assert result.ok
    assert result.gun_believed is False
    assert result.c2_status == FAILS
    assert result.c2_two_step.bitstrings() == ["001", "010", "011"]
    assert result.c2_direct.bitstrings() == ["010", "011"]
    assert all(stage.s1 and stage.s2 for stage in result.stages[1:])


def test_george_rejects_unknown_operator():
    with pytest.raises(ValueError):
        run_george("reverse")


def test_rank_table_diff_reports_per_valuation():
    s = normalize(PQ, [0, 0, 1, 1])
    expected = {"00": 0, "01": 1, "10": 1, "11": 1}
    diff = rank_table_diff(PQ, expected, s)
    assert diff == ("01: expected 1, got 0",)
    assert rank_table_diff(PQ, {"00": 0, "01": 0, "10": 1, "11": 1}, s) == ()
