import pytest

from beliefrev import postulates
from beliefrev.cli import run as cli_run
from beliefrev.logic import Signature, WorldSet, models, parse_formula
from beliefrev.operators import make_pair
from beliefrev.postulates import (
    ALL_POSTULATE_IDS,
    FAILS,
    HOLDS,
    POSTULATES,
    VACUOUS,
    Instance,
    check_instance,
    iter_instances,
    run_suite,
    search_counterexample,
)
from beliefrev.states import belief_set, enumerate_states, min_worlds, normalize

PQ = Signature(("p", "q"))
RGS = Signature(("r", "g", "s"))

INITIAL = {"100": 0, "101": 0, "110": 0, "111": 0,
           "010": 1, "011": 1, "000": 2, "001": 2}

AGM_IDS = [f"PC{i}" for i in range(1, 9)] + [f"PR{i}" for i in range(1, 9)]
PC_IDS = [f"PC{i}" for i in range(1, 9)]

NATURAL = make_pair("natural", "natural-con")
FLATTEN = make_pair("flatten", "natural-con")
REVERSE = make_pair("reverse", "natural-con")
DRASTIC = make_pair("natural", "drastic")


def ws(sig, *bits):
    return WorldSet.from_bitstrings(sig, bits)


def george_instance():
    start = normalize(RGS, INITIAL)
    first = models(parse_formula("!(r | g | s)", RGS), RGS)
    second = models(parse_formula("!r & (g | s)", RGS), RGS)
    return Instance(start, first, second)


# --- single instances ----------------------------------------------------------


def test_c2_discriminates_at_worked_example():
    inst = george_instance()
    natural = check_instance("C2", NATURAL, inst)
    assert natural.status == HOLDS
    flat = check_instance("C2", FLATTEN, inst)
    assert flat.status == FAILS
    # the failure witness: two-step belief set vs direct revision
    assert "{001,010,011}" in flat.note or "001,010,011" in flat.note
    assert "010,011" in flat.note


def test_r2_vacuous_when_input_believed():
    s = normalize(PQ, {"10": 0, "11": 0, "00": 1, "01": 1})
    inst = Instance(s, ws(PQ, "10", "11"))  # p is believed
    assert check_instance("R2", NATURAL, inst).status == VACUOUS


def test_pr6_dedicated_bottom_input():
    s = normalize(PQ, [0, 0, 1, 1])
    assert check_instance("PR6", NATURAL, Instance(s, WorldSet.empty(PQ))).status == HOLDS
    assert check_instance("PR6", NATURAL, Instance(s, WorldSet.full(PQ))).status == HOLDS


def test_arity_and_input_validation():
    s = normalize(PQ, [0, 0, 1, 1])
    a = ws(PQ, "01")
    with pytest.raises(ValueError, match="unknown postulate"):
        check_instance("PC9", NATURAL, Instance(s, a))
    with pytest.raises(ValueError, match="second input"):
        check_instance("C1", NATURAL, Instance(s, a))
    with pytest.raises(ValueError, match="single input"):
        check_instance("R1", NATURAL, Instance(s, a, a))
    with pytest.raises(ValueError, match="non-empty"):
        check_instance("R1", NATURAL, Instance(s, WorldSet.empty(PQ)))
    with pytest.raises(ValueError, match="signature"):
        check_instance("R1", NATURAL, Instance(s, WorldSet.full(RGS)))


def test_registry_arities():
    assert ALL_POSTULATE_IDS == tuple(POSTULATES)
    three = {pid for pid, p in POSTULATES.items() if p.arity == 3}
    assert three == {"PC7", "PC8", "PR7", "PR8", "C1", "C2", "C3", "C4"}


# --- searches ---------------------------------------------------------------------


def test_r7_counterexample_exists_and_replays():
    cex = search_counterexample("R7", NATURAL, PQ)
    assert cex is not None
    assert check_instance("R7", NATURAL, cex.instance).status == FAILS


def test_r1_clean_for_natural():
    assert search_counterexample("R1", NATURAL, PQ) is None


def test_r1_counterexample_for_reverse():
    cex = search_counterexample("R1", REVERSE, PQ)
    assert cex is not None
    assert check_instance("R1", REVERSE, cex.instance).status == FAILS


def test_search_is_deterministic():
    first = search_counterexample("R7", NATURAL, PQ)
    second = search_counterexample("R7", NATURAL, PQ)
    assert first == second


def test_search_sample_mode_reproducible():
    kwargs = dict(mode="sample", samples=50, seed=11)
    first = search_counterexample("R7", NATURAL, PQ, **kwargs)
    second = search_counterexample("R7", NATURAL, PQ, **kwargs)
    assert first == second and first is not None


def test_search_gates_large_signatures():
    with pytest.raises(ValueError, match="gated"):
        search_counterexample("R7", NATURAL, RGS)


def test_search_three_atoms_behind_flag():
    # R7 fails on an early instance, so the gated exhaustive run stays fast
    cex = search_counterexample("R7", NATURAL, RGS, allow_large=True)
    assert cex is not None
    assert check_instance("R7", NATURAL, cex.instance).status == FAILS


def test_sampled_suite_clean_at_three_atoms():
    report = run_suite(NATURAL, RGS, ["PR2", "PC6", "S1", "S2", "R1"],
                       mode="sample", samples=150, seed=9)
    assert report.total_fails == 0
    assert report.mode == "sample" and report.seed == 9 and report.samples == 150


# --- suites ------------------------------------------------------------------------


def test_agm_suite_clean_for_natural_pair():
    report = run_suite(NATURAL, PQ, AGM_IDS)
    assert report.total_fails == 0
    by_id = {r.postulate: r for r in report.results}
    assert by_id["PC1"].checked == 75 * 15
    assert by_id["PC7"].checked == 75 * 15 * 15
    for r in report.results:
        assert r.checked == r.holds + r.vacuous + r.fails


def test_agm_suite_clean_for_every_faithful_pair():
    for rev in ("flatten", "lex", "reverse"):
        report = run_suite(make_pair(rev, "natural-con"), PQ, AGM_IDS)
        assert report.total_fails == 0, rev


def test_drastic_fails_core_and_recovery():
    report = run_suite(DRASTIC, PQ, PC_IDS + ["CORE"])
    by_id = {r.postulate: r for r in report.results}
    assert by_id["PC6"].fails > 0 and by_id["PC6"].counterexample is not None
    assert by_id["CORE"].fails > 0 and by_id["CORE"].counterexample is not None
    for pid in ("PC1", "PC2", "PC3", "PC4", "PC5"):
        assert by_id[pid].fails == 0, pid
    # replay both witnesses
    for pid in ("PC6", "CORE"):
        cex = by_id[pid].counterexample
        assert check_instance(pid, DRASTIC, cex.instance).status == FAILS


def test_core_clean_for_natural_contraction():
    report = run_suite(NATURAL, PQ, ["CORE"])
    assert report.total_fails == 0


def test_iterated_revision_suite_profiles():
    natural = run_suite(NATURAL, PQ, ["C1", "C2", "C3", "C4"])
    assert natural.total_fails == 0
    flat = run_suite(FLATTEN, PQ, ["C2"])
    cex = flat.results[0].counterexample
    assert cex is not None
    assert check_instance("C2", FLATTEN, cex.instance).status == FAILS


def test_r5_and_r8_clean_for_faithful_pairs():
    # wherever R1 is clean R5 must be, and R8 is clean for every pair
    # satisfying the base suites
    for rev in ("natural", "flatten", "lex", "reverse"):
        pair = make_pair(rev, "natural-con")
        assert search_counterexample("R8", pair, PQ) is None, rev
        if search_counterexample("R1", pair, PQ) is None:
            assert search_counterexample("R5", pair, PQ) is None, rev


def test_empty_postulate_list():
    report = run_suite(NATURAL, PQ, [])
    assert report.results == ()


def test_suite_rejects_unknown_postulate():
    with pytest.raises(ValueError):
        run_suite(NATURAL, PQ, ["nope"])


def test_parallel_suite_matches_sequential():
    seq = run_suite(NATURAL, PQ, ["R7", "PC6"])
    par = run_suite(NATURAL, PQ, ["R7", "PC6"], jobs=2)
    assert seq.results == par.results


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(capsys, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_suite(NATURAL, PQ, ["R7"], jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        search_counterexample("R7", NATURAL, PQ, jobs=jobs)
    for command in ("check", "corollary1", "observation1"):
        argv = [command, "--atoms", "p,q", "--jobs", str(jobs)]
        argv += ["--postulate", "R7"] if command == "check" else []
        assert cli_run(argv) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


def test_jobs_clamped_to_cpu_count(monkeypatch):
    # The pool is a recording stand-in, so the huge jobs value starts no process.
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(postulates, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 3)
    clamped = run_suite(NATURAL, PQ, ["R7"], jobs=10_000)
    assert pools == [3]
    assert clamped.results == run_suite(NATURAL, PQ, ["R7"]).results


# --- cross-postulate invariants ------------------------------------------------------


def test_s1_and_s2_iff_minimal_countermodels_fixed():
    for s in enumerate_states(PQ):
        for mask in range(1, PQ.full_mask + 1):
            a = WorldSet(PQ, mask)
            inst = Instance(s, a)
            for pair in (NATURAL, REVERSE):
                both = (
                    check_instance("S1", pair, inst).status == HOLDS
                    and check_instance("S2", pair, inst).status == HOLDS
                )
                out = pair.revision(s, a)
                fixed = min_worlds(out, a.complement()) == min_worlds(s, a.complement())
                assert both == fixed


def test_instance_level_observation_implications():
    # with the vacuity-respecting contraction: R2 forces R9, R1 forces R5,
    # and on unbelieved inputs R5 forces R1
    for s in enumerate_states(PQ):
        base = belief_set(s)
        for mask in range(1, PQ.full_mask + 1):
            a = WorldSet(PQ, mask)
            inst = Instance(s, a)
            r1 = check_instance("R1", NATURAL, inst).status
            r2 = check_instance("R2", NATURAL, inst).status
            r5 = check_instance("R5", NATURAL, inst).status
            r9 = check_instance("R9", NATURAL, inst).status
            if r2 == HOLDS:
                assert r9 == HOLDS
            if r1 == HOLDS and r5 != VACUOUS:
                assert r5 == HOLDS
            if not base.issubset(a) and r5 == HOLDS and r1 != VACUOUS:
                assert r1 == HOLDS


def test_iter_instances_counts():
    states = list(enumerate_states(PQ))
    assert sum(1 for _ in iter_instances("R1", PQ, states)) == 75 * 15
    assert sum(1 for _ in iter_instances("C1", PQ, states)) == 75 * 15 * 15


def test_counterexamples_from_sample_replay():
    for pid in ("R7", "S1"):
        for pair in (NATURAL, REVERSE):
            cex = search_counterexample(pid, pair, PQ, mode="sample", samples=200, seed=5)
            if cex is not None:
                assert check_instance(pid, pair, cex.instance).status == FAILS
