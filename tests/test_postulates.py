import multiprocessing
import os
import pickle
import pickletools
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import islice, permutations
from operator import itemgetter
from pathlib import Path

import pytest

from beliefrev import postulates, theorems
from beliefrev.cli import run as cli_run
from beliefrev.logic import Signature, WorldSet, dnf_of, models, parse_formula
from beliefrev.operators import (
    CONTRACTION_OPERATORS,
    REVISION_OPERATORS,
    ContractionOperator,
    OperatorPair,
    RevisionOperator,
    _Run,
    _transforms,
    drastic_withdrawal,
    make_pair,
    natural_contraction,
    natural_revision,
)
from beliefrev.postulates import (
    ALL_POSTULATE_IDS,
    FAILS,
    HOLDS,
    POSTULATES,
    VACUOUS,
    Counterexample,
    Instance,
    PostulateResult,
    Verdict,
    check_instance,
    iter_instances,
    run_suite,
    search_counterexample,
)
from beliefrev.states import (
    RankedState,
    StateStream,
    _level_masks,
    belief_set,
    count_weak_orders,
    enumerate_states,
    min_worlds,
    normalize,
    sample_states,
)
from beliefrev.theorems import verify_hansson

P = Signature(("p",))
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


@pytest.mark.parametrize("pid", ["PC5", "PR5"])
def test_extensionality_rebuilds_input_through_dnf(monkeypatch, pid):
    # the equivalent input must come from a DNF round trip through the module's
    # own models and dnf_of names, which are what an instrumented run counts
    calls = {"models": 0, "dnf_of": 0}

    def counted(name):
        real = getattr(postulates, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(postulates, name, counted(name))
    s = normalize(PQ, [0, 0, 1, 1])
    verdict = check_instance(pid, NATURAL, Instance(s, ws(PQ, "01", "10")))
    assert verdict.status == HOLDS
    assert verdict.trace[-1][0].endswith("(equivalent input)")
    assert calls == {"models": 1, "dnf_of": 1}


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
    with pytest.raises(ValueError, match="share the state's signature"):
        check_instance("C1", NATURAL, Instance(s, a, WorldSet.full(RGS)))
    twin = Signature(("p", "q"))
    assert check_instance("C1", NATURAL, Instance(s, a, WorldSet(twin, a.mask))).status == HOLDS


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


def test_parallel_suite_matches_sequential(monkeypatch):
    # exhaustive tables split the keys among the pool's tasks, by the cells
    # of their first level; at n <= 2 a table starts a pool only with no key
    # threshold
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    for sig in (P, PQ):
        for pair in (NATURAL, make_pair("reverse", "drastic")):
            seq = run_suite(pair, sig, ALL_POSTULATE_IDS)
            par = run_suite(pair, sig, ALL_POSTULATE_IDS, jobs=2)
            assert seq.results == par.results, (sig, pair)


def test_registry_rows_reach_workers_as_registry_objects(monkeypatch, recorded_pools):
    # pool tasks name registry rows by pid, so a worker decides the
    # registry's own rows; registry operators travel by name the same way
    for op in (*REVISION_OPERATORS.values(), *CONTRACTION_OPERATORS.values()):
        assert pickle.loads(pickle.dumps(op)) is op
    groups = []

    def recording(task):
        def recorded(group, part, **kwargs):
            groups.append(pickle.loads(pickle.dumps(group)))
            return task(group, part, **kwargs)
        return recorded

    monkeypatch.setattr(postulates, "_decide_keys", recording(postulates._decide_keys))
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    pids = ["R7", "C2", "R1"]
    pooled = run_suite(NATURAL, PQ, pids, jobs=2)
    # an exhaustive table has one task per group and subtree of its keys:
    # 3 first-level cell patterns at arity 2, 15 at arity 3
    assert groups == [("R7", "R1")] * 3 + [("C2",)] * 15
    assert pooled == run_suite(NATURAL, PQ, pids)


def test_swapped_registry_operators_pickle_by_name(monkeypatch):
    # a registry entry swapped for a wrapper whose fn is a closure, as the
    # benchmark's tracer does, still pickles: by name, not by value
    def wrapped(op):
        def fn(s, a):
            return op.fn(s, a)
        return type(op)(op.name, fn)

    for table in (REVISION_OPERATORS, CONTRACTION_OPERATORS):
        for name, op in list(table.items()):
            monkeypatch.setitem(table, name, wrapped(op))
            assert pickle.loads(pickle.dumps(table[name])) is table[name]
        # the replaced original is no longer an entry, so it pickles by value
        assert pickle.loads(pickle.dumps(op)).fn is op.fn


def test_library_operators_pickle_by_value():
    # an operator outside the registry, even one named like a registry
    # entry, pickles by value with its fn by reference
    for op in (RevisionOperator("mine", natural_revision),
               ContractionOperator("natural-con", drastic_withdrawal)):
        back = pickle.loads(pickle.dumps(op))
        assert (type(back), back.name, back.fn) == (type(op), op.name, op.fn)


@pytest.mark.parametrize("fn", [natural_contraction, drastic_withdrawal],
                         ids=lambda fn: fn.__name__)
def test_library_contraction_gives_the_same_hansson_report_under_jobs(monkeypatch, fn):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    mine = ContractionOperator("mine", fn)
    sequential = verify_hansson(mine, PQ, jobs=1)
    assert verify_hansson(mine, PQ, jobs=2) == sequential
    assert multiprocessing.active_children() == []


def test_library_revision_gives_the_same_suite_under_jobs(monkeypatch):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    pair = OperatorPair(RevisionOperator("mine", natural_revision), CONTRACTION_OPERATORS["drastic"])
    sequential = run_suite(pair, PQ)
    assert run_suite(pair, PQ, jobs=2) == sequential
    cexs = [r.counterexample for r in sequential.results if r.counterexample is not None]
    assert cexs and {(c.revision, c.contraction) for c in cexs} == {("mine", "drastic")}


def test_value_objects_pickle_as_constructor_arguments():
    # cached hashes cover salted str hashes, so a pickle must carry only the
    # constructor arguments and unpickling must rebuild through the constructor
    report = run_suite(make_pair("reverse", "drastic"), P, ["PC6"])
    cex = report.results[0].counterexample
    assert cex is not None and cex.verdict.status == FAILS
    state = cex.instance.state
    # formula nodes cache their hashes too; a DNF round trip's formula and a
    # parsed one with every node type
    dnf = dnf_of(WorldSet(PQ, 0b0110), PQ)
    parsed = parse_formula("!(p -> q) <-> (q | true) & p", PQ)
    for obj, args in ((P, (P.atoms,)), (cex.instance.a, (P, cex.instance.a.mask)),
                      (state, (P, state.ranks)), (dnf, (dnf.left, dnf.right)),
                      (parsed, (parsed.left, parsed.right)), (parsed.left, (parsed.left.operand,))):
        hash(obj)
        assert obj.__reduce__() == (type(obj), args)
    formula_hashes = {hash(dnf), hash(dnf.left), hash(parsed), hash(parsed.left),
                      hash(parsed.right)}
    for obj in (P, cex.instance.a, state, cex, dnf, parsed):
        data = pickle.dumps(obj)
        carried = {arg for _, arg, _ in pickletools.genops(data) if isinstance(arg, int)}
        assert not carried & {hash(P), hash(state), *formula_hashes}
        back = pickle.loads(data)
        assert back == obj and hash(back) == hash(obj)


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(capsys, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_suite(NATURAL, PQ, ["R7"], jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        search_counterexample("R7", NATURAL, PQ, jobs=jobs)
    for command in ("check", "theorem1", "corollary1", "observation1", "hansson"):
        argv = [command, "--atoms", "p,q", "--jobs", str(jobs)]
        argv += ["--postulate", "R7"] if command == "check" else []
        assert cli_run(argv) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace the process pool with a stand-in that runs tasks in-process
    and records each pool built: its worker count and whether it was shut
    down.  No process is started."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.shut_down = False
            pools.append(self)

        map = staticmethod(map)

        def shutdown(self, wait=True, cancel_futures=False):
            self.shut_down = True

    monkeypatch.setattr(postulates, "ProcessPoolExecutor", RecordingPool)
    return pools


def test_jobs_clamped_to_cpu_count(monkeypatch, recorded_pools):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    clamped = run_suite(NATURAL, PQ, ["R7"], jobs=10_000)
    assert [(p.max_workers, p.shut_down) for p in recorded_pools] == [(3, True)]
    assert clamped.results == run_suite(NATURAL, PQ, ["R7"]).results


def test_empty_scan_starts_no_pool(monkeypatch, recorded_pools):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    assert run_suite(NATURAL, PQ, [], jobs=2).results == ()
    assert recorded_pools == []


@pytest.mark.parametrize("argv", [
    ["theorem1", "--atoms", "p"],
    ["corollary1", "--atoms", "p"],
    ["observation1", "--atoms", "p"],
    ["hansson", "--atoms", "p"],
    ["check", "--atoms", "p", "--postulate", "all"],
], ids=lambda argv: argv[0])
def test_one_pool_per_command(monkeypatch, capsys, recorded_pools, argv):
    # every suite and search of a command shares the one pool, started only
    # when a scan runs with jobs > 1 (and, for a table over every state, has
    # at least _POOL_MIN_KEYS keys, set to 0 here)
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    code = cli_run(argv + ["--jobs", "1"])
    sequential = capsys.readouterr().out
    assert recorded_pools == []
    assert cli_run(argv + ["--jobs", "2"]) == code
    assert capsys.readouterr().out == sequential
    assert [(p.max_workers, p.shut_down) for p in recorded_pools] == [(2, True)]


@pytest.mark.parametrize("argv", [
    ["theorem1", "--atoms", "p,q"],
    ["corollary1", "--atoms", "p,q"],
    ["observation1", "--atoms", "p,q"],
    ["hansson", "--atoms", "p,q"],
    ["check", "--atoms", "p,q", "--postulate", "all"],
], ids=lambda argv: argv[0])
def test_two_atom_tables_start_no_pool(monkeypatch, capsys, recorded_pools, argv):
    # a table at n = 2 has at most 949 keys, too few to pay for starting a
    # pool, so --jobs 2 decides them in process, with the bytes of --jobs 1
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    code = cli_run(argv + ["--jobs", "1"])
    sequential = capsys.readouterr().out
    assert cli_run(argv + ["--jobs", "2"]) == code
    assert capsys.readouterr().out == sequential
    assert recorded_pools == []


def test_a_table_reaching_the_key_threshold_starts_one_pool(monkeypatch, recorded_pools):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    # the threshold counts decisions: each group's patterns at n = 2 (44 at
    # arity 2, 663 at arity 3) times its members
    for pids, decisions in ((["R7", "C2"], 44 + 663), (["R7", "R1", "C2"], 2 * 44 + 663)):
        recorded_pools.clear()
        sequential = run_suite(NATURAL, PQ, pids)
        monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", decisions + 1)
        assert run_suite(NATURAL, PQ, pids, jobs=2) == sequential
        assert recorded_pools == []
        monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", decisions)
        assert run_suite(NATURAL, PQ, pids, jobs=2) == sequential
        assert [(p.max_workers, p.shut_down) for p in recorded_pools] == [(2, True)]


def test_a_sampled_scan_starts_no_pool(monkeypatch, capsys, recorded_pools):
    # C2 over 20 sampled three-atom states walks the 65,025 input pairs of
    # each shape, more than 2**20 instances, which once started a pool at
    # --jobs 2; a sampled scan now walks its stream in process at any jobs
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    walked = []
    walk = postulates._keyed_instances

    def counting(*args):
        for keyed in walk(*args):
            walked.append(None)
            yield keyed

    monkeypatch.setattr(postulates, "_keyed_instances", counting)
    argv = ["check", "--atoms", "p,q,r", "--postulate", "C2", "--mode", "sample",
            "--samples", "20", "--seed", "3", "--format", "json"]
    code = cli_run(argv + ["--jobs", "1"])
    sequential = capsys.readouterr().out
    assert len(walked) > 2**20
    walked.clear()
    assert cli_run(argv + ["--jobs", "2"]) == code
    assert capsys.readouterr().out == sequential
    assert len(walked) > 2**20
    assert recorded_pools == []


def test_three_atom_single_input_rows_pool_by_their_decisions(monkeypatch, recorded_pools):
    # each n = 3 single-input row decides 1,672 patterns: all 24 rows
    # (40,128 decisions) start a pool, and as many as stay under the
    # threshold run in process
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    pids = [pid for pid, post in POSTULATES.items() if post.arity == 2]
    sequential = run_suite(NATURAL, RGS, pids, allow_large=True)
    rows = (postulates._POOL_MIN_KEYS - 1) // 1672
    below = run_suite(NATURAL, RGS, pids[:rows], allow_large=True, jobs=2)
    assert below.results == sequential.results[:rows]
    assert recorded_pools == []
    assert run_suite(NATURAL, RGS, pids, allow_large=True, jobs=2) == sequential
    assert [(p.max_workers, p.shut_down) for p in recorded_pools] == [(2, True)]


_POOL_MODULES = """
import contextlib
import io
import sys

import beliefrev.cli

def loaded():
    return [name for name in ("concurrent.futures", "multiprocessing", "pickle")
            if name in sys.modules]

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return beliefrev.cli.run(argv)

print(loaded())
print(run(["check", "--atoms", "p,q", "--postulate", "all", "--jobs", "1"]), loaded())
print(run(["theorem1", "--atoms", "p,q", "--jobs", "2"]), "multiprocessing" in sys.modules)
"""


def test_commands_that_start_no_pool_load_no_pool_machinery():
    # the pool class is imported when a scan starts a pool, and pickle when a
    # scan at jobs > 1 checks its operators; a fresh interpreter, since this
    # session has imported them already
    src = str(Path(postulates.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _POOL_MODULES], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "1 []", "0 False"]


def test_pool_class_stands_for_the_process_pool_executor():
    # pools are built, and pool classes derived, from concurrent.futures'
    # class, imported on first use
    from concurrent.futures import ProcessPoolExecutor

    class Derived(postulates.ProcessPoolExecutor):
        pass

    assert Derived.__mro__[1] is ProcessPoolExecutor
    pool = postulates.ProcessPoolExecutor(max_workers=1)
    try:
        assert type(pool) is ProcessPoolExecutor
        assert pool.submit(abs, -3).result() == 3
    finally:
        pool.shutdown(wait=True)
    assert multiprocessing.active_children() == []


def test_pool_workers_capped_at_the_tasks(monkeypatch, recorded_pools):
    # an arity-2 table has 3 tasks, one per subtree of its keys, and a
    # sampled scan of one state one task per group, which needs no pool
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 16)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    for pids, workers in ((["R7"], [3]), (["R7", "C2"], [16])):
        recorded_pools.clear()
        assert run_suite(NATURAL, PQ, pids, jobs=16) == run_suite(NATURAL, PQ, pids)
        assert [p.max_workers for p in recorded_pools] == workers
    recorded_pools.clear()
    sampled = dict(mode="sample", samples=1, seed=0)
    sequential = run_suite(NATURAL, PQ, ["R7"], **sampled)
    assert run_suite(NATURAL, PQ, ["R7"], jobs=16, **sampled) == sequential
    assert recorded_pools == []


def test_pool_workers_gone_after_harness_command(monkeypatch, capsys):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    assert cli_run(["observation1", "--atoms", "p", "--jobs", "2"]) == 0
    assert multiprocessing.active_children() == []


def _raise_in_worker(s, a):
    raise RuntimeError(f"revision raised in process {os.getpid()}")


def test_worker_error_propagates_and_pool_shuts_down(monkeypatch):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    pair = OperatorPair(RevisionOperator("raises", _raise_in_worker),
                        CONTRACTION_OPERATORS["natural-con"])
    # the raising group is read first, while C2's chunks are still queued
    with pytest.raises(RuntimeError, match="revision raised in process") as err:
        run_suite(pair, PQ, ["R7", "C2"], jobs=2)
    assert int(str(err.value).rsplit(" ", 1)[1]) != os.getpid()
    assert multiprocessing.active_children() == []


_UNPICKLABLE_SCANS = """
import multiprocessing
from beliefrev import postulates, theorems
from beliefrev.logic import Signature
from beliefrev.operators import OperatorPair, RevisionOperator, get_contraction
from beliefrev.postulates import run_suite

postulates.os.cpu_count = lambda: 2
P, PQ = Signature(("p",)), Signature(("p", "q"))
lam_op = OperatorPair(RevisionOperator("lam_op", lambda s, a: s), get_contraction("natural-con"))

for name, scan in (
    ("lam_op", lambda: run_suite(lam_op, PQ, ["R7"], jobs=2)),
    ("lam_op", lambda: run_suite(lam_op, PQ, ["R7"], mode="sample", samples=3, seed=0, jobs=2)),
    ("lam_op", lambda: theorems.verify_theorem1(lam_op, P, jobs=2)),
):
    try:
        scan()
    except ValueError as err:
        print(name, repr(name) in str(err), multiprocessing.active_children())
"""


def test_unpicklable_tasks_raise_instead_of_hanging():
    # a task that fails to pickle inside the pool hangs the pool's shutdown,
    # so the scans run in their own process group, killed after 60 s
    src = str(Path(postulates.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", _UNPICKLABLE_SCANS], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src},
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a scan with an unpicklable task hung")
    assert proc.returncode == 0, err
    assert out.splitlines() == ["lam_op True []"] * 3


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


# --- the scan memo against deciding every instance --------------------------------


def _decide_every_instance(pid, pair, instances, verdict_of) -> PostulateResult:
    """The scan without its memo: every instance decided, in stream order."""
    checked = holds = vacuous = fails = 0
    first = None
    for inst in instances:
        verdict = verdict_of(inst)
        checked += 1
        if verdict.status == HOLDS:
            holds += 1
        elif verdict.status == VACUOUS:
            vacuous += 1
        else:
            fails += 1
            if first is None:
                first = Counterexample(pid, pair.revision.name, pair.contraction.name,
                                       inst, verdict)
    return PostulateResult(pid, checked, holds, vacuous, fails, first)


def _brute_force_suite(pair, sig, pids, states):
    return tuple(
        _decide_every_instance(pid, pair, iter_instances(pid, sig, states),
                               partial(check_instance, pid, pair))
        for pid in pids
    )


ARITY2_IDS = [pid for pid, post in POSTULATES.items() if post.arity == 2]
ALL_PAIRS = [make_pair(rev, con) for rev in REVISION_OPERATORS for con in CONTRACTION_OPERATORS]


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: pair.name)
def test_memoized_suite_matches_brute_force_arity2(pair):
    states = list(enumerate_states(PQ))
    assert run_suite(pair, PQ, ARITY2_IDS).results == _brute_force_suite(
        pair, PQ, ARITY2_IDS, states)


@pytest.mark.parametrize("pair, pids", [
    *[(make_pair(rev, "natural-con"), ["C1", "C2", "C3", "C4", "PR7", "PR8"])
      for rev in REVISION_OPERATORS],
    *[(make_pair("natural", con), ["PC7", "PC8"]) for con in CONTRACTION_OPERATORS],
], ids=lambda x: x.name if hasattr(x, "name") else "-".join(x))
def test_memoized_suite_matches_brute_force_arity3(pair, pids):
    states = list(enumerate_states(PQ))
    assert run_suite(pair, PQ, pids).results == _brute_force_suite(pair, PQ, pids, states)


@pytest.mark.parametrize("pair", [NATURAL, make_pair("reverse", "drastic")],
                         ids=lambda pair: pair.name)
def test_memoized_sampled_n3_matches_brute_force(pair):
    pids = ["R6", "PR5", "CORE"]
    kwargs = dict(mode="sample", samples=12, seed=3)
    states = list(sample_states(RGS, 12, seed=3))
    assert run_suite(pair, RGS, pids, **kwargs).results == _brute_force_suite(
        pair, RGS, pids, states)


def _co_occurring(premise, conclusion, input_unbelieved, pair, inst):
    """An observation1 implication decided literally at one instance: the
    conclusion's verdict where the premise holds (and, if asked, the input
    is not believed); VACUOUS everywhere else."""
    if input_unbelieved and belief_set(inst.state).issubset(inst.a):
        return Verdict(VACUOUS, note="input believed")
    if check_instance(premise, pair, inst).status != HOLDS:
        return Verdict(VACUOUS, note=f"{premise} does not hold")
    return check_instance(conclusion, pair, inst)


def _harness_claims(pair):
    """(name, status on a row, witness verdict, literal check) of each claim
    the harnesses read from their tables: corollary1, then observation1's
    implications, whose name and witness are their conclusion's."""
    yield ("corollary1", theorems._corollary1_status, partial(theorems._corollary1_check, pair),
           partial(theorems._corollary1_check, pair))
    for _, premise, conclusion, unbelieved in theorems._IMPLICATIONS:
        yield (conclusion, partial(theorems._implied, premise, conclusion, unbelieved),
               partial(check_instance, conclusion, pair),
               partial(_co_occurring, premise, conclusion, unbelieved, pair))


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: pair.name)
def test_memoized_derived_claims_match_a_direct_loop(pair):
    # every n = 2 state, and four sampled n = 3 states
    for sig, states in ((PQ, list(enumerate_states(PQ))), (RGS, list(sample_states(RGS, 4, 7)))):
        table = postulates._scan(["R1", "R2", "R3", "R4", "R5", "R7", "R9"], pair, sig, states,
                                 stop_at_first=False, jobs=1)
        for name, status, verdict, literal in _harness_claims(pair):
            scanned = postulates._fold(name, pair, table["R1"], status, verdict)
            direct = _decide_every_instance(
                name, pair, (Instance(s, WorldSet(sig, m)) for s in states
                             for m in range(1, sig.full_mask + 1)), literal)
            assert scanned == direct, (sig.n, name)


def _closure_wrapped(pair):
    """pair with each operator rebuilt as type(op)(name, fn) around a closure,
    as the benchmark's tracer does: no transform, so its scans key by orbit."""
    def wrapped(op):
        def fn(s, a):
            return op.fn(s, a)
        return type(op)(op.name, fn)
    return OperatorPair(wrapped(pair.revision), wrapped(pair.contraction))


REVERSE_DRASTIC = make_pair("reverse", "drastic")


def test_orbit_memo_eviction_keeps_results(monkeypatch):
    # pattern keys for the registry pair, orbit keys for its wrapped twin.  At
    # 8 keys a sampled scan's memo is cleared many times over; an exhaustive
    # table keeps no memo, so it makes the same decisions
    decisions, _ = _count_decisions_and_checks(monkeypatch)
    for pair in (REVERSE_DRASTIC, _closure_wrapped(REVERSE_DRASTIC)):
        for kwargs in ({}, dict(mode="sample", samples=20, seed=3)):
            decisions.clear()
            uncapped = run_suite(pair, PQ, **kwargs).results
            decided = len(decisions)
            decisions.clear()
            with monkeypatch.context() as patched:
                patched.setattr(postulates, "_MEMO_LIMIT", 8)
                assert run_suite(pair, PQ, **kwargs).results == uncapped
            if kwargs:
                assert len(decisions) > decided, (pair.name, kwargs)
            else:
                assert len(decisions) == decided, pair.name


def test_orbit_memo_memory_is_bounded():
    # three sampled n=3 states hold 54,887 C2 patterns and 61,043 C2 orbits,
    # more than the memo keeps of either
    for pair in (NATURAL, _closure_wrapped(NATURAL)):
        tracemalloc.start()
        try:
            run_suite(pair, RGS, ["C2"], mode="sample", samples=3, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, (pair.name, peak)


# --- one walk per arity group against one scan per postulate ----------------------


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: pair.name)
def test_grouped_suite_matches_singleton_scans(monkeypatch, pair):
    singles = tuple(run_suite(pair, PQ, [pid]).results[0] for pid in ALL_POSTULATE_IDS)
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    grouped = {"jobs=1": run_suite(pair, PQ).results, "jobs=2": run_suite(pair, PQ, jobs=2).results}
    # at 8 keys the memo is cleared many times inside each group's walk
    monkeypatch.setattr(postulates, "_MEMO_LIMIT", 8)
    grouped["evicting"] = run_suite(pair, PQ).results
    first_verdicts = [r.counterexample and r.counterexample.verdict for r in singles]
    assert any(first_verdicts)
    for how, results in grouped.items():
        assert results == singles, how
        # each first counterexample's verdict, its trace included
        assert [r.counterexample and r.counterexample.verdict for r in results] == first_verdicts
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_suite_results_follow_the_requested_order(monkeypatch, jobs):
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    pids = ["C2", "R1", "C2", "PC7", "R1"]
    results = run_suite(REVERSE, PQ, pids, jobs=jobs).results
    assert [r.postulate for r in results] == pids
    assert results[0] == results[2] and results[1] == results[4]
    assert results == tuple(run_suite(REVERSE, PQ, [pid]).results[0] for pid in pids)
    assert run_suite(REVERSE, PQ, [], jobs=jobs).results == ()


def test_suite_rejects_a_bare_postulate_string():
    with pytest.raises(TypeError, match="not the string 'R1'"):
        run_suite(NATURAL, PQ, "R1")


def _count_decisions_and_checks(monkeypatch) -> tuple[list[str], list[str]]:
    """The pids of every rule decision and every check_instance call, as
    they happen.  Each registry row is swapped for one whose rule counts.  A
    row's check calls its rule once, and that call is taken back out, so
    verdicts are not counted as decisions."""
    decisions, checks = [], []
    check = postulates.check_instance

    def counted_rule(pid, rule):
        def counted(run, a, b):
            decisions.append(pid)
            return rule(run, a, b)
        return counted

    def counted_check(pid, ops, inst):
        checks.append(pid)
        verdict = check(pid, ops, inst)
        decisions.pop()  # the rule call of this check
        return verdict

    for module in (postulates, theorems):
        monkeypatch.setattr(module, "check_instance", counted_check)
    for pid, post in list(POSTULATES.items()):
        monkeypatch.setitem(POSTULATES, pid, replace(post, rule=counted_rule(pid, post.rule)))
    return decisions, checks


def _assert_suite_decides_each_key_once(monkeypatch, pairs, decided):
    """Each exhaustive n = 2 suite of pairs walks no instance, makes decided
    rule decisions and checks only its reported counterexamples."""
    walks = []
    walk = postulates._keyed_instances

    def counted_walk(arity, sig, states, counted):
        walks.append((arity, counted))
        return walk(arity, sig, states, counted)

    monkeypatch.setattr(postulates, "_keyed_instances", counted_walk)
    decisions, checks = _count_decisions_and_checks(monkeypatch)
    for pair in pairs:
        decisions.clear()
        checks.clear()
        report = run_suite(pair, PQ)
        assert walks == []
        assert len(decisions) == decided
        # a verdict is built only for each failing postulate's counterexample
        assert sorted(checks) == sorted(r.postulate for r in report.results if r.fails)


def test_suite_decides_each_pattern_once(monkeypatch):
    # registry pairs key by cell pattern: 44 patterns for each of 24 arity-2
    # rows and 663 for each of 8 arity-3 rows, 6,360 decisions
    _assert_suite_decides_each_key_once(monkeypatch, (NATURAL, REVERSE_DRASTIC), 44 * 24 + 663 * 8)


def test_closure_wrapped_suite_decides_each_orbit_once(monkeypatch):
    # without transforms the scan keys by orbit: 74 orbits for each of 24
    # arity-2 rows and 875 for each of 8 arity-3 rows, 8,776 decisions
    pairs = (_closure_wrapped(NATURAL), _closure_wrapped(REVERSE_DRASTIC))
    _assert_suite_decides_each_key_once(monkeypatch, pairs, 74 * 24 + 875 * 8)


@pytest.mark.parametrize("jobs", [1, 2])
def test_exhaustive_scans_iterate_no_state(monkeypatch, jobs):
    # suites and searches over every state read their tables from weighted
    # keys: no key walk runs and the stream is never iterated, at jobs = 2
    # too, where a search once listed every state
    pids = ["R1", "R7", "PC6", "C2", "PC7"]
    expected = (run_suite(REVERSE_DRASTIC, PQ, pids),
                [search_counterexample(pid, REVERSE_DRASTIC, PQ) for pid in pids])
    assert None in expected[1] and any(expected[1])
    walks = []
    walk = postulates._keyed_instances

    def recording(*args):
        walks.append(args)
        return walk(*args)

    def unread(self):
        raise AssertionError("an exhaustive stream was iterated")

    monkeypatch.setattr(postulates, "_keyed_instances", recording)
    monkeypatch.setattr(StateStream, "__iter__", unread)
    monkeypatch.setattr(StateStream, "rank_vectors", unread)
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    assert (run_suite(REVERSE_DRASTIC, PQ, pids, jobs=jobs),
            [search_counterexample(pid, REVERSE_DRASTIC, PQ, jobs=jobs) for pid in pids]) == expected
    assert walks == []


def test_a_pooled_exhaustive_search_lists_no_state(monkeypatch):
    # R1 holds for reverse+drastic, so the search reads every row of its
    # three-atom table; at jobs = 2 it once listed all 545,835 states first,
    # a traced peak of about 89 MiB
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    cex, peak = _traced_peak(lambda: search_counterexample("R1", REVERSE_DRASTIC, RGS,
                                                           allow_large=True, jobs=2))
    assert cex is None
    assert peak <= 2**20, peak


def test_a_pooled_sampled_search_lists_no_state(monkeypatch):
    # R7 fails in the first eight-atom state, so the search walks one state
    # of the stream; at jobs = 2 it once listed all 5,000 states first
    sig = Signature(tuple("abcdefgh"))
    sampled = dict(mode="sample", samples=5000, seed=0)
    sequential = search_counterexample("R7", NATURAL, sig, **sampled)
    assert sequential is not None
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    cex, peak = _traced_peak(lambda: search_counterexample("R7", NATURAL, sig, jobs=2, **sampled))
    assert cex == sequential
    assert peak <= 2 * 2**20, peak


def test_a_pooled_sampled_suite_lists_no_state(monkeypatch):
    # 20,000 sampled three-atom states, read as the stream yields them
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    report, peak = _traced_peak(lambda: run_suite(NATURAL, RGS, ["R7"], mode="sample",
                                                  samples=20000, seed=0, jobs=2))
    assert report.results[0].checked == 20000 * 255
    assert peak <= 2 * 2**20, peak


def test_pooled_suite_decides_each_key_once(monkeypatch, recorded_pools):
    # the pool's tasks split the keys, not the states, so jobs = 2 makes the
    # decisions of jobs = 1: 6,360 for a registry pair and 8,776 for its
    # closure-wrapped twin, whose operators stand in the registry, as the
    # benchmark's tracer puts them, so that they pickle by name
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    decisions, _ = _count_decisions_and_checks(monkeypatch)
    wrapped = _closure_wrapped(REVERSE_DRASTIC)
    monkeypatch.setitem(REVISION_OPERATORS, "reverse", wrapped.revision)
    monkeypatch.setitem(CONTRACTION_OPERATORS, "drastic", wrapped.contraction)
    for pair, decided in ((REVERSE_DRASTIC, 44 * 24 + 663 * 8), (wrapped, 74 * 24 + 875 * 8)):
        reports = []
        for jobs in (1, 2):
            decisions.clear()
            reports.append(run_suite(pair, PQ, jobs=jobs))
            assert len(decisions) == decided, (pair.name, jobs)
        assert reports[0] == reports[1]
    assert [(p.max_workers, p.shut_down) for p in recorded_pools] == [(2, True)] * 2


def test_observation1_decides_each_orbit_once_and_checks_only_its_witness(monkeypatch):
    # its claims are read from the rows of the one scan: no R row is decided
    # again for an implication, and the one verdict built is the R7 witness
    # the report prints
    decisions, checks = _count_decisions_and_checks(monkeypatch)
    report = theorems.verify_observation1(NATURAL, PQ)
    assert [w.postulate for c in report.claims for w in c.witnesses] == ["R7"]
    assert checks == ["R7"]
    read = [*AGM_IDS, "R1", "R2", "R3", "R5", "R6", "R7", "R8", "R9"]
    # each row is decided once per cell pattern: 44 arity-2 patterns and 663
    # arity-3 ones at n = 2
    assert Counter(decisions) == {pid: 44 if POSTULATES[pid].arity == 2 else 663 for pid in read}


def test_a_scan_without_witness_builds_no_worldset(monkeypatch):
    # the walk handles input masks; a WorldSet is built only for a reported
    # counterexample, and this scan reports none
    built = []
    post_init = WorldSet.__post_init__

    def counted(self):
        built.append(self.mask)
        post_init(self)

    monkeypatch.setattr(WorldSet, "__post_init__", counted)
    report = run_suite(make_pair(), Signature(("p", "q", "r")), ["R6"], mode="sample",
                       samples=20, seed=1)
    assert report.results[0].checked == 20 * 255
    assert report.total_fails == 0
    assert built == []


# --- keys: block-built tables against cells read level by level ------------------------


def _keyed_instances_oracle(arity, sig, states, counted):
    """The key walk with each level's input cells read one by one, from the
    top level down: a and not a at arity 2; a and b, a but not b, b but not
    a, and neither at arity 3.  Each cell adds an (n + 1)-bit field holding
    its count when counted, else a bit set when it is non-empty."""
    width, value = (sig.n + 1, int.bit_count) if counted else (1, bool)
    inputs = range(1, sig.full_mask + 1)
    for s in states:
        levels = _level_masks(s)[::-1]
        for a in inputs:
            halves = [(level & a, level & ~a) for level in levels]
            for b in ((None,) if arity == 2 else inputs):
                key = 0
                for inside, outside in halves:
                    cells = (inside, outside) if b is None else (
                        inside & b, inside & ~b, outside & b, outside & ~b)
                    for cell in cells:
                        key = key << width | value(cell)
                yield key, s, a, b


def _keyed(walk, arity, sig, states, counted, limit=None):
    return [(key, s.ranks, a, b)
            for key, s, a, b in islice(walk(arity, sig, states, counted), limit)]


# every n = 2 state, 12 sampled n = 3 states, and sampled n = 4 and n = 9
# states whose walks are cut at a limit
KEYED_STATES = pytest.mark.parametrize("sig, states, limit", [
    (PQ, list(enumerate_states(PQ)), None),
    (RGS, list(sample_states(RGS, 12, seed=4)), None),
    (Signature(tuple("abcd")), list(sample_states(Signature(tuple("abcd")), 2, seed=4)), 70_000),
    (Signature(tuple("abcdefghi")), list(sample_states(Signature(tuple("abcdefghi")), 1, seed=4)),
     3_000),
], ids=["n2-all", "n3-sampled", "n4-sampled", "n9-sampled"])


@pytest.mark.parametrize("arity", [2, 3])
@KEYED_STATES
def test_orbit_keys_match_entry_by_entry_sums(arity, sig, states, limit):
    # the oracle counts each key's cells level by level; one state at a time,
    # each cut at the limit, so that every state is reached
    for s in states:
        assert _keyed(postulates._keyed_instances, arity, sig, [s], True, limit) == _keyed(
            _keyed_instances_oracle, arity, sig, [s], True, limit)


@pytest.mark.parametrize("arity", [2, 3])
@KEYED_STATES
def test_pattern_keys_match_level_by_level_cells(arity, sig, states, limit):
    for s in states:
        assert _keyed(postulates._keyed_instances, arity, sig, [s], False, limit) == _keyed(
            _keyed_instances_oracle, arity, sig, [s], False, limit)


def test_orbit_keys_are_the_orbits_of_valuation_permutations():
    # at n = 2 the 24 permutations of the valuations cut the instances into
    # 74 orbits at arity 2 and 875 at arity 3: two instances share an orbit
    # key exactly when they share an orbit, and each pattern key (44 and 663
    # of them) is a union of orbits
    worlds = range(PQ.num_valuations)
    states = list(enumerate_states(PQ))
    inputs = range(1, PQ.full_mask + 1)
    images = []  # per permutation, each state's ranks and each mask moved by it
    for perm in permutations(worlds):
        moved = {}
        for s in states:
            ranks = [0] * len(worlds)
            for v in worlds:
                ranks[perm[v]] = s.ranks[v]
            moved[s] = tuple(ranks)
        masks = [sum(1 << perm[v] for v in worlds if m >> v & 1) for m in range(PQ.full_mask + 1)]
        images.append((moved, masks))
    for arity, orbits, patterns in ((2, 74, 44), (3, 875, 663)):
        seconds = (None,) if arity == 2 else inputs
        orbit = [min((moved[s], masks[a], b and masks[b]) for moved, masks in images)
                 for s in states for a in inputs for b in seconds]
        by_orbit = [key for key, *_ in postulates._keyed_instances(arity, PQ, states, True)]
        by_pattern = [key for key, *_ in postulates._keyed_instances(arity, PQ, states, False)]
        assert len(set(orbit)) == orbits
        assert len(set(zip(by_orbit, orbit))) == len(set(by_orbit)) == orbits
        assert len(set(zip(by_pattern, orbit))) == orbits
        assert len(set(by_pattern)) == patterns


# --- weighted keys against the instances they stand for -----------------------------


@pytest.mark.parametrize("counted", [False, True], ids=["pattern", "orbit"])
@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("sig", [P, PQ], ids=["n1", "n2"])
def test_weighted_keys_count_the_instances_of_each_key(sig, arity, counted):
    # each key once, weighted by its number of instances in the exhaustive
    # stream, with the first instance that a walk of the stream meets with
    # the key, and a position that decodes to that instance and sorts the
    # keys in the walk's order of first occurrence
    weighted = list(postulates._weighted_keys(arity, sig, counted))
    walked = Counter()
    firsts = {}
    for key, s, a, b in postulates._keyed_instances(arity, sig, enumerate_states(sig), counted):
        walked[key] += 1
        firsts.setdefault(key, (s, a, b))
    assert {key: weight for key, _, _, weight in weighted} == walked
    assert len(weighted) == len(walked)
    for key, (levels, a, b), position, _ in weighted:
        s, at, bt = firsts[key]
        assert (levels, a, b) == (_level_masks(s), at, bt)
        assert postulates._first_instance(arity, sig, position) == firsts[key]
    assert [key for key, *_ in sorted(weighted, key=itemgetter(2))] == list(firsts)
    # the subtrees by the cells of the top level partition the keys
    subtrees = [key for top in range(1, 1 << (1 << (arity - 1)))
                for key, *_ in postulates._weighted_keys(arity, sig, counted, top)]
    assert sorted(subtrees) == sorted(walked)


@pytest.mark.parametrize("counted", [False, True], ids=["pattern", "orbit"])
@pytest.mark.parametrize("arity, n, patterns, orbits", [
    (2, 1, 5, 5), (2, 2, 44, 74), (2, 3, 1672, 11016), (3, 1, 14, 14), (3, 2, 663, 875),
])
def test_weights_sum_to_the_instance_count(arity, n, patterns, orbits, counted):
    # F(2**n) states, each with (2**2**n - 1)**(arity - 1) inputs, F the
    # Fubini number
    sig = Signature(tuple("pqr"[:n]))
    weights = [weight for *_, weight in postulates._weighted_keys(arity, sig, counted)]
    assert len(weights) == (orbits if counted else patterns)
    assert sum(weights) == count_weak_orders(2**n) * (2 ** 2**n - 1) ** (arity - 1)


@pytest.mark.parametrize("counted", [False, True], ids=["pattern", "orbit"])
@pytest.mark.parametrize("arity, sig", [(2, P), (3, P), (2, PQ), (3, PQ), (2, RGS)],
                         ids=["n1-arity2", "n1-arity3", "n2-arity2", "n2-arity3", "n3-arity2"])
def test_key_count_matches_the_weighted_keys(arity, sig, counted):
    # the closed-form count by which a table decides whether to pool, against
    # the keys it counts
    assert postulates._key_count(arity, sig, counted) == sum(
        1 for _ in postulates._weighted_keys(arity, sig, counted))


def test_three_atom_two_input_key_counts():
    # too many to walk in tier-1: 586,604 patterns and 1,586,754 orbits
    assert postulates._key_count(3, RGS, False) == 586_604
    assert postulates._key_count(3, RGS, True) == 1_586_754


# --- the walk's memo and shape replay against a walk of every instance ------------


def _every_instance_table(group, states, pair, sig, stop_at_first=False):
    """The table _scan_group builds, from a walk that replays no state:
    every instance of every state keyed by _keyed_instances and tallied, its
    key's row decided by each member's rule on a fresh run at the key's
    first instance and read from an unbounded map after it (that a row is a
    function of its key is checked against check_instance on every instance
    above).  The table maps each row, in order of first occurrence, to
    [tally, first instance].  With stop_at_first the walk ends at the first
    row where a member fails."""
    transforms = _transforms(pair, sig)
    rules = [POSTULATES[pid].rule for pid in group]
    entries = {}  # key -> [tally, first instance] of its row
    table = {}  # row -> the same list
    for key, s, a, b in postulates._keyed_instances(POSTULATES[group[0]].arity, sig, states,
                                                    postulates._counted(pair)):
        entry = entries.get(key)
        if entry is None:
            run = _Run(sig, _level_masks(s), transforms)
            row = tuple(rule(run, a, b)[0] for rule in rules)
            entry = entries[key] = table.setdefault(row, [0, (s, a, b)])
            if stop_at_first and not entry[0] and FAILS in row:
                entry[0] = 1
                break
        entry[0] += 1
    return table


def assert_weighted_table_matches_the_walk(pair, sig, pids):
    """The table of an exhaustive scan of pids (one arity), taken from
    weighted keys, equals the table of a walk of every instance of every
    state (_every_instance_table): the same rows in the same order, with the
    same tallies and first instances.  Each member's search returns the
    first instance of the walked table's first row where the member fails.
    CI runs it over three atoms for reverse+drastic's 24 single-input rows,
    where the walk of 139,187,925 instances takes about 40 s."""
    group = tuple(pids)
    weighted = postulates._scan(pids, pair, sig, enumerate_states(sig), stop_at_first=False,
                                jobs=1)
    walked = _every_instance_table(group, enumerate_states(sig), pair, sig)
    assert weighted[pids[0]] == [(dict(zip(group, row)), tally, first)
                                 for row, (tally, first) in walked.items()], pair.name
    # a search reads its own table: its counterexample is the first instance
    # of the walked table's first row where its postulate fails
    for j, pid in enumerate(group):
        first = next((first for row, (_, first) in walked.items() if row[j] == FAILS), None)
        cex = search_counterexample(pid, pair, sig, allow_large=True)
        assert (cex and cex.instance) == (first and postulates._instance(*first)), (pair.name, pid)


ORACLE_PAIRS = pytest.mark.parametrize(
    "pair", [*ALL_PAIRS, _closure_wrapped(REVERSE_DRASTIC)],
    ids=lambda pair: pair.name + ("" if pair.revision.transform else "-wrapped"))


@ORACLE_PAIRS
def test_weighted_tables_match_the_walk(pair):
    for arity in (2, 3):
        pids = [pid for pid, post in POSTULATES.items() if post.arity == arity]
        assert_weighted_table_matches_the_walk(pair, PQ, pids)


def _level_sizes(s):
    counts = Counter(s.ranks)
    return tuple(counts[rank] for rank in range(s.num_levels))


@ORACLE_PAIRS
def test_replayed_walks_match_a_walk_of_every_instance(pair):
    # both streams repeat shapes: 40 sampled states and the 75 states of the
    # exhaustive stream each have all 8 shapes at n = 2, (1, 3) and (3, 1)
    # among them, so most states are replayed
    streams = {"sample": list(sample_states(PQ, 40, seed=3)),
               "exhaustive": list(enumerate_states(PQ))}
    for mode, states in streams.items():
        assert len({_level_sizes(s) for s in states}) == 8
        for arity in (2, 3):
            group = tuple(pid for pid, post in POSTULATES.items() if post.arity == arity)
            # dicts compare without their order, so the tables are compared
            # as lists of (row, [tally, first]): order, tallies and firsts
            assert list(postulates._scan_group(group, states, pair, PQ, False).items()) == \
                list(_every_instance_table(group, states, pair, PQ).items()), (mode, arity)
        for pid in ALL_POSTULATE_IDS:
            reference = list(_every_instance_table((pid,), states, pair, PQ,
                                                   stop_at_first=True).items())
            assert list(postulates._scan_group((pid,), states, pair, PQ, True).items()) == \
                reference, (mode, pid)
            first = next((first for row, (_, first) in reference if FAILS in row), None)
            cex = search_counterexample(pid, pair, PQ, mode=mode, samples=40, seed=3)
            assert (cex and cex.instance) == (first and postulates._instance(*first)), (mode, pid)


def test_a_sampled_scan_walks_one_state_per_shape(monkeypatch):
    walked = []
    walk = postulates._keyed_instances

    def recording(arity, sig, states, counted):
        return walk(arity, sig, (walked.append(s) or s for s in states), counted)

    monkeypatch.setattr(postulates, "_keyed_instances", recording)
    # R6 over 300 three-atom states; R6 and C4, one walk per arity group,
    # over 40 two-atom states
    for sig, pids, samples, seed, shapes in ((RGS, ["R6"], 300, 1, 91),
                                             (PQ, ["R6", "C4"], 40, 3, 8)):
        firsts = {}
        for s in sample_states(sig, samples, seed):
            firsts.setdefault(_level_sizes(s), s)
        assert len(firsts) == shapes
        sampled = dict(mode="sample", samples=samples, seed=seed)
        walked.clear()
        report = run_suite(NATURAL, sig, pids, **sampled)
        assert walked == len(pids) * list(firsts.values())
        inputs = sig.full_mask
        assert [r.checked for r in report.results] == [samples * inputs, samples * inputs ** 2][
            :len(pids)]
        # with room for 16 ranks (2 shapes at n = 3, 4 at n = 2) the shape
        # map is cleared when full, and a shape met again after that is
        # walked again, to the same report
        walked.clear()
        with monkeypatch.context() as patched:
            patched.setattr(postulates, "_MEMO_LIMIT", 2)
            assert run_suite(NATURAL, sig, pids, **sampled) == report
        assert len(walked) > len(pids) * shapes


def test_shape_map_memory_is_bounded_by_its_ranks(monkeypatch):
    # 400 twelve-atom states of distinct shapes: holding every sorted rank
    # vector, 4,096 ranks each, would take about 13 MB.  The walk is emptied,
    # so every state is a new shape whose instances cost nothing
    monkeypatch.setattr(postulates, "_keyed_instances", lambda *args: iter(()))
    sig = Signature(tuple("abcdefghijkl"))
    states = (RankedState(sig, [0] * k + [1] * (sig.num_valuations - k)) for k in range(1, 401))
    table, peak = _traced_peak(lambda: postulates._scan_group(("R7",), states, NATURAL, sig,
                                                             False))
    assert table == {}
    assert peak <= 4 * 2**20, peak


def _traced_peak(walk):
    tracemalloc.start()
    try:
        result = walk()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("arity", [2, 3])
def test_orbit_key_tables_are_built_lazily(arity):
    # at n = 5 a state has 2**32 - 1 inputs, so a walk that built whole
    # tables up front would not finish; the first keys need one block each
    sig = Signature(tuple("abcde"))
    states = list(sample_states(sig, 2, seed=9))
    keys, peak = _traced_peak(
        lambda: _keyed(postulates._keyed_instances, arity, sig, states, True, 1000))
    assert peak <= 2**20, peak
    assert keys == _keyed(_keyed_instances_oracle, arity, sig, states, True, 1000)


@pytest.mark.parametrize("arity", [2, 3])
def test_pattern_key_tables_are_built_lazily(arity):
    sig = Signature(tuple("abcde"))
    states = list(sample_states(sig, 2, seed=9))
    keys, peak = _traced_peak(
        lambda: _keyed(postulates._keyed_instances, arity, sig, states, False, 1000))
    assert peak <= 2**20, peak
    assert keys == _keyed(_keyed_instances_oracle, arity, sig, states, False, 1000)


def test_a_late_cut_orbit_walk_holds_no_per_block_state():
    # a sampled n = 12 state has thousands of levels, so each key is several
    # KB wide; a walk that kept one key-wide int per block it passed peaked at
    # about 8 MB by its 8,000th key
    sig = Signature(tuple("abcdefghijkl"))
    states = list(sample_states(sig, 1, seed=0))
    _, peak = _traced_peak(
        lambda: sum(1 for _ in islice(postulates._keyed_instances(2, sig, states, True), 8000)))
    assert peak <= 2**20, peak


@pytest.mark.parametrize("counted", [False, True], ids=["pattern", "orbit"])
def test_a_late_cut_two_input_walk_holds_no_per_mask_state(counted):
    # the first 4,095 two-input keys of the same state (a = 1, each b): a
    # walk that kept tables of key-wide ints by mask for the cells of a and
    # b peaked at about 266 MB traced by orbit and 21 MB by pattern
    sig = Signature(tuple("abcdefghijkl"))
    states = list(sample_states(sig, 1, seed=0))
    _, peak = _traced_peak(
        lambda: sum(1 for _ in islice(postulates._keyed_instances(3, sig, states, counted), 4095)))
    assert peak <= 2**20, peak


def test_sixteen_atom_base_key_is_linear_in_its_width():
    # a sampled n = 16 state has tens of thousands of levels, so its key is
    # over a megabit wide; summing 2**16 such ints took seconds
    sig = Signature(tuple("abcdefghijklmnop"))
    (s,) = sample_states(sig, 1, seed=0)
    start = time.process_time()
    key, _, a, b = next(postulates._keyed_instances(2, sig, [s], True))
    elapsed = time.process_time() - start
    assert (a, b) == (1, None)
    # decode: one field of two (n + 1)-bit counts per level from the top
    # level down, (worlds in a, worlds outside a)
    width = sig.n + 1
    # the top level is not empty, so its field is not zero
    assert (2 * s.num_levels - 2) * width < key.bit_length() <= 2 * s.num_levels * width
    bits = format(key, f"0{s.num_levels * 2 * width}b")
    counts = [0] * s.num_levels
    for rank in s.ranks:
        counts[rank] += 1
    fields = [bits[i * 2 * width:(i + 1) * 2 * width] for i in range(s.num_levels)]
    assert [(int(f[width:], 2), int(f[:width], 2)) for f in reversed(fields)] == [
        (c - (r == s.ranks[0]), int(r == s.ranks[0])) for r, c in enumerate(counts)]
    assert elapsed < 1.0, elapsed


def test_sixteen_atom_pattern_key_is_fast():
    sig = Signature(tuple("abcdefghijklmnop"))
    (s,) = sample_states(sig, 1, seed=0)
    start = time.process_time()
    key, _, a, b = next(postulates._keyed_instances(2, sig, [s], False))
    elapsed = time.process_time() - start
    assert (a, b) == (1, None)
    assert key == next(_keyed_instances_oracle(2, sig, [s], False))[0]
    # two bits per level, and the top level meets a or its complement
    assert 2 * s.num_levels - 2 < key.bit_length() <= 2 * s.num_levels
    assert elapsed < 1.0, elapsed


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


# --- CORE: closed form against the brute force ----------------------------------


def _submasks(mask):
    sub, out = mask, []
    while True:
        out.append(sub)
        if sub == 0:
            return sorted(out)
        sub = (sub - 1) & mask


def _core_brute_force(pair, s, a):
    """CORE by definition: every lost class beta, a superset of M(K) that the
    contracted base no longer entails, needs a superset T of M(K) with T
    outside a and T & beta within a.  Classes and witnesses go in mask order."""
    base = belief_set(s)
    after = pair.contraction(s, a)
    kept = belief_set(after)
    trace = (("start", s), (f"contract {postulates._bits(a)}", after))
    outside = s.sig.full_mask & ~base.mask
    lost_found = False
    for beta_extra in _submasks(outside):
        beta = WorldSet(s.sig, base.mask | beta_extra)
        if kept.issubset(beta):
            continue
        lost_found = True
        if not any(
            not t.issubset(a) and (t & beta).issubset(a)
            for t in (WorldSet(s.sig, base.mask | extra) for extra in _submasks(outside))
        ):
            return postulates.Verdict(
                FAILS, trace,
                f"lost class {postulates._bits(beta)} does not contribute to implying "
                f"{postulates._bits(a)}",
            )
    if not lost_found:
        return postulates.Verdict(VACUOUS, note="contraction lost no believed input class")
    return postulates.Verdict(HOLDS, trace)


@pytest.mark.parametrize("pair", [NATURAL, DRASTIC], ids=["natural-con", "drastic"])
def test_core_closed_form_matches_brute_force(pair):
    states = list(enumerate_states(PQ)) + list(sample_states(RGS, 5, seed=4))
    statuses = set()
    for s in states:
        for mask in range(1, s.sig.full_mask + 1):
            a = WorldSet(s.sig, mask)
            verdict = check_instance("CORE", pair, Instance(s, a))
            assert verdict == _core_brute_force(pair, s, a), (s.ranks, mask)
            statuses.add(verdict.status)
    assert statuses == ({HOLDS, VACUOUS} if pair is NATURAL else {HOLDS, VACUOUS, FAILS})


@pytest.mark.parametrize("pair, status", [(NATURAL, HOLDS), (DRASTIC, FAILS)],
                         ids=["natural-con", "drastic"])
def test_core_bounded_at_four_atoms(pair, status):
    # a singleton belief set leaves 15 worlds outside it, 2**15 classes for
    # the brute force; the input drops world 15 only
    sig = Signature(("p", "q", "r", "s"))
    s = normalize(sig, [0] + [1 + v % 3 for v in range(1, 16)])
    a = WorldSet(sig, sig.full_mask & ~(1 << 15))
    start = time.perf_counter()
    verdict = check_instance("CORE", pair, Instance(s, a))
    assert time.perf_counter() - start < 1.0
    assert verdict.status == status
