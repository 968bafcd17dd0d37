"""Registry rules on level masks against the verdicts that report them.

A scan decides each new cell pattern (each new orbit for operators without a
transform) by the rows' rules (status only, one shared run of operator
outcomes per instance) and builds a Verdict through
check_instance only where it reports one.  These tests pin the two forms to
each other, and pin the adapter that lets an operator without a transform
reach the rules and apply_sequence, which run on one engine (_Run), the
absurd-state rules included.  An operator that reads a cell size pins why a
pair without transforms is scanned by orbit, not by pattern.
"""

import dataclasses
import pickle
from itertools import islice

import pytest

from beliefrev import postulates
from beliefrev.logic import Signature, WorldSet
from beliefrev.operators import (
    ABSURD,
    CONTRACTION_OPERATORS,
    REVISION_OPERATORS,
    OperatorPair,
    RevisionOperator,
    UnsupportedSequenceError,
    _Run,
    _transforms,
    apply_sequence,
    flatten_revision,
    get_contraction,
    level_transform,
    make_pair,
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
    check_instance,
    iter_instances,
    run_suite,
)
from beliefrev.states import _level_masks, enumerate_states, min_worlds, sample_states

PQ = Signature(("p", "q"))
PQR = Signature(("p", "q", "r"))
PQRS = Signature(("p", "q", "r", "s"))

ALL_PAIRS = [make_pair(rev, con) for rev in REVISION_OPERATORS for con in CONTRACTION_OPERATORS]


def _orbits(arity, sig, states, limit=None):
    """The first instance of each orbit, in scan order, as (state, a, b) on
    input masks."""
    seen = set()
    firsts = ((s, a, b) for key, s, a, b in postulates._keyed_instances(arity, sig, states, True)
              if key not in seen and not seen.add(key))
    return islice(firsts, limit)


def _assert_rules_match_verdicts(pair, sig, arity, instances):
    rows = [post for post in POSTULATES.values() if post.arity == arity]
    transforms = _transforms(pair, sig)
    decided = 0
    for s, a, b in instances:
        # every row of the arity decides the instance on one shared run, as a
        # scan's group does, and each status is compared with a fresh verdict
        run = _Run(sig, _level_masks(s), transforms)
        inst = Instance(s, WorldSet(sig, a), None if b is None else WorldSet(sig, b))
        for post in rows:
            status = post.rule(run, a, b)[0]
            assert status == check_instance(post.pid, pair, inst).status, (
                post.pid, pair.name, s.ranks, a, b)
        decided += 1
    assert decided


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: pair.name)
def test_rules_match_verdicts_on_every_n2_instance(pair):
    for arity in (2, 3):
        instances = ((s, a, b) for _, s, a, b in
                     postulates._keyed_instances(arity, PQ, enumerate_states(PQ), True))
        _assert_rules_match_verdicts(pair, PQ, arity, instances)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: pair.name)
def test_rules_match_verdicts_on_sampled_orbits(pair):
    _assert_rules_match_verdicts(pair, PQR, 2, _orbits(2, PQR, sample_states(PQR, 3, seed=4)))
    _assert_rules_match_verdicts(pair, PQR, 3,
                                 _orbits(3, PQR, sample_states(PQR, 1, seed=5), limit=300))
    _assert_rules_match_verdicts(pair, PQRS, 2,
                                 _orbits(2, PQRS, sample_states(PQRS, 1, seed=6), limit=200))


def _closure_wrapped(op):
    # the shape of the benchmark tracer's wrappers: a closure fn, which has
    # no level transform of its own
    def fn(s, a):
        return op.fn(s, a)
    return type(op)(op.name, fn)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: pair.name)
def test_closure_wrapped_operators_give_the_registry_suite(pair):
    wrapped = OperatorPair(_closure_wrapped(pair.revision), _closure_wrapped(pair.contraction))
    for op, own in ((wrapped.revision, pair.revision), (wrapped.contraction, pair.contraction)):
        adapter, transform = level_transform(op, PQ), level_transform(own, PQ)
        assert adapter is not transform
        for s in enumerate_states(PQ):
            levels = _level_masks(s)
            for mask in range(PQ.full_mask + 1):
                assert adapter(levels, mask, PQ.full_mask) == transform(
                    levels, mask, PQ.full_mask), (op.name, s.ranks, mask)
    # the registry pair's scans key by cell pattern, the wrapped pair's by orbit
    assert run_suite(wrapped, PQ) == run_suite(pair, PQ)
    for seed in (1, 2):
        sampled = dict(postulates=["R6", "PR5", "CORE", "C2"], mode="sample", samples=3, seed=seed)
        assert run_suite(wrapped, PQR, **sampled) == run_suite(pair, PQR, **sampled), seed
    # apply_sequence runs the adapter on the same engine: the last chain goes
    # through ABSURD and restarts from the uniform state
    p, q, empty = WorldSet(PQ, 0b0011), WorldSet(PQ, 0b0101), WorldSet.empty(PQ)
    chains = ([("revise", p), ("contract", p)],
              [("contract", q), ("revise", p), ("revise", q)],
              [("revise", empty), ("revise", q), ("contract", q)])
    for s in enumerate_states(PQ):
        for steps in chains:
            assert apply_sequence(wrapped, s, steps) == apply_sequence(pair, s, steps), (
                pair.name, s.ranks, steps)


def _sized_revision(s, a):
    # world-neutral, but it reads a size: natural revision when the minimal
    # worlds of a are one world, flatten otherwise
    if min_worlds(s, a).mask.bit_count() == 1:
        return natural_revision(s, a)
    return flatten_revision(s, a)


SIZED = OperatorPair(RevisionOperator("sized", _sized_revision), get_contraction("natural-con"))


def _checked_suite(pair, sig, states):
    """Each postulate's result from check_instance on every instance of
    iter_instances: its counts and its first failing instance."""
    results = []
    for pid in ALL_POSTULATE_IDS:
        counts = dict.fromkeys((HOLDS, VACUOUS, FAILS), 0)
        cex = None
        for inst in iter_instances(pid, sig, states):
            verdict = check_instance(pid, pair, inst)
            counts[verdict.status] += 1
            if cex is None and verdict.status == FAILS:
                cex = Counterexample(pid, pair.revision.name, pair.contraction.name, inst, verdict)
        results.append(PostulateResult(pid, sum(counts.values()), counts[HOLDS], counts[VACUOUS],
                                       counts[FAILS], cex))
    return tuple(results)


def assert_sampled_suite_matches_checks(pair, sig, samples, seed):
    """A sampled run_suite of every postulate against _checked_suite on the
    same states.  CI runs it over three atoms, where it takes about 30 s."""
    expected = _checked_suite(pair, sig, list(sample_states(sig, samples, seed)))
    assert run_suite(pair, sig, mode="sample", samples=samples, seed=seed).results == expected


def test_a_size_reading_revision_is_scanned_by_orbit(monkeypatch):
    # every built-in is set-algebraic, so only an operator that reads a cell
    # size tells orbit keys from pattern keys: its scans must count every
    # instance as check_instance does, in one process and on a pool
    monkeypatch.setattr(postulates.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(postulates, "_POOL_MIN_KEYS", 0)
    expected = _checked_suite(SIZED, PQ, list(enumerate_states(PQ)))
    assert run_suite(SIZED, PQ).results == expected
    assert run_suite(SIZED, PQ, jobs=2).results == expected
    # its adapter passed off as a set-algebraic transform makes the scan key
    # by pattern, and the iterated rows then miscount: each pattern is decided
    # at one representative, where these rows do not fail
    adapter = level_transform(SIZED.revision, PQ)
    false = OperatorPair(RevisionOperator("sized", _sized_revision, adapter), SIZED.contraction)
    for pid, fails, pattern_fails in (("C1", 12, 0), ("C3", 12, 0), ("C4", 24, 0)):
        assert expected[ALL_POSTULATE_IDS.index(pid)].fails == fails
        assert run_suite(false, PQ, [pid]).results[0].fails == pattern_fails


def _assert_statuses_constant_per_key(pair, counted):
    """Every n = 2 instance's row of statuses, at each arity, equals the row
    at its key's representative (_weighted_keys), which a table scan
    decides in its place."""
    transforms = _transforms(pair, PQ)
    for arity in (2, 3):
        rules = [post.rule for post in POSTULATES.values() if post.arity == arity]
        rows = {}
        for key, (levels, a, b), _ in postulates._weighted_keys(arity, PQ, counted):
            run = _Run(PQ, levels, transforms)
            rows[key] = [rule(run, a, b)[0] for rule in rules]
        for key, s, a, b in postulates._keyed_instances(arity, PQ, enumerate_states(PQ), counted):
            run = _Run(PQ, _level_masks(s), transforms)
            assert [rule(run, a, b)[0] for rule in rules] == rows[key], (pair.name, s.ranks, a, b)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: pair.name)
def test_statuses_are_constant_on_each_pattern(pair):
    _assert_statuses_constant_per_key(pair, False)


def test_statuses_of_a_size_reading_revision_are_constant_on_each_orbit():
    _assert_statuses_constant_per_key(SIZED, True)


def test_a_built_in_fn_under_another_name_keeps_its_transform():
    for op in (*REVISION_OPERATORS.values(), *CONTRACTION_OPERATORS.values()):
        assert op.transform is not None
        assert level_transform(op, PQ) is op.transform
        # a renamed copy keeps every field, and pickles by value with them
        renamed = dataclasses.replace(op, name="mine")
        assert level_transform(renamed, PQ) is op.transform
        assert renamed.__reduce__() == (type(op), ("mine", op.fn, op.transform))
        loaded = pickle.loads(pickle.dumps(renamed))
        assert (loaded.fn, loaded.transform) == (op.fn, op.transform)
        # the same fn without a transform takes the adapter
        bare = type(op)("mine", op.fn)
        assert bare.transform is None
        assert level_transform(bare, PQ) is not op.transform


def _always_absurd(s, a):
    # world-neutral: every instance maps to ABSURD
    return ABSURD


ABSURD_PAIR = OperatorPair(RevisionOperator("absurd", _always_absurd),
                          get_contraction("natural-con"))


def test_absurd_revision_raises_in_the_scan_as_in_check_instance():
    s = next(iter(enumerate_states(PQ)))
    with pytest.raises(UnsupportedSequenceError) as direct:
        check_instance("R1", ABSURD_PAIR, Instance(s, WorldSet(PQ, 1)))
    with pytest.raises(UnsupportedSequenceError) as scanned:
        run_suite(ABSURD_PAIR, PQ, ["R1"])
    assert str(scanned.value) == str(direct.value) == "cannot contract the absurd state"


def test_absurd_revision_fails_stability_with_its_note():
    for result in run_suite(ABSURD_PAIR, PQ, ["S1", "S2"]).results:
        assert result.fails == result.checked == 75 * 15
        verdict = result.counterexample.verdict
        assert verdict.status == FAILS
        assert verdict.note == "revision produced the absurd state on satisfiable input"
        assert verdict.trace[-1][1] is ABSURD
