"""Harnesses for the named results: the S1/R1 and S2/R2-R4 equivalences, the
corollary on revise-then-contract, the seven-item observation profile, the
closure+inclusion+vacuity+success+extensionality+core-retainment implication
of recovery, and the end-to-end golden trace of the worked example.

All verification here is empirical model checking at enumeration scale.  A
claim is reported "consistent-with-theorem", never "proved": both directions
of each biconditional are evaluated per operator pair over every enumerable
instance, which is the strongest finite test available.

Every harness makes one exhaustive scan, ``_decide``, of the registry
postulates it reads (its preconditions included), and reads each claim as a
fold of its table of status rows: corollary1 from R1, R4, R7 and R9, and
observation1's implications from their premise and conclusion (and R3).  A
verdict is built only for a witness that a report prints.  ``_claim`` builds
each claim, naming the operator pair and keeping the witnesses that were
found, in order.  When a precondition fails (the reformulated AGM postulates
for theorem1 and observation1, S1 and S2 for corollary1) ``_skipped``
reports every claim as skipped with the reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .logic import Signature, WorldSet, parse_formula, models
from .operators import (
    ABSURD,
    ContractionOperator,
    OperatorPair,
    apply_sequence,
    get_contraction,
    get_revision,
    make_pair,
    outcome_belief_set,
)
from .postulates import (
    FAILS,
    HOLDS,
    VACUOUS,
    Counterexample,
    Instance,
    Row,
    Verdict,
    _bits,
    _fold,
    _member,
    _scan,
    _state_stream,
    check_instance,
)
# No harness calls these; the benchmark's tracer (perfbench/tracing.py) swaps
# them on this module by name, so they stay importable from here.
from .postulates import run_suite, search_counterexample  # noqa: F401
from .states import RankedState, belief_set, believes, normalize

CONSISTENT = "consistent-with-theorem"
INCONSISTENT = "inconsistent-with-theorem"
VACUOUSLY_CONSISTENT = "vacuously-consistent"
RECORDED = "recorded"
SKIPPED = "skipped"

_AGM_IDS = tuple(f"PC{i}" for i in range(1, 9)) + tuple(f"PR{i}" for i in range(1, 9))


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    revision: str
    contraction: str
    postulates: tuple[str, ...]
    direction: str
    status: str
    detail: str
    witnesses: tuple[Counterexample, ...] = ()

    @property
    def violated(self) -> bool:
        return self.status == INCONSISTENT


@dataclass(frozen=True)
class TheoremReport:
    title: str
    revision: str
    contraction: str
    sig: Signature
    claims: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return not any(c.status in (INCONSISTENT, SKIPPED) for c in self.claims)


def _claim(
    ops: OperatorPair, claim: str, pids: tuple[str, ...], direction: str, status: str,
    detail: str, cexs: Iterable[Counterexample | None] = (),
) -> ClaimResult:
    """One claim about the pair; witnesses are the counterexamples found, in order."""
    return ClaimResult(claim, ops.revision.name, ops.contraction.name, pids, direction,
                       status, detail, tuple(c for c in cexs if c is not None))


def _report(title: str, ops: OperatorPair, sig: Signature,
            claims: Iterable[ClaimResult]) -> TheoremReport:
    return TheoremReport(title, ops.revision.name, ops.contraction.name, sig, tuple(claims))


def _skipped(title: str, ops: OperatorPair, sig: Signature,
             rows: Iterable[tuple[str, tuple[str, ...]]], direction: str,
             reason: str) -> TheoremReport:
    """Every (claim, postulates) row skipped because a precondition failed."""
    return _report(title, ops, sig, (_claim(ops, claim, pids, direction, SKIPPED, reason)
                                     for claim, pids in rows))


def _decide(ops: OperatorPair, sig: Signature, jobs: int,
            pids: tuple[str, ...]) -> dict[str, list[Row]]:
    """Everything a harness reads: the table of one exhaustive scan of the
    registry postulates pids, by id."""
    stream = _state_stream(sig, "exhaustive", None, None, allow_large=False)
    return _scan(pids, ops, sig, stream, stop_at_first=False, jobs=jobs)


def _failing(table: dict[str, list[Row]], pids: Iterable[str]) -> list[str]:
    return [pid for pid in pids if any(row[pid] == FAILS for row, _, _ in table[pid])]


def _agm_reason(table: dict[str, list[Row]]) -> str | None:
    """Reason string if the pair fails the reformulated postulates, else None."""
    failing = _failing(table, _AGM_IDS)
    if failing:
        return "operator pair does not satisfy the reformulated postulates: " + ", ".join(failing)
    return None


# (claim, semantic postulate, syntactic postulates, detail when no syntactic
# counterexample exists, detail when one does)
_THEOREM1 = (
    ("theorem1.1", "S1", ("R1",), "R1 counterexample absent", "R1 counterexample found"),
    ("theorem1.2", "S2", ("R2", "R3", "R4"), "R2-R4 counterexamples absent",
     "counterexamples found for {failing}"),
)


def verify_theorem1(ops: OperatorPair, sig: Signature, jobs: int = 1) -> TheoremReport:
    """Check both biconditionals: R1 clean iff S1 holds, and R2-R4 clean iff
    S2 holds, each decided exhaustively per operator pair."""
    rows = [(claim, (sem, *syn)) for claim, sem, syn, _, _ in _THEOREM1]
    table = _decide(ops, sig, jobs, _AGM_IDS + tuple(pid for _, pids in rows for pid in pids))
    reason = _agm_reason(table)
    if reason is not None:
        return _skipped("theorem1", ops, sig, rows, "both", reason)

    results = {pid: _member(pid, ops, table) for _, pids in rows for pid in pids}
    claims = []
    for claim, sem, syn, absent, found in _THEOREM1:
        holds = not results[sem].fails
        failing = _failing(table, syn)
        claims.append(_claim(
            ops, claim, (sem, *syn), "both",
            CONSISTENT if holds == (not failing) else INCONSISTENT,
            (f"{sem} holds exhaustively; " if holds else f"{sem} fails at some instance; ")
            + (found.format(failing=", ".join(failing)) if failing else absent),
            (results[pid].counterexample for pid in (sem, *syn)),
        ))
    return _report("theorem1", ops, sig, claims)


def _corollary1_check(pair: OperatorPair, inst: Instance) -> Verdict:
    s, a = inst.state, inst.a  # decided literally: this renders the witness
    if belief_set(s).issubset(a.complement()):
        return Verdict(VACUOUS, note="negation of the input is believed: inapplicable")
    trace = apply_sequence(pair, s, [("revise", a), ("contract", a)])
    seq_bs = outcome_belief_set(trace[-1], s.sig)
    direct_bs = belief_set(pair.contraction(s, a))
    if seq_bs.mask == direct_bs.mask:
        return Verdict(HOLDS)
    return Verdict(
        FAILS, tuple(zip(("start", "revise", "contract"), trace)),
        f"belief sets differ: sequence {_bits(seq_bs)} vs direct {_bits(direct_bs)}",
    )


def _corollary1_status(row: dict[str, str]) -> str:
    """corollary1 on a row: R7 applies exactly where the input's negation is
    believed; elsewhere the input is believed (R4 applies) or agnostic (R9
    does), and both sides agree iff R1 and the applicable one hold."""
    if row["R7"] != VACUOUS:
        return VACUOUS
    return HOLDS if row["R1"] == HOLDS and HOLDS in (row["R4"], row["R9"]) else FAILS


def verify_corollary1(ops: OperatorPair, sig: Signature, jobs: int = 1) -> TheoremReport:
    """Equality of revise-then-contract with plain contraction whenever the
    input's negation is not believed."""
    pids = ("S1", "S2")
    table = _decide(ops, sig, jobs, pids + ("R1", "R4", "R7", "R9"))
    missing = _failing(table, pids)
    if missing:
        reason = "precondition failed: " + ", ".join(missing) + " violated"
        return _skipped("corollary1", ops, sig, [("corollary1", pids)], "equality", reason)

    r = _fold("corollary1", ops, table["R7"], _corollary1_status,
              partial(_corollary1_check, ops))
    claim = _claim(
        ops, "corollary1", pids, "equality",
        CONSISTENT if r.fails == 0 else INCONSISTENT,
        f"{r.holds + r.fails} applicable instances, {r.vacuous} inapplicable, {r.fails} violations",
        (r.counterexample,),
    )
    return _report("corollary1", ops, sig, (claim,))


def _implied(premise: str, conclusion: str, input_unbelieved: bool, row: dict[str, str]) -> str:
    """The conclusion's status on a row where the premise holds (and, if
    asked, the input is not believed: R3's guard passes); VACUOUS elsewhere."""
    if row[premise] != HOLDS or (input_unbelieved and row["R3"] == VACUOUS):
        return VACUOUS
    return row[conclusion]


# observation1's instance implications: (claim, premise, conclusion, whether
# the input must be unbelieved)
_IMPLICATIONS = (
    ("observation1.2", "R2", "R9", False),
    ("observation1.3", "R1", "R5", False),
    ("observation1.6", "R5", "R1", True),
)


def _implication_claim(
    ops: OperatorPair, table: dict[str, list[Row]], claim: str, premise: str, conclusion: str,
    input_unbelieved: bool,
) -> ClaimResult:
    """Instance-level implication: wherever the premise holds, the conclusion
    does not fail.  Witnesses are the conclusion's own verdicts."""
    r = _fold(conclusion, ops, table[conclusion],
              partial(_implied, premise, conclusion, input_unbelieved),
              partial(check_instance, conclusion, ops))
    scope = "applicable instances" if input_unbelieved else "instances"
    return _claim(
        ops, claim, (premise, conclusion),
        "instance implication (input not believed)" if input_unbelieved else "instance implication",
        CONSISTENT if r.fails == 0 else INCONSISTENT,
        f"{r.holds + r.fails} {scope} with {premise} holding; {r.fails} had {conclusion} failing",
        (r.counterexample,),
    )


def verify_observation1(ops: OperatorPair, sig: Signature, jobs: int = 1) -> TheoremReport:
    """The seven-item profile relating the recovery-style postulates."""
    table = _decide(ops, sig, jobs, _AGM_IDS + ("R3", "R6", "R7", "R8", "R1", "R2", "R5", "R9"))
    reason = _agm_reason(table)
    if reason is not None:
        rows = [(f"observation1.{i}", ()) for i in range(1, 8)]
        return _skipped("observation1", ops, sig, rows, "item", reason)

    r3, r6, r7, r8 = (_member(pid, ops, table).counterexample for pid in ("R3", "R6", "R7", "R8"))
    item2, item3, item6 = (_implication_claim(ops, table, *row) for row in _IMPLICATIONS)
    return _report("observation1", ops, sig, (
        _claim(ops, "observation1.1", ("R3",), "record", RECORDED,
               "R3 holds exhaustively" if r3 is None else "R3 counterexample found", (r3,)),
        item2,
        item3,
        _claim(ops, "observation1.4", ("R6", "R3"), "co-satisfaction",
               CONSISTENT if (r6 is None) == (r3 is None) else INCONSISTENT,
               f"R6 {'clean' if r6 is None else 'fails'}, R3 {'clean' if r3 is None else 'fails'}",
               (r6, r3)),
        _claim(ops, "observation1.5", ("R7",), "counterexample existence",
               CONSISTENT if r7 is not None else INCONSISTENT,
               "R7 counterexample found (it contradicts inclusion and success)"
               if r7 is not None else "no R7 counterexample found", (r7,)),
        item6,
        _claim(ops, "observation1.7", ("R8",), "counterexample absence",
               CONSISTENT if r8 is None else INCONSISTENT,
               "R8 holds exhaustively" if r8 is None else "R8 counterexample found", (r8,)),
    ))


def verify_hansson(
    con: ContractionOperator | str, sig: Signature, jobs: int = 1
) -> TheoremReport:
    """Closure, inclusion, vacuity, success, extensionality and
    core-retainment together enforce recovery: checked empirically for one
    contraction operator."""
    if isinstance(con, str):
        con = get_contraction(con)
    ops = OperatorPair(get_revision("natural"), con)
    antecedent_ids = ("PC1", "PC2", "PC3", "PC4", "PC5", "CORE")
    pids = antecedent_ids + ("PC6",)
    table = _decide(ops, sig, jobs, pids)
    failing = _failing(table, antecedent_ids)
    recovery_ok = not _failing(table, ["PC6"])
    if not failing:
        status = CONSISTENT if recovery_ok else INCONSISTENT
        detail = (
            "antecedent postulates hold exhaustively; recovery "
            + ("holds exhaustively" if recovery_ok else "fails: implication refuted")
        )
    else:
        status = VACUOUSLY_CONSISTENT
        detail = (
            "antecedent fails (" + ", ".join(failing) + "); recovery "
            + ("holds" if recovery_ok else "also fails")
            + "; implication not refuted"
        )
    claim = _claim(ops, "hansson", pids, "implication", status, detail,
                   (_member(pid, ops, table).counterexample for pid in pids))
    return _report("hansson", ops, sig, (claim,))


# --- the worked example ------------------------------------------------------

GEORGE_ATOMS = ("r", "g", "s")

# Initial ordering: armed robbery most plausible, then illegal gun
# possession, then the rest.
GEORGE_INITIAL = {
    "100": 0, "101": 0, "110": 0, "111": 0,
    "010": 1, "011": 1,
    "000": 2, "001": 2,
}

# The two epistemic inputs: "George is not a criminal", then "not an armed
# robber but a gun offender or shoplifter".
GEORGE_STEP_FORMULAS = ("!(r | g | s)", "!r & (g | s)")

GEORGE_EXPECTED: dict[str, tuple[dict[str, int], ...]] = {
    "natural": (
        {"000": 0,
         "100": 1, "101": 1, "110": 1, "111": 1,
         "010": 2, "011": 2,
         "001": 3},
        {"010": 0, "011": 0,
         "000": 1,
         "100": 2, "101": 2, "110": 2, "111": 2,
         "001": 3},
    ),
    "flatten": (
        {"000": 0,
         "100": 1, "101": 1, "110": 1, "111": 1,
         "010": 2, "011": 2, "001": 2},
        {"010": 0, "011": 0, "001": 0,
         "000": 1,
         "100": 2, "101": 2, "110": 2, "111": 2},
    ),
}

# After the second revision: gun possession is forced under natural revision
# but not under the flattened alternative.
GEORGE_BELIEVES_GUN = {"natural": True, "flatten": False}
GEORGE_C2_STATUS = {"natural": HOLDS, "flatten": FAILS}


@dataclass(frozen=True)
class StageResult:
    label: str
    expected: dict[str, int] | None  # None for the initial stage
    state: RankedState
    match: bool
    diff: tuple[str, ...]
    s1: bool | None  # None for the initial stage
    s2: bool | None


@dataclass(frozen=True)
class GeorgeResult:
    operator: str
    sig: Signature
    stages: tuple[StageResult, ...]
    gun_believed: bool
    gun_expected: bool
    c2_status: str
    c2_expected: str
    c2_two_step: WorldSet
    c2_direct: WorldSet

    @property
    def ok(self) -> bool:
        return (
            all(stage.match for stage in self.stages)
            and self.gun_believed == self.gun_expected
            and self.c2_status == self.c2_expected
        )


def rank_table_diff(sig: Signature, expected: dict[str, int], actual: RankedState) -> tuple[str, ...]:
    """Unified per-valuation diff of two rank tables; empty when equal."""
    lines = []
    for v in sig.valuations():
        bits = sig.bitstring(v)
        want = expected[bits]
        got = actual.ranks[v]
        if want != got:
            lines.append(f"{bits}: expected {want}, got {got}")
    return tuple(lines)


def run_george(rev_name: str) -> GeorgeResult:
    """Replay the worked two-revision example and compare every rank table,
    the final belief fact, and the C2 verdict against the golden values."""
    if rev_name not in GEORGE_EXPECTED:
        raise ValueError(f"operator {rev_name!r} has no golden trace (use natural or flatten)")
    sig = Signature(GEORGE_ATOMS)
    pair = make_pair(rev_name, "natural-con")
    start = normalize(sig, GEORGE_INITIAL)
    inputs = [models(parse_formula(text, sig), sig) for text in GEORGE_STEP_FORMULAS]
    trace = apply_sequence(pair, start, [("revise", a) for a in inputs])

    stages = [StageResult("initial", None, start, True, (), None, None)]
    for i, (before, after, a) in enumerate(zip(trace, trace[1:], inputs)):
        assert after is not ABSURD
        expected = GEORGE_EXPECTED[rev_name][i]
        diff = rank_table_diff(sig, expected, after)
        inst = Instance(before, a)
        stages.append(StageResult(
            f"after-revision-{i + 1}",
            expected,
            after,
            not diff,
            diff,
            check_instance("S1", pair, inst).status == HOLDS,
            check_instance("S2", pair, inst).status == HOLDS,
        ))

    final = trace[-1]
    gun = believes(final, parse_formula("g", sig))
    c2_inst = Instance(start, inputs[0], inputs[1])
    c2 = check_instance("C2", pair, c2_inst)
    two_step = outcome_belief_set(final, sig)
    direct = outcome_belief_set(pair.revision(start, inputs[1]), sig)
    return GeorgeResult(
        rev_name,
        sig,
        tuple(stages),
        gun,
        GEORGE_BELIEVES_GUN[rev_name],
        c2.status,
        GEORGE_C2_STATUS[rev_name],
        two_step,
        direct,
    )
