"""Harnesses for the named results: the S1/R1 and S2/R2-R4 equivalences, the
corollary on revise-then-contract, the seven-item observation profile, the
closure+inclusion+vacuity+success+extensionality+core-retainment implication
of recovery, and the end-to-end golden trace of the worked example.

All verification here is empirical model checking at enumeration scale.  A
claim is reported "consistent-with-theorem", never "proved": both directions
of each biconditional are evaluated per operator pair over every enumerable
instance, which is the strongest finite test available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
    Postulate,
    Verdict,
    _bits,
    _pool_scope,
    _scan,
    check_instance,
    run_suite,
    search_counterexample,
)
from .states import RankedState, belief_set, believes, enumerate_states, normalize

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


def _agm_precondition(ops: OperatorPair, sig: Signature, jobs: int = 1) -> str | None:
    """Reason string if the pair fails the reformulated postulates, else None."""
    report = run_suite(ops, sig, _AGM_IDS, jobs=jobs)
    failing = [r.postulate for r in report.results if r.fails]
    if failing:
        return "operator pair does not satisfy the reformulated postulates: " + ", ".join(failing)
    return None


@_pool_scope()
def verify_theorem1(ops: OperatorPair, sig: Signature, jobs: int = 1) -> TheoremReport:
    """Check both biconditionals: R1 clean iff S1 holds, and R2-R4 clean iff
    S2 holds, each decided exhaustively per operator pair."""
    reason = _agm_precondition(ops, sig, jobs=jobs)
    if reason is not None:
        claims = tuple(
            ClaimResult(claim, ops.revision.name, ops.contraction.name, pids,
                        "both", SKIPPED, reason)
            for claim, pids in (("theorem1.1", ("S1", "R1")),
                                ("theorem1.2", ("S2", "R2", "R3", "R4")))
        )
        return TheoremReport("theorem1", ops.revision.name, ops.contraction.name, sig, claims)

    def search(pid: str) -> Counterexample | None:
        return search_counterexample(pid, ops, sig, jobs=jobs)

    s1_cex = search("S1")
    r1_cex = search("R1")
    s1_holds = s1_cex is None
    r1_clean = r1_cex is None
    witnesses1 = tuple(c for c in (s1_cex, r1_cex) if c is not None)
    claim1 = ClaimResult(
        "theorem1.1", ops.revision.name, ops.contraction.name, ("S1", "R1"), "both",
        CONSISTENT if s1_holds == r1_clean else INCONSISTENT,
        ("S1 holds exhaustively; " if s1_holds else "S1 fails at some instance; ")
        + f"R1 counterexample {'absent' if r1_clean else 'found'}",
        witnesses1,
    )

    s2_cex = search("S2")
    r_cexs = {pid: search(pid) for pid in ("R2", "R3", "R4")}
    s2_holds = s2_cex is None
    r_clean = all(c is None for c in r_cexs.values())
    witnesses2 = tuple(c for c in (s2_cex, *r_cexs.values()) if c is not None)
    failing = [pid for pid, c in r_cexs.items() if c is not None]
    claim2 = ClaimResult(
        "theorem1.2", ops.revision.name, ops.contraction.name, ("S2", "R2", "R3", "R4"), "both",
        CONSISTENT if s2_holds == r_clean else INCONSISTENT,
        ("S2 holds exhaustively; " if s2_holds else "S2 fails at some instance; ")
        + ("R2-R4 counterexamples absent" if r_clean else "counterexamples found for " + ", ".join(failing)),
        witnesses2,
    )
    return TheoremReport(
        "theorem1", ops.revision.name, ops.contraction.name, sig, (claim1, claim2)
    )


def _corollary1_check(pair, s, a, b):
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


_COROLLARY1 = Postulate(
    "corollary1", 2, _corollary1_check,
    "revise-then-contract believes what contraction does unless the input's negation is believed",
)


@_pool_scope()
def verify_corollary1(ops: OperatorPair, sig: Signature, jobs: int = 1) -> TheoremReport:
    """Equality of revise-then-contract with plain contraction whenever the
    input's negation is not believed."""
    missing = [pid for pid in ("S1", "S2")
               if search_counterexample(pid, ops, sig, jobs=jobs) is not None]
    if missing:
        claim = ClaimResult(
            "corollary1", ops.revision.name, ops.contraction.name,
            ("S1", "S2"), "equality", SKIPPED,
            "precondition failed: " + ", ".join(missing) + " violated",
        )
        return TheoremReport("corollary1", ops.revision.name, ops.contraction.name, sig, (claim,))

    (r,) = _scan([_COROLLARY1], ops, sig, enumerate_states(sig), stop_at_first=False, jobs=jobs)
    claim = ClaimResult(
        "corollary1", ops.revision.name, ops.contraction.name,
        ("S1", "S2"), "equality",
        CONSISTENT if r.fails == 0 else INCONSISTENT,
        f"{r.holds + r.fails} applicable instances, {r.vacuous} inapplicable, {r.fails} violations",
        (r.counterexample,) if r.counterexample else (),
    )
    return TheoremReport("corollary1", ops.revision.name, ops.contraction.name, sig, (claim,))


def _co_occurring(premise: str, conclusion: str, input_unbelieved: bool, pair, s, a, b):
    """The conclusion's verdict where the premise holds (and, if asked, the
    input is not believed); VACUOUS everywhere else."""
    if input_unbelieved and belief_set(s).issubset(a):
        return Verdict(VACUOUS, note="input believed")
    inst = Instance(s, a)
    if check_instance(premise, pair, inst).status != HOLDS:
        return Verdict(VACUOUS, note=f"{premise} does not hold")
    return check_instance(conclusion, pair, inst)


def _implication_claim(
    claim: str, ops: OperatorPair, sig: Signature, jobs: int,
    premise: str, conclusion: str, input_unbelieved: bool = False,
) -> ClaimResult:
    """Instance-level implication: wherever the premise holds, the conclusion
    does not fail.  Witnesses carry the conclusion's postulate id."""
    post = Postulate(
        conclusion, 2, partial(_co_occurring, premise, conclusion, input_unbelieved),
        f"{conclusion} wherever {premise} holds",
    )
    (r,) = _scan([post], ops, sig, enumerate_states(sig), stop_at_first=False, jobs=jobs)
    scope = "applicable instances" if input_unbelieved else "instances"
    return ClaimResult(
        claim, ops.revision.name, ops.contraction.name, (premise, conclusion),
        "instance implication (input not believed)" if input_unbelieved else "instance implication",
        CONSISTENT if r.fails == 0 else INCONSISTENT,
        f"{r.holds + r.fails} {scope} with {premise} holding; {r.fails} had {conclusion} failing",
        (r.counterexample,) if r.counterexample else (),
    )


@_pool_scope()
def verify_observation1(ops: OperatorPair, sig: Signature, jobs: int = 1) -> TheoremReport:
    """The seven-item profile relating the recovery-style postulates."""
    rev, con = ops.revision.name, ops.contraction.name
    reason = _agm_precondition(ops, sig, jobs=jobs)
    if reason is not None:
        claims = tuple(
            ClaimResult(f"observation1.{i}", rev, con, (), "item", SKIPPED, reason)
            for i in range(1, 8)
        )
        return TheoremReport("observation1", rev, con, sig, claims)

    claims = []

    r3_cex = search_counterexample("R3", ops, sig, jobs=jobs)
    claims.append(ClaimResult(
        "observation1.1", rev, con, ("R3",), "record", RECORDED,
        "R3 holds exhaustively" if r3_cex is None else "R3 counterexample found",
        (r3_cex,) if r3_cex else (),
    ))

    claims.append(_implication_claim("observation1.2", ops, sig, jobs, "R2", "R9"))
    claims.append(_implication_claim("observation1.3", ops, sig, jobs, "R1", "R5"))

    r6_cex = search_counterexample("R6", ops, sig, jobs=jobs)
    same = (r6_cex is None) == (r3_cex is None)
    claims.append(ClaimResult(
        "observation1.4", rev, con, ("R6", "R3"), "co-satisfaction",
        CONSISTENT if same else INCONSISTENT,
        f"R6 {'clean' if r6_cex is None else 'fails'}, R3 {'clean' if r3_cex is None else 'fails'}",
        tuple(c for c in (r6_cex, r3_cex) if c is not None),
    ))

    r7_cex = search_counterexample("R7", ops, sig, jobs=jobs)
    claims.append(ClaimResult(
        "observation1.5", rev, con, ("R7",), "counterexample existence",
        CONSISTENT if r7_cex is not None else INCONSISTENT,
        "R7 counterexample found (it contradicts inclusion and success)"
        if r7_cex else "no R7 counterexample found",
        (r7_cex,) if r7_cex else (),
    ))

    claims.append(_implication_claim(
        "observation1.6", ops, sig, jobs, "R5", "R1", input_unbelieved=True
    ))

    r8_cex = search_counterexample("R8", ops, sig, jobs=jobs)
    claims.append(ClaimResult(
        "observation1.7", rev, con, ("R8",), "counterexample absence",
        CONSISTENT if r8_cex is None else INCONSISTENT,
        "R8 holds exhaustively" if r8_cex is None else "R8 counterexample found",
        (r8_cex,) if r8_cex else (),
    ))

    return TheoremReport("observation1", rev, con, sig, tuple(claims))


@_pool_scope()
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
    antecedent_cexs = {
        pid: search_counterexample(pid, ops, sig, jobs=jobs) for pid in antecedent_ids
    }
    recovery_cex = search_counterexample("PC6", ops, sig, jobs=jobs)
    failing = [pid for pid, c in antecedent_cexs.items() if c is not None]
    antecedent_ok = not failing
    recovery_ok = recovery_cex is None
    if antecedent_ok:
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
    witnesses = tuple(c for c in (*antecedent_cexs.values(), recovery_cex) if c is not None)
    claim = ClaimResult(
        "hansson", ops.revision.name, con.name, antecedent_ids + ("PC6",),
        "implication", status, detail, witnesses,
    )
    return TheoremReport("hansson", ops.revision.name, con.name, sig, (claim,))


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
