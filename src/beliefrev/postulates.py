"""Every postulate as a decidable predicate over (operator pair, instance).

Postulate identifiers:

  PC1..PC8   contraction postulates (PC6 is recovery)
  PR1..PR8   revision postulates
  R1..R9     recovery-style postulates on revise/contract sequences
  S1, S2     semantic stability of the minimal countermodels under revision
  C1..C4     iterated-revision postulates on two-step sequences
  CORE       core-retainment, evaluated semantically

Knowledge bases are model sets, so theory inclusion "K1 is contained in K2"
is checked as M(K2) <= M(K1); closure (PC1/PR1) holds structurally.  An
instance verdict is "vacuous" exactly when the postulate's antecedent is
false there, so "holds" never silently means "antecedent false".

Search and suite evaluation iterate states in enumeration order and input
WorldSets in numeric mask order, so the first counterexample is reproducible.
Inputs range over the non-empty subsets of valuations (15 at n = 2), standing
for formula equivalence classes; the unsatisfiable input is exercised only by
dedicated PR6 instance checks.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .logic import Signature, WorldSet, dnf_of, models
from .operators import (
    ABSURD,
    OperatorPair,
    RevisionOutcome,
    apply_sequence,
    make_pair,
    outcome_belief_set,
)
from .states import (
    RankedState,
    StateStream,
    belief_set,
    enumerate_states,
    min_worlds,
    sample_states,
    state_equal,
)

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"

MAX_SEARCH_ATOMS = 2  # exhaustive search default cap; n = 3 behind allow_large


@dataclass(frozen=True)
class Instance:
    state: RankedState
    a: WorldSet
    b: WorldSet | None = None


@dataclass(frozen=True)
class Verdict:
    status: str
    trace: tuple[tuple[str, RevisionOutcome], ...] = ()
    note: str = ""


@dataclass(frozen=True)
class Counterexample:
    postulate: str
    revision: str
    contraction: str
    instance: Instance
    verdict: Verdict


@dataclass(frozen=True)
class PostulateResult:
    postulate: str
    checked: int
    holds: int
    vacuous: int
    fails: int
    counterexample: Counterexample | None


@dataclass(frozen=True)
class SuiteReport:
    revision: str
    contraction: str
    sig: Signature
    mode: str
    seed: int | None
    samples: int | None
    results: tuple[PostulateResult, ...]

    @property
    def total_fails(self) -> int:
        return sum(r.fails for r in self.results)


def _bits(ws: WorldSet) -> str:
    return "{" + ",".join(ws.bitstrings()) + "}"


def _verdict(ok: bool, trace=(), note: str = "") -> Verdict:
    return Verdict(HOLDS if ok else FAILS, tuple(trace), note)


def _seq_trace(pair: OperatorPair, s: RankedState, steps) -> tuple:
    outcomes = apply_sequence(pair, s, steps)
    labels = ["start"] + [f"{kind} {_bits(ws)}" for kind, ws in steps]
    return tuple(zip(labels, outcomes))


def _rebuilt(a: WorldSet) -> WorldSet:
    # Same model set reconstructed through the canonical DNF round trip.
    return models(dnf_of(a, a.sig), a.sig)


# --- contraction postulates --------------------------------------------------


def _pc1(pair, s, a, b):
    # closure is structural for model-set knowledge bases
    return Verdict(HOLDS, note="model-set representation is deductively closed")


def _pc2(pair, s, a, b):
    after = pair.contraction(s, a)
    ok = belief_set(s).issubset(belief_set(after))
    return _verdict(
        ok,
        (("start", s), (f"contract {_bits(a)}", after)),
        "" if ok else f"K after contraction not contained in K: "
        f"M(K)={_bits(belief_set(s))} vs M(K')={_bits(belief_set(after))}",
    )


def _pc3(pair, s, a, b):
    if belief_set(s).issubset(a):
        return Verdict(VACUOUS, note="input already believed")
    after = pair.contraction(s, a)
    ok = belief_set(after).mask == belief_set(s).mask
    return _verdict(
        ok,
        (("start", s), (f"contract {_bits(a)}", after)),
        "" if ok else "vacuity violated: belief set changed although input not believed",
    )


def _pc4(pair, s, a, b):
    if a.mask == a.sig.full_mask:
        return Verdict(VACUOUS, note="input is a tautology")
    after = pair.contraction(s, a)
    ok = not belief_set(after).issubset(a)
    return _verdict(
        ok,
        (("start", s), (f"contract {_bits(a)}", after)),
        "" if ok else "success violated: input still believed after contraction",
    )


def _pc5(pair, s, a, b):
    first = pair.contraction(s, a)
    second = pair.contraction(s, _rebuilt(a))
    ok = state_equal(first, second)
    return _verdict(
        ok,
        (("start", s), (f"contract {_bits(a)}", first), ("contract (equivalent input)", second)),
        "" if ok else "extensionality violated: equivalent inputs gave different states",
    )


def _pc6(pair, s, a, b):
    if not belief_set(s).issubset(a):
        return Verdict(VACUOUS, note="input not believed")
    after = pair.contraction(s, a)
    recovered = belief_set(after) & a
    ok = recovered.issubset(belief_set(s))
    return _verdict(
        ok,
        (("start", s), (f"contract {_bits(a)}", after)),
        "" if ok else f"recovery violated: expanding back yields {_bits(recovered)}, "
        f"not contained in M(K)={_bits(belief_set(s))}",
    )


def _pc7(pair, s, a, b):
    after_a = pair.contraction(s, a)
    after_b = pair.contraction(s, b)
    after_ab = pair.contraction(s, a & b)
    ok = belief_set(after_ab).issubset(belief_set(after_a) | belief_set(after_b))
    return _verdict(
        ok,
        (("start", s), (f"contract {_bits(a)}", after_a),
         (f"contract {_bits(b)}", after_b), (f"contract {_bits(a & b)}", after_ab)),
        "" if ok else "conjunctive overlap violated",
    )


def _pc8(pair, s, a, b):
    after_ab = pair.contraction(s, a & b)
    if belief_set(after_ab).issubset(b):
        return Verdict(VACUOUS, note="second input still believed after contracting the conjunction")
    after_b = pair.contraction(s, b)
    ok = belief_set(after_b).issubset(belief_set(after_ab))
    return _verdict(
        ok,
        (("start", s), (f"contract {_bits(a & b)}", after_ab), (f"contract {_bits(b)}", after_b)),
        "" if ok else "conjunctive inclusion violated",
    )


# --- revision postulates ------------------------------------------------------


def _pr1(pair, s, a, b):
    return Verdict(HOLDS, note="model-set representation is deductively closed")


def _pr2(pair, s, a, b):
    out = pair.revision(s, a)
    ok = outcome_belief_set(out, s.sig).issubset(a)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out)),
        "" if ok else "success violated: input not believed after revision",
    )


def _pr3(pair, s, a, b):
    out = pair.revision(s, a)
    expanded = belief_set(s) & a
    ok = expanded.issubset(outcome_belief_set(out, s.sig))
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out)),
        "" if ok else "revision exceeds expansion",
    )


def _pr4(pair, s, a, b):
    expanded = belief_set(s) & a
    if not expanded:
        return Verdict(VACUOUS, note="negation of input believed")
    out = pair.revision(s, a)
    ok = outcome_belief_set(out, s.sig).issubset(expanded)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out)),
        "" if ok else "expansion not recovered on consistent input",
    )


def _pr5(pair, s, a, b):
    first = pair.revision(s, a)
    second = pair.revision(s, _rebuilt(a))
    if first is ABSURD or second is ABSURD:
        ok = first is ABSURD and second is ABSURD
    else:
        ok = state_equal(first, second)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", first), ("revise (equivalent input)", second)),
        "" if ok else "extensionality violated: equivalent inputs gave different states",
    )


def _pr6(pair, s, a, b):
    out = pair.revision(s, a)
    inconsistent = not outcome_belief_set(out, s.sig)
    ok = inconsistent == (not a)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out)),
        "" if ok else "inconsistency must arise exactly on unsatisfiable input",
    )


def _pr7(pair, s, a, b):
    out_a = pair.revision(s, a)
    out_ab = pair.revision(s, a & b)
    lhs = outcome_belief_set(out_a, s.sig) & b
    ok = lhs.issubset(outcome_belief_set(out_ab, s.sig))
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out_a), (f"revise {_bits(a & b)}", out_ab)),
        "" if ok else "superexpansion violated",
    )


def _pr8(pair, s, a, b):
    out_a = pair.revision(s, a)
    lhs = outcome_belief_set(out_a, s.sig) & b
    if not lhs:
        return Verdict(VACUOUS, note="negation of second input believed after first revision")
    out_ab = pair.revision(s, a & b)
    ok = outcome_belief_set(out_ab, s.sig).issubset(lhs)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out_a), (f"revise {_bits(a & b)}", out_ab)),
        "" if ok else "subexpansion violated",
    )


# --- recovery-style sequence postulates ---------------------------------------


def _rev_con(pair, s, a):
    """Trace of revise-by-a then contract-by-a, plus the final belief set."""
    trace = _seq_trace(pair, s, [("revise", a), ("contract", a)])
    return trace, outcome_belief_set(trace[-1][1], s.sig)


def _r1(pair, s, a, b):
    trace, after_seq = _rev_con(pair, s, a)
    direct = belief_set(pair.contraction(s, a))
    ok = direct.issubset(after_seq)
    return _verdict(
        ok, trace,
        "" if ok else f"revise-then-contract lost beliefs kept by plain contraction: "
        f"M={_bits(after_seq)} vs {_bits(direct)}",
    )


def _r2(pair, s, a, b):
    base = belief_set(s)
    if base.issubset(a) or base.issubset(a.complement()):
        return Verdict(VACUOUS, note="input or its negation already believed")
    trace, after_seq = _rev_con(pair, s, a)
    ok = after_seq.issubset(base)
    return _verdict(
        ok, trace,
        "" if ok else "original knowledge base not preserved by revise-then-contract",
    )


def _r3(pair, s, a, b):
    base = belief_set(s)
    if base.issubset(a):
        return Verdict(VACUOUS, note="input already believed")
    trace = _seq_trace(pair, s, [("revise", a), ("revise", a.complement())])
    final = outcome_belief_set(trace[-1][1], s.sig)
    ok = final.issubset(base)
    return _verdict(
        ok, trace,
        "" if ok else "original knowledge base not preserved by revise-then-revise-negation",
    )


def _r4(pair, s, a, b):
    base = belief_set(s)
    if not base.issubset(a):
        return Verdict(VACUOUS, note="input not believed")
    trace, after_seq = _rev_con(pair, s, a)
    direct = belief_set(pair.contraction(s, a))
    ok = after_seq.issubset(direct)
    return _verdict(
        ok, trace,
        "" if ok else "plain contraction not preserved by revise-then-contract",
    )


def _r5(pair, s, a, b):
    trace, after_seq = _rev_con(pair, s, a)
    ok = belief_set(s).issubset(after_seq)
    return _verdict(
        ok, trace,
        "" if ok else "revise-then-contract produced beliefs outside the original base",
    )


def _r6(pair, s, a, b):
    base = belief_set(s)
    if base.issubset(a):
        return Verdict(VACUOUS, note="input already believed")
    trace = _seq_trace(
        pair, s, [("revise", a), ("contract", a), ("revise", a.complement())]
    )
    final = outcome_belief_set(trace[-1][1], s.sig)
    ok = final.issubset(base)
    return _verdict(
        ok, trace,
        "" if ok else "original knowledge base not preserved by revise-contract-revise-negation",
    )


def _r7(pair, s, a, b):
    base = belief_set(s)
    if not base.issubset(a.complement()):
        return Verdict(VACUOUS, note="negation of input not believed")
    trace, after_seq = _rev_con(pair, s, a)
    ok = after_seq.issubset(base)
    return _verdict(
        ok, trace,
        "" if ok else f"base not preserved: M(K)={_bits(base)} vs "
        f"M(K after revise-then-contract)={_bits(after_seq)}",
    )


def _r8(pair, s, a, b):
    base = belief_set(s)
    if not base.issubset(a):
        return Verdict(VACUOUS, note="input not believed")
    trace = _seq_trace(pair, s, [("revise", a), ("contract", a), ("revise", a)])
    final = outcome_belief_set(trace[-1][1], s.sig)
    ok = final.issubset(base)
    return _verdict(
        ok, trace,
        "" if ok else "original knowledge base not preserved by revise-contract-revise",
    )


def _r9(pair, s, a, b):
    base = belief_set(s)
    if base.issubset(a) or base.issubset(a.complement()):
        return Verdict(VACUOUS, note="input or its negation already believed")
    trace, after_seq = _rev_con(pair, s, a)
    direct = belief_set(pair.contraction(s, a))
    ok = after_seq.issubset(direct)
    return _verdict(
        ok, trace,
        "" if ok else "plain contraction not preserved by revise-then-contract",
    )


# --- semantic conditions -------------------------------------------------------


def _s1(pair, s, a, b):
    out = pair.revision(s, a)
    before = min_worlds(s, a.complement())
    if out is ABSURD:
        return Verdict(FAILS, (("start", s), (f"revise {_bits(a)}", out)),
                       "revision produced the absurd state on satisfiable input")
    after = min_worlds(out, a.complement())
    ok = before.issubset(after)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out)),
        "" if ok else f"minimal countermodels demoted: before {_bits(before)}, after {_bits(after)}",
    )


def _s2(pair, s, a, b):
    out = pair.revision(s, a)
    before = min_worlds(s, a.complement())
    if out is ABSURD:
        return Verdict(FAILS, (("start", s), (f"revise {_bits(a)}", out)),
                       "revision produced the absurd state on satisfiable input")
    after = min_worlds(out, a.complement())
    ok = after.issubset(before)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out)),
        "" if ok else f"countermodels promoted: before {_bits(before)}, after {_bits(after)}",
    )


# --- iterated-revision postulates ---------------------------------------------
# Instances carry the first input in a and the second in b.


def _two_step(pair, s, a, b):
    trace = _seq_trace(pair, s, [("revise", a), ("revise", b)])
    direct = pair.revision(s, b)
    lhs = outcome_belief_set(trace[-1][1], s.sig)
    rhs = outcome_belief_set(direct, s.sig)
    return trace + ((f"revise {_bits(b)} directly", direct),), lhs, rhs


def _c1(pair, s, a, b):
    if not b.issubset(a):
        return Verdict(VACUOUS, note="second input does not entail the first")
    trace, lhs, rhs = _two_step(pair, s, a, b)
    ok = lhs.mask == rhs.mask
    return _verdict(
        ok, trace,
        "" if ok else f"two-step belief set {_bits(lhs)} differs from direct {_bits(rhs)}",
    )


def _c2(pair, s, a, b):
    if not b.issubset(a.complement()):
        return Verdict(VACUOUS, note="second input does not contradict the first")
    trace, lhs, rhs = _two_step(pair, s, a, b)
    ok = lhs.mask == rhs.mask
    return _verdict(
        ok, trace,
        "" if ok else f"two-step belief set {_bits(lhs)} differs from direct {_bits(rhs)}",
    )


def _c3(pair, s, a, b):
    direct = outcome_belief_set(pair.revision(s, b), s.sig)
    if not direct.issubset(a):
        return Verdict(VACUOUS, note="first input not believed after direct revision")
    trace, lhs, _ = _two_step(pair, s, a, b)
    ok = lhs.issubset(a)
    return _verdict(
        ok, trace,
        "" if ok else "first input lost after the two-step revision",
    )


def _c4(pair, s, a, b):
    direct = outcome_belief_set(pair.revision(s, b), s.sig)
    if direct.issubset(a.complement()):
        return Verdict(VACUOUS, note="negation of first input believed after direct revision")
    trace, lhs, _ = _two_step(pair, s, a, b)
    ok = not lhs.issubset(a.complement())
    return _verdict(
        ok, trace,
        "" if ok else "first input defeated by the two-step revision",
    )


# --- core-retainment ------------------------------------------------------------


def _core(pair, s, a, b):
    base = belief_set(s)
    after = pair.contraction(s, a)
    kept = belief_set(after)
    sig = s.sig
    trace = (("start", s), (f"contract {_bits(a)}", after))
    lost_found = False
    # Each believed-but-lost input class must contribute to implying a:
    # some superset T of M(K) must fail a while T together with the class
    # entails it.  Supersets are M(K) | extra for extra within the complement.
    outside = sig.full_mask & ~base.mask
    for beta_extra in _submasks(outside):
        beta = WorldSet(sig, base.mask | beta_extra)
        if kept.issubset(beta):
            continue  # not lost
        lost_found = True
        witness_found = False
        for extra in _submasks(outside):
            t = WorldSet(sig, base.mask | extra)
            if t.issubset(a):
                continue
            if (t & beta).issubset(a):
                witness_found = True
                break
        if not witness_found:
            return Verdict(
                FAILS, trace,
                f"lost class {_bits(beta)} does not contribute to implying {_bits(a)}",
            )
    if not lost_found:
        return Verdict(VACUOUS, note="contraction lost no believed input class")
    return Verdict(HOLDS, trace)


def _submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, ascending (numerically)."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    yield from sorted(out)


# --- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Postulate:
    """check(pair, state, a, b) decides one instance.  Harnesses also build
    unregistered ones for their claims and scan them like any postulate."""

    pid: str
    arity: int
    check: Callable
    summary: str


def _registry() -> dict[str, Postulate]:
    entries = [
        ("PC1", 2, _pc1, "contracted base is deductively closed"),
        ("PC2", 2, _pc2, "contraction only removes beliefs"),
        ("PC3", 2, _pc3, "contracting an unbelieved input changes nothing"),
        ("PC4", 2, _pc4, "a non-tautology is not believed after contracting it"),
        ("PC5", 2, _pc5, "equivalent inputs contract to the same state"),
        ("PC6", 2, _pc6, "recovery: contract then expand restores the base"),
        ("PC7", 3, _pc7, "intersection of contractions entails contraction by the conjunction"),
        ("PC8", 3, _pc8, "contraction by a conjunct extends contraction by the conjunction"),
        ("PR1", 2, _pr1, "revised base is deductively closed"),
        ("PR2", 2, _pr2, "the input is believed after revision"),
        ("PR3", 2, _pr3, "revision is bounded by expansion"),
        ("PR4", 2, _pr4, "revision includes expansion on consistent input"),
        ("PR5", 2, _pr5, "equivalent inputs revise to the same state"),
        ("PR6", 2, _pr6, "inconsistency arises exactly on unsatisfiable input"),
        ("PR7", 3, _pr7, "revision by a conjunction is bounded by expanding the first revision"),
        ("PR8", 3, _pr8, "expansion of a revision extends revision by the conjunction"),
        ("R1", 2, _r1, "revise-then-contract is contained in plain contraction"),
        ("R2", 2, _r2, "agnostic input: revise-then-contract preserves the base"),
        ("R3", 2, _r3, "unbelieved input: revise then revise the negation preserves the base"),
        ("R4", 2, _r4, "believed input: plain contraction is contained in revise-then-contract"),
        ("R5", 2, _r5, "revise-then-contract is contained in the original base"),
        ("R6", 2, _r6, "unbelieved input: revise, contract, revise the negation preserves the base"),
        ("R7", 2, _r7, "believed negation: revise-then-contract preserves the base"),
        ("R8", 2, _r8, "believed input: revise, contract, revise again preserves the base"),
        ("R9", 2, _r9, "agnostic input: contraction is contained in revise-then-contract"),
        ("S1", 2, _s1, "minimal countermodels of the input are not demoted by revision"),
        ("S2", 2, _s2, "no countermodel is promoted into the minimal ones by revision"),
        ("C1", 3, _c1, "a more specific second input makes the first redundant"),
        ("C2", 3, _c2, "a contradicting second input prevails"),
        ("C3", 3, _c3, "a supported first input survives the second revision"),
        ("C4", 3, _c4, "no input acts as its own defeater"),
        ("CORE", 2, _core, "only inputs contributing to the implication may be lost"),
    ]
    return {pid: Postulate(pid, arity, fn, text) for pid, arity, fn, text in entries}


POSTULATES: dict[str, Postulate] = _registry()
ALL_POSTULATE_IDS: tuple[str, ...] = tuple(POSTULATES)


def _postulate(pid: str) -> Postulate:
    try:
        return POSTULATES[pid]
    except KeyError:
        raise ValueError(f"unknown postulate {pid!r}") from None


def check_instance(pid: str, ops: OperatorPair, inst: Instance) -> Verdict:
    """Evaluate one postulate literally on one instance."""
    post = _postulate(pid)
    if post.arity == 3 and inst.b is None:
        raise ValueError(f"postulate {pid} needs a second input")
    if post.arity == 2 and inst.b is not None:
        raise ValueError(f"postulate {pid} takes a single input")
    if inst.a.sig != inst.state.sig or (inst.b is not None and inst.b.sig != inst.state.sig):
        raise ValueError("instance inputs must share the state's signature")
    if pid != "PR6":
        if not inst.a or (inst.b is not None and not inst.b):
            raise ValueError(f"postulate {pid} expects non-empty inputs")
    return post.check(ops, inst.state, inst.a, inst.b)


# --- search and suites -----------------------------------------------------------


def _input_masks(sig: Signature) -> range:
    return range(1, sig.full_mask + 1)


def _instances(arity: int, sig: Signature, states: Iterable[RankedState]) -> Iterator[Instance]:
    for s in states:
        for amask in _input_masks(sig):
            a = WorldSet(sig, amask)
            if arity == 2:
                yield Instance(s, a)
            else:
                for bmask in _input_masks(sig):
                    yield Instance(s, a, WorldSet(sig, bmask))


def iter_instances(pid: str, sig: Signature, states: Iterable[RankedState]) -> Iterator[Instance]:
    """Deterministic instance stream: states in order, inputs in mask order."""
    return _instances(_postulate(pid).arity, sig, states)


def _state_stream(
    sig: Signature, mode: str, samples: int | None, seed: int | None, allow_large: bool
) -> StateStream:
    if mode == "exhaustive":
        if sig.n > MAX_SEARCH_ATOMS and not allow_large:
            raise ValueError(
                f"exhaustive mode over n = {sig.n} atoms is gated; "
                f"pass allow_large (n <= {MAX_SEARCH_ATOMS} runs by default)"
            )
        return enumerate_states(sig)
    if mode == "sample":
        return sample_states(sig, samples if samples is not None else 1000,
                             seed if seed is not None else 0)
    raise ValueError(f"unknown mode {mode!r} (expected 'exhaustive' or 'sample')")


def _scan_postulate(
    post: Postulate,
    pair: OperatorPair,
    sig: Signature,
    states: Iterable[RankedState],
    stop_at_first: bool,
) -> tuple[int, int, int, int, Counterexample | None]:
    if post == POSTULATES.get(post.pid):
        verdict_of = partial(check_instance, post.pid, pair)
    else:
        # a derived claim (a harness's own check) has no registry entry for
        # check_instance to look up, so it is evaluated directly
        def verdict_of(inst: Instance) -> Verdict:
            return post.check(pair, inst.state, inst.a, inst.b)
    checked = holds = vacuous = fails = 0
    first: Counterexample | None = None
    for inst in _instances(post.arity, sig, states):
        verdict = verdict_of(inst)
        checked += 1
        if verdict.status == HOLDS:
            holds += 1
        elif verdict.status == VACUOUS:
            vacuous += 1
        else:
            fails += 1
            if first is None:
                first = Counterexample(
                    post.pid, pair.revision.name, pair.contraction.name, inst, verdict
                )
                if stop_at_first:
                    break
    return checked, holds, vacuous, fails, first


def _scan_worker(args) -> tuple[int, int, int, int, Counterexample | None]:
    post, rev_name, con_name, atoms, rank_vectors, stop_at_first = args
    sig = Signature(tuple(atoms))
    pair = make_pair(rev_name, con_name)
    states = [RankedState(sig, tuple(vec)) for vec in rank_vectors]
    return _scan_postulate(post, pair, sig, states, stop_at_first)


def _scan_parallel(
    post: Postulate,
    pair: OperatorPair,
    sig: Signature,
    states: Sequence[RankedState],
    stop_at_first: bool,
    jobs: int,
) -> tuple[int, int, int, int, Counterexample | None]:
    chunk_size = max(1, (len(states) + jobs - 1) // jobs)
    chunks = [states[i:i + chunk_size] for i in range(0, len(states), chunk_size)]
    tasks = [
        (post, pair.revision.name, pair.contraction.name, sig.atoms,
         [s.ranks for s in chunk], stop_at_first)
        for chunk in chunks
    ]
    checked = holds = vacuous = fails = 0
    first: Counterexample | None = None
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # chunks are reduced in order, so the reported counterexample is the
        # globally first one regardless of worker scheduling
        for c, h, v, f, cex in pool.map(_scan_worker, tasks):
            checked += c
            holds += h
            vacuous += v
            fails += f
            if first is None and cex is not None:
                first = cex
    return checked, holds, vacuous, fails, first


def _run_one(
    post: Postulate,
    pair: OperatorPair,
    sig: Signature,
    stream: StateStream,
    stop_at_first: bool,
    jobs: int,
) -> PostulateResult:
    """Scan one postulate over a state stream; every search, suite and
    harness claim runs through here.  jobs is capped at the CPU count."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        states = list(stream)
        checked, holds, vacuous, fails, cex = _scan_parallel(
            post, pair, sig, states, stop_at_first, jobs
        )
    else:
        checked, holds, vacuous, fails, cex = _scan_postulate(
            post, pair, sig, stream, stop_at_first
        )
    return PostulateResult(post.pid, checked, holds, vacuous, fails, cex)


def search_counterexample(
    pid: str,
    ops: OperatorPair,
    sig: Signature,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    allow_large: bool = False,
    jobs: int = 1,
) -> Counterexample | None:
    """First failing instance in deterministic order, or None.

    Vacuous verdicts are skipped; the returned instance replays to FAILS.
    """
    post = _postulate(pid)
    stream = _state_stream(sig, mode, samples, seed, allow_large)
    return _run_one(post, ops, sig, stream, stop_at_first=True, jobs=jobs).counterexample


def run_suite(
    ops: OperatorPair,
    sig: Signature,
    postulates: Sequence[str] | None = None,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    allow_large: bool = False,
    jobs: int = 1,
) -> SuiteReport:
    """Per-postulate summary over the full instance space (counts every
    instance, recording the first counterexample per postulate)."""
    pids = postulates if postulates is not None else ALL_POSTULATE_IDS
    posts = [_postulate(pid) for pid in pids]
    results = []
    for post in posts:
        stream = _state_stream(sig, mode, samples, seed, allow_large)
        results.append(_run_one(post, ops, sig, stream, stop_at_first=False, jobs=jobs))
    return SuiteReport(
        ops.revision.name,
        ops.contraction.name,
        sig,
        mode,
        seed if mode == "sample" else None,
        samples if mode == "sample" else None,
        tuple(results),
    )
