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

Every postulate is a registry row, and rows of one shape share a check.  PC
rows contract and PR rows revise.  PC2-PC4, PC6 and PR2-PR4 are single-change
rows: a guard on the base and the input (input believed, unbelieved, a
tautology, or consistent with the base; none for PC2/PR2/PR3), one step by the
input, and a test on the base, the input and the belief set after it.  PC1/PR1
share the closure check, PC5/PR5 compare the states after the input and after
its DNF rebuild, and PR7/PR8 compare revising by a & b with expanding the
revision by a with b.  PC7, PC8 and PR6 keep checks of their own.  The R, S
and C postulates have one check per family.  An R row is a guard on what is
believed (input believed, unbelieved, agnostic or negation believed; none for
R1/R5), a revise/contract sequence over a and !a, and one containment between
the model sets base, seq (after the sequence) and direct (after plain
contraction).  S1/S2 forbid demoting or promoting a minimal countermodel; a C
row is a guard plus a test on the two-step and direct belief sets.  CORE is
decided in closed form: with lost = M(kept) minus M(K) and free the worlds
outside a and M(K), it is vacuous if nothing is lost, fails on class M(K) if
M(K) is not within a, holds if lost is within free, and otherwise fails on
class M(K) plus free.

Search and suite evaluation iterate states in enumeration order and input
WorldSets in numeric mask order, so the first counterexample is reproducible.
Inputs range over the non-empty subsets of valuations (15 at n = 2), standing
for formula equivalence classes; the unsatisfiable input is exercised only by
dedicated PR6 instance checks.

Every postulate and operator is world-neutral (see Postulate), so a verdict's
status depends only on the instance's orbit under permutations of the
valuations.  A scan therefore decides each orbit once.  It splits its
postulates into groups of one arity and walks each group's instance stream
once, keying every instance by its orbit (per level, the number of worlds in
each input class).  At the first instance of an orbit it decides every
member of the group; later instances are counted from a memo mapping the key
to its row, the members' statuses, interned once per distinct row.  The memo
holds at most _ORBIT_MEMO_LIMIT keys and is cleared when full.  Each instance adds one
to its row's tally, and the members' counts are folded from the tally at the
end.  A member's first failing instance is always decided, so counts,
counterexamples and traces are those of deciding every instance.  At n = 2 a
full suite walks its 162,000 instances in two streams (1,125 arity-2 and
16,875 arity-3 instances) and decides 8,776: 74 orbits per arity-2 postulate
and 875 per arity-3 one.  A search is a group of one that stops at its first
failure.

A scan maps _scan_group over (group, chunk) tasks and reduces each group's
chunks in order: at jobs = 1 one chunk, the stream itself, under the builtin
map; with jobs > 1, jobs chunks of the states on a process pool.
Pool tasks carry the operator pair by value (registry operators and rows by
name), so any other operator or postulate needs a module-level function; a
scan refuses one that does not pickle with a ValueError before it touches the
pool.  A command makes at most one scan (a harness decides all its
postulates and claims together), so it has at most one pool: the scan starts
it when jobs > 1 and shuts it down before it returns, cancelling what is
still queued if a worker raised.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from .logic import Signature, WorldSet, dnf_of, models
from .operators import (
    ABSURD,
    OperatorPair,
    RevisionOutcome,
    apply_sequence,
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

# Entries of one scan's orbit memo before it is cleared: every orbit at n = 2
# (875 at arity 3) and every arity-2 orbit at n = 3 (11,016) fit.
_ORBIT_MEMO_LIMIT = 1 << 14


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


@lru_cache(maxsize=4096)
def _bits(ws: WorldSet) -> str:
    # trace labels stay eager (HOLDS verdicts keep full traces) but each
    # world set is rendered once: n = 2 has 16 of them, n = 3 has 256
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


# --- AGM postulates -----------------------------------------------------------
# A single-change row tests holds(base, a, out) on the belief set out after one
# step by a; its fail note may name {base}, {out} and {recovered} (out meet a).


def _believed(base, a):
    return None if base.issubset(a) else "input not believed"


def _unbelieved(base, a):
    return "input already believed" if base.issubset(a) else None


def _contingent(base, a):
    return "input is a tautology" if a.mask == a.sig.full_mask else None


def _consistent(base, a):
    return None if base & a else "negation of input believed"


def _change(kind, guard, holds, note, pair, s, a, b):
    base = belief_set(s)
    vacuous = guard(base, a) if guard else None
    if vacuous:
        return Verdict(VACUOUS, note=vacuous)
    trace = _seq_trace(pair, s, [(kind, a)])
    out = outcome_belief_set(trace[-1][1], s.sig)
    ok = holds(base, a, out)
    return _verdict(ok, trace, "" if ok else note.format(
        base=_bits(base), out=_bits(out), recovered=_bits(out & a)))


def _closed(pair, s, a, b):
    return Verdict(HOLDS, note="model-set representation is deductively closed")


def _extensional(kind, pair, s, a, b):
    op = pair.contraction if kind == "contract" else pair.revision
    first = op(s, a)
    second = op(s, _rebuilt(a))
    ok = state_equal(first, second)
    return _verdict(
        ok,
        (("start", s), (f"{kind} {_bits(a)}", first), (f"{kind} (equivalent input)", second)),
        "" if ok else "extensionality violated: equivalent inputs gave different states",
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


def _pr6(pair, s, a, b):
    out = pair.revision(s, a)
    inconsistent = not outcome_belief_set(out, s.sig)
    ok = inconsistent == (not a)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out)),
        "" if ok else "inconsistency must arise exactly on unsatisfiable input",
    )


def _expansion(sub, pair, s, a, b):
    """PR7 (superexpansion) needs every model of (K * a) + b to be a model of
    K * (a & b); PR8 (subexpansion) needs the converse when (K * a) + b is
    consistent."""
    out_a = pair.revision(s, a)
    expanded = outcome_belief_set(out_a, s.sig) & b
    if sub and not expanded:
        return Verdict(VACUOUS, note="negation of second input believed after first revision")
    out_ab = pair.revision(s, a & b)
    joint = outcome_belief_set(out_ab, s.sig)
    ok = joint.issubset(expanded) if sub else expanded.issubset(joint)
    return _verdict(
        ok,
        (("start", s), (f"revise {_bits(a)}", out_a), (f"revise {_bits(a & b)}", out_ab)),
        "" if ok else f"{'sub' if sub else 'super'}expansion violated",
    )


# --- recovery-style sequence postulates ---------------------------------------
# R rows name each step's input "a" or "!a" and compare two of the model sets
# base, seq and direct.  direct costs a contraction, so only rows naming it
# compute it.


def _agnostic(base, a):
    if base.issubset(a) or base.issubset(a.complement()):
        return "input or its negation already believed"
    return None


def _negation_believed(base, a):
    return None if base.issubset(a.complement()) else "negation of input not believed"


def _recovery(guard, steps, lhs, rhs, note, pair, s, a, b):
    base = belief_set(s)
    vacuous = guard(base, a) if guard else None
    if vacuous:
        return Verdict(VACUOUS, note=vacuous)
    trace = _seq_trace(pair, s, [(kind, a if x == "a" else a.complement()) for kind, x in steps])
    sets = {"base": base, "seq": outcome_belief_set(trace[-1][1], s.sig)}
    if "direct" in (lhs, rhs):
        sets["direct"] = belief_set(pair.contraction(s, a))
    ok = sets[lhs].issubset(sets[rhs])
    return _verdict(ok, trace, "" if ok else note.format(**{k: _bits(v) for k, v in sets.items()}))


_REV_CON = (("revise", "a"), ("contract", "a"))


# --- semantic conditions -------------------------------------------------------


def _stability(forbid_promotion, pair, s, a, b):
    """S1 forbids demoting a minimal countermodel of a, S2 promoting one."""
    out = pair.revision(s, a)
    before = min_worlds(s, a.complement())
    trace = (("start", s), (f"revise {_bits(a)}", out))
    if out is ABSURD:
        return Verdict(FAILS, trace, "revision produced the absurd state on satisfiable input")
    after = min_worlds(out, a.complement())
    if forbid_promotion:
        ok, what = after.issubset(before), "countermodels promoted"
    else:
        ok, what = before.issubset(after), "minimal countermodels demoted"
    return _verdict(
        ok, trace, "" if ok else f"{what}: before {_bits(before)}, after {_bits(after)}"
    )


# --- iterated-revision postulates ---------------------------------------------
# Instances carry the first input in a and the second in b.  A C row guards on
# the inputs (C1/C2) or on the direct belief set rhs after revising by b
# (C3/C4), then tests the two-step belief set lhs against rhs.  Revising by b
# directly happens once per instance and never on an input guard's vacuous path.


def _specific(a, b):
    return None if b.issubset(a) else "second input does not entail the first"


def _contradicting(a, b):
    return None if b.issubset(a.complement()) else "second input does not contradict the first"


def _supported(a, rhs):
    return None if rhs.issubset(a) else "first input not believed after direct revision"


def _undefeated(a, rhs):
    if rhs.issubset(a.complement()):
        return "negation of first input believed after direct revision"
    return None


def _same(a, lhs, rhs):
    return lhs.mask == rhs.mask


def _keeps(a, lhs, rhs):
    return lhs.issubset(a)


def _admits(a, lhs, rhs):
    return not lhs.issubset(a.complement())


def _iterated(input_guard, direct_guard, holds, note, pair, s, a, b):
    vacuous = input_guard(a, b) if input_guard else None
    if not vacuous:
        direct = pair.revision(s, b)
        rhs = outcome_belief_set(direct, s.sig)
        vacuous = direct_guard(a, rhs) if direct_guard else None
    if vacuous:
        return Verdict(VACUOUS, note=vacuous)
    trace = _seq_trace(pair, s, [("revise", a), ("revise", b)])
    lhs = outcome_belief_set(trace[-1][1], s.sig)
    ok = holds(a, lhs, rhs)
    return _verdict(
        ok, trace + ((f"revise {_bits(b)} directly", direct),),
        "" if ok else note.format(lhs=_bits(lhs), rhs=_bits(rhs)),
    )


# --- core-retainment ------------------------------------------------------------


def _core(pair, s, a, b):
    """Each lost input class beta (a superset of M(K) that misses a kept
    world) needs a witness T, a superset of M(K) outside a whose meet with
    beta lies in a.  One exists iff M(K) is within a and some free world lies
    outside beta, so the first failing class in mask order is M(K) or M(K)
    plus every free world."""
    base = belief_set(s)
    after = pair.contraction(s, a)
    lost = belief_set(after).mask & ~base.mask
    if not lost:
        return Verdict(VACUOUS, note="contraction lost no believed input class")
    trace = (("start", s), (f"contract {_bits(a)}", after))
    if not base.issubset(a):
        beta = base
    else:
        free = s.sig.full_mask & ~a.mask & ~base.mask
        if not lost & ~free:
            return Verdict(HOLDS, trace)
        beta = WorldSet(s.sig, base.mask | free)
    return Verdict(
        FAILS, trace, f"lost class {_bits(beta)} does not contribute to implying {_bits(a)}"
    )


# --- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Postulate:
    """check(pair, state, a, b) decides one instance.  Harnesses also build
    unregistered ones for their claims and scan them like any postulate.

    A check must be world-neutral: applying one permutation of the
    valuations to the state and the inputs must not change the verdict's
    status, given that the pair's operators are neutral too.  Scans decide
    one instance per orbit and count the rest of the orbit from it.  Every
    registry row and harness claim reads only ranks, set membership and
    set relations, so all of them comply.
    """

    pid: str
    arity: int
    check: Callable
    summary: str

    def __reduce_ex__(self, protocol):
        # A registry row reaches pool workers by pid, as the registry's own
        # object, so workers still decide it through check_instance.
        if POSTULATES.get(self.pid) is self:
            return _postulate, (self.pid,)
        return super().__reduce_ex__(protocol)


def _registry() -> dict[str, Postulate]:
    entries = [
        ("PC1", 2, _closed, "contracted base is deductively closed"),
        ("PC2", 2, partial(_change, "contract", None,
                           lambda base, a, out: base.issubset(out),
                           "K after contraction not contained in K: "
                           "M(K)={base} vs M(K')={out}"),
         "contraction only removes beliefs"),
        ("PC3", 2, partial(_change, "contract", _unbelieved,
                           lambda base, a, out: out.mask == base.mask,
                           "vacuity violated: belief set changed although input not believed"),
         "contracting an unbelieved input changes nothing"),
        ("PC4", 2, partial(_change, "contract", _contingent,
                           lambda base, a, out: not out.issubset(a),
                           "success violated: input still believed after contraction"),
         "a non-tautology is not believed after contracting it"),
        ("PC5", 2, partial(_extensional, "contract"),
         "equivalent inputs contract to the same state"),
        ("PC6", 2, partial(_change, "contract", _believed,
                           lambda base, a, out: (out & a).issubset(base),
                           "recovery violated: expanding back yields {recovered}, "
                           "not contained in M(K)={base}"),
         "recovery: contract then expand restores the base"),
        ("PC7", 3, _pc7, "intersection of contractions entails contraction by the conjunction"),
        ("PC8", 3, _pc8, "contraction by a conjunct extends contraction by the conjunction"),
        ("PR1", 2, _closed, "revised base is deductively closed"),
        ("PR2", 2, partial(_change, "revise", None,
                           lambda base, a, out: out.issubset(a),
                           "success violated: input not believed after revision"),
         "the input is believed after revision"),
        ("PR3", 2, partial(_change, "revise", None,
                           lambda base, a, out: (base & a).issubset(out),
                           "revision exceeds expansion"),
         "revision is bounded by expansion"),
        ("PR4", 2, partial(_change, "revise", _consistent,
                           lambda base, a, out: out.issubset(base & a),
                           "expansion not recovered on consistent input"),
         "revision includes expansion on consistent input"),
        ("PR5", 2, partial(_extensional, "revise"),
         "equivalent inputs revise to the same state"),
        ("PR6", 2, _pr6, "inconsistency arises exactly on unsatisfiable input"),
        ("PR7", 3, partial(_expansion, False),
         "revision by a conjunction is bounded by expanding the first revision"),
        ("PR8", 3, partial(_expansion, True),
         "expansion of a revision extends revision by the conjunction"),
        ("R1", 2, partial(_recovery, None, _REV_CON, "direct", "seq",
                          "revise-then-contract lost beliefs kept by plain contraction: "
                          "M={seq} vs {direct}"),
         "revise-then-contract is contained in plain contraction"),
        ("R2", 2, partial(_recovery, _agnostic, _REV_CON, "seq", "base",
                          "original knowledge base not preserved by revise-then-contract"),
         "agnostic input: revise-then-contract preserves the base"),
        ("R3", 2, partial(_recovery, _unbelieved, (("revise", "a"), ("revise", "!a")),
                          "seq", "base",
                          "original knowledge base not preserved by revise-then-revise-negation"),
         "unbelieved input: revise then revise the negation preserves the base"),
        ("R4", 2, partial(_recovery, _believed, _REV_CON, "seq", "direct",
                          "plain contraction not preserved by revise-then-contract"),
         "believed input: plain contraction is contained in revise-then-contract"),
        ("R5", 2, partial(_recovery, None, _REV_CON, "base", "seq",
                          "revise-then-contract produced beliefs outside the original base"),
         "revise-then-contract is contained in the original base"),
        ("R6", 2, partial(_recovery, _unbelieved, _REV_CON + (("revise", "!a"),), "seq", "base",
                          "original knowledge base not preserved by "
                          "revise-contract-revise-negation"),
         "unbelieved input: revise, contract, revise the negation preserves the base"),
        ("R7", 2, partial(_recovery, _negation_believed, _REV_CON, "seq", "base",
                          "base not preserved: M(K)={base} vs "
                          "M(K after revise-then-contract)={seq}"),
         "believed negation: revise-then-contract preserves the base"),
        ("R8", 2, partial(_recovery, _believed, _REV_CON + (("revise", "a"),), "seq", "base",
                          "original knowledge base not preserved by revise-contract-revise"),
         "believed input: revise, contract, revise again preserves the base"),
        ("R9", 2, partial(_recovery, _agnostic, _REV_CON, "seq", "direct",
                          "plain contraction not preserved by revise-then-contract"),
         "agnostic input: contraction is contained in revise-then-contract"),
        ("S1", 2, partial(_stability, False),
         "minimal countermodels of the input are not demoted by revision"),
        ("S2", 2, partial(_stability, True),
         "no countermodel is promoted into the minimal ones by revision"),
        ("C1", 3, partial(_iterated, _specific, None, _same,
                          "two-step belief set {lhs} differs from direct {rhs}"),
         "a more specific second input makes the first redundant"),
        ("C2", 3, partial(_iterated, _contradicting, None, _same,
                          "two-step belief set {lhs} differs from direct {rhs}"),
         "a contradicting second input prevails"),
        ("C3", 3, partial(_iterated, None, _supported, _keeps,
                          "first input lost after the two-step revision"),
         "a supported first input survives the second revision"),
        ("C4", 3, partial(_iterated, None, _undefeated, _admits,
                          "first input defeated by the two-step revision"),
         "no input acts as its own defeater"),
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
    sig = inst.state.sig
    if (inst.a.sig is not sig and inst.a.sig != sig) or (
        inst.b is not None and inst.b.sig is not sig and inst.b.sig != sig
    ):
        raise ValueError("instance inputs must share the state's signature")
    if pid != "PR6":
        if not inst.a or (inst.b is not None and not inst.b):
            raise ValueError(f"postulate {pid} expects non-empty inputs")
    return post.check(ops, inst.state, inst.a, inst.b)


# --- search and suites -----------------------------------------------------------


def _keyed_instances(
    arity: int, sig: Signature, states: Iterable[RankedState]
) -> Iterator[tuple[int, RankedState, WorldSet, WorldSet | None]]:
    """(orbit key, state, a, b) for every instance, states in order and
    inputs in mask order; b is None at arity 2.

    The key packs, level by level, how many worlds fall in each input
    class (in a or not; at arity 3 also in b or not) into n + 1 bits per
    count, under one leading sentinel bit.  Two instances share a key
    exactly when one permutation of the valuations maps one onto the other.
    A key is the sum of per-world field increments over the input's worlds,
    so each state keeps tables of partial sums indexed by input mask, grown
    entry by entry as the masks are reached.
    """
    width = sig.n + 1  # bits per count: a count reaches 2**n
    shift = width << (arity - 1)  # bits per level: 2 or 4 counts
    # step << (rank * shift) moves one world of that level out of the first
    # class: into "in a" (class 1 at arity 2, class 2 at arity 3) or "in b"
    # (class 1); a world in both also takes ab_step, landing in class 3
    a_step = (1 << (shift >> 1)) - 1
    b_step = (1 << width) - 1
    ab_step = a_step * b_step
    built: list[WorldSet] = []  # non-empty inputs in mask order, shared by every state

    def inputs() -> Iterator[WorldSet]:
        # each input is built once per scan, on first use, so a search that
        # stops early builds no more of the 2**2**n - 1 inputs than it reached
        for i in range(sig.full_mask):
            if i == len(built):
                built.append(WorldSet(sig, i + 1))
            yield built[i]

    for s in states:
        ranks = s.ranks

        def grow(sums: list[int], step: int) -> int:
            # the entry for mask len(sums): the entry without its lowest
            # world plus that world's increment in its level's field
            m = len(sums)
            low = m & -m
            sums.append(sums[m ^ low] + (step << ranks[low.bit_length() - 1] * shift))
            return sums[m]

        # every world starts in its level's first class; the sentinel bit
        # sits above the top level
        by_a = [sum(1 << r * shift for r in ranks) + (1 << s.num_levels * shift)]
        if arity == 2:
            for a in inputs():
                yield grow(by_a, a_step), s, a, None
            continue
        by_b, by_ab = [0], [0]
        for a in inputs():
            key_a = grow(by_a, a_step)
            for b in inputs():
                if b.mask == len(by_b):
                    grow(by_b, b_step)
                    grow(by_ab, ab_step)
                yield key_a + by_b[b.mask] + by_ab[a.mask & b.mask], s, a, b


def iter_instances(pid: str, sig: Signature, states: Iterable[RankedState]) -> Iterator[Instance]:
    """Deterministic instance stream: states in order, inputs in mask order."""
    keyed = _keyed_instances(_postulate(pid).arity, sig, states)
    return (Instance(s, a, b) for _, s, a, b in keyed)


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


def _decider(post: Postulate, pair: OperatorPair) -> Callable[[Instance], Verdict]:
    if post is POSTULATES.get(post.pid):
        return partial(check_instance, post.pid, pair)
    # a derived claim (a harness's own check) has no registry entry for
    # check_instance to look up, so it is evaluated directly
    return lambda inst: post.check(pair, inst.state, inst.a, inst.b)


def _scan_group(
    group: Sequence[Postulate],
    states: Iterable[RankedState],
    pair: OperatorPair,
    sig: Signature,
    stop_at_first: bool,
) -> list[tuple[int, int, int, int, Counterexample | None]]:
    """(checked, holds, vacuous, fails, first counterexample) per member of a
    group of postulates of one arity, from one walk of their instances.  With
    stop_at_first the walk ends once every member has failed."""
    decide = [_decider(post, pair) for post in group]
    firsts: list[Counterexample | None] = [None] * len(group)
    # a status row holds one status per member; each distinct row is interned
    # with an index, and the memo and the tally refer to rows by that index
    # (a tuple does not cache its hash, so keying the tally by the row itself
    # would rehash it at every instance)
    rows: dict[tuple[str, ...], int] = {}
    memo: dict[int, int] = {}  # orbit key -> row index
    tally: list[int] = []  # row index -> instances
    stop = False
    for key, s, a, b in _keyed_instances(group[0].arity, sig, states):
        i = memo.get(key)
        if i is None:
            inst = Instance(s, a, b)
            verdicts, statuses = [], []
            # a plain loop: before Python 3.12 a comprehension is a function
            # call, paid here once per orbit
            for verdict_of in decide:
                verdict = verdict_of(inst)
                verdicts.append(verdict)
                statuses.append(verdict.status)
            row = tuple(statuses)
            i = rows.setdefault(row, len(tally))
            if i == len(tally):
                tally.append(0)
            if len(memo) >= _ORBIT_MEMO_LIMIT:
                memo.clear()
            memo[key] = i
            if FAILS in row:
                # a hit on a failing row follows an earlier failure of its
                # orbit, so each member's first failure is decided here
                for m, verdict in enumerate(verdicts):
                    if verdict.status == FAILS and firsts[m] is None:
                        firsts[m] = Counterexample(
                            group[m].pid, pair.revision.name, pair.contraction.name,
                            inst, verdict)
                stop = stop_at_first and all(firsts)
        tally[i] += 1
        if stop:
            break
    results = []
    for m, first in enumerate(firsts):
        counts = dict.fromkeys((HOLDS, VACUOUS, FAILS), 0)
        for row, i in rows.items():
            counts[row[m]] += tally[i]
        results.append((sum(counts.values()), counts[HOLDS], counts[VACUOUS], counts[FAILS], first))
    return results


def _check_picklable(pair: OperatorPair, posts: Sequence[Postulate]) -> None:
    # A task that fails to pickle inside the pool leaves the executor's
    # shutdown waiting forever (CPython 3.11), so a pooled scan checks first.
    for obj in (pair.revision, pair.contraction, *posts):
        try:
            pickle.dumps(obj)
        except Exception as err:
            raise ValueError(f"{obj!r} cannot be pickled for a pool worker "
                             f"(jobs > 1 needs module-level functions): {err}") from err


def _scan(
    posts: Sequence[Postulate],
    pair: OperatorPair,
    sig: Signature,
    stream: StateStream,
    stop_at_first: bool,
    jobs: int,
) -> list[PostulateResult]:
    """Scan postulates over one state stream; every search (a list of one),
    suite and harness runs through here.  The distinct postulates of
    one arity form a group, scanned by one walk.  jobs is capped at the CPU
    count; above 1 the scan runs on a process pool of its own, shut down
    before it returns.  Results follow posts, duplicates included."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    distinct = list(dict.fromkeys(posts))
    groups = [[post for post in distinct if post.arity == arity]
              for arity in dict.fromkeys(post.arity for post in distinct)]
    scan = partial(_scan_group, pair=pair, sig=sig, stop_at_first=stop_at_first)
    pool = None
    if jobs == 1:
        chunks, scan_map = [stream], map
    else:
        states = list(stream)
        size = max(1, (len(states) + jobs - 1) // jobs)
        chunks = [states[i:i + size] for i in range(0, len(states), size)]
        _check_picklable(pair, distinct)
        pool = ProcessPoolExecutor(max_workers=jobs)
        scan_map = pool.map
    try:
        # every group's chunks are queued before any result is read, so the
        # pool does not drain between groups; chunks are reduced in order, so
        # each reported counterexample is the first one in the stream
        outcomes = scan_map(scan, [group for group in groups for _ in chunks],
                            chunks * len(groups))
        results = {}
        for group in groups:
            parts = list(islice(outcomes, len(chunks)))
            for post, member in zip(group, zip(*parts)):
                results[post] = PostulateResult(
                    post.pid, *(sum(part[i] for part in member) for i in range(4)),
                    next((part[4] for part in member if part[4] is not None), None))
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return [results[post] for post in posts]


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
    (result,) = _scan([post], ops, sig, stream, stop_at_first=True, jobs=jobs)
    return result.counterexample


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
    if isinstance(postulates, str):
        # iterating "R1" would ask for postulates "R" and "1"
        raise TypeError(f"postulates must be a sequence of ids, not the string {postulates!r}")
    pids = postulates if postulates is not None else ALL_POSTULATE_IDS
    posts = [_postulate(pid) for pid in pids]
    stream = _state_stream(sig, mode, samples, seed, allow_large)
    results = _scan(posts, ops, sig, stream, stop_at_first=False, jobs=jobs)
    return SuiteReport(
        ops.revision.name,
        ops.contraction.name,
        sig,
        mode,
        seed if mode == "sample" else None,
        samples if mode == "sample" else None,
        tuple(results),
    )
