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

Every postulate is a registry row, and rows of one shape share a rule.  A
rule decides one instance on ints: the state's level masks, the input masks
and the level transforms of the pair's operators, run by operators._Run, the
one engine that also runs apply_sequence (see operators).  It returns
the status, the note, the masks the note names and the chains of steps it
took; the row's check, which returns a Verdict, renders the note and turns
the outcomes of the chains into the trace's states (Postulate.check), so each
family has one body.  PC rows contract and PR rows revise.  PC2-PC4, PC6 and
PR2-PR4 are single-change rows: a guard on the base and the input (input
believed, unbelieved, a tautology, or consistent with the base; none for
PC2/PR2/PR3), one step by the input, and a test on the base, the input and the
belief set after it.  PC1/PR1 share the closure rule, PC5/PR5 compare the
states after the input and after its DNF rebuild, and PR7/PR8 compare revising
by a & b with expanding the revision by a with b.  PC7, PC8 and PR6 keep rules
of their own.  The R, S and C postulates have one rule per family.  An R row
is a guard on what is believed (input believed, unbelieved, agnostic or
negation believed; none for R1/R5), a revise/contract sequence over a and !a,
and one containment between the model sets base, seq (after the sequence) and
direct (after plain contraction).  S1/S2 forbid demoting or promoting a
minimal countermodel; a C row is a guard plus a test on the two-step and
direct belief sets.  CORE is decided in closed form: with lost = M(kept) minus
M(K) and free the worlds outside a and M(K), it is vacuous if nothing is lost,
fails on class M(K) if M(K) is not within a, holds if lost is within free, and
otherwise fails on class M(K) plus free.

Search and suite evaluation iterate states in enumeration order and input
masks in numeric order, so the first counterexample is reproducible.
Inputs range over the non-empty subsets of valuations (15 at n = 2), standing
for formula equivalence classes; the unsatisfiable input is exercised only by
dedicated PR6 instance checks.

Every postulate and operator is world-neutral (see Postulate), so a verdict's
status depends only on the instance's orbit under permutations of the
valuations.  A scan therefore decides each orbit once.  It splits its
postulates into groups of one arity and walks each group's instance stream
once, keying every instance by its orbit (per level, the number of worlds in
each input class).  A state's keys come from tables of partial sums indexed by
input mask, built a block of masks at a time by list comprehensions, and only
as far as the walk reaches.  At the first instance of an orbit it calls every
member's rule for its status alone; the members share one run of operator
outcomes per instance (_Run), so a chain that several rows take, such as
revise-then-contract, is computed once.  Later instances are counted from a
memo mapping the key to its row, the members' statuses, interned once per
distinct row.  The memo holds at most _ORBIT_MEMO_LIMIT keys and is cleared
when full.  Each instance adds one to its row's tally, and the walk returns
its table: the distinct rows in order of first occurrence, each with its tally
and first instance, on masks.  _fold reads a claim from the table by its
status on a row: its counts are sums of tallies, and its first failing
instance is the first instance of the first row where it fails.  A registry
member's status is its entry in the row; a harness claim relating postulates
is a function of their entries.  Only a reported counterexample becomes an
Instance and gets a Verdict (a member's through check_instance), so counts,
counterexamples and traces are those of checking every instance.  At n = 2 a
full suite walks its 162,000 instances in two streams (1,125 arity-2 and
16,875 arity-3 instances) and makes 8,776 decisions: 74 orbits per arity-2
postulate and 875 per arity-3 one.  A search is a group of one that stops at
its first failing row.

A scan maps _scan_group over (group, chunk) tasks and concatenates each
group's tables in chunk order: at jobs = 1 one chunk, the stream itself, under
the builtin map; with jobs > 1, jobs chunks of the states on a process pool.
Pool tasks carry postulates by pid and the operator pair by value (registry
operators by name), so any other operator needs a module-level function; a
scan refuses one that does not pickle with a ValueError before it touches the
pool.  A command makes at most one scan (a harness reads all its claims from
one table), so it has at most one pool: the scan starts
it when jobs > 1 and shuts it down before it returns, cancelling what is
still queued if a worker raised.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .logic import Signature, WorldSet, dnf_of, models
from .operators import OperatorPair, RevisionOutcome, _Run, _transforms
from .states import (
    RankedState,
    StateStream,
    _first_hit,
    _level_masks,
    enumerate_states,
    sample_states,
)

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"

MAX_SEARCH_ATOMS = 2  # exhaustive search default cap; n = 3 behind allow_large

# Entries of one scan's orbit memo before it is cleared: every orbit at n = 2
# (875 at arity 3) and every arity-2 orbit at n = 3 (11,016) fit.
_ORBIT_MEMO_LIMIT = 1 << 14

# Bits of one block of a state's key table, 128 KiB: at n = 16, where a key can
# be over a megabit wide, a block holds one or a few masks instead of 256.
_KEY_BLOCK_BITS = 1 << 20


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
def _mask_bits(sig: Signature, mask: int) -> str:
    # each world set is rendered once: n = 2 has 16 of them, n = 3 has 256
    return "{" + ",".join(WorldSet(sig, mask).bitstrings()) + "}"


def _bits(ws: WorldSet) -> str:
    return _mask_bits(ws.sig, ws.mask)


def _beliefs(levels: tuple[int, ...] | None) -> int:
    """The belief set of an outcome's levels; ABSURD believes everything."""
    return 0 if levels is None else levels[0]


def _rebuilt(sig: Signature, a: int) -> int:
    # Same model set reconstructed through the canonical DNF round trip.
    return models(dnf_of(WorldSet(sig, a), sig), sig).mask


def _trace(run: _Run, s: RankedState, chains) -> tuple:
    """The trace of a rule's chains: the start state, then one line per step
    of each chain, its outcome read from the run.  A step may carry a label
    template in place of "{kind} {input}"."""
    if not chains:
        return ()
    sig = run.sig
    lines = [("start", s)]
    for chain in chains:
        for step, out in zip(chain, run.outcomes(chain)):
            kind, bits = step[0], _mask_bits(sig, step[1])
            label = f"{kind} {bits}" if len(step) == 2 else step[2].format(kind=kind, input=bits)
            lines.append((label, out))
    return tuple(lines)


# --- AGM postulates -----------------------------------------------------------
# A rule (run, a, b) decides one instance on masks and returns (status, note,
# masks, chains): the note's placeholders name masks, and the outcomes of the
# chains of (kind, mask) steps from the state are the trace's states.  A
# single-change row tests holds(base, a, out) on the belief set out after one
# step by a; its fail note may name {base}, {out} and {recovered} (out meet a).


def _believed(base, a, full):
    return "input not believed" if base & ~a else None


def _unbelieved(base, a, full):
    return None if base & ~a else "input already believed"


def _contingent(base, a, full):
    return "input is a tautology" if a == full else None


def _consistent(base, a, full):
    return None if base & a else "negation of input believed"


def _change(kind, guard, holds, note, run, a, b):
    base = run.base
    vacuous = guard(base, a, run.full) if guard else None
    if vacuous:
        return VACUOUS, vacuous, None, ()
    chain = ((kind, a),)
    out = _beliefs(run.after(chain))
    if holds(base, a, out):
        return HOLDS, "", None, (chain,)
    return FAILS, note, {"base": base, "out": out, "recovered": out & a}, (chain,)


def _closed(run, a, b):
    return HOLDS, "model-set representation is deductively closed", None, ()


def _extensional(kind, run, a, b):
    chain = ((kind, a),)
    # the labelled step is decided afresh, not read from the memo under the
    # equal mask
    rebuilt = ((kind, _rebuilt(run.sig, a), "{kind} (equivalent input)"),)
    chains = (chain, rebuilt)
    if run.after(chain) == run.after(rebuilt):
        return HOLDS, "", None, chains
    return FAILS, "extensionality violated: equivalent inputs gave different states", None, chains


def _pc7(run, a, b):
    chains = ((("contract", a),), (("contract", b),), (("contract", a & b),))
    after_a, after_b, after_ab = [_beliefs(run.after(chain)) for chain in chains]
    if not after_ab & ~(after_a | after_b):
        return HOLDS, "", None, chains
    return FAILS, "conjunctive overlap violated", None, chains


def _pc8(run, a, b):
    both = (("contract", a & b),)
    after_ab = _beliefs(run.after(both))
    if not after_ab & ~b:
        return VACUOUS, "second input still believed after contracting the conjunction", None, ()
    second = (("contract", b),)
    chains = (both, second)
    if not _beliefs(run.after(second)) & ~after_ab:
        return HOLDS, "", None, chains
    return FAILS, "conjunctive inclusion violated", None, chains


def _pr6(run, a, b):
    chain = (("revise", a),)
    if (not _beliefs(run.after(chain))) == (not a):
        return HOLDS, "", None, (chain,)
    return FAILS, "inconsistency must arise exactly on unsatisfiable input", None, (chain,)


def _expansion(sub, run, a, b):
    """PR7 (superexpansion) needs every model of (K * a) + b to be a model of
    K * (a & b); PR8 (subexpansion) needs the converse when (K * a) + b is
    consistent."""
    first = (("revise", a),)
    expanded = _beliefs(run.after(first)) & b
    if sub and not expanded:
        return VACUOUS, "negation of second input believed after first revision", None, ()
    both = (("revise", a & b),)
    joint = _beliefs(run.after(both))
    chains = (first, both)
    if not (joint & ~expanded if sub else expanded & ~joint):
        return HOLDS, "", None, chains
    return FAILS, f"{'sub' if sub else 'super'}expansion violated", None, chains


# --- recovery-style sequence postulates ---------------------------------------
# R rows name each step's input "a" or "!a" and compare two of the model sets
# base, seq and direct.  direct costs a contraction, so only rows naming it
# compute it.


def _agnostic(base, a, full):
    if not base & ~a or not base & a:
        return "input or its negation already believed"
    return None


def _negation_believed(base, a, full):
    return "negation of input not believed" if base & a else None


def _recovery(guard, steps, lhs, rhs, note, run, a, b):
    base = run.base
    vacuous = guard(base, a, run.full) if guard else None
    if vacuous:
        return VACUOUS, vacuous, None, ()
    negated = run.full & ~a
    chain = tuple([(kind, a if x == "a" else negated) for kind, x in steps])
    sets = {"base": base, "seq": _beliefs(run.after(chain))}
    if "direct" in (lhs, rhs):
        sets["direct"] = _beliefs(run.after((("contract", a),)))
    if not sets[lhs] & ~sets[rhs]:
        return HOLDS, "", None, (chain,)
    return FAILS, note, sets, (chain,)


_REV_CON = (("revise", "a"), ("contract", "a"))


# --- semantic conditions -------------------------------------------------------


def _stability(forbid_promotion, run, a, b):
    """S1 forbids demoting a minimal countermodel of a, S2 promoting one."""
    chain = (("revise", a),)
    out = run.after(chain)
    if out is None:
        return FAILS, "revision produced the absurd state on satisfiable input", None, (chain,)
    negated = run.full & ~a
    before = _first_hit(run.levels, negated)
    after = _first_hit(out, negated)
    if forbid_promotion:
        ok, what = not after & ~before, "countermodels promoted"
    else:
        ok, what = not before & ~after, "minimal countermodels demoted"
    if ok:
        return HOLDS, "", None, (chain,)
    return (FAILS, what + ": before {before}, after {after}", {"before": before, "after": after},
            (chain,))


# --- iterated-revision postulates ---------------------------------------------
# Instances carry the first input in a and the second in b.  A C row guards on
# the inputs (C1/C2) or on the direct belief set rhs after revising by b
# (C3/C4), then tests the two-step belief set lhs against rhs.  Revising by b
# directly happens once per instance and never on an input guard's vacuous path.


def _specific(a, b):
    return "second input does not entail the first" if b & ~a else None


def _contradicting(a, b):
    return "second input does not contradict the first" if b & a else None


def _supported(a, rhs):
    return "first input not believed after direct revision" if rhs & ~a else None


def _undefeated(a, rhs):
    return None if rhs & a else "negation of first input believed after direct revision"


def _same(a, lhs, rhs):
    return lhs == rhs


def _keeps(a, lhs, rhs):
    return not lhs & ~a


def _admits(a, lhs, rhs):
    return lhs & a


def _iterated(input_guard, direct_guard, holds, note, run, a, b):
    vacuous = input_guard(a, b) if input_guard else None
    direct = (("revise", b, "{kind} {input} directly"),)
    if not vacuous:
        rhs = _beliefs(run.after(direct))
        vacuous = direct_guard(a, rhs) if direct_guard else None
    if vacuous:
        return VACUOUS, vacuous, None, ()
    seq = (("revise", a), ("revise", b))
    lhs = _beliefs(run.after(seq))
    chains = (seq, direct)
    if holds(a, lhs, rhs):
        return HOLDS, "", None, chains
    return FAILS, note, {"lhs": lhs, "rhs": rhs}, chains


# --- core-retainment ------------------------------------------------------------


def _core(run, a, b):
    """Each lost input class beta (a superset of M(K) that misses a kept
    world) needs a witness T, a superset of M(K) outside a whose meet with
    beta lies in a.  One exists iff M(K) is within a and some free world lies
    outside beta, so the first failing class in mask order is M(K) or M(K)
    plus every free world."""
    base = run.base
    chain = (("contract", a),)
    lost = _beliefs(run.after(chain)) & ~base
    if not lost:
        return VACUOUS, "contraction lost no believed input class", None, ()
    if base & ~a:
        beta = base
    else:
        free = run.full & ~a & ~base
        if not lost & ~free:
            return HOLDS, "", None, (chain,)
        beta = base | free
    return (FAILS, "lost class {beta} does not contribute to implying {a}", {"beta": beta, "a": a},
            (chain,))


# --- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Postulate:
    """A registry row.  rule(run, a, b) decides one instance on level masks
    and input masks (see _Run) and returns (status, note, masks, chains);
    check(pair, state, a, b) decides it from the rule and returns its
    Verdict.  Scans call the rule at each new orbit and check only where a
    verdict is reported.  Scans take registry rows only; a harness claim is
    a status function over their rows (_fold).

    A check must be world-neutral: applying one permutation of the
    valuations to the state and the inputs must not change the verdict's
    status, given that the pair's operators are neutral too.  Scans decide
    one instance per orbit and count the rest of the orbit from it.  Every
    registry row reads only ranks, set membership and set relations, so all
    of them comply.
    """

    pid: str
    arity: int
    rule: Callable
    summary: str

    def check(self, pair: OperatorPair, s: RankedState, a: WorldSet,
              b: WorldSet | None) -> Verdict:
        """The rule's status, its note with the masks it names rendered, and
        the outcomes of its chains as the trace."""
        sig = s.sig
        run = _Run(sig, _level_masks(s), _transforms(pair, sig))
        status, note, masks, chains = self.rule(run, a.mask, None if b is None else b.mask)
        if masks:
            note = note.format(**{name: _mask_bits(sig, m) for name, m in masks.items()})
        return Verdict(status, _trace(run, s, chains), note)


def _registry() -> dict[str, Postulate]:
    entries = [
        ("PC1", 2, _closed, "contracted base is deductively closed"),
        ("PC2", 2, partial(_change, "contract", None,
                           lambda base, a, out: not base & ~out,
                           "K after contraction not contained in K: "
                           "M(K)={base} vs M(K')={out}"),
         "contraction only removes beliefs"),
        ("PC3", 2, partial(_change, "contract", _unbelieved,
                           lambda base, a, out: out == base,
                           "vacuity violated: belief set changed although input not believed"),
         "contracting an unbelieved input changes nothing"),
        ("PC4", 2, partial(_change, "contract", _contingent,
                           lambda base, a, out: out & ~a,
                           "success violated: input still believed after contraction"),
         "a non-tautology is not believed after contracting it"),
        ("PC5", 2, partial(_extensional, "contract"),
         "equivalent inputs contract to the same state"),
        ("PC6", 2, partial(_change, "contract", _believed,
                           lambda base, a, out: not out & a & ~base,
                           "recovery violated: expanding back yields {recovered}, "
                           "not contained in M(K)={base}"),
         "recovery: contract then expand restores the base"),
        ("PC7", 3, _pc7, "intersection of contractions entails contraction by the conjunction"),
        ("PC8", 3, _pc8, "contraction by a conjunct extends contraction by the conjunction"),
        ("PR1", 2, _closed, "revised base is deductively closed"),
        ("PR2", 2, partial(_change, "revise", None,
                           lambda base, a, out: not out & ~a,
                           "success violated: input not believed after revision"),
         "the input is believed after revision"),
        ("PR3", 2, partial(_change, "revise", None,
                           lambda base, a, out: not base & a & ~out,
                           "revision exceeds expansion"),
         "revision is bounded by expansion"),
        ("PR4", 2, partial(_change, "revise", _consistent,
                           lambda base, a, out: not out & ~(base & a),
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
    return {pid: Postulate(pid, arity, rule, text) for pid, arity, rule, text in entries}


POSTULATES = _registry()
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


def _key_blocks(
    base: int, step: int, shift: int, ranks: tuple[int, ...], low_worlds: int
) -> Iterator[list[int]]:
    """Partial key sums base + sum of step << (rank * shift) over the worlds
    of each mask, for masks 0, 1, 2, ... in order, 2**low_worlds masks per
    block.  The first block is built by doubling over the low worlds, one
    list comprehension per world; each later block adds the sum over its
    high worlds to the first, so a block is built only when it is reached."""
    block = [base]
    for rank in ranks[:low_worlds]:
        inc = step << rank * shift
        block += [key + inc for key in block]
    yield block
    offsets = [0]  # per block, the sum over its high worlds
    for j in range(1, 1 << (len(ranks) - low_worlds)):
        low = j & -j
        offsets.append(offsets[j ^ low]
                       + (step << ranks[low_worlds + low.bit_length() - 1] * shift))
        offset = offsets[j]
        yield [key + offset for key in block]


def _keyed_instances(
    arity: int, sig: Signature, states: Iterable[RankedState]
) -> Iterator[tuple[int, RankedState, int, int | None]]:
    """(orbit key, state, a, b) for every instance, states in order and
    inputs in mask order; a and b are input masks, b is None at arity 2.

    The key packs, level by level, how many worlds fall in each input
    class (in a or not; at arity 3 also in b or not) into n + 1 bits per
    count, under one leading sentinel bit.  Two instances share a key
    exactly when one permutation of the valuations maps one onto the other.
    A state's base key (every world in its level's first class) is read
    from its per-level counts in one pass over the key's bits.  A key is
    the base plus per-world field increments over the input's worlds, so
    each state keeps tables of partial sums indexed by input mask, built a
    block of masks at a time as the masks are reached (_key_blocks).
    """
    width = sig.n + 1  # bits per count: a count reaches 2**n
    shift = width << (arity - 1)  # bits per level: 2 or 4 counts
    # step << (rank * shift) moves one world of that level out of the first
    # class: into "in a" (class 1 at arity 2, class 2 at arity 3) or "in b"
    # (class 1); a world in both also takes ab_step, landing in class 3
    a_step = (1 << (shift >> 1)) - 1
    b_step = (1 << width) - 1
    ab_step = a_step * b_step
    inputs = range(1, sig.full_mask + 1)  # the non-empty input masks
    for s in states:
        ranks = s.ranks
        counts = [0] * s.num_levels
        for rank in ranks:
            counts[rank] += 1
        # the sentinel bit, then each level's field from the top level down,
        # its count in the first class
        base = int("1" + "".join(format(c, f"0{shift}b") for c in reversed(counts)), 2)
        # a block holds 2**low_worlds keys: 256, or fewer where that many
        # keys would pass _KEY_BLOCK_BITS
        fit = (_KEY_BLOCK_BITS // base.bit_length()).bit_length() - 1
        low_worlds = max(0, min(8, len(ranks), fit))
        keys_a = chain.from_iterable(_key_blocks(base, a_step, shift, ranks, low_worlds))
        next(keys_a)  # the empty input
        if arity == 2:
            for key, a in zip(keys_a, inputs):
                yield key, s, a, None
            continue
        blocks_b = _key_blocks(0, b_step, shift, ranks, low_worlds)
        blocks_ab = _key_blocks(0, ab_step, shift, ranks, low_worlds)
        by_b, by_ab = list(next(blocks_b)), list(next(blocks_ab))
        for key_a, a in zip(keys_a, inputs):
            for b in inputs:
                if b == len(by_b):
                    by_b += next(blocks_b)
                    by_ab += next(blocks_ab)
                yield key_a + by_b[b] + by_ab[a & b], s, a, b


def iter_instances(pid: str, sig: Signature, states: Iterable[RankedState]) -> Iterator[Instance]:
    """Deterministic instance stream: states in order, inputs in mask order."""
    keyed = _keyed_instances(_postulate(pid).arity, sig, states)
    return (_instance(s, a, b) for _, s, a, b in keyed)


def _instance(s: RankedState, a: int, b: int | None) -> Instance:
    return Instance(s, WorldSet(s.sig, a), None if b is None else WorldSet(s.sig, b))


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


# A row of a scan's table: its group's statuses by pid at some orbits, the
# number of instances with them, and the first of those, (state, a, b) on masks.
Row = tuple[dict[str, str], int, tuple[RankedState, int, int | None]]


def _scan_group(
    group: tuple[str, ...],
    states: Iterable[RankedState],
    pair: OperatorPair,
    sig: Signature,
    stop_at_first: bool,
) -> list[tuple[tuple[str, ...], int, tuple]]:
    """The table of a group of registry postulates of one arity, from one
    walk of their instances: each distinct row of the members' statuses, its
    tally and its first instance, in order of first occurrence.  With
    stop_at_first the walk ends at the first row where a member fails (a
    search is a group of one)."""
    transforms = _transforms(pair, sig)
    rules = [POSTULATES[pid].rule for pid in group]
    # each distinct row is interned with an index, and the memo and the tally
    # refer to rows by that index (a tuple does not cache its hash, so keying
    # the tally by the row itself would rehash it at every instance)
    rows: dict[tuple[str, ...], int] = {}
    memo: dict[int, int] = {}  # orbit key -> row index
    tally: list[int] = []  # row index -> instances
    firsts: list[tuple] = []  # row index -> its first instance
    stop = False
    state = run = None
    for key, s, a, b in _keyed_instances(POSTULATES[group[0]].arity, sig, states):
        i = memo.get(key)
        if i is None:
            # the members share one run, so the outcomes of each instance
            if s is not state:
                state = s
                run = _Run(sig, _level_masks(s), transforms)
            else:
                run.memo.clear()
            # a plain loop: before Python 3.12 a comprehension is a function
            # call, paid here once per orbit
            statuses = []
            for rule in rules:
                statuses.append(rule(run, a, b)[0])
            row = tuple(statuses)
            i = rows.setdefault(row, len(tally))
            if i == len(tally):
                tally.append(0)
                firsts.append((s, a, b))
                stop = stop_at_first and FAILS in row
            if len(memo) >= _ORBIT_MEMO_LIMIT:
                memo.clear()
            memo[key] = i
        tally[i] += 1
        if stop:
            break
    return list(zip(rows, tally, firsts))


def _check_picklable(pair: OperatorPair) -> None:
    # A task that fails to pickle inside the pool leaves the executor's
    # shutdown waiting forever (CPython 3.11), so a pooled scan checks first.
    for op in (pair.revision, pair.contraction):
        try:
            pickle.dumps(op)
        except Exception as err:
            raise ValueError(f"{op!r} cannot be pickled for a pool worker "
                             f"(jobs > 1 needs module-level functions): {err}") from err


def _scan(
    pids: Sequence[str],
    pair: OperatorPair,
    sig: Signature,
    stream: StateStream,
    stop_at_first: bool,
    jobs: int,
) -> dict[str, list[Row]]:
    """Scan registry postulates over one state stream; every search (a list
    of one), suite and harness runs through here.  The distinct postulates
    of one arity form a group, scanned by one walk.  jobs is capped at the
    CPU count; above 1 the scan runs on a process pool of its own, shut down
    before it returns.  Returns the table of each postulate's group, by pid;
    chunks follow stream order, so the first row where a claim fails holds
    its first failing instance."""
    arities = {pid: _postulate(pid).arity for pid in pids}
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not arities:
        return {}
    jobs = min(jobs, os.cpu_count() or 1)
    groups = [tuple(pid for pid in arities if arities[pid] == arity)
              for arity in dict.fromkeys(arities.values())]
    scan = partial(_scan_group, pair=pair, sig=sig, stop_at_first=stop_at_first)
    pool = None
    if jobs == 1:
        chunks, scan_map = [stream], map
    else:
        states = list(stream)
        size = max(1, (len(states) + jobs - 1) // jobs)
        chunks = [states[i:i + size] for i in range(0, len(states), size)]
        _check_picklable(pair)
        pool = ProcessPoolExecutor(max_workers=jobs)
        scan_map = pool.map
    try:
        # every group's chunks are queued before any result is read, so the
        # pool does not drain between groups
        outcomes = scan_map(scan, [group for group in groups for _ in chunks],
                            chunks * len(groups))
        table = {}
        for group in groups:
            rows = [(dict(zip(group, row)), tally, first)
                    for row, tally, first in chain.from_iterable(islice(outcomes, len(chunks)))]
            table.update(dict.fromkeys(group, rows))
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return table


def _fold(name: str, pair: OperatorPair, rows: Sequence[Row], status: Callable[[dict], str],
          verdict: Callable[[Instance], Verdict]) -> PostulateResult:
    """A claim's result from a scan's rows, given its status on a row's
    statuses: counts are sums of tallies, and the counterexample is the first
    instance of the first row where the claim fails, with verdict(instance)."""
    counts = dict.fromkeys((HOLDS, VACUOUS, FAILS), 0)
    first = None
    for statuses, tally, inst in rows:
        claimed = status(statuses)
        counts[claimed] += tally
        if first is None and claimed == FAILS:
            first = _instance(*inst)
    cex = None if first is None else Counterexample(
        name, pair.revision.name, pair.contraction.name, first, verdict(first))
    return PostulateResult(name, sum(counts.values()), counts[HOLDS], counts[VACUOUS],
                           counts[FAILS], cex)


def _member(pid: str, pair: OperatorPair, table: dict[str, list[Row]]) -> PostulateResult:
    """A scanned registry postulate's result, its counterexample checked."""
    return _fold(pid, pair, table[pid], itemgetter(pid), partial(check_instance, pid, pair))


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
    stream = _state_stream(sig, mode, samples, seed, allow_large)
    table = _scan([pid], ops, sig, stream, stop_at_first=True, jobs=jobs)
    return _member(pid, ops, table).counterexample


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
    stream = _state_stream(sig, mode, samples, seed, allow_large)
    table = _scan(pids, ops, sig, stream, stop_at_first=False, jobs=jobs)
    results = {pid: _member(pid, ops, table) for pid in table}
    return SuiteReport(
        ops.revision.name,
        ops.contraction.name,
        sig,
        mode,
        seed if mode == "sample" else None,
        samples if mode == "sample" else None,
        tuple(results[pid] for pid in pids),
    )
