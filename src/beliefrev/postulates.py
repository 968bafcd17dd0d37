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

Search and suite evaluation take states in enumeration order and input masks
in numeric order, so the first counterexample is reproducible.
Inputs range over the non-empty subsets of valuations (15 at n = 2), standing
for formula equivalence classes; the unsatisfiable input is exercised only by
dedicated PR6 instance checks.

Cut each level of an instance into cells by input class: in a or not at arity
2; in a and b, in a only, in b only, or in neither at arity 3.  Every set a
rule reads is a union of cells, and a rule tests sets only for emptiness (see
Postulate).  When both operators of the pair carry a transform, which is
set-algebraic (see operators), a verdict's status therefore depends only on
the instance's cell pattern: per level, which cells are non-empty.  An
operator without a transform is only world-neutral and may read cell sizes, so
for such a pair the status depends on the instance's orbit under permutations
of the valuations: per level, the number of worlds in each cell.  A key has
one field per input cell of each level, a bit set when the cell is non-empty
for a pattern key, or n + 1 bits holding the cell's number of worlds for an
orbit key.  A scan decides each pattern once, or each orbit once for a pair
without both transforms.  It splits its postulates into groups of one arity
and returns each group's table: each distinct row of the members' statuses,
interned once, in order of first occurrence, with its tally (the instances
that have it) and its first instance, on masks.

A table over every state (exhaustive, searches included) walks no instance.
_weighted_keys yields each key once with its first instance in the stream, in
closed form, that instance's position, and its weight, the number of
instances with the key: surj(2**n, k) = k!·S(2**n, k) for a pattern of k
non-empty cells, the multinomial 2**n! / prod(c!) for an orbit of cell counts
c.  Every member decides each key once at that instance, the weight goes to
that row's tally, and the row's first instance is at its least position.  At n = 2 a
full suite stands for 162,000 instances in two streams (1,125 arity-2 and
16,875 arity-3 instances).  For a registry pair it makes 6,360 decisions: 44
patterns per arity-2 postulate and 663 per arity-3 one.  Keyed by orbit it
makes 8,776: 74 and 875.  At n = 3 an arity-2 row decides 1,672 patterns
(11,016 orbits) for 139,187,925 instances, an arity-3 row 586,604 patterns.
A search decides every key of its table, so one whose first failure comes
early still pays for the whole table.

A scan of sampled states walks the stream.  One mask walk (_walk) keys every
instance: it gives the single-input key of each mask of a state in mask
order, a block of masks at a time and only as far as the walk reaches, and a
two-input key is the single-input key of b over the state's levels split by
a (_keyed_instances), so a walk holds no table that grows with the masks it
has reached.  At the first
instance of a key it calls every member's rule for its status alone; the
members share one run of operator outcomes per instance (_Run), so a chain
that several rows take, such as revise-then-contract, is computed once.
Later instances are counted from a memo mapping the key to its row; the memo
holds at most _MEMO_LIMIT keys and is cleared when full.  A search of sampled
states is a group of one that stops at its first failing row.  A walk keys
only the first state of each shape, its level sizes in rank order: two states
of one shape differ by a permutation of the valuations that keeps every
level, so their instances have the same keys as often each.  A later state
of a shape is replayed (_replayed).

_fold reads a claim from the table by its status on a row: its counts are
sums of tallies, and its first failing instance is the first instance of the
first row where it fails.  A registry member's status is its entry in the
row; a harness claim relating postulates is a function of their entries.
Only a reported counterexample becomes an Instance and gets a Verdict (a
member's through check_instance), so counts, counterexamples and traces are
those of checking every instance.

A scan of sampled states walks its stream in process, once per group,
whatever jobs is, so its memory and its first counterexample do not depend
on jobs.  jobs sizes only the pool of a table over every state, which has one
task (_decide_keys) per subtree of the keys, by the non-empty cells of the top
level (3 at arity 2, 15 at arity 3), so every key is decided exactly once for
any jobs; the calling process merges the subtrees' rows (_merged).  At jobs = 1
the tasks run under the builtin map; with jobs > 1 on a process pool of at
most one worker per task.  jobs is a ceiling: a table that makes fewer than
_POOL_MIN_KEYS decisions in all (each group's keys, counted in closed form by
_key_count, times its members) runs its tasks under map, since starting the
pool would cost more than it saves.  The tasks and their merge are the same
either way.  The pool machinery (concurrent.futures, multiprocessing, pickle)
is imported only when a scan starts a pool or checks its operators for one,
so a command that starts none never loads it.  Pool tasks carry postulates by
pid and the operator pair by value (registry operators by name), so any other
operator needs a module-level function; a scan at jobs > 1 refuses one that
does not pickle with a ValueError, in either mode and whether or not it starts
the pool.  A command makes at most one scan (a harness reads all its claims
from one table), so it has at most one pool: the scan starts it and shuts it
down before it returns, cancelling what is still queued if a worker raised.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, islice, product, repeat, zip_longest
from math import comb, factorial
from operator import add, itemgetter, or_
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

# Entries of a sampled scan's memo before it is cleared (_scan_group).  Every
# key at n = 2 fits (663 arity-3 patterns, 875 arity-3 orbits), and so does
# every arity-2 key at n = 3 (1,672 patterns, 11,016 orbits).
_MEMO_LIMIT = 1 << 14

# Decisions a table over every state must make in all (each group's
# _key_count times its members) for its scan to start a pool at jobs > 1;
# below it the tasks run in the calling process.  Measured in fresh
# interpreters on a 2-core host: the pool's first start in a command imports
# concurrent.futures and multiprocessing (about 23 ms), and a 2-worker pool
# then costs about 9 ms to start, map 3 no-op tasks and shut down; a decision
# costs 2-2.4 us in process (the n = 3 arity-2 rows on the natural pair,
# decided as one group), half that at 2 workers.  So the pool pays from about
# 2 * 32 ms / 2.2 us = 29,000 decisions.  Cold run_suite calls on that group
# agree: 14 rows (23,408 decisions) took 71 ms in process and 75 ms on the
# pool, 20 rows (33,440) 84 and 74 ms, 24 rows (40,128) 92 and 75 ms; keyed
# by orbit, 3 rows (33,048) took 59 and 76 ms.  So every table at n = 2 (at
# most 8,776 decisions, the full suite by orbit) and one n = 3 arity-2 row
# (1,672 patterns or 11,016 orbits) runs in process, and the 24 n = 3 arity-2
# rows and every n = 3 arity-3 table keep the pool.
_POOL_MIN_KEYS = 1 << 15

# Bits of one block of a state's key table, 128 KiB, for pattern and orbit keys
# alike: a block holds 256 masks, or fewer where keys are wide.  A sampled
# n = 16 state's arity-2 pattern key is about 80 kilobits wide and its orbit key
# over a megabit, so a block holds 8 masks or one.
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
    Verdict.  Scans call the rule at each new cell pattern (or orbit, see
    the module docstring) and check only where a verdict is reported.  Scans
    take registry rows only; a harness claim is a status function over their
    rows (_fold).

    A rule must read the level masks and the input masks only through set
    operations, emptiness tests and _first_hit, never through a set's size.
    Its status is then a function of the instance's cell pattern whenever
    the pair's transforms are set-algebraic, so scans decide one instance
    per pattern and count the rest of the pattern from it.  With an operator
    that has no transform the status is still world-neutral: one permutation
    of the valuations applied to the state and the inputs does not change
    it, and scans decide one instance per orbit.  Every registry row
    complies.
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


def _split_cells(ranks: Sequence[int], width: int, join: Callable) -> list[int]:
    """For each mask over the worlds of ranks, in mask order, the join over
    those worlds of 1 << (rank * 2 + 1) * width (its level's field for the
    cell "in a") for a world in the mask and 1 << rank * 2 * width (the field
    for "not a") for one outside it.  Built by doubling over the worlds."""
    table = [0]
    for rank in ranks:
        outside = 1 << rank * 2 * width
        inside = outside << width
        table = [join(q, outside) for q in table] + [join(q, inside) for q in table]
    return table


def _high_cells(ranks: Sequence[int], step: int, low_worlds: int,
                value: Callable) -> Iterator[tuple[int, int]]:
    """Per block of 2**low_worlds masks, in mask order: the fields of the
    high worlds inside the block's high part and of the high worlds outside
    it, each level's field at bit rank * step holding value(count) of those
    worlds.  Both follow per-level counts, updated by the high worlds that
    change from one block to the next, so a block costs its changes, not its
    levels."""
    high = ranks[low_worlds:]
    if not high:
        yield 0, 0
        return
    total = [0] * (max(ranks) + 1)  # per level, its high worlds
    for rank in high:
        total[rank] += 1
    # one string, not a sum of per-level ints, so that this is linear in
    # the key's width
    hi_out = int("".join(format(value(c), f"0{step}b") for c in reversed(total)), 2)
    yield 0, hi_out
    inside = [0] * len(total)  # per level, its high worlds inside the high part
    hi_in = 0
    for j in range(1, 1 << len(high)):
        t = (j & -j).bit_length() - 1
        # the high worlds below t leave the high part, and world t enters it
        for rank, by in [(r, -1) for r in high[:t]] + [(high[t], 1)]:
            was, outside = inside[rank], total[rank] - inside[rank]
            inside[rank] = was + by
            hi_in += (value(was + by) - value(was)) << rank * step
            hi_out += (value(outside - by) - value(outside)) << rank * step
        yield hi_in, hi_out


def _walk(ranks: Sequence[int], width: int, join: Callable, value: Callable) -> Iterator[int]:
    """The single-input key of every non-empty mask over the worlds of
    ranks, in mask order: fields 1 and 0 of each level, width bits each, for
    its worlds in the mask and outside it.

    A block of 2**low_worlds masks (256, or fewer where keys are wide) joins
    a table over its low worlds with the fields of its high worlds
    (_high_cells), so a block is built only when the walk reaches it.  The
    low table is itself the join of two halves' tables, read in nested loops.
    join is add for orbit keys and or_ for pattern keys, value int and bool."""
    step = 2 * width  # bits per level
    fit = (_KEY_BLOCK_BITS // (step * (max(ranks) + 1))).bit_length() - 1
    low_worlds = max(0, min(8, len(ranks), fit))
    half = low_worlds >> 1
    lo = _split_cells(ranks[:half], width, join)
    mid = _split_cells(ranks[half:low_worlds], width, join)
    row = lo[1:]  # the empty mask is skipped
    for hi_in, hi_out in _high_cells(ranks, step, low_worlds, value):
        block = hi_in << width | hi_out
        for m in mid:
            m = join(m, block)
            # the halves share each level's fields, so an orbit key sums
            # them where a pattern key ORs them
            if join is add:
                for q in row:
                    yield m + q
            else:
                for q in row:
                    yield m | q
            row = lo


def _keyed_instances(
    arity: int, sig: Signature, states: Iterable[RankedState], counted: bool
) -> Iterator[tuple[int, RankedState, int, int | None]]:
    """(key, state, a, b) for every instance, states in order and inputs in
    mask order; a and b are input masks, b is None at arity 2.

    The key has one field per input cell of each level: fields 1 and 0 of
    the level for a and not a at arity 2; fields 3 to 0 for a and b, a but
    not b, b but not a, and neither at arity 3.  counted chooses what a
    field holds.  A pattern key (counted false) has 1-bit fields, set when
    the cell is non-empty, so two instances share it exactly when they
    have the same cell pattern.  An orbit key (counted true) has (n + 1)-bit
    fields holding the cell's number of worlds (up to 2**n), so two
    instances share it exactly when one permutation of the valuations maps
    one onto the other.  No level is empty, so either key also fixes the
    number of levels.

    One walk (_walk) gives the single-input keys of a state's masks.  A
    two-input key is the single-input key of b over the levels split by a:
    a world of level r goes to level 2r + 1 if it is in a, else to level 2r,
    so that level 2r + 1's fields for b and not b are r's fields 3 and 2,
    and level 2r's are r's fields 1 and 0.
    """
    width, join, value = (sig.n + 1, add, int) if counted else (1, or_, bool)
    inputs = range(1, sig.full_mask + 1)
    if arity == 2:
        return chain.from_iterable(
            zip(_walk(s.ranks, width, join, value), repeat(s), inputs, repeat(None))
            for s in states)
    return chain.from_iterable(
        zip(_walk([r << 1 | a >> w & 1 for w, r in enumerate(s.ranks)], width, join, value),
            repeat(s), repeat(a), inputs)
        for s in states for a in inputs)


def _surjections(worlds: int, k: int) -> int:
    """The maps of worlds onto k labelled cells, k!·S(worlds, k), by
    inclusion-exclusion."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** worlds for j in range(k + 1))


# The fields inside a and inside b of a level's cells, by arity
_INPUT_FIELDS = {2: (0b10, 0), 3: (0b1100, 0b1010)}


@lru_cache(maxsize=None)
def _level_choices(arity: int, sig: Signature, counted: bool) -> tuple[tuple[int, ...], ...]:
    """The choices for one level of a key (_weighted_keys), fewest worlds
    first: (its worlds, its field, its non-empty cells, its masks of a and
    of b from the level's first world, whether its last non-empty cell is in
    a and in b, prod(c!) over its cells).  The cells are laid out from the
    level's first world in the order a and b, a only, b only, neither (fields
    3 to 0; a, then not a, at arity 2), so a and then b take the level's
    lowest worlds."""
    cells = 1 << (arity - 1)
    width = sig.n + 1 if counted else 1
    total = sig.num_valuations
    in_a, in_b = _INPUT_FIELDS[arity]
    choices = []
    for counts in product(range((total if counted else 1) + 1), repeat=cells):
        size, field, used, mask_a, mask_b, denom = 0, 0, 0, 0, 0, 1
        for j, c in reversed(list(enumerate(counts))):
            if c:
                cell = ((1 << c) - 1) << size
                if in_a >> j & 1:
                    mask_a |= cell
                if in_b >> j & 1:
                    mask_b |= cell
                last, used, denom = j, used | 1 << j, denom * factorial(c)
            size += c
            field |= c << j * width
        if 0 < size <= total:
            choices.append((size, field, used, mask_a, mask_b, in_a >> last & 1,
                            in_b >> last & 1, denom))
    choices.sort(key=itemgetter(0))
    return tuple(choices)


def _weighted_keys(
    arity: int, sig: Signature, counted: bool, top: int | None = None
) -> Iterator[tuple[int, tuple[tuple[int, ...], int, int | None], int, int]]:
    """Each key that _keyed_instances gives over enumerate_states(sig),
    once, as (key, (levels, a, b), position, weight): the key's first
    instance in the stream, as level masks and input masks, its position
    there, and the number of instances with the key.

    A key is a sequence of levels, each a non-empty choice of cells
    (_level_choices): which cells are non-empty for a pattern, each cell's
    number of worlds for an orbit (the numbers summing to 2**n).  An
    instance with the key maps the worlds onto its non-empty cells, every
    cell getting one: a pattern with k non-empty cells has surj(2**n, k) =
    k!·S(2**n, k) instances, an orbit with cell counts c the multinomial
    2**n! / prod(c!).  The cells inside a (and, at arity 3, inside b) must
    not all be empty.  With top, only the keys whose top level has exactly
    the non-empty cells top: these subtrees (3 at arity 2, 15 at arity 3)
    partition the keys.

    The stream orders instances by level count, then rank vector, then a,
    then b.  Of the states with level sizes c0, c1, ... the first is 0^c0
    1^c1 ..., and the larger c0, then c1, ..., the earlier.  So the levels
    are chosen from the top down, each a block of worlds below the levels
    above it, a pattern's with one world per non-empty cell, until level 0
    takes the worlds left, its last non-empty cell the spare ones; in each
    block a and b take the lowest worlds they can (_level_choices).  The
    position packs (levels - 1, each level start w > 0 as bit 2**n - 1 - w,
    a, b) into one int, which orders as the stream does."""
    step = (1 << (arity - 1)) * (sig.n + 1 if counted else 1)
    total = sig.num_valuations
    inputs = (arity - 1) * total  # the bits of a and b in a position
    in_a, in_b = _INPUT_FIELDS[arity]
    fact = [factorial(c) for c in range(total + 1)]
    surj = [_surjections(total, k) for k in range(total + 1)]
    choices = _level_choices(arity, sig, counted)

    def extend(depth, key, used, above, masks, a, b, denom, starts):
        low = (1 << total - above) - 1  # the worlds below the levels above
        head = (depth << total | starts) << inputs
        for size, field, cells_used, mask_a, mask_b, last_a, last_b, level_denom in choices:
            end = above + size
            if end > total:
                break
            if depth == 0 and top is not None and cells_used != top:
                continue
            k, u, d = key << step | field, used | cells_used, denom * level_denom
            if u & in_a and (arity == 2 or u & in_b) and (end == total or not counted):
                # the choice as level 0, on every world left
                spare = low >> size << size
                xa, xb = a | mask_a | spare * last_a, b | mask_b | spare * last_b
                yield (k, ((low,) + masks, xa, xb if arity == 3 else None),
                       head | xa << inputs - total | xb, fact[total] // d if counted else surj[end])
            if end < total:
                # the choice as a level above level 0, with level 0 still to come
                world = total - end
                yield from extend(depth + 1, k, u, end, (((1 << size) - 1) << world,) + masks,
                                  a | mask_a << world, b | mask_b << world, d,
                                  starts | 1 << end - 1)

    return extend(0, 0, 0, 0, (), 0, 0, 1, 0)


def _first_instance(arity: int, sig: Signature,
                    position: int) -> tuple[RankedState, int, int | None]:
    """The instance at a position _weighted_keys gives, as (state, a, b) on
    masks."""
    total = sig.num_valuations
    starts, *inputs = [position >> j * total & sig.full_mask for j in reversed(range(arity))]
    # world v starts a level where bit 2**n - 1 - v is set
    ranks = accumulate(map(int, format(starts, f"0{total}b")))
    return RankedState(sig, ranks), inputs[0], inputs[1] if arity == 3 else None


@lru_cache(maxsize=None)
def _key_count(arity: int, sig: Signature, counted: bool) -> int:
    """The number of keys _weighted_keys yields, without walking them: its
    walk's paths counted by (worlds used, cells used so far), over the same
    choices per level.  Each count at n <= 3 takes at most about 10 ms,
    where walking the 1,586,754 arity-3 orbits at n = 3 takes over a second."""
    total = sig.num_valuations
    in_a, in_b = _INPUT_FIELDS[arity]
    paths: list[dict[int, int]] = [{} for _ in range(total)]  # by worlds used: cells used -> paths
    paths[0][0] = 1
    keys = 0
    for world, ends in enumerate(paths):
        for used, count in ends.items():
            for size, _, cells_used, *_ in _level_choices(arity, sig, counted):
                end = world + size
                if end > total:
                    break
                u = used | cells_used
                if u & in_a and (arity == 2 or u & in_b) and (end == total or not counted):
                    keys += count
                if end < total:
                    paths[end][u] = paths[end].get(u, 0) + count
    return keys


def iter_instances(pid: str, sig: Signature, states: Iterable[RankedState]) -> Iterator[Instance]:
    """Deterministic instance stream: states in order, inputs in mask order."""
    inputs = range(1, sig.full_mask + 1)
    seconds = (None,) if _postulate(pid).arity == 2 else inputs
    return (_instance(s, a, b) for s in states for a in inputs for b in seconds)


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


# A row of a scan's table: its group's statuses by pid at some keys, the
# number of instances with them, and the first of those, (state, a, b) on masks.
Row = tuple[dict[str, str], int, tuple[RankedState, int, int | None]]


def _counted(pair: OperatorPair) -> bool:
    """Whether scans of pair key by orbit.  A status reads only which cells
    are empty when both transforms are set-algebraic; an operator without
    one may read cell sizes, so its pair keys by the cells' counts."""
    return pair.revision.transform is None or pair.contraction.transform is None


def _decider(group: tuple[str, ...], pair: OperatorPair,
             sig: Signature) -> Callable[[RankedState, int, int | None], tuple[str, ...]]:
    """decide(s, a, b): the members' statuses at an instance, as a row.  The
    members share one run, so the outcomes of the instance; instances of one
    state in a row share its level masks."""
    transforms = _transforms(pair, sig)
    rules = [POSTULATES[pid].rule for pid in group]
    state = run = None

    def decide(s, a, b):
        nonlocal state, run
        if s is not state:
            state = s
            run = _Run(sig, _level_masks(s), transforms)
        else:
            run.memo.clear()
        # a plain loop: before Python 3.12 a comprehension is a function
        # call, paid here once per key
        statuses = []
        for rule in rules:
            statuses.append(rule(run, a, b)[0])
        return tuple(statuses)

    return decide


def _shape(s: RankedState) -> tuple[int, ...]:
    """s's level sizes c0, c1, ... in rank order, as c0 zeros, c1 ones, ..."""
    return tuple(sorted(s.ranks))


def _replayed(states: Iterable[RankedState], tally: list[int]) -> Iterator[RankedState]:
    """The states of a shape (_shape) not met before, for a walk that adds
    each instance to tally by its row's index.  A later state of a shape
    adds to tally what the walk of the shape's first state added.  The map
    is cleared when its shapes hold 8 * _MEMO_LIMIT ranks: every shape at
    n = 3 fits, and two at n = 16."""
    seen: dict[tuple[int, ...], list[int]] = {}  # shape -> its tally by row index
    for s in states:
        shape = _shape(s)
        counts = seen.get(shape)
        if counts is None:
            if len(seen) * len(shape) >= _MEMO_LIMIT << 3:
                seen.clear()
            before = tally.copy()
            yield s  # resumed once the walk has counted every instance of s
            seen[shape] = [n - m for n, m in zip_longest(tally, before, fillvalue=0)]
        else:
            tally[:len(counts)] = map(add, tally, counts)


def _scan_group(
    group: tuple[str, ...],
    states: Iterable[RankedState],
    pair: OperatorPair,
    sig: Signature,
    stop_at_first: bool,
) -> list[tuple[tuple[str, ...], int, tuple]]:
    """The table of a group of registry postulates of one arity over sampled
    states, from one walk of their instances in the calling process: each
    distinct row of the members' statuses, its tally and its first instance,
    in order of first occurrence.  The walk reads the states as the stream
    yields them, keys the first state of each shape and replays the others
    (_replayed), so it holds one memo and one shape map for the whole stream.
    With stop_at_first it ends at the first row where a member fails (a
    search is a group of one)."""
    decide = _decider(group, pair, sig)
    # each distinct row is interned with an index, and the memo and the tally
    # refer to rows by that index (a tuple does not cache its hash, so keying
    # the tally by the row itself would rehash it at every instance)
    rows: dict[tuple[str, ...], int] = {}
    memo: dict[int, int] = {}  # pattern or orbit key -> row index
    tally: list[int] = []  # row index -> instances
    firsts: list[tuple] = []  # row index -> its first instance
    stop = False
    for key, s, a, b in _keyed_instances(POSTULATES[group[0]].arity, sig,
                                         _replayed(states, tally), _counted(pair)):
        i = memo.get(key)
        if i is None:
            row = decide(s, a, b)
            i = rows.setdefault(row, len(tally))
            if i == len(tally):
                tally.append(0)
                firsts.append((s, a, b))
                stop = stop_at_first and FAILS in row
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = i
        tally[i] += 1
        if stop:
            break
    return list(zip(rows, tally, firsts))


# The rows of a group over the keys of one subtree (_decide_keys): the
# distinct rows, their summed weights and their least positions.
Decided = tuple[list[tuple[str, ...]], list[int], list[int]]


def _decide_keys(group: tuple[str, ...], top: int, pair: OperatorPair,
                 sig: Signature) -> Decided:
    """Each key of the group's exhaustive stream over sig whose top level
    has the non-empty cells top, decided once at its first instance
    (_weighted_keys), its weight added to its row's tally and its position
    kept where it is the row's least."""
    transforms = _transforms(pair, sig)
    rules = [POSTULATES[pid].rule for pid in group]
    rows: dict[tuple[str, ...], int] = {}
    tally: list[int] = []
    least: list[int] = []
    for _, (levels, a, b), position, weight in _weighted_keys(
            POSTULATES[group[0]].arity, sig, _counted(pair), top):
        run = _Run(sig, levels, transforms)
        statuses = []
        for rule in rules:
            statuses.append(rule(run, a, b)[0])
        i = rows.setdefault(tuple(statuses), len(tally))
        if i == len(tally):
            tally.append(weight)
            least.append(position)
        else:
            tally[i] += weight
            if position < least[i]:
                least[i] = position
    return list(rows), tally, least


def _merged(arity: int, sig: Signature,
            decided: Iterable[Decided]) -> list[tuple[tuple[str, ...], int, tuple]]:
    """The table of a group over the exhaustive stream, from its subtrees'
    decided rows: each row's tally is the sum of its weights and its first
    instance is at its least position (_first_instance).  The rows are
    sorted by that position, so they keep their order of first occurrence."""
    rows: dict[tuple[str, ...], list[int]] = {}  # row -> [tally, least position]
    for subtree_rows, tallies, positions in decided:
        for row, tally, position in zip(subtree_rows, tallies, positions):
            entry = rows.setdefault(row, [0, position])
            entry[0] += tally
            entry[1] = min(entry[1], position)
    ordered = sorted(rows.items(), key=lambda item: item[1][1])
    return [(row, tally, _first_instance(arity, sig, position))
            for row, (tally, position) in ordered]


class _PoolClass:
    """concurrent.futures.ProcessPoolExecutor, imported when a pool is built
    or a class is derived from it (PEP 560), so a command that starts no pool
    never loads concurrent.futures or multiprocessing.  _scan builds its pool
    through the module global ProcessPoolExecutor, which tests and the
    benchmark's tracer replace."""

    @staticmethod
    def _load() -> type:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor

    def __call__(self, *args, **kwargs):
        return self._load()(*args, **kwargs)

    def __mro_entries__(self, bases):
        return (self._load(),)


ProcessPoolExecutor = _PoolClass()


def _check_picklable(pair: OperatorPair) -> None:
    # A task that fails to pickle inside the pool leaves the executor's
    # shutdown waiting forever (CPython 3.11), so a pooled scan checks first.
    import pickle

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
    of one arity form a group.  An exhaustive stream's groups are decided
    from their weighted keys (_decide_keys, _merged) and the stream is never
    iterated; a sampled stream's are walked in process, one walk of the
    stream per group (_scan_group), and only there does stop_at_first end a
    walk at the first failing row.  jobs, capped at the CPU count, sizes
    only the pool of a table over every state.  Returns the table of each
    postulate's group, by pid; its rows follow stream order, so the first
    row where a claim fails holds its first failing instance."""
    arities = {pid: _postulate(pid).arity for pid in pids}
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not arities:
        return {}
    jobs = min(jobs, os.cpu_count() or 1)
    groups = [tuple(pid for pid in arities if arities[pid] == arity)
              for arity in dict.fromkeys(arities.values())]
    if jobs > 1:
        # whatever the mode and the table's size, so that an argv's exit code
        # does not depend on them
        _check_picklable(pair)
    if getattr(stream, "mode", None) != "exhaustive":
        found = [_scan_group(group, stream, pair, sig, stop_at_first) for group in groups]
    else:
        # the subtrees of the keys, by the non-empty cells of the top level
        parts = [range(1, 1 << (1 << (arities[group[0]] - 1))) for group in groups]
        # a pool pays for enough decisions: each group's keys times its members
        pays = jobs > 1 and sum(_key_count(arities[group[0]], sig, _counted(pair)) * len(group)
                                for group in groups) >= _POOL_MIN_KEYS
        workers = min(jobs, sum(map(len, parts))) if pays else 1  # one per task at most
        pool = None if workers < 2 else ProcessPoolExecutor(max_workers=workers)
        try:
            # every group's tasks are queued before any result is read, so the
            # pool does not drain between groups
            outcomes = (map if pool is None else pool.map)(
                partial(_decide_keys, pair=pair, sig=sig),
                [group for group, part in zip(groups, parts) for _ in part],
                [top for part in parts for top in part])
            found = [_merged(arities[group[0]], sig, islice(outcomes, len(part)))
                     for group, part in zip(groups, parts)]
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
    table = {}
    for group, rows in zip(groups, found):
        rows = [(dict(zip(group, row)), tally, first) for row, tally, first in rows]
        table.update(dict.fromkeys(group, rows))
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
