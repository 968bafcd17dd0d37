"""Revision and contraction operators on ranked epistemic states.

All operators are total functions (RankedState, WorldSet) -> outcome and are
pure; results are memoized.  Every built-in revision is faithful: for a
non-empty input the output belief set is exactly the minimal input-worlds of
the prior state.  Revising by the empty WorldSet has no ranked-state
representation, so it yields the distinguished ABSURD marker, whose belief
set is the inconsistent theory (no models).

Every built-in operator is a guard plus one re-ranking of whole levels: it
reads the state's level masks (each rank's set of valuations, ordered by
rank), builds a list of new level masks from them with set operations on the
input and world sets derived from the input and the ranks alone, and the
non-empty masks in order become ranks 0, 1, ... (_from_levels).  No operator
looks at which valuation sits in a level, so every one of them commutes with
any permutation of the valuations applied to both state and input.

  natural   [min(a)] + [level - min(a) for each level]: the minimal
            input-worlds move to rank 0, the rest keep their relative
            preorder from rank 1.
  flatten   [min(a), min(!a), everything else]: empty tiers drop out.
  lex       [level & a for each level] + [level - a for each level]: all
            input-worlds below all complement-worlds, relative order
            preserved within each block.
  reverse   [level & a for each level] + [level - a for each level, top level
            first]: complement worlds go strictly above with their relative
            order reversed.  Faithful by construction, but engineered to break
            the minimal-countermodel stability conditions S1/S2.

  natural-con   believed, non-tautological input: natural's levels with the
                old belief set plus min(!a) as the low set.  Otherwise the
                state is returned unchanged (vacuity strengthened to state
                identity).
  drastic       withdrawal: a believed input leaves one level holding every
                valuation, which wipes the ordering flat (belief set becomes
                the theory of no information); otherwise the state is
                unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Union

from .logic import Signature, WorldSet
from .states import RankedState, _level_masks, belief_set, min_worlds, uniform_state

_CACHE_SIZE = 65536


class UnsupportedSequenceError(ValueError):
    """A belief-change sequence cannot be continued from the absurd state."""


class _Absurd:
    """Outcome of revising by an unsatisfiable input."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSURD"


ABSURD = _Absurd()

RevisionOutcome = Union[RankedState, _Absurd]


def outcome_belief_set(outcome: RevisionOutcome, sig: Signature) -> WorldSet:
    """Belief set of an outcome; the absurd state believes everything."""
    if outcome is ABSURD:
        return WorldSet.empty(sig)
    return belief_set(outcome)


def _from_levels(sig: Signature, levels: Iterable[int]) -> RankedState:
    """The state whose ranks list the non-empty level masks in order: each
    valuation gets the index of its mask among the non-empty ones."""
    ranks = [0] * sig.num_valuations
    rank = 0
    for mask in levels:
        if mask:
            while mask:
                low = mask & -mask
                ranks[low.bit_length() - 1] = rank
                mask ^= low
            rank += 1
    return RankedState(sig, ranks)


def _lowered(s: RankedState, low: int) -> RankedState:
    """The worlds of low at rank 0, the rest in their old order above."""
    # (~low).__and__ maps each level to level & ~low without a Python frame
    return _from_levels(s.sig, (low, *map((~low).__and__, _level_masks(s))))


@lru_cache(maxsize=_CACHE_SIZE)
def natural_revision(s: RankedState, a: WorldSet) -> RevisionOutcome:
    if not a:
        return ABSURD
    return _lowered(s, min_worlds(s, a).mask)


@lru_cache(maxsize=_CACHE_SIZE)
def flatten_revision(s: RankedState, a: WorldSet) -> RevisionOutcome:
    if not a:
        return ABSURD
    tier0 = min_worlds(s, a).mask
    tier1 = min_worlds(s, a.complement()).mask
    return _from_levels(s.sig, (tier0, tier1, s.sig.full_mask & ~tier0 & ~tier1))


@lru_cache(maxsize=_CACHE_SIZE)
def lexicographic_revision(s: RankedState, a: WorldSet) -> RevisionOutcome:
    if not a:
        return ABSURD
    levels = _level_masks(s)
    return _from_levels(s.sig, (*map(a.mask.__and__, levels),
                                *map((~a.mask).__and__, levels)))


@lru_cache(maxsize=_CACHE_SIZE)
def reverse_revision(s: RankedState, a: WorldSet) -> RevisionOutcome:
    if not a:
        return ABSURD
    levels = _level_masks(s)
    return _from_levels(s.sig, (*map(a.mask.__and__, levels),
                                *map((~a.mask).__and__, reversed(levels))))


@lru_cache(maxsize=_CACHE_SIZE)
def natural_contraction(s: RankedState, a: WorldSet) -> RankedState:
    current = belief_set(s)
    if not current.issubset(a) or a.mask == s.sig.full_mask:
        return s
    return _lowered(s, current.mask | min_worlds(s, a.complement()).mask)


@lru_cache(maxsize=_CACHE_SIZE)
def drastic_withdrawal(s: RankedState, a: WorldSet) -> RankedState:
    if not belief_set(s).issubset(a):
        return s
    return uniform_state(s.sig)


@dataclass(frozen=True)
class RevisionOperator:
    """A named revision function.  It must be world-neutral:
    fn(pi.s, pi.a) == pi.fn(s, a) for every permutation pi of the valuations,
    with ABSURD mapped to ABSURD.  Postulate scans rely on it to decide one
    instance per symmetry class; every built-in operator complies."""

    name: str
    fn: Callable[[RankedState, WorldSet], RevisionOutcome] = field(compare=False)

    def __call__(self, s: RankedState, a: WorldSet) -> RevisionOutcome:
        return self.fn(s, a)

    def __reduce__(self):
        # a registry operator pickles by name and unpickles as the registry's
        # own object (even a wrapper whose fn is a closure); any other
        # operator pickles by value, its fn by reference
        if REVISION_OPERATORS.get(self.name) is self:
            return get_revision, (self.name,)
        return type(self), (self.name, self.fn)


@dataclass(frozen=True)
class ContractionOperator:
    """A named contraction function, world-neutral in the same sense as
    RevisionOperator: fn(pi.s, pi.a) == pi.fn(s, a) for every permutation pi
    of the valuations."""

    name: str
    fn: Callable[[RankedState, WorldSet], RankedState] = field(compare=False)

    def __call__(self, s: RankedState, a: WorldSet) -> RankedState:
        return self.fn(s, a)

    def __reduce__(self):
        if CONTRACTION_OPERATORS.get(self.name) is self:
            return get_contraction, (self.name,)
        return type(self), (self.name, self.fn)


@dataclass(frozen=True)
class OperatorPair:
    revision: RevisionOperator
    contraction: ContractionOperator

    @property
    def name(self) -> str:
        return f"{self.revision.name}+{self.contraction.name}"


REVISION_OPERATORS: dict[str, RevisionOperator] = {
    "natural": RevisionOperator("natural", natural_revision),
    "flatten": RevisionOperator("flatten", flatten_revision),
    "lex": RevisionOperator("lex", lexicographic_revision),
    "reverse": RevisionOperator("reverse", reverse_revision),
}

CONTRACTION_OPERATORS: dict[str, ContractionOperator] = {
    "natural-con": ContractionOperator("natural-con", natural_contraction),
    "drastic": ContractionOperator("drastic", drastic_withdrawal),
}


def get_revision(name: str) -> RevisionOperator:
    try:
        return REVISION_OPERATORS[name]
    except KeyError:
        known = ", ".join(REVISION_OPERATORS)
        raise ValueError(f"unknown revision operator {name!r} (known: {known})") from None


def get_contraction(name: str) -> ContractionOperator:
    try:
        return CONTRACTION_OPERATORS[name]
    except KeyError:
        known = ", ".join(CONTRACTION_OPERATORS)
        raise ValueError(f"unknown contraction operator {name!r} (known: {known})") from None


def make_pair(revision: str = "natural", contraction: str = "natural-con") -> OperatorPair:
    return OperatorPair(get_revision(revision), get_contraction(contraction))


Step = tuple[str, WorldSet]  # ("revise" | "contract", input)


def apply_sequence(
    ops: OperatorPair, s: RankedState, steps: Iterable[Step]
) -> list[RevisionOutcome]:
    """Run a revise/contract sequence, returning the full trace.

    The trace includes the initial state.  Revising the absurd state by a
    satisfiable input restarts from the uniform state; contracting it, or
    revising it by the empty WorldSet again, is unsupported.
    """
    trace: list[RevisionOutcome] = [s]
    current: RevisionOutcome = s
    for kind, a in steps:
        if kind == "revise":
            if current is ABSURD:
                if not a:
                    raise UnsupportedSequenceError(
                        "cannot revise the absurd state by an unsatisfiable input"
                    )
                current = ops.revision(uniform_state(a.sig), a)
            else:
                current = ops.revision(current, a)
        elif kind == "contract":
            if current is ABSURD:
                raise UnsupportedSequenceError("cannot contract the absurd state")
            current = ops.contraction(current, a)
        else:
            raise ValueError(f"unknown step kind {kind!r}")
        trace.append(current)
    return trace
