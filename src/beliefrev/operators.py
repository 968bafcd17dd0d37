"""Revision and contraction operators on ranked epistemic states.

All operators are total functions (RankedState, WorldSet) -> outcome and are
pure; results are memoized.  Every built-in revision is faithful: for a
non-empty input the output belief set is exactly the minimal input-worlds of
the prior state.  Revising by the empty WorldSet has no ranked-state
representation, so it yields the distinguished ABSURD marker, whose belief
set is the inconsistent theory (no models).

Every built-in operator is one level transform, a function on ints
(levels, a, full) -> levels, or None for ABSURD.  levels lists a state's level
masks (each rank's set of valuations, lowest rank first, none empty), a is the
input mask and full the mask of every valuation.  A transform guards on the
input and the belief set, then re-ranks whole levels: it builds new level
masks from the old ones with set operations on the input and on world sets
derived from the input and the levels alone, and keeps the non-empty ones in
order.  A built-in operator carries its transform (its transform field), and
its RankedState function is _from_levels of the transform applied to
_level_masks, memoized by (state, input).

A transform must be set-algebraic: it uses set operations on the levels, the
input and full, and tests sets only for emptiness (as _first_hit does).  It
never reads a set's size, a popcount, or which valuation sits in a level.
Then the non-empty cells of the outcome's levels, cut by the input classes,
follow from the non-empty cells of the old levels, so postulate scans decide
one instance per cell pattern (see postulates).  Every built-in transform is
set-algebraic.

An operator without a transform (a library function, or a wrapper around a
built-in) reaches the same interface through level_transform's adapter: it
rebuilds the state and the input, calls fn and reads the outcome's levels.
Its fn keeps the weaker world-neutral contract: it commutes with every
permutation of the valuations applied to both state and input.  It may read
set sizes, so scans of a pair with such an operator decide one instance per
orbit.

One engine runs every revise/contract sequence: _Run applies each step's
transform to level masks and holds the rules for continuing from the absurd
state.  Scans, verdict traces and apply_sequence all read their outcomes from
it.

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
from typing import Callable, Iterable, Optional, Union

from .logic import Signature, SignatureMismatchError, WorldSet
from .states import RankedState, _first_hit, _level_masks, belief_set

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

Levels = tuple[int, ...]
LevelTransform = Callable[[Levels, int, int], Optional[Levels]]


def outcome_belief_set(outcome: RevisionOutcome, sig: Signature) -> WorldSet:
    """Belief set of an outcome; the absurd state believes everything."""
    if outcome is ABSURD:
        return WorldSet.empty(sig)
    return belief_set(outcome)


def _from_levels(sig: Signature, levels: Iterable[int]) -> RankedState:
    """The state whose ranks list the level masks in order: each valuation
    gets the index of its mask."""
    ranks = [0] * sig.num_valuations
    for rank, mask in enumerate(levels):
        while mask:
            low = mask & -mask
            ranks[low.bit_length() - 1] = rank
            mask ^= low
    return RankedState(sig, ranks)


# --- level transforms -----------------------------------------------------------
# Plain loops: on a few small masks they beat map and filter over int.__and__.


def _lowered(levels: Levels, low: int) -> Levels:
    """The worlds of low at rank 0, the rest in their old order above."""
    out = [low]
    for level in levels:
        level &= ~low
        if level:
            out.append(level)
    return tuple(out)


def _split(levels: Levels, a: int) -> tuple[list[int], list[int]]:
    """The non-empty parts of the levels inside a and outside a, in order."""
    inside, outside = [], []
    for level in levels:
        if level & a:
            inside.append(level & a)
        if level & ~a:
            outside.append(level & ~a)
    return inside, outside


def _natural(levels: Levels, a: int, full: int) -> Levels | None:
    if not a:
        return None
    return _lowered(levels, _first_hit(levels, a))


def _flatten(levels: Levels, a: int, full: int) -> Levels | None:
    if not a:
        return None
    tier0 = _first_hit(levels, a)
    tier1 = _first_hit(levels, full & ~a)
    return tuple(filter(None, (tier0, tier1, full & ~tier0 & ~tier1)))


def _lex(levels: Levels, a: int, full: int) -> Levels | None:
    if not a:
        return None
    inside, outside = _split(levels, a)
    return (*inside, *outside)


def _reverse(levels: Levels, a: int, full: int) -> Levels | None:
    if not a:
        return None
    inside, outside = _split(levels, a)
    return (*inside, *reversed(outside))


def _natural_con(levels: Levels, a: int, full: int) -> Levels:
    base = levels[0]
    if base & ~a or a == full:
        return levels
    return _lowered(levels, base | _first_hit(levels, full & ~a))


def _drastic(levels: Levels, a: int, full: int) -> Levels:
    return levels if levels[0] & ~a else (full,)


def _apply(transform: LevelTransform, s: RankedState, a: WorldSet) -> RevisionOutcome:
    """A transform as a function of states: the same state when it keeps the
    levels, else the state of the levels it returns."""
    if a.sig is not s.sig and a.sig != s.sig:
        raise SignatureMismatchError(f"signature mismatch: {s.sig.atoms} vs {a.sig.atoms}")
    levels = _level_masks(s)
    out = transform(levels, a.mask, s.sig.full_mask)
    if out is None:
        return ABSURD
    return s if out is levels else _from_levels(s.sig, out)


@lru_cache(maxsize=_CACHE_SIZE)
def natural_revision(s: RankedState, a: WorldSet) -> RevisionOutcome:
    return _apply(_natural, s, a)


@lru_cache(maxsize=_CACHE_SIZE)
def flatten_revision(s: RankedState, a: WorldSet) -> RevisionOutcome:
    return _apply(_flatten, s, a)


@lru_cache(maxsize=_CACHE_SIZE)
def lexicographic_revision(s: RankedState, a: WorldSet) -> RevisionOutcome:
    return _apply(_lex, s, a)


@lru_cache(maxsize=_CACHE_SIZE)
def reverse_revision(s: RankedState, a: WorldSet) -> RevisionOutcome:
    return _apply(_reverse, s, a)


@lru_cache(maxsize=_CACHE_SIZE)
def natural_contraction(s: RankedState, a: WorldSet) -> RankedState:
    return _apply(_natural_con, s, a)


@lru_cache(maxsize=_CACHE_SIZE)
def drastic_withdrawal(s: RankedState, a: WorldSet) -> RankedState:
    return _apply(_drastic, s, a)


@dataclass(frozen=True)
class RevisionOperator:
    """A named revision function.  It must be world-neutral:
    fn(pi.s, pi.a) == pi.fn(s, a) for every permutation pi of the valuations,
    with ABSURD mapped to ABSURD.  Postulate scans rely on it to decide one
    instance per orbit.  A transform, when set, must be set-algebraic (see
    the module docstring); scans then decide one instance per cell pattern.
    Every built-in operator complies with both."""

    name: str
    fn: Callable[[RankedState, WorldSet], RevisionOutcome] = field(compare=False)
    transform: LevelTransform | None = field(default=None, compare=False)

    def __call__(self, s: RankedState, a: WorldSet) -> RevisionOutcome:
        return self.fn(s, a)

    def __reduce__(self):
        # a registry operator pickles by name and unpickles as the registry's
        # own object (even a wrapper whose fn is a closure); any other
        # operator pickles by value, its functions by reference
        if REVISION_OPERATORS.get(self.name) is self:
            return get_revision, (self.name,)
        return type(self), (self.name, self.fn, self.transform)


@dataclass(frozen=True)
class ContractionOperator:
    """A named contraction function, world-neutral in the same sense as
    RevisionOperator: fn(pi.s, pi.a) == pi.fn(s, a) for every permutation pi
    of the valuations.  A transform, when set, must be set-algebraic."""

    name: str
    fn: Callable[[RankedState, WorldSet], RankedState] = field(compare=False)
    transform: LevelTransform | None = field(default=None, compare=False)

    def __call__(self, s: RankedState, a: WorldSet) -> RankedState:
        return self.fn(s, a)

    def __reduce__(self):
        if CONTRACTION_OPERATORS.get(self.name) is self:
            return get_contraction, (self.name,)
        return type(self), (self.name, self.fn, self.transform)


@dataclass(frozen=True)
class OperatorPair:
    revision: RevisionOperator
    contraction: ContractionOperator

    @property
    def name(self) -> str:
        return f"{self.revision.name}+{self.contraction.name}"


REVISION_OPERATORS: dict[str, RevisionOperator] = {
    "natural": RevisionOperator("natural", natural_revision, _natural),
    "flatten": RevisionOperator("flatten", flatten_revision, _flatten),
    "lex": RevisionOperator("lex", lexicographic_revision, _lex),
    "reverse": RevisionOperator("reverse", reverse_revision, _reverse),
}

CONTRACTION_OPERATORS: dict[str, ContractionOperator] = {
    "natural-con": ContractionOperator("natural-con", natural_contraction, _natural_con),
    "drastic": ContractionOperator("drastic", drastic_withdrawal, _drastic),
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


def level_transform(
    op: RevisionOperator | ContractionOperator, sig: Signature
) -> LevelTransform:
    """op as a level transform over sig: its own transform, or else the
    adapter that calls op.fn on the state and the input the masks stand for
    and returns the outcome's level masks (None for ABSURD)."""
    if op.transform is not None:
        return op.transform
    fn = op.fn

    def adapted(levels: Levels, a: int, full: int) -> Levels | None:
        out = fn(_from_levels(sig, levels), WorldSet(sig, a))
        return None if out is ABSURD else _level_masks(out)

    return adapted


def _transforms(pair: OperatorPair, sig: Signature) -> dict[str, LevelTransform]:
    """The pair's level transforms over sig, by step kind."""
    return {"revise": level_transform(pair.revision, sig),
            "contract": level_transform(pair.contraction, sig)}


# The state of an outcome's levels: the outcomes that traces read recur as the
# operators' own memoized results do.
_state_of = lru_cache(maxsize=4096)(_from_levels)

_UNSET = object()


class _Run:
    """A state as sequences and rules read it, with the pair's level
    transforms (by step kind, see _transforms); the one engine that runs a
    revise/contract sequence.

    levels is the state's level masks, base its belief set and full the mask
    of every valuation.  after(chain) is the levels after a chain of steps
    from the state, None for ABSURD; a step is (kind, mask) or (kind, mask,
    trace label).  A chain continues from ABSURD only by revising by a
    satisfiable input, which restarts from the uniform state; contracting
    ABSURD, or revising it by the empty input, raises
    UnsupportedSequenceError.  Every chain asked for is memoized, and a chain
    one step longer than a memoized one runs only its last step, so the rules
    of a group share each outcome of the instance; clear the memo before the
    next instance.  A step that carries a label is a memo key of its own,
    decided afresh.
    """

    __slots__ = ("sig", "levels", "base", "full", "transforms", "memo")

    def __init__(self, sig: Signature, levels: Levels, transforms: dict):
        self.sig = sig
        self.levels = levels
        self.base = levels[0]
        self.full = sig.full_mask
        self.transforms = transforms
        self.memo: dict = {}

    def after(self, chain: tuple[tuple, ...]) -> Levels | None:
        memo = self.memo
        out = memo.get(chain, _UNSET)
        if out is _UNSET:
            out = memo.get(chain[:-1], _UNSET) if len(chain) > 1 else _UNSET
            if out is _UNSET:
                out, steps = self.levels, chain
            else:
                steps = chain[-1:]
            full, transforms = self.full, self.transforms
            for step in steps:
                kind, a = step[0], step[1]
                if out is None:
                    if kind == "contract":
                        raise UnsupportedSequenceError("cannot contract the absurd state")
                    if not a:
                        raise UnsupportedSequenceError(
                            "cannot revise the absurd state by an unsatisfiable input")
                    out = (full,)
                out = transforms[kind](out, a, full)
            memo[chain] = out
        return out

    def outcomes(self, chain: tuple[tuple, ...]) -> list[RevisionOutcome]:
        """The outcome after each step of chain: a state, or ABSURD.  A step
        runs on a run of the last state before it (this one at first), so
        memo keys stay short and a long chain costs linear time."""
        run, steps, outcomes = self, (), []
        for step in chain:
            steps += (step,)
            levels = run.after(steps)
            if levels is None:
                outcomes.append(ABSURD)
            else:
                outcomes.append(_state_of(self.sig, levels))
                run, steps = _Run(self.sig, levels, self.transforms), ()
        return outcomes


Step = tuple[str, WorldSet]  # ("revise" | "contract", input)


def apply_sequence(
    ops: OperatorPair, s: RankedState, steps: Iterable[Step]
) -> list[RevisionOutcome]:
    """Run a revise/contract sequence, returning the full trace.

    The trace includes the initial state.  Every step's input must be over
    the state's signature.  The outcomes are read from one _Run, which holds
    the rules for continuing from the absurd state.
    """
    chain = []
    for kind, a in steps:
        if kind not in ("revise", "contract"):
            raise ValueError(f"unknown step kind {kind!r}")
        if a.sig is not s.sig and a.sig != s.sig:
            raise SignatureMismatchError(f"signature mismatch: {s.sig.atoms} vs {a.sig.atoms}")
        chain.append((kind, a.mask))
    run = _Run(s.sig, _level_masks(s), _transforms(ops, s.sig))
    return [s, *run.outcomes(tuple(chain))]
