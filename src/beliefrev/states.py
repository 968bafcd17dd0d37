"""Ranked epistemic states.

A state is a total map valuation -> natural-number rank, kept in normalized
form: ranks occupy a contiguous range 0..k with every level non-empty.  Lower
rank means more plausible; level 0 is the belief set.  Two states encode the
same epistemic state exactly when their normalized rank maps coincide, so the
total preorder is the identity of the state.

RankedState is a slotted frozen value that caches its hash on first use and,
like the logic values, pickles through its constructor (__reduce__).

State streams have two layers.  The vector layer (StateStream.rank_vectors)
yields normalized rank tuples; the state layer (iterating the stream) wraps
each in a RankedState, whose constructor validates it.  A consumer that only
counts or compares states reads the vectors and builds no state, and
StateStream.distinct counts distinct states without building a tuple per
state where the stream allows it.

Exhaustive streams are flat: for each level count k, every prefix over the
first half of the valuations is followed by the lex-ordered suffixes over
0..k-1 that cover the levels the prefix missed, which is lexicographic order
on the whole rank vector.  Sampled streams draw each rank exactly as
Random.randrange(2**n) does, so a seed names the same states as a per-rank
randrange sampler: a rank is the top n + 1 bits of one 32-bit generator word,
accepted iff the word's top bit is 0.  For n <= 7 the words are drawn in
blocks and filtered as bytes, with bytes.translate; for n >= 8 a rank no
longer fits a byte and each is drawn on its own.  Draw-exactness rests on
CPython's getrandbits word order and on randrange drawing n + 1 bits, as
CPython 3.10-3.12 do; how the draws are compacted does not change which
words are drawn or accepted.

The byte draws are compacted in one of two ways.  For n <= 3 a rank is
below 8, so its one-hot bit fits a byte, and a state's normalized rank of a
world is popcount(used & below(raw)), where used is the set of ranks the
state uses and below(raw) the set of ranks below the world's raw rank: a
whole block of states is compacted by a few big-int folds and translates
(SWAR popcount, as in Knuth, TAOCP 4A 7.1.3).  For 4 <= n <= 7 each state's
sorted used ranks are mapped onto 0..k-1 by one translate.

Every vector is normalized by construction, so the vector layer makes no
per-vector check: an exhaustive suffix is taken only from the table of
suffixes that cover the levels its prefix missed, so prefix and suffix
together use exactly 0..k-1; a sampled rank counts the used ranks below it,
or is mapped by a table from the sorted used ranks onto 0..k-1.  The tests
compare both layers, compare the block compaction with a per-state one, and
validate every vector at small n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, islice, product, repeat
from typing import Iterable, Iterator, Mapping

from .logic import Formula, Signature, SignatureMismatchError, WorldSet, models

MAX_ENUM_ATOMS = 3


@dataclass(frozen=True, slots=True, init=False)
class RankedState:
    """Normalized rank function over all valuations of the signature.

    The constructor is written out so that building a state is one frame:
    it converts ranks to a tuple, checks the length and the contiguity, and
    sets the fields.  The hash is computed on the first __hash__ and kept, so
    building a state computes no hash and every later cache lookup reuses it.
    Equality tests identity first, then the ranks, then the signature.  A
    pickle carries only the constructor arguments (__reduce__): unpickling
    re-runs the validation and the hash is recomputed in the receiving
    process.
    """

    sig: Signature
    ranks: tuple[int, ...]
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, sig: Signature, ranks: Iterable[int]):
        if not isinstance(ranks, tuple):
            ranks = tuple(ranks)
        if len(ranks) != sig.num_valuations:
            raise ValueError(f"expected {sig.num_valuations} ranks, got {len(ranks)}")
        used = set(ranks)
        if not used.issuperset(range(len(used))):
            raise ValueError("ranks not normalized: must cover 0..k contiguously")
        _set_sig(self, sig)
        _set_ranks(self, ranks)
        _set_hash(self, None)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ranks == other.ranks and (self.sig is other.sig or self.sig == other.sig)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.sig, self.ranks))
            _set_hash(self, h)
        return h

    def __reduce__(self):
        return RankedState, (self.sig, self.ranks)

    @property
    def num_levels(self) -> int:
        return max(self.ranks) + 1

    def level(self, rank: int) -> WorldSet:
        return WorldSet(self.sig, _level_masks(self)[rank])

    def __repr__(self) -> str:
        sig = self.sig
        levels = ["{" + ",".join(WorldSet(sig, m).bitstrings()) + "}" for m in _level_masks(self)]
        return f"RankedState({' < '.join(levels)})"


# The slot setters: the frozen dataclass's own __setattr__ refuses every
# assignment, and a bound slot setter costs about half of object.__setattr__
_set_sig = RankedState.sig.__set__
_set_ranks = RankedState.ranks.__set__
_set_hash = RankedState._hash.__set__


def _level_masks(s: RankedState) -> tuple[int, ...]:
    masks = [0] * s.num_levels
    for v, r in enumerate(s.ranks):
        masks[r] |= 1 << v
    return tuple(masks)


def normalize(sig: Signature, raw: Mapping | Iterable[int]) -> RankedState:
    """Compact arbitrary natural ranks to contiguous 0..k, preserving order.

    Accepts any iterable of ranks indexed by valuation, or a mapping keyed by
    valuation integers or bitstrings.  Idempotent.  Every valuation must be
    ranked; a wrong length is reported before any rank is converted.
    """
    total = sig.num_valuations
    cls = raw.__class__
    if cls is list or cls is tuple or not isinstance(raw, Mapping):
        values = raw if cls is list or cls is tuple else list(raw)
        if len(values) != total:
            raise ValueError(f"expected {total} ranks, got {len(values)}")
        ranks = list(map(int, values))
    else:
        assigned: list[int | None] = [None] * total
        for key, rank in raw.items():
            v = sig.valuation_of(key) if isinstance(key, str) else int(key)
            if not 0 <= v < total:
                raise ValueError(f"valuation {key!r} out of range")
            if assigned[v] is not None:
                raise ValueError(f"duplicate rank for valuation {sig.bitstring(v)}")
            assigned[v] = int(rank)
        missing = [sig.bitstring(v) for v, r in enumerate(assigned) if r is None]
        if missing:
            raise ValueError(f"missing valuation(s): {', '.join(missing)}")
        ranks = assigned  # type: ignore[assignment]
    if min(ranks) < 0:
        raise ValueError("ranks must be natural numbers")
    return RankedState(sig, _compacted(ranks))


def _compacted(ranks: list[int]) -> tuple[int, ...]:
    """Natural ranks mapped onto 0..k-1, order preserved."""
    order = {old: new for new, old in enumerate(sorted(set(ranks)))}
    return tuple(map(order.__getitem__, ranks))


def uniform_state(sig: Signature) -> RankedState:
    """The state of total ignorance: every valuation at rank 0."""
    return RankedState(sig, (0,) * sig.num_valuations)


def min_worlds(s: RankedState, a: WorldSet) -> WorldSet:
    """Minimal-rank members of a; empty exactly when a is empty."""
    if s.sig is not a.sig and s.sig != a.sig:
        raise SignatureMismatchError(
            f"signature mismatch: {s.sig.atoms} vs {a.sig.atoms}"
        )
    return WorldSet(s.sig, _first_hit(_level_masks(s), a.mask))


def _first_hit(levels: Iterable[int], mask: int) -> int:
    """The worlds of mask in the lowest level that meets it; 0 if none does."""
    for level in levels:
        hit = level & mask
        if hit:
            return hit
    return 0


def belief_set(s: RankedState) -> WorldSet:
    """Models of the extracted knowledge base: the rank-0 level."""
    return WorldSet(s.sig, _level_masks(s)[0])


def believes(s: RankedState, f: Formula) -> bool:
    return belief_set(s).issubset(models(f, s.sig))


def state_equal(s1: RankedState, s2: RankedState) -> bool:
    """Whether the induced total preorders coincide."""
    if s1.sig != s2.sig:
        raise SignatureMismatchError(
            f"signature mismatch: {s1.sig.atoms} vs {s2.sig.atoms}"
        )
    return s1.ranks == s2.ranks


# --- State files -----------------------------------------------------------
#
# UTF-8 text; '#' starts a comment.  First line "atoms: r g s", then one
# "<bitstring>: <rank>" line per valuation, in any order.  Ranks are
# arbitrary naturals; loading normalizes.


class StateFileError(ValueError):
    """A state file or state text is malformed."""


def state_to_text(s: RankedState) -> str:
    lines = ["atoms: " + " ".join(s.sig.atoms)]
    lines += [f"{s.sig.bitstring(v)}: {s.ranks[v]}" for v in s.sig.valuations()]
    return "\n".join(lines) + "\n"


def parse_state_text(text: str) -> RankedState:
    lines = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise StateFileError("empty state text")
    header = lines[0]
    if not header.startswith("atoms:"):
        raise StateFileError("first line must be 'atoms: <names>'")
    names = header[len("atoms:"):].split()
    try:
        sig = Signature(tuple(names))
    except ValueError as exc:
        raise StateFileError(f"bad atoms line: {exc}") from exc
    entries: dict[str, int] = {}
    for line in lines[1:]:
        if ":" not in line:
            raise StateFileError(f"bad line {line!r}: expected '<bits>: <rank>'")
        bits, rank_text = (part.strip() for part in line.split(":", 1))
        try:
            sig.valuation_of(bits)
        except ValueError as exc:
            raise StateFileError(str(exc)) from exc
        if bits in entries:
            raise StateFileError(f"duplicate valuation {bits}")
        # ASCII digits only: int() would also take "1_0", "+1" and non-ASCII
        # digits; it still refuses more digits than its conversion limit
        try:
            if not (rank_text.isascii() and rank_text.isdigit()):
                raise ValueError(rank_text)
            entries[bits] = int(rank_text)
        except ValueError:
            raise StateFileError(f"bad rank {rank_text!r} for valuation {bits}") from None
    try:
        return normalize(sig, entries)
    except ValueError as exc:
        raise StateFileError(str(exc)) from exc


def load_state_file(path) -> RankedState:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_state_text(handle.read())


# --- Enumeration and sampling ----------------------------------------------


def count_weak_orders(num_elements: int) -> int:
    """Number of weak orders (ordered set partitions) of a finite set."""
    counts = [1]
    for t in range(1, num_elements + 1):
        counts.append(sum(math.comb(t, j) * counts[t - j] for j in range(1, t + 1)))
    return counts[num_elements]


def _with_masks(levels: int, length: int) -> list[tuple[tuple[int, ...], int]]:
    """Every vector in range(levels)**length, lexicographic, with the bit
    mask of the values it uses."""
    out = []
    for vec in product(range(levels), repeat=length):
        used = 0
        for value in vec:
            used |= 1 << value
        out.append((vec, used))
    return out


def _exhaustive_iter(sig: Signature) -> Iterator[tuple[int, ...]]:
    """Prefix times covering suffix (see the module docstring).  A suffix
    table is built once per missed level set and dropped with its level
    count, so at most one count's tables are alive."""
    total = sig.num_valuations
    head = total // 2
    tail = total - head
    for levels in range(1, total + 1):
        full = (1 << levels) - 1
        suffixes = _with_masks(levels, tail)
        tables: dict[int, list[tuple[int, ...]]] = {}
        for prefix, used in _with_masks(levels, head):
            missing = full & ~used
            table = tables.get(missing)
            if table is None:
                table = tables[missing] = [
                    vec for vec, mask in suffixes if mask & missing == missing
                ]
            for suffix in table:
                yield prefix + suffix


# A rank draw is n + 1 bits, so up to n = 7 it is drawn and compacted as a byte
_BYTE_PATH_MAX_ATOMS = 7
# up to n = 3 a rank is below 8, so its one-hot bit fits a byte as well, and
# a whole block of states is compacted at once
_BLOCK_PATH_MAX_ATOMS = 3
# at most 64 KiB of generator output per refill
_BLOCK_WORDS = 1 << 14
_IDENT = bytes(range(256))
_REJECTED = _IDENT[128:]
# per rank r < 8: its one-hot bit, the ranks below it, and (per byte) the
# number of set bits
_TO_BIT = bytes(1 << r for r in range(8)) + bytes(248)
_BELOW = bytes((1 << r) - 1 for r in range(8)) + bytes(248)
_POPCOUNT = bytes(b.bit_count() for b in range(256))
# a memoryview format whose items are exactly one row of 2, 4 or 8 bytes
_ROW_FORMAT = {2: "H", 4: "I", 8: "Q"}


def _sampled_iter(sig: Signature, count: int, seed: int) -> Iterator[tuple[int, ...]]:
    if sig.n > _BYTE_PATH_MAX_ATOMS:
        return _sampled_rank_iter(sig, count, seed)
    if sig.n > _BLOCK_PATH_MAX_ATOMS:
        return _sampled_byte_iter(sig, count, seed)
    # the grouper idiom: one iterator zipped with itself cuts each block of
    # rows into tuples of total ranks
    total = sig.num_valuations
    return chain.from_iterable(zip(*[iter(rows)] * total)
                               for rows in _compacted_blocks(sig, count, seed))


def _sampled_rank_iter(sig: Signature, count: int, seed: int) -> Iterator[tuple[int, ...]]:
    # the accepted draws of one seeded generator, taken total at a time
    total = sig.num_valuations
    getrandbits = random.Random(seed).getrandbits
    draws = filter(total.__gt__, map(getrandbits, repeat(total.bit_length())))
    for _ in range(count):
        yield _compacted(list(islice(draws, total)))


def _draw_blocks(sig: Signature, count: int, seed: int) -> Iterator[bytes]:
    """The raw ranks of _sampled_rank_iter's count states, drawn a block of
    words at a time, as bytes holding a whole number of states per block.

    getrandbits(32 * W) holds W successive 32-bit words, the first in the
    lowest bits, so byte 4i + 3 of its little-endian bytes is the top byte of
    word i.  A per-rank draw is a word's top n + 1 bits and is accepted iff
    it is below 2**n, that is iff the word's top bit is 0: one translate
    deletes the rejected top bytes and shifts the rest down to their ranks.
    """
    total = sig.num_valuations
    to_rank = bytes(b >> (7 - sig.n) for b in range(256))
    getrandbits = random.Random(seed).getrandbits
    pending = b""
    while count:
        # about half the words are accepted; a short block is topped up by
        # the next one, and draws past the last state are never used
        words = min(2 * (count * total - len(pending)) + 64, _BLOCK_WORDS)
        block = getrandbits(32 * words).to_bytes(4 * words, "little")
        draws = pending + block[3::4].translate(to_rank, _REJECTED)
        stop = min(len(draws) // total, count) * total
        yield draws[:stop]
        count -= stop // total
        pending = draws[stop:]


def _sampled_byte_iter(sig: Signature, count: int, seed: int) -> Iterator[tuple[int, ...]]:
    """Each state's distinct ranks, sorted, mapped to 0..k by one translate."""
    total = sig.num_valuations
    for draws in _draw_blocks(sig, count, seed):
        for start in range(0, len(draws), total):
            raw = draws[start:start + total]
            used = bytes(sorted(set(raw)))
            yield tuple(raw.translate(bytes.maketrans(used, _IDENT[:len(used)])))


def _compacted_blocks(sig: Signature, count: int, seed: int) -> Iterator[bytes]:
    """_draw_blocks with every row normalized, a block at a time (n <= 3).

    A state's normalized rank of a world is popcount(used & below(raw)):
    used is the set of ranks the state uses and below(raw) the set of ranks
    below the world's raw rank, each one bit per rank in a byte.  Read as
    one little-endian int, the block's one-hot bytes are folded right by 1,
    2, 4 bytes up to a row, so the first byte of each row ORs its whole row;
    every other byte is masked off and the first byte is spread back over
    its row by the mirrored left folds.
    """
    total = sig.num_valuations
    shifts = [8 << i for i in range(sig.n)]
    first = b"\xff" + bytes(total - 1)
    for draws in _draw_blocks(sig, count, seed):
        size = len(draws)
        used = int.from_bytes(draws.translate(_TO_BIT), "little")
        for shift in shifts:
            used |= used >> shift
        used &= int.from_bytes(first * (size // total), "little")
        for shift in shifts:
            used |= used << shift
        below = int.from_bytes(draws.translate(_BELOW), "little")
        yield (used & below).to_bytes(size, "little").translate(_POPCOUNT)


@dataclass
class StateStream:
    """Deterministic, re-iterable sequence of states with generation metadata.

    rank_vectors() yields each state's normalized rank tuple; distinct()
    counts the distinct ones; iterating the stream yields the same states as
    validated RankedStates, built in __iter__ alone.  Exhaustive streams
    yield every weak order on the valuations exactly once, ordered by number
    of levels and then lexicographically on the rank vector, generated as
    prefix times covering suffix (see the module docstring); the suffix
    tables live for one level count only, so the stream is never
    materialized.  Sampled streams are
    reproducible from the seed and draw-exact with Random.randrange.
    Iterating a stream twice yields identical sequences, so consumers may
    partition it into disjoint chunks by position.
    """

    sig: Signature
    mode: str  # "exhaustive" | "sampled"
    count: int
    seed: int | None = None

    def __iter__(self) -> Iterator[RankedState]:
        return map(RankedState, repeat(self.sig), self.rank_vectors())

    def rank_vectors(self) -> Iterator[tuple[int, ...]]:
        """The normalized rank tuples of the stream's states, in order."""
        if self.mode == "exhaustive":
            return _exhaustive_iter(self.sig)
        if self.mode == "sampled":
            assert self.seed is not None
            return _sampled_iter(self.sig, self.count, self.seed)
        raise ValueError(f"unknown mode {self.mode!r}")

    def distinct(self) -> int:
        """The number of distinct states in the stream.

        Sampled at n <= 3, the compacted blocks are counted as they are:
        read as one unsigned int per row, a block maps rows one to one onto
        ints, so no tuple is built per state.
        """
        if self.mode == "sampled" and self.sig.n <= _BLOCK_PATH_MAX_ATOMS:
            assert self.seed is not None
            row = _ROW_FORMAT[self.sig.num_valuations]
            seen: set[int] = set()
            for rows in _compacted_blocks(self.sig, self.count, self.seed):
                seen.update(memoryview(rows).cast(row))
            return len(seen)
        return len(set(self.rank_vectors()))


def enumerate_states(sig: Signature) -> StateStream:
    """Every weak order on the valuations, each exactly once, normalized.

    Restricted to small signatures: the count grows as the ordered Bell
    number of 2**n (545835 already at n = 3).
    """
    if sig.n > MAX_ENUM_ATOMS:
        raise ValueError(
            f"signature too large for exhaustive enumeration: n = {sig.n} (max {MAX_ENUM_ATOMS})"
        )
    return StateStream(sig, "exhaustive", count_weak_orders(sig.num_valuations))


def sample_states(sig: Signature, count: int, seed: int) -> StateStream:
    """Reproducible sample: per state, draw each valuation's rank uniformly
    from 0..2**n - 1 with the seeded generator, then normalize.

    A rank is getrandbits((2**n).bit_length()), redrawn while it is at least
    2**n: the draw Random.randrange(2**n) makes, so the stream equals
    normalize(sig, [rng.randrange(2**n) for each valuation]) state by state.
    That draw is the top n + 1 bits of one 32-bit generator word, and it is
    accepted iff the word's top bit is 0.  For n <= 7 a rank fits a byte:
    words are drawn in blocks and their top bytes filtered as bytes.  For
    n <= 3 each block of states is compacted at once, a normalized rank
    being popcount(used & below(raw)) over one-hot rank bytes; for 4 <= n <= 7
    each state is compacted by its own translate.  For n >= 8 each rank is
    drawn on its own.  The compaction leaves the draws as they are, so every
    seed names the same states on every path.  rank_vectors() yields the
    compacted tuples, distinct() counts the distinct ones (from the compacted
    blocks at n <= 3), and iterating the stream wraps each in a validated
    RankedState.  The seed must be a natural number: Random seeds by
    absolute value, so seed -s would draw the states of seed s.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be a natural number, got {seed}")
    return StateStream(sig, "sampled", count, seed)
