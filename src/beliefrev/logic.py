"""Propositional language over a finite ordered atom signature.

Everything downstream is semantic: a formula denotes the set of valuations
satisfying it (a WorldSet), and a knowledge base is represented canonically
by its model set.  A valuation is an integer whose binary digits, read left
to right, give the truth values of the atoms in signature order; for atoms
(r, g, s) the valuation 0b100 prints as "100" (r true, g and s false).

Theory inclusion runs opposite to model inclusion: K1 is a subtheory of K2
exactly when M(K2) is a subset of M(K1).  Checkers in other modules therefore
compare model sets directly and flip the direction where a containment of
theories is meant.

Signature and WorldSet are slotted frozen values, built on every step of a
postulate scan, so what they derive (sizes, masks, hashes) is computed once
and validation stays cheap instead of being skipped.  A value that caches a
hash pickles through its constructor (__reduce__): str hashes are salted per
process, so a cached hash must never travel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Iterable, Iterator

MAX_ATOMS = 16

# Deepest formula the parser accepts.  Each operator and each pair of
# parentheses is one level; the parser and every recursive walk of the tree
# (models, satisfies, printing) stay well inside the interpreter's recursion
# limit at this depth.
MAX_FORMULA_DEPTH = 100

# Entries of each memo of the DNF round trip: dnf_of's formulas by
# (signature, mask), its minterms by (signature, world), models' results, and
# the mask of each formula node that models has folded.  Every input at n <= 3
# (256 world sets) fits, and so does every minterm up to n = 10.  A full dict
# memo is emptied and refilled.  The kept formulas share their prefixes and
# minterms, so a kept input costs about one Or node.
_ROUND_TRIP_MEMO = 1024

_ATOM_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

# The parser reads these words as constants, so they cannot name atoms.
_RESERVED_WORDS = ("true", "false")


class SignatureMismatchError(ValueError):
    """Two values built over different signatures were combined."""


class FormulaSyntaxError(ValueError):
    """Input text does not conform to the formula grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(ValueError):
    """A formula mentions an atom that is not in the signature."""

    def __init__(self, atom: str, position: int | None = None):
        where = "" if position is None else f" (at position {position})"
        super().__init__(f"unknown atom {atom!r}{where}")
        self.atom = atom
        self.position = position


@dataclass(frozen=True, slots=True)
class Signature:
    """Ordered list of distinct atom names; fixes the valuation width.

    The width, the valuation count, the full mask and the hash are computed
    once, when the signature is built.  Atom hashes are salted per process,
    so a pickle carries only the atoms and unpickling re-runs the
    constructor (__reduce__).
    """

    atoms: tuple[str, ...]
    n: int = field(init=False, repr=False, compare=False)
    num_valuations: int = field(init=False, repr=False, compare=False)
    full_mask: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.atoms, str):
            # tuple("pq") would silently make one atom per character
            raise TypeError(f"atoms must be a sequence of names, not the string {self.atoms!r}")
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("signature needs at least one atom")
        if len(self.atoms) > MAX_ATOMS:
            raise ValueError(f"signature too large: {len(self.atoms)} atoms (max {MAX_ATOMS})")
        for name in self.atoms:
            if not _ATOM_NAME_RE.match(name):
                raise ValueError(f"bad atom name {name!r}")
            if name in _RESERVED_WORDS:
                raise ValueError(f"reserved atom name {name!r}: true and false are constants")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atom names")
        n = len(self.atoms)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num_valuations", 1 << n)
        object.__setattr__(self, "full_mask", (1 << (1 << n)) - 1)
        object.__setattr__(self, "_hash", hash(self.atoms))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Signature, (self.atoms,)

    def valuations(self) -> range:
        return range(self.num_valuations)

    def index_of(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise UnknownAtomError(atom) from None

    def atom_true(self, valuation: int, index: int) -> bool:
        """Truth value of the index-th atom under the given valuation."""
        return bool((valuation >> (self.n - 1 - index)) & 1)

    def bitstring(self, valuation: int) -> str:
        return format(valuation, f"0{self.n}b")

    def valuation_of(self, bits: str) -> int:
        if len(bits) != self.n or any(c not in "01" for c in bits):
            raise ValueError(f"bad valuation {bits!r}: expected {self.n} binary digits")
        return int(bits, 2)


@lru_cache(maxsize=None)
def _atom_masks(sig: Signature) -> tuple[int, ...]:
    # Truth table of each atom over all valuations, packed into one integer
    # (bit v is set iff the atom is true under valuation v).
    total = sig.num_valuations
    masks = []
    for index in range(sig.n):
        weight = sig.n - 1 - index
        mask = ((1 << (1 << weight)) - 1) << (1 << weight)
        span = 1 << (weight + 1)
        while span < total:
            mask |= mask << span
            span <<= 1
        masks.append(mask)
    return tuple(masks)


@dataclass(frozen=True, slots=True)
class WorldSet:
    """A set of valuations, stored as a bitmask over all 2**n of them.

    The range check reads the signature's cached full mask.  A pickle carries
    only the constructor arguments, so unpickling re-runs the check.
    """

    sig: Signature
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.sig.full_mask:
            raise ValueError("mask out of range for signature")

    def __hash__(self) -> int:
        return hash((self.sig._hash, self.mask))

    def __reduce__(self):
        return WorldSet, (self.sig, self.mask)

    @classmethod
    def empty(cls, sig: Signature) -> "WorldSet":
        return cls(sig, 0)

    @classmethod
    def full(cls, sig: Signature) -> "WorldSet":
        return cls(sig, sig.full_mask)

    @classmethod
    def of(cls, sig: Signature, worlds: Iterable[int]) -> "WorldSet":
        mask = 0
        for v in worlds:
            if not 0 <= v < sig.num_valuations:
                raise ValueError(f"valuation {v} out of range")
            mask |= 1 << v
        return cls(sig, mask)

    @classmethod
    def from_bitstrings(cls, sig: Signature, bits: Iterable[str]) -> "WorldSet":
        return cls.of(sig, (sig.valuation_of(b) for b in bits))

    def _check(self, other: "WorldSet") -> None:
        if self.sig is not other.sig and self.sig != other.sig:
            raise SignatureMismatchError(
                f"signature mismatch: {self.sig.atoms} vs {other.sig.atoms}"
            )

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, valuation: int) -> bool:
        return bool((self.mask >> valuation) & 1)

    def __and__(self, other: "WorldSet") -> "WorldSet":
        self._check(other)
        return WorldSet(self.sig, self.mask & other.mask)

    def __or__(self, other: "WorldSet") -> "WorldSet":
        self._check(other)
        return WorldSet(self.sig, self.mask | other.mask)

    def __sub__(self, other: "WorldSet") -> "WorldSet":
        self._check(other)
        return WorldSet(self.sig, self.mask & ~other.mask)

    def complement(self) -> "WorldSet":
        return WorldSet(self.sig, self.sig.full_mask & ~self.mask)

    def issubset(self, other: "WorldSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def bitstrings(self) -> list[str]:
        return [self.sig.bitstring(v) for v in self]

    def __repr__(self) -> str:
        return f"WorldSet({{{', '.join(self.bitstrings())}}})"


def entails(a: WorldSet, b: WorldSet) -> bool:
    """Model-set inclusion a <= b.

    Realizes classical entailment, and also theory inclusion read backwards:
    K is a subtheory of K' iff entails(M(K'), M(K)).
    """
    return a.issubset(b)


def expand(k: WorldSet, a: WorldSet) -> WorldSet:
    """Expansion of a knowledge base by an input: model-set intersection.

    An empty result denotes the inconsistent theory.
    """
    return k & a


# --- Formula AST -----------------------------------------------------------


class Formula:
    """Base class for propositional AST nodes.

    A node is a slotted frozen value.  Its hash, the hash of its fields as a
    frozen dataclass has it, is computed when it is built (its children's
    hashes are already cached) and kept in the _hash slot, so a memo lookup keyed by a formula costs the same
    however deep the formula is.  Equality is by fields too, but compared in a
    loop down the first field (a left operand), so two equal DNFs built apart
    compare without recursing along their 2**n disjuncts.  A pickle carries
    only the constructor arguments (__reduce__), so the salted hash never
    travels.
    """

    __slots__ = ("_hash",)

    def __post_init__(self):
        _set_formula_hash(self, hash(self._fields()))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        a, b = self, other
        while a is not b:
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            (a_first, *a_rest), (b_first, *b_rest) = a._fields(), b._fields()
            if a_rest != b_rest:
                return False
            if not isinstance(a_first, Formula):
                return a_first == b_first
            a, b = a_first, b_first
        return True

    def __reduce__(self):
        return self.__class__, self._fields()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __str__(self) -> str:
        return formula_text(self)


_set_formula_hash = Formula._hash.__set__


# Formula's own __eq__ and cached __hash__ stand: a dataclass with eq would
# replace both
_node = dataclass(frozen=True, slots=True, eq=False)


@_node
class Atom(Formula):
    name: str


@_node
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


@_node
class Not(Formula):
    operand: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


def satisfies(f: Formula, valuation: int, sig: Signature) -> bool:
    """Truth of f under one valuation, by direct recursive evaluation.

    Deliberately independent of models(): the two are checked against each
    other and must not share code.
    """
    if isinstance(f, Atom):
        return sig.atom_true(valuation, sig.index_of(f.name))
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not satisfies(f.operand, valuation, sig)
    if isinstance(f, And):
        return satisfies(f.left, valuation, sig) and satisfies(f.right, valuation, sig)
    if isinstance(f, Or):
        return satisfies(f.left, valuation, sig) or satisfies(f.right, valuation, sig)
    if isinstance(f, Implies):
        return (not satisfies(f.left, valuation, sig)) or satisfies(f.right, valuation, sig)
    if isinstance(f, Iff):
        return satisfies(f.left, valuation, sig) == satisfies(f.right, valuation, sig)
    raise TypeError(f"not a formula: {f!r}")


def _remembered(memo: dict, key, value):
    """Store value under key in a round-trip memo, emptying the memo when full."""
    if len(memo) >= _ROUND_TRIP_MEMO:
        memo.clear()
    memo[key] = value
    return value


@lru_cache(maxsize=_ROUND_TRIP_MEMO)
def models(f: Formula, sig: Signature) -> WorldSet:
    """The set of valuations satisfying f, computed bit-parallel.

    Memoized in a bounded LRU: equal formulas give one WorldSet object.  Each
    node's mask is folded once and kept in a bounded node memo, so a formula
    that shares subformulas with earlier ones (dnf_of's prefixes and
    minterms) costs only its new nodes.  A left-nested chain of And or Or is
    folded in a loop, so however many worlds a DNF has, the recursion goes
    no deeper than a minterm.
    """
    return WorldSet(sig, _model_mask(f, sig))


# (formula, signature) -> model mask of each node _model_mask has folded
_node_masks: dict[tuple[Formula, Signature], int] = {}


def _model_mask(f: Formula, sig: Signature) -> int:
    mask = _node_masks.get((f, sig))
    if mask is not None:
        return mask
    if isinstance(f, (And, Or)):
        # walk down the chain of this connective to its first folded node or
        # its bottom operand, then fold back up; recursion goes only into
        # right operands
        kind, chain, node = type(f), [f], f.left
        while type(node) is kind and (mask := _node_masks.get((node, sig))) is None:
            chain.append(node)
            node = node.left
        if type(node) is not kind:
            mask = _model_mask(node, sig)
        fold = int.__or__ if kind is Or else int.__and__
        for node in reversed(chain):
            mask = _remembered(_node_masks, (node, sig), fold(mask, _model_mask(node.right, sig)))
        return mask
    full = sig.full_mask
    if isinstance(f, Atom):
        mask = _atom_masks(sig)[sig.index_of(f.name)]
    elif isinstance(f, Const):
        mask = full if f.value else 0
    elif isinstance(f, Not):
        mask = full & ~_model_mask(f.operand, sig)
    elif isinstance(f, Implies):
        mask = (full & ~_model_mask(f.left, sig)) | _model_mask(f.right, sig)
    elif isinstance(f, Iff):
        mask = full & ~(_model_mask(f.left, sig) ^ _model_mask(f.right, sig))
    else:
        raise TypeError(f"not a formula: {f!r}")
    return _remembered(_node_masks, (f, sig), mask)


@lru_cache(maxsize=None)
def _literals(sig: Signature) -> tuple[tuple[Formula, Formula], ...]:
    # (negative, positive) literal of each atom, shared by every minterm
    return tuple((Not(Atom(name)), Atom(name)) for name in sig.atoms)


@lru_cache(maxsize=_ROUND_TRIP_MEMO)
def _minterm(sig: Signature, v: int) -> Formula:
    # the conjunction, in atom order, of the literals true at v
    return reduce(And, [pair[sig.atom_true(v, i)] for i, pair in enumerate(_literals(sig))])


# (signature, mask) -> dnf_of's formula for that mask
_prefixes: dict[tuple[Signature, int], Formula] = {}


def dnf_of(w: WorldSet, sig: Signature) -> Formula:
    """Canonical full-DNF formula whose model set is exactly w.

    One minterm per world, minterms in valuation order, as a left-nested Or;
    each minterm is a left-nested And of one literal per atom, in atom order.
    The empty set maps to the constant false.  The formula is built from
    shared parts: each minterm once (a bounded LRU by signature and world),
    and the DNF of a set's first k worlds once, as the left operand of the DNF
    of its first k + 1 (a bounded memo by signature and mask).  So equal
    world sets give one AST object, and a set whose prefix is kept costs one
    new Or node.
    """
    # strip the highest worlds until a kept prefix remains, then add them back
    mask, f, stripped = w.mask, None, []
    while mask and (f := _prefixes.get((sig, mask))) is None:
        top = mask.bit_length() - 1
        stripped.append(top)
        mask ^= 1 << top
    for v in reversed(stripped):
        mask |= 1 << v
        minterm = _minterm(sig, v)
        f = _remembered(_prefixes, (sig, mask), minterm if f is None else Or(f, minterm))
    return FALSE if f is None else f


# --- Printing --------------------------------------------------------------

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3, 4, 5


def formula_text(f: Formula) -> str:
    """ASCII rendering in the input grammar, with minimal parentheses."""
    return _render(f, 0)


def _render(f: Formula, context: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Not):
        return "!" + _render(f.operand, _PREC_NOT)
    if isinstance(f, Iff):
        text = f"{_render(f.left, _PREC_IFF)} <-> {_render(f.right, _PREC_IFF + 1)}"
        prec = _PREC_IFF
    elif isinstance(f, Implies):
        # right-associative: the right operand stays at the same level
        text = f"{_render(f.left, _PREC_IMP + 1)} -> {_render(f.right, _PREC_IMP)}"
        prec = _PREC_IMP
    elif isinstance(f, Or):
        text = f"{_render(f.left, _PREC_OR)} | {_render(f.right, _PREC_OR + 1)}"
        prec = _PREC_OR
    elif isinstance(f, And):
        text = f"{_render(f.left, _PREC_AND)} & {_render(f.right, _PREC_AND + 1)}"
        prec = _PREC_AND
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({text})" if prec < context else text


# --- Parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<iff><->)|(?P<imp>->)|(?P<not>!)|(?P<and>&)|(?P<or>\|)"
    r"|(?P<lp>\()|(?P<rp>\))|(?P<word>[a-z][a-z0-9_]*)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        assert kind is not None
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar:

    formula := iff ; iff := imp ("<->" imp)* ; imp := or ("->" imp)? ;
    or := and ("|" and)* ; and := not ("&" not)* ;
    not := "!" not | atom | "true" | "false" | "(" formula ")" .

    Each rule returns its formula with its depth, counting one level per
    operator and per pair of parentheses.  ``enclosing`` counts the "!", "("
    and "->" levels the parser has recursed into, so the recursion is
    refused at the bound before it happens rather than measured after.
    """

    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.pos = 0
        self.enclosing = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f, _ = self.iff()
        kind, text, at = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {text!r}", at)
        return f

    @staticmethod
    def bounded(depth: int, at: int) -> int:
        if depth > MAX_FORMULA_DEPTH:
            raise FormulaSyntaxError(
                f"formula nested too deeply: more than {MAX_FORMULA_DEPTH} levels", at)
        return depth

    def enter(self, at: int) -> None:
        self.enclosing = self.bounded(self.enclosing + 1, at)

    def iff(self) -> tuple[Formula, int]:
        f, d = self.imp()
        while self.peek()[0] == "iff":
            at = self.advance()[2]
            g, e = self.imp()
            f, d = Iff(f, g), self.bounded(max(d, e) + 1, at)
        return f, d

    def imp(self) -> tuple[Formula, int]:
        f, d = self.disjunction()
        if self.peek()[0] == "imp":
            at = self.advance()[2]
            self.enter(at)
            g, e = self.imp()
            self.enclosing -= 1
            return Implies(f, g), self.bounded(max(d, e) + 1, at)
        return f, d

    def disjunction(self) -> tuple[Formula, int]:
        f, d = self.conjunction()
        while self.peek()[0] == "or":
            at = self.advance()[2]
            g, e = self.conjunction()
            f, d = Or(f, g), self.bounded(max(d, e) + 1, at)
        return f, d

    def conjunction(self) -> tuple[Formula, int]:
        f, d = self.negation()
        while self.peek()[0] == "and":
            at = self.advance()[2]
            g, e = self.negation()
            f, d = And(f, g), self.bounded(max(d, e) + 1, at)
        return f, d

    def negation(self) -> tuple[Formula, int]:
        kind, text, at = self.advance()
        if kind == "not":
            self.enter(at)
            f, d = self.negation()
            self.enclosing -= 1
            return Not(f), self.bounded(d + 1, at)
        if kind == "word":
            if text == "true":
                return TRUE, 0
            if text == "false":
                return FALSE, 0
            if text not in self.sig.atoms:
                raise UnknownAtomError(text, at)
            return Atom(text), 0
        if kind == "lp":
            self.enter(at)
            f, d = self.iff()
            self.enclosing -= 1
            kind2, text2, at2 = self.advance()
            if kind2 != "rp":
                raise FormulaSyntaxError(f"expected ')', got {text2!r}", at2)
            return f, self.bounded(d + 1, at)
        shown = text if text else "end of input"
        raise FormulaSyntaxError(f"unexpected {shown!r}", at)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse ASCII formula text over the signature.

    Raises FormulaSyntaxError with a position on malformed input or past
    MAX_FORMULA_DEPTH levels of nesting, and UnknownAtomError naming the
    atom when it is not in the signature.
    """
    return _Parser(text, sig).parse()
